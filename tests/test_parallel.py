"""Ordered thread-pool map: input order, the bound on unconsumed work,
error propagation and shutdown, and CPU-count independence of the
`gen-cohort` and `dsp` outputs it drives."""

import json
import os
import threading
import time

import numpy as np
import pytest

from clef import cli as climod
from clef import parallel


def _pool_threads() -> int:
    return sum(t.name.startswith("ThreadPoolExecutor")
               for t in threading.enumerate())


def test_results_in_input_order_despite_random_delays():
    delays = np.random.default_rng(0).uniform(0.0, 0.02, size=40)

    def work(i):
        time.sleep(delays[i])
        return i * i

    assert list(parallel.map_ordered(work, range(40), workers=4)) == \
        [i * i for i in range(40)]


def test_unconsumed_items_never_exceed_workers():
    workers, pulled, consumed, backlog = 3, [0], [0], []

    def items():
        for i in range(30):
            pulled[0] += 1
            backlog.append(pulled[0] - consumed[0])
            yield i

    for _ in parallel.map_ordered(lambda i: i, items(), workers=workers):
        time.sleep(0.002)  # slow consumer: finished results would pile up
        consumed[0] += 1
    assert consumed[0] == 30
    assert max(backlog) == workers


def test_worker_error_reaches_caller_and_stops_the_stream():
    boom = RuntimeError("item 5")
    started = []

    def work(i):
        started.append(i)
        if i == 5:
            raise boom
        time.sleep(0.005)
        return i

    before = _pool_threads()
    got = []
    with pytest.raises(RuntimeError) as exc:
        for r in parallel.map_ordered(work, range(100), workers=4):
            got.append(r)
    assert exc.value is boom
    assert got == [0, 1, 2, 3, 4]
    assert max(started) < 5 + 4  # nothing past the bounded window ran
    assert _pool_threads() == before


def test_pool_shut_down_when_consumer_stops_early():
    before = _pool_threads()
    stream = parallel.map_ordered(lambda i: i, range(100), workers=4)
    assert [next(stream), next(stream)] == [0, 1]
    stream.close()
    assert _pool_threads() == before


def test_default_workers_follow_cpu_affinity(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert parallel.cpu_count() == len(os.sched_getaffinity(0))
    monkeypatch.setattr(parallel, "cpu_count", lambda: 3)
    barrier = threading.Barrier(3, timeout=10)

    def work(_):
        barrier.wait()  # passes only when three items run at once
        return threading.current_thread().name

    assert len(set(parallel.map_ordered(work, range(3)))) == 3


def _files(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_gen_cohort_and_dsp_bytes_independent_of_worker_count(
        tmp_path, monkeypatch):
    config = tmp_path / "six.json"
    config.write_text(json.dumps({"cohort": {"n_patients": 6}}))
    base = ["--config", str(config), "--seed", "11"]
    runs = {}
    for workers in (1, 4):
        monkeypatch.setattr(parallel, "cpu_count", lambda n=workers: n)
        root = tmp_path / f"w{workers}"
        assert climod.main(base + ["gen-cohort",
                                   "--out", str(root / "cohort")]) == 0
        assert climod.main(base + ["dsp", "--cohort", str(root / "cohort"),
                                   "--out", str(root / "spec")]) == 0
        runs[workers] = root
    one = _files(runs[1])
    assert len([n for n in one if n.endswith(".spc")]) == 6
    assert one == _files(runs[4])  # manifests, and so output_ids, included
    for stage in ("cohort", "spec"):
        manifest = json.loads(one[f"{stage}/manifest.json"])
        assert all(manifest["output_ids"].values())


def test_dsp_names_truncated_session_among_good_ones(tmp_path, capsys):
    config = tmp_path / "four.json"
    config.write_text(json.dumps({"cohort": {"n_patients": 4}}))
    base = ["--config", str(config), "--seed", "3"]
    cohort = tmp_path / "cohort"
    assert climod.main(base + ["gen-cohort", "--out", str(cohort)]) == 0
    bad = sorted((cohort / "sessions").glob("*.raw"))[2]
    bad.write_bytes(bad.read_bytes()[:5000])
    capsys.readouterr()
    code = climod.main(base + ["dsp", "--cohort", str(cohort),
                               "--out", str(tmp_path / "spec")])
    assert code == climod.EXIT_DATA
    err = capsys.readouterr().err
    assert bad.name in err and "truncated" in err
    assert not (tmp_path / "spec" / "manifest.json").exists()
