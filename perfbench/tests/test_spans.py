"""Tests of the benchmark's own code: self time, patching, metric names.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
from spans import Tracer, grad_by_caller, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _span(name, start, end, parent):
    return [name, start, end, parent, "r"]


def test_self_time_of_nested_and_overlapping_children():
    tree = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),      # overlaps a: [1, 6] is covered once
        _span("a", 8.0, 12.0, 0),     # runs past the root: clipped at 10
        _span("leaf", 1.5, 2.0, 1),
    ]
    own = self_times(tree)
    assert own["root"] == 10.0 - (5.0 + 2.0)
    assert own["a"] == (3.0 - 0.5) + 4.0
    assert own["b"] == 3.0
    assert own["leaf"] == 0.5


def test_self_times_of_a_proper_tree_sum_to_the_root():
    tree = [
        _span("root", 0.0, 9.0, -1),
        _span("x", 1.0, 5.0, 0),
        _span("y", 2.0, 3.0, 1),
        _span("z", 6.0, 8.0, 0),
    ]
    assert sum(self_times(tree).values()) == 9.0


def test_grad_ops_are_grouped_under_the_nearest_non_grad_caller():
    tree = [
        _span("cli.stage.probe", 0.0, 10.0, -1),
        _span("bench.train_probe", 1.0, 9.0, 0),
        _span("grad.scaled_dot_attention", 2.0, 6.0, 1),
        _span("grad.matmul", 3.0, 4.0, 2),
        _span("grad.matmul", 7.0, 8.0, 0),
    ]
    table = grad_by_caller(tree)
    assert table == {"bench.train_probe": {"grad.scaled_dot_attention": 3.0,
                                           "grad.matmul": 1.0},
                     "cli.stage.probe": {"grad.matmul": 1.0}}


def _originals(modules):
    out = {}
    for mod, cls, attr, _name in spans.SPANNED + spans.COUNTED:
        owner = modules[mod] if cls is None else getattr(modules[mod], cls)
        out[(mod, cls, attr)] = vars(owner)[attr]
    return out


def test_wrappers_record_spans_and_are_restored():
    modules = run.import_clef()
    grad = modules["grad"]
    before = _originals(modules)
    conv2d = grad.conv2d
    tracer = Tracer("test")
    tracer.install(modules)
    try:
        assert grad.conv2d is not conv2d
        x = grad.Tensor(np.ones((1, 2, 5, 5), dtype=np.float32))
        w = grad.Tensor(np.ones((3, 2, 3, 3), dtype=np.float32),
                        requires_grad=True)
        out = tracer.call("cli.stage.test", grad.conv2d, x, w)
        grad.sum_(out).backward()
    finally:
        tracer.restore()
    assert grad.conv2d is conv2d
    assert _originals(modules) == before
    names = [s[0] for s in tracer.spans]
    assert names == ["cli.stage.test", "grad.conv2d", "grad.backward"]
    assert tracer.spans[1][3] == 0 and tracer.spans[2][3] == -1
    assert tracer.counts["grad.op_calls"] >= 2


def test_metric_names_are_well_formed_and_match_benchmark_json():
    per_layer = Tracer("test").metrics(hashed_bytes=0, overhead_frac=0.0)
    end_to_end = run.END_TO_END
    names = list(per_layer) + list(end_to_end)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(end_to_end)
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    for m in spec["end_to_end"]:
        assert m["unit"] == end_to_end[m["name"]]
    for m in spec["per_layer"]:
        assert m["unit"] == per_layer[m["name"]][1]
