"""clef benchmark: two closed-loop workloads that drive ``clef.cli.main``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ingest --seed 11 --seconds 40 --trace 0

One client runs the CLI stages one after another in this process, each
stage starting when the previous one has returned, exactly as a user types
them.  ``--seed`` is the pipeline's root seed.  Lines starting with ``#``
give every metric by name and unit; the last line of standard output is one
JSON object with ``correct``, ``attempted`` (stages run), ``failed`` (stages
that exited nonzero) and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See
perfbench/README.md for the workloads and how to read the trace file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"          # trace files and determinism records
WORK = STATE / "work"                # artifacts of this run; removed at exit

SETUP_REPS = 3
TINY = {"cohort": {"n_patients": 8}}
TINY_STEPS = 1
INGEST = {"bench": {"probe_epochs": 5}}
TRAIN = {"cohort": {"n_patients": 32}}
TRAIN_STEPS = {"train-tokenizer": 20, "train-mim": 100, "train-align": 50}

# The result line's metrics with --trace 0; every workload reports each.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed for the stages a workload times.
STAGE_METRICS = {"gen-cohort": "gen_cohort_s", "dsp": "dsp_s",
                 "tokenize": "tokenize_s", "select-prompt": "select_prompt_s",
                 "probe": "probe_s",
                 "train-tokenizer": "train_tokenizer_s",
                 "train-mim": "train_mim_s", "train-align": "train_align_s"}
# Trainer -> (progress-line field holding its loss, metric name).
LOSSES = {"train-tokenizer": ("recon", "tokenizer_recon_last"),
          "train-mim": ("loss", "mim_loss_last"),
          "train-align": ("total", "align_loss_last")}
# Trainers whose last printed loss must be below their first.  Over 20 steps
# the tokenizer's per-batch recon loss moves less than it varies from batch
# to batch, so only its finiteness is checked.
MUST_FALL = {"train-mim", "train-align"}


@dataclass
class Stage:
    command: str
    args: list
    inputs: dict[str, Path]   # manifest input name -> path
    out: Path
    config: Path


@dataclass
class StageRun:
    stage: Stage
    rc: int
    seconds: float
    stdout: str
    hashed_bytes: int = 0

    def losses(self) -> list[float]:
        """The loss on each progress line a trainer printed."""
        key = LOSSES[self.stage.command][0]
        out = []
        for line in self.stdout.splitlines():
            fields = line.split("\t")
            if fields[0] == "step" and key in fields:
                out.append(float(fields[fields.index(key) + 1]))
        return out


@dataclass
class Report:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


# ---------------------------------------------------------------------------
# stages and chains


def gen_cohort(c, cfg):
    return Stage("gen-cohort", ["--out", c], {}, c, cfg)


def dsp(c, s, cfg):
    return Stage("dsp", ["--cohort", c, "--out", s],
                 {"sessions": c / "sessions"}, s, cfg)


def train_tokenizer(s, tok, steps, cfg):
    return Stage("train-tokenizer", ["--spectrograms", s, "--out", tok,
                                     "--steps", steps],
                 {"spectrograms": s}, tok, cfg)


def tokenize(s, tok, t, cfg):
    return Stage("tokenize", ["--spectrograms", s, "--ckpt", tok, "--out", t],
                 {"spectrograms": s, "ckpt": tok}, t, cfg)


def train_mim(t, s, m, steps, cfg):
    return Stage("train-mim", ["--tokens", t, "--spectrograms", s, "--out", m,
                               "--steps", steps],
                 {"tokens": t, "spectrograms": s}, m, cfg)


def train_align(c, t, s, m, a, steps, cfg):
    return Stage("train-align", ["--cohort", c, "--tokens", t,
                                 "--spectrograms", s, "--init", m, "--out", a,
                                 "--steps", steps],
                 {"records": c / "records.json", "tokens": t,
                  "spectrograms": s, "init": m}, a, cfg)


def select_prompt(c, out, cfg):
    return Stage("select-prompt", ["--cohort", c, "--out", out],
                 {"records": c / "records.json"}, out, cfg)


def probe(c, t, s, ckpt, out, cfg):
    return Stage("probe", ["--cohort", c, "--tokens", t, "--spectrograms", s,
                           "--ckpt", ckpt, "--out", out],
                 {"records": c / "records.json", "days": c / "days.json",
                  "tokens": t, "spectrograms": s, "ckpt": ckpt}, out, cfg)


def _config(path: Path, overrides: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(overrides, sort_keys=True))
    return path


def ingest_setup(d: Path) -> list[Stage]:
    """8 patients, one step per trainer: desk-geometry checkpoints."""
    cfg = _config(d / "config.json", TINY)
    c, s, t = d / "cohort", d / "spec", d / "tokens"
    return [gen_cohort(c, cfg), dsp(c, s, cfg),
            train_tokenizer(s, d / "tok.npz", TINY_STEPS, cfg),
            tokenize(s, d / "tok.npz", t, cfg),
            train_mim(t, s, d / "mim.npz", TINY_STEPS, cfg),
            train_align(c, t, s, d / "mim.npz", d / "align.npz", TINY_STEPS,
                        cfg)]


def ingest_chain(d: Path, setup: Path) -> list[Stage]:
    """The full desk cohort through the data path, probed with the set-up's
    weights."""
    cfg = _config(d / "config.json", INGEST)
    c, s, t = d / "cohort", d / "spec", d / "tokens"
    return [gen_cohort(c, cfg), dsp(c, s, cfg),
            tokenize(s, setup / "tok.npz", t, cfg),
            select_prompt(c, d / "selection.json", cfg),
            probe(c, t, s, setup / "align.npz", d / "results.json", cfg)]


def train_setup(d: Path) -> list[Stage]:
    """A small cohort: a training step costs the same at any cohort size."""
    cfg = _config(d / "config.json", TRAIN)
    return [gen_cohort(d / "cohort", cfg), dsp(d / "cohort", d / "spec", cfg)]


def train_chain(d: Path, setup: Path) -> list[Stage]:
    """Every trainer at a fixed share of its desk step count."""
    cfg = _config(d / "config.json", TRAIN)
    c, s, t = setup / "cohort", setup / "spec", d / "tokens"
    n = TRAIN_STEPS
    return [train_tokenizer(s, d / "tok.npz", n["train-tokenizer"], cfg),
            tokenize(s, d / "tok.npz", t, cfg),
            train_mim(t, s, d / "mim.npz", n["train-mim"], cfg),
            train_align(c, t, s, d / "mim.npz", d / "align.npz",
                        n["train-align"], cfg)]


WORKLOADS = {"ingest": (ingest_setup, ingest_chain),
             "train": (train_setup, train_chain)}


# ---------------------------------------------------------------------------
# running and checking


def run_chain(cli, stages: list[Stage], seed: int, tracer=None) -> list[StageRun]:
    """Run every stage even after a failure: a stage whose inputs are
    missing fails fast, and each failure is counted, not raised."""
    runs = []
    for st in stages:
        argv = ["--seed", str(seed), "--config", str(st.config), st.command,
                *map(str, st.args)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv) if tracer is None else \
                    tracer.call("cli.stage." + st.command, cli.main, argv)
            except Exception:     # an uncaught error exits 1 for a user too
                traceback.print_exc()
                rc = 1
            seconds = time.perf_counter() - t0
        runs.append(StageRun(st, rc, seconds, buf.getvalue()))
    return runs


def manifest_path(out: Path) -> Path:
    return out / "manifest.json" if out.is_dir() else \
        out.parent / (out.name + ".manifest.json")


def _tree_bytes(path: Path) -> int:
    if path.is_dir():
        return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
    return path.stat().st_size if path.exists() else 0


def check_stages(runs: list[StageRun], report: Report) -> dict[str, dict]:
    """Exit codes, manifests and losses; returns command -> output ids."""
    ids = {}
    for r in runs:
        report.attempted += 1
        if r.rc != 0:
            report.failed += 1
            continue
        with open(manifest_path(r.stage.out)) as fh:
            manifest = json.load(fh)
        report.check(set(manifest["input_hashes"]) == set(r.stage.inputs),
                     f"{r.stage.command}: manifest inputs")
        base = r.stage.out if r.stage.out.is_dir() else r.stage.out.parent
        r.hashed_bytes = sum(_tree_bytes(p) for p in r.stage.inputs.values()) \
            + sum(_tree_bytes(base / rel) for rel in manifest["output_ids"])
        ids[r.stage.command] = manifest["output_ids"]
        if r.stage.command in LOSSES:
            losses = r.losses()
            report.check(bool(losses) and all(map(math.isfinite, losses)),
                         f"{r.stage.command}: losses {losses[-3:]}")
            # training must make progress, or a speed-up may have broken it
            report.check(r.stage.command not in MUST_FALL or len(losses) < 2
                         or losses[-1] < losses[0],
                         f"{r.stage.command}: loss did not fall {losses}")
    return ids


def check_outputs(modules, runs: list[StageRun], report: Report) -> None:
    """Token range and probe results, for the stages that succeeded."""
    profile = modules["config"].get_profile("desk")
    for r in runs:
        if r.rc != 0:
            continue
        if r.stage.command == "tokenize":
            k = profile.tokenizer.codebook_size
            for p in sorted(r.stage.out.glob("*.tok")):
                indices, file_k, _sid = modules["vqtok"].read_tokens(p)
                report.check(file_k == k and 0 <= indices.min()
                             and indices.max() < k, f"{p.name}: token range")
        if r.stage.command == "probe":
            with open(r.stage.out) as fh:
                rows = json.load(fh)
            tasks = modules["bench"].default_tasks(
                modules["cohortgen"].default_phenotypes(
                    profile.cohort.channel_names), profile.bench)
            report.check(sorted(row["task_id"] for row in rows)
                         == sorted(t.task_id for t in tasks),
                         "results: one row per task")
            for row in rows:
                report.check(bool(row["skipped"])
                             or 0.0 <= row["auroc_mean"] <= 1.0,
                             f"results: {row['task_id']} auroc")


def source_digest() -> str:
    """Hash of the program and benchmark sources: one commit's identity."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "clef").glob("*.py"), *BENCH.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_determinism(name: str, seed: int, repeats: list[dict],
                      report: Report) -> None:
    """Manifest output ids must repeat byte for byte at one seed: across the
    repetitions in this run, and against earlier runs of the same sources."""
    for other in repeats[1:]:
        report.check(other == repeats[0], f"{name}: output ids differ in run")
    record = STATE / f"output-ids-{name}-{seed}-{source_digest()}.json"
    if record.exists():
        report.check(json.loads(record.read_text()) == repeats[0],
                     f"{name}: output ids differ from an earlier run")
    elif repeats[0]:
        STATE.mkdir(exist_ok=True)
        record.write_text(json.dumps(repeats[0], sort_keys=True))


def import_clef() -> dict:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from clef import (align, bench, cli, cohortgen, config, dsp, grad, mim,
                      summarize, vqtok)
    return {"align": align, "bench": bench, "cli": cli,
            "cohortgen": cohortgen, "config": config, "dsp": dsp,
            "grad": grad, "mim": mim, "summarize": summarize, "vqtok": vqtok}


# ---------------------------------------------------------------------------
# one run


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 import_s: float, modules) -> dict:
    setup_chain, timed_chain = WORKLOADS[name]
    report = Report()

    def chain(stages, tracer=None):
        try:
            runs = run_chain(modules["cli"], stages, seed, tracer)
        finally:
            if tracer is not None:
                tracer.restore()      # before the checks read any output
        ids = check_stages(runs, report)
        check_outputs(modules, runs, report)
        return runs, ids

    # Set-up, repeated so that its median is steady; the first copy is used.
    setup = WORK / "setup0"
    setups, setup_ids = [], []
    for i in range(1 if trace else SETUP_REPS):
        runs, ids = chain(setup_chain(WORK / f"setup{i}"))
        setups.append(runs)
        setup_ids.append(ids)
        if i:
            shutil.rmtree(WORK / f"setup{i}")
    check_determinism(f"{name}-setup", seed, setup_ids, report)

    # Timed passes: whole chains, as many as fit in ``seconds`` and at least
    # one.  A traced run makes one untraced pass, then one traced pass.
    passes, pass_ids, tracer = [], [], None
    t0 = time.perf_counter()
    while True:
        d = WORK / f"pass{len(passes)}"
        if trace and passes:
            tracer = Tracer(f"{name}:{seed}")
            tracer.install(modules)
        runs, ids = chain(timed_chain(d, setup), tracer)
        passes.append(runs)
        pass_ids.append(ids)
        shutil.rmtree(d)
        n = len(passes)
        elapsed = time.perf_counter() - t0
        if (n == 2) if trace else elapsed * (n + 1) / n > seconds:
            break
    check_determinism(name, seed, pass_ids, report)

    walls = [sum(r.seconds for r in runs) for runs in passes]
    if trace:
        metrics = tracer.metrics(sum(r.hashed_bytes for r in passes[1]),
                                 walls[1] / walls[0] - 1.0)
        shown = dict(metrics)
        write_trace(tracer, name, seed, walls)
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(
                import_s + sum(r.seconds for r in runs) for runs in setups),
                "s"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")}
        shown = dict(metrics)
        shown["failed_frac"] = (report.failed / report.attempted, "fraction")
        shown.update(stage_metrics(passes))
    for key, (value, unit) in shown.items():
        print(f"# {key}\t{value:.6g}\t{unit}")
    for p in report.problems:
        print(f"# check failed: {p}")
    return {"correct": not report.problems, "attempted": report.attempted,
            "failed": report.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def stage_metrics(passes: list[list[StageRun]]) -> dict:
    """Median over passes of each timed stage's wall time and last loss."""
    out = {}
    for i, r in enumerate(passes[0]):
        column = [runs[i] for runs in passes]
        out[STAGE_METRICS[r.stage.command]] = (
            statistics.median(x.seconds for x in column), "s")
        if r.stage.command in LOSSES and all(x.rc == 0 for x in column):
            out[LOSSES[r.stage.command][1]] = (
                statistics.median(x.losses()[-1] for x in column), "loss")
    return out


def write_trace(tracer, name: str, seed: int, walls: list[float]) -> None:
    payload = tracer.dump()
    payload.update(workload=name, seed=seed, untraced_wall_s=walls[0],
                   traced_wall_s=walls[1])
    STATE.mkdir(exist_ok=True)
    path = STATE / f"trace-{name}-{seed}.json"
    path.write_text(json.dumps(payload))
    print(f"# trace file {path.relative_to(ROOT)}")
    print(f"# untraced wall_s {walls[0]:.3f}, traced wall_s {walls[1]:.3f},"
          f" sum of self times {sum(payload['self_s'].values()):.3f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "clef" / "cli.py").is_file():
        print(f"no clef sources under {SRC}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    modules = import_clef()
    import_s = time.perf_counter() - t0
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), import_s, modules)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
