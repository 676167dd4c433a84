"""Spans around calls into clef's layers, recorded from outside the program.

A traced run replaces selected public functions and methods of the modules
under ``src/clef`` with thin wrappers, keeps one span per call in memory
(name, start, end, parent id, run id) and restores the originals when the
run ends.  Self time of a span is its duration minus the part of it that its
child spans cover, so the self times of all spans under one root add up to
the root's duration.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# (module, class or None, attribute, span name).  The span name is
# "<layer>.<fn>"; its self time is reported as "<layer>.<fn>_s".
SPANNED = [
    ("cohortgen", None, "generate_records", "cohortgen.generate_records"),
    ("cohortgen", None, "synthesize_signal", "cohortgen.synthesize_signal"),
    ("cohortgen", None, "build_session", "cohortgen.build_session_self"),
    ("cohortgen", None, "write_session", "cohortgen.write_session"),
    ("cohortgen", None, "read_session", "cohortgen.read_session"),
    ("dsp", None, "compute_dpss", "dsp.compute_dpss"),
    ("dsp", None, "preprocess", "dsp.preprocess"),
    ("dsp", None, "multitaper_spectrogram", "dsp.multitaper_spectrogram"),
    ("dsp", None, "write_spectrogram", "dsp.write_spectrogram"),
    ("dsp", None, "read_spectrogram", "dsp.read_spectrogram"),
    ("cli", None, "write_manifest", "cli.write_manifest"),
    ("vqtok", "VqTrainer", "step", "vqtok.trainer_step"),
    ("vqtok", "Tokenizer", "encode", "vqtok.encode"),
    ("vqtok", "Tokenizer", "decode", "vqtok.decode"),
    ("vqtok", None, "quantize", "vqtok.quantize"),
    ("vqtok", None, "encoder_planes", "vqtok.encoder_planes"),
    ("vqtok", None, "tokenize_sessions", "vqtok.tokenize_sessions"),
    ("mim", None, "mim_forward", "mim.mim_forward"),
    ("mim", None, "mim_loss", "mim.mim_loss"),
    ("mim", None, "sample_mask_plan", "mim.sample_mask_plan"),
    ("mim", None, "extract_patches", "mim.extract_patches"),
    ("mim", None, "session_embedding", "mim.session_embedding"),
    ("align", None, "stage2_step", "align.stage2_step"),
    ("align", None, "report_embed", "align.report_embed"),
    ("align", "HashedNgramProvider", "embed", "align.text_embed"),
    ("align", "EhrEncoder", "__call__", "align.ehr_encoder"),
    ("align", None, "clip_loss", "align.clip_loss"),
    ("summarize", None, "qa_consistency", "summarize.qa_consistency"),
    ("bench", None, "benchmark_run", "bench.benchmark_run"),
    ("bench", None, "build_task_table", "bench.build_task_table"),
    ("bench", None, "train_probe", "bench.train_probe"),
    ("bench", None, "evaluate_probe", "bench.evaluate_probe"),
    ("grad", "Tensor", "backward", "grad.backward"),
    ("grad", "AdamW", "step", "grad.adamw_step"),
    ("grad", "Ema", "update", "grad.ema_update"),
    ("grad", None, "conv2d", "grad.conv2d"),
    ("grad", None, "transposed_conv2d", "grad.transposed_conv2d"),
    ("grad", None, "matmul", "grad.matmul"),
    ("grad", None, "gelu", "grad.gelu"),
    ("grad", None, "layernorm", "grad.layernorm"),
    ("grad", None, "softmax", "grad.softmax"),
    ("grad", None, "scaled_dot_attention", "grad.scaled_dot_attention"),
    ("grad", None, "save_checkpoint", "grad.save_checkpoint"),
    ("grad", None, "load_checkpoint", "grad.load_checkpoint"),
]

# Calls counted without a span: too small and too many to time one by one.
# Every grad primitive builds its tape node through ``grad._make``.
COUNTED = [
    ("grad", None, "_make", "grad.op_calls"),
    ("summarize", "MockLlmClient", "summarize", "summarize.llm_calls"),
    ("summarize", "MockLlmClient", "answer", "summarize.llm_calls"),
    ("summarize", "MockLlmClient", "judge_similarity", "summarize.llm_calls"),
]

# Span names whose call count is a metric of its own.
CALL_COUNTS = ["vqtok.trainer_step", "mim.mim_forward", "align.text_embed",
               "bench.train_probe", "grad.backward", "grad.adamw_step"]

STAGE_PREFIX = "cli.stage."


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []   # [name, start, end, parent, run_id]
        self.counts: dict[str, int] = defaultdict(int)
        self.texts: set[str] = set()
        self.report_rows = [0, 0]     # [present, passed]
        self.tasks = [0, 0]           # [skipped, run]
        self.qa_failures = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span named ``name``."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id])
        self._stack.append(sid)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[sid][2] = time.perf_counter()
            self._stack.pop()

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = vars(owner)[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def install(self, modules: dict) -> None:
        """Wrap every entry of SPANNED and COUNTED in ``modules``
        (layer name -> imported module)."""
        observers = self._observers()
        for mod, cls, attr, name in SPANNED:
            owner = modules[mod] if cls is None else getattr(modules[mod], cls)
            observe = observers.get(name)

            def make(fn, name=name, observe=observe):
                def wrapper(*args, **kwargs):
                    result = self.call(name, fn, *args, **kwargs)
                    if observe is not None:
                        observe(args, result)
                    return result
                return wrapper
            self._patch(owner, attr, make)
        for mod, cls, attr, name in COUNTED:
            owner = modules[mod] if cls is None else getattr(modules[mod], cls)

            def make(fn, name=name):
                def wrapper(*args, **kwargs):
                    self.counts[name] += 1
                    return fn(*args, **kwargs)
                return wrapper
            self._patch(owner, attr, make)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _observers(self) -> dict:
        def text_embed(args, _result):
            self.texts.add(args[1])

        def report_embed(args, _result):
            texts = args[0]
            self.report_rows[0] += sum(1 for t in texts if t)
            self.report_rows[1] += len(texts)

        def benchmark_run(_args, results):
            self.tasks[0] += sum(1 for r in results if r.skipped)
            self.tasks[1] += len(results)

        def qa_consistency(_args, result):
            self.qa_failures += result.failures

        return {"align.text_embed": text_embed,
                "align.report_embed": report_embed,
                "bench.benchmark_run": benchmark_run,
                "summarize.qa_consistency": qa_consistency}

    # -- summaries ---------------------------------------------------------

    def metrics(self, hashed_bytes: int, overhead_frac: float) -> dict:
        """Every per-layer metric, as (value, unit) pairs."""
        own = self_times(self.spans)
        calls: dict[str, int] = defaultdict(int)
        for span in self.spans:
            calls[span[0]] += 1
        out = {}
        for _mod, _cls, _attr, name in SPANNED:
            out[f"{name}_s"] = (own.get(name, 0.0), "s")
        out["cli.stage_self_s"] = (sum(
            s for n, s in own.items() if n.startswith(STAGE_PREFIX)), "s")
        out["cli.hashed_bytes"] = (hashed_bytes, "B")
        for name in CALL_COUNTS:
            out[f"{name}_calls"] = (calls[name], "count")
        for name in sorted({c[3] for c in COUNTED}):
            out[name] = (self.counts[name], "count")
        out["summarize.failures"] = (self.qa_failures, "count")
        out["align.text_embed_unique_frac"] = (
            _ratio(len(self.texts), calls["align.text_embed"]), "fraction")
        out["align.report_rows_present_frac"] = (
            _ratio(*self.report_rows), "fraction")
        out["bench.tasks_skipped_frac"] = (_ratio(*self.tasks), "fraction")
        out["trace.overhead_frac"] = (overhead_frac, "fraction")
        return out

    def dump(self) -> dict:
        """Trace-file payload: raw spans plus the per-caller op table."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "run_id": self.run_id,
            "columns": ["name", "start_s", "end_s", "parent", "run_id"],
            "spans": [[n, s - t0, e - t0, p, r] for n, s, e, p, r in self.spans],
            "self_s": self_times(self.spans),
            "grad_by_caller": grad_by_caller(self.spans),
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def self_times(spans: list) -> dict[str, float]:
    """Span name -> summed self time.  Children may overlap each other; the
    covered part of the parent is the union of their intervals."""
    return _sum_by(spans, lambda sid: spans[sid][0])


def grad_by_caller(spans: list) -> dict[str, dict[str, float]]:
    """Self time of each ``grad.*`` span, grouped under the nearest enclosing
    span that is not a grad span: caller name -> op name -> seconds."""
    table: dict[str, dict[str, float]] = defaultdict(dict)
    for (caller, op), s in _sum_by(spans, _caller_key(spans)).items():
        table[caller][op] = s
    return dict(table)


def _caller_key(spans):
    def key(sid):
        name = spans[sid][0]
        if not name.startswith("grad."):
            return None
        parent = spans[sid][3]
        while parent >= 0 and spans[parent][0].startswith("grad."):
            parent = spans[parent][3]
        return (spans[parent][0] if parent >= 0 else "(root)", name)
    return key


def _sum_by(spans: list, key) -> dict:
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _name, start, end, parent, _run in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict = defaultdict(float)
    for sid, (_name, start, end, _parent, _run) in enumerate(spans):
        k = key(sid)
        if k is not None:
            out[k] += (end - start) - _covered(children.get(sid, []), start, end)
    return dict(out)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total
