"""The benchmark's tracer wraps clef functions by name (``perfbench/spans.py``):
every name it lists must exist where it looks, or a traced run crashes.  The
benchmark's driver (``perfbench/run.py``) calls clef directly as well, and
those calls must keep working with the arguments it passes."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from clef import align, bench, cli, cohortgen, config, mim, summarize, vqtok

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module     # ``dataclass`` looks its module up here
    spec.loader.exec_module(module)
    return module


def _spans():
    return _load("perfbench_spans", PERFBENCH / "spans.py")


def _run():
    """``perfbench/run.py``, which imports ``spans`` from its own folder."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return _load("perfbench_run", PERFBENCH / "run.py")
    finally:
        sys.path.remove(str(PERFBENCH))


RUN = _run()


@pytest.mark.parametrize("table", ["SPANNED", "COUNTED"])
def test_every_wrapped_name_resolves(table):
    """``Tracer._patch`` reads ``vars(owner)[attr]``: the attribute must be
    defined on the module or class itself, and be callable."""
    entries = getattr(_spans(), table)
    assert entries
    for mod, cls, attr, _name in entries:
        owner = importlib.import_module(f"clef.{mod}")
        if cls is not None:
            owner = vars(owner).get(cls)
            assert isinstance(owner, type), f"clef.{mod}.{cls} is not a class"
        assert callable(vars(owner).get(attr)), \
            f"clef.{mod}.{'' if cls is None else cls + '.'}{attr} is missing"


def test_tracer_installs_and_restores():
    spans = _spans()
    layers = {mod for table in (spans.SPANNED, spans.COUNTED)
              for mod, *_ in table}
    modules = {m: importlib.import_module(f"clef.{m}") for m in layers}
    grad = modules["grad"]
    original = grad.matmul
    tracer = spans.Tracer("contract")
    tracer.install(modules)
    try:
        assert grad.matmul is not original
    finally:
        tracer.restore()
    assert grad.matmul is original


class _DownOnSome(summarize.MockLlmClient):
    """The mock, but summarizing a report that says "down" fails."""

    def summarize(self, report, prompt, max_tokens):
        if "down" in report:
            raise ConnectionError(report)
        return super().summarize(report, prompt, max_tokens)


def test_observers_read_the_arguments_of_each_call():
    """The tracer's observers read ``report_embed``'s texts as its first
    argument, ``HashedNgramProvider.embed``'s text as its second and
    ``qa_consistency``'s failures from its result: around one Stage II step
    and one scored candidate they count what the batch and the reports
    hold, so a moved argument fails here, not in a benchmark metric."""
    spans = _spans()
    layers = {mod for table in (spans.SPANNED, spans.COUNTED)
              for mod, *_ in table}
    modules = {m: importlib.import_module(f"clef.{m}") for m in layers}
    cfg = config.AlignConfig(refiner_depth=1, n_heads=2, text_max_len=8)
    encoder = mim.SessionEncoder(
        8, 4, (2, 4), config.MimConfig(d_model=16, n_heads=2, depth=1),
        np.random.default_rng(0))
    model = align.AlignModel(cfg, encoder, (["dx_a"], ["med_a"]),
                             np.random.default_rng(1))
    rng = np.random.default_rng(2)
    ehr_mask = np.zeros((5, 3 + cfg.ehr.dx_slots + cfg.ehr.med_slots), bool)
    ehr_mask[:, :3] = True
    batch = align.AlignBatch(
        ids=rng.integers(0, 8, size=(5, 8)),
        patches=rng.normal(size=(5, 8, 4)).astype(np.float32),
        texts=["slowing seen", "", "slowing seen", "", "sharp waves"],
        report_present=np.array([True, False, True, True, True]),
        ehr=np.zeros(ehr_mask.shape, np.int64), ehr_mask=ehr_mask)
    phenotypes = cohortgen.default_phenotypes(config.CHANNELS_DESK)
    tracer = spans.Tracer("observers")
    tracer.install(modules)
    try:
        align.stage2_step(model, batch, None)
        score = summarize.qa_consistency(
            ["generalized slowing.", "link down.", "down again."],
            summarize.default_questions(phenotypes),
            summarize.Candidate("p", "repeat the report", 128),
            _DownOnSome())
    finally:
        tracer.restore()
    # the four rows with a report reach report_embed, one with no words;
    # each text is embedded once per row, three distinct texts in all
    assert tracer.report_rows == [3, 4]
    assert tracer.texts == {"slowing seen", "", "sharp waves"}
    metrics = tracer.metrics(0, 0.0)
    assert metrics["align.report_rows_present_frac"][0] == 3 / 4
    assert metrics["align.text_embed_unique_frac"][0] == 3 / 4
    assert tracer.qa_failures == score.failures == 2
    assert metrics["summarize.failures"][0] == 2


# ``perfbench/run.py`` also calls clef outside the tracer.  Each call below
# passes what the benchmark passes, so a signature change that would break
# the benchmark fails here.


@pytest.mark.parametrize("overrides", [RUN.TINY, RUN.INGEST, RUN.TRAIN])
def test_profile_and_tasks_as_the_benchmark_reads_them(tmp_path, overrides):
    """``check_outputs`` builds the desk task list; each workload's
    ``--config`` file loads as an override of the desk profile."""
    profile = config.get_profile("desk")
    tasks = bench.default_tasks(
        cohortgen.default_phenotypes(profile.cohort.channel_names),
        profile.bench)
    assert tasks and all(isinstance(t.task_id, str) for t in tasks)
    assert isinstance(profile.tokenizer.codebook_size, int)
    path = RUN._config(tmp_path / "config.json", overrides)
    section, values = next(iter(overrides.items()))
    loaded = getattr(config.load_profile("desk", str(path)), section)
    assert all(getattr(loaded, k) == v for k, v in values.items())


def test_read_tokens_returns_ids_codebook_size_and_session(tmp_path):
    path = tmp_path / "s00000.tok"
    vqtok.write_tokens(path, np.arange(32).reshape(4, 8), 64, "s00000")
    out = vqtok.read_tokens(path)
    assert isinstance(out, tuple) and len(out) == 3
    indices, k, sid = out
    assert (indices.min(), indices.max(), k, sid) == (0, 31, 64, "s00000")


@pytest.mark.parametrize("command", sorted(RUN.TRAIN_STEPS))
def test_steps_is_each_trainers_option(tmp_path, capsys, command):
    """The train workload's ``--steps N`` parses on every trainer and sets
    its stage's steps: its own count gets past parsing to the empty inputs
    (exit 3), where an unknown option would exit 2; 0 is refused by that
    key (exit 2)."""
    stage = next(st for st in RUN.train_chain(tmp_path / "chain",
                                              tmp_path / "setup")
                 if st.command == command)
    for opt, value in zip(stage.args, stage.args[1:]):
        if opt in ("--cohort", "--tokens", "--spectrograms"):
            value.mkdir(parents=True, exist_ok=True)
        elif opt == "--init":
            value.parent.mkdir(parents=True, exist_ok=True)
            value.write_bytes(b"")
    steps = stage.args.index("--steps") + 1
    assert stage.args[steps] == RUN.TRAIN_STEPS[command]
    assert RUN.run_chain(cli, [stage], 11)[0].rc == cli.EXIT_DATA
    assert not stage.out.exists()
    stage.args[steps] = 0
    assert RUN.run_chain(cli, [stage], 11)[0].rc == cli.EXIT_CONFIG
    assert f"{command.removeprefix('train-')}.steps must be at least 1" \
        in capsys.readouterr().err
