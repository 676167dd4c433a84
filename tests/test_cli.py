"""CLI tests: the full desk pipeline end to end on a tiny cohort, exit-code
mapping, ``--steps`` as profile shorthand, the progress lines and each
trainer's fields on them, an incomplete ``days.json``, ``select-prompt``'s
in-process scorer (no ``--llm``, no socket), sequential-training,
codebook-hash, checkpoint-kind, checkpoint-geometry, checkpoint-naming,
demographic-category, token-codebook, token-grid and partial-output
refusals, the session-id join, the spectrogram and session loaders' memory,
tape-free inference in tokenize and probe, the geometry and codebook-size
checks, the external-cohort recipe, malformed JSON, token and waveform
artifacts, sessions shorter than one DSP window or with a band edge above
their Nyquist frequency, one filter design per sample rate, non-finite probe
embeddings and tokenizer latents, directory stages that replace an earlier
run's files, checkpoint paths without ".npz", manifests that refuse a
missing output, the 32-channel limit and every other profile value that
no stage runs on, a DPSS threshold that no taper passes, manifest
reproducibility, seed splitting, config schema completeness, the shape walk
and ``config.check`` of every profile and each profile's settings."""

import dataclasses
import json
import re
import shutil
import socket
import tracemalloc

import numpy as np
import pytest

from clef import cli as climod
from clef import config as cfgmod
from clef import bench, cohortgen, dsp, grad, mim, vqtok
from clef.errors import DataError


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run every stage once on a 10-patient cohort; commands under test
    reuse these artifacts."""
    root = tmp_path_factory.mktemp("pipeline")
    overrides = {
        "cohort": {"n_patients": 10},
        "tokenizer": {"steps": 3, "batch_size": 2},
        "mim": {"steps": 3, "batch_size": 4, "warmup_steps": 1},
        "align": {"steps": 2, "batch_size": 8, "warmup_steps": 1},
    }
    config = root / "overrides.json"
    config.write_text(json.dumps(overrides))
    base = ["--profile", "desk", "--config", str(config), "--seed", "11"]
    paths = {
        "config": config,
        "cohort": root / "cohort",
        "spec": root / "spec",
        "tok_ckpt": root / "tokenizer.npz",
        "tokens": root / "tokens",
        "mim_ckpt": root / "mim.npz",
        "align_ckpt": root / "align.npz",
        "selection": root / "selection.json",
        "results": root / "results.json",
    }
    steps = [
        base + ["gen-cohort", "--out", str(paths["cohort"])],
        base + ["dsp", "--cohort", str(paths["cohort"]),
                "--out", str(paths["spec"])],
        base + ["train-tokenizer", "--spectrograms", str(paths["spec"]),
                "--out", str(paths["tok_ckpt"])],
        base + ["tokenize", "--spectrograms", str(paths["spec"]),
                "--ckpt", str(paths["tok_ckpt"]), "--out", str(paths["tokens"])],
        base + ["train-mim", "--tokens", str(paths["tokens"]),
                "--spectrograms", str(paths["spec"]),
                "--out", str(paths["mim_ckpt"])],
        base + ["train-align", "--cohort", str(paths["cohort"]),
                "--tokens", str(paths["tokens"]),
                "--spectrograms", str(paths["spec"]),
                "--init", str(paths["mim_ckpt"]),
                "--out", str(paths["align_ckpt"])],
        base + ["select-prompt", "--cohort", str(paths["cohort"]),
                "--out", str(paths["selection"])],
        base + ["probe", "--cohort", str(paths["cohort"]),
                "--tokens", str(paths["tokens"]),
                "--spectrograms", str(paths["spec"]),
                "--ckpt", str(paths["align_ckpt"]),
                "--out", str(paths["results"])],
    ]
    for argv in steps:
        assert climod.main(argv) == 0, f"failed: {argv}"
    paths["base"] = base
    return paths


def test_pipeline_artifacts_and_manifests(pipeline):
    assert (pipeline["cohort"] / "records.json").exists()
    assert (pipeline["cohort"] / "manifest.json").exists()
    assert (pipeline["spec"] / "manifest.json").exists()
    assert pipeline["tok_ckpt"].exists()
    assert (pipeline["tokens"] / "tokens.json").exists()
    assert pipeline["results"].exists()
    manifest = json.loads((pipeline["cohort"] / "manifest.json").read_text())
    assert manifest["command"] == "gen-cohort"
    assert manifest["root_seed"] == 11
    assert manifest["stage_seeds"] == {"cohort": climod.stage_seed(11, "cohort")}
    assert manifest["output_ids"]["records.json"]
    tok_manifest = json.loads(
        pipeline["tok_ckpt"].parent.joinpath(
            pipeline["tok_ckpt"].name + ".manifest.json").read_text())
    assert tok_manifest["input_hashes"]["spectrograms"]


# command: (artifact, stage seed, manifest input names), as the benchmark
# reads them
_MANIFESTS = {
    "gen-cohort": ("cohort", "cohort", set()),
    "dsp": ("spec", "cohort", {"sessions"}),
    "train-tokenizer": ("tok_ckpt", "tokenizer", {"spectrograms"}),
    "tokenize": ("tokens", "tokenize", {"spectrograms", "ckpt"}),
    "train-mim": ("mim_ckpt", "mim", {"tokens", "spectrograms"}),
    "train-align": ("align_ckpt", "align",
                    {"records", "tokens", "spectrograms", "init"}),
    "select-prompt": ("selection", "select", {"records"}),
    "probe": ("results", "probe",
              {"records", "days", "tokens", "spectrograms", "ckpt"}),
}


@pytest.mark.parametrize("command", list(_MANIFESTS))
def test_every_command_writes_its_manifest(pipeline, command):
    artifact, stage, inputs = _MANIFESTS[command]
    out = pipeline[artifact]
    path = out / "manifest.json" if out.is_dir() else \
        out.with_name(out.name + ".manifest.json")
    manifest = json.loads(path.read_text())
    assert manifest["command"] == command
    assert manifest["stage_seeds"] == {stage: climod.stage_seed(11, stage)}
    assert set(manifest["input_hashes"]) == inputs
    assert all(manifest["input_hashes"].values())
    assert manifest["output_ids"] and all(manifest["output_ids"].values())


def test_report_command(pipeline, capsys):
    assert climod.main(["report", "--results", str(pipeline["results"])]) == 0
    out = capsys.readouterr().out
    assert out.startswith("task\taxis\tn_rows")
    assert "axis\tauroc_mean" in out


def test_selection_output(pipeline):
    payload = json.loads(pipeline["selection"].read_text())
    assert payload["selected"]["prompt_id"]
    assert len(payload["scores"]) == 6


def _trainer_argv(pipeline, command, out):
    spec = ["--spectrograms", str(pipeline["spec"])]
    return [command] + {
        "train-tokenizer": spec,
        "train-mim": ["--tokens", str(pipeline["tokens"])] + spec,
        "train-align": ["--cohort", str(pipeline["cohort"]),
                        "--tokens", str(pipeline["tokens"])] + spec
        + ["--init", str(pipeline["mim_ckpt"])],
    }[command] + ["--out", str(out)]


@pytest.mark.parametrize("command", ["train-tokenizer", "train-mim",
                                     "train-align"])
def test_steps_flag_is_the_profile_key(pipeline, tmp_path, command):
    """``--steps N`` and ``--config {"<stage>": {"steps": N}}`` are one run:
    the checkpoint and its manifest match byte for byte."""
    stage = command.removeprefix("train-")
    overrides = json.loads(pipeline["config"].read_text())
    overrides[stage]["steps"] = 1
    config = tmp_path / "steps.json"
    config.write_text(json.dumps(overrides))
    flag, keyed = tmp_path / "flag" / "out.npz", tmp_path / "keyed" / "out.npz"
    assert climod.main(pipeline["base"] + _trainer_argv(
        pipeline, command, flag) + ["--steps", "1"]) == 0
    assert climod.main(["--config", str(config), "--seed", "11"]
                       + _trainer_argv(pipeline, command, keyed)) == 0
    for name in ("out.npz", "out.npz.manifest.json"):
        assert (flag.parent / name).read_bytes() == \
            (keyed.parent / name).read_bytes(), name


def test_steps_flag_is_recorded_in_profile_hash(pipeline, tmp_path):
    hashes = []
    for n in (2, 3):
        out = tmp_path / f"tok{n}.npz"
        assert climod.main(pipeline["base"] + _trainer_argv(
            pipeline, "train-tokenizer", out) + ["--steps", str(n)]) == 0
        manifest = json.loads(
            out.with_name(out.name + ".manifest.json").read_text())
        hashes.append(manifest["profile_hash"])
    assert hashes[0] != hashes[1]


@pytest.mark.parametrize("command", ["train-tokenizer", "train-mim",
                                     "train-align"])
@pytest.mark.parametrize("steps", [0, -3])
def test_step_count_below_one_exits_2(pipeline, tmp_path, capsys, command,
                                      steps):
    """A trainer that would run no step is refused before it writes an
    untrained checkpoint, through ``--steps`` and ``--config`` alike."""
    stage = command.removeprefix("train-")
    overrides = json.loads(pipeline["config"].read_text())
    overrides[stage]["steps"] = steps
    config = tmp_path / "steps.json"
    config.write_text(json.dumps(overrides))
    for argv in (pipeline["base"] + _trainer_argv(
                     pipeline, command, tmp_path / "flag.npz")
                 + ["--steps", str(steps)],
                 ["--config", str(config), "--seed", "11"]
                 + _trainer_argv(pipeline, command, tmp_path / "keyed.npz")):
        assert climod.main(argv) == climod.EXIT_CONFIG
        assert f"{stage}.steps" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.npz*"))


@pytest.mark.parametrize("n_levels", [3, 6])
def test_level_lists_of_different_lengths_exit_2(tmp_path, capsys, n_levels):
    """Three channel entries for five strides would fail in the decoder's
    loss; six would drop the sixth silently.  Both are refused at load."""
    bad = tmp_path / "levels.json"
    bad.write_text(json.dumps(
        {"tokenizer": {"level_channels": [16] * n_levels}}))
    assert climod.main(["--config", str(bad), "gen-cohort",
                        "--out", str(tmp_path / "c")]) == climod.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "tokenizer.level_channels" in err
    assert "tokenizer.level_strides" in err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("size", [1, 65_537])
def test_codebook_size_outside_uint16_range_exits_2(tmp_path, capsys, size):
    """A codebook of one entry cannot train, and a ``.tok`` stores each
    index as a uint16: both sizes are refused when the profile loads,
    before any stage runs."""
    bad = tmp_path / "book.json"
    bad.write_text(json.dumps({"tokenizer": {"codebook_size": size}}))
    assert climod.main(["--config", str(bad), "gen-cohort",
                        "--out", str(tmp_path / "c")]) == climod.EXIT_CONFIG
    assert "tokenizer.codebook_size" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


def test_more_than_32_channels_exit_2(tmp_path, capsys):
    """A session header holds channel availability in one uint32: 33
    channel names are refused when the profile loads, 32 are not."""
    names = [f"E{i}" for i in range(33)]
    bad = tmp_path / "wide.json"
    bad.write_text(json.dumps({"cohort": {"channel_names": names}}))
    assert climod.main(["--config", str(bad), "gen-cohort",
                        "--out", str(tmp_path / "c")]) == climod.EXIT_CONFIG
    assert "cohort.channel_names" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()
    cfgmod.check(cfgmod.apply_overrides(cfgmod.get_profile("desk"), {
        "cohort": {"channel_names": names[:32]}}))


def test_channel_count_is_the_montage(tmp_path):
    """Six channel names give six-channel sessions and spectrograms: no
    second key states the count."""
    names = ["Fp1", "Fp2", "C3", "C4", "O1", "O2"]
    config = tmp_path / "six.json"
    config.write_text(json.dumps(
        {"cohort": {"n_patients": 3, "channel_names": names}}))
    base = ["--config", str(config), "--seed", "2"]
    assert climod.main(base + ["gen-cohort", "--out",
                               str(tmp_path / "cohort")]) == 0
    assert climod.main(base + ["dsp", "--cohort", str(tmp_path / "cohort"),
                               "--out", str(tmp_path / "spec")]) == 0
    specs = sorted((tmp_path / "spec").glob("*.spc"))
    assert len(specs) == 3
    for path in specs:
        spec = dsp.read_spectrogram(path)
        assert spec.values.shape == (6, 64, 64)
        assert spec.channel_available.shape == (6,)


def test_align_code_tables_follow_the_vocabulary(pipeline):
    """align.npz has one diagnosis and one medication row per code of the
    cohort's vocabularies: 20 of each at desk."""
    profile = cfgmod.get_profile("desk")
    phenotypes = cohortgen.default_phenotypes(profile.cohort.channel_names)
    dx, med = cohortgen.vocabularies(profile.cohort, phenotypes)
    params = grad.load_checkpoint(pipeline["align_ckpt"])["params"]
    assert params["ehr_encoder.e_dx"].shape[0] == len(dx) == 20
    assert params["ehr_encoder.e_med"].shape[0] == len(med) == 20


@pytest.mark.parametrize("n", [1, 3, 20, 45, 50, 100, 200, 300])
def test_progress_lines_end_on_the_last_step(capsys, n):
    """Step 1, every ``n // 20``-th step and step ``n``.  Where ``n`` is a
    multiple of that stride (3, 20 and 200 steps among them) step ``n`` is
    one of them: the lines train-tokenizer printed with its own loop."""
    climod._echo_steps([{"index": float(i)} for i in range(n)])
    lines = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    steps = [int(f[1]) for f in lines]
    every = max(1, n // 20)
    assert steps == sorted({1, n} | set(range(every, n + 1, every)))
    assert all(float(f[3]) == int(f[1]) - 1 for f in lines)


@pytest.mark.parametrize("command, fields", [
    ("train-tokenizer", ["recon", "vq"]), ("train-mim", ["loss", "acc"]),
    ("train-align", ["total", "report", "ehr"])])
def test_step_lines_name_each_trainer_field_in_order(pipeline, tmp_path,
                                                     capsys, command, fields):
    """The ``step`` lines the benchmark reads its losses from: ``step``, the
    step, then each field's name and its value to 5 decimals, in this order,
    on the first and on the last step."""
    assert climod.main(pipeline["base"] + _trainer_argv(
        pipeline, command, tmp_path / "out.npz")) == 0
    lines = [line.split("\t") for line in capsys.readouterr().out.splitlines()
             if line.startswith("step\t")]
    n = json.loads(pipeline["config"].read_text())[
        command.removeprefix("train-")]["steps"]
    assert [int(f[1]) for f in (lines[0], lines[-1])] == [1, n]
    for f in (lines[0], lines[-1]):
        assert f[2::2] == fields
        assert all(re.fullmatch(r"-?\d+\.\d{5}", v) for v in f[3::2])


def _select_prompt_refuses(pipeline, tmp_path, capsys, option, value):
    out = tmp_path / "selection.json"
    assert climod.main(pipeline["base"] + [
        "select-prompt", "--cohort", str(pipeline["cohort"]),
        option, value, "--out", str(out)]) == climod.EXIT_CONFIG
    assert option in capsys.readouterr().err
    assert not out.exists()


def test_select_prompt_has_no_max_reports(pipeline, tmp_path, capsys):
    """The prompt is scored on a fixed sample of 20 reports."""
    _select_prompt_refuses(pipeline, tmp_path, capsys, "--max-reports", "5")


def test_select_prompt_has_no_llm_option(pipeline, tmp_path, capsys):
    """The scorer is the in-process mock; there is no client to choose."""
    _select_prompt_refuses(pipeline, tmp_path, capsys, "--llm", "127.0.0.1:9")


def test_select_prompt_opens_no_socket(pipeline, tmp_path, monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("select-prompt opened a socket")
    monkeypatch.setattr(socket, "socket", refuse)
    monkeypatch.setattr(socket, "create_connection", refuse)
    out = tmp_path / "selection.json"
    assert climod.main(pipeline["base"] + [
        "select-prompt", "--cohort", str(pipeline["cohort"]),
        "--out", str(out)]) == 0
    assert out.read_bytes() == pipeline["selection"].read_bytes()


@pytest.mark.parametrize("edit", ["drop", "string"])
def test_probe_refuses_incomplete_days(pipeline, tmp_path, capsys, edit):
    """Every record's patient needs an integer session day; otherwise the
    probe exits 3 naming days.json and the patient, and writes nothing."""
    cohort = tmp_path / "cohort"
    shutil.copytree(pipeline["cohort"], cohort)
    days_path = cohort / "days.json"
    days = json.loads(days_path.read_text())
    pid = sorted(days["session_days"])[3]
    if edit == "drop":
        del days["session_days"][pid]
    else:
        days["session_days"][pid] = str(days["session_days"][pid])
    days_path.write_text(json.dumps(days))
    out = tmp_path / "results.json"
    assert climod.main(pipeline["base"] + [
        "probe", "--cohort", str(cohort), "--tokens", str(pipeline["tokens"]),
        "--spectrograms", str(pipeline["spec"]),
        "--ckpt", str(pipeline["align_ckpt"]), "--out", str(out)]) == \
        climod.EXIT_DATA
    err = capsys.readouterr().err
    assert str(days_path) in err and pid in err
    assert not out.exists()


def test_train_align_refuses_without_init(pipeline, capsys):
    argv = pipeline["base"] + [
        "train-align", "--cohort", str(pipeline["cohort"]),
        "--tokens", str(pipeline["tokens"]),
        "--spectrograms", str(pipeline["spec"]),
        "--out", str(pipeline["cohort"].parent / "align2.npz")]
    assert climod.main(argv) == climod.EXIT_CONFIG
    assert "sequential" in capsys.readouterr().err


def test_external_cohort_reads_the_first_cohorts_models(pipeline, tmp_path):
    """Cohort B (another seed, noise level, slope and alpha frequency) is
    generated and transformed, then tokenized with cohort A's codebook and
    probed with A's Stage II encoder, as in the README's recipe."""
    overrides = json.loads(pipeline["config"].read_text())
    overrides["cohort"].update(
        {"noise_rms_uv": 30.0, "alpha_freq_hz": 9.0, "noise_slope": -1.6})
    config = tmp_path / "cohort-b.json"
    config.write_text(json.dumps(overrides))
    base = ["--config", str(config), "--seed", "12"]
    b = {name: tmp_path / name for name in ("cohort", "spec", "tokens")}
    results = tmp_path / "results.json"
    for argv in (
            ["gen-cohort", "--out", str(b["cohort"])],
            ["dsp", "--cohort", str(b["cohort"]), "--out", str(b["spec"])],
            ["tokenize", "--spectrograms", str(b["spec"]),
             "--ckpt", str(pipeline["tok_ckpt"]), "--out", str(b["tokens"])],
            ["probe", "--cohort", str(b["cohort"]), "--tokens",
             str(b["tokens"]), "--spectrograms", str(b["spec"]),
             "--ckpt", str(pipeline["align_ckpt"]), "--out", str(results)]):
        assert climod.main(base + argv) == 0, argv
    index_a, index_b = (json.loads((d / "tokens.json").read_text())
                        for d in (pipeline["tokens"], b["tokens"]))
    assert index_b["codebook_sha"] == index_a["codebook_sha"]
    tasks_a, tasks_b = ([row["task_id"] for row in json.loads(p.read_text())]
                        for p in (pipeline["results"], results))
    assert sorted(tasks_b) == sorted(tasks_a)
    assert len(set(tasks_b)) == len(tasks_b)


def test_inference_records_no_tape(pipeline, tmp_path, monkeypatch):
    """tokenize and probe clear ``requires_grad`` on the weights they load,
    so neither the tokenizer's encoder output nor the session embedding
    carries a tape.  The tokens and embeddings are those of weights that
    still require gradients."""
    outputs = []
    for owner, name in ((vqtok.Tokenizer, "encode"),
                        (mim.SessionEncoder, "__call__")):
        def record(*args, real=getattr(owner, name)):
            outputs.append(real(*args))
            return outputs[-1]
        monkeypatch.setattr(owner, name, record)
    tokens = tmp_path / "tokens"
    assert climod.main(pipeline["base"] + [
        "tokenize", "--spectrograms", str(pipeline["spec"]),
        "--ckpt", str(pipeline["tok_ckpt"]), "--out", str(tokens)]) == 0
    assert climod.main(pipeline["base"] + [
        "probe", "--cohort", str(pipeline["cohort"]), "--tokens", str(tokens),
        "--spectrograms", str(pipeline["spec"]),
        "--ckpt", str(pipeline["align_ckpt"]),
        "--out", str(tmp_path / "results.json")]) == 0
    monkeypatch.undo()
    encoded = [o for o in outputs if isinstance(o, grad.Tensor)]
    pooled = [o[1] for o in outputs if isinstance(o, tuple)]
    assert encoded and pooled
    assert not any(t._parents for t in encoded + pooled)

    profile = cfgmod.load_profile("desk", pipeline["config"])
    tokenizer = vqtok.Tokenizer(profile.cohort.n_channels, profile.tokenizer,
                                np.random.default_rng(0))
    grad.assign_parameters(tokenizer.named_parameters(), grad.load_checkpoint(
        pipeline["tok_ckpt"])["params"])
    sids, values, avail = climod._load_spectrograms(profile, pipeline["spec"])
    assert tokenizer.encode(grad.Tensor(vqtok.encoder_planes(
        values[:1], avail[:1])))._parents
    for sid, grid in zip(sids, vqtok.tokenize_sessions(tokenizer, values,
                                                        avail)):
        assert np.array_equal(vqtok.read_tokens(tokens / f"{sid}.tok")[0], grid)
    _, ids, patches, encoder = climod._cohort_encoder(
        profile, pipeline["cohort"], tokens, pipeline["spec"],
        grad.load_checkpoint(pipeline["align_ckpt"]))
    u = encoder(ids[:32], patches[:32])[1]
    assert u._parents and np.array_equal(u.data, pooled[0].data)


def test_tokenize_refuses_codebook_mismatch(pipeline, tmp_path, capsys):
    other_ckpt = tmp_path / "tokenizer2.npz"
    base2 = ["--profile", "desk", "--config", str(pipeline["config"]),
             "--seed", "99"]
    assert climod.main(base2 + ["train-tokenizer",
                                "--spectrograms", str(pipeline["spec"]),
                                "--out", str(other_ckpt)]) == 0
    argv = base2 + ["tokenize", "--spectrograms", str(pipeline["spec"]),
                    "--ckpt", str(other_ckpt), "--out", str(pipeline["tokens"])]
    assert climod.main(argv) == climod.EXIT_DATA
    assert "codebook" in capsys.readouterr().err


def test_probe_refuses_non_encoder_checkpoint(pipeline, tmp_path, capsys):
    argv = pipeline["base"] + [
        "probe", "--cohort", str(pipeline["cohort"]),
        "--tokens", str(pipeline["tokens"]),
        "--spectrograms", str(pipeline["spec"]),
        "--ckpt", str(pipeline["tok_ckpt"]),
        "--out", str(tmp_path / "results.json")]
    assert climod.main(argv) == climod.EXIT_DATA
    assert "tokenizer checkpoint holds no encoder" in capsys.readouterr().err
    assert not (tmp_path / "results.json").exists()


def test_train_align_refuses_non_stage1_checkpoint(pipeline, tmp_path,
                                                   capsys):
    argv = pipeline["base"] + [
        "train-align", "--cohort", str(pipeline["cohort"]),
        "--tokens", str(pipeline["tokens"]),
        "--spectrograms", str(pipeline["spec"]),
        "--init", str(pipeline["align_ckpt"]),
        "--out", str(tmp_path / "align.npz")]
    assert climod.main(argv) == climod.EXIT_DATA
    assert "align checkpoint holds no Stage I model" in capsys.readouterr().err
    assert not (tmp_path / "align.npz").exists()


def test_probe_refuses_checkpoint_of_other_geometry(pipeline, tmp_path,
                                                    capsys):
    overrides = json.loads(pipeline["config"].read_text())
    overrides["mim"]["d_model"] = 32
    config = tmp_path / "narrow.json"
    config.write_text(json.dumps(overrides))
    argv = ["--profile", "desk", "--config", str(config), "--seed", "11",
            "probe", "--cohort", str(pipeline["cohort"]),
            "--tokens", str(pipeline["tokens"]),
            "--spectrograms", str(pipeline["spec"]),
            "--ckpt", str(pipeline["align_ckpt"]),
            "--out", str(tmp_path / "results.json")]
    assert climod.main(argv) == climod.EXIT_DATA
    assert "eeg.token_table" in capsys.readouterr().err
    assert not (tmp_path / "results.json").exists()


def test_probe_refuses_non_finite_embeddings(pipeline, tmp_path, capsys,
                                            monkeypatch):
    """One NaN weight makes every validation AUROC NaN, so no probe could
    pick a best epoch: refused by checkpoint name before any probe trains."""
    ckpt = grad.load_checkpoint(pipeline["align_ckpt"])
    ckpt["params"]["eeg.ln_g"][0] = np.nan
    bad = tmp_path / "nan.npz"
    grad.save_checkpoint(bad, {k: grad.Tensor(v)
                               for k, v in ckpt["params"].items()},
                         meta=ckpt["meta"])
    trained = []
    monkeypatch.setattr(bench, "train_probe",
                        lambda *a: trained.append(a) or None)
    out = tmp_path / "results.json"
    assert climod.main(pipeline["base"] + [
        "probe", "--cohort", str(pipeline["cohort"]),
        "--tokens", str(pipeline["tokens"]),
        "--spectrograms", str(pipeline["spec"]),
        "--ckpt", str(bad), "--out", str(out)]) == climod.EXIT_NUMERIC
    assert str(bad) in capsys.readouterr().err
    assert not trained and not out.exists()


def test_train_align_refuses_stage1_checkpoint_of_other_geometry(
        pipeline, tmp_path, capsys):
    overrides = json.loads(pipeline["config"].read_text())
    overrides["mim"]["d_model"] = 32
    config = tmp_path / "narrow.json"
    config.write_text(json.dumps(overrides))
    argv = ["--profile", "desk", "--config", str(config), "--seed", "11",
            "train-align", "--cohort", str(pipeline["cohort"]),
            "--tokens", str(pipeline["tokens"]),
            "--spectrograms", str(pipeline["spec"]),
            "--init", str(pipeline["mim_ckpt"]),
            "--out", str(tmp_path / "align.npz")]
    assert climod.main(argv) == climod.EXIT_DATA
    assert "eeg.token_table" in capsys.readouterr().err
    assert not (tmp_path / "align.npz").exists()


def _unprefixed(name: str) -> str:
    """A Stage I parameter's name as checkpoints held it before the session
    encoder was one module: no ``eeg.``, blocks ``encoder.<i>``, final norm
    ``enc_ln_*``."""
    name = name.removeprefix("eeg.")
    return name.replace("blocks.", "encoder.", 1).replace("ln_", "enc_ln_", 1) \
        if name.startswith(("blocks.", "ln_")) else name


@pytest.mark.parametrize("command", ["train-align", "probe"])
def test_checkpoint_of_unprefixed_encoder_names_exits_3(pipeline, tmp_path,
                                                        capsys, command):
    """Both loaders read the encoder under ``eeg.``: a Stage I checkpoint
    that names it the old way is refused with the missing names, and
    nothing is written."""
    ckpt = grad.load_checkpoint(pipeline["mim_ckpt"])
    old = tmp_path / "old.npz"
    rename = {k: _unprefixed(k) for k in ckpt["params"]}
    grad.save_checkpoint(
        old, {rename[k]: grad.Tensor(v) for k, v in ckpt["params"].items()},
        meta=ckpt["meta"])
    assert "token_table" in grad.load_checkpoint(old)["params"]
    out = tmp_path / "out"
    flag = {"train-align": "--init", "probe": "--ckpt"}[command]
    assert climod.main(pipeline["base"] + [
        command, "--cohort", str(pipeline["cohort"]),
        "--tokens", str(pipeline["tokens"]),
        "--spectrograms", str(pipeline["spec"]),
        flag, str(old), "--out", str(out)]) == climod.EXIT_DATA
    assert "missing parameters: ['eeg." in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train-align", "probe"])
@pytest.mark.parametrize("key, value", [("sex", "X"), ("race", "Martian"),
                                        ("setting", "Home")])
def test_unknown_demographic_category_exits_3(pipeline, tmp_path, capsys,
                                              command, key, value):
    """A sex, race or setting outside its category list makes records.json
    malformed for every reader: exit 3 naming the file, nothing written."""
    cohort = tmp_path / "cohort"
    shutil.copytree(pipeline["cohort"], cohort)
    records_path = cohort / "records.json"
    records = json.loads(records_path.read_text())
    records[4][key] = value
    records_path.write_text(json.dumps(records))
    out = tmp_path / "out"
    stage = {"train-align": ["--init", str(pipeline["mim_ckpt"])],
             "probe": ["--ckpt", str(pipeline["align_ckpt"])]}[command]
    assert climod.main(pipeline["base"] + [
        command, "--cohort", str(cohort), "--tokens", str(pipeline["tokens"]),
        "--spectrograms", str(pipeline["spec"]), "--out", str(out)] + stage) \
        == climod.EXIT_DATA
    err = capsys.readouterr().err
    assert str(records_path) in err and repr(value) in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train-mim", "probe"])
def test_token_file_of_other_codebook_size_exits_3(pipeline, tmp_path,
                                                   capsys, command):
    """A .tok written under a 128-entry codebook, beside an index of 64, is
    refused by name before any of its indices is looked up."""
    tokens = tmp_path / "tokens"
    shutil.copytree(pipeline["tokens"], tokens)
    bad = sorted(tokens.glob("*.tok"))[3]
    grid, _k, sid = vqtok.read_tokens(bad)
    grid[0, 0] = 100
    vqtok.write_tokens(bad, grid, 128, sid)
    out = tmp_path / "out"
    stage = {"train-mim": [],
             "probe": ["--cohort", str(pipeline["cohort"]),
                       "--ckpt", str(pipeline["align_ckpt"])]}[command]
    assert climod.main(pipeline["base"] + [
        command, "--tokens", str(tokens), "--spectrograms",
        str(pipeline["spec"]), "--out", str(out)] + stage) == climod.EXIT_DATA
    err = capsys.readouterr().err
    assert str(bad) in err and "128-entry" in err
    assert not out.exists()


@pytest.mark.parametrize("fault", ["non-utf8-id", "empty-grid"])
def test_malformed_token_file_exits_3(pipeline, tmp_path, capsys, fault):
    """A .tok whose session id is not UTF-8, or whose grid has no cells, is
    refused by name before train-mim writes anything."""
    tokens = tmp_path / "tokens"
    shutil.copytree(pipeline["tokens"], tokens)
    bad = sorted(tokens.glob("*.tok"))[3]
    raw = bytearray(bad.read_bytes())
    if fault == "non-utf8-id":
        raw[vqtok._TOK_HEADER.size] = 0xFF
    else:
        magic, k, _h, w, id_len = vqtok._TOK_HEADER.unpack_from(raw)
        raw = vqtok._TOK_HEADER.pack(magic, k, 0, w, id_len) + \
            raw[vqtok._TOK_HEADER.size:vqtok._TOK_HEADER.size + id_len]
    bad.write_bytes(bytes(raw))
    out = tmp_path / "mim.npz"
    assert climod.main(pipeline["base"] + [
        "train-mim", "--tokens", str(tokens), "--spectrograms",
        str(pipeline["spec"]), "--out", str(out)]) == climod.EXIT_DATA
    assert str(bad) in capsys.readouterr().err
    assert not out.exists()


def _four_patient_cohort(tmp_path):
    """Global options, the cohort directory and its third session's path."""
    config = tmp_path / "four.json"
    config.write_text(json.dumps({"cohort": {"n_patients": 4}}))
    base = ["--config", str(config), "--seed", "3"]
    cohort = tmp_path / "cohort"
    assert climod.main(base + ["gen-cohort", "--out", str(cohort)]) == 0
    return base, cohort, sorted((cohort / "sessions").glob("*.raw"))[2]


def test_partial_dsp_output_is_refused(tmp_path, capsys):
    base, cohort, bad = _four_patient_cohort(tmp_path)
    bad.write_bytes(bad.read_bytes()[:5000])
    spec = tmp_path / "spec"
    assert climod.main(base + ["dsp", "--cohort", str(cohort),
                               "--out", str(spec)]) == climod.EXIT_DATA
    assert list(spec.glob("*.spc"))  # the sessions before the bad one
    capsys.readouterr()
    assert climod.main(base + ["train-tokenizer", "--spectrograms", str(spec),
                               "--out", str(tmp_path / "tok.npz"),
                               "--steps", "1"]) == climod.EXIT_DATA
    assert "manifest.json" in capsys.readouterr().err
    assert not (tmp_path / "tok.npz").exists()


def test_session_with_zero_sample_rate_exits_3(tmp_path, capsys):
    base, cohort, bad = _four_patient_cohort(tmp_path)
    session = cohortgen.read_session(bad)
    cohortgen.write_session(bad, dataclasses.replace(session, sample_rate=0.0))
    spec = tmp_path / "spec"
    assert climod.main(base + ["dsp", "--cohort", str(cohort),
                               "--out", str(spec)]) == climod.EXIT_DATA
    assert str(bad) in capsys.readouterr().err
    assert not (spec / "manifest.json").exists()


@pytest.mark.parametrize("n_samples", [0, 100])
def test_session_shorter_than_one_window_exits_3(tmp_path, capsys, monkeypatch,
                                                  n_samples):
    base, cohort, bad = _four_patient_cohort(tmp_path)
    session = cohortgen.read_session(bad)
    cohortgen.write_session(bad, dataclasses.replace(
        session, samples=session.samples[:, :n_samples]))
    filtered = []
    monkeypatch.setattr(dsp, "preprocess", lambda s, *_: filtered.append(
        s.session_id) or s)
    spec = tmp_path / "spec"
    assert climod.main(base + ["dsp", "--cohort", str(cohort),
                               "--out", str(spec)]) == climod.EXIT_DATA
    err = capsys.readouterr().err
    assert str(bad) in err and f"{n_samples} samples < one window" in err
    assert str(bad) not in filtered
    assert not (spec / "manifest.json").exists()


def test_session_rate_with_band_edge_above_nyquist_exits_3(tmp_path, capsys):
    """A valid 128-Hz session puts the 75-Hz band edge above its 64-Hz
    Nyquist frequency: the filter design refuses it by name."""
    base, cohort, bad = _four_patient_cohort(tmp_path)
    session = cohortgen.read_session(bad)
    cohortgen.write_session(bad, dataclasses.replace(session,
                                                     sample_rate=128.0))
    spec = tmp_path / "spec"
    assert climod.main(base + ["dsp", "--cohort", str(cohort),
                               "--out", str(spec)]) == climod.EXIT_DATA
    err = capsys.readouterr().err
    assert str(bad) in err and "75.0 Hz" in err and "64.0 Hz" in err
    assert not (spec / "manifest.json").exists()


def test_dsp_designs_its_filter_once_per_rate(tmp_path, monkeypatch):
    config = tmp_path / "six.json"
    config.write_text(json.dumps({"cohort": {"n_patients": 6}}))
    base = ["--config", str(config), "--seed", "3"]
    cohort = tmp_path / "cohort"
    assert climod.main(base + ["gen-cohort", "--out", str(cohort)]) == 0
    designs, butter = [], dsp.signal.butter
    monkeypatch.setattr(dsp.signal, "butter",
                        lambda *a, **k: designs.append(a) or butter(*a, **k))
    assert climod.main(base + ["dsp", "--cohort", str(cohort),
                               "--out", str(tmp_path / "spec")]) == 0
    assert len(list((tmp_path / "spec").glob("*.spc"))) == 6
    assert len(designs) == 1


def test_failed_dsp_rerun_removes_the_old_manifest(tmp_path):
    base, cohort, bad = _four_patient_cohort(tmp_path)
    spec = tmp_path / "spec"
    argv = base + ["dsp", "--cohort", str(cohort), "--out", str(spec)]
    assert climod.main(argv) == 0
    assert (spec / "manifest.json").exists()
    bad.write_bytes(bad.read_bytes()[:5000])
    assert climod.main(argv) == climod.EXIT_DATA
    assert not (spec / "manifest.json").exists()


def test_dsp_with_no_taper_above_the_threshold_exits_2(tmp_path, capsys):
    """No DPSS taper at nw 2 is that concentrated: without the one rule that
    needs the eigen-solve, dsp wrote all-NaN spectrograms and exited 0."""
    base, cohort, _ = _four_patient_cohort(tmp_path)
    strict = tmp_path / "strict.json"
    strict.write_text(json.dumps({"cohort": {"n_patients": 4},
                                  "dsp": {"eigen_threshold": 0.9999999}}))
    spec = tmp_path / "spec"
    assert climod.main(["--config", str(strict), "--seed", "3", "dsp",
                        "--cohort", str(cohort), "--out", str(spec)]
                       ) == climod.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "dsp.eigen_threshold" in err and "dsp.nw" in err
    assert not list(spec.glob("*.spc"))
    assert not (spec / "manifest.json").exists()


@pytest.mark.parametrize("command", ["dsp", "train-align", "select-prompt",
                                     "probe"])
def test_failed_gen_cohort_rerun_is_refused(pipeline, tmp_path, monkeypatch,
                                            capsys, command):
    """A gen-cohort re-run that fails part way leaves new records beside the
    old days.json; gen-cohort removes its manifest before its first write,
    so every stage that reads the cohort refuses it and writes nothing."""
    cohort = tmp_path / "cohort"
    shutil.copytree(pipeline["cohort"], cohort)
    write_session, calls = cohortgen.write_session, []

    def failing(*args):
        calls.append(args)
        if len(calls) == 3:
            raise OSError("disk full")
        write_session(*args)

    monkeypatch.setattr(cohortgen, "write_session", failing)
    with pytest.raises(OSError, match="disk full"):
        climod.main(["--profile", "desk", "--config", str(pipeline["config"]),
                     "--seed", "12", "gen-cohort", "--out", str(cohort)])
    monkeypatch.undo()
    capsys.readouterr()
    out = tmp_path / "out"
    stage = ["--tokens", str(pipeline["tokens"]),
             "--spectrograms", str(pipeline["spec"])]
    argv = {"dsp": [],
            "train-align": stage + ["--init", str(pipeline["mim_ckpt"])],
            "select-prompt": [],
            "probe": stage + ["--ckpt", str(pipeline["align_ckpt"])]}[command]
    assert climod.main(pipeline["base"] + [
        command, "--cohort", str(cohort), "--out", str(out)] + argv) \
        == climod.EXIT_DATA
    assert "manifest.json" in capsys.readouterr().err
    assert not out.exists()


def test_failed_tokenize_rerun_leaves_no_usable_tokens(pipeline, tmp_path,
                                                      monkeypatch, capsys):
    """tokenize removes its index and manifest before the first .tok and
    writes them last: a rerun that fails part way is refused downstream."""
    tokens = tmp_path / "tokens"
    shutil.copytree(pipeline["tokens"], tokens)
    write_tokens, calls = vqtok.write_tokens, []

    def failing(*args):
        calls.append(args)
        if len(calls) == 3:
            raise OSError("disk full")
        write_tokens(*args)

    monkeypatch.setattr(vqtok, "write_tokens", failing)
    with pytest.raises(OSError, match="disk full"):
        climod.main(pipeline["base"] + [
            "tokenize", "--spectrograms", str(pipeline["spec"]),
            "--ckpt", str(pipeline["tok_ckpt"]), "--out", str(tokens)])
    capsys.readouterr()
    assert climod.main(pipeline["base"] + [
        "train-mim", "--tokens", str(tokens),
        "--spectrograms", str(pipeline["spec"]),
        "--out", str(tmp_path / "mim.npz"), "--steps", "1"]) == climod.EXIT_DATA
    assert "manifest.json" in capsys.readouterr().err
    assert not (tmp_path / "mim.npz").exists()


def test_gen_cohort_rerun_with_fewer_patients_replaces_the_sessions(
        pipeline, tmp_path):
    """Four patients into the ten-patient cohort's directory leave four
    ``.raw``, one per record; a file that is not a session stays."""
    cohort = tmp_path / "cohort"
    shutil.copytree(pipeline["cohort"], cohort)
    (cohort / "sessions" / "notes.txt").write_text("kept")
    config = tmp_path / "four.json"
    config.write_text(json.dumps({"cohort": {"n_patients": 4}}))
    assert climod.main(["--config", str(config), "--seed", "3",
                        "gen-cohort", "--out", str(cohort)]) == 0
    records = cohortgen.read_records(cohort / "records.json")
    assert sorted(p.stem for p in (cohort / "sessions").glob("*.raw")) \
        == sorted(r.session_id for r in records) and len(records) == 4
    assert (cohort / "sessions" / "notes.txt").read_text() == "kept"


def test_dsp_rerun_with_fewer_sessions_replaces_the_spectrograms(
        pipeline, tmp_path):
    spec = tmp_path / "spec"
    shutil.copytree(pipeline["spec"], spec)
    base, cohort, _ = _four_patient_cohort(tmp_path)
    assert climod.main(base + ["dsp", "--cohort", str(cohort),
                               "--out", str(spec)]) == 0
    assert sorted(p.stem for p in spec.glob("*.spc")) == sorted(
        p.stem for p in (cohort / "sessions").glob("*.raw"))


def test_tokenize_rerun_with_fewer_sessions_replaces_the_token_files(
        pipeline, tmp_path):
    tokens, spec = tmp_path / "tokens", tmp_path / "spec"
    shutil.copytree(pipeline["tokens"], tokens)
    spec.mkdir()
    for path in sorted(pipeline["spec"].glob("*.spc"))[:4]:
        shutil.copy(path, spec)
    shutil.copy(pipeline["spec"] / "manifest.json", spec)
    assert climod.main(pipeline["base"] + [
        "tokenize", "--spectrograms", str(spec),
        "--ckpt", str(pipeline["tok_ckpt"]), "--out", str(tokens)]) == 0
    sids = sorted(p.stem for p in spec.glob("*.spc"))
    assert sorted(p.stem for p in tokens.glob("*.tok")) == sids
    assert json.loads((tokens / "tokens.json").read_text())["sessions"] == sids


def test_tokenize_refuses_non_finite_tokenizer(pipeline, tmp_path, capsys):
    """A NaN weight makes every latent NaN: tokenize exits 4 naming the
    checkpoint, and leaves no index and no manifest."""
    ckpt = grad.load_checkpoint(pipeline["tok_ckpt"])
    ckpt["params"]["encoder.w_out"][:] = np.nan
    bad = tmp_path / "nan.npz"
    grad.save_checkpoint(bad, {k: grad.Tensor(v)
                               for k, v in ckpt["params"].items()},
                         meta=ckpt["meta"])
    out = tmp_path / "tokens"
    assert climod.main(pipeline["base"] + [
        "tokenize", "--spectrograms", str(pipeline["spec"]),
        "--ckpt", str(bad), "--out", str(out)]) == climod.EXIT_NUMERIC
    assert str(bad) in capsys.readouterr().err
    assert not (out / "tokens.json").exists()
    assert not (out / "manifest.json").exists()


def test_checkpoint_out_without_npz_suffix_is_written_as_given(pipeline,
                                                               tmp_path):
    out = tmp_path / "tok.ckpt"
    assert climod.main(pipeline["base"] + [
        "train-tokenizer", "--spectrograms", str(pipeline["spec"]),
        "--out", str(out), "--steps", "1"]) == 0
    assert out.exists() and not (tmp_path / "tok.ckpt.npz").exists()
    manifest = json.loads((tmp_path / "tok.ckpt.manifest.json").read_text())
    assert manifest["output_ids"]["tok.ckpt"]
    assert climod.main(pipeline["base"] + [
        "tokenize", "--spectrograms", str(pipeline["spec"]),
        "--ckpt", str(out), "--out", str(tmp_path / "tokens")]) == 0


def test_manifest_refuses_an_output_that_was_not_written(pipeline, tmp_path,
                                                        monkeypatch, capsys):
    monkeypatch.setattr(grad, "save_checkpoint", lambda *a, **k: None)
    out = tmp_path / "tok.npz"
    assert climod.main(pipeline["base"] + [
        "train-tokenizer", "--spectrograms", str(pipeline["spec"]),
        "--out", str(out), "--steps", "1"]) == climod.EXIT_DATA
    assert str(out) in capsys.readouterr().err
    assert not (tmp_path / "tok.npz.manifest.json").exists()


def test_load_spectrograms_holds_one_copy(tmp_path):
    """The stacked set is filled in place: peak traced memory stays within
    twice its size (once for the result, once for slack).  Twenty desk
    sessions are enough that three copies of the set would break that."""
    rng = np.random.default_rng(0)
    expected = rng.uniform(-1, 1, size=(20, 8, 64, 64)).astype(np.float32)
    for i, values in enumerate(expected):
        dsp.write_spectrogram(tmp_path / f"s{i:02d}.spc", dsp.Spectrogram(
            values=values, freq_res_hz=0.25, frame_stride_s=5.0,
            channel_available=np.arange(8) != i % 8, db_lo=-40.0, db_hi=40.0))
    (tmp_path / "manifest.json").write_text("{}")
    tracemalloc.start()
    try:
        sids, values, avail = climod._load_spectrograms(
            cfgmod.get_profile("desk"), tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sids == [f"s{i:02d}" for i in range(20)]
    assert values.dtype == np.float32 and np.array_equal(values, expected)
    assert avail.tolist() == [(np.arange(8) != i % 8).tolist()
                              for i in range(20)]
    assert peak <= 2 * expected.nbytes + (1 << 20)


def _write_sessions(tmp_path, sids, grid_shape, values):
    """Finished token and spectrogram directories holding ``sids``: session
    i has token grid ``grid_shape`` filled with i + 1 and spectrogram
    ``values * (i + 1)``."""
    tok, spec = tmp_path / "tokens", tmp_path / "spec"
    tok.mkdir()
    spec.mkdir()
    for i, sid in enumerate(sids):
        vqtok.write_tokens(tok / f"{sid}.tok",
                           np.full(grid_shape, i + 1, dtype=np.int64), 4, sid)
        dsp.write_spectrogram(spec / f"{sid}.spc", dsp.Spectrogram(
            values=(values * (i + 1)).astype(np.float32), freq_res_hz=0.25,
            frame_stride_s=5.0,
            channel_available=np.ones(len(values), dtype=bool),
            db_lo=-40.0, db_hi=40.0))
    for d in (tok, spec):
        (d / "manifest.json").write_text("{}")
    (tok / "tokens.json").write_text(json.dumps(
        {"codebook_sha": "x", "codebook_size": 4, "sessions": sorted(sids)}))
    return tok, spec


def test_sessions_join_by_id_not_by_sorted_position(tmp_path):
    """Sorted file names put s100000 before s99999; rows must still follow
    the requested ids, and an id without files must be refused."""
    profile = cfgmod.get_profile("desk")
    generation_order = ["s99999", "s100000"]
    tok, spec = _write_sessions(tmp_path, generation_order, (4, 8),
                                np.full((8, 64, 64), 0.25))
    ids, patches, k = climod._load_sessions(profile, tok, spec,
                                            generation_order)
    assert k == 4
    assert ids.tolist() == [[1] * 32, [2] * 32]
    assert patches.shape == (2, 32, 8 * 16 * 8)
    assert np.all(patches[0] == 0.25) and np.all(patches[1] == 0.5)
    with pytest.raises(DataError, match="s12345"):
        climod._load_sessions(profile, tok, spec, ["s99999", "s12345"])
    (spec / "s100000.spc").unlink()
    with pytest.raises(DataError, match="different sessions"):
        climod._load_sessions(profile, tok, spec)


def test_load_sessions_holds_no_stack_of_spectrograms(tmp_path):
    """Patches are cut one session at a time into the result: peak traced
    memory stays within the patches and 1 MB, where the stacked
    spectrograms beside them would double it."""
    profile = cfgmod.get_profile("desk")
    values = np.random.default_rng(0).normal(size=(8, 64, 64))
    tok, spec = _write_sessions(tmp_path, ["s00"], (4, 8), values)
    sids = [f"s{i:02d}" for i in range(20)]
    for sid in sids[1:]:
        vqtok.write_tokens(tok / f"{sid}.tok",
                           np.ones((4, 8), dtype=np.int64), 4, sid)
        shutil.copy(spec / "s00.spc", spec / f"{sid}.spc")
    (tok / "tokens.json").write_text(json.dumps(
        {"codebook_sha": "x", "codebook_size": 4, "sessions": sids}))
    tracemalloc.start()
    try:
        _, patches, _ = climod._load_sessions(profile, tok, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert patches.shape == (20, 32, 8 * 16 * 8)
    assert np.array_equal(patches[19], mim.extract_patches(
        values.astype(np.float32), 16, 8))
    assert peak <= patches.nbytes + (1 << 20)


def test_patches_are_cut_at_the_tokenizer_stride(tmp_path):
    """The Stage I patch is the tokenizer's total stride: a time stride of 2
    at the fourth level gives 8x16 patches on an 8x4 grid."""
    profile = cfgmod.apply_overrides(cfgmod.get_profile("desk"), {
        "tokenizer": {"level_strides": [[2, 2], [2, 2], [2, 2], [1, 2],
                                        [1, 1]]}})
    assert profile.patch_shape == (8, 16) and profile.grid_shape == (8, 4)
    values = np.random.default_rng(0).normal(size=(8, 64, 64))
    tok, spec = _write_sessions(tmp_path, ["s0"], (8, 4), values)
    _, patches, _ = climod._load_sessions(profile, tok, spec)
    assert np.array_equal(
        patches[0], mim.extract_patches(values.astype(np.float32), 8, 16))


def test_token_grid_of_other_layout_is_refused(tmp_path, capsys):
    """An 8x4 grid holds as many tokens as desk's 4x8, but its patches lie
    elsewhere: train-mim refuses it and names the file."""
    tok, spec = _write_sessions(tmp_path, ["s0", "s1"], (8, 4),
                                np.zeros((8, 64, 64)))
    assert climod.main(["train-mim", "--tokens", str(tok),
                        "--spectrograms", str(spec),
                        "--out", str(tmp_path / "mim.npz"),
                        "--steps", "1"]) == climod.EXIT_DATA
    assert str(tok / "s0.tok") in capsys.readouterr().err
    assert not (tmp_path / "mim.npz").exists()


@pytest.mark.parametrize("command", ["train-tokenizer", "tokenize",
                                     "train-mim"])
def test_spectrogram_of_other_shape_is_refused(pipeline, tmp_path, capsys,
                                               command):
    """8x64x128 spectrograms (dsp at stride 500) tile into a 4x16 grid, not
    desk's 4x8: each stage that reads them names the file and writes
    nothing, and a finished token cache in the output directory stays."""
    tok, spec = _write_sessions(tmp_path, ["s0", "s1"], (4, 8),
                                np.zeros((8, 64, 128)))
    out = tmp_path / "out"
    shutil.copytree(pipeline["tokens"], out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    argv = {"train-tokenizer": ["--out", str(out / "tok.npz")],
            "tokenize": ["--ckpt", str(pipeline["tok_ckpt"]),
                         "--out", str(out)],
            "train-mim": ["--tokens", str(tok), "--out", str(out / "mim.npz")]}
    assert climod.main(pipeline["base"] + [
        command, "--spectrograms", str(spec)] + argv[command]) \
        == climod.EXIT_DATA
    assert str(spec / "s0.spc") in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("name, text, command", [
    ("records.json", "{not json", "select-prompt"),
    ("days.json", '{"days": {}}', "probe"),
    ("tokens.json", '{"codebook_size": 4}', "train-mim"),
    ("results.json", "[{", "report"),
    ("results.json", '[{"task_id": "t"}]', "report"),
    ("results.json", json.dumps([{
        "task_id": "t", "axis": "a", "n_rows": 4, "n_pos_test": 1,
        "auroc_mean": "high", "auroc_sd": 0.0, "bacc_mean": 0.5,
        "bacc_sd": 0.0, "skipped": ""}]), "report"),
])
def test_malformed_json_artifact_exits_3(pipeline, tmp_path, capsys, name,
                                         text, command):
    """A JSON artifact that does not parse, or lacks what the stage reads
    from it, or holds a value of the wrong type, is a data error that names
    the file; nothing is written or printed."""
    cohort, tokens = tmp_path / "cohort", tmp_path / "tokens"
    shutil.copytree(pipeline["cohort"], cohort)
    shutil.copytree(pipeline["tokens"], tokens)
    bad = {"records.json": cohort, "days.json": cohort, "tokens.json": tokens,
           "results.json": tmp_path}[name] / name
    bad.write_text(text)
    out, spec = tmp_path / "out.json", ["--spectrograms", str(pipeline["spec"])]
    argv = {"select-prompt": ["--cohort", str(cohort), "--out", str(out)],
            "probe": ["--cohort", str(cohort), "--tokens", str(tokens)] + spec
            + ["--ckpt", str(pipeline["align_ckpt"]), "--out", str(out)],
            "train-mim": ["--tokens", str(tokens)] + spec + ["--out", str(out)],
            "report": ["--results", str(bad)]}[command]
    assert climod.main(pipeline["base"] + [command] + argv) == climod.EXIT_DATA
    captured = capsys.readouterr()
    assert str(bad) in captured.err and captured.out == ""
    assert not out.exists()


def test_grid_that_does_not_tile_exits_2_at_load(tmp_path, capsys):
    """At 250 Hz desk's spectrogram is 51x80, which 16x8 patches do not
    tile: the profile is refused before any stage runs."""
    bad = tmp_path / "rate.json"
    bad.write_text(json.dumps({"cohort": {"sample_rate": 250.0}}))
    assert climod.main(["--config", str(bad), "gen-cohort",
                        "--out", str(tmp_path / "c")]) == climod.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "cohort.sample_rate" in err and "tokenizer.level_strides" in err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("overrides, key", [
    ({"cohort": {"sample_rate": 0}}, "cohort.sample_rate"),
    ({"dsp": {"stride": 0}}, "dsp.stride"),
    ({"dsp": {"k_max": 0}}, "dsp.k_max"),
    ({"tokenizer": {"batch_size": 0}}, "tokenizer.batch_size"),
    ({"mim": {"batch_size": 0}}, "mim.batch_size"),
    ({"align": {"batch_size": 0}}, "align.batch_size"),
    ({"align": {"text_max_len": 0}}, "align.text_max_len"),
    ({"mim": {"n_heads": 3}}, "mim.n_heads"),
    ({"mim": {"n_heads": 0}}, "mim.n_heads"),
    ({"align": {"n_heads": 3}}, "align.n_heads"),
    ({"bench": {"probe_batch_size": 0}}, "bench.probe_batch_size"),
    ({"bench": {"probe_epochs": 0}}, "bench.probe_epochs"),
    ({"bench": {"n_seeds": 0}}, "bench.n_seeds"),
    ({"bench": {"split_val": 0.5, "split_test": 0.5}}, "bench.split_val"),
])
def test_value_no_stage_runs_on_exits_2_at_load(tmp_path, capsys, overrides,
                                                 key):
    """Each value once passed the load and then failed in a stage: a
    division by zero at load, a crash (exit 1 or 4), a "data error" (exit 3)
    or NaN AUROCs under exit 0.  ``config.check`` refuses it by name before
    any stage runs, and a head count below 1 before it divides by it."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(overrides))
    assert climod.main(["--config", str(bad), "gen-cohort",
                        "--out", str(tmp_path / "c")]) == climod.EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


def test_exit_codes(tmp_path, capsys):
    # unknown profile: usage error
    assert climod.main(["--profile", "nope", "gen-cohort",
                        "--out", str(tmp_path / "c")]) == climod.EXIT_CONFIG
    # unknown override key: config error
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"tokenizer": {"not_a_knob": 1}}))
    assert climod.main(["--config", str(bad), "gen-cohort",
                        "--out", str(tmp_path / "c")]) == climod.EXIT_CONFIG
    # structurally valid but empty input: data error with the path named
    empty = tmp_path / "empty_cohort"
    empty.mkdir()
    code = climod.main(["dsp", "--cohort", str(empty),
                        "--out", str(tmp_path / "s")])
    assert code == climod.EXIT_DATA
    assert "sessions" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, key", [
    ({"tokenizer": {"steps": "abc"}}, "tokenizer.steps"),
    ({"cohort": {"n_patients": [3]}}, "cohort.n_patients"),
    ({"mim": {"d_model": 64.9}}, "mim.d_model"),
    ({"mim": {"dropout": True}}, "mim.dropout"),
    ({"tokenizer": {"level_channels": 16}}, "tokenizer.level_channels"),
    ({"tokenizer": {"level_channels": ["a", 2, 3, 4, 5]}},
     "tokenizer.level_channels"),
    ({"tokenizer": {"level_strides": [[2, 2.5]]}}, "tokenizer.level_strides"),
])
def test_config_value_of_wrong_type_exits_2(tmp_path, capsys, overrides, key):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(overrides))
    assert climod.main(["--config", str(bad), "gen-cohort",
                        "--out", str(tmp_path / "c")]) == climod.EXIT_CONFIG
    assert key in capsys.readouterr().err


def test_config_int_stands_for_float_and_lists_keep_their_items():
    profile = cfgmod.apply_overrides(cfgmod.get_profile("desk"), {
        "mim": {"dropout": 0},
        "tokenizer": {"level_strides": [[2, 2], [1, 1]]}})
    assert profile.mim.dropout == 0.0 and type(profile.mim.dropout) is float
    assert profile.tokenizer.level_strides == [[2, 2], [1, 1]]


def test_config_file_not_a_json_object_exits_2(tmp_path, capsys):
    for i, text in enumerate(["[1, 2]", "{not json"]):
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(text)
        assert climod.main(["--config", str(bad), "gen-cohort",
                            "--out", str(tmp_path / "c")]) == climod.EXIT_CONFIG
        assert str(bad) in capsys.readouterr().err


def test_removed_config_keys_are_refused():
    """Stage II's width is mim.d_model, the tokenizer's Adam betas are fixed,
    the DSP takes its rate from each session, u never pools the proxy, the
    codebook is always seeded from data, the Stage I patch is the
    tokenizer's stride, the channel count is the montage's, the EHR
    tables follow the vocabulary, every block's MLP width is
    ``mim.MLP_RATIO`` times d, and the tokenizer has no adversarial term
    (tokenizer.disc_channels, tokenizer.adv_weight_clamp,
    tokenizer.adv_start_step): these keys are gone, and setting one is a
    config error."""
    for path in ("align.d_model", "align.proj_dim", "tokenizer.beta1",
                 "tokenizer.beta2", "dsp.sample_rate", "dsp.freq_res_hz",
                 "mim.pool_includes_proxy", "tokenizer.codebook_data_init",
                 "mim.patch_h", "mim.patch_w", "cohort.n_channels",
                 "align.ehr.n_dx", "align.ehr.n_med", "mim.mlp_ratio",
                 "tokenizer.disc_channels", "tokenizer.adv_weight_clamp",
                 "tokenizer.adv_start_step"):
        *sections, key = path.split(".")
        overrides = {key: 1}
        for section in reversed(sections):
            overrides = {section: overrides}
        with pytest.raises(cfgmod.ConfigError, match=path):
            cfgmod.apply_overrides(cfgmod.get_profile("desk"), overrides)
    # a profile is named by --profile alone: a config cannot relabel it
    with pytest.raises(cfgmod.ConfigError, match="name"):
        cfgmod.apply_overrides(cfgmod.get_profile("desk"), {"name": "x"})


def test_profile_has_88_settable_leaves():
    """Every leaf of every section, less ``name``, which is refused."""
    def leaves(obj):
        return sum(leaves(value) if dataclasses.is_dataclass(value) else 1
                   for value in (getattr(obj, f.name)
                                 for f in dataclasses.fields(obj)))
    assert leaves(cfgmod.get_profile("desk")) - 1 == 88


def test_profiles_hold_their_settings_after_dropping_restated_defaults():
    """``_paper`` states only what differs from the dataclass defaults.
    Each profile's ``content_hash`` (of its ``dataclasses.asdict``) is the
    one it had when ``_paper`` still restated ``dsp``, the tokenizer's loss
    weights and curriculum and both EMA decays, less ``mim.mlp_ratio``."""
    assert {name: cfgmod.get_profile(name).content_hash()
            for name in cfgmod.PROFILE_NAMES} == {
        "desk": "41164acf9b7fa4db", "paper-small": "15d1ffecdcd0f255",
        "paper-base": "d6bc68c8e69edfec", "paper-large": "dfa4ddc9826b8ee1"}


def test_missing_input_path_named_in_message(tmp_path, capsys):
    code = climod.main(["report", "--results", str(tmp_path / "nope.json")])
    assert code == climod.EXIT_CONFIG  # click validates the path itself
    assert "nope.json" in capsys.readouterr().err


def test_manifest_reproducibility(tmp_path):
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps({"cohort": {"n_patients": 4}}))
    outs = []
    for name in ("a", "b"):
        argv = ["--config", str(config), "--seed", "5",
                "gen-cohort", "--out", str(tmp_path / name)]
        assert climod.main(argv) == 0
        outs.append(json.loads((tmp_path / name / "manifest.json").read_text()))
    assert outs[0]["output_ids"] == outs[1]["output_ids"]
    assert (tmp_path / "a" / "records.json").read_bytes() == \
        (tmp_path / "b" / "records.json").read_bytes()


def test_stage_seeds_distinct_and_deterministic():
    seeds = {stage: climod.stage_seed(7, stage)
             for stage in climod._STAGE_COUNTERS}
    assert len(set(seeds.values())) == len(seeds)
    assert seeds == {stage: climod.stage_seed(7, stage)
                     for stage in climod._STAGE_COUNTERS}
    assert climod.stage_seed(8, "mim") != seeds["mim"]


def test_env_variables_leave_profile_unchanged(monkeypatch, tmp_path):
    """``--config`` is the one override channel: CLEF_* variables are
    ignored, known keys and unknown ones alike."""
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"mim": {"steps": 5}}))
    before = cfgmod.load_profile("desk", str(config)).content_hash()
    monkeypatch.setenv("CLEF_TOKENIZER__STEPS", "17")
    monkeypatch.setenv("CLEF_TOKENIZER__NOT_A_KNOB", "1")
    assert cfgmod.load_profile("desk").tokenizer.steps == 200
    assert cfgmod.load_profile("desk", str(config)).content_hash() == before


# every hyperparameter cited by other modules must resolve through Profile
_SCHEMA_PATHS = [
    "dsp.band_lo_hz", "dsp.band_hi_hz", "dsp.notch_base_hz",
    "dsp.notch_q", "dsp.window", "dsp.stride", "dsp.nw", "dsp.eigen_threshold",
    "dsp.band_top_hz", "dsp.db_lo", "dsp.db_hi",
    "dsp.power_floor",
    "cohort.n_patients", "cohort.channel_names", "cohort.duration_s",
    "cohort.report_fraction", "cohort.session_day_range",
    "tokenizer.codebook_size", "tokenizer.latent_dim",
    "tokenizer.level_channels", "tokenizer.level_strides",
    "tokenizer.lambda_code", "tokenizer.lambda_commit", "tokenizer.gamma_diff",
    "tokenizer.p_psg", "tokenizer.p_drop",
    "tokenizer.ramp_steps", "tokenizer.dead_code_steps", "tokenizer.lr",
    "tokenizer.batch_size", "tokenizer.steps",
    "mim.depth", "mim.d_model", "mim.n_heads", "mim.dec_depth",
    "mim.mask_mu", "mim.mask_sigma",
    "mim.mask_lo", "mim.mask_hi", "mim.r_drop", "mim.label_smoothing",
    "mim.lr", "mim.weight_decay",
    "mim.warmup_steps", "mim.ema_decay",
    "align.text_max_len", "align.refiner_depth", "align.tau", "align.r_drop",
    "align.lr", "align.ema_decay", "align.ehr.dx_slots", "align.ehr.med_slots",
    "bench.controls_per_case", "bench.min_positives", "bench.split_val",
    "bench.split_test", "bench.probe_hidden",
    "bench.probe_epochs", "bench.probe_lr", "bench.probe_weight_decay",
    "bench.n_seeds", "bench.chronicity_window_days",
    "bench.med_completion_window_days",
]


@pytest.mark.parametrize("path", _SCHEMA_PATHS)
def test_config_schema_completeness(path):
    obj = cfgmod.get_profile("desk")
    for part in path.split("."):
        assert dataclasses.is_dataclass(obj) and part in {
            f.name for f in dataclasses.fields(obj)}, path
        obj = getattr(obj, part)
    assert obj is not None


def test_profiles_all_buildable():
    """Every profile passes ``config.check``; its geometry, walked through
    the tokenizer's conv arithmetic (kernel 3, padding 1) without allocating
    a weight, and its code vocabularies: 20/20 at desk, the paper's 178/205
    at full scale."""
    for name in cfgmod.PROFILE_NAMES:
        profile = cfgmod.check(cfgmod.get_profile(name))
        assert profile.content_hash()
        phenotypes = cohortgen.default_phenotypes(profile.cohort.channel_names)
        dx, med = cohortgen.vocabularies(profile.cohort, phenotypes)
        assert (len(dx), len(med)) == ((20, 20) if name == "desk"
                                       else (178, 205)), name
        gh, gw = profile.grid_shape
        assert gh > 0 and gw > 0
        rate = profile.cohort.sample_rate
        spectrogram = (profile.dsp.n_freq_bins(rate), profile.dsp.n_frames(
            int(profile.cohort.duration_s * rate)))
        h, w = spectrogram
        for sf, st in profile.tokenizer.level_strides:    # encoder
            h, w = (h + 2 - 3) // sf + 1, (w + 2 - 3) // st + 1
        assert (h, w) == (gh, gw), name
        for sf, st in reversed(profile.tokenizer.level_strides):  # decoder
            h, w = (h - 1) * sf + 1 + (sf - 1), (w - 1) * st + 1 + (st - 1)
        assert (h, w) == spectrogram, name
        c, (ph, pw) = profile.cohort.n_channels, profile.patch_shape
        values = np.zeros((c,) + spectrogram, dtype=np.uint8)
        assert mim.extract_patches(values, ph, pw).shape == \
            (gh * gw, c * ph * pw), name
