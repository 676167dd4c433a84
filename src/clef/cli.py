"""Unified command-line front end.

Each command validates its configuration, runs one pipeline stage inside
``_stage`` and streams progress metrics as delimited text.  ``_stage`` hashes
the stage's inputs before the stage runs and writes the run manifest next to
its outputs only after the stage has returned, so a stage that fails writes
no manifest.  All randomness flows from one root seed, split per stage
through a counter-based scheme.  Exit codes: 0 success, 2 config error,
3 data error, 4 numeric failure.  Every run quantity comes from the profile
and so counts in ``profile_hash``: a trainer's ``--steps N`` is shorthand for
``--config {"<stage>": {"steps": N}}``; below 1 is a config error either
way.  ``name`` is refused, so ``Profile`` has 88 settable leaves; sizes the
data fixes (channel count, EHR vocabularies) are not keys.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import click
import numpy as np

from . import align, bench, cohortgen, dsp, grad, mim, summarize, vqtok
from .config import (ConfigError, PROFILE_NAMES, PSG_CHANNELS, Profile,
                     apply_overrides, check, load_profile)
from .errors import DataError, NumericError, parsing, short_id, write_json
from .parallel import map_ordered

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_STAGE_COUNTERS = {"cohort": 0, "tokenizer": 1, "tokenize": 2, "mim": 3,
                   "align": 4, "select": 5, "probe": 6}


def stage_seed(root_seed: int, stage: str) -> int:
    counter = _STAGE_COUNTERS[stage]
    return int(np.random.SeedSequence([root_seed, counter]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# manifests


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return short_id(h)


def _hash_input(path: Path) -> str:
    if path.is_dir():
        h = hashlib.sha256()
        files = sorted(p for p in path.rglob("*") if p.is_file())
        for sub, digest in zip(files, list(map_ordered(_sha256_file, files))):
            h.update(str(sub.relative_to(path)).encode())
            h.update(digest.encode())
        return short_id(h)
    return _sha256_file(path)


@dataclass
class RunManifest:
    command: str
    profile: str
    profile_hash: str
    root_seed: int
    stage_seeds: dict[str, int]
    input_hashes: dict[str, str] = field(default_factory=dict)
    output_ids: dict[str, str] = field(default_factory=dict)


def write_manifest(out: Path, manifest: RunManifest) -> None:
    """Outputs are hashed at write time so a manifest fully identifies a
    run; a declared output that does not exist is a ``DataError``."""
    for rel in manifest.output_ids:
        target = out / rel if out.is_dir() else out.parent / rel
        if not target.exists():
            raise DataError(f"{target}: the stage did not write this output")
        manifest.output_ids[rel] = _hash_input(target)
    path = out / "manifest.json" if out.is_dir() else \
        out.parent / (out.name + ".manifest.json")
    write_json(path, dataclasses.asdict(manifest))


@contextmanager
def _stage(stage: str, inputs: dict[str, Path], out: Path,
           outputs: list[str] | None = None):
    """Run the current command as ``stage``: hash ``inputs`` (each must
    exist), create ``out``'s parent and yield the profile and the stage
    seed; once the body has returned, write the manifest naming ``outputs``
    (default: ``out`` itself).  A body that raises leaves no manifest."""
    ctx = click.get_current_context()
    profile: Profile = ctx.obj["profile"]
    root = ctx.obj["seed"]
    for name, path in inputs.items():
        if not path.exists():
            raise DataError(f"missing input {name}: {path}")
    seed = stage_seed(root, stage)
    manifest = RunManifest(
        command=ctx.info_name, profile=profile.name,
        profile_hash=profile.content_hash(), root_seed=root,
        stage_seeds={stage: seed},
        input_hashes={n: _hash_input(p) for n, p in inputs.items()})
    out.parent.mkdir(parents=True, exist_ok=True)
    yield profile, seed
    manifest.output_ids = dict.fromkeys(outputs or [out.name], "")
    write_manifest(out, manifest)


def _fresh(directory: Path, *patterns: str) -> None:
    """Make ``directory`` and delete the files ``patterns`` match there: a
    directory stage replaces an earlier run's set, and its index and
    manifest stay out until the new set is complete."""
    directory.mkdir(parents=True, exist_ok=True)
    for pattern in patterns:
        for path in directory.glob(pattern):
            path.unlink()


# ---------------------------------------------------------------------------
# shared loaders


def _require_manifest(out: Path, stage: str) -> None:
    # gen-cohort, dsp and tokenize write their manifest last: without one,
    # the directory holds a partial set
    if not (out / "manifest.json").exists():
        raise DataError(f"{out}: no manifest.json, {stage} did not finish")


def _load_spectrograms(profile: Profile, spec_dir: Path
                       ) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Ids, values (S, C, H, W) and availability (S, C) of every ``.spc``
    by name; a shape not the profile's is refused."""
    session_ids = [p.stem for p in sorted(spec_dir.glob("*.spc"))]
    specs = _read_spectrograms(profile, spec_dir, session_ids)
    values = np.empty((len(session_ids),) + _spec_shape(profile), np.float32)
    avail = np.empty(values.shape[:2], bool)
    for i, spec in enumerate(specs):
        values[i] = spec.values
        avail[i] = spec.channel_available
    return session_ids, values, avail


def _spec_shape(profile: Profile) -> tuple[int, int, int]:
    (gh, gw), (ph, pw) = profile.grid_shape, profile.patch_shape
    return profile.cohort.n_channels, gh * ph, gw * pw


def _read_spectrograms(profile: Profile, spec_dir: Path,
                       session_ids: list[str]):
    """An iterator over ``session_ids``' spectrograms, each read when it is
    reached; a shape not the profile's is refused."""
    _require_manifest(spec_dir, "dsp")
    if not session_ids:
        raise DataError(f"no .spc files in {spec_dir}")
    shape = _spec_shape(profile)

    def read(sid):
        path = spec_dir / f"{sid}.spc"
        spec = dsp.read_spectrogram(path)
        if spec.values.shape != shape:
            raise DataError(f"{path}: spectrogram shape {spec.values.shape}, "
                            f"the profile's is {shape}")
        return spec
    return map(read, session_ids)


def _load_sessions(profile: Profile, tok_dir: Path, spec_dir: Path,
                   session_ids: list[str] | None = None,
                   ) -> tuple[np.ndarray, np.ndarray, int]:
    """Token ids (S, N), spectrogram patches (S, N, P) and the codebook size
    for ``session_ids`` (default: the token index order), each row read by
    session id; a token grid other than ``profile.grid_shape`` is refused."""
    _require_manifest(tok_dir, "tokenize")
    index_path = tok_dir / "tokens.json"
    with parsing(index_path) as fh:
        index = json.load(fh)
        indexed, k = set(index["sessions"]), int(index["codebook_size"])
    if not indexed or {p.stem for p in spec_dir.glob("*.spc")} != indexed:
        raise DataError(f"{spec_dir} and {index_path} list different sessions "
                        "or none")
    if session_ids is None:
        session_ids = index["sessions"]
    unknown = [sid for sid in session_ids if sid not in indexed]
    if unknown:
        raise DataError(f"sessions missing from {index_path}: {unknown[:5]}")
    ids = []
    for sid in session_ids:
        path = tok_dir / f"{sid}.tok"
        grid, file_k, file_sid = vqtok.read_tokens(path)
        if (file_sid, grid.shape, file_k) != (sid, profile.grid_shape, k):
            raise DataError(f"{path}: holds {file_sid} on a {grid.shape} grid "
                            f"of a {file_k}-entry codebook, not {sid} on "
                            f"{profile.grid_shape} of {k} ({index_path})")
        ids.append(grid.reshape(-1))
    # patched one session at a time, so no stack of whole spectrograms
    # is alive beside the patches
    specs = _read_spectrograms(profile, spec_dir, session_ids)
    (gh, gw), (ph, pw) = profile.grid_shape, profile.patch_shape
    patches = np.empty((len(session_ids), gh * gw,
                        profile.cohort.n_channels * ph * pw), np.float32)
    for i, spec in enumerate(specs):
        patches[i] = mim.extract_patches(spec.values, ph, pw)
    return np.stack(ids), patches, k


def _load_checkpoint(path: Path, kinds: tuple[str, ...], what: str) -> dict:
    ckpt = grad.load_checkpoint(path)
    kind = ckpt["meta"].get("kind")
    if kind not in kinds:
        raise DataError(f"{path}: {kind} checkpoint holds no {what}")
    return ckpt


def _cohort_encoder(profile: Profile, cohort_dir: Path, tok_dir: Path,
                    spec_dir: Path, ckpt: dict):
    """The cohort's records, their token ids and patches in record order,
    and the session encoder holding ``ckpt``'s EMA weights, or else its live
    ones."""
    _require_manifest(cohort_dir, "gen-cohort")
    records = cohortgen.read_records(cohort_dir / "records.json")
    ids, patches, codebook_size = _load_sessions(
        profile, tok_dir, spec_dir, [r.session_id for r in records])
    encoder = mim.SessionEncoder(codebook_size, patches.shape[2],
                                 profile.grid_shape, profile.mim,
                                 np.random.default_rng(0))
    mim.load_encoder(encoder, ckpt["params"] if ckpt["ema"] is None
                     else ckpt["ema"])
    return records, ids, patches, encoder


def _codebook_sha(entries: np.ndarray) -> str:
    return short_id(hashlib.sha256(
        np.ascontiguousarray(entries, dtype="<f4").tobytes()))


def _echo_steps(history: list[dict[str, float]]) -> None:
    """About 20 progress lines over a trainer's per-step rows: step 1, every
    ``max(1, n // 20)``-th of the ``n`` steps and step ``n``, each followed
    by the row's names and values."""
    n, every = len(history), max(1, len(history) // 20)
    for step, row in enumerate(history, 1):
        if step == 1 or step % every == 0 or step == n:
            click.echo("\t".join([f"step\t{step}"] + [
                f"{name}\t{value:.5f}" for name, value in row.items()]))


# ---------------------------------------------------------------------------
# command group

_IN_DIR = click.Path(exists=True, file_okay=False, path_type=Path)
_IN_FILE = click.Path(exists=True, dir_okay=False, path_type=Path)
_cohort = click.option("--cohort", "cohort_dir", required=True, type=_IN_DIR)
_tokens = click.option("--tokens", "tok_dir", required=True, type=_IN_DIR)
_spectrograms = click.option("--spectrograms", "spec_dir", required=True,
                             type=_IN_DIR)
_out_dir = click.option("--out", required=True,
                        type=click.Path(file_okay=False, path_type=Path))
_out_file = click.option("--out", required=True,
                         type=click.Path(dir_okay=False, path_type=Path))


def _set_steps(ctx, _param, steps: int | None) -> None:
    # train-<stage> writes <stage>.steps, before _stage hashes the profile
    if steps is not None:
        check(apply_overrides(ctx.obj["profile"], {
            ctx.info_name.removeprefix("train-"): {"steps": steps}}))


_steps = click.option(
    "--steps", type=int, expose_value=False, callback=_set_steps,
    help='Shorthand for --config {"<stage>": {"steps": N}}; recorded in the '
         "manifest's profile_hash.")


@click.group()
@click.option("--profile", "profile_name", default="desk",
              type=click.Choice(PROFILE_NAMES), show_default=True)
@click.option("--config", "config_path", default=None, type=_IN_FILE,
              help="JSON override file applied on top of the profile.")
@click.option("--seed", default=0, show_default=True,
              help="Root seed; every stage derives its own seed from it.")
@click.pass_context
def cli(ctx, profile_name, config_path, seed):
    ctx.ensure_object(dict)
    ctx.obj["profile"] = load_profile(profile_name, config_path)
    ctx.obj["seed"] = int(seed)


@cli.command("gen-cohort")
@_out_dir
def gen_cohort(out):
    """Synthesize patient records, reports, and raw EEG sessions."""
    with _stage("cohort", {}, out,
                ["records.json", "sessions", "days.json"]) as (profile, seed):
        _fresh(out, "manifest.json")
        _fresh(out / "sessions", "*.raw")
        records, phenotypes = cohortgen.generate_records(profile.cohort, seed)
        cohortgen.write_records(out / "records.json", records)
        for i, session in enumerate(cohortgen.iter_sessions(
                profile.cohort, seed, records, phenotypes)):
            cohortgen.write_session(
                out / "sessions" / f"{session.session_id}.raw", session)
            if (i + 1) % 50 == 0 or i + 1 == len(records):
                click.echo(f"sessions\t{i + 1}/{len(records)}")
        write_json(out / "days.json", {"session_days": cohortgen.session_days(
            profile.cohort, seed, records)})


@cli.command("dsp")
@_cohort
@_out_dir
def dsp_cmd(cohort_dir, out):
    """Filter raw sessions and cache multitaper spectrograms."""
    with _stage("cohort", {"sessions": cohort_dir / "sessions"}, out,
                ["."]) as (profile, _):
        _require_manifest(cohort_dir, "gen-cohort")
        _fresh(out, "manifest.json", "*.spc")
        tapers = dsp.compute_dpss(profile.dsp.window, profile.dsp.nw,
                                  profile.dsp.k_max, profile.dsp.eigen_threshold)
        bank = dsp.FilterBank(profile.dsp)
        paths = sorted((cohort_dir / "sessions").glob("*.raw"))
        if not paths:
            raise DataError(f"no .raw sessions in {cohort_dir / 'sessions'}")

        def spectrogram(path: Path) -> dsp.Spectrogram:
            session = cohortgen.read_session(path)
            return dsp.session_spectrogram(session, profile.dsp, tapers, bank)

        for i, (spec, path) in enumerate(zip(map_ordered(spectrogram, paths),
                                             paths)):
            dsp.write_spectrogram(out / f"{path.stem}.spc", spec)
            if (i + 1) % 50 == 0 or i + 1 == len(paths):
                click.echo(f"spectrograms\t{i + 1}/{len(paths)}")


@cli.command("train-tokenizer")
@_spectrograms
@_out_file
@_steps
def train_tokenizer_cmd(spec_dir, out):
    """Train the VQ tokenizer on cached spectrograms."""
    with _stage("tokenizer", {"spectrograms": spec_dir}, out) as (profile, seed):
        _, values, avail = _load_spectrograms(profile, spec_dir)
        psg = tuple(i for i, name in enumerate(profile.cohort.channel_names)
                    if name in set(PSG_CHANNELS))
        trainer, history = vqtok.train_tokenizer(
            values, avail, profile.tokenizer, psg, seed)
        _echo_steps(history)
        tokenizer = trainer.tokenizer
        grad.save_checkpoint(out, tokenizer.named_parameters(), meta={
            "kind": "tokenizer",
            "profile_hash": profile.content_hash(),
            "codebook_sha": _codebook_sha(tokenizer.codebook.entries.data),
            "n_channels": tokenizer.n_channels})


@cli.command("tokenize")
@_spectrograms
@click.option("--ckpt", "ckpt_path", required=True, type=_IN_FILE)
@_out_dir
def tokenize_cmd(spec_dir, ckpt_path, out):
    """Convert spectrograms to token caches using a tokenizer checkpoint."""
    with _stage("tokenize", {"spectrograms": spec_dir, "ckpt": ckpt_path},
                out, ["."]) as (profile, _):
        ckpt = _load_checkpoint(ckpt_path, ("tokenizer",), "tokenizer")
        tokenizer = vqtok.Tokenizer(profile.cohort.n_channels, profile.tokenizer,
                                    np.random.default_rng(0))
        grad.assign_parameters(tokenizer.named_parameters(), ckpt["params"])
        tokenizer.freeze()
        sha = _codebook_sha(tokenizer.codebook.entries.data)
        if sha != ckpt["meta"].get("codebook_sha"):
            raise DataError(f"{ckpt_path}: codebook hash mismatch "
                            f"({sha} != {ckpt['meta'].get('codebook_sha')})")
        index_path = out / "tokens.json"
        if index_path.exists():
            with parsing(index_path) as fh:
                existing = json.load(fh)["codebook_sha"]
            if existing != sha:
                raise DataError(f"{out}: existing token cache was produced by "
                                f"codebook {existing}, checkpoint has {sha}")
        sids, values, avail = _load_spectrograms(profile, spec_dir)
        _fresh(out, "tokens.json", "manifest.json", "*.tok")
        try:
            indices = vqtok.tokenize_sessions(tokenizer, values, avail)
        except NumericError as exc:
            raise NumericError(f"{ckpt_path}: {exc}") from None
        for sid, grid in zip(sids, indices):
            vqtok.write_tokens(out / f"{sid}.tok", grid,
                               profile.tokenizer.codebook_size, sid)
        write_json(index_path, {
            "codebook_sha": sha,
            "codebook_size": profile.tokenizer.codebook_size,
            "sessions": sids})
        click.echo(f"tokenized\t{len(sids)}")


@cli.command("train-mim")
@_tokens
@_spectrograms
@_out_file
@_steps
def train_mim_cmd(tok_dir, spec_dir, out):
    """Stage I: masked token modeling over the session token grids."""
    with _stage("mim", {"tokens": tok_dir, "spectrograms": spec_dir},
                out) as (profile, seed):
        ids, patches, codebook_size = _load_sessions(profile, tok_dir, spec_dir)
        result = mim.stage1_train(ids, patches, codebook_size,
                                  profile.grid_shape, profile.mim, seed)
        _echo_steps(result.history)
        grad.save_checkpoint(out, result.model.named_parameters(),
                             ema=result.ema,
                             meta={"kind": "mim",
                                   "codebook_size": codebook_size,
                                   "profile_hash": profile.content_hash()})


@cli.command("train-align")
@_cohort
@_tokens
@_spectrograms
@click.option("--init", "init_path", default=None, type=_IN_FILE,
              help="Stage I checkpoint (required: stages train sequentially).")
@_out_file
@_steps
def train_align_cmd(cohort_dir, tok_dir, spec_dir, init_path, out):
    """Stage II: contrastive report/EHR alignment on top of Stage I."""
    if init_path is None:
        raise ConfigError("train-align requires --init with a Stage I "
                          "checkpoint; the stages train sequentially")
    with _stage("align", {"records": cohort_dir / "records.json",
                          "tokens": tok_dir, "spectrograms": spec_dir,
                          "init": init_path}, out) as (profile, seed):
        ckpt = _load_checkpoint(init_path, ("mim",), "Stage I model")
        records, ids, patches, encoder = _cohort_encoder(
            profile, cohort_dir, tok_dir, spec_dir, ckpt)
        phenotypes = cohortgen.default_phenotypes(profile.cohort.channel_names)
        vocab = cohortgen.vocabularies(profile.cohort, phenotypes)
        rows = align.align_rows(records, ids, patches, vocab, profile.align.ehr)
        result = align.stage2_train(encoder, align.HashedNgramProvider(),
                                    rows, vocab, profile.align, seed)
        _echo_steps(result.history)
        grad.save_checkpoint(
            out, result.align_model.named_parameters(), ema=result.ema,
            meta={"kind": "align",
                  "codebook_size": encoder.token_table.shape[0],
                  "profile_hash": profile.content_hash()})


# select-prompt scores every candidate on the cohort's first 20 reports
_PROMPT_REPORTS = 20
_CANDIDATES = [summarize.Candidate(pid, prompt, n)
               for pid, prompt in (("verbatim", "repeat the report"),
                                   ("findings", "summarize the findings"))
               for n in (128, 256, 512)]


@cli.command("select-prompt")
@_cohort
@click.option("--questions", "questions_path", default=None, type=_IN_FILE)
@_out_file
def select_prompt_cmd(cohort_dir, questions_path, out):
    """Score summarization candidates by QA consistency and pick one."""
    inputs = {"records": cohort_dir / "records.json"}
    if questions_path:
        inputs["questions"] = questions_path
    with _stage("select", inputs, out) as (profile, _):
        _require_manifest(cohort_dir, "gen-cohort")
        records = cohortgen.read_records(cohort_dir / "records.json")
        reports = [r.report for r in records if r.report][:_PROMPT_REPORTS]
        if not reports:
            raise DataError("cohort contains no reports to summarize")
        phenotypes = cohortgen.default_phenotypes(profile.cohort.channel_names)
        questions = summarize.read_questions(questions_path) if questions_path \
            else summarize.default_questions(phenotypes)
        client = summarize.MockLlmClient()
        scores = [summarize.qa_consistency(reports, questions, c, client)
                  for c in _CANDIDATES]
        for s in scores:
            click.echo(f"candidate\t{s.candidate.prompt_id}"
                       f"\t{s.candidate.max_tokens}\t{s.score:.4f}")
        picked = summarize.select_candidate(scores)
        write_json(out, {
            "selected": dataclasses.asdict(picked),
            "scores": [{"prompt_id": s.candidate.prompt_id,
                        "max_tokens": s.candidate.max_tokens,
                        "score": s.score, "failures": s.failures}
                       for s in scores]})


@cli.command("probe")
@_cohort
@_tokens
@_spectrograms
@click.option("--ckpt", "ckpt_path", required=True, type=_IN_FILE,
              help="Stage I or Stage II checkpoint supplying the encoder.")
@_out_file
def probe_cmd(cohort_dir, tok_dir, spec_dir, ckpt_path, out):
    """Frozen-embedding case-control probing over the planted task set."""
    with _stage("probe", {"records": cohort_dir / "records.json",
                          "days": cohort_dir / "days.json",
                          "tokens": tok_dir, "spectrograms": spec_dir,
                          "ckpt": ckpt_path}, out) as (profile, seed):
        days_path = cohort_dir / "days.json"
        with parsing(days_path) as fh:
            session_days = dict(json.load(fh)["session_days"])
        ckpt = _load_checkpoint(ckpt_path, ("mim", "align"), "encoder")
        records, ids, patches, encoder = _cohort_encoder(
            profile, cohort_dir, tok_dir, spec_dir, ckpt)
        encoder.freeze()
        for r in records:
            if type(session_days.get(r.patient_id)) is not int:
                raise DataError(f"{days_path}: no integer session day for "
                                f"patient {r.patient_id}")
        u = np.concatenate([
            mim.session_embedding(encoder, ids[i:i + 32], patches[i:i + 32])
            for i in range(0, len(records), 32)])
        if not np.isfinite(u).all():  # no probe could pick a best epoch
            raise NumericError(f"{ckpt_path}: non-finite session embeddings")
        tasks = bench.default_tasks(
            cohortgen.default_phenotypes(profile.cohort.channel_names),
            profile.bench)
        results = bench.benchmark_run(
            tasks, records, session_days,
            {r.patient_id: vec for r, vec in zip(records, u)},
            profile.bench, seed)
        write_json(out, [dataclasses.asdict(r) for r in results])
        for r in results:
            status = r.skipped or f"auroc\t{r.auroc_mean:.4f}\t{r.auroc_sd:.4f}"
            click.echo(f"task\t{r.task_id}\t{status}")


def _task_result(row: dict) -> bench.TaskResult:
    """One ``results.json`` row; a field of the wrong type is a TypeError."""
    r = bench.TaskResult(**row)
    numbers = (r.n_rows, r.n_pos_test, r.auroc_mean, r.auroc_sd,
               r.bacc_mean, r.bacc_sd)
    if any(type(v) not in (int, float) for v in numbers) or \
            any(type(v) is not str for v in (r.task_id, r.axis, r.skipped)):
        raise TypeError(f"task {r.task_id!r}: a field has the wrong type")
    return r


@cli.command("report")
@click.option("--results", "results_path", required=True, type=_IN_FILE)
def report_cmd(results_path):
    """Per-axis aggregate table (mean +/- sd) for a finished probe run."""
    with parsing(results_path) as fh:
        results = [_task_result(r) for r in json.load(fh)]
    click.echo("task\taxis\tn_rows\tauroc_mean\tauroc_sd\tbacc_mean\tbacc_sd")
    for r in results:
        if r.skipped:
            click.echo(f"{r.task_id}\t{r.axis}\t{r.n_rows}\tskipped: "
                       f"{r.skipped}")
        else:
            click.echo(f"{r.task_id}\t{r.axis}\t{r.n_rows}"
                       f"\t{r.auroc_mean:.4f}\t{r.auroc_sd:.4f}"
                       f"\t{r.bacc_mean:.4f}\t{r.bacc_sd:.4f}")
    click.echo("axis\tauroc_mean\tauroc_sd\tn_tasks")
    for axis, (mean, sd, n) in bench.aggregate_by_axis(results).items():
        click.echo(f"{axis}\t{mean:.4f}\t{sd:.4f}\t{n}")


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.ClickException as exc:
        exc.show()
        return EXIT_CONFIG
    except click.Abort:
        return EXIT_CONFIG
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        return EXIT_CONFIG
    except (DataError, FileNotFoundError) as exc:
        click.echo(f"data error: {exc}", err=True)
        return EXIT_DATA
    except (NumericError, FloatingPointError) as exc:
        click.echo(f"numeric error: {exc}", err=True)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
