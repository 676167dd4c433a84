"""Acceptance gate: one pass/fail line per criterion, printed unconditionally.

Each test re-derives its expected values from independent oracles (central
finite differences, brute-force nearest neighbor, quadrature, pair-counting
AUROC, hand-computed loss identities) and then exercises the real pipeline
at desk scale with fixed seeds.  Thresholds are frozen; a red test here means
the property is not met, not that the test needs loosening.
"""

import dataclasses
import sys
import time

import numpy as np
import pytest
from scipy import integrate

from clef import align, bench, cohortgen, dsp, grad, mim, summarize, vqtok
from clef.config import DspConfig, PSG_CHANNELS, get_profile
from fdcheck import check_gradients

P = get_profile("desk")

# phenotype planting strengths: >= 6 dB effects are visible in a spectrogram
# probe, ~2 dB effects are only reliably labeled through the health record
VISIBLE = ("delta_surge", "alpha_loss", "beta_excess")
EHR_ONLY = ("theta_shift", "focal_trace", "spindle_dropout")

Z99 = 2.576  # two-sided 99% normal quantile

VERDICTS: list[str] = []  # echoed after the run by the conftest summary hook


def _verdict(name: str, checks: dict[str, bool]) -> None:
    ok = all(checks.values())
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)
    failed = [k for k, v in checks.items() if not v]
    assert ok, f"{name}: failed checks: {failed}"


# ---------------------------------------------------------------------------
# shared desk pipeline (computed once, timed per stage)


@pytest.fixture(scope="module")
def cohort():
    t0 = time.time()
    records, phenos = cohortgen.generate_records(P.cohort, seed=0)
    days = cohortgen.session_days(P.cohort, 0, records)
    return {"records": records, "phenos": phenos, "days": days,
            "elapsed": time.time() - t0}


@pytest.fixture(scope="module")
def spectra(cohort):
    t0 = time.time()
    tapers = dsp.compute_dpss(P.dsp.window, P.dsp.nw, P.dsp.k_max,
                              P.dsp.eigen_threshold)
    vals, avail = [], []
    for sess in cohortgen.iter_sessions(P.cohort, 0, cohort["records"],
                                        cohort["phenos"]):
        gram = dsp.session_spectrogram(sess, P.dsp, tapers)
        vals.append(gram.values)
        avail.append(gram.channel_available)
    return {"values": np.stack(vals), "avail": np.stack(avail),
            "elapsed": time.time() - t0}


@pytest.fixture(scope="module")
def tokenizer_run(spectra):
    values, avail = spectra["values"], spectra["avail"]
    psg = tuple(i for i, n in enumerate(P.cohort.channel_names)
                if n in set(PSG_CHANNELS))
    ev = np.arange(0, values.shape[0], 7)[:48]  # fixed held-aside eval subset

    def eval_rec(tok):
        planes = np.stack([vqtok.encoder_planes(values[i], avail[i])
                           for i in ev])
        z = tok.encode(grad.Tensor(planes))
        grid = vqtok.quantize(z, tok.codebook)
        s_hat = tok.decode(grid.quantized)
        return float(vqtok.recon_loss(grad.Tensor(values[ev]), s_hat,
                                      P.tokenizer.gamma_diff).data)

    t0 = time.time()
    before = eval_rec(vqtok.VqTrainer(values.shape[1], P.tokenizer,
                                      psg, seed=1).tokenizer)
    trainer, history = vqtok.train_tokenizer(values, avail, P.tokenizer,
                                             psg, seed=1)
    after = eval_rec(trainer.tokenizer)
    return {"trainer": trainer, "history": history,
            "rec_before": before, "rec_after": after,
            "elapsed": time.time() - t0}


@pytest.fixture(scope="module")
def tokens(tokenizer_run, spectra):
    t0 = time.time()
    grids = vqtok.tokenize_sessions(tokenizer_run["trainer"].tokenizer,
                                    spectra["values"], spectra["avail"])
    ids = grids.reshape(grids.shape[0], -1)
    patches = np.stack([mim.extract_patches(v, *P.patch_shape)
                        for v in spectra["values"]])
    return {"ids": ids, "patches": patches, "elapsed": time.time() - t0}


@pytest.fixture(scope="module")
def stage1(tokens):
    t0 = time.time()
    res = mim.stage1_train(tokens["ids"], tokens["patches"],
                           P.tokenizer.codebook_size,
                           P.grid_shape, P.mim, seed=2)
    return {"result": res, "elapsed": time.time() - t0}


def _batched_embeddings(model, ids, patches, chunk=50):
    out = [mim.session_embedding(model, ids[s:s + chunk], patches[s:s + chunk])
           for s in range(0, ids.shape[0], chunk)]
    return np.concatenate(out)


@pytest.fixture(scope="module")
def stage2(cohort, tokens, stage1):
    records, phenos = cohort["records"], cohort["phenos"]
    ids, patches = tokens["ids"], tokens["patches"]
    dx_vocab, med_vocab = cohortgen.vocabularies(P.cohort, phenos)
    ehr_inputs = [align.ehr_input_from_record(r, dx_vocab, med_vocab)
                  for r in records]
    res1 = stage1["result"]
    # session embeddings at the exact initialization Stage II starts from
    mim.load_encoder(res1.model, res1.ema.shadow)
    emb_recon = _batched_embeddings(res1.model, ids, patches)

    t0 = time.time()
    provider = align.HashedNgramProvider()
    rows = align.AlignRows(records, ids, patches, ehr_inputs)
    res2 = align.stage2_train(res1.model, provider, rows, P.align, seed=7)
    eval_batch = rows.batch(np.arange(0, len(records), 6)[:64])
    top1 = align.retrieval_top1(res2.align_model, res1.model, eval_batch)
    emb_align = _batched_embeddings(res1.model, ids, patches)
    return {"result": res2, "top1": top1, "emb_recon": emb_recon,
            "emb_align": emb_align, "ehr_inputs": ehr_inputs,
            "elapsed": time.time() - t0}


# ---------------------------------------------------------------------------
# gradient engine


def test_gradient_finite_difference_suite():
    t0 = time.time()
    targets = np.array([1, 0, 3])
    bias = grad.Tensor(np.array([[[[0.0, 0.0, -1e9]]]]))
    mask = grad.Tensor(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]]))
    shift = 3.0  # keeps relu/abs probes away from the kink at 0
    cases = [
        (lambda ts: grad.sum_(grad.add(ts[0], ts[1])),
         [[(3,), (3,)], [(2, 4), (2, 4)], [(2, 1, 3), (2, 5, 3)]]),
        (lambda ts: grad.sum_(grad.mul(ts[0], ts[1])),
         [[(4,), (4,)], [(3, 2), (3, 2)], [(2, 3, 2), (1, 3, 2)]]),
        (lambda ts: grad.sum_(grad.div(ts[0], grad.add(grad.mul(ts[1], ts[1]), 1.0))),
         [[(3,), (3,)], [(2, 3), (2, 3)], [(4, 2), (4, 2)]]),
        (lambda ts: grad.sum_(grad.power(grad.add(grad.mul(ts[0], ts[0]), 0.5), 1.5)),
         [[(3,)], [(2, 4)], [(3, 2, 2)]]),
        (lambda ts: grad.sum_(grad.exp(grad.mul(ts[0], 0.3))),
         [[(5,)], [(2, 3)], [(4, 2)]]),
        (lambda ts: grad.sum_(grad.log(grad.add(grad.mul(ts[0], ts[0]), 1.0))),
         [[(4,)], [(3, 2)], [(2, 2, 2)]]),
        (lambda ts: grad.sum_(grad.tanh(ts[0])), [[(5,)], [(3, 3)], [(2, 4)]]),
        (lambda ts: grad.sum_(grad.gelu(ts[0])), [[(5,)], [(2, 4)], [(3, 2)]]),
        (lambda ts: grad.sum_(grad.relu(grad.add(ts[0], shift))),
         [[(5,)], [(3, 3)], [(2, 2, 3)]]),
        (lambda ts: grad.sum_(grad.abs_(grad.add(ts[0], shift))),
         [[(5,)], [(3, 3)], [(2, 2, 3)]]),
        (lambda ts: grad.sum_(grad.mean(ts[0], axis=-1)),
         [[(3, 5)], [(4,)], [(2, 3, 4)]]),
        (lambda ts: grad.sum_(grad.mul(grad.reshape(ts[0], (-1,)), 1.5)),
         [[(3, 4)], [(2, 2, 3)], [(6,)]]),
        (lambda ts: grad.sum_(grad.mul(grad.transpose(ts[0], (1, 0)), ts[1])),
         [[(3, 4), (4, 3)], [(2, 5), (5, 2)], [(4, 2), (2, 4)]]),
        (lambda ts: grad.sum_(grad.mul(grad.concat([ts[0], ts[1]], axis=0), 2.0)),
         [[(2, 3), (4, 3)], [(1, 2), (3, 2)], [(3, 4), (2, 4)]]),
        (lambda ts: grad.sum_(grad.getitem(ts[0], (slice(None), slice(1, 3)))),
         [[(3, 5)], [(2, 4)], [(4, 6)]]),
        (lambda ts: grad.sum_(grad.matmul(ts[0], ts[1])),
         [[(3, 4), (4, 2)], [(2, 3, 4), (2, 4, 2)], [(5, 2), (2, 5)]]),
        (lambda ts: grad.sum_(grad.mul(
            grad.getitem(ts[0], np.array([[0, 2], [1, 0]])), 1.3)),
         [[(3, 4)], [(4, 2)], [(5, 3)]]),
        (lambda ts: grad.sum_(grad.mul(grad.softmax(ts[0], axis=-1), ts[1])),
         [[(3, 5), (3, 5)], [(2, 4), (2, 4)], [(4, 3), (4, 3)]]),
        (lambda ts: grad.sum_(grad.mul(grad.layernorm(ts[0], ts[1], ts[2]), ts[3])),
         [[(4, 6), (6,), (6,), (4, 6)], [(2, 3), (3,), (3,), (2, 3)],
          [(3, 5), (5,), (5,), (3, 5)]]),
        (lambda ts: grad.sum_(grad.mul(
            grad.scaled_dot_attention(ts[0], ts[1], ts[2], bias), 0.7)),
         [[(2, 1, 3, 4)] * 3, [(1, 2, 3, 2)] * 3, [(2, 2, 3, 3)] * 3]),
        (lambda ts: grad.sum_(grad.mul(grad.mean_pool_masked(ts[0], mask), 1.1)),
         [[(2, 3, 4)], [(2, 3, 2)], [(2, 3, 5)]]),
        (lambda ts: grad.cross_entropy_with_label_smoothing(ts[0], targets, 0.1),
         [[(3, 4)], [(3, 5)], [(3, 6)]]),
        (lambda ts: grad.l1(grad.add(ts[0], shift), ts[1]),
         [[(3, 4), (3, 4)], [(5,), (5,)], [(2, 2, 3), (2, 2, 3)]]),
        (lambda ts: grad.l2(ts[0], ts[1]),
         [[(3, 4), (3, 4)], [(5,), (5,)], [(2, 3, 2), (2, 3, 2)]]),
        (lambda ts: grad.sum_(grad.mul(
            grad.conv2d(ts[0], ts[1], ts[2], stride=2, padding=1), 0.9)),
         [[(1, 2, 5, 5), (3, 2, 3, 3), (3,)],
          [(2, 1, 4, 6), (2, 1, 3, 3), (2,)],
          [(1, 3, 6, 4), (2, 3, 3, 3), (2,)]]),
        (lambda ts: grad.sum_(grad.mul(
            grad.transposed_conv2d(ts[0], ts[1], ts[2], stride=2, padding=1), 0.9)),
         [[(1, 3, 4, 4), (3, 2, 3, 3), (2,)],
          [(2, 2, 3, 5), (2, 2, 3, 3), (2,)],
          [(1, 2, 5, 3), (2, 3, 3, 3), (3,)]]),
    ]
    worst = 0.0
    for i, (fn, shape_sets) in enumerate(cases):
        for j, shapes in enumerate(shape_sets):
            worst = max(worst, check_gradients(fn, shapes, seed=100 * i + j))
    elapsed = time.time() - t0
    _verdict("gradient finite-difference suite",
             {"rel_err<=1e-4": worst <= 1e-4, "under_1_min": elapsed < 60.0})


# ---------------------------------------------------------------------------
# DSP front end


def test_dsp_taper_and_spectrogram_properties():
    t0 = time.time()
    cfg = DspConfig()  # 200 Hz, 4 s window, 0.625 s stride, [0, 32) Hz
    tapers = dsp.compute_dpss(800, 2.0, cfg.k_max, 0.9)
    orth = float(np.abs(tapers.tapers @ tapers.tapers.T
                        - np.eye(tapers.k)).max())

    n = int(40.0 * 200.0)
    t = np.arange(n) / 200.0
    sine = cohortgen.RawSession(
        session_id="sine", patient_id="p", duration_s=40.0, sample_rate=200.0,
        samples=(10.0 * np.sin(2 * np.pi * 8.0 * t))[None, :].astype(np.float32),
        channel_available=np.array([True]))
    gram = dsp.multitaper_spectrogram(sine, tapers, cfg)
    peak_bin = int(np.argmax(gram.values[0].mean(axis=1)))

    rng = np.random.default_rng(0)
    sigma = 5.0
    noise = cohortgen.RawSession(
        session_id="wn", patient_id="p", duration_s=160.0, sample_rate=200.0,
        samples=(sigma * rng.standard_normal(
            (1, int(160 * 200.0)))).astype(np.float32),
        channel_available=np.array([True]))
    g2 = dsp.multitaper_spectrogram(noise, tapers, cfg)
    mid = (cfg.db_hi + cfg.db_lo) / 2.0
    span = (cfg.db_hi - cfg.db_lo) / 2.0
    level = float(np.mean(10.0 ** ((g2.values[0] * span + mid) / 10.0)))
    expect = sigma ** 2 / 200.0

    frames = cfg.n_frames(int(1280.0 * 200.0))
    elapsed = time.time() - t0
    _verdict("dsp tapers and spectrogram", {
        "k==3": tapers.k == 3,
        "orthonormal_1e-8": orth <= 1e-8,
        "8hz_peak_bin_32": peak_bin == 32,
        "white_noise_psd_10pct": abs(level - expect) / expect <= 0.10,
        "1280s_gives_2048_frames": frames == 2048,
        "under_1_min": elapsed < 60.0,
    })


# ---------------------------------------------------------------------------
# loss identities


def test_loss_identities():
    rng = np.random.default_rng(4)
    s = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
    zero = float(vqtok.recon_loss(grad.Tensor(s), grad.Tensor(s.copy()),
                                  gamma_diff=4.0).data)
    # a constant offset shared by all channels leaves the differential term 0
    off_full = float(vqtok.recon_loss(grad.Tensor(s), grad.Tensor(s + 0.5),
                                      gamma_diff=4.0).data)
    off_mean = float(vqtok.recon_loss(grad.Tensor(s), grad.Tensor(s + 0.5),
                                      gamma_diff=0.0).data)
    hand = float(vqtok.recon_loss(
        grad.Tensor(np.array([[[[1.0]], [[-1.0]]]], dtype=np.float32)),
        grad.Tensor(np.zeros((1, 2, 1, 1), dtype=np.float32)),
        gamma_diff=4.0).data)

    single = align.clip_loss(grad.Tensor(rng.normal(size=(1, 8))),
                             grad.Tensor(rng.normal(size=(1, 8))), tau=0.07)
    eye = np.eye(2, dtype=np.float64)
    ortho = align.clip_loss(grad.Tensor(eye), grad.Tensor(eye.copy()), tau=1.0)
    expect_ortho = float(np.log1p(np.exp(-1.0)))

    k = 64
    uniform = float(mim.mim_loss(grad.Tensor(np.zeros((5, k))),
                                 np.array([3, 0, 63, 7, 1]), 0.1).data)
    _verdict("loss identities", {
        "recon(S,S)==0": abs(zero) <= 1e-7,
        "offset_diff_term_0": abs(off_full - off_mean) <= 1e-6,
        "C2_hand_case_4.0": abs(hand - 4.0) <= 1e-6,
        "clip_B1==0": abs(float(single.data)) <= 1e-7,
        "clip_ortho_ln(1+e^-1)": abs(float(ortho.data) - expect_ortho) <= 1e-6,
        "uniform_mim_ln_K": abs(uniform - np.log(k)) <= 1e-6,
    })


# ---------------------------------------------------------------------------
# vector quantization


def test_vq_matches_brute_force_oracle():
    rng = np.random.default_rng(11)
    ok = True
    for trial in range(100):
        k = int(rng.integers(2, 65))
        d = int(rng.integers(2, 9))
        entries = rng.normal(size=(k, d))
        if trial % 2 == 0 and k >= 4:
            entries[k // 2] = entries[0]  # exact duplicate: forced ties
        latents = rng.normal(size=(int(rng.integers(1, 40)), d))
        if trial % 2 == 0:
            latents[0] = entries[0]  # latent exactly on the tied pair
        oracle = np.empty(latents.shape[0], dtype=np.int64)
        for i, z in enumerate(latents):
            dist = np.sum((entries - z) ** 2, axis=1)
            oracle[i] = int(np.flatnonzero(dist == dist.min())[0])
        got = vqtok.nearest_indices(latents, entries)
        ok &= bool(np.array_equal(got, oracle))
    _verdict("vq nearest-neighbor oracle", {"100_instances_exact": ok})


# ---------------------------------------------------------------------------
# mask statistics


def test_mask_ratio_and_ramp_statistics():
    cfg = P.mim
    rng = np.random.default_rng(21)
    draws = np.array([mim.sample_mask_ratio(cfg.mask_mu, cfg.mask_sigma,
                                            cfg.mask_lo, cfg.mask_hi, rng)
                      for _ in range(100_000)])

    def pdf(x):
        return np.exp(-0.5 * ((x - cfg.mask_mu) / cfg.mask_sigma) ** 2)

    norm, _ = integrate.quad(pdf, cfg.mask_lo, cfg.mask_hi)
    num, _ = integrate.quad(lambda x: x * pdf(x), cfg.mask_lo, cfg.mask_hi)
    quad_mean = num / norm

    psg = (0, 2, 5)
    schedule = vqtok.MaskSchedule(0.3, 0.1, ramp_steps=200, psg_subset=psg)
    non_psg = np.setdiff1d(np.arange(8), psg)
    rng2 = np.random.default_rng(22)
    n = 5000
    restricted = 0
    kept_free, total_free = 0, 0
    for _ in range(n):
        keep = vqtok.mask_sample(schedule, 200, 8, rng2)
        if keep[non_psg].any():
            kept_free += int(keep.sum())
            total_free += 8
        else:
            restricted += 1
    p_psg_hat = restricted / n
    p_drop_hat = 1.0 - kept_free / total_free
    ci_psg = Z99 * np.sqrt(0.3 * 0.7 / n)
    ci_drop = Z99 * np.sqrt(0.1 * 0.9 / total_free)
    _verdict("mask statistics", {
        "trunc_gauss_mean_0.01": abs(draws.mean() - quad_mean) <= 0.01,
        "ramp_p_psg_99ci": abs(p_psg_hat - 0.3) <= ci_psg,
        "ramp_p_drop_99ci": abs(p_drop_hat - 0.1) <= ci_drop,
    })


# ---------------------------------------------------------------------------
# desk-scale training smokes


def test_stage1_smoke(spectra, tokenizer_run, tokens, stage1):
    drop = 1.0 - tokenizer_run["rec_after"] / tokenizer_run["rec_before"]
    acc = stage1["result"].masked_acc[-1]
    elapsed = (spectra["elapsed"] + tokenizer_run["elapsed"]
               + tokens["elapsed"] + stage1["elapsed"])
    _verdict("stage I smoke", {
        "rec_drop>=30pct": drop >= 0.30,
        "masked_acc>=5x_chance": acc >= 5.0 / P.tokenizer.codebook_size,
        "under_20_min": elapsed < 1200.0,
    })


def test_stage2_smoke(stage2):
    # the near-ln(B) identity needs a wide embedding: cosine similarities of
    # random d-dim vectors spread ~1/sqrt(d), so d=64 overshoots ln 64 badly
    paper_small = get_profile("paper-small")
    cfg512, d512 = paper_small.align, paper_small.mim.d_model
    rng = np.random.default_rng(3)
    model = align.AlignModel(cfg512, d512, rng)
    u = grad.Tensor(rng.standard_normal((64, d512)).astype(grad.DTYPE))
    ehr = [align.EhrInput(
        age_bin=int(rng.integers(0, 10)), sex_id=int(rng.integers(0, 3)),
        race_id=int(rng.integers(0, 8)),
        dx_ids=tuple(int(x) for x in rng.choice(cfg512.ehr.n_dx, 3, replace=False)),
        med_ids=tuple(int(x) for x in rng.choice(cfg512.ehr.n_med, 2, replace=False)))
        for _ in range(64)]
    loss = align.clip_loss(grad.matmul(u, model.pi_ehr),
                           model.ehr_encoder(ehr), tau=cfg512.tau)
    rel = abs(float(loss.data) - np.log(64)) / np.log(64)
    _verdict("stage II smoke", {
        "random_init_near_ln64": rel <= 0.15,
        "retrieval_top1>=5x_chance": stage2["top1"] >= 5.0 / 64.0,
        "under_20_min": stage2["elapsed"] < 1200.0,
    })


# ---------------------------------------------------------------------------
# end-to-end ordering and holdout transfer


def _disease_results(cohort, embeddings, seed=17):
    records = cohort["records"]
    tasks = [t for t in bench.default_tasks(cohort["phenos"], P.bench)
             if t.axis == "disease"]
    embs = {r.patient_id: embeddings[i] for i, r in enumerate(records)}
    results = bench.benchmark_run(tasks, records, cohort["days"],
                                  embs, P.bench, seed=seed)
    return {r.task_id: r for r in results if not r.skipped}


def test_end_to_end_probe_ordering(cohort, spectra, tokenizer_run, tokens,
                                   stage1, stage2):
    t0 = time.time()
    rn = _disease_results(cohort, stage2["emb_recon"])
    an = _disease_results(cohort, stage2["emb_align"])
    visible_mean = float(np.mean(
        [rn[t].auroc_mean for t in rn if t.split("/")[1] in VISIBLE]))
    wins = 0
    for s in range(P.bench.n_seeds):
        mr = np.mean([rn[t].per_seed_auroc[s] for t in rn
                      if t.split("/")[1] in EHR_ONLY])
        ma = np.mean([an[t].per_seed_auroc[s] for t in an
                      if t.split("/")[1] in EHR_ONLY])
        wins += int(ma > mr)
    elapsed = (cohort["elapsed"] + spectra["elapsed"] + tokenizer_run["elapsed"]
               + tokens["elapsed"] + stage1["elapsed"] + stage2["elapsed"]
               + time.time() - t0)
    _verdict("end-to-end probe ordering", {
        "recon_visible_auroc>=0.80": visible_mean >= 0.80,
        "align_beats_recon_3_of_4": wins >= 3,
        "under_45_min": elapsed < 2700.0,
    })


def test_concept_holdout_transfer(cohort, tokens, stage1, stage2):
    records, phenos = cohort["records"], cohort["phenos"]
    held = next(p for p in phenos if p.name == "spindle_dropout")
    codes = set(held.dx_codes) | set(held.med_codes)
    phrases = list(held.report_phrases)
    filtered = align.concept_holdout_filter(records, codes, phrases)

    leaks = 0
    for rec in filtered:
        leaks += len(codes & (set(rec.diagnoses) | set(rec.medications)))
        leaks += sum(e.code in codes for e in rec.diagnosis_events)
        leaks += sum(e.code in codes for e in rec.medication_events)
        if rec.report is not None:
            leaks += sum(p.lower() in rec.report.lower() for p in phrases)

    # re-align against the scrubbed record view, then probe the held-out task
    # with labels still drawn from the original records
    dx_vocab, med_vocab = cohortgen.vocabularies(P.cohort, phenos)
    ehr_inputs = [align.ehr_input_from_record(r, dx_vocab, med_vocab)
                  for r in filtered]
    res1 = stage1["result"]
    model = mim.MimModel(P.tokenizer.codebook_size,
                         tokens["patches"].shape[2], P.grid_shape, P.mim,
                         np.random.default_rng(13))
    rows = align.AlignRows(filtered, tokens["ids"], tokens["patches"],
                           ehr_inputs)
    mim.load_encoder(model, res1.ema.shadow)
    align.stage2_train(model, align.HashedNgramProvider(), rows,
                       dataclasses.replace(P.align, steps=60), seed=19)
    emb = _batched_embeddings(model, tokens["ids"], tokens["patches"])
    task = bench.TaskSpec(task_id="disease/spindle_dropout", axis="disease",
                          codes=frozenset(held.dx_codes), chronic=held.chronic)
    embs = {r.patient_id: emb[i] for i, r in enumerate(records)}
    results = bench.benchmark_run([task], records, cohort["days"],
                                  embs, P.bench, seed=23)
    finite = (not results[0].skipped
              and np.isfinite(results[0].per_seed_auroc).all())
    _verdict("concept holdout transfer", {
        "holdout_scrub_complete": leaks == 0,
        "held_out_probing_finite": bool(finite),
    })


# ---------------------------------------------------------------------------
# benchmark integrity


def test_benchmark_table_integrity(cohort):
    records, phenos = cohort["records"], cohort["phenos"]
    records_by_id = {r.patient_id: r for r in records}
    tasks = bench.default_tasks(phenos, P.bench)
    rng = np.random.default_rng(31)
    audits_ok = True
    auroc_ok = True
    checked_small = 0
    for i in range(50):
        task = tasks[int(rng.integers(0, len(tasks)))]
        split = bench.patient_split([r.patient_id for r in records], P.bench,
                                    seed=int(rng.integers(0, 10_000)))
        table = bench.build_task_table(task, records, cohort["days"],
                                       split, P.bench,
                                       seed=int(rng.integers(0, 10_000)))
        try:
            bench.audit_table(table, records_by_id, split,
                              P.bench.controls_per_case)
        except Exception:
            audits_ok = False
        labels = np.array([r.label for r in table.rows])
        if 0 < labels.sum() < labels.size:
            take = labels if labels.size <= 50 else labels[:50]
            if 0 < take.sum() < take.size:
                scores = rng.normal(size=take.size)
                auroc_ok &= abs(bench.auroc(scores, take)
                                - bench.auroc_pair_oracle(scores, take)) <= 1e-12
                checked_small += 1
    _verdict("benchmark integrity", {
        "50_table_audits": audits_ok,
        "auroc_matches_pair_oracle": auroc_ok and checked_small >= 25,
    })


# ---------------------------------------------------------------------------
# qa-consistency selection


def test_qa_consistency_properties(cohort):
    reports = [r.report for r in cohort["records"] if r.report][:5]
    questions = summarize.default_questions(cohort["phenos"])
    mock = summarize.MockLlmClient()
    identity = summarize.qa_consistency(
        reports, questions, summarize.Candidate("id", "verbatim", 10_000), mock)

    class SwapClient(summarize.MockLlmClient):
        def summarize(self, report, prompt, max_tokens):
            i = reports.index(report)
            return reports[(i + 1) % len(reports)]

    swapped = summarize.qa_consistency(
        reports, questions, summarize.Candidate("swap", "verbatim", 10_000),
        SwapClient())

    class FlipClient(summarize.LlmClient):
        def summarize(self, report, prompt, max_tokens):
            return report + " [SUMMARY]" if report == "r1" else report

        def answer(self, text, question):
            if "second" in question.text and "[SUMMARY]" in text:
                return "no"
            return "yes"

        def judge_similarity(self, a, b):
            return 1.0

    hand = summarize.qa_consistency(
        ["r1", "r2"],
        [summarize.Question("first finding?", "boolean"),
         summarize.Question("second finding?", "boolean")],
        summarize.Candidate("p", "x", 100), FlipClient())

    class RecordingClient(summarize.MockLlmClient):
        def __init__(self):
            self.summaries = []

        def summarize(self, report, prompt, max_tokens):
            out = super().summarize(report, prompt, max_tokens)
            self.summaries.append(out)
            return out

    cand = summarize.Candidate("findings", "findings only", 10_000)
    base_client = RecordingClient()
    summarize.qa_consistency(reports, questions, cand, base_client)
    canary_client = RecordingClient()
    canary = questions + [summarize.Question("CANARY: is the sky green?",
                                             "boolean")]
    summarize.qa_consistency(reports, canary, cand, canary_client)

    _verdict("qa-consistency selection", {
        "identity_score_1.0": identity.score == 1.0,
        "cross_patient_strictly_lower": swapped.score < identity.score,
        "hand_case_0.75": hand.score == 0.75,
        "canary_blind_summaries": base_client.summaries == canary_client.summaries,
    })
