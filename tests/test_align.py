"""Alignment tests: provider determinism, EHR set-encoder permutation
invariance, the symmetric contrastive loss against hand-computed values and
the row-deletion identity, Stage II wiring, and the concept-holdout scrub."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from clef import align, grad, mim
from clef.config import AlignConfig, CohortConfig, MimConfig
from clef.cohortgen import default_phenotypes, generate_records
from clef.errors import DataError


def _cfg(**kw):
    cfg = AlignConfig()
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


# ---------------------------------------------------------------------------
# text provider


def _words(n):
    return " ".join(f"w{i}" for i in range(n))


def test_provider_deterministic_and_bounded():
    """One row per word from the provider; the only cut is report_embed's
    ``max_len``."""
    p = align.HashedNgramProvider()
    f1 = p.embed("patient shows generalized slowing today")
    f2 = p.embed("patient shows generalized slowing today")
    assert np.array_equal(f1, f2)
    assert f1.shape == (5, 768)
    assert p.embed(_words(100)).shape == (100, 768)
    enc = align.ReportEncoder(_cfg(n_heads=4, refiner_depth=1,
                                   text_max_len=16),
                              32, np.random.default_rng(0))
    assert np.array_equal(
        align.report_embed([_words(100)], p, enc, 16).data,
        align.report_embed([_words(16)], p, enc, 16).data)


def test_report_embed_reads_up_to_text_max_len():
    p = align.HashedNgramProvider()
    enc = align.ReportEncoder(_cfg(n_heads=4, refiner_depth=1,
                                   text_max_len=128),
                              32, np.random.default_rng(0))
    full = align.report_embed([_words(100)], p, enc, 128).data
    head = align.report_embed([_words(64)], p, enc, 128).data
    assert not np.allclose(full, head)


def test_provider_distinguishes_phrases():
    p = align.HashedNgramProvider()
    v1 = p.embed("the record shows generalized slowing").mean(axis=0)
    v2 = p.embed("the record shows diffuse beta activity").mean(axis=0)
    cos = v1 @ v2 / (np.linalg.norm(v1) * np.linalg.norm(v2))
    assert cos < 0.999


def test_provider_empty_text():
    f = align.HashedNgramProvider().embed("")
    assert f.shape == (1, 768) and np.all(f == 0.0)


# ---------------------------------------------------------------------------
# report encoder


def test_report_embed_padding_extension_invariant():
    cfg = _cfg(n_heads=4, refiner_depth=2, text_max_len=16)
    rng = np.random.default_rng(0)
    enc = align.ReportEncoder(cfg, 32, rng)
    feats = np.zeros((1, 16, 768), dtype=np.float32)
    feats[0, :3] = rng.normal(size=(3, 768))
    mask = np.zeros((1, 16), dtype=bool)
    mask[0, :3] = True
    v1 = enc(feats, mask).data
    feats2 = feats.copy()
    feats2[0, 3:] = rng.normal(size=(13, 768))  # garbage behind padding
    v2 = enc(feats2, mask).data
    assert np.array_equal(v1, v2)


def test_report_embed_single_token_identity():
    cfg = _cfg(n_heads=4, refiner_depth=2, text_max_len=4)
    enc = align.ReportEncoder(cfg, 32, np.random.default_rng(1))
    feats = np.random.default_rng(2).normal(size=(1, 4, 768)).astype(np.float32)
    mask = np.zeros((1, 4), dtype=bool)
    mask[0, 0] = True
    v = enc(feats, mask)
    # mean pooling over one valid token is that token's refined state
    x = grad.matmul(grad.Tensor(feats), enc.w_in) + enc.b_in
    x = x + grad.reshape(enc.pos, (1, 4, -1))
    bias = mim._attention_bias(mask)
    for block in enc.blocks:
        x = block(x, bias)
    x = grad.layernorm(x, enc.ln_g, enc.ln_b)
    assert np.allclose(v.data[0], x.data[0, 0], atol=1e-6)


# ---------------------------------------------------------------------------
# EHR encoder


def _ehr_cfg():
    return _cfg(n_heads=4, refiner_depth=2)


def test_ehr_permutation_invariance():
    cfg = _ehr_cfg()
    enc = align.EhrEncoder(cfg, 32, np.random.default_rng(3))
    a = align.EhrInput(3, 0, 2, dx_ids=(5, 1, 3), med_ids=(7, 2, 9))
    b = align.EhrInput(3, 0, 2, dx_ids=(1, 3, 5), med_ids=(9, 7, 2))
    va = enc([a]).data
    vb = enc([b]).data
    assert np.array_equal(va, vb)


def test_ehr_dedup_default():
    cfg = _ehr_cfg()
    enc = align.EhrEncoder(cfg, 32, np.random.default_rng(4))
    a = align.EhrInput(3, 1, 2, dx_ids=(5, 5, 1), med_ids=(7,))
    b = align.EhrInput(3, 1, 2, dx_ids=(5, 1), med_ids=(7,))
    assert np.array_equal(enc([a]).data, enc([b]).data)


def test_ehr_truncation_keeps_lowest_ids():
    vocab = _ehr_cfg().ehr
    ids = tuple(range(vocab.dx_slots + 4))
    inp = align.EhrInput(1, 0, 0, dx_ids=ids[::-1], med_ids=())
    canon = inp.canonical(vocab)
    assert canon.dx_ids == tuple(range(vocab.dx_slots))


def test_ehr_empty_sets_demographics_only():
    cfg = _ehr_cfg()
    enc = align.EhrEncoder(cfg, 32, np.random.default_rng(5))
    inp = align.EhrInput(2, 1, 3, dx_ids=(), med_ids=())
    _, _, _, _, _, mask = enc.assemble([inp])
    assert mask.sum() == 3
    v = enc([inp]).data
    assert np.all(np.isfinite(v))


def test_ehr_validation():
    vocab = _ehr_cfg().ehr
    with pytest.raises(DataError):
        align.EhrInput(99, 0, 0, (), ()).validate(vocab)
    with pytest.raises(DataError):
        align.EhrInput(1, 0, 0, (vocab.n_dx,), ()).validate(vocab)


def test_ehr_input_from_record():
    cfg = CohortConfig(n_patients=10)
    records, phenos = generate_records(cfg, seed=6)
    from clef.cohortgen import vocabularies
    dx_vocab, med_vocab = vocabularies(cfg, phenos)
    for rec in records:
        inp = align.ehr_input_from_record(rec, dx_vocab, med_vocab)
        inp.validate(_cfg().ehr)
        assert len(inp.dx_ids) == len(rec.diagnoses & set(dx_vocab))


# ---------------------------------------------------------------------------
# contrastive loss


def test_clip_loss_single_pair_zero():
    a = grad.Tensor(np.array([[1.0, 0.0]], dtype=np.float32))
    out = align.clip_loss(a, a, tau=0.07)
    assert abs(float(out.data)) < 1e-6


def test_clip_loss_orthonormal_hand_value():
    a = grad.Tensor(np.eye(2, dtype=np.float32))
    out = align.clip_loss(a, a, tau=1.0)
    expected = np.log(1.0 + np.exp(-1.0))
    assert abs(float(out.data) - expected) < 1e-6


def test_clip_loss_permutation_symmetry():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(6, 8)).astype(np.float32)
    b = rng.normal(size=(6, 8)).astype(np.float32)
    l1 = float(align.clip_loss(grad.Tensor(a), grad.Tensor(b)).data)
    perm = rng.permutation(6)
    l2 = float(align.clip_loss(grad.Tensor(a[perm]), grad.Tensor(b[perm])).data)
    assert abs(l1 - l2) < 1e-5


def test_clip_loss_all_absent():
    a = grad.Tensor(np.ones((0, 4), dtype=np.float32))
    assert float(align.clip_loss(a, a).data) == 0.0


def test_clip_loss_nonnegative_and_asymptotically_zero():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(5, 8)).astype(np.float32)
    loss = float(align.clip_loss(grad.Tensor(a), grad.Tensor(a), tau=0.07).data)
    assert loss >= 0.0
    hot = float(align.clip_loss(grad.Tensor(a), grad.Tensor(a), tau=0.005).data)
    assert hot < loss + 1e-6  # sharper temperature drives a perfect match to 0


# ---------------------------------------------------------------------------
# stage II wiring


def _tiny_stage2(seed=10):
    mcfg = MimConfig(d_model=32, n_heads=4, depth=1, dec_depth=1)
    mmodel = mim.MimModel(16, 2 * 16 * 8, (4, 8), mcfg, np.random.default_rng(seed))
    acfg = _cfg(n_heads=4, refiner_depth=1, text_max_len=16, batch_size=4)
    return mmodel, acfg


def _batch(rng, b=4, with_reports=True):
    ids = rng.integers(0, 16, size=(b, 32))
    patches = rng.normal(size=(b, 32, 2 * 16 * 8)).astype(np.float32)
    texts = [f"report number {i} shows generalized slowing" for i in range(b)]
    present = np.full(b, with_reports)
    ehr = [align.EhrInput(i % 10, i % 3, i % 8, (i % 20,), ((i + 1) % 20,))
           for i in range(b)]
    return align.AlignBatch(ids=ids, patches=patches, texts=texts,
                            report_present=present, ehr=ehr)


def test_stage2_step_additivity():
    mmodel, acfg = _tiny_stage2()
    amodel = align.AlignModel(acfg, 32, np.random.default_rng(11))
    provider = align.HashedNgramProvider()
    batch = _batch(np.random.default_rng(12))
    _, losses = align.stage2_step(amodel, mmodel, provider, batch, rng=None)
    assert abs(losses.total - (losses.report + losses.ehr)) < 1e-6
    # no reports in the batch: total collapses to the EHR term alone
    batch_none = _batch(np.random.default_rng(12), with_reports=False)
    _, l2 = align.stage2_step(amodel, mmodel, provider, batch_none, rng=None)
    assert l2.report == 0.0 and l2.report_absent_batch
    assert abs(l2.total - l2.ehr) < 1e-6


def test_stage2_encodes_only_report_rows(monkeypatch):
    """On a mixed batch the report loss equals the old encode-every-row
    loss, and report_embed sees only the rows that have a report."""
    mmodel, acfg = _tiny_stage2()
    amodel = align.AlignModel(acfg, 32, np.random.default_rng(11))
    provider = align.HashedNgramProvider()
    batch = _batch(np.random.default_rng(12), b=6)
    batch.report_present = np.array([True, False, True, True, False, True])
    seen, real = [], align.report_embed

    def spy(texts, *args):
        seen.append(list(texts))
        return real(texts, *args)

    monkeypatch.setattr(align, "report_embed", spy)
    _, losses = align.stage2_step(amodel, mmodel, provider, batch, rng=None)
    monkeypatch.undo()
    assert seen == [[t for t, p in zip(batch.texts, batch.report_present) if p]]
    u = mim.mim_forward(mmodel, batch.ids, batch.patches).u
    every_row = align.report_embed(batch.texts, provider,
                                   amodel.report_encoder, acfg.text_max_len)
    rows = np.flatnonzero(batch.report_present)
    old = align.clip_loss(grad.getitem(grad.matmul(u, amodel.pi_rep), rows),
                          grad.getitem(every_row, rows), acfg.tau)
    assert abs(losses.report - float(old.data)) <= 1e-5
    assert not losses.report_absent_batch


def test_stage2_random_init_loss_near_ln_b():
    # the near-uniform-logit regime needs a wide embedding: random cosines
    # scale as 1/sqrt(d), so run this check at d=512
    mcfg = MimConfig(d_model=512, n_heads=8, depth=1, dec_depth=1)
    mmodel = mim.MimModel(16, 2 * 16 * 8, (4, 8), mcfg, np.random.default_rng(13))
    acfg = _cfg(n_heads=8, refiner_depth=1, text_max_len=16)
    amodel = align.AlignModel(acfg, 512, np.random.default_rng(14))
    provider = align.HashedNgramProvider()
    batch = _batch(np.random.default_rng(15), b=64)
    _, losses = align.stage2_step(amodel, mmodel, provider, batch, rng=None)
    assert abs(losses.ehr - np.log(64)) / np.log(64) < 0.15
    assert abs(losses.report - np.log(64)) / np.log(64) < 0.15


def test_stage2_requires_stage1_provenance():
    """Stage II starts from Stage I weights: the encoder loader refuses a
    table that misses an encoder parameter, and ignores the decoder's."""
    mmodel, acfg = _tiny_stage2()
    stage1 = mim.MimModel(16, 2 * 16 * 8, (4, 8), mmodel.cfg, np.random.default_rng(99))
    weights = {k: p.data for k, p in stage1.named_parameters().items()}
    with pytest.raises(DataError, match="missing"):
        mim.load_encoder(mmodel, {"not_a_param": np.zeros(1)})
    mim.load_encoder(mmodel, {k: v for k, v in weights.items()
                              if k in mmodel.encoder_parameter_names()})
    params = mmodel.named_parameters()
    assert all(np.array_equal(params[k].data, weights[k])
               for k in mmodel.encoder_parameter_names())
    assert not np.array_equal(params["head_w"].data, weights["head_w"])


def test_stage2_train_updates_and_ema():
    mmodel, acfg = _tiny_stage2()
    provider = align.HashedNgramProvider()
    b = _batch(np.random.default_rng(16))
    rows = align.AlignRows([SimpleNamespace(report=t) for t in b.texts],
                           b.ids, b.patches, b.ehr)

    result = align.stage2_train(mmodel, provider, rows,
                                replace(acfg, steps=3), seed=17)
    assert len(result.losses) == 3
    trained = align.trained_parameters(result.align_model, mmodel)
    assert set(result.ema.shadow) == set(trained)
    assert {k[len("eeg."):] for k in trained if k.startswith("eeg.")} == \
        set(mmodel.encoder_parameter_names())


# ---------------------------------------------------------------------------
# concept holdout


def test_scrub_removes_phrase_sentences():
    text = ("Routine EEG was recorded. The record shows generalized slowing. "
            "Impedances were acceptable.")
    out = align.scrub_text(text, ["generalized slowing"])
    assert "generalized slowing" not in out
    assert "Impedances" in out


def test_concept_holdout_filter():
    cfg = CohortConfig(n_patients=60)
    records, phenos = generate_records(cfg, seed=18)
    target = phenos[0]
    held_codes = set(target.dx_codes) | set(target.med_codes)
    filtered = align.concept_holdout_filter(records, held_codes,
                                            list(target.report_phrases))
    for rec in filtered:
        assert not (rec.diagnoses & held_codes)
        assert not (rec.medications & held_codes)
        assert all(e.code not in held_codes for e in rec.diagnosis_events)
        if rec.report:
            for phrase in target.report_phrases:
                assert phrase not in rec.report.lower()
    # identity on empty holdout
    same = align.concept_holdout_filter(records, set(), [])
    assert all(a.report == b.report and a.diagnoses == b.diagnoses
               for a, b in zip(records, same))
