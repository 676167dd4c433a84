"""Alignment tests: provider determinism, EHR set-encoder permutation
invariance, the symmetric contrastive loss against hand-computed values and
the row-deletion identity, Stage II wiring, and the concept-holdout scrub."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from clef import align, grad, mim
from clef.config import (AlignConfig, CohortConfig, MimConfig, RACE_CATEGORIES,
                         SEX_CATEGORIES)
from clef.cohortgen import default_phenotypes, generate_records, vocabularies
from clef.errors import DataError

# the desk cohort's code vocabularies: 20 diagnosis and 20 medication codes
VOCAB = vocabularies(CohortConfig(), default_phenotypes(
    CohortConfig().channel_names))


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
    """One row per word from the provider; the only cut is report_embed's,
    at the encoder's ``text_max_len`` positions."""
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
        align.report_embed([_words(100)], p, enc).data,
        align.report_embed([_words(16)], p, enc).data)


def test_report_embed_reads_up_to_text_max_len():
    p = align.HashedNgramProvider()
    enc = align.ReportEncoder(_cfg(n_heads=4, refiner_depth=1,
                                   text_max_len=128),
                              32, np.random.default_rng(0))
    full = align.report_embed([_words(100)], p, enc).data
    head = align.report_embed([_words(64)], p, enc).data
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


def _record(age=35, sex="F", race="White", dx=(), med=()):
    """The fields of a cohort record that its EHR view reads."""
    return SimpleNamespace(age_years=age, sex=sex, race=race,
                           diagnoses=dx, medications=med)


def _dx(*ids):
    return [VOCAB[0][i] for i in ids]


def _med(*ids):
    return [VOCAB[1][i] for i in ids]


def _slot_embeddings(cfg, seed, records):
    ids, mask = align.ehr_slots(records, VOCAB, cfg.ehr)
    enc = align.EhrEncoder(cfg, 32, VOCAB, np.random.default_rng(seed))
    return ids, enc(ids, mask).data


def test_ehr_permutation_invariance():
    ids, v = _slot_embeddings(_ehr_cfg(), 3, [
        _record(dx=_dx(5, 1, 3), med=_med(7, 2, 9)),
        _record(dx=_dx(1, 3, 5), med=_med(9, 7, 2))])
    assert np.array_equal(ids[0], ids[1]) and ids[0, 3:6].tolist() == [1, 3, 5]
    assert np.array_equal(v[0], v[1])


def test_ehr_dedup_default():
    ids, v = _slot_embeddings(_ehr_cfg(), 4, [
        _record(dx=_dx(5, 5, 1), med=_med(7)),
        _record(dx=_dx(5, 1), med=_med(7))])
    assert np.array_equal(ids[0], ids[1])
    assert np.array_equal(v[0], v[1])


def test_ehr_truncation_keeps_lowest_ids():
    slots = _ehr_cfg().ehr
    n = slots.dx_slots + 4
    ids, mask = align.ehr_slots([_record(dx=_dx(*range(n)[::-1]))], VOCAB,
                                slots)
    assert ids[0, 3:3 + slots.dx_slots].tolist() == list(range(slots.dx_slots))
    assert mask[0, 3:3 + slots.dx_slots].all()


def test_ehr_empty_sets_demographics_only():
    cfg = _ehr_cfg()
    enc = align.EhrEncoder(cfg, 32, VOCAB, np.random.default_rng(5))
    ids, mask = align.ehr_slots([_record(age=25, sex="M", race="Multiracial")],
                                VOCAB, cfg.ehr)
    assert mask.sum() == 3 and ids[0, :3].tolist() == [2, 1, 3]
    assert np.all(np.isfinite(enc(ids, mask).data))


def test_ehr_tables_have_one_row_per_vocabulary_code():
    """Every slot id comes from the vocabulary, so each is a row of its
    table, whatever the vocabulary's size: a code outside it is left out."""
    dx, med = ["dx_a", "dx_b", "dx_c"], ["med_a"]
    cfg = _ehr_cfg()
    enc = align.EhrEncoder(cfg, 32, (dx, med), np.random.default_rng(6))
    assert enc.e_dx.shape == (3, 32) and enc.e_med.shape == (1, 32)
    ids, mask = align.ehr_slots(
        [_record(dx=["dx_c", "dx_z"], med=["med_a", "med_b"])], (dx, med),
        cfg.ehr)
    assert mask.sum() == 5
    assert ids[0, 3] == 2 and ids[0, 3 + cfg.ehr.dx_slots] == 0
    enc(ids, mask)


def test_ehr_slots_from_records():
    cfg = CohortConfig(n_patients=10)
    records, phenos = generate_records(cfg, seed=6)
    vocab = vocabularies(cfg, phenos)
    slots = _ehr_cfg().ehr
    ids, mask = align.ehr_slots(records, vocab, slots)
    med0 = 3 + slots.dx_slots
    for rec, row, filled in zip(records, ids, mask):
        dx = sorted(rec.diagnoses & set(vocab[0]), key=vocab[0].index)
        assert [vocab[0][i] for i in row[3:med0][filled[3:med0]]] == \
            dx[:slots.dx_slots]
        assert filled[med0:].sum() == min(
            len(rec.medications & set(vocab[1])), slots.med_slots)


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
    l1 = float(align.clip_loss(grad.Tensor(a), grad.Tensor(b), 0.07).data)
    perm = rng.permutation(6)
    l2 = float(align.clip_loss(grad.Tensor(a[perm]), grad.Tensor(b[perm]),
                               0.07).data)
    assert abs(l1 - l2) < 1e-5


def test_clip_loss_all_absent():
    a = grad.Tensor(np.ones((0, 4), dtype=np.float32))
    assert float(align.clip_loss(a, a, 0.07).data) == 0.0


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
    encoder = mim.SessionEncoder(16, 2 * 16 * 8, (4, 8), mcfg,
                                 np.random.default_rng(seed))
    acfg = _cfg(n_heads=4, refiner_depth=1, text_max_len=16, batch_size=4)
    return encoder, acfg


def _batch(rng, b=4, with_reports=True):
    ids = rng.integers(0, 16, size=(b, 32))
    patches = rng.normal(size=(b, 32, 2 * 16 * 8)).astype(np.float32)
    texts = [f"report number {i} shows generalized slowing" for i in range(b)]
    present = np.full(b, with_reports)
    ehr, ehr_mask = align.ehr_slots(
        [_record(age=10 * (i % 10), sex=SEX_CATEGORIES[i % 3],
                 race=RACE_CATEGORIES[i % 8], dx=_dx(i % 20),
                 med=_med((i + 1) % 20)) for i in range(b)],
        VOCAB, AlignConfig().ehr)
    return align.AlignBatch(ids=ids, patches=patches, texts=texts,
                            report_present=present, ehr=ehr, ehr_mask=ehr_mask)


def test_stage2_step_additivity():
    encoder, acfg = _tiny_stage2()
    amodel = align.AlignModel(acfg, encoder, VOCAB, np.random.default_rng(11))
    provider = align.HashedNgramProvider()
    batch = _batch(np.random.default_rng(12))
    _, row = align.stage2_step(amodel, provider, batch, rng=None)
    assert list(row) == ["total", "report", "ehr"]
    assert abs(row["total"] - (row["report"] + row["ehr"])) < 1e-6
    # no reports in the batch: total collapses to the EHR term alone
    batch_none = _batch(np.random.default_rng(12), with_reports=False)
    _, l2 = align.stage2_step(amodel, provider, batch_none, rng=None)
    assert l2["report"] == 0.0
    assert abs(l2["total"] - l2["ehr"]) < 1e-6


def test_stage2_encodes_only_report_rows(monkeypatch):
    """On a mixed batch the report loss equals the old encode-every-row
    loss, and report_embed sees only the rows that have a report."""
    encoder, acfg = _tiny_stage2()
    amodel = align.AlignModel(acfg, encoder, VOCAB, np.random.default_rng(11))
    provider = align.HashedNgramProvider()
    batch = _batch(np.random.default_rng(12), b=6)
    batch.report_present = np.array([True, False, True, True, False, True])
    seen, real = [], align.report_embed

    def spy(texts, *args):
        seen.append(list(texts))
        return real(texts, *args)

    monkeypatch.setattr(align, "report_embed", spy)
    _, row = align.stage2_step(amodel, provider, batch, rng=None)
    monkeypatch.undo()
    assert seen == [[t for t, p in zip(batch.texts, batch.report_present) if p]]
    u = encoder(batch.ids, batch.patches)[1]
    every_row = align.report_embed(batch.texts, provider,
                                   amodel.report_encoder)
    rows = np.flatnonzero(batch.report_present)
    old = align.clip_loss(grad.getitem(grad.matmul(u, amodel.pi_rep), rows),
                          grad.getitem(every_row, rows), acfg.tau)
    assert abs(row["report"] - float(old.data)) <= 1e-5


def test_stage2_random_init_loss_near_ln_b():
    # the near-uniform-logit regime needs a wide embedding: random cosines
    # scale as 1/sqrt(d), so run this check at d=512
    mcfg = MimConfig(d_model=512, n_heads=8, depth=1, dec_depth=1)
    encoder = mim.SessionEncoder(16, 2 * 16 * 8, (4, 8), mcfg,
                                 np.random.default_rng(13))
    acfg = _cfg(n_heads=8, refiner_depth=1, text_max_len=16)
    amodel = align.AlignModel(acfg, encoder, VOCAB, np.random.default_rng(14))
    provider = align.HashedNgramProvider()
    batch = _batch(np.random.default_rng(15), b=64)
    _, row = align.stage2_step(amodel, provider, batch, rng=None)
    assert abs(row["ehr"] - np.log(64)) / np.log(64) < 0.15
    assert abs(row["report"] - np.log(64)) / np.log(64) < 0.15


def test_stage2_requires_stage1_provenance():
    """Stage II starts from Stage I weights: the encoder loader takes the
    ``eeg.*`` entries of a Stage I table and ignores the decoder's; a table
    that misses one, or names it without the prefix, or holds another
    shape, is refused."""
    encoder, acfg = _tiny_stage2()
    stage1 = mim.MimModel(16, 2 * 16 * 8, (4, 8), encoder.cfg,
                          np.random.default_rng(99))
    weights = {k: p.data for k, p in stage1.named_parameters().items()}
    with pytest.raises(DataError, match="missing"):
        mim.load_encoder(encoder, {"not_a_param": np.zeros(1)})
    with pytest.raises(DataError, match=r"missing parameters: \['eeg\."):
        mim.load_encoder(encoder, {k.removeprefix("eeg."): v
                                   for k, v in weights.items()})
    with pytest.raises(DataError, match="eeg.token_table"):
        mim.load_encoder(encoder, {**weights,
                                   "eeg.token_table": np.zeros((16, 8))})
    mim.load_encoder(encoder, weights)
    assert all(np.array_equal(p.data, weights[k]) for k, p in
               encoder.named_parameters("eeg.").items())


def test_stage2_train_updates_and_ema():
    encoder, acfg = _tiny_stage2()
    provider = align.HashedNgramProvider()
    b = _batch(np.random.default_rng(16))
    records, _ = generate_records(CohortConfig(n_patients=4), seed=16)
    rows = align.align_rows(records, b.ids, b.patches, VOCAB, acfg.ehr)
    ehr, ehr_mask = align.ehr_slots(records, VOCAB, acfg.ehr)
    assert np.array_equal(rows.ehr, ehr) and np.array_equal(rows.ehr_mask,
                                                            ehr_mask)
    batch = rows.take(np.array([3, 1, 3]))
    assert np.array_equal(batch.ehr, ehr[[3, 1, 3]])
    assert batch.texts == [records[i].report or "" for i in (3, 1, 3)]
    assert list(batch.report_present) == [records[i].report is not None
                                          for i in (3, 1, 3)]

    before = {k: p.data.copy() for k, p in encoder.named_parameters().items()}
    result = align.stage2_train(encoder, provider, rows, VOCAB,
                                replace(acfg, steps=3), seed=17)
    assert len(result.history) == 3
    # the alignment model trains the encoder it was given, under eeg.*
    assert result.align_model.eeg is encoder
    trained = result.align_model.named_parameters()
    assert set(result.ema.shadow) == set(trained)
    assert {k for k in trained if k.startswith("eeg.")} == \
        set(encoder.named_parameters("eeg."))
    assert any(not np.array_equal(p.data, before[k])
               for k, p in encoder.named_parameters().items())


def test_report_features_are_built_once_per_text(monkeypatch):
    """A Stage II run looks each report's words up once, however many
    batches draw the report; the provider hands back the same read-only
    rows each time, equal to what a fresh provider builds."""
    encoder, acfg = _tiny_stage2()
    provider = align.HashedNgramProvider()
    b = _batch(np.random.default_rng(16))
    records, _ = generate_records(CohortConfig(n_patients=4), seed=16)
    rows = align.align_rows(records, b.ids, b.patches, VOCAB, acfg.ehr)
    texts, words = [], []
    embed, word_feature = (align.HashedNgramProvider.embed,
                           align.HashedNgramProvider._word_feature)
    monkeypatch.setattr(align.HashedNgramProvider, "embed",
                        lambda self, text: texts.append(text)
                        or embed(self, text))
    monkeypatch.setattr(align.HashedNgramProvider, "_word_feature",
                        lambda self, word: words.append(word)
                        or word_feature(self, word))
    align.stage2_train(encoder, provider, rows, VOCAB, replace(acfg, steps=3),
                       seed=17)
    monkeypatch.undo()
    assert len(texts) > len(set(texts)) > 0
    fresh = align.HashedNgramProvider()
    assert len(words) == sum(len(fresh.embed(t)) for t in set(texts))
    for t in set(texts):
        f = provider.embed(t)
        assert f is provider.embed(t) and not f.flags.writeable
        assert np.array_equal(f, fresh.embed(t))


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
