"""Masked token modeling tests: truncated-Gaussian masking statistics
against a quadrature oracle, embedding decomposition, weight tying,
invariance to the order of positions outside ``keep``, and a learnability
smoke run on a deterministic token sequence."""

import numpy as np
import pytest
from scipy import integrate

from clef import grad, mim
from clef.config import ConfigError, MimConfig, apply_overrides, check, \
    get_profile
from clef.errors import DataError


def _cfg(**kw):
    cfg = MimConfig()
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


# ---------------------------------------------------------------------------
# masking


def test_mask_ratio_sigma_zero():
    cfg = _cfg(mask_sigma=0.0)
    rng = np.random.default_rng(0)
    for _ in range(50):
        assert mim.sample_mask_ratio(cfg.mask_mu, 0.0, cfg.mask_lo,
                                     cfg.mask_hi, rng) == 0.55


def test_mask_ratio_matches_quadrature_mean():
    cfg = _cfg()
    mu, sig, lo, hi = cfg.mask_mu, cfg.mask_sigma, cfg.mask_lo, cfg.mask_hi

    def pdf(x):
        return np.exp(-0.5 * ((x - mu) / sig) ** 2)

    num, _ = integrate.quad(lambda x: x * pdf(x), lo, hi)
    den, _ = integrate.quad(pdf, lo, hi)
    expected = num / den
    rng = np.random.default_rng(1)
    draws = [mim.sample_mask_ratio(mu, sig, lo, hi, rng) for _ in range(100_000)]
    assert abs(np.mean(draws) - expected) < 0.01


def test_mask_plan_full_when_bounds_degenerate():
    cfg = _cfg(mask_lo=1.0, mask_hi=1.0)
    plan = mim.sample_mask_plan(32, cfg, np.random.default_rng(2), batch=3)
    assert plan.masked.all()


def test_mask_plan_invariants():
    """Each row masks ceil(ratio * 32) positions.  The ratio is the plan's
    first draw from its rng, so the same seed replays it."""
    cfg = _cfg()
    for seed in range(16):
        plan = mim.sample_mask_plan(32, cfg, np.random.default_rng(seed), 1)
        ratio = mim.sample_mask_ratio(cfg.mask_mu, cfg.mask_sigma, cfg.mask_lo,
                                      cfg.mask_hi, np.random.default_rng(seed))
        assert 0.25 <= ratio <= 1.0
        m = plan.masked[0].sum()
        assert m == int(np.ceil(ratio * 32))
        assert np.all(plan.masked[0][plan.dropped[0]])
        assert plan.dropped[0].sum() == int(m * cfg.r_drop)


def test_bad_bounds_rejected():
    """Mask bounds with lo > hi are refused when the profile loads."""
    with pytest.raises(ConfigError, match="mim.mask_lo"):
        check(apply_overrides(get_profile("desk"), {
            "mim": {"mask_lo": 0.9, "mask_hi": 0.2}}))


# ---------------------------------------------------------------------------
# patches and embeddings


def test_extract_patches_roundtrip():
    rng = np.random.default_rng(5)
    values = rng.normal(size=(3, 64, 64)).astype(np.float32)
    patches = mim.extract_patches(values, 16, 8)
    assert patches.shape == (4 * 8, 3 * 16 * 8)
    # patch at grid position (1, 2) is the corresponding spectrogram block
    expected = values[:, 16:32, 16:24].reshape(-1)
    assert np.array_equal(patches[1 * 8 + 2], expected)
    with pytest.raises(DataError):
        mim.extract_patches(values, 16, 7)
    # a leading batch axis gives the per-session patches, stacked
    batch = rng.normal(size=(2, 3, 3, 64, 64)).astype(np.float32)
    patches = mim.extract_patches(batch, 16, 8)
    assert patches.shape == (2, 3, 4 * 8, 3 * 16 * 8)
    assert np.array_equal(patches, np.stack([
        [mim.extract_patches(v, 16, 8) for v in vs] for vs in batch]))


def _model(k=16, cfg=None, seed=6):
    cfg = cfg or _cfg(d_model=32, n_heads=4, depth=2, dec_depth=2)
    return mim.MimModel(k, 2 * 16 * 8, (4, 8), cfg,
                        np.random.default_rng(seed)), cfg


def test_embed_is_token_row_when_rest_zero():
    enc = _model()[0].eeg
    enc.w_patch.data[:] = 0.0
    enc.p_freq.data[:] = 0.0
    enc.p_time.data[:] = 0.0
    ids = np.array([[3] * 32])
    patches = np.zeros((1, 32, 2 * 16 * 8), dtype=np.float32)
    x = enc.embed(ids, patches, None)
    assert np.allclose(x.data[0, 1:], enc.token_table.data[3], atol=1e-6)


def test_embed_time_positional_difference():
    enc = _model()[0].eeg
    ids = np.array([[0] * 32])
    patches = np.zeros((1, 32, 2 * 16 * 8), dtype=np.float32)
    x = enc.embed(ids, patches, None)
    # positions 0 and 1 share the frequency row, differ only in time column
    d01 = x.data[0, 1] - x.data[0, 2]
    expected = enc.p_time.data[0] - enc.p_time.data[1]
    assert np.allclose(d01, expected, atol=1e-6)


def test_sequence_length_includes_proxy():
    enc = _model()[0].eeg
    ids = np.zeros((2, 32), dtype=np.int64)
    patches = np.zeros((2, 32, 2 * 16 * 8), dtype=np.float32)
    x = enc.embed(ids, patches, None)
    assert x.shape == (2, 33, enc.cfg.d_model)


def test_masked_positions_use_mask_embedding():
    enc = _model()[0].eeg
    enc.p_freq.data[:] = 0.0
    enc.p_time.data[:] = 0.0
    ids = np.zeros((1, 32), dtype=np.int64)
    patches = np.zeros((1, 32, 2 * 16 * 8), dtype=np.float32)
    plan = mim.MaskPlan(masked=np.zeros((1, 32), bool),
                        dropped=np.zeros((1, 32), bool))
    plan.masked[0, 5] = True
    x = enc.embed(ids, patches, plan)
    assert np.allclose(x.data[0, 6], enc.mask_emb.data, atol=1e-6)


# ---------------------------------------------------------------------------
# forward pass


def _batch(model, rng, b=2):
    ids = rng.integers(0, model.eeg.token_table.shape[0], size=(b, 32))
    patches = rng.normal(size=(b, 32, 2 * 16 * 8)).astype(np.float32)
    return ids, patches


def test_forward_logit_shape():
    model, cfg = _model()
    rng = np.random.default_rng(7)
    ids, patches = _batch(model, rng)
    plan = mim.sample_mask_plan(32, cfg, rng, batch=2)
    out = mim.mim_forward(model, ids, patches, plan)
    assert out.logits.shape == (plan.masked.sum(), 16)
    assert np.array_equal(out.targets, ids[plan.masked])
    enc, u = model.eeg(ids, patches, plan)
    assert enc.shape == (2, 33, cfg.d_model) and u.shape == (2, cfg.d_model)
    assert np.all(np.isfinite(out.logits.data))


def test_weight_tying_column_sparsity():
    model, cfg = _model()
    rng = np.random.default_rng(8)
    # keep code 13 out of the inputs so only the head path sees its row
    ids = rng.integers(0, 12, size=(1, 32))
    patches = rng.normal(size=(1, 32, 2 * 16 * 8)).astype(np.float32)
    plan = mim.sample_mask_plan(32, cfg, np.random.default_rng(9), batch=1)
    base = mim.mim_forward(model, ids, patches, plan).logits.data.copy()
    model.eeg.token_table.data[13] += rng.normal(
        0.0, 0.1, size=cfg.d_model).astype(np.float32)
    pert = mim.mim_forward(model, ids, patches, plan).logits.data
    delta = np.abs(pert - base)
    assert np.all(delta[:, 13] > 0)
    others = np.delete(delta, 13, axis=1)
    assert np.abs(others).max() < 1e-5


def test_padded_tail_permutation_invariance():
    # positions outside ``keep`` (Stage II token dropping) neither attend nor
    # pool: reordering them leaves u unchanged, and dropping them changes it
    model, cfg = _model()
    rng = np.random.default_rng(10)
    ids, patches = _batch(model, rng, b=1)
    keep = np.ones((1, 32), dtype=bool)
    keep[0, 24:] = False
    u1 = model.eeg(ids, patches, keep=keep)[1].data
    ids2 = ids.copy()
    ids2[0, 24:] = ids[0, 24:][::-1]
    patches2 = patches.copy()
    patches2[0, 24:] = patches[0, 24:][::-1]
    u2 = model.eeg(ids2, patches2, keep=keep)[1].data
    assert np.array_equal(u1, u2)
    assert not np.allclose(u1, mim.session_embedding(model.eeg, ids, patches))


def test_block_is_one_tape_node(monkeypatch):
    """A block call makes one node whose parents are x and the block's 12
    weights, in their checkpoint order."""
    model, cfg = _model()
    block = model.eeg.blocks[0]
    x = grad.Tensor(np.random.default_rng(14).normal(
        size=(2, 33, cfg.d_model)), requires_grad=True)
    made, real = [], grad._make

    def make(*args):
        made.append(real(*args))
        return made[-1]

    monkeypatch.setattr(grad, "_make", make)
    out = block(x, mim._attention_bias(np.ones((2, 33), bool)))
    assert made == [out]
    assert [p for p, _ in out._parents] == [x, *block.parameters()]
    assert list(block.named_parameters()) == [
        "ln1_g", "ln1_b", "attn.wq", "attn.wk", "attn.wv", "attn.wo",
        "ln2_g", "ln2_b", "w1", "b1", "w2", "b2"]


def test_stage1_forward_pools_nothing(monkeypatch):
    """Stage I reads the encoder output alone, so it builds no u."""
    model, cfg = _model()
    rng = np.random.default_rng(15)
    ids, patches = _batch(model, rng)
    plan = mim.sample_mask_plan(32, cfg, rng, batch=2)
    expected = mim.mim_forward(model, ids, patches, plan).logits.data

    def refuse(*_args):
        raise AssertionError("Stage I pooled u")

    monkeypatch.setattr(grad, "mean_pool_masked", refuse)
    assert np.array_equal(
        mim.mim_forward(model, ids, patches, plan).logits.data, expected)


def test_loss_zero_when_logits_detached():
    model, cfg = _model()
    rng = np.random.default_rng(11)
    ids, patches = _batch(model, rng)
    plan = mim.sample_mask_plan(32, cfg, rng, batch=2)
    out = mim.mim_forward(model, ids, patches, plan)
    loss = mim.mim_loss(grad.stop_gradient(out.logits), out.targets, 0.1)
    assert all(g is None for g in loss.backward(model.parameters()))


def test_uniform_logits_loss():
    logits = grad.Tensor(np.zeros((10, 64), dtype=np.float32))
    loss = mim.mim_loss(logits, np.arange(10) % 64, smoothing=0.1)
    assert abs(float(loss.data) - np.log(64)) < 1e-6


# ---------------------------------------------------------------------------
# training smoke


def test_stage1_learns_deterministic_successor():
    # code at position j is always (code at j-1) + 1 mod K: trained masked
    # accuracy must clear 5x the 1/K chance rate
    k = 64
    rng = np.random.default_rng(12)
    n_sessions, n = 64, 32
    ids = np.empty((n_sessions, n), dtype=np.int64)
    ids[:, 0] = rng.integers(0, k, size=n_sessions)
    for j in range(1, n):
        ids[:, j] = (ids[:, j - 1] + 1) % k
    patches = np.zeros((n_sessions, n, 2 * 16 * 8), dtype=np.float32)
    cfg = _cfg(d_model=64, n_heads=4, depth=2, dec_depth=2, batch_size=16,
               steps=300)
    result = mim.stage1_train(ids, patches, k, (4, 8), cfg, seed=13)
    assert np.mean([row["acc"] for row in result.history[-20:]]) >= 5.0 / k
    assert result.history[-1]["loss"] < result.history[0]["loss"]
    # EMA shadow tracks every parameter
    assert set(result.ema.shadow) == set(result.model.named_parameters())


def test_stage1_dropout_is_seeded_and_applied():
    rng = np.random.default_rng(3)
    ids = rng.integers(0, 16, size=(8, 32))
    patches = rng.normal(size=(8, 32, 2 * 16 * 8)).astype(np.float32)

    def losses(p):
        cfg = _cfg(d_model=32, n_heads=4, depth=1, dec_depth=1, batch_size=4,
                   dropout=p, steps=2)
        return mim.stage1_train(ids, patches, 16, (4, 8), cfg, seed=5).history

    assert losses(0.5) == losses(0.5)
    assert losses(0.5) != losses(0.0)


def test_no_train_rng_is_eval_mode_at_any_dropout():
    """The encoder and decoder pass ``cfg.dropout`` as it is: without a
    ``train_rng`` (``grad._dropout_keep``'s eval mode) a rate of 0.5 drops
    nothing, and with one the same rate changes the logits."""
    model, cfg = _model()
    rng = np.random.default_rng(16)
    ids, patches = _batch(model, rng)
    plan = mim.sample_mask_plan(32, cfg, rng, batch=2)
    logits = mim.mim_forward(model, ids, patches, plan).logits.data
    u = mim.session_embedding(model.eeg, ids, patches)
    cfg.dropout = 0.5
    assert np.array_equal(
        mim.mim_forward(model, ids, patches, plan).logits.data, logits)
    assert np.array_equal(mim.session_embedding(model.eeg, ids, patches), u)
    assert not np.array_equal(mim.mim_forward(
        model, ids, patches, plan, np.random.default_rng(0)).logits.data,
        logits)


def test_mim_model_holds_the_encoder_as_eeg():
    """Stage I names the encoder's weights ``eeg.*`` and draws them first,
    so a lone ``SessionEncoder`` from the same seed holds the same values;
    the decoder and head lie outside it."""
    model, cfg = _model()
    params = model.named_parameters()
    enc = mim.SessionEncoder(16, 2 * 16 * 8, (4, 8), cfg,
                             np.random.default_rng(6)).named_parameters("eeg.")
    assert list(params)[:len(enc)] == list(enc)
    assert all(np.array_equal(params[k].data, v.data) for k, v in enc.items())
    assert {"eeg.token_table", "eeg.blocks.0.attn.wq", "eeg.ln_g"} <= set(enc)
    assert not any(k.startswith("eeg.") for k in list(params)[len(enc):])
    assert {"decoder.0.attn.wq", "head_w", "p_full"} <= set(params)
