"""VQ tokenizer tests: quantization against a brute-force oracle, the
decomposed reconstruction loss, stop-gradient semantics, masking statistics,
GAN loss identities, and the token cache format."""

import numpy as np
import pytest

from clef import grad, vqtok
from clef.config import TokenizerConfig
from clef.errors import DataError


def _cfg(**kw):
    cfg = TokenizerConfig()
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


# ---------------------------------------------------------------------------
# quantization


def test_quantize_exact_entry():
    rng = np.random.default_rng(0)
    book = vqtok.Codebook(32, 8, rng)
    z = np.tile(book.entries.data[17], (1, 2, 3, 1)).transpose(0, 3, 1, 2)
    grid = vqtok.quantize(grad.Tensor(z.copy()), book)
    assert np.all(grid.indices == 17)
    assert np.allclose(grid.quantized.data.transpose(0, 2, 3, 1),
                       book.entries.data[17])


def test_quantize_matches_bruteforce_oracle():
    rng = np.random.default_rng(1)
    for trial in range(100):
        k = int(rng.integers(2, 24))
        d = int(rng.integers(1, 9))
        book = vqtok.Codebook(k, d, np.random.default_rng(trial))
        z = rng.normal(size=(1, d, 4, 4)).astype(np.float32)
        grid = vqtok.quantize(grad.Tensor(z), book)
        zt = z.transpose(0, 2, 3, 1)
        for b in range(1):
            for h in range(4):
                for w in range(4):
                    dists = [float(((zt[b, h, w] - e) ** 2).sum())
                             for e in book.entries.data]
                    best = min(range(k), key=lambda i: (dists[i], i))
                    assert grid.indices[b, h, w] == best


def test_quantize_tie_breaks_low_index():
    rng = np.random.default_rng(2)
    book = vqtok.Codebook(4, 2, rng)
    book.entries.data[:] = np.array([[1.0, 0.0], [1.0, 0.0],
                                     [-1.0, 0.0], [5.0, 5.0]], dtype=np.float32)
    z = np.zeros((1, 2, 1, 1), dtype=np.float32)
    grid = vqtok.quantize(grad.Tensor(z), book)
    # entries 0, 1, 2 are equidistant from the origin: lowest index wins
    assert grid.indices[0, 0, 0] == 0


def test_nearest_indices_exact_across_row_chunks(monkeypatch):
    """Ten latents in chunks of four rows (three chunks): every row matches a
    brute-force argmin, and latents on a duplicated entry take the lower
    index in whichever chunk they fall."""
    rng = np.random.default_rng(4)
    k, d = 12, 3
    entries = rng.normal(size=(k, d))
    entries[7] = entries[2]  # exact duplicate: forced ties
    latents = rng.normal(size=(2, 5, d))
    latents[0, 1] = latents[1, 3] = entries[2]  # rows 1 and 8: chunks 0 and 2
    monkeypatch.setattr(vqtok, "_NN_CHUNK_ELEMENTS", 4 * k * d)
    got = vqtok.nearest_indices(latents, entries)
    oracle = [min(range(k), key=lambda j: (((z - entries[j]) ** 2).sum(), j))
              for z in latents.reshape(-1, d)]
    assert got.shape == (2, 5) and got.reshape(-1).tolist() == oracle
    assert got[0, 1] == got[1, 3] == 2


def test_straight_through_gradient():
    rng = np.random.default_rng(3)
    book = vqtok.Codebook(8, 4, rng)
    z = grad.Tensor(rng.normal(size=(1, 4, 2, 2)).astype(np.float32),
                    requires_grad=True)
    grid = vqtok.quantize(z, book)
    loss = grad.sum_(grid.quantized)
    g = grad.grads(loss, [z])[0]
    assert np.allclose(g, 1.0)  # gradient copied straight past quantization


def test_codebook_term_blocks_encoder_gradient():
    rng = np.random.default_rng(4)
    book = vqtok.Codebook(8, 4, rng)
    z = grad.Tensor(rng.normal(size=(1, 4, 2, 2)).astype(np.float32),
                    requires_grad=True)
    grid = vqtok.quantize(z, book)
    code_term = grad.l2(grad.stop_gradient(grid.latents), grid.entries_selected)
    g = grad.grads(code_term, [z])[0]
    assert np.all(g == 0.0)
    g_book = grad.grads(code_term, [book.entries])[0]
    assert np.abs(g_book).sum() > 0


# ---------------------------------------------------------------------------
# reconstruction loss


def test_recon_loss_zero_on_identity():
    rng = np.random.default_rng(5)
    s = grad.Tensor(rng.normal(size=(2, 3, 4, 4)).astype(np.float32))
    assert float(vqtok.recon_loss(s, s).data) == 0.0


def test_recon_loss_constant_shift_hits_mean_term_only():
    rng = np.random.default_rng(6)
    s = rng.normal(size=(1, 3, 4, 4)).astype(np.float32)
    s_hat = s + 0.5  # same shift on every channel: differential term is 0
    loss = vqtok.recon_loss(grad.Tensor(s), grad.Tensor(s_hat), gamma_diff=4.0)
    assert abs(float(loss.data) - 0.5) < 1e-6


def test_recon_loss_hand_case():
    s = np.array([[[[1.0]], [[-1.0]]]], dtype=np.float32)     # C=2, 1x1
    s_hat = np.zeros_like(s)
    loss = vqtok.recon_loss(grad.Tensor(s), grad.Tensor(s_hat), gamma_diff=4.0)
    assert abs(float(loss.data) - 4.0) < 1e-6


def test_recon_loss_positive_iff_different():
    rng = np.random.default_rng(7)
    s = rng.normal(size=(1, 2, 3, 3)).astype(np.float32)
    s_hat = s.copy()
    s_hat[0, 0, 1, 1] += 0.3
    loss = vqtok.recon_loss(grad.Tensor(s), grad.Tensor(s_hat), gamma_diff=1.0)
    assert float(loss.data) > 0.0


def test_recon_loss_shape_mismatch():
    with pytest.raises(grad.ShapeError):
        vqtok.recon_loss(grad.Tensor(np.zeros((1, 2, 3, 3))),
                         grad.Tensor(np.zeros((1, 2, 3, 4))))


# ---------------------------------------------------------------------------
# channel masking


def test_mask_step_zero_keeps_full_montage():
    sched = vqtok.MaskSchedule(0.3, 0.1, 200, (3, 5, 7))
    rng = np.random.default_rng(8)
    for _ in range(200):
        assert vqtok.mask_sample(sched, 0, 8, rng).all()


def test_mask_psg_rate_after_ramp():
    sched = vqtok.MaskSchedule(0.3, 0.0, 100, (3, 5, 7))
    rng = np.random.default_rng(9)
    n = 100_000
    hits = 0
    psg = np.zeros(8, dtype=bool)
    psg[[3, 5, 7]] = True
    for _ in range(n):
        keep = vqtok.mask_sample(sched, 10_000, 8, rng)
        hits += np.array_equal(keep, psg)
    # binomial 99% CI half-width at p=0.3, n=1e5 is ~0.0037
    assert abs(hits / n - 0.3) < 0.01


def test_mask_drop_rate_after_ramp():
    sched = vqtok.MaskSchedule(0.0, 0.1, 100, ())
    rng = np.random.default_rng(10)
    n = 50_000
    dropped = sum((~vqtok.mask_sample(sched, 10_000, 8, rng)).sum()
                  for _ in range(n))
    assert abs(dropped / (8 * n) - 0.1) < 0.01


def test_mask_guard_single_channel():
    sched = vqtok.MaskSchedule(0.0, 1.0, 1, ())
    rng = np.random.default_rng(11)
    for _ in range(20):
        keep = vqtok.mask_sample(sched, 10, 1, rng)
        assert keep.sum() == 1


def test_mask_ramp_monotone():
    sched = vqtok.MaskSchedule(0.3, 0.1, 100, (0,))
    probs = [sched.effective(s) for s in range(0, 300, 10)]
    for (a1, b1), (a2, b2) in zip(probs, probs[1:]):
        assert a2 >= a1 and b2 >= b1


def test_encoder_planes_layout():
    values = np.full((3, 4, 4), 0.5, dtype=np.float32)
    avail = np.array([True, False, True])
    planes = vqtok.encoder_planes(values, avail)
    assert planes.shape == (6, 4, 4)
    assert np.all(planes[1] == -1.0)       # masked channel forced to floor
    assert np.all(planes[0] == 0.5)
    assert np.all(planes[3:] == avail[:, None, None])
    # a leading batch axis gives the per-session planes, stacked
    rng = np.random.default_rng(1)
    batch = rng.normal(size=(2, 3, 3, 4, 4)).astype(np.float32)
    avails = rng.random((2, 3, 3)) < 0.5
    planes = vqtok.encoder_planes(batch, avails)
    assert planes.shape == (2, 3, 6, 4, 4) and planes.dtype == np.float32
    assert np.array_equal(planes, np.stack([
        [vqtok.encoder_planes(v, a) for v, a in zip(vs, avs)]
        for vs, avs in zip(batch, avails)]))


# ---------------------------------------------------------------------------
# GAN pieces


def _tiny_setup(seed=12):
    cfg = _cfg(codebook_size=16, latent_dim=8,
               level_channels=[8, 8, 8, 8, 8], disc_channels=[8, 8, 8])
    rng = np.random.default_rng(seed)
    return cfg, rng


def test_discriminator_loss_saturated_zero():
    cfg, rng = _tiny_setup()
    disc = vqtok.PatchDiscriminator(2, cfg, rng)
    real = grad.Tensor(rng.normal(size=(1, 2, 16, 16)).astype(np.float32))
    fake = grad.Tensor(rng.normal(size=(1, 2, 16, 16)).astype(np.float32))
    d_loss, g_adv = vqtok.discriminator_loss(disc, real, fake)
    # at D == 0 everywhere, hinge loss is exactly 2 and g_adv is 0
    for p in disc.parameters():
        p.data[:] = 0.0
    d_loss, g_adv = vqtok.discriminator_loss(disc, real, fake)
    assert abs(float(d_loss.data) - 2.0) < 1e-6
    assert abs(float(g_adv.data)) < 1e-6


def test_d_loss_does_not_touch_generator():
    cfg, rng = _tiny_setup()
    disc = vqtok.PatchDiscriminator(2, cfg, rng)
    gen_w = grad.Tensor(rng.normal(size=(1, 2, 16, 16)).astype(np.float32),
                        requires_grad=True)
    real = grad.Tensor(rng.normal(size=(1, 2, 16, 16)).astype(np.float32))
    d_loss, g_adv = vqtok.discriminator_loss(disc, real, gen_w)
    assert np.all(grad.grads(d_loss, [gen_w])[0] == 0.0)
    assert np.abs(grad.grads(g_adv, [gen_w])[0]).sum() > 0


def test_adaptive_weight_identity_and_guard():
    rng = np.random.default_rng(13)
    w = grad.Tensor(rng.normal(size=(4, 4)).astype(np.float32), requires_grad=True)
    loss = grad.l2(w)
    lam = vqtok.adaptive_adv_weight(loss, loss, [w])
    assert abs(lam - 1.0) < 1e-4
    # detached adversarial loss: zero grad norm, division guard engages
    detached = grad.l2(grad.stop_gradient(w))
    lam = vqtok.adaptive_adv_weight(loss, detached, [w], clamp=1e4)
    assert lam == 1e4 or lam < 1e4  # clamped, finite
    assert np.isfinite(lam)


def test_adaptive_weight_matches_replay_oracle():
    rng = np.random.default_rng(14)
    w = grad.Tensor(rng.normal(size=(3, 3)).astype(np.float32), requires_grad=True)
    l_rec = grad.l1(w)
    l_adv = grad.l2(w) * 0.5
    lam = vqtok.adaptive_adv_weight(l_rec, l_adv, [w])
    g_rec = np.linalg.norm(grad.grads(l_rec, [w])[0])
    g_adv = np.linalg.norm(grad.grads(l_adv, [w])[0])
    assert abs(lam - g_rec / (g_adv + 1e-6)) < 1e-5


# ---------------------------------------------------------------------------
# shapes and round trips


def test_encoder_decoder_geometry():
    cfg, rng = _tiny_setup()
    tok = vqtok.Tokenizer(4, cfg, rng)
    x = rng.normal(size=(2, 8, 64, 64)).astype(np.float32)
    z = tok.encode(grad.Tensor(x))
    assert z.shape == (2, cfg.latent_dim, 4, 8)   # 16x freq, 8x time
    grid = vqtok.quantize(z, tok.codebook)
    s_hat = tok.decode(grid.quantized)
    assert s_hat.shape == (2, 4, 64, 64)
    assert np.all(np.abs(s_hat.data) <= 1.0)


def test_detokenize_from_indices():
    """Token ids alone must decode back to a spectrogram: the ids are the
    representation, so ``detokenize`` needs no encoder output beside them."""
    cfg, rng = _tiny_setup()
    tok = vqtok.Tokenizer(4, cfg, rng)
    idx = rng.integers(0, cfg.codebook_size, size=(4, 8))
    out = vqtok.detokenize(idx, tok)
    assert out.shape == (1, 4, 64, 64)
    with pytest.raises(DataError):
        vqtok.detokenize(np.full((4, 8), cfg.codebook_size), tok)


def test_quantization_idempotent():
    cfg, rng = _tiny_setup()
    book = vqtok.Codebook(cfg.codebook_size, cfg.latent_dim, rng)
    idx = np.arange(cfg.codebook_size).reshape(1, 4, 4)
    z = book.entries.data[idx].transpose(0, 3, 1, 2)
    grid = vqtok.quantize(grad.Tensor(z.copy()), book)
    assert np.array_equal(grid.indices, idx)


def test_token_cache_roundtrip(tmp_path):
    rng = np.random.default_rng(15)
    idx = rng.integers(0, 64, size=(4, 8))
    path = tmp_path / "s.tok"
    vqtok.write_tokens(path, idx, 64, "s00042")
    back, k, sid = vqtok.read_tokens(path)
    assert np.array_equal(back, idx)
    assert k == 64 and sid == "s00042"
    with pytest.raises(DataError):
        vqtok.write_tokens(tmp_path / "bad.tok", np.array([[64]]), 64, "x")
    (tmp_path / "corrupt.tok").write_bytes(b"XXXXXXXX" + b"\0" * 16)
    with pytest.raises(DataError):
        vqtok.read_tokens(tmp_path / "corrupt.tok")


# ---------------------------------------------------------------------------
# training steps


def test_trainer_step_runs_and_updates():
    cfg, _ = _tiny_setup()
    cfg.batch_size = 2
    trainer = vqtok.VqTrainer(3, cfg, (1,), seed=20)
    rng = np.random.default_rng(21)
    values = np.clip(rng.normal(0, 0.3, size=(4, 3, 64, 64)), -1, 1).astype(np.float32)
    avail = np.ones((4, 3), dtype=bool)
    before = {k: v.data.copy() for k, v in
              trainer.tokenizer.named_parameters().items()}
    losses = trainer.step(values[:2], avail[:2])
    assert np.isfinite(losses.total)
    changed = any(not np.array_equal(before[k], v.data)
                  for k, v in trainer.tokenizer.named_parameters().items())
    assert changed
    assert trainer.tokenizer.codebook.usage.sum() > 0


def test_perfect_reconstruction_zero_losses():
    # lambda_adv 0, s_hat == s, z == entries -> every loss term is 0
    s = grad.Tensor(np.random.default_rng(22).normal(
        size=(1, 2, 4, 4)).astype(np.float32))
    assert float(vqtok.recon_loss(s, s).data) == 0.0
    book = vqtok.Codebook(8, 4, np.random.default_rng(23))
    idx = np.zeros((1, 2, 2), dtype=np.int64)
    z = book.entries.data[idx].transpose(0, 3, 1, 2)
    grid = vqtok.quantize(grad.Tensor(z.copy()), book)
    assert float(vqtok.vq_losses(grid, 0.8, 0.2).data) == 0.0


def test_dead_code_revival():
    cfg, _ = _tiny_setup()
    cfg.dead_code_steps = 3
    cfg.batch_size = 2
    trainer = vqtok.VqTrainer(3, cfg, (), seed=24)
    rng = np.random.default_rng(25)
    values = np.clip(rng.normal(0, 0.3, size=(4, 3, 64, 64)), -1, 1).astype(np.float32)
    avail = np.ones((4, 3), dtype=bool)
    book = trainer.tokenizer.codebook
    frozen = book.entries.data.copy()
    for _ in range(6):
        trainer.step(values[:2], avail[:2])
    # unused entries were reseeded; last_used is fresh for all revived codes
    assert np.all(trainer.step_count - book.last_used < 2 * cfg.dead_code_steps)
