"""Multi-channel spectrogram VQ tokenizer.

Joint-channel convolutional encoder over 2C input planes (masked
spectrograms plus 0/1 availability planes), nearest-neighbor codebook
quantization with a straight-through backward path, transposed-conv decoder,
hinge PatchGAN discriminator, and the channel-mask curriculum.  The
reconstruction loss is decomposed into a channel-mean term and an upweighted
per-channel differential term.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import grad
from .config import TokenizerConfig
from .errors import DataError, NumericError


@dataclass
class MaskSchedule:
    p_psg_target: float = 0.3
    p_drop_target: float = 0.1
    ramp_steps: int = 200
    psg_subset: tuple[int, ...] = ()

    def effective(self, step: int) -> tuple[float, float]:
        ramp = min(1.0, step / max(self.ramp_steps, 1))
        return self.p_psg_target * ramp, self.p_drop_target * ramp


@dataclass
class TokenGrid:
    indices: np.ndarray        # (B, H', W') ints in [0, K)
    quantized: grad.Tensor     # (B, d, H', W'), straight-through
    latents: grad.Tensor       # encoder output z = E(S)
    entries_selected: grad.Tensor  # codebook rows, gradient flows to codebook


class Codebook(grad.Module):
    def __init__(self, k: int, dim: int, rng: np.random.Generator):
        if k < 2:
            raise DataError(f"codebook size {k} < 2")
        self.entries = grad.param((k, dim), rng, scale=0.1)
        self.usage = np.zeros(k, dtype=np.int64)
        self.last_used = np.zeros(k, dtype=np.int64)

    @property
    def k(self) -> int:
        return self.entries.shape[0]


# nearest_indices works on row chunks whose exact (rows, K, d) float64
# difference tensor holds at most this many elements
_NN_CHUNK_ELEMENTS = 1 << 24


def nearest_indices(latents: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Exhaustive L2 nearest neighbor; argmin breaks ties at the lowest index.

    ``latents``: (..., d); ``entries``: (K, d).
    """
    flat = latents.reshape(-1, latents.shape[-1]).astype(np.float64)
    e = entries.astype(np.float64)
    rows = max(1, _NN_CHUNK_ELEMENTS // e.size)
    out = np.empty(flat.shape[0], dtype=np.intp)
    for i in range(0, flat.shape[0], rows):
        # exact squared distances (no |z|^2 shortcut, ties must be exact)
        d2 = ((flat[i:i + rows, None, :] - e[None, :, :]) ** 2).sum(axis=2)
        out[i:i + rows] = np.argmin(d2, axis=1)
    return out.reshape(latents.shape[:-1])


def quantize(latents: grad.Tensor, codebook: Codebook) -> TokenGrid:
    """Nearest codebook entry per grid position, straight-through backward."""
    if not np.all(np.isfinite(latents.data)):
        raise NumericError("non-finite latents entering quantization")
    z = grad.transpose(latents, (0, 2, 3, 1))        # (B, H', W', d)
    idx = nearest_indices(z.data, codebook.entries.data)
    selected = grad.getitem(codebook.entries, idx)
    # straight-through: forward value is the entry, gradient copies past it
    st = grad.add(z, grad.stop_gradient(grad.add(selected, grad.mul(z, -1.0))))
    return TokenGrid(indices=idx,
                     quantized=grad.transpose(st, (0, 3, 1, 2)),
                     latents=latents,
                     entries_selected=grad.transpose(selected, (0, 3, 1, 2)))


def recon_loss(s: grad.Tensor, s_hat: grad.Tensor, gamma_diff: float = 4.0) -> grad.Tensor:
    """Channel-mean L1 plus upweighted per-channel differential L1.

    Both terms average over batch and the H x W grid; the differential term
    sums over channels with weight gamma_diff / C.
    """
    if s.shape != s_hat.shape:
        raise grad.ShapeError(f"recon_loss: {s.shape} vs {s_hat.shape}")
    c = s.shape[1]
    mean_s = grad.mean(s, axis=1, keepdims=True)
    mean_h = grad.mean(s_hat, axis=1, keepdims=True)
    mean_term = grad.l1(mean_s, mean_h)
    diff_term = grad.mean(grad.abs_(
        (s - mean_s) - (s_hat - mean_h)), axis=(0, 2, 3))  # (C,)
    return mean_term + grad.sum_(diff_term) * (gamma_diff / c)


def vq_losses(grid: TokenGrid, lambda_code: float,
              lambda_commit: float) -> grad.Tensor:
    """lambda_code ||sg[E(S)] - Z||^2 + lambda_commit ||E(S) - sg[Z]||^2."""
    z, q = grid.latents, grid.entries_selected
    code = grad.l2(grad.stop_gradient(z), q)
    commit = grad.l2(z, grad.stop_gradient(q))
    return code * lambda_code + commit * lambda_commit


# ---------------------------------------------------------------------------
# networks


def _conv_param(cout, cin, k, rng):
    return grad.param((cout, cin, k, k), rng, scale=1.0 / np.sqrt(cin * k * k))


class _ResBlock(grad.Module):
    def __init__(self, ch: int, rng):
        self.w1 = _conv_param(ch, ch, 3, rng)
        self.b1 = grad.param((ch,), rng, zeros=True)
        self.w2 = _conv_param(ch, ch, 3, rng)
        self.b2 = grad.param((ch,), rng, zeros=True)

    def __call__(self, x):
        h = grad.relu(grad.conv2d(x, self.w1, self.b1, stride=1, padding=1))
        return x + grad.conv2d(h, self.w2, self.b2, stride=1, padding=1)


class Encoder(grad.Module):
    """Five strided levels with residual blocks, 16x freq / 8x time total."""

    def __init__(self, in_planes: int, cfg: TokenizerConfig, rng):
        self.levels = []
        cin = in_planes
        for ch, _stride in zip(cfg.level_channels, cfg.level_strides):
            down = grad.Module()
            down.w = _conv_param(ch, cin, 3, rng)
            down.b = grad.param((ch,), rng, zeros=True)
            down.res = _ResBlock(ch, rng)
            self.levels.append(down)
            cin = ch
        self.strides = list(cfg.level_strides)
        self.w_out = grad.param((cfg.latent_dim, cin, 1, 1), rng,
                                scale=1.0 / np.sqrt(cin))
        self.b_out = grad.param((cfg.latent_dim,), rng, zeros=True)

    def __call__(self, x):
        for level, stride in zip(self.levels, self.strides):
            x = grad.relu(grad.conv2d(x, level.w, level.b,
                                      stride=stride, padding=1))
            x = level.res(x)
        return grad.conv2d(x, self.w_out, self.b_out)


class Decoder(grad.Module):
    """Transposed-conv mirror of the encoder; tanh keeps output in [-1, 1]."""

    def __init__(self, out_channels: int, cfg: TokenizerConfig, rng):
        chans = list(reversed(cfg.level_channels))
        self.strides = list(reversed(cfg.level_strides))
        self.w_in = grad.param((chans[0], cfg.latent_dim, 1, 1), rng,
                               scale=1.0 / np.sqrt(cfg.latent_dim))
        self.b_in = grad.param((chans[0],), rng, zeros=True)
        self.levels = []
        cin = chans[0]
        for i, stride in enumerate(self.strides):
            cout = chans[min(i + 1, len(chans) - 1)]
            up = grad.Module()
            up.res = _ResBlock(cin, rng)
            up.w = grad.param((cin, cout, 3, 3), rng,
                              scale=1.0 / np.sqrt(cin * 9))
            up.b = grad.param((cout,), rng, zeros=True)
            self.levels.append(up)
            cin = cout
        # final projection: the anchor layer for the adaptive GAN weight
        self.w_out = _conv_param(out_channels, cin, 3, rng)
        self.b_out = grad.param((out_channels,), rng, zeros=True)

    def __call__(self, z):
        x = grad.conv2d(z, self.w_in, self.b_in)
        for up, (sf, st) in zip(self.levels, self.strides):
            x = up.res(x)
            x = grad.relu(grad.transposed_conv2d(
                x, up.w, up.b, stride=(sf, st), padding=1,
                output_padding=(sf - 1, st - 1)))
        return grad.tanh(grad.conv2d(x, self.w_out, self.b_out, padding=1))

    @property
    def final_layer_params(self) -> list[grad.Tensor]:
        return [self.w_out]


class PatchDiscriminator(grad.Module):
    """Three strided conv layers onto a patch logit map."""

    def __init__(self, in_channels: int, cfg: TokenizerConfig, rng):
        self.layers = []
        cin = in_channels
        for ch in cfg.disc_channels:
            layer = grad.Module()
            layer.w = _conv_param(ch, cin, 3, rng)
            layer.b = grad.param((ch,), rng, zeros=True)
            self.layers.append(layer)
            cin = ch
        self.w_out = grad.param((1, cin, 1, 1), rng, scale=1.0 / np.sqrt(cin))
        self.b_out = grad.param((1,), rng, zeros=True)

    def __call__(self, x):
        for layer in self.layers:
            x = grad.relu(grad.conv2d(x, layer.w, layer.b, stride=2, padding=1))
        return grad.conv2d(x, self.w_out, self.b_out)


class Tokenizer(grad.Module):
    def __init__(self, n_channels: int, cfg: TokenizerConfig,
                 rng: np.random.Generator):
        self.encoder = Encoder(2 * n_channels, cfg, rng)
        self.decoder = Decoder(n_channels, cfg, rng)
        self.codebook = Codebook(cfg.codebook_size, cfg.latent_dim, rng)
        self.n_channels = n_channels

    def encode(self, planes: grad.Tensor) -> grad.Tensor:
        return self.encoder(planes)

    def decode(self, quantized: grad.Tensor) -> grad.Tensor:
        return self.decoder(quantized)


def detokenize(indices: np.ndarray, tokenizer: Tokenizer) -> np.ndarray:
    """Reconstruct C x H x W spectrograms from token indices alone."""
    if indices.ndim == 2:
        indices = indices[None]
    if indices.min() < 0 or indices.max() >= tokenizer.codebook.k:
        raise DataError("token index out of codebook range")
    q = grad.getitem(tokenizer.codebook.entries, indices)
    out = tokenizer.decode(grad.transpose(q, (0, 3, 1, 2)))
    return out.data


# ---------------------------------------------------------------------------
# channel masking


def mask_sample(schedule: MaskSchedule, step: int, n_channels: int,
                rng: np.random.Generator) -> np.ndarray:
    """Boolean keep-mask over channels under the ramped curriculum.

    With probability p_psg restrict to the PSG subset, then drop each
    remaining channel independently with p_drop; at least one channel always
    survives (resample on empty, forced keep as a last resort).
    """
    p_psg, p_drop = schedule.effective(step)
    psg = np.zeros(n_channels, dtype=bool)
    psg[list(schedule.psg_subset)] = True
    for _ in range(100):
        keep = psg.copy() if (psg.any() and rng.random() < p_psg) \
            else np.ones(n_channels, dtype=bool)
        keep &= rng.random(n_channels) >= p_drop
        if keep.any():
            return keep
    keep = np.zeros(n_channels, dtype=bool)
    keep[int(rng.integers(0, n_channels))] = True
    return keep


def encoder_planes(values: np.ndarray, available: np.ndarray) -> np.ndarray:
    """Stack masked spectrograms with 0/1 availability planes:
    (..., C, H, W) values and (..., C) availability -> (..., 2C, H, W).

    Unavailable channels are forced to the clamp floor so the encoder never
    sees stale content behind a zero mask plane.
    """
    c = values.shape[-3]
    planes = np.empty((*values.shape[:-3], 2 * c, *values.shape[-2:]), np.float32)
    planes[..., :c, :, :] = values
    planes[..., :c, :, :][~available] = -1.0
    planes[..., c:, :, :] = available[..., None, None]
    return planes


# ---------------------------------------------------------------------------
# GAN pieces


def discriminator_loss(disc: PatchDiscriminator, real: grad.Tensor,
                       fake: grad.Tensor) -> tuple[grad.Tensor, grad.Tensor]:
    """Hinge loss; the fake path is detached inside d_loss only."""
    d_real = disc(real)
    d_fake_detached = disc(grad.stop_gradient(fake))
    d_loss = grad.mean(grad.relu(1.0 - d_real)) + \
        grad.mean(grad.relu(1.0 + d_fake_detached))
    g_adv = grad.mean(disc(fake)) * -1.0
    return d_loss, g_adv


def adaptive_adv_weight(l_rec: grad.Tensor, l_adv: grad.Tensor,
                        anchor_params: list[grad.Tensor],
                        clamp: float = 1e4) -> float:
    rec_norm = grad.grad_norm(l_rec, anchor_params)
    adv_norm = grad.grad_norm(l_adv, anchor_params)
    return float(np.clip(rec_norm / (adv_norm + 1e-6), 0.0, clamp))


# ---------------------------------------------------------------------------
# training


@dataclass
class StepLosses:
    total: float
    rec: float
    vq: float
    adv: float
    d_loss: float
    lambda_adv: float


class VqTrainer:
    def __init__(self, n_channels: int, cfg: TokenizerConfig,
                 psg_subset: tuple[int, ...], seed: int):
        rng = np.random.default_rng(seed)
        self.cfg = cfg
        self.tokenizer = Tokenizer(n_channels, cfg, rng)
        self.disc = PatchDiscriminator(n_channels, cfg, rng)
        self.schedule = MaskSchedule(cfg.p_psg, cfg.p_drop, cfg.ramp_steps,
                                     psg_subset)
        self.opt_g = grad.adam_gan(self.tokenizer.parameters(), lr=cfg.lr)
        self.opt_d = grad.adam_gan(self.disc.parameters(), lr=cfg.lr)
        self.rng = np.random.default_rng(seed + 1)
        self.step_count = 0

    def step(self, values: np.ndarray, available: np.ndarray) -> StepLosses:
        """One optimization step on a (B, C, H, W) batch.

        ``available`` is the per-session channel availability (B, C); the
        curriculum mask is drawn on top of it, the reconstruction target and
        the discriminator's real sample stay unmasked.
        """
        cfg, tok = self.cfg, self.tokenizer
        keep = [mask_sample(self.schedule, self.step_count, values.shape[1],
                            self.rng) for _ in range(values.shape[0])]
        planes = encoder_planes(values, available & np.array(keep))
        z = tok.encode(grad.Tensor(planes))
        if self.step_count == 0:
            # seed the codebook from the first batch's latents so entries
            # start inside the latent distribution instead of near zero
            flat = z.data.transpose(0, 2, 3, 1).reshape(
                -1, tok.codebook.entries.shape[1])
            picks = self.rng.choice(flat.shape[0], size=tok.codebook.k,
                                    replace=flat.shape[0] < tok.codebook.k)
            tok.codebook.entries.data = flat[picks].astype(grad.DTYPE).copy()
        grid = quantize(z, tok.codebook)
        s_hat = tok.decode(grid.quantized)
        target = grad.Tensor(values)
        l_rec = recon_loss(target, s_hat, cfg.gamma_diff)
        l_vq = vq_losses(grid, cfg.lambda_code, cfg.lambda_commit)
        lam = 0.0
        l_adv = None
        d_val = 0.0
        if self.step_count >= cfg.adv_start_step:
            d_loss, l_adv = discriminator_loss(self.disc, target, s_hat)
            lam = adaptive_adv_weight(l_rec, l_adv,
                                      tok.decoder.final_layer_params,
                                      cfg.adv_weight_clamp)
            self.opt_d.zero_grad()
            d_loss.backward()
            self.opt_d.step()
            d_val = float(d_loss.data)
        total = l_rec + l_vq if l_adv is None else l_rec + l_vq + l_adv * lam
        if not np.isfinite(total.data):
            raise NumericError(f"non-finite tokenizer loss at step {self.step_count}")
        self.opt_g.zero_grad()
        total.backward()
        self.opt_g.step()
        self._update_usage(grid)
        self.step_count += 1
        return StepLosses(total=float(total.data), rec=float(l_rec.data),
                          vq=float(l_vq.data),
                          adv=0.0 if l_adv is None else float(l_adv.data),
                          d_loss=d_val, lambda_adv=lam)

    def _update_usage(self, grid: TokenGrid) -> None:
        book = self.tokenizer.codebook
        used, counts = np.unique(grid.indices, return_counts=True)
        book.usage[used] += counts
        book.last_used[used] = self.step_count
        # dead-code revival: reseed long-unused entries from batch latents
        dead = np.flatnonzero(self.step_count - book.last_used
                              >= self.cfg.dead_code_steps)
        if dead.size:
            flat = grid.latents.data.transpose(0, 2, 3, 1).reshape(
                -1, book.entries.shape[1])
            picks = self.rng.integers(0, flat.shape[0], size=dead.size)
            book.entries.data[dead] = flat[picks]
            book.last_used[dead] = self.step_count


def train_tokenizer(values: np.ndarray, available: np.ndarray,
                    cfg: TokenizerConfig, psg_subset: tuple[int, ...],
                    seed: int) -> tuple[VqTrainer, list[StepLosses]]:
    """Smoke-scale training loop over an in-memory (N, C, H, W) dataset."""
    trainer = VqTrainer(values.shape[1], cfg, psg_subset, seed)
    batch_rng = np.random.default_rng(seed + 2)
    history = []
    for _ in range(cfg.steps):
        pick = batch_rng.integers(0, values.shape[0], size=cfg.batch_size)
        history.append(trainer.step(values[pick], available[pick]))
    return trainer, history


def tokenize_sessions(tokenizer: Tokenizer, values: np.ndarray,
                      available: np.ndarray, batch_size: int = 16) -> np.ndarray:
    """Inference-mode token indices for (N, C, H, W) spectrograms."""
    out = []
    for i in range(0, values.shape[0], batch_size):
        planes = encoder_planes(values[i:i + batch_size],
                                available[i:i + batch_size])
        z = tokenizer.encode(grad.Tensor(planes))
        out.append(nearest_indices(z.data.transpose(0, 2, 3, 1),
                                   tokenizer.codebook.entries.data))
    return np.concatenate(out, axis=0)


# ---------------------------------------------------------------------------
# token cache format

_TOK_MAGIC = b"CLEFTOK1"
_TOK_HEADER = struct.Struct("<8sIIII")


def write_tokens(path, indices: np.ndarray, codebook_size: int,
                 session_id: str) -> None:
    h, w = indices.shape
    if indices.min() < 0 or indices.max() >= min(codebook_size, 1 << 16):
        raise DataError("token indices out of uint16/codebook range")
    sid = session_id.encode()
    with open(path, "wb") as fh:
        fh.write(_TOK_HEADER.pack(_TOK_MAGIC, codebook_size, h, w, len(sid)))
        fh.write(sid)
        fh.write(np.ascontiguousarray(indices, dtype="<u2").tobytes())


def read_tokens(path) -> tuple[np.ndarray, int, str]:
    with open(path, "rb") as fh:
        raw = fh.read(_TOK_HEADER.size)
        if len(raw) < _TOK_HEADER.size:
            raise DataError(f"{path}: truncated token header")
        magic, k, h, w, id_len = _TOK_HEADER.unpack(raw)
        if magic != _TOK_MAGIC:
            raise DataError(f"{path}: bad magic {magic!r}")
        sid = fh.read(id_len).decode()
        indices = np.frombuffer(fh.read(h * w * 2), dtype="<u2")
        if indices.size != h * w:
            raise DataError(f"{path}: truncated token payload")
    indices = indices.reshape(h, w).astype(np.int64)
    if indices.max() >= k:
        raise DataError(f"{path}: index {indices.max()} >= codebook size {k}")
    return indices, k, sid
