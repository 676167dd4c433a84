"""Multi-channel spectrogram VQ tokenizer.

Joint-channel convolutional encoder over 2C input planes (masked
spectrograms plus 0/1 availability planes), nearest-neighbor codebook
quantization with a straight-through backward path, transposed-conv decoder,
and the channel-mask curriculum.  The reconstruction loss is decomposed into
a channel-mean term and an upweighted per-channel differential term.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import grad
from .config import TokenizerConfig
from .errors import DataError, NumericError


@dataclass
class TokenGrid:
    indices: np.ndarray        # (B, H', W') ints in [0, K)
    quantized: grad.Tensor     # (B, d, H', W'), straight-through
    latents: grad.Tensor       # encoder output z = E(S)
    entries_selected: grad.Tensor  # codebook rows, gradient flows to codebook


class Codebook(grad.Module):
    def __init__(self, k: int, dim: int, rng: np.random.Generator):
        self.entries = grad.param((k, dim), rng, scale=0.1)

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


def latent_rows(latents: np.ndarray) -> np.ndarray:
    """(B, d, H', W') encoder latents as (B·H'·W', d) rows in grid order."""
    return latents.transpose(0, 2, 3, 1).reshape(-1, latents.shape[1])


def token_ids(latents: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """(B, H', W') nearest-entry ids of (B, d, H', W') encoder latents, in
    training and in ``tokenize`` alike; non-finite latents are refused."""
    if not np.all(np.isfinite(latents)):
        raise NumericError("non-finite latents entering quantization")
    return nearest_indices(latents.transpose(0, 2, 3, 1), entries)


def quantize(latents: grad.Tensor, codebook: Codebook) -> TokenGrid:
    """Nearest codebook entry per grid position, straight-through backward."""
    idx = token_ids(latents.data, codebook.entries.data)
    z = grad.transpose(latents, (0, 2, 3, 1))        # (B, H', W', d)
    selected = grad.getitem(codebook.entries, idx)
    # straight-through: forward value is the entry, gradient copies past it
    st = grad.add(z, grad.stop_gradient(grad.add(selected, grad.mul(z, -1.0))))
    return TokenGrid(indices=idx,
                     quantized=grad.transpose(st, (0, 3, 1, 2)),
                     latents=latents,
                     entries_selected=grad.transpose(selected, (0, 3, 1, 2)))


def recon_loss(s: grad.Tensor, s_hat: grad.Tensor, gamma_diff: float) -> grad.Tensor:
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


def mask_sample(cfg: TokenizerConfig, psg_subset: tuple[int, ...], step: int,
                n_channels: int, rng: np.random.Generator) -> np.ndarray:
    """Boolean keep-mask over channels under the ramped curriculum.

    ``cfg.p_psg`` and ``cfg.p_drop`` ramp linearly from 0 over
    ``cfg.ramp_steps``.  With probability p_psg restrict to the PSG subset,
    then drop each remaining channel independently with p_drop; at least one
    channel always survives (resample on empty, forced keep as a last
    resort).
    """
    ramp = min(1.0, step / max(cfg.ramp_steps, 1))
    p_psg, p_drop = cfg.p_psg * ramp, cfg.p_drop * ramp
    psg = np.zeros(n_channels, dtype=bool)
    psg[list(psg_subset)] = True
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
# training


class VqTrainer:
    def __init__(self, n_channels: int, cfg: TokenizerConfig,
                 psg_subset: tuple[int, ...], seed: int):
        self.cfg = cfg
        self.tokenizer = Tokenizer(n_channels, cfg, np.random.default_rng(seed))
        self.psg_subset = psg_subset
        self.opt = grad.AdamW(self.tokenizer.parameters(), lr=cfg.lr,
                              beta1=0.0, beta2=0.99, weight_decay=0.0)
        self.rng = np.random.default_rng(seed + 1)
        self.step_count = 0
        # the step at which each codebook entry was last picked or revived
        self.last_used = np.zeros(cfg.codebook_size, dtype=np.int64)

    def step(self, values: np.ndarray, available: np.ndarray) -> dict[str, float]:
        """One optimization step on a (B, C, H, W) batch; returns the step's
        row of ``recon`` and ``vq`` losses.

        ``available`` is the per-session channel availability (B, C); the
        curriculum mask is drawn on top of it, the reconstruction target
        stays unmasked.
        """
        cfg, tok = self.cfg, self.tokenizer
        keep = [mask_sample(cfg, self.psg_subset, self.step_count,
                            values.shape[1], self.rng)
                for _ in range(values.shape[0])]
        planes = encoder_planes(values, available & np.array(keep))
        z = tok.encode(grad.Tensor(planes))
        if self.step_count == 0:
            # seed the codebook from the first batch's latents so entries
            # start inside the latent distribution instead of near zero
            flat = latent_rows(z.data)
            picks = self.rng.choice(flat.shape[0], size=tok.codebook.k,
                                    replace=flat.shape[0] < tok.codebook.k)
            tok.codebook.entries.data = flat[picks].astype(grad.DTYPE).copy()
        grid = quantize(z, tok.codebook)
        s_hat = tok.decode(grid.quantized)
        l_rec = recon_loss(grad.Tensor(values), s_hat, cfg.gamma_diff)
        l_vq = vq_losses(grid, cfg.lambda_code, cfg.lambda_commit)
        total = l_rec + l_vq
        if not np.isfinite(total.data):
            raise NumericError(f"non-finite tokenizer loss at step {self.step_count}")
        self.opt.step(total.backward(self.opt.params))
        self._revive_dead_codes(grid)
        self.step_count += 1
        return {"recon": float(l_rec.data), "vq": float(l_vq.data)}

    def _revive_dead_codes(self, grid: TokenGrid) -> None:
        """Reseed the entries that no batch has picked for
        ``cfg.dead_code_steps`` steps from this batch's latents."""
        book = self.tokenizer.codebook
        self.last_used[grid.indices] = self.step_count
        dead = np.flatnonzero(self.step_count - self.last_used
                              >= self.cfg.dead_code_steps)
        if dead.size:
            flat = latent_rows(grid.latents.data)
            picks = self.rng.integers(0, flat.shape[0], size=dead.size)
            book.entries.data[dead] = flat[picks]
            self.last_used[dead] = self.step_count


def train_tokenizer(values: np.ndarray, available: np.ndarray,
                    cfg: TokenizerConfig, psg_subset: tuple[int, ...],
                    seed: int) -> grad.Trained:
    """Smoke-scale training loop over an in-memory (N, C, H, W) dataset."""
    trainer = VqTrainer(values.shape[1], cfg, psg_subset, seed)
    batch_rng = np.random.default_rng(seed + 2)
    history = []
    for _ in range(cfg.steps):
        pick = batch_rng.integers(0, values.shape[0], size=cfg.batch_size)
        history.append(trainer.step(values[pick], available[pick]))
    return grad.Trained(trainer.tokenizer, None, history)


def tokenize_sessions(tokenizer: Tokenizer, values: np.ndarray,
                      available: np.ndarray, batch_size: int = 16) -> np.ndarray:
    """Inference-mode token indices for (N, C, H, W) spectrograms."""
    out = []
    for i in range(0, values.shape[0], batch_size):
        planes = encoder_planes(values[i:i + batch_size],
                                available[i:i + batch_size])
        z = tokenizer.encode(grad.Tensor(planes))
        out.append(token_ids(z.data, tokenizer.codebook.entries.data))
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
        try:
            sid = fh.read(id_len).decode()
        except UnicodeDecodeError:
            raise DataError(f"{path}: session id is not UTF-8") from None
        if h * w == 0:
            raise DataError(f"{path}: empty {h}x{w} token grid")
        indices = np.frombuffer(fh.read(h * w * 2), dtype="<u2")
        if indices.size != h * w:
            raise DataError(f"{path}: truncated token payload")
    indices = indices.reshape(h, w).astype(np.int64)
    if indices.max() >= k:
        raise DataError(f"{path}: index {indices.max()} >= codebook size {k}")
    return indices, k, sid
