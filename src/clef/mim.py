"""Session-scale masked token modeling (Stage I).

Each session is a token grid from the VQ tokenizer plus the raw spectrogram
patches behind each token.  Input embeddings sum the token embedding, a
linear patch projection, and factorized frequency/time positional tables.  A
truncated-Gaussian fraction of positions is masked; a quarter of those are
dropped from the encoder input entirely.  The decoder predicts the original
token ids at masked positions against the weight-tied token table, and the
mean-pooled encoder output is the patient embedding u.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grad
from .config import MimConfig
from .errors import DataError, NumericError

_NEG_BIAS = -1e9


@dataclass
class MaskPlan:
    masked: np.ndarray   # (B, N) bool
    dropped: np.ndarray  # (B, N) bool, subset of masked
    ratios: np.ndarray   # (B,) sampled mask ratios


def sample_mask_ratio(mu: float, sigma: float, lo: float, hi: float,
                      rng: np.random.Generator) -> float:
    """Truncated Gaussian by rejection (exact, not clipped)."""
    if not lo <= hi:
        raise DataError(f"mask ratio bounds [{lo}, {hi}] invalid")
    if lo == hi:
        return float(lo)
    for _ in range(10_000):
        r = rng.normal(mu, sigma)
        if lo <= r <= hi:
            return float(r)
    raise NumericError("mask ratio rejection sampler failed to terminate")


def sample_mask_plan(n: int, cfg: MimConfig, rng: np.random.Generator,
                     batch: int = 1) -> MaskPlan:
    """Independent per-sample plans over ``n`` positions."""
    masked = np.zeros((batch, n), dtype=bool)
    dropped = np.zeros((batch, n), dtype=bool)
    ratios = np.empty(batch)
    for b in range(batch):
        ratios[b] = sample_mask_ratio(cfg.mask_mu, cfg.mask_sigma,
                                      cfg.mask_lo, cfg.mask_hi, rng)
        chosen = rng.choice(n, size=min(int(np.ceil(ratios[b] * n)), n),
                            replace=False)
        masked[b, chosen] = True
        n_drop = int(chosen.size * cfg.r_drop)
        if n_drop:
            dropped[b, rng.choice(chosen, size=n_drop, replace=False)] = True
    return MaskPlan(masked=masked, dropped=dropped, ratios=ratios)


# ---------------------------------------------------------------------------
# transformer pieces


class _Attention(grad.Module):
    def __init__(self, d: int, n_heads: int, rng):
        if d % n_heads:
            raise DataError(f"d_model {d} not divisible by {n_heads} heads")
        self.n_heads = n_heads
        self.wq = grad.param((d, d), rng)
        self.wk = grad.param((d, d), rng)
        self.wv = grad.param((d, d), rng)
        self.wo = grad.param((d, d), rng)

    def __call__(self, x, bias):
        b, l, d = x.shape
        h = self.n_heads
        dh = d // h

        def split(t):
            return grad.transpose(grad.reshape(t, (b, l, h, dh)), (0, 2, 1, 3))

        q = split(grad.matmul(x, self.wq))
        k = split(grad.matmul(x, self.wk))
        v = split(grad.matmul(x, self.wv))
        out = grad.scaled_dot_attention(q, k, v, mask_bias=bias)
        out = grad.reshape(grad.transpose(out, (0, 2, 1, 3)), (b, l, d))
        return grad.matmul(out, self.wo)


class _Block(grad.Module):
    """Pre-norm transformer block."""

    def __init__(self, d: int, n_heads: int, mlp_ratio: int, rng):
        self.ln1_g = grad.Tensor(np.ones(d, dtype=grad.DTYPE), requires_grad=True)
        self.ln1_b = grad.param((d,), rng, zeros=True)
        self.attn = _Attention(d, n_heads, rng)
        self.ln2_g = grad.Tensor(np.ones(d, dtype=grad.DTYPE), requires_grad=True)
        self.ln2_b = grad.param((d,), rng, zeros=True)
        self.w1 = grad.param((d, mlp_ratio * d), rng)
        self.b1 = grad.param((mlp_ratio * d,), rng, zeros=True)
        self.w2 = grad.param((mlp_ratio * d, d), rng)
        self.b2 = grad.param((d,), rng, zeros=True)

    def __call__(self, x, bias, p_drop=0.0, rng=None):
        h = self.attn(grad.layernorm(x, self.ln1_g, self.ln1_b), bias)
        x = x + grad.dropout(h, p_drop, rng)
        h = grad.layernorm(x, self.ln2_g, self.ln2_b)
        h = grad.matmul(grad.gelu(grad.matmul(h, self.w1) + self.b1), self.w2) + self.b2
        return x + grad.dropout(h, p_drop, rng)


def _stack(depth, d, n_heads, mlp_ratio, rng):
    return [_Block(d, n_heads, mlp_ratio, rng) for _ in range(depth)]


def _ln_params(d):
    return (grad.Tensor(np.ones(d, dtype=grad.DTYPE), requires_grad=True),
            grad.Tensor(np.zeros(d, dtype=grad.DTYPE), requires_grad=True))


class MimModel(grad.Module):
    def __init__(self, codebook_size: int, patch_dim: int,
                 grid_hw: tuple[int, int], cfg: MimConfig,
                 rng: np.random.Generator):
        # patch_dim: width of one raw patch row, C * ph * pw
        h, w = grid_hw
        self.n_positions = h * w
        d = cfg.d_model
        self.cfg = cfg
        self.token_table = grad.param((codebook_size, d), rng, scale=0.02)
        self.w_patch = grad.param((patch_dim, d), rng)
        self.p_freq = grad.param((h, d), rng, scale=0.02)
        self.p_time = grad.param((w, d), rng, scale=0.02)
        self.mask_emb = grad.param((d,), rng, scale=0.02)
        self.proxy = grad.param((d,), rng, scale=0.02)
        self.encoder = _stack(cfg.depth, d, cfg.n_heads, cfg.mlp_ratio, rng)
        self.enc_ln_g, self.enc_ln_b = _ln_params(d)
        # decoder side (discarded after Stage I)
        self.w_proxy = grad.param((d, d), rng)
        self.b_proxy = grad.param((d,), rng, zeros=True)
        self.p_full = grad.param((self.n_positions + 1, d), rng, scale=0.02)
        self.decoder = _stack(cfg.dec_depth, d, cfg.n_heads, cfg.mlp_ratio, rng)
        self.dec_ln_g, self.dec_ln_b = _ln_params(d)
        self.head_w = grad.param((d, d), rng)
        self.head_b = grad.param((d,), rng, zeros=True)
        self.head_ln_g, self.head_ln_b = _ln_params(d)
        # precomputed grid coordinates, position-major over (freq, time)
        pos = np.arange(self.n_positions)
        self.coord_h = pos // w
        self.coord_w = pos % w

    def encoder_parameter_names(self) -> list[str]:
        """Parameters kept after Stage I (decoder/head are discardable)."""
        discard_prefixes = ("w_proxy", "b_proxy", "p_full", "decoder.",
                            "dec_ln_", "head_")
        return [name for name in self.named_parameters()
                if not name.startswith(discard_prefixes)]


def load_encoder(model: MimModel, weights: dict[str, np.ndarray]) -> None:
    """Strict copy of ``weights`` into every encoder parameter of ``model``:
    a missing name or a shape of another geometry is a ``DataError``."""
    params = model.named_parameters()
    grad.assign_parameters({n: params[n] for n in
                            model.encoder_parameter_names()}, weights)


def extract_patches(values: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """(..., C, H, W) spectrograms -> (..., N, C*ph*pw) patches, one per token."""
    *lead, c, h, w = values.shape
    if h % ph or w % pw:
        raise DataError(f"spectrogram {h}x{w} not divisible by patch {ph}x{pw}")
    gh, gw = h // ph, w // pw
    p = np.moveaxis(values.reshape(*lead, c, gh, ph, gw, pw), (-4, -2), (-5, -4))
    return p.reshape(*lead, gh * gw, c * ph * pw)


def embed_inputs(model: MimModel, ids: np.ndarray, patches: np.ndarray,
                 plan: MaskPlan | None = None) -> grad.Tensor:
    """Summed embeddings with the proxy token prepended -> (B, N+1, d).

    Masked-but-not-dropped positions are replaced by the learnable mask
    embedding with their positional terms retained; dropped positions keep
    their embedding here but are excluded from attention downstream.
    """
    b, n = ids.shape
    if n != model.n_positions:
        raise DataError(f"{n} positions, model expects {model.n_positions}")
    tok = grad.getitem(model.token_table, ids)
    patch = grad.matmul(grad.Tensor(patches.astype(grad.DTYPE)), model.w_patch)
    pos = grad.getitem(model.p_freq, model.coord_h) + \
        grad.getitem(model.p_time, model.coord_w)    # (N, d)
    content = tok + patch
    if plan is not None:
        m = (plan.masked & ~plan.dropped).astype(grad.DTYPE)[:, :, None]
        mask_row = grad.reshape(model.mask_emb, (1, 1, -1))
        content = content * grad.Tensor(1.0 - m) + mask_row * grad.Tensor(m)
    x = content + grad.reshape(pos, (1, n, -1))
    proxy = grad.mul(grad.reshape(model.proxy, (1, 1, -1)),
                     grad.Tensor(np.ones((b, 1, 1), dtype=grad.DTYPE)))
    return grad.concat([proxy, x], axis=1)


def _attention_bias(keep: np.ndarray) -> grad.Tensor:
    # (B, L) keep -> additive bias (B, 1, 1, L)
    bias = np.where(keep, 0.0, _NEG_BIAS).astype(grad.DTYPE)
    return grad.Tensor(bias[:, None, None, :])


@dataclass
class MimForward:
    u: grad.Tensor              # (B, d) pooled patient embedding
    logits: grad.Tensor | None  # (|M|, K) at masked positions
    targets: np.ndarray | None  # (|M|,) original token ids


def mim_forward(model: MimModel, ids: np.ndarray, patches: np.ndarray,
                plan: MaskPlan | None = None,
                keep: np.ndarray | None = None,
                train_rng: np.random.Generator | None = None) -> MimForward:
    """``keep`` (B, N): positions the encoder sees and u pools (default all);
    a plan's dropped positions are left out as well."""
    b, n = ids.shape
    x = embed_inputs(model, ids, patches, plan)
    kept = np.ones((b, n), dtype=bool) if keep is None else keep
    if plan is not None:
        kept = kept & ~plan.dropped
    keep_full = np.concatenate(
        [np.ones((b, 1), dtype=bool), kept], axis=1)    # proxy always attends
    bias = _attention_bias(keep_full)
    p_drop = model.cfg.dropout if train_rng is not None else 0.0
    for block in model.encoder:
        x = block(x, bias, p_drop, train_rng)
    enc = grad.layernorm(x, model.enc_ln_g, model.enc_ln_b)

    pool_mask = keep_full.copy()
    pool_mask[:, 0] = False     # u pools the session tokens, not the proxy
    u = grad.mean_pool_masked(enc, grad.Tensor(pool_mask.astype(grad.DTYPE)))

    if plan is None:
        return MimForward(u=u, logits=None, targets=None)

    # decoder: fill masked and dropped slots with the projected proxy
    proxy_rep = grad.matmul(grad.getitem(enc, (slice(None), slice(0, 1))),
                            model.w_proxy) + model.b_proxy   # (B, 1, d)
    fill = np.concatenate(
        [np.zeros((b, 1), dtype=bool), plan.masked | plan.dropped], axis=1)
    f = grad.Tensor(fill.astype(grad.DTYPE)[:, :, None])
    y = enc * grad.Tensor(1.0 - f.data) + proxy_rep * f
    y = y + grad.reshape(model.p_full, (1, n + 1, -1))
    for block in model.decoder:     # the decoder attends over every slot
        y = block(y, None, p_drop, train_rng)
    y = grad.layernorm(y, model.dec_ln_g, model.dec_ln_b)

    rows, cols = np.nonzero(plan.masked)
    hidden = grad.getitem(y, (rows, cols + 1))              # (|M|, d)
    hidden = grad.gelu(grad.matmul(hidden, model.head_w) + model.head_b)
    hidden = grad.layernorm(hidden, model.head_ln_g, model.head_ln_b)
    logits = grad.matmul(hidden, grad.transpose(model.token_table, (1, 0)))
    targets = ids[rows, cols]
    return MimForward(u=u, logits=logits, targets=targets)


def mim_loss(logits: grad.Tensor, targets: np.ndarray,
             smoothing: float = 0.1) -> grad.Tensor:
    return grad.cross_entropy_with_label_smoothing(logits, targets, smoothing)


def session_embedding(model: MimModel, ids: np.ndarray,
                      patches: np.ndarray) -> np.ndarray:
    """Inference-mode pooled embedding u for a batch of sessions."""
    return mim_forward(model, ids, patches).u.data.copy()


# ---------------------------------------------------------------------------
# Stage I training


@dataclass
class Stage1Result:
    model: MimModel
    ema: grad.Ema
    losses: list[float]
    masked_acc: list[float]


def stage1_train(ids: np.ndarray, patches: np.ndarray, codebook_size: int,
                 grid_hw: tuple[int, int], cfg: MimConfig,
                 seed: int) -> Stage1Result:
    """``grad.train`` over an in-memory token dataset.

    ``ids``: (M, N) token grids; ``patches``: (M, N, P) raw patches.
    """
    rng = np.random.default_rng(seed)
    model = MimModel(codebook_size, patches.shape[2], grid_hw, cfg, rng)
    batch_rng = np.random.default_rng(seed + 1)
    losses, accs = [], []
    n = ids.shape[1]

    def step_loss(step):
        pick = batch_rng.integers(0, ids.shape[0], size=cfg.batch_size)
        plan = sample_mask_plan(n, cfg, batch_rng, batch=cfg.batch_size)
        out = mim_forward(model, ids[pick], patches[pick], plan,
                          train_rng=batch_rng)
        loss = mim_loss(out.logits, out.targets, cfg.label_smoothing)
        losses.append(float(loss.data))
        accs.append(float(np.mean(
            np.argmax(out.logits.data, axis=1) == out.targets)))
        return loss

    ema = grad.train(model.named_parameters(), cfg, step_loss, "Stage I")
    return Stage1Result(model=model, ema=ema, losses=losses, masked_acc=accs)
