"""Session-scale masked token modeling (Stage I).

Each session is a token grid from the VQ tokenizer plus the raw spectrogram
patches behind each token.  Input embeddings sum the token embedding, a
linear patch projection, and factorized frequency/time positional tables.  A
truncated-Gaussian fraction of positions is masked; a quarter of those are
dropped from the encoder input entirely.  The decoder predicts the original
token ids at masked positions against the weight-tied token table, and the
mean-pooled encoder output is the patient embedding u.  The encoder is one
module, ``SessionEncoder``, that ``MimModel`` and Stage II's
``align.AlignModel`` both hold as ``eeg``: both checkpoints name it ``eeg.*``.
Stage I reads only the encoder output (``SessionEncoder.encode``); Stage II
and the probe read only u (``SessionEncoder.__call__``).  Every Transformer
block, here and in Stage II's refiners, is ``_Block``: one
``grad.transformer_block`` node, whose weights ``_Block`` and ``_Attention``
hold under their checkpoint names.
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


def sample_mask_ratio(mu: float, sigma: float, lo: float, hi: float,
                      rng: np.random.Generator) -> float:
    """Truncated Gaussian by rejection (exact, not clipped)."""
    if lo == hi:
        return float(lo)
    for _ in range(10_000):
        r = rng.normal(mu, sigma)
        if lo <= r <= hi:
            return float(r)
    raise NumericError("mask ratio rejection sampler failed to terminate")


def sample_mask_plan(n: int, cfg: MimConfig, rng: np.random.Generator,
                     batch: int) -> MaskPlan:
    """Independent per-sample plans over ``n`` positions."""
    masked = np.zeros((batch, n), dtype=bool)
    dropped = np.zeros((batch, n), dtype=bool)
    for b in range(batch):
        ratio = sample_mask_ratio(cfg.mask_mu, cfg.mask_sigma, cfg.mask_lo,
                                  cfg.mask_hi, rng)
        chosen = rng.choice(n, size=min(int(np.ceil(ratio * n)), n),
                            replace=False)
        masked[b, chosen] = True
        n_drop = int(chosen.size * cfg.r_drop)
        if n_drop:
            dropped[b, rng.choice(chosen, size=n_drop, replace=False)] = True
    return MaskPlan(masked=masked, dropped=dropped)


# ---------------------------------------------------------------------------
# transformer pieces


class _Attention(grad.Module):
    """The attention weights of a ``_Block``, named ``attn.w*``."""

    def __init__(self, d: int, n_heads: int, rng):
        self.n_heads = n_heads
        self.wq = grad.param((d, d), rng)
        self.wk = grad.param((d, d), rng)
        self.wv = grad.param((d, d), rng)
        self.wo = grad.param((d, d), rng)


# the MLP's hidden width over d, in every block of Stage I and Stage II
MLP_RATIO = 4


def _ln_params(d):
    return (grad.Tensor(np.ones(d, dtype=grad.DTYPE), requires_grad=True),
            grad.Tensor(np.zeros(d, dtype=grad.DTYPE), requires_grad=True))


class _Block(grad.Module):
    """Pre-norm transformer block: one ``grad.transformer_block`` node."""

    def __init__(self, d: int, n_heads: int, rng):
        self.ln1_g, self.ln1_b = _ln_params(d)
        self.attn = _Attention(d, n_heads, rng)
        self.ln2_g, self.ln2_b = _ln_params(d)
        self.w1 = grad.param((d, MLP_RATIO * d), rng)
        self.b1 = grad.param((MLP_RATIO * d,), rng, zeros=True)
        self.w2 = grad.param((MLP_RATIO * d, d), rng)
        self.b2 = grad.param((d,), rng, zeros=True)

    def __call__(self, x, bias, p_drop=0.0, rng=None):
        a = self.attn
        return grad.transformer_block(
            x, (self.ln1_g, self.ln1_b, a.wq, a.wk, a.wv, a.wo, self.ln2_g,
                self.ln2_b, self.w1, self.b1, self.w2, self.b2),
            a.n_heads, bias, p_drop, rng)


def _stack(depth, d, n_heads, rng):
    return [_Block(d, n_heads, rng) for _ in range(depth)]


class SessionEncoder(grad.Module):
    """The session encoder that Stage I pretrains and Stage II fine-tunes."""

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
        self.blocks = _stack(cfg.depth, d, cfg.n_heads, rng)
        self.ln_g, self.ln_b = _ln_params(d)
        # precomputed grid coordinates, position-major over (freq, time)
        pos = np.arange(self.n_positions)
        self.coord_h = pos // w
        self.coord_w = pos % w

    def embed(self, ids: np.ndarray, patches: np.ndarray,
              plan: MaskPlan | None) -> grad.Tensor:
        """Summed embeddings with the proxy token prepended -> (B, N+1, d).

        Masked-but-not-dropped positions are replaced by the learnable mask
        embedding with their positional terms retained; dropped positions
        keep their embedding here but are excluded from attention downstream.
        """
        b, n = ids.shape
        if n != self.n_positions:
            raise DataError(f"{n} positions, model expects {self.n_positions}")
        tok = grad.getitem(self.token_table, ids)
        patch = grad.matmul(grad.Tensor(patches), self.w_patch)
        pos = grad.getitem(self.p_freq, self.coord_h) + \
            grad.getitem(self.p_time, self.coord_w)    # (N, d)
        content = tok + patch
        if plan is not None:
            m = (plan.masked & ~plan.dropped).astype(grad.DTYPE)[:, :, None]
            mask_row = grad.reshape(self.mask_emb, (1, 1, -1))
            content = content * grad.Tensor(1.0 - m) + mask_row * grad.Tensor(m)
        x = content + grad.reshape(pos, (1, n, -1))
        proxy = grad.mul(grad.reshape(self.proxy, (1, 1, -1)),
                         grad.Tensor(np.ones((b, 1, 1), dtype=grad.DTYPE)))
        return grad.concat([proxy, x], axis=1)

    def encode(self, ids: np.ndarray, patches: np.ndarray,
               plan: MaskPlan | None, keep: np.ndarray | None,
               train_rng: np.random.Generator | None
               ) -> tuple[grad.Tensor, np.ndarray]:
        """Encoder output (B, N+1, d) and the (B, N+1) mask of the slots
        that attend, the proxy first.  ``keep`` (B, N): the positions the
        encoder sees (None: all); ``plan`` masks content, not positions."""
        b, n = ids.shape
        x = self.embed(ids, patches, plan)
        kept = np.ones((b, n), dtype=bool) if keep is None else keep
        attends = np.concatenate(
            [np.ones((b, 1), dtype=bool), kept], axis=1)    # proxy always attends
        bias = _attention_bias(attends)
        for block in self.blocks:   # no train_rng: eval mode, no dropout
            x = block(x, bias, self.cfg.dropout, train_rng)
        return grad.layernorm(x, self.ln_g, self.ln_b), attends

    def __call__(self, ids: np.ndarray, patches: np.ndarray,
                 keep: np.ndarray | None = None,
                 train_rng: np.random.Generator | None = None) -> grad.Tensor:
        """The embedding u (B, d): the mean of the session tokens that
        ``encode`` keeps, under no mask plan."""
        enc, attends = self.encode(ids, patches, None, keep, train_rng)
        attends[:, 0] = False       # u pools the session tokens, not the proxy
        return grad.mean_pool_masked(enc, grad.Tensor(attends.astype(grad.DTYPE)))


class MimModel(grad.Module):
    """The session encoder ``eeg``, then Stage I's decoder and head."""

    def __init__(self, codebook_size: int, patch_dim: int,
                 grid_hw: tuple[int, int], cfg: MimConfig,
                 rng: np.random.Generator):
        self.eeg = SessionEncoder(codebook_size, patch_dim, grid_hw, cfg, rng)
        d = cfg.d_model
        self.w_proxy = grad.param((d, d), rng)
        self.b_proxy = grad.param((d,), rng, zeros=True)
        self.p_full = grad.param((self.eeg.n_positions + 1, d), rng, scale=0.02)
        self.decoder = _stack(cfg.dec_depth, d, cfg.n_heads, rng)
        self.dec_ln_g, self.dec_ln_b = _ln_params(d)
        self.head_w = grad.param((d, d), rng)
        self.head_b = grad.param((d,), rng, zeros=True)
        self.head_ln_g, self.head_ln_b = _ln_params(d)


def load_encoder(encoder: SessionEncoder, weights: dict[str, np.ndarray]) -> None:
    """Strict copy of a Stage I or Stage II table's ``eeg.*`` weights: a
    missing name or a shape of another geometry is a ``DataError``."""
    grad.assign_parameters(encoder.named_parameters("eeg."), weights)


def extract_patches(values: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """(..., C, H, W) spectrograms -> (..., N, C*ph*pw) patches, one per token."""
    *lead, c, h, w = values.shape
    if h % ph or w % pw:
        raise DataError(f"spectrogram {h}x{w} not divisible by patch {ph}x{pw}")
    gh, gw = h // ph, w // pw
    p = np.moveaxis(values.reshape(*lead, c, gh, ph, gw, pw), (-4, -2), (-5, -4))
    return p.reshape(*lead, gh * gw, c * ph * pw)


def _attention_bias(keep: np.ndarray) -> grad.Tensor:
    # (B, L) keep -> additive bias (B, 1, 1, L)
    bias = np.where(keep, 0.0, _NEG_BIAS).astype(grad.DTYPE)
    return grad.Tensor(bias[:, None, None, :])


@dataclass
class MimForward:
    logits: grad.Tensor         # (|M|, K) at masked positions
    targets: np.ndarray         # (|M|,) original token ids


def mim_forward(model: MimModel, ids: np.ndarray, patches: np.ndarray,
                plan: MaskPlan,
                train_rng: np.random.Generator | None) -> MimForward:
    """Stage I's forward: encode under ``plan``, then decode its masked
    positions against the weight-tied token table."""
    b, n = ids.shape
    enc, _ = model.eeg.encode(ids, patches, plan, ~plan.dropped, train_rng)
    # decoder: fill masked and dropped slots with the projected proxy
    proxy_rep = grad.matmul(grad.getitem(enc, (slice(None), slice(0, 1))),
                            model.w_proxy) + model.b_proxy   # (B, 1, d)
    fill = np.concatenate(
        [np.zeros((b, 1), dtype=bool), plan.masked | plan.dropped], axis=1)
    f = grad.Tensor(fill.astype(grad.DTYPE)[:, :, None])
    y = enc * grad.Tensor(1.0 - f.data) + proxy_rep * f
    y = y + grad.reshape(model.p_full, (1, n + 1, -1))
    for block in model.decoder:     # the decoder attends over every slot
        y = block(y, None, model.eeg.cfg.dropout, train_rng)
    y = grad.layernorm(y, model.dec_ln_g, model.dec_ln_b)

    rows, cols = np.nonzero(plan.masked)
    hidden = grad.getitem(y, (rows, cols + 1))              # (|M|, d)
    hidden = grad.gelu(grad.matmul(hidden, model.head_w) + model.head_b)
    hidden = grad.layernorm(hidden, model.head_ln_g, model.head_ln_b)
    logits = grad.matmul(hidden, grad.transpose(model.eeg.token_table, (1, 0)))
    return MimForward(logits=logits, targets=ids[rows, cols])


def mim_loss(logits: grad.Tensor, targets: np.ndarray,
             smoothing: float) -> grad.Tensor:
    return grad.cross_entropy_with_label_smoothing(logits, targets, smoothing)


def session_embedding(encoder: SessionEncoder, ids: np.ndarray,
                      patches: np.ndarray) -> np.ndarray:
    """Inference-mode pooled embedding u for a batch of sessions."""
    return encoder(ids, patches).data.copy()


# ---------------------------------------------------------------------------
# Stage I training


def stage1_train(ids: np.ndarray, patches: np.ndarray, codebook_size: int,
                 grid_hw: tuple[int, int], cfg: MimConfig,
                 seed: int) -> grad.Trained:
    """``grad.train`` over an in-memory token dataset.

    ``ids``: (M, N) token grids; ``patches``: (M, N, P) raw patches.
    """
    rng = np.random.default_rng(seed)
    model = MimModel(codebook_size, patches.shape[2], grid_hw, cfg, rng)
    batch_rng = np.random.default_rng(seed + 1)
    n = ids.shape[1]

    def step_loss(step):
        pick = batch_rng.integers(0, ids.shape[0], size=cfg.batch_size)
        plan = sample_mask_plan(n, cfg, batch_rng, cfg.batch_size)
        out = mim_forward(model, ids[pick], patches[pick], plan,
                          train_rng=batch_rng)
        loss = mim_loss(out.logits, out.targets, cfg.label_smoothing)
        acc = np.mean(np.argmax(out.logits.data, axis=1) == out.targets)
        return loss, {"loss": float(loss.data), "acc": float(acc)}

    return grad.Trained(model, *grad.train(model.named_parameters(), cfg,
                                           step_loss, "Stage I"))
