"""Minimal reverse-mode automatic differentiation on numpy arrays.

Provides exactly the operator set the rest of the pipeline needs: dense and
convolutional primitives, attention building blocks, the losses, AdamW-style
optimizers, EMA shadowing, and checkpoint persistence.  Data lives in 32-bit
floats (``DTYPE``); reductions accumulate in 64-bit.  Elementwise work runs
in the input's dtype, so constants are cast to it rather than promoting the
arrays to float64; the gradient checks run the same code at float64.

A ``Tensor`` records its parents and a vector-Jacobian product per parent;
``backward`` walks the tape in reverse topological order exactly once.
``grads`` computes gradients into a fresh dict without touching ``.grad``,
which is what the adaptive GAN weight uses to replay a graph.
"""

from __future__ import annotations

import json
import zipfile
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf as _erf

from .errors import DataError, NumericError

DTYPE = np.float32


class ShapeError(ValueError):
    pass


def _as_array(value) -> np.ndarray:
    arr = np.asarray(value, dtype=DTYPE)
    return arr


class Tensor:
    """A node in the computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        # list of (parent Tensor, vjp: g_out -> g_parent); empty for leaves
        self._parents: list[tuple["Tensor", Callable[[np.ndarray], np.ndarray]]] = []
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(_wrap(other), -1.0))

    def __rsub__(self, other):
        return add(_wrap(other), mul(self, -1.0))

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into ``.grad`` of every reachable tensor
        with ``requires_grad``."""
        table = _backward_table(self)
        for node, g in table.items():
            if node.requires_grad:
                if node.grad is None:
                    node.grad = g.astype(DTYPE)
                else:
                    node.grad = node.grad + g.astype(DTYPE)


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def _backward_table(root: Tensor) -> dict[Tensor, np.ndarray]:
    order = _topo_order(root)
    table: dict[int, np.ndarray] = {id(root): np.ones_like(root.data)}
    by_id: dict[int, Tensor] = {id(n): n for n in order}
    for node in reversed(order):
        g = table.get(id(node))
        if g is None:
            continue
        for parent, vjp in node._parents:
            pg = vjp(g)
            if id(parent) in table:
                table[id(parent)] = table[id(parent)] + pg
            else:
                table[id(parent)] = pg
    return {by_id[i]: g for i, g in table.items()}


def grads(loss: Tensor, wrt: Sequence[Tensor]) -> list[np.ndarray]:
    """Gradients of a scalar w.r.t. ``wrt`` on a detached replay: nothing is
    written into ``.grad``."""
    table = _backward_table(loss)
    return [table.get(p, np.zeros_like(p.data)) for p in wrt]


def grad_norm(loss: Tensor, wrt: Sequence[Tensor]) -> float:
    """L2 norm of d(loss)/d(wrt), pooled over all listed parameters."""
    gs = grads(loss, wrt)
    total = sum(float(np.sum(g.astype(np.float64) ** 2)) for g in gs)
    return float(np.sqrt(total))


# ---------------------------------------------------------------------------
# broadcasting helpers


def _sum_to_shape(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _check_broadcast(a: np.ndarray, b: np.ndarray, op: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: incompatible shapes {a.shape} vs {b.shape}")


def _make(data: np.ndarray, parents) -> Tensor:
    # Intermediates keep requires_grad False; backward() only writes .grad
    # into explicitly marked leaves, while _parents carries the tape.
    out = Tensor(data)
    out._parents = [(p, vjp) for p, vjp in parents if _needs_grad(p)]
    return out


def _needs_grad(t: Tensor) -> bool:
    return t.requires_grad or bool(t._parents)


# ---------------------------------------------------------------------------
# elementwise and reduction primitives


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_broadcast(a.data, b.data, "add")
    data = a.data + b.data
    return _make(data, [
        (a, lambda g: _sum_to_shape(g, a.data.shape)),
        (b, lambda g: _sum_to_shape(g, b.data.shape)),
    ])


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_broadcast(a.data, b.data, "mul")
    data = a.data * b.data
    return _make(data, [
        (a, lambda g: _sum_to_shape(g * b.data, a.data.shape)),
        (b, lambda g: _sum_to_shape(g * a.data, b.data.shape)),
    ])


def div(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_broadcast(a.data, b.data, "div")
    data = a.data / b.data
    return _make(data, [
        (a, lambda g: _sum_to_shape(g / b.data, a.data.shape)),
        (b, lambda g: _sum_to_shape(-g * a.data / (b.data ** 2), b.data.shape)),
    ])


def power(a, exponent: float) -> Tensor:
    a = _wrap(a)
    data = a.data.astype(np.float64) ** exponent
    return _make(data.astype(DTYPE), [
        (a, lambda g: (g * exponent * a.data.astype(np.float64) ** (exponent - 1)
                       ).astype(DTYPE)),
    ])


def exp(a) -> Tensor:
    a = _wrap(a)
    data = np.exp(a.data)
    return _make(data, [(a, lambda g: g * data)])


def log(a) -> Tensor:
    a = _wrap(a)
    return _make(np.log(a.data), [(a, lambda g: g / a.data)])


def tanh(a) -> Tensor:
    a = _wrap(a)
    data = np.tanh(a.data)
    return _make(data, [(a, lambda g: g * (1.0 - data ** 2))])


def relu(a) -> Tensor:
    a = _wrap(a)
    mask = (a.data > 0).astype(DTYPE)
    return _make(a.data * mask, [(a, lambda g: g * mask)])


_INV_SQRT_2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gelu(a) -> Tensor:
    """Exact (erf-based) GELU, x·Φ(x), elementwise in the input's dtype:
    erf runs its float32 loop on float32 data."""
    a = _wrap(a)
    x = a.data
    f = x.dtype.type
    cdf = _erf(x * f(_INV_SQRT_2))
    cdf += 1
    cdf *= f(0.5)

    def vjp(g):
        # Φ(x) + x·φ(x), built in one buffer
        out = np.square(x)
        out *= f(-0.5)
        np.exp(out, out=out)
        out *= f(_INV_SQRT_2PI)
        out *= x
        out += cdf
        out *= g
        return out

    return _make(x * cdf, [(a, vjp)])


def abs_(a) -> Tensor:
    a = _wrap(a)
    sign = np.sign(a.data)
    return _make(np.abs(a.data), [(a, lambda g: g * sign)])


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    data = a.data.sum(axis=axis, keepdims=keepdims, dtype=np.float64).astype(DTYPE)

    def vjp(g):
        if axis is None:
            return np.broadcast_to(g, a.data.shape).astype(DTYPE).copy()
        g_exp = g if keepdims else np.expand_dims(g, axis)
        return np.broadcast_to(g_exp, a.data.shape).astype(DTYPE).copy()

    return _make(data, [(a, vjp)])


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    if axis is None:
        count = a.data.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = int(np.prod([a.data.shape[ax] for ax in axes]))
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / count)


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    old = a.data.shape
    return _make(a.data.reshape(shape), [(a, lambda g: g.reshape(old))])


def transpose(a, axes) -> Tensor:
    a = _wrap(a)
    inv = np.argsort(axes)
    return _make(a.data.transpose(axes), [(a, lambda g: g.transpose(inv))])


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    ts = [_wrap(t) for t in tensors]
    data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    parents = []
    for i, t in enumerate(ts):
        lo, hi = offsets[i], offsets[i + 1]

        def vjp(g, lo=lo, hi=hi):
            index = [slice(None)] * g.ndim
            index[axis] = slice(lo, hi)
            return g[tuple(index)]

        parents.append((t, vjp))
    return _make(data, parents)


def getitem(a, index) -> Tensor:
    """``a[index]``; the gradient scatter-adds back, so rows picked more than
    once (an embedding lookup) accumulate."""
    a = _wrap(a)
    data = a.data[index]

    def vjp(g):
        out = np.zeros_like(a.data)
        np.add.at(out, index, g)
        return out

    return _make(data.copy(), [(a, vjp)])


def stop_gradient(a) -> Tensor:
    """Forward the value, block all gradient flow."""
    a = _wrap(a)
    return Tensor(a.data)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b) -> Tensor:
    """``a @ b``.  A matrix ``b`` (a weight) takes every leading row of ``a``
    in one GEMM; a batched ``b`` (attention) goes through ``np.matmul``."""
    a, b = _wrap(a), _wrap(b)
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.data.shape} @ {b.data.shape}")
    if b.ndim == 2:
        k, n = b.data.shape
        a2 = a.data.reshape(-1, k)
        data = (a2 @ b.data).reshape(a.data.shape[:-1] + (n,))
        return _make(data, [
            (a, lambda g: (g.reshape(-1, n) @ b.data.T).reshape(a.data.shape)),
            (b, lambda g: a2.T @ g.reshape(-1, n)),
        ])
    data = np.matmul(a.data, b.data)

    def vjp_a(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        return _sum_to_shape(ga, a.data.shape)

    def vjp_b(g):
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _sum_to_shape(gb, b.data.shape)

    return _make(data, [(a, vjp_a), (b, vjp_b)])


# ---------------------------------------------------------------------------
# normalization / activation blocks


def softmax(a, axis: int = -1) -> Tensor:
    a = _wrap(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        return (data * (g - dot)).astype(DTYPE)

    return _make(data.astype(DTYPE), [(a, vjp)])


def layernorm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift.  The mean and
    variance (and the VJP's two row means) accumulate in float64 and are
    cast to the input's dtype; every elementwise term stays in that dtype."""
    x, gamma, beta = _wrap(x), _wrap(gamma), _wrap(beta)
    dt = x.data.dtype
    xhat = x.data - x.data.mean(axis=-1, keepdims=True, dtype=np.float64).astype(dt)
    var = np.square(xhat).mean(axis=-1, keepdims=True, dtype=np.float64)
    inv = (1.0 / np.sqrt(var + eps)).astype(dt)
    xhat *= inv
    data = xhat * gamma.data + beta.data

    def vjp_x(g):
        gh = g * gamma.data
        dot = (gh * xhat).mean(axis=-1, keepdims=True, dtype=np.float64).astype(dt)
        gh -= gh.mean(axis=-1, keepdims=True, dtype=np.float64).astype(dt)
        gh -= xhat * dot
        gh *= inv
        return gh

    def vjp_gamma(g):
        return _sum_to_shape(g * xhat, gamma.data.shape)

    def vjp_beta(g):
        return _sum_to_shape(g, beta.data.shape)

    return _make(data, [(x, vjp_x), (gamma, vjp_gamma), (beta, vjp_beta)])


def scaled_dot_attention(q, k, v, mask_bias=None) -> Tensor:
    """softmax(q k^T / sqrt(d) + bias) v over the last two axes.

    ``mask_bias`` is an additive bias (0 for kept positions, large negative
    for padded ones), broadcastable to the score shape.
    """
    d = q.shape[-1]
    scores = mul(matmul(q, transpose(k, tuple(range(k.ndim - 2)) + (k.ndim - 1, k.ndim - 2))),
                 1.0 / np.sqrt(d))
    if mask_bias is not None:
        scores = add(scores, mask_bias)
    return matmul(softmax(scores, axis=-1), v)


def mean_pool_masked(x, mask) -> Tensor:
    """Mean over axis -2 restricted to positions where ``mask`` is 1.

    ``x``: (..., L, d); ``mask``: (..., L) with at least one valid position.
    """
    x, mask = _wrap(x), _wrap(mask)
    m = reshape(mask, mask.shape + (1,))
    total = sum_(mul(x, m), axis=-2)
    count = sum_(m, axis=-2)
    return div(total, count)


# ---------------------------------------------------------------------------
# losses


def l1(a, b=None) -> Tensor:
    """Mean absolute value of ``a`` (or of ``a - b``)."""
    t = a if b is None else _wrap(a) - _wrap(b)
    return mean(abs_(t))


def l2(a, b=None) -> Tensor:
    """Mean squared value of ``a`` (or of ``a - b``)."""
    t = a if b is None else _wrap(a) - _wrap(b)
    return mean(mul(t, t))


def cross_entropy_with_label_smoothing(logits, targets: np.ndarray,
                                       smoothing: float = 0.1) -> Tensor:
    """Mean label-smoothed cross-entropy over rows.

    ``logits``: (N, K); ``targets``: (N,) integer class ids.
    """
    logits = _wrap(logits)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy: expected (N, K) logits, got {logits.shape}")
    targets = np.asarray(targets)
    n, k = logits.shape
    if targets.shape != (n,):
        raise ShapeError(
            f"cross_entropy: logits {logits.shape} vs targets {targets.shape}")
    x = logits.data.astype(np.float64)
    x_shift = x - x.max(axis=1, keepdims=True)
    lse = np.log(np.exp(x_shift).sum(axis=1, keepdims=True)) + x.max(axis=1, keepdims=True)
    logp = x - lse
    soft = np.full((n, k), smoothing / k)
    soft[np.arange(n), targets] += 1.0 - smoothing
    value = float(-(soft * logp).sum() / n)

    def vjp(g):
        p = np.exp(logp)
        return (float(g) * (p - soft) / n).astype(DTYPE)

    return _make(np.float64(value).astype(DTYPE), [(logits, vjp)])


# ---------------------------------------------------------------------------
# convolution (im2col + matmul)


def _pair(v) -> tuple[int, int]:
    return (v, v) if isinstance(v, int) else (int(v[0]), int(v[1]))


def _im2col(x: np.ndarray, kh: int, kw: int, sh: int, sw: int,
            ph: int, pw: int) -> tuple[np.ndarray, int, int]:
    b, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::sh, ::sw]          # (b, c, oh, ow, kh, kw)
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(b, oh * ow, c * kh * kw)
    return np.ascontiguousarray(cols), oh, ow


def _col2im(cols: np.ndarray, x_shape: tuple[int, ...], kh: int, kw: int,
            sh: int, sw: int, ph: int, pw: int, oh: int, ow: int) -> np.ndarray:
    b, c, h, w = x_shape
    xp = np.zeros((b, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    cols6 = cols.reshape(b, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i:i + sh * oh:sh, j:j + sw * ow:sw] += cols6[:, :, i, j]
    return xp[:, :, ph:ph + h, pw:pw + w]


def conv2d(x, w, b=None, stride=1, padding=0) -> Tensor:
    """2D convolution (cross-correlation); x: (B, Cin, H, W), w: (Cout, Cin, kh, kw)."""
    x, w = _wrap(x), _wrap(w)
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    cout, cin, kh, kw = w.shape
    if x.shape[1] != cin:
        raise ShapeError(f"conv2d: input channels {x.shape} vs weight {w.shape}")
    cols, oh, ow = _im2col(x.data, kh, kw, sh, sw, ph, pw)
    wmat = w.data.reshape(cout, cin * kh * kw)
    out = np.matmul(cols, wmat.T)                # (B, oh*ow, Cout)
    bsz = x.shape[0]
    data = out.transpose(0, 2, 1).reshape(bsz, cout, oh, ow)

    def vjp_x(g):
        gmat = g.reshape(bsz, cout, oh * ow).transpose(0, 2, 1)
        gcols = np.matmul(gmat, wmat)            # (B, oh*ow, Cin*kh*kw)
        return _col2im(gcols, x.data.shape, kh, kw, sh, sw, ph, pw, oh, ow)

    def vjp_w(g):
        gmat = g.reshape(bsz, cout, oh * ow)
        gw = np.einsum("bol,blk->ok", gmat, cols, optimize=True)
        return gw.reshape(w.data.shape).astype(DTYPE)

    parents = [(x, vjp_x), (w, vjp_w)]
    if b is not None:
        b = _wrap(b)
        data = data + b.data.reshape(1, cout, 1, 1)
        parents.append((b, lambda g: g.sum(axis=(0, 2, 3), dtype=np.float64).astype(DTYPE)))
    return _make(data.astype(DTYPE), parents)


def transposed_conv2d(x, w, b=None, stride=1, padding=0, output_padding=0) -> Tensor:
    """Transposed convolution; x: (B, Cin, h, w), w: (Cin, Cout, kh, kw).

    The forward map is the adjoint of ``conv2d`` with the same stride and
    padding, so output size is ``(h-1)*s + k - 2*p + output_padding``.
    """
    x, w = _wrap(x), _wrap(w)
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    oph, opw = _pair(output_padding)
    cin, cout, kh, kw = w.shape
    if x.shape[1] != cin:
        raise ShapeError(f"transposed_conv2d: input {x.shape} vs weight {w.shape}")
    bsz, _, h, wd = x.shape
    out_h = (h - 1) * sh + kh - 2 * ph + oph
    out_w = (wd - 1) * sw + kw - 2 * pw + opw
    wmat = w.data.reshape(cin, cout * kh * kw)
    xmat = x.data.reshape(bsz, cin, h * wd).transpose(0, 2, 1)   # (B, hw, Cin)
    cols = np.matmul(xmat, wmat)                                 # (B, hw, Cout*kh*kw)
    data = _col2im(cols, (bsz, cout, out_h, out_w),
                   kh, kw, sh, sw, ph, pw, h, wd)

    def vjp_x(g):
        gcols, _, _ = _im2col(g, kh, kw, sh, sw, ph, pw)
        gx = np.matmul(gcols, wmat.T)            # (B, hw, Cin)
        return gx.transpose(0, 2, 1).reshape(x.data.shape).astype(DTYPE)

    def vjp_w(g):
        gcols, _, _ = _im2col(g, kh, kw, sh, sw, ph, pw)
        gw = np.einsum("blk,bli->ik", gcols, xmat, optimize=True)
        return gw.reshape(w.data.shape).astype(DTYPE)

    parents = [(x, vjp_x), (w, vjp_w)]
    if b is not None:
        b = _wrap(b)
        data = data + b.data.reshape(1, cout, 1, 1)
        parents.append((b, lambda g: g.sum(axis=(0, 2, 3), dtype=np.float64).astype(DTYPE)))
    return _make(data.astype(DTYPE), parents)


def dropout(x, p: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity when p == 0 or rng is None (eval mode)."""
    if p <= 0.0 or rng is None:
        return _wrap(x)
    x = _wrap(x)
    keep = (rng.random(x.shape) >= p).astype(DTYPE) / (1.0 - p)
    return mul(x, Tensor(keep))


# ---------------------------------------------------------------------------
# parameters, modules, optimizers


class Module:
    """Tiny parameter container: any Tensor attribute with requires_grad,
    plus nested Modules and lists thereof, is a parameter."""

    def named_parameters(self, prefix: str = "") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for key, value in vars(self).items():
            name = f"{prefix}{key}"
            if isinstance(value, Tensor) and value.requires_grad:
                out[name] = value
            elif isinstance(value, Module):
                out.update(value.named_parameters(f"{name}."))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        out.update(item.named_parameters(f"{name}.{i}."))
                    elif isinstance(item, Tensor) and item.requires_grad:
                        out[f"{name}.{i}"] = item
        return out

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())


def param(shape, rng: np.random.Generator, scale: float | None = None,
          zeros: bool = False) -> Tensor:
    if zeros:
        data = np.zeros(shape, dtype=DTYPE)
    else:
        if scale is None:
            fan_in = shape[0] if len(shape) == 1 else int(np.prod(shape[:-1]))
            scale = 1.0 / np.sqrt(max(fan_in, 1))
        data = rng.normal(0.0, scale, size=shape).astype(DTYPE)
    return Tensor(data, requires_grad=True)


class AdamW:
    """Adam with decoupled weight decay.

    ``weight_decay=0`` reduces exactly to Adam.  The GAN variant uses
    ``adam_gan`` below (beta1=0, beta2=0.99, no decay).
    """

    def __init__(self, params: Iterable[Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.95,
                 weight_decay: float = 0.1, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.weight_decay = weight_decay
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * g * g
            mhat = self.m[i] / bias1
            vhat = self.v[i] / bias2
            update = mhat / (np.sqrt(vhat) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data = (p.data - lr * update).astype(DTYPE)


def adam_gan(params: Iterable[Tensor], lr: float) -> AdamW:
    return AdamW(params, lr=lr, beta1=0.0, beta2=0.99, weight_decay=0.0)


def cosine_lr(step: int, total_steps: int, base_lr: float,
              warmup_steps: int = 0, min_lr: float = 0.0) -> float:
    if warmup_steps and step < warmup_steps:
        return base_lr * (step + 1) / warmup_steps
    span = max(total_steps - warmup_steps, 1)
    frac = min(max(step - warmup_steps, 0) / span, 1.0)
    return min_lr + 0.5 * (base_lr - min_lr) * (1.0 + np.cos(np.pi * frac))


class Ema:
    """Exponential moving average shadow of a named-parameter table."""

    def __init__(self, params: dict[str, Tensor], decay: float):
        self.decay = decay
        self.shadow = {k: p.data.copy() for k, p in params.items()}

    def update(self, params: dict[str, Tensor]) -> None:
        for k, p in params.items():
            self.shadow[k] = ema_update(self.shadow[k], p.data, self.decay)


def ema_update(shadow: np.ndarray, live: np.ndarray, decay: float) -> np.ndarray:
    return (decay * shadow.astype(np.float64)
            + (1.0 - decay) * live.astype(np.float64)).astype(live.dtype)


def train(params: dict[str, Tensor], cfg, steps: int,
          step_loss: Callable[[int], Tensor], stage: str) -> Ema:
    """AdamW + cosine LR + EMA, all from ``cfg``, over ``step_loss(step)``;
    a non-finite loss raises before that step's update."""
    opt = AdamW(params.values(), lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
                weight_decay=cfg.weight_decay)
    ema = Ema(params, cfg.ema_decay)
    for step in range(steps):
        loss = step_loss(step)
        if not np.isfinite(loss.data):
            raise NumericError(f"non-finite {stage} loss at step {step}")
        opt.zero_grad()
        loss.backward()
        opt.step(lr=cosine_lr(step, steps, cfg.lr, cfg.warmup_steps))
        ema.update(params)
    return ema


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_VERSION = 1


def save_checkpoint(path, params: dict[str, Tensor],
                    ema: Ema | None = None,
                    meta: dict | None = None) -> None:
    """Named-parameter table with an optional EMA shadow and a versioned
    JSON header, in an npz container."""
    arrays: dict[str, np.ndarray] = {}
    header = {
        "version": CHECKPOINT_VERSION,
        "param_names": sorted(params),
        "has_ema": ema is not None,
        "meta": meta or {},
    }
    for name, p in params.items():
        arrays[f"param/{name}"] = p.data
    if ema is not None:
        for name, arr in ema.shadow.items():
            arrays[f"ema/{name}"] = arr
    arrays["__header__"] = np.frombuffer(
        json.dumps(header, sort_keys=True).encode(), dtype=np.uint8)
    np.savez_compressed(path, **arrays)


def load_checkpoint(path) -> dict:
    """A file that is not a checkpoint of this version is a ``DataError``
    naming ``path``."""
    try:
        # np.load leaves a path's file open when the zip does not parse
        with open(path, "rb") as fh, np.load(fh) as z:
            header = json.loads(bytes(z["__header__"]).decode())
            version = header.get("version")
            if version == CHECKPOINT_VERSION:
                params = {n: z[f"param/{n}"].copy()
                          for n in header["param_names"]}
                ema = None
                if header["has_ema"]:
                    ema = {n: z[f"ema/{n}"].copy()
                           for n in header["param_names"]}
    except (ValueError, KeyError, TypeError, zipfile.BadZipFile) as exc:
        raise DataError(f"{path}: not a readable checkpoint ({exc})") from exc
    if version != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    return {"params": params, "ema": ema, "meta": header.get("meta", {})}


def assign_parameters(params: dict[str, Tensor],
                      table: dict[str, np.ndarray]) -> None:
    """Copy ``table`` into every parameter of ``params``; all must be there."""
    missing = set(params) - set(table)
    if missing:
        raise DataError(f"checkpoint missing parameters: {sorted(missing)[:5]} ...")
    for name, p in params.items():
        if p.data.shape != table[name].shape:
            raise DataError(
                f"{name}: checkpoint shape {table[name].shape} vs model {p.data.shape}")
        p.data = table[name].astype(DTYPE).copy()
