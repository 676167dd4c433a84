"""Minimal reverse-mode automatic differentiation on numpy arrays.

Provides exactly the operator set the rest of the pipeline needs: dense and
convolutional primitives, attention building blocks, the losses, AdamW-style
optimizers, EMA shadowing, and checkpoint persistence.  Data lives in 32-bit
floats (``DTYPE``); reductions accumulate in 64-bit.  Elementwise work runs
in the input's dtype, so constants are cast to it rather than promoting the
arrays to float64; the gradient checks run the same code at float64, with
one exception: float32 GELU evaluates erf by a polynomial (A&S 7.1.26),
while any other dtype keeps scipy's exact erf.

The training hot paths are single primitives:
- a pre-norm Transformer block (``transformer_block``) is one tape node
  with a closed-form backward for x and its 12 weights, bit-identical to
  the composed LN, attention, MLP and residual ops;
- attention (``scaled_dot_attention``, and inside the block) runs over
  contiguous heads with a closed-form backward;
- convolution writes NCHW from one GEMM per image, or, at stride 1 on
  larger planes, from one GEMM per kernel tap over shifted views;
- AdamW updates its moments in place and rebinds each parameter to a new
  array.

A ``Tensor`` records its parents and a vector-Jacobian product per parent.
``loss.backward(params)`` walks the tape in reverse topological order
exactly once and returns the gradients of ``params``; nothing is stored on
a tensor, and the tape is left as it was.
"""

from __future__ import annotations

import json
import zipfile
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np
from scipy.special import erf as _erf

from .errors import DataError, NumericError

DTYPE = np.float32


class ShapeError(ValueError):
    pass


class Tensor:
    """A node in the computation graph."""

    __slots__ = ("data", "requires_grad", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=DTYPE)
        self.requires_grad = bool(requires_grad)
        # list of (parent Tensor, vjp: g_out -> g_parent); empty for leaves
        self._parents: list[tuple["Tensor", Callable[[np.ndarray], np.ndarray]]] = []

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return add(self, mul(_wrap(other), -1.0))

    def backward(self, wrt: Sequence["Tensor"] = ()) -> list[np.ndarray | None]:
        """d(self)/d(p) in ``DTYPE`` for each p of ``wrt``, None where self
        does not reach p.  Only these gradients outlive the walk, and the
        tape is not edited, so a second call returns the same list."""
        table = _backward_table(self, wrt)
        return [table[p].astype(DTYPE, copy=False) if p in table else None
                for p in wrt]


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


def _backward_table(root: Tensor, wrt: Sequence[Tensor]) -> dict[Tensor, np.ndarray]:
    """d(root)/d(n) for each reachable n of ``wrt``; any other node's
    gradient is dropped once its VJPs have consumed it."""
    kept = {id(n) for n in wrt}
    table: dict[int, np.ndarray] = {id(root): np.ones_like(root.data)}
    for node in reversed(_topo_order(root)):
        # each node comes after every node it feeds: its gradient is in
        g = (table.get if id(node) in kept else table.pop)(id(node))
        for parent, vjp in node._parents:
            pg = vjp(g)
            if id(parent) in table:
                pg = table[id(parent)] + pg
            table[id(parent)] = pg
    return {n: table[id(n)] for n in wrt if id(n) in table}


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
    # Intermediates keep requires_grad False and _parents carries the tape;
    # a parent that neither requires a gradient nor has a tape is left off,
    # so an op on inputs that need no gradient records nothing.
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
# Abramowitz & Stegun 7.1.26, |error| <= 1.5e-7 on z >= 0:
#   erfc(z) = t·(a1 + t·(a2 + ... + t·a5))·exp(-z²),  t = 1 / (1 + p·z)
_AS_P = 0.3275911
_AS_A = (0.254829592, -0.284496736, 1.421413741, -1.453152027, 1.061405429)
# erfc(z)/2 as s·(b1 + s·(b2 + s·(b3 + s·(b4 + s))))·exp(-z²) with s = c·t:
# a monic Horner saves one pass over the data
_AS_C = (0.5 * _AS_A[4]) ** 0.2
_AS_B = tuple(0.5 * a / _AS_C ** (i + 1) for i, a in enumerate(_AS_A[:4]))
_GELU_CHUNK = 1 << 16
_SIGN_BIT = np.uint32(0x80000000)


def _gelu_float32(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x·Φ(x) and its derivative Φ(x) + x·φ(x) for float32 ``x``.

    The upper tail 1 − Φ(|x|) = erfc(|x|/√2) / 2 comes from A&S 7.1.26,
    whose exp(−x²/2) also gives φ(x), so each element takes one ``exp``;
    Φ(x) − 1/2 is then 1/2 − tail with the sign bit of x.  The work runs
    in chunks through fixed scratch buffers that stay in cache.  NaN stays
    NaN, and ±inf give what x·Φ(x) gives in IEEE arithmetic."""
    f = np.float32
    flat = x.reshape(-1)
    out, deriv = np.empty_like(flat), np.empty_like(flat)
    n = min(flat.size, _GELU_CHUNK)
    s_buf, e_buf = np.empty(n, f), np.empty(n, f)
    sign_buf = np.empty(n, np.uint32)
    k = f(np.sqrt(2.0) / _AS_P)                 # s = c·k / (k + |x|)
    ck = f(_AS_C * np.sqrt(2.0) / _AS_P)
    b4, b3, b2, b1 = (f(b) for b in reversed(_AS_B))
    for lo in range(0, flat.size, _GELU_CHUNK):
        xs = flat[lo:lo + _GELU_CHUNK]
        s, e, sign = s_buf[:xs.size], e_buf[:xs.size], sign_buf[:xs.size]
        np.abs(xs, out=s)
        s += k
        np.divide(ck, s, out=s)
        poly = np.add(s, b4, out=out[lo:lo + xs.size])
        for b in (b3, b2, b1):
            poly *= s
            poly += b
        poly *= s
        np.multiply(xs, f(-0.5), out=e)
        e *= xs
        np.exp(e, out=e)
        # Φ(x) = 1/2 + copysign(1/2 − tail, x), with tail = poly·e
        cdf = np.multiply(poly, e, out=s)
        np.subtract(f(0.5), cdf, out=cdf)
        np.bitwise_and(xs.view(np.uint32), _SIGN_BIT, out=sign)
        np.bitwise_or(cdf.view(np.uint32), sign, out=cdf.view(np.uint32))
        cdf += f(0.5)
        np.multiply(xs, cdf, out=poly)
        d = np.multiply(e, f(_INV_SQRT_2PI), out=deriv[lo:lo + xs.size])
        d *= xs
        d += cdf
    return out.reshape(x.shape), deriv.reshape(x.shape)


def _gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU and its derivative on an array: ``_gelu_float32`` for float32,
    the exact erf-based form for any other dtype."""
    if x.dtype == np.float32:
        return _gelu_float32(x)
    cdf = 0.5 * (1.0 + _erf(x * _INV_SQRT_2))
    return x * cdf, cdf + x * np.exp(-0.5 * np.square(x)) * _INV_SQRT_2PI


def gelu(a) -> Tensor:
    """GELU, x·Φ(x).  Float32 data takes ``_gelu_float32`` (within 5e-7 of
    the exact value); any other dtype, which is what the gradient checks
    run, takes the exact erf-based form."""
    a = _wrap(a)
    out, deriv = _gelu(a.data)
    return _make(out, [(a, lambda g: g * deriv)])


def abs_(a) -> Tensor:
    a = _wrap(a)
    sign = np.sign(a.data)
    return _make(np.abs(a.data), [(a, lambda g: g * sign)])


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    data = a.data.sum(axis=axis, keepdims=keepdims, dtype=np.float64).astype(DTYPE)

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, a.data.shape).astype(DTYPE).copy()

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


def concat(tensors: Sequence, axis: int) -> Tensor:
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
    """``a @ b``.  A matrix ``b`` takes every leading row of ``a`` in one
    GEMM; a batched ``b`` goes through ``np.matmul``.  Every pipeline caller
    passes a matrix ``b``: attention is its own primitive."""
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


def _softmax_(s: np.ndarray, axis: int) -> np.ndarray:
    """Softmax of ``s`` along ``axis``, computed in place."""
    s -= s.max(axis=axis, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=axis, keepdims=True)
    return s


def _softmax_vjp_(p: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    """Pull ``g`` back through ``p = softmax(s)`` in place: p·(g − Σ g·p)."""
    dot = np.einsum("...i,...i->...",
                    np.moveaxis(g, axis, -1), np.moveaxis(p, axis, -1))
    g -= np.expand_dims(dot, axis)
    g *= p
    return g


def softmax(a, axis: int) -> Tensor:
    a = _wrap(a)
    data = _softmax_(a.data.copy(), axis)
    return _make(data, [
        (a, lambda g: _softmax_vjp_(data, np.array(g, dtype=data.dtype), axis))])


def _layernorm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``layernorm``'s forward on arrays, with 1e-5 added to the variance:
    the output, x̂ and 1/σ."""
    dt = x.dtype
    xhat = x - x.mean(axis=-1, keepdims=True, dtype=np.float64).astype(dt)
    var = np.square(xhat).mean(axis=-1, keepdims=True, dtype=np.float64)
    inv = (1.0 / np.sqrt(var + 1e-5)).astype(dt)
    xhat *= inv
    return xhat * gamma + beta, xhat, inv


def _layernorm_vjp_x(g: np.ndarray, gamma: np.ndarray, xhat: np.ndarray,
                     inv: np.ndarray) -> np.ndarray:
    """``layernorm``'s input gradient: (g·γ − mean(g·γ) − x̂·mean(g·γ·x̂))/σ."""
    dt = xhat.dtype
    gh = g * gamma
    dot = (gh * xhat).mean(axis=-1, keepdims=True, dtype=np.float64).astype(dt)
    gh -= gh.mean(axis=-1, keepdims=True, dtype=np.float64).astype(dt)
    gh -= xhat * dot
    gh *= inv
    return gh


def layernorm(x, gamma, beta) -> Tensor:
    """Normalize over the last axis, then scale and shift.  The mean and
    variance (and the VJP's two row means) accumulate in float64 and are
    cast to the input's dtype; every elementwise term stays in that dtype."""
    x, gamma, beta = _wrap(x), _wrap(gamma), _wrap(beta)
    data, xhat, inv = _layernorm(x.data, gamma.data, beta.data)
    return _make(data, [
        (x, lambda g: _layernorm_vjp_x(g, gamma.data, xhat, inv)),
        (gamma, lambda g: _sum_to_shape(g * xhat, gamma.data.shape)),
        (beta, lambda g: _sum_to_shape(g, beta.data.shape)),
    ])


def _joint_vjps(parents: Sequence[Tensor], backward) -> list:
    """Tape entries for ``parents`` whose gradients come out of one pass,
    ``backward(g) -> one gradient per parent``.  The first VJP that the
    tape calls runs it; each VJP then hands over its own gradient, and the
    last one leaves nothing held."""
    want = [i for i, p in enumerate(parents) if _needs_grad(p)]
    pending: dict[int, np.ndarray] = {}

    def vjp_for(i):
        def vjp(g):
            if not pending:
                gs = backward(g)
                pending.update((j, gs[j]) for j in want)
            return pending.pop(i)
        return vjp

    return [(p, vjp_for(i)) for i, p in enumerate(parents)]


def _attention(q: np.ndarray, k: np.ndarray, v: np.ndarray,
               bias: np.ndarray | None):
    """``scaled_dot_attention``'s forward on arrays: the output and
    ``backward(g) -> (gq, gk, gv)``.

    The heads are made contiguous once, the softmax runs in place, and the
    backward forms dS once for the gradients of q and k.  The scores of all
    heads are held key-major, (keys, heads..., queries), so that the
    softmax reduces over the leading axis of one 2-D array, which numpy
    vectorizes, rather than along many short rows."""
    qd, kd, vd = (np.ascontiguousarray(a) for a in (q, k, v))
    scale = 1.0 / np.sqrt(qd.shape[-1])
    lk = kd.shape[-2]

    def key_major(a, b):
        """a @ b^T per head, into a (keys, heads..., queries) array and its
        per-head (..., keys, queries) view."""
        out = np.empty((lk,) + qd.shape[:-1], dtype=qd.dtype)
        heads = np.moveaxis(out, 0, -2)
        np.matmul(a, np.swapaxes(b, -1, -2), out=heads)
        return out.reshape(lk, -1), heads

    p, p_heads = key_major(kd, qd)
    p *= scale
    if bias is not None:
        p_heads += np.swapaxes(np.atleast_2d(bias), -1, -2)
    _softmax_(p, axis=0)

    def backward(g):
        g = np.ascontiguousarray(g)
        ds, ds_heads = key_major(vd, g)
        _softmax_vjp_(p, ds, axis=0)
        ds *= scale
        return (np.matmul(np.swapaxes(ds_heads, -1, -2), kd),
                np.matmul(ds_heads, qd), np.matmul(p_heads, g))

    return np.matmul(np.swapaxes(p_heads, -1, -2), vd), backward


def scaled_dot_attention(q, k, v, mask_bias) -> Tensor:
    """softmax(q k^T / sqrt(d) + bias) v over the last two axes, as one
    primitive (``_attention``).

    ``mask_bias`` is a constant additive bias (0 for kept positions, large
    negative for padded ones), broadcastable to the score shape.
    """
    q, k, v = _wrap(q), _wrap(k), _wrap(v)
    bias = None if mask_bias is None else _wrap(mask_bias).data
    out, backward = _attention(q.data, k.data, v.data, bias)
    return _make(out, _joint_vjps([q, k, v], backward))


def transformer_block(x, weights: Sequence, n_heads: int, mask_bias,
                      p_drop: float, rng: np.random.Generator | None) -> Tensor:
    """A pre-norm Transformer block over x (B, L, d) as one primitive:

        h   = x + drop(attention(LN1(x)·Wq, LN1(x)·Wk, LN1(x)·Wv)·Wo)
        out = h + drop(GELU(LN2(h)·W1 + b1)·W2 + b2)

    ``weights`` is (ln1_g, ln1_b, wq, wk, wv, wo, ln2_g, ln2_b, w1, b1, w2,
    b2); attention splits d over ``n_heads`` heads and takes ``mask_bias``
    as ``scaled_dot_attention`` does.  Dropout draws the attention branch's
    mask, then the MLP branch's, as two ``dropout`` calls would.

    Every step is the arithmetic of the primitive it replaces, on the same
    array layouts: one GEMM per weight, ``_layernorm``, ``_attention``,
    ``_gelu``, bias gradients through ``_sum_to_shape``, and the gradients
    that LN1's output gets from Q, K and V summed in that order, as the
    tape sums them.  So the output and all 13 gradients (x and the
    weights), which one closed-form backward computes, are bit-identical
    to the composed ops, while the tape holds one node per block.
    """
    x = _wrap(x)
    ws = [_wrap(w) for w in weights]
    ln1_g, ln1_b, wq, wk, wv, wo, ln2_g, ln2_b, w1, b1, w2, b2 = \
        (w.data for w in ws)
    b, l, d = x.shape
    shape_heads = (b, l, n_heads, d // n_heads)

    def drop(a):
        keep = _dropout_keep(a.shape, p_drop, rng)
        if keep is not None:
            a *= keep
        return keep

    h1, xhat1, inv1 = _layernorm(x.data, ln1_g, ln1_b)
    h1 = h1.reshape(-1, d)
    att, att_backward = _attention(
        *((h1 @ w).reshape(shape_heads).transpose(0, 2, 1, 3)
          for w in (wq, wk, wv)),
        None if mask_bias is None else _wrap(mask_bias).data)
    att = att.transpose(0, 2, 1, 3).reshape(-1, d)
    a = (att @ wo).reshape(x.shape)
    keep1 = drop(a)
    x1 = x.data + a
    h2, xhat2, inv2 = _layernorm(x1, ln2_g, ln2_b)
    h2 = h2.reshape(-1, d)
    f = w1.shape[1]
    z = (h2 @ w1).reshape(b, l, f)
    z += b1
    act, dact = _gelu(z)
    act = act.reshape(-1, f)
    y = (act @ w2).reshape(x.shape)
    y += b2
    keep2 = drop(y)
    y += x1

    def backward(g):
        gy = g if keep2 is None else g * keep2
        gz = (gy.reshape(-1, d) @ w2.T).reshape(dact.shape)
        g_w2 = act.T @ gy.reshape(-1, d)
        gz *= dact
        g_w1 = h2.T @ gz.reshape(-1, f)
        g_h2 = (gz.reshape(-1, f) @ w1.T).reshape(x.shape)
        g_x1 = g + _layernorm_vjp_x(g_h2, ln2_g, xhat2, inv2)
        ga = g_x1 if keep1 is None else g_x1 * keep1
        g_wo = att.T @ ga.reshape(-1, d)
        g_att = (ga.reshape(-1, d) @ wo.T).reshape(shape_heads)
        g_h1, g_qkv = None, []
        for gh, w in zip(att_backward(g_att.transpose(0, 2, 1, 3)),
                         (wq, wk, wv)):
            gh = gh.transpose(0, 2, 1, 3).reshape(-1, d)
            g_qkv.append(h1.T @ gh)
            gh = gh @ w.T
            g_h1 = gh if g_h1 is None else g_h1 + gh
        g_h1 = g_h1.reshape(x.shape)
        return [g_x1 + _layernorm_vjp_x(g_h1, ln1_g, xhat1, inv1),
                _sum_to_shape(g_h1 * xhat1, ln1_g.shape),
                _sum_to_shape(g_h1, ln1_b.shape), *g_qkv, g_wo,
                _sum_to_shape(g_h2 * xhat2, ln2_g.shape),
                _sum_to_shape(g_h2, ln2_b.shape), g_w1,
                _sum_to_shape(gz, b1.shape), g_w2,
                _sum_to_shape(gy, b2.shape)]

    return _make(y, _joint_vjps([x, *ws], backward))


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


def l1(a, b) -> Tensor:
    """Mean absolute value of ``a - b``."""
    return mean(abs_(_wrap(a) - _wrap(b)))


def l2(a, b) -> Tensor:
    """Mean squared value of ``a - b``."""
    t = _wrap(a) - _wrap(b)
    return mean(mul(t, t))


def cross_entropy_with_label_smoothing(logits, targets: np.ndarray,
                                       smoothing: float) -> Tensor:
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
# convolution
#
# Columns are laid out (B, C·kh·kw, oh·ow): a (Cout, C·kh·kw) weight times
# one image's columns is that image's NCHW output, and folding columns back
# adds whole contiguous (oh, ow) planes.  A stride-1 convolution on planes
# of at least _SHIFTED_MIN_PLANE outputs that writes no more channels than
# it reads skips the columns: it sums kh·kw GEMMs over shifted views of
# the padded input (Anderson et al. 2017, arXiv:1709.03395).  Below that
# size, or with fewer input than output channels, the columns were faster
# (measured on 2 Xeon vCPUs with OpenBLAS, at the tokenizer's shapes).

_SHIFTED_MIN_PLANE = 64


def _pair(v) -> tuple[int, int]:
    return (v, v) if isinstance(v, int) else (int(v[0]), int(v[1]))


def _im2col(x: np.ndarray, kh: int, kw: int, sh: int, sw: int,
            ph: int, pw: int) -> np.ndarray:
    b, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    cols = np.empty((b, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + sh * oh:sh, j:j + sw * ow:sw]
    return cols.reshape(b, c * kh * kw, oh * ow)


def _col2im(cols: np.ndarray, x_shape: tuple[int, ...], kh: int, kw: int,
            sh: int, sw: int, ph: int, pw: int, oh: int, ow: int) -> np.ndarray:
    b, c, h, w = x_shape
    xp = np.zeros((b, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    cols6 = cols.reshape(b, c, kh, kw, oh, ow)
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i:i + sh * oh:sh, j:j + sw * ow:sw] += cols6[:, :, i, j]
    return xp[:, :, ph:ph + h, pw:pw + w]


def _weight_grad(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Σ over the batch of a[n] @ b[n]^T: (B, m, L), (B, k, L) -> (m, k)."""
    return np.matmul(a, np.swapaxes(b, 1, 2)).sum(axis=0)


def _shifted_conv(x: np.ndarray, w: np.ndarray, ph: int, pw: int):
    """Stride-1 convolution without columns.  Each plane of the padded
    input is flattened with row pitch wp; output (y, c) then reads flat
    offset (y + i)·wp + c + j for tap (i, j), so a tap is one GEMM on a
    contiguous slice, and each output row carries wp − ow columns of junk
    that are cut off.  Returns the output and the weight-gradient map."""
    b, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    hp, wp = h + 2 * ph, wd + 2 * pw
    oh, ow = hp - kh + 1, wp - kw + 1
    n = oh * wp
    flat = np.zeros((b, cin, hp * wp + kw - 1), dtype=x.dtype)
    flat[:, :, :hp * wp].reshape(b, cin, hp, wp)[:, :, ph:ph + h, pw:pw + wd] = x
    taps = [(i, j, i * wp + j) for i in range(kh) for j in range(kw)]
    w_taps = np.ascontiguousarray(w.transpose(2, 3, 0, 1))
    out = np.empty((b, cout, n), dtype=x.dtype)
    part = np.empty_like(out)
    for t, (i, j, off) in enumerate(taps):
        np.matmul(w_taps[i, j], flat[:, :, off:off + n], out=part if t else out)
        if t:
            out += part

    def weight_grad(g):
        gp = np.zeros((b, cout, oh, wp), dtype=g.dtype)
        gp[..., :ow] = g
        gp = gp.reshape(b, cout, n)
        gw = np.empty(w.shape, dtype=g.dtype)
        for i, j, off in taps:
            gw[:, :, i, j] = _weight_grad(gp, flat[:, :, off:off + n])
        return gw

    return out.reshape(b, cout, oh, wp)[..., :ow], weight_grad


def _conv(x: np.ndarray, w: np.ndarray, sh: int, sw: int, ph: int, pw: int):
    """``conv2d``'s forward on arrays: the output and the map from the
    output gradient to the weight gradient."""
    b, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    oh, ow = (h + 2 * ph - kh) // sh + 1, (wd + 2 * pw - kw) // sw + 1
    if (sh, sw) == (1, 1) and cin >= cout and oh * ow >= _SHIFTED_MIN_PLANE:
        return _shifted_conv(x, w, ph, pw)
    cols = _im2col(x, kh, kw, sh, sw, ph, pw)
    out = np.matmul(w.reshape(cout, -1), cols).reshape(b, cout, oh, ow)
    return out, lambda g: _weight_grad(g.reshape(b, cout, -1), cols).reshape(w.shape)


def _with_bias(data: np.ndarray, b, parents: list) -> Tensor:
    """Add a per-channel bias to NCHW ``data`` and make the tape node."""
    if b is None:
        return _make(np.ascontiguousarray(data), parents)
    b = _wrap(b)
    parents.append(
        (b, lambda g: g.sum(axis=(0, 2, 3), dtype=np.float64).astype(DTYPE)))
    return _make(data + b.data.reshape(1, -1, 1, 1), parents)


def conv2d(x, w, b=None, stride=1, padding=0) -> Tensor:
    """2D convolution (cross-correlation); x: (B, Cin, H, W), w: (Cout, Cin, kh, kw)."""
    x, w = _wrap(x), _wrap(w)
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    cout, cin, kh, kw = w.shape
    if x.shape[1] != cin:
        raise ShapeError(f"conv2d: input channels {x.shape} vs weight {w.shape}")
    data, weight_grad = _conv(x.data, w.data, sh, sw, ph, pw)
    bsz, _, oh, ow = data.shape

    def vjp_x(g):
        if (sh, sw) == (1, 1) and ph < kh and pw < kw:
            # at stride 1 the input gradient is g convolved with the
            # flipped kernel, its channel axes swapped
            flipped = w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            return _conv(g, np.ascontiguousarray(flipped), 1, 1,
                         kh - 1 - ph, kw - 1 - pw)[0]
        gcols = np.matmul(w.data.reshape(cout, -1).T, g.reshape(bsz, cout, -1))
        return _col2im(gcols, x.shape, kh, kw, sh, sw, ph, pw, oh, ow)

    return _with_bias(data, b, [(x, vjp_x), (w, weight_grad)])


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
    xmat = x.data.reshape(bsz, cin, h * wd)
    cols = np.matmul(wmat.T, xmat)                   # (B, Cout*kh*kw, hw)
    data = _col2im(cols, (bsz, cout, out_h, out_w),
                   kh, kw, sh, sw, ph, pw, h, wd)

    def backward(g):
        gcols = _im2col(g, kh, kw, sh, sw, ph, pw)
        return (np.matmul(wmat, gcols).reshape(x.shape),
                _weight_grad(xmat, gcols).reshape(w.shape))

    return _with_bias(data, b, _joint_vjps([x, w], backward))


def _dropout_keep(shape, p: float,
                  rng: np.random.Generator | None) -> np.ndarray | None:
    """Inverted dropout's multiplier, 0 or 1/(1 − p); None when p == 0 or
    rng is None (eval mode)."""
    if p <= 0.0 or rng is None:
        return None
    return (rng.random(shape) >= p).astype(DTYPE) / (1.0 - p)


def dropout(x, p: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity when p == 0 or rng is None (eval mode).
    The pipeline's dropout runs inside ``transformer_block``; the tests'
    composed-block reference draws its masks through this op."""
    x = _wrap(x)
    keep = _dropout_keep(x.shape, p, rng)
    return x if keep is None else mul(x, Tensor(keep))


# ---------------------------------------------------------------------------
# parameters, modules, optimizers


class Module:
    """Tiny parameter container: any Tensor attribute with requires_grad,
    plus the parameters of nested Modules and lists of Modules."""

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
        return out

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())

    def freeze(self) -> None:
        """Inference: no op on these parameters records a tape."""
        for p in self.parameters():
            p.requires_grad = False


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

    ``weight_decay=0`` reduces exactly to Adam.
    """

    def __init__(self, params: Iterable[Tensor], lr: float, beta1: float,
                 beta2: float, weight_decay: float):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.weight_decay = weight_decay
        self.eps = 1e-8
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, grads: Sequence[np.ndarray | None],
             lr: float | None = None) -> None:
        """One update from ``grads``, one per parameter in order (what
        ``loss.backward(self.params)`` returns); a parameter whose gradient
        is None keeps its value and moments."""
        lr = float(self.lr if lr is None else lr)
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v, strict=True):
            if g is None:
                continue
            # m = b1·m + (1−b1)·g and v = b2·v + (1−b2)·g·g, in place
            scratch = np.multiply(g, 1.0 - b1)
            m *= b1
            m += scratch
            np.multiply(g, 1.0 - b2, out=scratch)
            scratch *= g
            v *= b2
            v += scratch
            # update = (m / bias1) / (sqrt(v / bias2) + eps) [+ wd·p]
            update = np.divide(m, bias1)
            np.divide(v, bias2, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += self.eps
            update /= scratch
            if self.weight_decay:
                update += np.multiply(p.data, self.weight_decay, out=scratch)
            # p - lr·update lands in a new array: whoever holds the old
            # p.data keeps its values
            new = np.multiply(update, lr)
            np.subtract(p.data, new, out=new)
            p.data = new.astype(DTYPE, copy=False)


def cosine_lr(step: int, total_steps: int, base_lr: float,
              warmup_steps: int) -> float:
    if warmup_steps and step < warmup_steps:
        return base_lr * (step + 1) / warmup_steps
    span = max(total_steps - warmup_steps, 1)
    frac = min(max(step - warmup_steps, 0) / span, 1.0)
    return float(0.5 * base_lr * (1.0 + np.cos(np.pi * frac)))


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


class Trained(NamedTuple):
    """Every trainer's result; ``ema`` is None where it keeps no EMA."""
    model: Module
    ema: Ema | None
    history: list[dict[str, float]]


def train(params: dict[str, Tensor], cfg, step_loss: Callable[[int], tuple],
          stage: str) -> tuple[Ema, list[dict[str, float]]]:
    """``cfg.steps`` steps of AdamW + cosine LR + EMA, all from ``cfg``, over
    ``step_loss(step)``: the loss and the step's row of named floats.  A
    non-finite loss raises before that step's update.  Returns the EMA and
    the rows; each loss is dropped as soon as ``backward`` has run."""
    opt = AdamW(params.values(), lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
                weight_decay=cfg.weight_decay)
    ema = Ema(params, cfg.ema_decay)
    history = []
    for step in range(cfg.steps):
        loss, row = step_loss(step)
        if not np.isfinite(loss.data):
            raise NumericError(f"non-finite {stage} loss at step {step}")
        grads = loss.backward(opt.params)
        del loss
        opt.step(grads, lr=cosine_lr(step, cfg.steps, cfg.lr, cfg.warmup_steps))
        ema.update(params)
        history.append(row)
    return ema, history


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_VERSION = 1


def save_checkpoint(path, params: dict[str, Tensor], meta: dict,
                    ema: Ema | None) -> None:
    """Named-parameter table with an optional EMA shadow and a versioned
    JSON header, in an npz container."""
    arrays: dict[str, np.ndarray] = {}
    header = {
        "version": CHECKPOINT_VERSION,
        "param_names": sorted(params),
        "has_ema": ema is not None,
        "meta": meta,
    }
    for name, p in params.items():
        arrays[f"param/{name}"] = p.data
    if ema is not None:
        for name, arr in ema.shadow.items():
            arrays[f"ema/{name}"] = arr
    arrays["__header__"] = np.frombuffer(
        json.dumps(header, sort_keys=True).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:  # as named: numpy would append ".npz"
        np.savez_compressed(fh, **arrays)


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
