import json
import tracemalloc
import weakref

import numpy as np
import pytest

from clef import grad
from clef.config import MimConfig
from clef.errors import DataError, NumericError
from clef.grad import Tensor

from fdcheck import check_gradients, float64_mode


SEEDS = [11, 12, 13]


@pytest.mark.parametrize("seed", SEEDS)
def test_fd_elementwise(seed):
    check_gradients(lambda ts: grad.sum_(grad.mul(ts[0], ts[1])),
                    [(3, 4), (3, 4)], seed)
    check_gradients(lambda ts: grad.sum_(grad.add(ts[0], ts[1])),
                    [(2, 5), (5,)], seed)  # broadcast
    check_gradients(lambda ts: grad.sum_(grad.div(ts[0], grad.add(grad.mul(ts[1], ts[1]), 1.0))),
                    [(4,), (4,)], seed)
    check_gradients(lambda ts: grad.sum_(grad.power(grad.add(grad.mul(ts[0], ts[0]), 0.5), 1.5)),
                    [(3, 3)], seed)
    check_gradients(lambda ts: grad.sum_(grad.exp(grad.mul(ts[0], 0.3))), [(6,)], seed)
    check_gradients(lambda ts: grad.sum_(grad.log(grad.add(grad.mul(ts[0], ts[0]), 1.0))),
                    [(5,)], seed)
    check_gradients(lambda ts: grad.sum_(grad.tanh(ts[0])), [(4, 2)], seed)
    check_gradients(lambda ts: grad.sum_(grad.gelu(ts[0])), [(4, 3)], seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_fd_relu_abs_away_from_kink(seed):
    rng = np.random.default_rng(seed)
    shift = Tensor(np.sign(rng.normal(size=(4, 4))) * 2.0)
    check_gradients(lambda ts: grad.sum_(grad.relu(grad.add(ts[0], shift))),
                    [(4, 4)], seed)
    check_gradients(lambda ts: grad.sum_(grad.abs_(grad.add(ts[0], shift))),
                    [(4, 4)], seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_fd_reductions_and_shapes(seed):
    check_gradients(lambda ts: grad.sum_(grad.mean(ts[0], axis=1)), [(3, 5)], seed)
    check_gradients(lambda ts: grad.sum_(grad.mul(grad.reshape(ts[0], (6, 2)), 1.5)),
                    [(3, 4)], seed)
    check_gradients(lambda ts: grad.sum_(grad.mul(grad.transpose(ts[0], (1, 0, 2)), ts[1])),
                    [(2, 3, 4), (3, 2, 4)], seed)
    check_gradients(lambda ts: grad.sum_(grad.mul(grad.concat([ts[0], ts[1]], axis=1), 2.0)),
                    [(2, 3), (2, 2)], seed)
    check_gradients(lambda ts: grad.sum_(grad.getitem(ts[0], (slice(None), slice(1, 3)))),
                    [(3, 5)], seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_fd_matmul(seed):
    check_gradients(lambda ts: grad.sum_(grad.matmul(ts[0], ts[1])),
                    [(3, 4), (4, 2)], seed)
    check_gradients(lambda ts: grad.sum_(grad.matmul(ts[0], ts[1])),
                    [(2, 3, 4), (2, 4, 5)], seed)
    # broadcast batched against shared weight
    check_gradients(lambda ts: grad.sum_(grad.matmul(ts[0], ts[1])),
                    [(2, 3, 4), (4, 5)], seed)


def test_matmul_shape_error():
    with pytest.raises(grad.ShapeError) as exc:
        grad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)


def test_add_shape_error_mentions_both_shapes():
    with pytest.raises(grad.ShapeError) as exc:
        grad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
    assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)


@pytest.mark.parametrize("seed", SEEDS)
def test_fd_embedding(seed):
    ids = np.array([[0, 2, 1], [2, 2, 0]])
    check_gradients(lambda ts: grad.sum_(grad.mul(grad.getitem(ts[0], ids), 1.3)),
                    [(4, 5)], seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_fd_softmax_layernorm(seed):
    check_gradients(
        lambda ts: grad.sum_(grad.mul(grad.softmax(ts[0], axis=-1), ts[1])),
        [(3, 5), (3, 5)], seed)
    check_gradients(
        lambda ts: grad.sum_(grad.mul(grad.layernorm(ts[0], ts[1], ts[2]), ts[3])),
        [(4, 6), (6,), (6,), (4, 6)], seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_fd_attention_and_pooling(seed):
    bias = np.zeros((1, 1, 3, 3))
    bias[..., 2] = -1e9

    def attn(ts):
        out = grad.scaled_dot_attention(ts[0], ts[1], ts[2], Tensor(bias))
        return grad.sum_(grad.mul(out, 0.7))

    check_gradients(attn, [(2, 2, 3, 4), (2, 2, 3, 4), (2, 2, 3, 4)], seed)

    mask = Tensor(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]]))
    check_gradients(
        lambda ts: grad.sum_(grad.mul(grad.mean_pool_masked(ts[0], mask), 1.1)),
        [(2, 3, 4)], seed)


def _composed_attention(q, k, v, bias):
    """The attention as separate tape ops: matmul, scale, bias, softmax, matmul."""
    scores = grad.mul(grad.matmul(q, grad.transpose(k, (0, 1, 3, 2))),
                      1.0 / np.sqrt(q.shape[-1]))
    return grad.matmul(grad.softmax(grad.add(scores, bias), axis=-1), v)


@pytest.mark.parametrize("shape", [(2, 3, 5, 4), (3, 2, 7, 6)])
def test_fused_attention_matches_composed_ops_at_float64(shape):
    rng = np.random.default_rng(shape[2])
    arrays = [rng.normal(size=shape) for _ in range(3)]
    bias = np.zeros((shape[0], 1, 1, shape[2]))
    bias[0, ..., -2:] = -1e9
    g = rng.normal(size=shape)
    with float64_mode():
        results = []
        for op in (grad.scaled_dot_attention, _composed_attention):
            leaves = [Tensor(a, requires_grad=True) for a in arrays]
            out = op(*leaves, Tensor(bias))
            results.append([out.data] + grad.sum_(
                grad.mul(out, Tensor(g))).backward(leaves))
    for fused, composed in zip(*results):
        assert fused.dtype == np.float64
        assert np.abs(fused - composed).max() <= 1e-12 * np.abs(composed).max()


def test_fused_attention_masked_keys_get_no_weight_and_no_gradient():
    """A masked key's k and v can be anything: the output keeps its bits,
    and the gradient into those rows of k and v is exactly zero."""
    rng = np.random.default_rng(4)
    b, h, l, d = 3, 2, 6, 8
    q, k, v = (rng.normal(size=(b, h, l, d)).astype(np.float32) for _ in range(3))
    keep = np.ones((b, l), bool)
    keep[0, 4:] = keep[2, 1] = False
    bias = Tensor(np.where(keep, 0.0, -1e9).astype(np.float32)[:, None, None, :])
    g = rng.normal(size=q.shape).astype(np.float32)
    op = lambda q_, k_, v_: grad.scaled_dot_attention(q_, k_, v_, bias)
    out, (_, gk, gv) = _forward_and_vjp(op, [q, k, v], g)
    masked = ~keep[:, None, :, None]
    k2 = np.where(masked, 50.0 * rng.normal(size=k.shape), k).astype(np.float32)
    v2 = np.where(masked, 1e3, v).astype(np.float32)
    out2, _ = _forward_and_vjp(op, [q, k2, v2], g)
    assert np.array_equal(out, out2)
    masked = np.broadcast_to(masked, gk.shape)
    assert not gk[masked].any() and not gv[masked].any()
    assert gk[~masked].any() and gv[~masked].any()


def _composed_block(x, ws, n_heads, bias, p_drop=0.0, rng=None):
    """The pre-norm block as separate tape ops (LN, Q/K/V, attention, W_o,
    dropout, residual, LN, W1 + b1, GELU, W2 + b2, dropout, residual): the
    reference that ``grad.transformer_block`` must match."""
    ln1_g, ln1_b, wq, wk, wv, wo, ln2_g, ln2_b, w1, b1, w2, b2 = ws
    b, l, d = x.shape

    def heads(t):
        return grad.transpose(grad.reshape(t, (b, l, n_heads, d // n_heads)),
                              (0, 2, 1, 3))

    h = grad.layernorm(x, ln1_g, ln1_b)
    h = grad.scaled_dot_attention(heads(grad.matmul(h, wq)),
                                  heads(grad.matmul(h, wk)),
                                  heads(grad.matmul(h, wv)), mask_bias=bias)
    h = grad.matmul(grad.reshape(grad.transpose(h, (0, 2, 1, 3)), (b, l, d)), wo)
    x = x + grad.dropout(h, p_drop, rng)
    h = grad.layernorm(x, ln2_g, ln2_b)
    h = grad.matmul(grad.gelu(grad.matmul(h, w1) + b1), w2) + b2
    return x + grad.dropout(h, p_drop, rng)


def _block_shapes(d, f):
    """The 12 weights' shapes, in the primitive's order, at width d and MLP
    width f."""
    return [(d,), (d,), (d, d), (d, d), (d, d), (d, d), (d,), (d,), (d, f),
            (f,), (f, d), (d,)]


def _block_arrays(b, l, d, f, seed, dtype):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(b, l, d))
    ws = [rng.normal(0.0, 1.0 / np.sqrt(s[0]), size=s) if len(s) == 2
          else 1.0 * (i in (0, 6)) + 0.1 * rng.normal(size=s)
          for i, s in enumerate(_block_shapes(d, f))]
    return [a.astype(dtype) for a in [x, *ws]]


def _key_bias(keep, dtype):
    return Tensor(np.where(keep, 0.0, -1e9).astype(dtype)[:, None, None, :])


def _block_and_grads(op, arrays, g, n_heads, bias, p_drop=0.0, rng=None):
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = op(leaves[0], leaves[1:], n_heads, bias, p_drop, rng)
    return [out.data] + grad.sum_(grad.mul(out, Tensor(g))).backward(leaves)


@pytest.mark.parametrize("masked", [True, False])
def test_fd_transformer_block(masked):
    """x and all 12 weights against central differences, at float64, with
    a key mask and without one (the Stage I decoder's ``bias=None``)."""
    b, l, d, f, n_heads = 2, 4, 4, 8, 2
    keep = np.ones((b, l), bool)
    keep[0, 2:] = keep[1, 1] = False

    def block(ts):
        bias = _key_bias(keep, np.float64) if masked else None
        out = grad.transformer_block(ts[0], ts[1:], n_heads, bias)
        return grad.sum_(grad.mul(out, Tensor(np.linspace(-1.0, 1.0, out.data.size)
                                              .reshape(out.shape))))

    check_gradients(block, [(b, l, d)] + _block_shapes(d, f), seed=21, rtol=1e-5)


@pytest.mark.parametrize("shape", [(2, 5, 8, 2), (3, 7, 12, 3)])
def test_transformer_block_matches_composed_ops_at_float64(shape):
    b, l, d, n_heads = shape
    arrays = _block_arrays(b, l, d, 4 * d, l, np.float64)
    keep = np.ones((b, l), bool)
    keep[0, -2:] = False
    g = np.random.default_rng(d).normal(size=(b, l, d))
    with float64_mode():
        results = [_block_and_grads(op, arrays, g, n_heads,
                                    _key_bias(keep, np.float64))
                   for op in (grad.transformer_block, _composed_block)]
    assert len(results[0]) == 14
    for fused, composed in zip(*results):
        assert fused.dtype == np.float64 and fused.shape == composed.shape
        assert np.abs(fused - composed).max() <= 1e-12 * np.abs(composed).max()


@pytest.mark.parametrize("shape,masked", [((4, 33, 64, 4), True),
                                          ((3, 19, 32, 4), True),
                                          ((2, 17, 32, 2), False)])
def test_transformer_block_float32_is_bit_identical_to_composed_ops(shape, masked):
    """Same GEMMs, layouts and reductions as the composed ops, and LN1's
    gradient summed from Q, K and V in the tape's order: every bit agrees."""
    b, l, d, n_heads = shape
    arrays = _block_arrays(b, l, d, 4 * d, l, np.float32)
    rng = np.random.default_rng(b)
    keep = rng.random((b, l)) > 0.3
    keep[:, 0] = True
    bias = _key_bias(keep, np.float32) if masked else None
    g = rng.normal(size=(b, l, d)).astype(np.float32)
    fused, composed = (_block_and_grads(op, arrays, g, n_heads, bias)
                       for op in (grad.transformer_block, _composed_block))
    for a, c in zip(fused, composed):
        assert a.dtype == np.float32 and np.array_equal(a, c)


def test_transformer_block_dropout_draws_as_the_composed_ops():
    """p_drop = 0.1: the attention branch's mask, then the MLP branch's,
    from the same draws; outputs, gradients and the rng state after agree."""
    b, l, d, n_heads = 3, 9, 16, 4
    arrays = _block_arrays(b, l, d, 4 * d, 5, np.float32)
    g = np.random.default_rng(6).normal(size=(b, l, d)).astype(np.float32)
    rngs = [np.random.default_rng(7) for _ in range(2)]
    fused, composed = (
        _block_and_grads(op, arrays, g, n_heads, None, 0.1, r)
        for op, r in zip((grad.transformer_block, _composed_block), rngs))
    for a, c in zip(fused, composed):
        assert np.array_equal(a, c)
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    eval_mode = _block_and_grads(grad.transformer_block, arrays, g, n_heads,
                                 None, 0.1, None)
    assert not np.array_equal(fused[0], eval_mode[0])


def test_transformer_block_masked_keys_get_no_weight_and_no_gradient():
    """A masked position's input reaches only its own output row: the
    kept rows keep their bits whatever it holds, and a loss on the kept
    rows sends it exactly zero gradient."""
    b, l, d, n_heads = 3, 6, 8, 2
    x, *ws = _block_arrays(b, l, d, 4 * d, 8, np.float32)
    keep = np.ones((b, l), bool)
    keep[0, 4:] = keep[2, 1] = False
    bias = _key_bias(keep, np.float32)
    g = np.where(keep[:, :, None], np.random.default_rng(9).normal(
        size=(b, l, d)), 0.0).astype(np.float32)
    out, gx, *_ = _block_and_grads(grad.transformer_block, [x, *ws], g,
                                   n_heads, bias)
    x2 = np.where(keep[:, :, None], x, 1e3).astype(np.float32)
    out2, *_ = _block_and_grads(grad.transformer_block, [x2, *ws], g,
                                n_heads, bias)
    assert np.array_equal(out[keep], out2[keep])
    assert not gx[~keep].any() and gx[keep].any()


def test_transformer_block_at_paper_small_width():
    """d = 512 with 8 heads, as the ``paper-small`` profiles run it."""
    b, l, d, n_heads = 2, 17, 512, 8
    arrays = _block_arrays(b, l, d, 4 * d, 10, np.float32)
    keep = np.ones((b, l), bool)
    keep[1, 9:] = False
    g = np.random.default_rng(11).normal(size=(b, l, d)).astype(np.float32)
    results = _block_and_grads(grad.transformer_block, arrays, g, n_heads,
                               _key_bias(keep, np.float32), 0.1,
                               np.random.default_rng(12))
    assert [r.shape for r in results] == [(b, l, d), (b, l, d)] + _block_shapes(d, 4 * d)
    assert all(np.isfinite(r).all() and r.dtype == np.float32 for r in results)


# ---------------------------------------------------------------------------
# float32 kernels against float64 references


def _forward_and_vjp(op, arrays, g):
    """``op``'s float32 output and the gradients that ``g`` pulls back to
    each input (sum(op * g) hands ``g`` to the op's VJPs unchanged)."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = op(*leaves)
    return out.data, grad.sum_(grad.mul(out, Tensor(g))).backward(leaves)


def test_gelu_float32_matches_float64_reference():
    from scipy.special import erf
    rng = np.random.default_rng(0)
    x = rng.normal(0.0, 3.0, size=(4, 65, 32)).astype(np.float32)
    g = rng.normal(size=x.shape).astype(np.float32)
    out, (gx,) = _forward_and_vjp(grad.gelu, [x], g)
    assert out.dtype == np.float32 and gx.dtype == np.float32
    x64 = x.astype(np.float64)
    cdf = 0.5 * (1.0 + erf(x64 / np.sqrt(2.0)))
    pdf = np.exp(-0.5 * x64 ** 2) / np.sqrt(2.0 * np.pi)
    assert np.abs(out - x64 * cdf).max() <= 2e-6
    assert np.abs(gx - g * (cdf + x64 * pdf)).max() <= 2e-6


def _gelu_reference64(x):
    from scipy.special import erf
    x64 = x.astype(np.float64)
    cdf = 0.5 * (1.0 + erf(x64 / np.sqrt(2.0)))
    return x64 * cdf, cdf + x64 * np.exp(-0.5 * x64 ** 2) / np.sqrt(2.0 * np.pi)


def _gelu_and_derivative(x):
    out, (gx,) = _forward_and_vjp(grad.gelu, [x], np.ones_like(x))
    return out, gx


def test_gelu_float32_on_a_dense_grid():
    x = np.linspace(-12.0, 12.0, 480_001).astype(np.float32)
    out, deriv = _gelu_and_derivative(x)
    want_out, want_deriv = _gelu_reference64(x)
    assert np.abs(out - want_out).max() <= 2e-6
    assert np.abs(deriv - want_deriv).max() <= 2e-6
    assert out[x >= 6.0].tolist() == x[x >= 6.0].tolist()


@pytest.mark.parametrize("offset", [-1, 0, 1, 37])
@pytest.mark.parametrize("chunks", [1, 2])
def test_gelu_float32_chunk_edges(offset, chunks):
    """Sizes at, below and past the kernel's chunk: each element equals the
    same element computed alone."""
    n = chunks * grad._GELU_CHUNK + offset
    x = np.random.default_rng(n).normal(0.0, 3.0, size=n).astype(np.float32)
    out, deriv = _gelu_and_derivative(x)
    assert out.shape == deriv.shape == (n,)
    c = grad._GELU_CHUNK
    for i in sorted({0, n // 2, n - 1} | {j for j in (c - 1, c) if j < n}):
        one_out, one_deriv = _gelu_and_derivative(x[i:i + 1])
        assert out[i] == one_out[0] and deriv[i] == one_deriv[0]
    want_out, want_deriv = _gelu_reference64(x)
    assert np.abs(out - want_out).max() <= 2e-6
    assert np.abs(deriv - want_deriv).max() <= 2e-6


def test_gelu_float32_empty_and_zero_d():
    out, deriv = _gelu_and_derivative(np.zeros((0, 3), np.float32))
    assert out.shape == deriv.shape == (0, 3)
    out, deriv = _gelu_and_derivative(np.array(1.5, np.float32))
    assert out.shape == deriv.shape == ()
    want_out, want_deriv = _gelu_reference64(np.array(1.5))
    assert abs(out - want_out) <= 2e-6 and abs(deriv - want_deriv) <= 2e-6


def test_gelu_float32_non_finite_inputs():
    """What x·Φ(x) and Φ(x) + x·φ(x) give in IEEE float32 with the exact
    erf: +inf -> inf, -inf -> nan (-inf·0), and every derivative nan
    (±inf·0); NaN stays NaN, so a NaN loss still stops ``grad.train``."""
    from scipy.special import erf
    x = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0], np.float32)
    with np.errstate(invalid="ignore", over="ignore"):
        cdf = (erf(x * np.float32(1 / np.sqrt(2))) + 1) * np.float32(0.5)
        want_out = x * cdf
        want_deriv = np.exp(np.float32(-0.5) * x * x) * np.float32(
            1 / np.sqrt(2 * np.pi)) * x + cdf
        out, deriv = _gelu_and_derivative(x)
    np.testing.assert_array_equal(out, want_out)
    np.testing.assert_array_equal(deriv, want_deriv)
    assert np.isnan(out[1:3]).all() and np.isnan(deriv[:3]).all()


def test_layernorm_float32_matches_float64_reference():
    rng = np.random.default_rng(1)
    x = (rng.normal(0.0, 2.0, size=(4, 65, 32)) + 5.0).astype(np.float32)
    gamma = rng.normal(1.0, 0.5, size=32).astype(np.float32)
    beta = rng.normal(size=32).astype(np.float32)
    g = rng.normal(size=x.shape).astype(np.float32)
    out, grads_ = _forward_and_vjp(grad.layernorm, [x, gamma, beta], g)
    assert out.dtype == np.float32
    assert all(gr.dtype == np.float32 for gr in grads_)
    x64, g64 = x.astype(np.float64), g.astype(np.float64)
    inv = 1.0 / np.sqrt(x64.var(axis=-1, keepdims=True) + 1e-5)
    xhat = (x64 - x64.mean(axis=-1, keepdims=True)) * inv
    gh = g64 * gamma
    ref = [inv * (gh - gh.mean(axis=-1, keepdims=True)
                  - xhat * (gh * xhat).mean(axis=-1, keepdims=True)),
           (g64 * xhat).sum(axis=(0, 1)), g64.sum(axis=(0, 1))]
    for got, want in zip([out] + grads_, [xhat * gamma + beta] + ref):
        assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


def test_matmul_by_matrix_is_one_gemm():
    """A 3-D ``a`` against a matrix: the forward and ``vjp_a`` keep the bits
    of ``np.matmul``; ``vjp_b`` equals the batched product summed over the
    batch within float32 rounding."""
    rng = np.random.default_rng(2)
    a = rng.normal(size=(4, 65, 64)).astype(np.float32)
    b = rng.normal(size=(64, 96)).astype(np.float32)
    g = rng.normal(size=(4, 65, 96)).astype(np.float32)
    out, (ga, gb) = _forward_and_vjp(grad.matmul, [a, b], g)
    assert np.array_equal(out, np.matmul(a, b))
    assert np.array_equal(ga, np.matmul(g, b.T))
    want = np.matmul(a.transpose(0, 2, 1), g).sum(axis=0)
    assert gb.shape == b.shape and gb.dtype == np.float32
    assert np.abs(gb - want).max() <= 1e-5 * np.abs(want).max()


@pytest.mark.parametrize("seed", SEEDS)
def test_fd_losses(seed):
    targets = np.array([1, 0, 3])
    check_gradients(
        lambda ts: grad.cross_entropy_with_label_smoothing(ts[0], targets, 0.1),
        [(3, 4)], seed)
    shift = Tensor(np.full((3, 4), 2.0))
    check_gradients(lambda ts: grad.l1(grad.add(ts[0], shift), ts[1]),
                    [(3, 4), (3, 4)], seed)
    check_gradients(lambda ts: grad.l2(ts[0], ts[1]), [(3, 4), (3, 4)], seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), ((2, 1), (1, 0)), (1, 1)])
def test_fd_conv2d(seed, stride, padding):
    check_gradients(
        lambda ts: grad.sum_(grad.mul(
            grad.conv2d(ts[0], ts[1], ts[2], stride=stride, padding=padding), 0.9)),
        [(2, 3, 6, 5), (4, 3, 3, 3), (4,)], seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), ((2, 1), (1, 1))])
def test_fd_transposed_conv2d(seed, stride, padding):
    check_gradients(
        lambda ts: grad.sum_(grad.mul(
            grad.transposed_conv2d(ts[0], ts[1], ts[2], stride=stride, padding=padding), 0.9)),
        [(2, 3, 4, 5), (3, 4, 3, 3), (4,)], seed)


# Direct sums over every output position and kernel tap, in float64.


def _conv_direct(x, w, stride, padding):
    (sh, sw), (ph, pw) = grad._pair(stride), grad._pair(padding)
    cout, _, kh, kw = w.shape
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh = (xp.shape[2] - kh) // sh + 1
    ow = (xp.shape[3] - kw) // sw + 1
    out = np.zeros((x.shape[0], cout, oh, ow))
    for y in range(oh):
        for c in range(ow):
            for i in range(kh):
                for j in range(kw):
                    out[:, :, y, c] += xp[:, :, y * sh + i, c * sw + j] @ w[:, :, i, j].T
    return out


def _conv_direct_vjps(x, w, g, stride, padding):
    (sh, sw), (ph, pw) = grad._pair(stride), grad._pair(padding)
    _, _, kh, kw = w.shape
    b, _, h, wd = x.shape
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    gxp, gw = np.zeros_like(xp), np.zeros(w.shape)
    for y in range(g.shape[2]):
        for c in range(g.shape[3]):
            for i in range(kh):
                for j in range(kw):
                    gxp[:, :, y * sh + i, c * sw + j] += g[:, :, y, c] @ w[:, :, i, j]
                    gw[:, :, i, j] += g[:, :, y, c].T @ xp[:, :, y * sh + i, c * sw + j]
    return gxp[:, :, ph:ph + h, pw:pw + wd], gw


def _transposed_direct(x, w, stride, padding, output_padding):
    (sh, sw), (ph, pw) = grad._pair(stride), grad._pair(padding)
    oph, opw = grad._pair(output_padding)
    _, cout, kh, kw = w.shape
    b, _, h, wd = x.shape
    out_h, out_w = (h - 1) * sh + kh - 2 * ph + oph, (wd - 1) * sw + kw - 2 * pw + opw
    full = np.zeros((b, cout, out_h + 2 * ph + kh, out_w + 2 * pw + kw))
    for y in range(h):
        for c in range(wd):
            for i in range(kh):
                for j in range(kw):
                    full[:, :, y * sh + i, c * sw + j] += x[:, :, y, c] @ w[:, :, i, j]
    return full[:, :, ph:ph + out_h, pw:pw + out_w]


def _transposed_direct_vjps(x, w, g, stride, padding):
    (sh, sw), (ph, pw) = grad._pair(stride), grad._pair(padding)
    _, _, kh, kw = w.shape
    b, _, h, wd = x.shape
    gp = np.zeros(g.shape[:2] + (g.shape[2] + 2 * ph + kh, g.shape[3] + 2 * pw + kw))
    gp[:, :, ph:ph + g.shape[2], pw:pw + g.shape[3]] = g
    gx, gw = np.zeros(x.shape), np.zeros(w.shape)
    for y in range(h):
        for c in range(wd):
            for i in range(kh):
                for j in range(kw):
                    tap = gp[:, :, y * sh + i, c * sw + j]
                    gx[:, :, y, c] += tap @ w[:, :, i, j].T
                    gw[:, :, i, j] += x[:, :, y, c].T.astype(np.float64) @ tap
    return gx, gw


def _assert_close32(got, want):
    assert got.dtype == np.float32 and got.shape == want.shape
    assert np.abs(got - want).max() <= 2e-6 * max(np.abs(want).max(), 1.0)


# (x shape, Cout, kernel, stride, padding): the tokenizer's geometries,
# 1x1 kernels, and planes of >= 64 outputs with Cin >= Cout, which take
# the shifted-view path (Cout > Cin there takes the columns).
CONV_CASES = [
    ((2, 3, 9, 10), 4, 3, (2, 2), 1),
    ((2, 3, 8, 6), 4, 3, (2, 1), 1),
    ((2, 3, 5, 6), 4, 3, (1, 1), 1),
    ((2, 4, 5, 3), 3, 1, 1, 0),
    ((2, 6, 9, 8), 4, 3, 1, 1),
    ((2, 5, 10, 12), 5, 3, 1, (1, 0)),
    ((2, 4, 8, 9), 6, 3, 1, 1),
    ((2, 4, 8, 8), 4, 1, 1, 0),
]


@pytest.mark.parametrize("x_shape,cout,k,stride,padding", CONV_CASES)
def test_conv2d_float32_matches_direct_sums(x_shape, cout, k, stride, padding):
    rng = np.random.default_rng(sum(x_shape) + cout + k)
    x = rng.normal(size=x_shape).astype(np.float32)
    w = rng.normal(size=(cout, x_shape[1], k, k)).astype(np.float32)
    want = _conv_direct(x, w, stride, padding)
    g = rng.normal(size=want.shape).astype(np.float32)
    out, (gx, gw) = _forward_and_vjp(
        lambda a, b: grad.conv2d(a, b, stride=stride, padding=padding), [x, w], g)
    _assert_close32(out, want)
    for got, ref in zip((gx, gw), _conv_direct_vjps(x, w, g, stride, padding)):
        _assert_close32(got, ref)


@pytest.mark.parametrize("x_shape,cout,k,stride,padding,output_padding", [
    ((2, 3, 4, 5), 4, 3, (2, 2), 1, (1, 1)),
    ((2, 3, 4, 5), 4, 3, (2, 1), 1, (1, 0)),
    ((2, 3, 4, 5), 2, 3, (1, 1), 1, (0, 0)),
    ((2, 4, 3, 3), 3, 1, 1, 0, 0),
    ((2, 3, 8, 9), 3, 3, 2, 1, 1),
])
def test_transposed_conv2d_float32_matches_direct_sums(
        x_shape, cout, k, stride, padding, output_padding):
    rng = np.random.default_rng(sum(x_shape) + cout + k)
    x = rng.normal(size=x_shape).astype(np.float32)
    w = rng.normal(size=(x_shape[1], cout, k, k)).astype(np.float32)
    want = _transposed_direct(x, w, stride, padding, output_padding)
    g = rng.normal(size=want.shape).astype(np.float32)
    out, (gx, gw) = _forward_and_vjp(
        lambda a, b: grad.transposed_conv2d(a, b, stride=stride, padding=padding,
                                            output_padding=output_padding),
        [x, w], g)
    _assert_close32(out, want)
    for got, ref in zip((gx, gw), _transposed_direct_vjps(x, w, g, stride, padding)):
        _assert_close32(got, ref)


def test_conv2d_paths_agree_on_the_tokenizer_planes(monkeypatch):
    """The same convolution through the shifted views and through the
    columns (the plane threshold raised out of reach)."""
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 16, 16, 16)).astype(np.float32)
    w = rng.normal(size=(16, 16, 3, 3)).astype(np.float32)
    g = rng.normal(size=x.shape).astype(np.float32)
    conv = lambda a, b: grad.conv2d(a, b, stride=1, padding=1)
    shifted = _forward_and_vjp(conv, [x, w], g)
    monkeypatch.setattr(grad, "_SHIFTED_MIN_PLANE", 10 ** 9)
    columns = _forward_and_vjp(conv, [x, w], g)
    for a, b in zip([shifted[0]] + shifted[1], [columns[0]] + columns[1]):
        assert np.abs(a - b).max() <= 1e-5 * np.abs(b).max()


def test_transposed_conv_is_adjoint_of_conv():
    # <conv(x), y> == <x, conv_T(y)> for matching geometry
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1, 2, 8, 8)).astype(np.float32)
    w = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
    y_shape = grad.conv2d(Tensor(x), Tensor(w), stride=2, padding=1).shape
    y = rng.normal(size=y_shape).astype(np.float32)
    lhs = float(np.sum(grad.conv2d(Tensor(x), Tensor(w), stride=2, padding=1).data * y))
    # transposed-conv weight layout is (Cin_t, Cout_t, kh, kw) == conv's (Cout, Cin, kh, kw)
    back = grad.transposed_conv2d(Tensor(y), Tensor(w),
                                  stride=2, padding=1, output_padding=1)
    rhs = float(np.sum(back.data * x))
    assert np.isclose(lhs, rhs, rtol=1e-4)


def test_sum_square_gradient_hand_case():
    x = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
    loss = grad.sum_(grad.mul(x, x))
    assert np.allclose(loss.backward([x])[0], [2.0, 4.0])


def test_softmax_rows_and_jacobian():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    s = grad.softmax(x, axis=-1)
    assert np.allclose(s.data.sum(axis=-1), 1.0, atol=1e-6)
    # Jacobian rows sum to zero: grad of sum(softmax) wrt x is 0
    assert np.allclose(grad.sum_(s).backward([x])[0], 0.0, atol=1e-6)


def test_stop_gradient_blocks_flow():
    x = Tensor(np.array([3.0]), requires_grad=True)
    y = Tensor(np.array([2.0]), requires_grad=True)
    loss = grad.sum_(grad.mul(grad.stop_gradient(x), y))
    gx, gy = loss.backward([x, y])
    assert gx is None
    assert np.allclose(gy, [3.0])


def test_backward_returns_none_for_an_unreached_tensor():
    w = Tensor(np.array([1.0, -2.0], np.float32), requires_grad=True)
    unreached = Tensor(np.ones(3, np.float32), requires_grad=True)
    g, none = grad.sum_(grad.mul(w, w)).backward([w, unreached])
    assert g.dtype == np.float32 and g.tolist() == [2.0, -4.0]
    assert none is None


def test_backward_twice_returns_the_same_gradients():
    """Nothing accumulates between calls and the tape is left intact."""
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2)).astype(np.float32), requires_grad=True)
    loss = grad.sum_(grad.tanh(grad.matmul(x, w)))
    first, second = loss.backward([x, w]), loss.backward([x, w])
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, second))


def test_tensor_stores_no_gradient():
    t = Tensor(np.zeros(2), requires_grad=True)
    assert "grad" not in Tensor.__slots__ and not hasattr(t, "grad")


def test_adamw_step_leaves_a_parameter_without_gradient_untouched():
    """A None gradient skips its parameter: value, m and v stay as the
    previous step left them, while the other parameters move."""
    a, b = (Tensor(np.full(3, v, np.float32), requires_grad=True)
            for v in (1.0, -1.0))
    opt = grad.AdamW([a, b], lr=0.1, beta1=0.9, beta2=0.95, weight_decay=0.1)
    opt.step([np.ones(3, np.float32), np.ones(3, np.float32)])
    held = [x.copy() for x in (b.data, opt.m[1], opt.v[1])]
    a_before = a.data.copy()
    opt.step([np.ones(3, np.float32), None])
    assert all(x.tobytes() == y.tobytes()
               for x, y in zip((b.data, opt.m[1], opt.v[1]), held))
    assert not np.array_equal(a.data, a_before)


def test_uniform_ce_equals_log_k():
    logits = Tensor(np.zeros((5, 64)))
    loss = grad.cross_entropy_with_label_smoothing(logits, np.zeros(5, dtype=int), 0.1)
    assert np.isclose(float(loss.data), np.log(64), atol=1e-6)


def test_ce_one_hot_no_smoothing_near_zero():
    logits = np.full((3, 4), -50.0)
    logits[np.arange(3), [0, 2, 1]] = 50.0
    loss = grad.cross_entropy_with_label_smoothing(Tensor(logits), np.array([0, 2, 1]), 0.0)
    assert float(loss.data) < 1e-6


def test_ce_smoothing_hand_case():
    # K=4, single row, logits [2, 0, 0, 0], target 0, smoothing 0.1
    logits = np.array([[2.0, 0.0, 0.0, 0.0]])
    x = logits[0]
    lse = np.log(np.exp(x).sum())
    soft = np.array([0.925, 0.025, 0.025, 0.025])
    expected = -(soft * (x - lse)).sum()
    loss = grad.cross_entropy_with_label_smoothing(Tensor(logits), np.array([0]), 0.1)
    assert np.isclose(float(loss.data), expected, atol=1e-6)


def test_adam_descent_one_step():
    x = Tensor(np.array([1.0]), requires_grad=True)
    opt = grad.AdamW([x], lr=0.1, beta1=0.9, beta2=0.95, weight_decay=0.0)
    loss = grad.sum_(grad.mul(x, x))
    opt.step(loss.backward([x]))
    assert np.all(np.abs(x.data) < 1.0)


def test_adamw_wd_zero_equals_adam():
    rng = np.random.default_rng(1)
    x0 = rng.normal(size=(5,)).astype(np.float32)
    paths = []
    for wd in (0.0, 0.0):
        x = Tensor(x0.copy(), requires_grad=True)
        opt = grad.AdamW([x], lr=0.05, beta1=0.9, beta2=0.999, weight_decay=wd)
        for _ in range(10):
            opt.step(grad.sum_(grad.mul(x, x)).backward([x]))
        paths.append(x.data.copy())
    assert np.array_equal(paths[0], paths[1])
    # and wd>0 actually changes the path
    x = Tensor(x0.copy(), requires_grad=True)
    opt = grad.AdamW([x], lr=0.05, beta1=0.9, beta2=0.999, weight_decay=0.5)
    for _ in range(10):
        opt.step(grad.sum_(grad.mul(x, x)).backward([x]))
    assert not np.array_equal(paths[0], x.data)


def _adamw_out_of_place(opt, params, grads, lr, state):
    """One step of AdamW's formula, new arrays throughout."""
    state["t"] += 1
    b1, b2 = opt.beta1, opt.beta2
    bias1, bias2 = 1.0 - b1 ** state["t"], 1.0 - b2 ** state["t"]
    for i, (p, g) in enumerate(zip(params, grads)):
        if g is None:
            continue
        state["m"][i] = b1 * state["m"][i] + (1.0 - b1) * g
        state["v"][i] = b2 * state["v"][i] + (1.0 - b2) * g * g
        mhat = state["m"][i] / bias1
        vhat = state["v"][i] / bias2
        update = mhat / (np.sqrt(vhat) + opt.eps)
        if opt.weight_decay:
            update = update + opt.weight_decay * p.data
        p.data = (p.data - lr * update).astype(grad.DTYPE)


@pytest.mark.parametrize("make", [
    lambda ps: grad.AdamW(ps, lr=0.05, beta1=0.9, beta2=0.95, weight_decay=0.1),
    lambda ps: grad.AdamW(ps, lr=0.05, beta1=0.0, beta2=0.99,
                          weight_decay=0.0)])
def test_adamw_in_place_matches_out_of_place_formula(make):
    rng = np.random.default_rng(9)
    init = [rng.normal(size=s).astype(np.float32) for s in [(4, 3), (5,), (2,)]]
    ours = [Tensor(a.copy(), requires_grad=True) for a in init]
    ref = [Tensor(a.copy(), requires_grad=True) for a in init]
    opt = make(ours)
    state = {"t": 0, "m": [np.zeros_like(a) for a in init],
             "v": [np.zeros_like(a) for a in init]}
    for step in range(5):
        lr = opt.lr if step % 2 else grad.cosine_lr(step, 5, opt.lr)
        grads_ = [rng.normal(size=a.shape).astype(np.float32) for a in init]
        grads_[2] = None                   # a parameter with no gradient
        held = [p.data for p in ours]
        before = [h.copy() for h in held]
        opt.step(grads_, lr=lr)
        _adamw_out_of_place(opt, ref, grads_, lr, state)
        for h, b in zip(held, before):
            assert np.array_equal(h, b)    # the old p.data is never written
        for p, r in zip(ours, ref):
            assert p.data.dtype == np.float32
            assert p.data.tobytes() == r.data.tobytes()
        assert all(m.tobytes() == sm.tobytes() for m, sm in zip(opt.m, state["m"]))
        assert all(v.tobytes() == sv.tobytes() for v, sv in zip(opt.v, state["v"]))
    assert np.array_equal(ours[2].data, init[2])
    assert not np.array_equal(ours[0].data, init[0])


def test_adamw_numpy_lr_updates_in_float32():
    """A numpy float64 lr gives the bytes a Python float does: the update
    runs in float32 under numpy 1.x and 2.x promotion alike, and cosine_lr
    hands out Python floats during warmup and after it."""
    assert all(type(grad.cosine_lr(t, 10, 0.05, 3)) is float for t in (0, 5))
    rng = np.random.default_rng(5)
    init = rng.normal(size=(64, 7)).astype(np.float32)
    grads_ = [rng.normal(size=init.shape).astype(np.float32) for _ in range(4)]
    out = []
    for to_lr in (np.float64, float):
        x = Tensor(init.copy(), requires_grad=True)
        opt = grad.AdamW([x], lr=0.05, beta1=0.9, beta2=0.95,
                         weight_decay=0.1)
        for t, g in enumerate(grads_):
            opt.step([g], lr=to_lr(0.05 / (t + 3)))
        out.append(x.data.tobytes())
    assert out[0] == out[1]


def test_quadratic_bowl_converges():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(8,)).astype(np.float32), requires_grad=True)
    opt = grad.AdamW([x], lr=0.1, beta1=0.9, beta2=0.95, weight_decay=0.0)
    for t in range(500):
        opt.step(grad.sum_(grad.mul(x, x)).backward([x]),
                 lr=grad.cosine_lr(t, 500, 0.1))
    assert np.linalg.norm(x.data) < 1e-3


def test_ema_boundary_and_geometric():
    live = np.array([2.0])
    assert grad.ema_update(np.array([5.0]), live, 0.0) == pytest.approx(2.0)
    assert grad.ema_update(np.array([5.0]), live, 1.0) == pytest.approx(5.0)
    s0, d, n = 5.0, 0.9, 17
    s = np.array([s0])
    for _ in range(n):
        s = grad.ema_update(s, live, d)
    expected = s0 * d ** n + 2.0 * (1.0 - d ** n)
    assert np.isclose(s[0], expected, atol=1e-6)


def test_dropout_identity_and_inverted_scale():
    x = Tensor(np.arange(1.0, 401.0, dtype=np.float32).reshape(20, 20))
    rng = np.random.default_rng(0)
    assert np.array_equal(grad.dropout(x, 0.0, rng).data, x.data)
    assert rng.random() == np.random.default_rng(0).random()  # no draw at p=0
    assert np.array_equal(grad.dropout(x, 0.5, None).data, x.data)
    y = grad.dropout(x, 0.5, np.random.default_rng(1)).data
    kept = y != 0.0
    assert 0 < kept.sum() < x.data.size
    assert np.array_equal(y[kept], 2.0 * x.data[kept])


def test_training_trajectory_deterministic():
    def run():
        rng = np.random.default_rng(7)
        w = Tensor(rng.normal(size=(4, 4)).astype(np.float32), requires_grad=True)
        opt = grad.AdamW([w], lr=0.01, beta1=0.9, beta2=0.95,
                         weight_decay=0.1)
        for _ in range(20):
            x = Tensor(rng.normal(size=(2, 4)).astype(np.float32))
            opt.step(grad.l2(grad.matmul(x, w)).backward([w]))
        return w.data.copy()

    assert np.array_equal(run(), run())


def _bowl():
    rng = np.random.default_rng(5)
    params = {"w": Tensor(rng.normal(size=(3, 4)).astype(np.float32),
                          requires_grad=True),
              "b": Tensor(rng.normal(size=(4,)).astype(np.float32),
                          requires_grad=True)}
    target = rng.normal(size=(3, 4)).astype(np.float32)
    return params, lambda step: grad.l2(params["w"] + params["b"], target)


def _with_row(loss_at):
    """``loss_at`` as a ``grad.train`` step: the loss and its one-entry row."""
    def step_loss(step):
        loss = loss_at(step)
        return loss, {"loss": float(loss.data)}
    return step_loss


def _hand_rolled(cfg, total, run):
    """``run`` steps of a ``total``-step AdamW + cosine + EMA schedule."""
    params, loss_at = _bowl()
    opt = grad.AdamW(params.values(), lr=cfg.lr, beta1=cfg.beta1,
                     beta2=cfg.beta2, weight_decay=cfg.weight_decay)
    ema = grad.Ema(params, cfg.ema_decay)
    for step in range(run):
        opt.step(loss_at(step).backward(opt.params),
                 lr=grad.cosine_lr(step, total, cfg.lr, cfg.warmup_steps))
        ema.update(params)
    return params, ema


def test_train_matches_hand_rolled_loop():
    cfg = MimConfig(lr=0.05, warmup_steps=2, ema_decay=0.8, steps=6)
    params, loss_at = _bowl()
    ema, history = grad.train(params, cfg, _with_row(loss_at), "test")
    ref, ref_ema = _hand_rolled(cfg, 6, 6)
    for k in params:
        assert np.array_equal(params[k].data, ref[k].data)
        assert np.array_equal(ema.shadow[k], ref_ema.shadow[k])
    # one row per step, each the step's own: step 0 is the untrained loss
    assert len(history) == 6 and list(history[0]) == ["loss"]
    assert history[0]["loss"] == float(_bowl()[1](0).data)


def test_train_raises_before_updating_on_a_non_finite_loss(monkeypatch):
    """NaN at step 2: the parameters and the EMA stay as step 1 left them."""
    cfg = MimConfig(lr=0.05, warmup_steps=0, ema_decay=0.8, steps=5)
    ref, ref_ema = _hand_rolled(cfg, 5, 2)
    emas = []

    class RecordingEma(grad.Ema):
        def __init__(self, params, decay):
            super().__init__(params, decay)
            emas.append(self)

    monkeypatch.setattr(grad, "Ema", RecordingEma)
    params, loss_at = _bowl()

    def nan_at_two(step):
        loss = loss_at(step)
        return loss * float("nan") if step == 2 else loss

    with pytest.raises(NumericError, match="Stage T loss at step 2"):
        grad.train(params, cfg, _with_row(nan_at_two), "Stage T")
    assert len(emas) == 1
    for k in params:
        assert np.array_equal(params[k].data, ref[k].data)
        assert np.array_equal(emas[0].shadow[k], ref_ema.shadow[k])
    assert not np.array_equal(ref_ema.shadow["w"], _bowl()[0]["w"].data)


def test_train_holds_one_tape_at_a_time():
    """Each step's loss is built from a fresh array that only its tape holds:
    step k's array is gone by the time ``step_loss(k + 1)`` is entered."""
    cfg = MimConfig(lr=0.05, warmup_steps=0, ema_decay=0.8, steps=4)
    params, loss_at = _bowl()
    alive = []

    def step_loss(step):
        assert [r() is None for r in alive] == [True] * step
        fresh = np.full((3, 4), 0.1 * step, np.float32)
        alive.append(weakref.ref(fresh))
        return loss_at(step) + grad.sum_(grad.mul(params["w"], Tensor(fresh)))

    grad.train(params, cfg, _with_row(step_loss), "test")
    assert len(alive) == cfg.steps and alive[-1]() is None


def _retain_all_table(root, wrt=()):
    """The reference walk: every node's gradient lives until the walk ends
    and is returned, whatever ``wrt`` asks for, as ``grad`` did before it
    dropped consumed ones."""
    order = grad._topo_order(root)
    table = {id(root): np.ones_like(root.data)}
    by_id = {id(n): n for n in order}
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


_MB = 1 << 20


def _backward_peak(n_ops):
    """Traced bytes that ``backward`` adds at its peak, over a chain of
    ``n_ops`` tanh nodes on a 1-MB float32 leaf."""
    x = Tensor(np.linspace(-1.0, 1.0, _MB // 4, dtype=np.float32),
               requires_grad=True)
    y = x
    for _ in range(n_ops):
        y = grad.tanh(y)
    loss = grad.sum_(y)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss.backward([x])
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_backward_keeps_a_fixed_number_of_gradient_buffers(monkeypatch):
    """32 ops need no more gradient buffers than 8: each node's gradient
    goes once its VJPs have consumed it.  The retain-everything walk holds
    one buffer per op, which is what this test would see if it came back."""
    short, long = _backward_peak(8), _backward_peak(32)
    assert long <= 6 * _MB and long - short < _MB
    monkeypatch.setattr(grad, "_backward_table", _retain_all_table)
    assert _backward_peak(32) >= 32 * _MB


def _graph_attention(rng):
    arrays = [rng.normal(size=(3, 2, 7, 6)).astype(np.float32) for _ in range(3)]
    bias = np.zeros((3, 1, 1, 7), np.float32)
    bias[0, ..., -2:] = -1e9
    return arrays, lambda ls: grad.scaled_dot_attention(*ls, Tensor(bias))


def _graph_block(op):
    def build(rng):
        arrays = _block_arrays(3, 19, 32, 128, 19, np.float32)
        keep = rng.random((3, 19)) > 0.3
        keep[:, 0] = True
        return arrays, lambda ls: op(ls[0], ls[1:], 4, _key_bias(keep, np.float32))
    return build


def _graph_convs(rng):
    """A conv (shifted views), a strided conv (columns) and a transposed
    conv, with GELU between: the tokenizer's shape of graph."""
    arrays = [rng.normal(size=s).astype(np.float32) for s in
              [(2, 6, 9, 8), (6, 6, 3, 3), (4, 6, 3, 3), (4, 3, 3, 3)]]

    def build(ls):
        h = grad.gelu(grad.conv2d(ls[0], ls[1], padding=1))
        h = grad.conv2d(h, ls[2], stride=2, padding=1)
        return grad.transposed_conv2d(h, ls[3], stride=2, padding=1,
                                      output_padding=(0, 1)) + grad.getitem(ls[0], np.s_[:, :3])
    return arrays, build


@pytest.mark.parametrize("make", [_graph_attention, _graph_convs,
                                  _graph_block(grad.transformer_block),
                                  _graph_block(_composed_block)])
def test_backward_and_grads_match_the_retain_all_walk(make):
    """Dropping consumed gradients changes no bit of the ones returned:
    ``backward`` for the leaves and for the output node, whose gradient must
    still flow on, against the reference walk."""
    rng = np.random.default_rng(4)
    arrays, build = make(rng)
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(leaves)
    loss = grad.sum_(grad.mul(out, Tensor(rng.normal(size=out.shape)
                                          .astype(np.float32))))
    table = _retain_all_table(loss)
    want = [table[t] for t in leaves + [out]]
    for _ in range(2):  # backward leaves the tape as it was
        got = loss.backward(leaves + [out])
        assert all(np.array_equal(a, b) and a.dtype == b.dtype == np.float32
                   for a, b in zip(got, want))


def test_checkpoint_is_written_at_the_path_given(tmp_path):
    """No ".npz" is appended to a path without one."""
    params = {"a": Tensor(np.arange(3, dtype=np.float32), requires_grad=True)}
    path = tmp_path / "tok.ckpt"
    grad.save_checkpoint(path, params)
    assert [p.name for p in tmp_path.iterdir()] == ["tok.ckpt"]
    assert np.array_equal(grad.load_checkpoint(path)["params"]["a"],
                          params["a"].data)


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    params = {"a": Tensor(rng.normal(size=(3, 2)).astype(np.float32), requires_grad=True),
              "b": Tensor(rng.normal(size=(4,)).astype(np.float32), requires_grad=True)}
    ema = grad.Ema(params, 0.999)
    opt = grad.AdamW(list(params.values()), lr=0.01, beta1=0.9,
                     beta2=0.95, weight_decay=0.1)
    opt.step([np.ones_like(p.data) for p in opt.params])
    ema.update(params)
    path = tmp_path / "ckpt.npz"
    grad.save_checkpoint(path, params, ema=ema, meta={"stage": "test"})
    loaded = grad.load_checkpoint(path)
    assert loaded["meta"]["stage"] == "test"
    assert set(loaded["params"]) == {"a", "b"}
    assert np.array_equal(loaded["params"]["a"], params["a"].data)
    assert np.array_equal(loaded["ema"]["b"], ema.shadow["b"])
    fresh = {k: Tensor(np.zeros_like(v.data), requires_grad=True) for k, v in params.items()}
    grad.assign_parameters(fresh, loaded["params"])
    assert np.array_equal(fresh["a"].data, params["a"].data)
    with pytest.raises(DataError):
        grad.assign_parameters(fresh, {"a": loaded["params"]["a"]})


def test_checkpoint_load_errors_name_the_file(tmp_path):
    params = {"a": Tensor(np.zeros((3, 2), np.float32), requires_grad=True)}
    path = tmp_path / "ckpt.npz"
    grad.save_checkpoint(path, params)
    with pytest.raises(DataError, match=r"a: checkpoint shape \(3, 2\)"):
        grad.assign_parameters(
            {"a": Tensor(np.zeros((2, 3), np.float32))},
            grad.load_checkpoint(path)["params"])
    with np.load(path) as z:
        arrays = dict(z)
    header = json.loads(bytes(arrays["__header__"]).decode())
    header["version"] = 99
    arrays["__header__"] = np.frombuffer(json.dumps(header).encode(), np.uint8)
    np.savez(path, **arrays)
    with pytest.raises(DataError, match="ckpt.npz: unsupported checkpoint version 99"):
        grad.load_checkpoint(path)
    for junk in (b"not an npz at all", b"PK\x03\x04 truncated"):
        path.write_bytes(junk)
        with pytest.raises(DataError, match="ckpt.npz: not a readable checkpoint"):
            grad.load_checkpoint(path)
    np.save(tmp_path / "plain.npy", np.zeros(3))
    with pytest.raises(DataError, match="plain.npy: not a readable checkpoint"):
        grad.load_checkpoint(tmp_path / "plain.npy")


def test_module_collects_nested_parameters():
    class Leaf(grad.Module):
        def __init__(self):
            self.w = Tensor(np.zeros((2, 2)), requires_grad=True)

    class Root(grad.Module):
        def __init__(self):
            self.bias = Tensor(np.zeros(3), requires_grad=True)
            self.leaf = Leaf()
            self.blocks = [Leaf(), Leaf()]

    names = set(Root().named_parameters())
    assert names == {"bias", "leaf.w", "blocks.0.w", "blocks.1.w"}
