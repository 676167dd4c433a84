import json

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
            results.append([out.data] + grad.grads(
                grad.sum_(grad.mul(out, Tensor(g))), leaves))
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


# ---------------------------------------------------------------------------
# float32 kernels against float64 references


def _forward_and_vjp(op, arrays, g):
    """``op``'s float32 output and the gradients that ``g`` pulls back to
    each input (sum(op * g) hands ``g`` to the op's VJPs unchanged)."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = op(*leaves)
    return out.data, grad.grads(grad.sum_(grad.mul(out, Tensor(g))), leaves)


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
    loss.backward()
    assert np.allclose(x.grad, [2.0, 4.0])


def test_softmax_rows_and_jacobian():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    s = grad.softmax(x, axis=-1)
    assert np.allclose(s.data.sum(axis=-1), 1.0, atol=1e-6)
    # Jacobian rows sum to zero: grad of sum(softmax) wrt x is 0
    grad.sum_(s).backward()
    assert np.allclose(x.grad, 0.0, atol=1e-6)


def test_stop_gradient_blocks_flow():
    x = Tensor(np.array([3.0]), requires_grad=True)
    y = Tensor(np.array([2.0]), requires_grad=True)
    loss = grad.sum_(grad.mul(grad.stop_gradient(x), y))
    loss.backward()
    assert x.grad is None
    assert np.allclose(y.grad, [3.0])


def test_uniform_ce_equals_log_k():
    logits = Tensor(np.zeros((5, 64)))
    loss = grad.cross_entropy_with_label_smoothing(logits, np.zeros(5, dtype=int), 0.1)
    assert np.isclose(loss.item(), np.log(64), atol=1e-6)


def test_ce_one_hot_no_smoothing_near_zero():
    logits = np.full((3, 4), -50.0)
    logits[np.arange(3), [0, 2, 1]] = 50.0
    loss = grad.cross_entropy_with_label_smoothing(Tensor(logits), np.array([0, 2, 1]), 0.0)
    assert loss.item() < 1e-6


def test_ce_smoothing_hand_case():
    # K=4, single row, logits [2, 0, 0, 0], target 0, smoothing 0.1
    logits = np.array([[2.0, 0.0, 0.0, 0.0]])
    x = logits[0]
    lse = np.log(np.exp(x).sum())
    soft = np.array([0.925, 0.025, 0.025, 0.025])
    expected = -(soft * (x - lse)).sum()
    loss = grad.cross_entropy_with_label_smoothing(Tensor(logits), np.array([0]), 0.1)
    assert np.isclose(loss.item(), expected, atol=1e-6)


def test_adam_descent_one_step():
    x = Tensor(np.array([1.0]), requires_grad=True)
    opt = grad.AdamW([x], lr=0.1, weight_decay=0.0)
    loss = grad.sum_(grad.mul(x, x))
    loss.backward()
    opt.step()
    assert np.all(np.abs(x.data) < 1.0)


def test_adamw_wd_zero_equals_adam():
    rng = np.random.default_rng(1)
    x0 = rng.normal(size=(5,)).astype(np.float32)
    paths = []
    for wd in (0.0, 0.0):
        x = Tensor(x0.copy(), requires_grad=True)
        opt = grad.AdamW([x], lr=0.05, beta1=0.9, beta2=0.999, weight_decay=wd)
        for _ in range(10):
            opt.zero_grad()
            grad.sum_(grad.mul(x, x)).backward()
            opt.step()
        paths.append(x.data.copy())
    assert np.array_equal(paths[0], paths[1])
    # and wd>0 actually changes the path
    x = Tensor(x0.copy(), requires_grad=True)
    opt = grad.AdamW([x], lr=0.05, beta1=0.9, beta2=0.999, weight_decay=0.5)
    for _ in range(10):
        opt.zero_grad()
        grad.sum_(grad.mul(x, x)).backward()
        opt.step()
    assert not np.array_equal(paths[0], x.data)


def _adamw_out_of_place(opt, params, lr, state):
    """One step of AdamW's formula, new arrays throughout."""
    state["t"] += 1
    b1, b2 = opt.beta1, opt.beta2
    bias1, bias2 = 1.0 - b1 ** state["t"], 1.0 - b2 ** state["t"]
    for i, p in enumerate(params):
        g = p.grad
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
    lambda ps: grad.adam_gan(ps, lr=0.05)])
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
        for p, r, g in zip(ours, ref, grads_):
            p.grad = r.grad = g
        before = [h.copy() for h in held]
        opt.step(lr=lr)
        _adamw_out_of_place(opt, ref, lr, state)
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
        opt = grad.AdamW([x], lr=0.05)
        for t, g in enumerate(grads_):
            x.grad = g
            opt.step(lr=to_lr(0.05 / (t + 3)))
        out.append(x.data.tobytes())
    assert out[0] == out[1]


def test_quadratic_bowl_converges():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(8,)).astype(np.float32), requires_grad=True)
    opt = grad.AdamW([x], lr=0.1, beta1=0.9, beta2=0.95, weight_decay=0.0)
    for t in range(500):
        opt.zero_grad()
        grad.sum_(grad.mul(x, x)).backward()
        opt.step(lr=grad.cosine_lr(t, 500, 0.1))
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


def test_grad_norm_matches_two_pass_and_leaves_grads_untouched():
    rng = np.random.default_rng(4)
    w = Tensor(rng.normal(size=(3, 3)).astype(np.float32), requires_grad=True)
    x = Tensor(rng.normal(size=(2, 3)).astype(np.float32))
    loss = grad.l2(grad.matmul(x, w))
    norm = grad.grad_norm(loss, [w])
    assert w.grad is None
    loss2 = grad.l2(grad.matmul(x, w))
    loss2.backward()
    assert np.isclose(norm, np.linalg.norm(w.grad), rtol=1e-5)


def test_training_trajectory_deterministic():
    def run():
        rng = np.random.default_rng(7)
        w = Tensor(rng.normal(size=(4, 4)).astype(np.float32), requires_grad=True)
        opt = grad.AdamW([w], lr=0.01)
        for _ in range(20):
            x = Tensor(rng.normal(size=(2, 4)).astype(np.float32))
            opt.zero_grad()
            grad.l2(grad.matmul(x, w)).backward()
            opt.step()
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


def _hand_rolled(cfg, total, run):
    """``run`` steps of a ``total``-step AdamW + cosine + EMA schedule."""
    params, loss_at = _bowl()
    opt = grad.AdamW(params.values(), lr=cfg.lr, beta1=cfg.beta1,
                     beta2=cfg.beta2, weight_decay=cfg.weight_decay)
    ema = grad.Ema(params, cfg.ema_decay)
    for step in range(run):
        loss = loss_at(step)
        opt.zero_grad()
        loss.backward()
        opt.step(lr=grad.cosine_lr(step, total, cfg.lr, cfg.warmup_steps))
        ema.update(params)
    return params, ema


def test_train_matches_hand_rolled_loop():
    cfg = MimConfig(lr=0.05, warmup_steps=2, ema_decay=0.8, steps=6)
    params, loss_at = _bowl()
    ema = grad.train(params, cfg, loss_at, "test")
    ref, ref_ema = _hand_rolled(cfg, 6, 6)
    for k in params:
        assert np.array_equal(params[k].data, ref[k].data)
        assert np.array_equal(ema.shadow[k], ref_ema.shadow[k])


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
        grad.train(params, cfg, nan_at_two, "Stage T")
    assert len(emas) == 1
    for k in params:
        assert np.array_equal(params[k].data, ref[k].data)
        assert np.array_equal(emas[0].shadow[k], ref_ema.shadow[k])
    assert not np.array_equal(ref_ema.shadow["w"], _bowl()[0]["w"].data)


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    params = {"a": Tensor(rng.normal(size=(3, 2)).astype(np.float32), requires_grad=True),
              "b": Tensor(rng.normal(size=(4,)).astype(np.float32), requires_grad=True)}
    ema = grad.Ema(params, 0.999)
    opt = grad.AdamW(list(params.values()), lr=0.01)
    for p in params.values():
        p.grad = np.ones_like(p.data)
    opt.step()
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
