"""Central finite-difference gradient oracle used across the test suite.

Checks run the autograd code paths at float64 so the h=1e-4 stencil is not
drowned by single-precision forward noise; training itself stays float32.
"""

from __future__ import annotations

import contextlib

import numpy as np

from clef import grad


@contextlib.contextmanager
def float64_mode():
    saved = grad.DTYPE
    grad.DTYPE = np.float64
    try:
        yield
    finally:
        grad.DTYPE = saved


def fd_gradients(fn, inputs: list[np.ndarray], h: float = 1e-4) -> list[np.ndarray]:
    """Central finite differences of a scalar-valued fn(list_of_arrays)."""
    out = []
    for i, x in enumerate(inputs):
        g = np.zeros_like(x, dtype=np.float64)
        flat = g.reshape(-1)
        xflat = x.reshape(-1)
        for j in range(x.size):
            orig = xflat[j]
            xflat[j] = orig + h
            fp = float(fn(inputs).data)
            xflat[j] = orig - h
            fm = float(fn(inputs).data)
            xflat[j] = orig
            flat[j] = (fp - fm) / (2.0 * h)
        out.append(g)
    return out


def check_gradients(build_fn, shapes: list[tuple], seed: int, h: float = 1e-4,
                    rtol: float = 1e-4) -> float:
    """Compare analytic gradients against the FD oracle.

    ``build_fn(tensors) -> scalar Tensor`` where tensors are leaf Tensors
    made from the sampled arrays.  Returns the worst relative error.
    """
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(0.0, 1.0, size=s) for s in shapes]
    with float64_mode():
        leaves = [grad.Tensor(a.copy(), requires_grad=True) for a in arrays]

        def fn(arrs):
            ts = [grad.Tensor(a) for a in arrs]
            return build_fn(ts)

        loss = build_fn(leaves)
        analytic = loss.backward(leaves)
        numeric = fd_gradients(fn, [a.copy() for a in arrays], h=h)
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = max(np.abs(n).max(), np.abs(a).max(), 1e-8)
        err = np.abs(np.asarray(a, dtype=np.float64) - n).max() / denom
        worst = max(worst, float(err))
    assert worst <= rtol, f"gradient mismatch: rel err {worst:.3e} > {rtol}"
    return worst
