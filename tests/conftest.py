"""Shared helpers: brute-force reference implementations and builders.

The reference implementations here are deliberately naive (explicit loops,
scratch least squares) so the package's vectorized paths are checked against
independently derived values.
"""
from __future__ import annotations

import numpy as np
import pytest

from convprune import ConvLayer, Network


def naive_conv(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Brute-force same-padding correlation, one multiply at a time."""
    n, m, k, _ = weights.shape
    _, height, width = x.shape
    lo = (k - 1) // 2
    out = np.zeros((n, height, width))
    for j in range(n):
        for h in range(height):
            for w in range(width):
                acc = 0.0
                for i in range(m):
                    for a in range(k):
                        for b in range(k):
                            hh, ww = h + a - lo, w + b - lo
                            if 0 <= hh < height and 0 <= ww < width:
                                acc += x[i, hh, ww] * weights[j, i, a, b]
                out[j, h, w] = acc
    return out


def scratch_lstsq_error(a: np.ndarray, b: np.ndarray) -> float:
    coef, *_ = np.linalg.lstsq(a, b, rcond=None)
    resid = b - a @ coef
    return float((resid * resid).sum())


def residual_error(a: np.ndarray, sel) -> float:
    """||A - A_S X||_F^2 of a selection's fit to all columns of a: summed
    per column, the expression the selectors once reported."""
    resid = a - a[:, list(sel.retained)] @ sel.coeffs
    return float(np.einsum("ij,ij->j", resid, resid).sum())


def assert_one_weight_array(layer: ConvLayer) -> None:
    """The layer holds its weights once: for K > 1 weights is a view of the
    C-ordered GEMM matrix, and for K = 1 the GEMM matrix is a view of
    weights."""
    assert np.shares_memory(layer.weights, layer.gemm_weights)
    if layer.kernel_size > 1:
        assert layer.gemm_weights.flags.c_contiguous


def rand_layer(
    rng: np.random.Generator,
    m: int,
    n: int,
    k: int = 3,
    activation: str = "identity",
    with_comp: bool = False,
    width: int | None = None,
) -> ConvLayer:
    comp = None
    if with_comp:
        comp = rng.standard_normal((n, width if width is not None else n))
    return ConvLayer(rng.standard_normal((n, m, k, k)), comp=comp, activation=activation)


def rand_net(
    rng: np.random.Generator,
    channels: list[int],
    k: int = 3,
    activation: str = "identity",
) -> Network:
    """channels = [m0, n1, n2, ...]; plain layers, no comp maps."""
    layers = []
    for m, n in zip(channels[:-1], channels[1:]):
        layers.append(rand_layer(rng, m, n, k, activation))
    return Network(layers)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
