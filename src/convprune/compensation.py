"""Analytic weight compensation for pruned filters.

When filters are dropped, the 1x1 channel-mixing map that follows the
convolution absorbs their contribution: each retained filter's mixing row is
augmented by the reconstruction coefficients of every removed filter.  The
composite layer output then differs from the original only through the
reconstruction residuals, so a zero-residual selection prunes with no output
change at all.
"""
from __future__ import annotations

import numpy as np

from .nets import ConvLayer
from .selection import ConsistencyError, SelectionResult


def compensate_output(g: np.ndarray, sel: SelectionResult) -> np.ndarray:
    """Fold removed output channels into the retained rows of the 1x1 map.

    Row l of the result is g[retained[l], :] plus, for every removed channel
    j, coeffs[l, j] * g[j, :].  The map keeps all of its columns, so the
    composite output width is unchanged.
    """
    g = np.asarray(g, dtype=np.float64)
    n = sel.coeffs.shape[1]
    if g.ndim != 2 or g.shape[0] != n:
        raise ConsistencyError(f"map has shape {g.shape}, expected {n} rows")
    kept = list(sel.retained)
    if sel.coeffs.shape != (len(kept), n):
        raise ConsistencyError(
            f"selection coeffs {sel.coeffs.shape} do not match {len(kept)} retained "
            f"of {n} columns"
        )
    if kept and not (0 <= kept[0] and kept[-1] < n):
        raise ConsistencyError(f"retained indices {kept} out of range for n={n}")
    dropped = list(sel.removed)
    return g[kept, :] + sel.coeffs[:, dropped] @ g[dropped, :]


def identity_comp(layer: ConvLayer) -> np.ndarray:
    """The 1x1 map a plain layer implicitly applies: the identity."""
    return np.eye(layer.out_channels)


def apply_pruning(
    layer: ConvLayer, sel: SelectionResult, g_prime: np.ndarray
) -> ConvLayer:
    """New layer keeping only the selected filters, with the compensated map
    g_prime (one row per retained filter).

    The composite output width is preserved, so downstream layers are
    untouched.
    """
    if g_prime.shape[0] != len(sel.retained):
        raise ConsistencyError(
            f"compensated map has {g_prime.shape[0]} rows for "
            f"{len(sel.retained)} retained filters"
        )
    if len(sel.retained) < 1:
        raise ConsistencyError("cannot prune away every filter")
    if sel.coeffs.shape[1] != layer.out_channels:
        raise ConsistencyError(
            f"selection covers {sel.coeffs.shape[1]} filters, layer has "
            f"{layer.out_channels}"
        )
    return ConvLayer(
        weights=layer.weights[list(sel.retained)],
        comp=g_prime,
        activation=layer.activation,
    )
