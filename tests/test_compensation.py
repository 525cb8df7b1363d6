"""Weight compensation: folding removed filters into the 1x1 map."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convprune import (
    ConsistencyError,
    ConvLayer,
    apply_pruning,
    compensate_output,
    conv_forward,
    flatten_filters,
    fp_backward,
    fp_omp,
    identity_comp,
)
from convprune.nets import conv_forward_linear

from conftest import assert_one_weight_array, rand_layer


def pruned_pair(rng, m=3, n=6, k=3, beta=0.5, rank=None, select=fp_backward):
    """A random layer and its pruned counterpart (identity starting map).

    With rank set, the bank is rank//n pairs of a filter and a scaled copy,
    so a spanning, well-conditioned subset of size rank exists.
    """
    if rank is None:
        w = rng.standard_normal((n, m, k, k))
    else:
        assert n == 2 * rank
        base = rng.standard_normal((rank, m, k, k))
        w = np.concatenate([base, 1.5 * base])
    layer = ConvLayer(w, activation="identity")
    sel = select(flatten_filters(layer), beta)
    pruned = apply_pruning(layer, sel, compensate_output(identity_comp(layer), sel))
    return layer, pruned, sel


def residual_filters(layer, sel):
    """Each removed filter minus its reconstruction from the retained ones:
    (|removed|, flat filter length), row r for filter sel.removed[r]."""
    a = flatten_filters(layer)
    kept, dropped = list(sel.retained), list(sel.removed)
    return (a[:, dropped] - a[:, kept] @ sel.coeffs[:, dropped]).T


def test_identity_comp_shape(rng):
    layer = rand_layer(rng, 2, 5)
    np.testing.assert_array_equal(identity_comp(layer), np.eye(5))


def test_exact_when_filters_are_dependent(rng):
    layer, pruned, sel = pruned_pair(rng, n=8, beta=0.5, rank=4)
    assert pruned.out_channels == 4
    assert pruned.width == 8
    x = rng.standard_normal((3, 6, 6))
    scale = np.linalg.norm(conv_forward(layer, x))
    diff = np.linalg.norm(conv_forward(layer, x) - conv_forward(pruned, x))
    assert diff <= 1e-10 * scale
    a = flatten_filters(layer)
    resid = a - a[:, list(sel.retained)] @ sel.coeffs
    assert np.einsum("ij,ij->j", resid, resid).max() <= 1e-12


def test_difference_equals_residual_response(rng):
    # z - z' must equal the sum over removed filters of the residual filter's
    # response mixed through the dropped rows of the map
    g = rng.standard_normal((6, 4))
    w = rng.standard_normal((6, 3, 3, 3))
    layer = ConvLayer(w, comp=g, activation="identity")
    a = flatten_filters(layer)
    sel = fp_omp(a, beta=0.5)
    pruned = apply_pruning(layer, sel, compensate_output(g, sel))

    x = rng.standard_normal((3, 5, 5))
    z = conv_forward(layer, x)
    z_prime = conv_forward(pruned, x)
    eps_weights = residual_filters(layer, sel).reshape(-1, 3, 3, 3)
    response = conv_forward_linear(ConvLayer(eps_weights), x)
    want = np.einsum("jhw,jk->khw", response, g[list(sel.removed)])
    np.testing.assert_allclose(z - z_prime, want, rtol=1e-8, atol=1e-10)


def test_rectangular_map_keeps_width(rng):
    layer = ConvLayer(rng.standard_normal((5, 2, 3, 3)), comp=rng.standard_normal((5, 9)))
    a = flatten_filters(layer)
    sel = fp_omp(a, beta=0.4)
    pruned = apply_pruning(layer, sel, compensate_output(layer.comp, sel))
    assert pruned.out_channels == 3
    assert pruned.width == 9
    assert pruned.comp.shape == (3, 9)


def test_zero_residual_epsilons(rng):
    layer, _, sel = pruned_pair(rng, n=8, beta=0.5, rank=4)
    # not exactly zero: the refit carries the default ridge
    assert np.abs(residual_filters(layer, sel)).max() <= 1e-8


def test_compensate_shape_guards(rng):
    layer = rand_layer(rng, 2, 4)
    a = flatten_filters(layer)
    sel = fp_omp(a, beta=0.5)
    with pytest.raises(ConsistencyError):
        compensate_output(np.eye(3), sel)
    with pytest.raises(ConsistencyError):
        compensate_output(np.ones(4), sel)


def test_apply_pruning_guards(rng):
    layer = rand_layer(rng, 2, 4)
    other = rand_layer(rng, 2, 5)
    a = flatten_filters(layer)
    sel = fp_omp(a, beta=0.5)
    g_prime = compensate_output(identity_comp(layer), sel)
    with pytest.raises(ConsistencyError):
        apply_pruning(other, sel, g_prime)
    wrong_sel = fp_omp(a, beta=0.25)
    with pytest.raises(ConsistencyError, match="2 rows for 3 retained"):
        apply_pruning(layer, wrong_sel, g_prime)


def test_apply_pruning_owns_its_arrays(rng):
    layer = rand_layer(rng, 2, 5)
    sel = fp_backward(flatten_filters(layer), beta=0.4)
    g_prime = compensate_output(identity_comp(layer), sel)
    pruned = apply_pruning(layer, sel, g_prime)
    assert not np.shares_memory(pruned.weights, layer.weights)
    assert not np.shares_memory(pruned.comp, g_prime)
    np.testing.assert_array_equal(pruned.comp, g_prime)


@pytest.mark.parametrize("k", [1, 3])
def test_pruned_layer_holds_one_weight_array(rng, k):
    layer = rand_layer(rng, 3, 6, k=k)
    sel = fp_backward(flatten_filters(layer), beta=0.5)
    pruned = apply_pruning(layer, sel, compensate_output(identity_comp(layer), sel))
    assert_one_weight_array(pruned)
    np.testing.assert_array_equal(pruned.weights, layer.weights[list(sel.retained)])
    # and again from the pruned layer's own strided weights
    again = fp_backward(flatten_filters(pruned), beta=0.34)
    twice = apply_pruning(pruned, again, compensate_output(pruned.comp, again))
    assert_one_weight_array(twice)


def test_pruned_layer_preserves_activation(rng):
    layer = rand_layer(rng, 2, 5, activation="relu")
    a = flatten_filters(layer)
    sel = fp_backward(a, beta=0.4)
    pruned = apply_pruning(layer, sel, compensate_output(identity_comp(layer), sel))
    assert pruned.activation == "relu"
    assert pruned.weights.shape == (3, 2, 3, 3)
    np.testing.assert_array_equal(pruned.weights, layer.weights[list(sel.retained)])


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 8),
    m=st.integers(1, 4),
    k=st.sampled_from([1, 2, 3]),
    width=st.integers(1, 8),
    beta=st.floats(0.1, 0.8),
    backward=st.booleans(),
)
def test_compensation_shapes_and_identity(seed, n, m, k, width, beta, backward):
    rng = np.random.default_rng(seed)
    layer = ConvLayer(
        rng.standard_normal((n, m, k, k)),
        comp=rng.standard_normal((n, width)),
        activation="identity",
    )
    a = flatten_filters(layer)
    sel = (fp_backward if backward else fp_omp)(a, beta)
    g_prime = compensate_output(layer.comp, sel)
    t = len(sel.retained)
    assert g_prime.shape == (t, width)
    pruned = apply_pruning(layer, sel, g_prime)

    x = rng.standard_normal((m, 4, 4))
    z = conv_forward(layer, x)
    z_prime = conv_forward(pruned, x)
    eps_w = residual_filters(layer, sel).reshape(-1, m, k, k)
    if eps_w.shape[0]:
        response = conv_forward_linear(ConvLayer(eps_w), x)
        want = np.einsum("jhw,jk->khw", response, layer.comp[list(sel.removed)])
    else:
        want = np.zeros_like(z)
    scale = max(np.abs(z).max(), np.abs(z_prime).max(), 1.0)
    np.testing.assert_allclose(z - z_prime, want, rtol=0, atol=1e-8 * scale)
