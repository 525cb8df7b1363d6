"""Convolution engine checks against brute-force references."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings
from hypothesis import strategies as st

from convprune import ConvLayer, DimensionError, Network, conv_forward, forward_all_layers
from convprune.nets import apply_activation, check_dataset, conv_forward_linear

from conftest import assert_one_weight_array, naive_conv, rand_layer, rand_net


def test_delta_kernel_is_identity(rng):
    x = rng.standard_normal((3, 6, 7))
    weights = np.zeros((3, 3, 3, 3))
    for j in range(3):
        weights[j, j, 1, 1] = 1.0
    layer = ConvLayer(weights, activation="identity")
    np.testing.assert_array_equal(conv_forward(layer, x), x)


def test_scalar_kernel_scales_input(rng):
    x = rng.standard_normal((1, 5, 5))
    layer = ConvLayer(np.full((1, 1, 1, 1), 2.5), activation="identity")
    np.testing.assert_allclose(conv_forward(layer, x), 2.5 * x, rtol=0, atol=0)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (4, 2)])
def test_conv_matches_naive_loop(rng, m, n, k):
    x = rng.standard_normal((m, 6, 5))
    layer = ConvLayer(rng.standard_normal((n, m, k, k)), activation="identity")
    got = conv_forward(layer, x)
    want = naive_conv(layer.weights, x)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n_ex", [1, 5])
@pytest.mark.parametrize("with_comp", [False, True])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_batched_conv_matches_naive_per_example(rng, k, with_comp, n_ex):
    layer = rand_layer(rng, 3, 4, k=k, with_comp=with_comp, width=5)
    batch = rng.standard_normal((n_ex, 3, 6, 5))
    got = conv_forward_linear(layer, batch)
    assert got.shape == (n_ex, layer.width, 6, 5)
    for x, out in zip(batch, got):
        want = naive_conv(layer.weights, x)
        if with_comp:
            want = np.einsum("jhw,jk->khw", want, layer.comp)
        np.testing.assert_allclose(out, want, rtol=1e-12, atol=1e-12)
    # a single example is a batch of one through the same code path
    single = conv_forward_linear(layer, batch[0])
    np.testing.assert_array_equal(single, conv_forward_linear(layer, batch[:1])[0])


def _sliding_window_conv(layer, batch):
    """The im2col lowering as it was built per call before layers cached
    their GEMM matrix: sliding_window_view, a transpose, and the weight
    matrix transposed from layer.weights."""
    n_ex, m, height, width = batch.shape
    k = layer.kernel_size
    lo = (k - 1) // 2
    xp = np.zeros((n_ex, height + k - 1, width + k - 1, m))
    xp[:, lo : lo + height, lo : lo + width] = batch.transpose(0, 2, 3, 1)
    windows = sliding_window_view(xp, (k, k), axis=(1, 2))
    cols = windows.transpose(0, 1, 2, 4, 5, 3).reshape(n_ex * height * width, -1)
    y = cols @ layer.weights.transpose(2, 3, 1, 0).reshape(k * k * m, -1)
    if layer.comp is not None:
        y = y @ layer.comp
    return y.reshape(n_ex, height, width, layer.width).transpose(0, 3, 1, 2)


@pytest.mark.parametrize("with_comp", [False, True])
@pytest.mark.parametrize("n_ex", [1, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_strided_windows_match_sliding_window_lowering(rng, k, n_ex, with_comp):
    # same GEMM inputs as the sliding-window lowering, so equal bits on any BLAS
    layer = rand_layer(rng, 5, 7, k=k, with_comp=with_comp, width=6)
    batch = rng.standard_normal((n_ex, 5, 6, 9))
    got = conv_forward_linear(layer, batch)
    assert np.array_equal(got, _sliding_window_conv(layer, batch))


def test_layer_is_immutable(rng):
    layer = rand_layer(rng, 2, 3, with_comp=True)
    for array in (layer.weights, layer.comp, layer.gemm_weights):
        with pytest.raises(ValueError):
            array[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        layer.weights = np.zeros((3, 2, 3, 3))
    with pytest.raises(dataclasses.FrozenInstanceError):
        layer.activation = "relu"


def test_layer_copies_caller_arrays(rng):
    weights = rng.standard_normal((3, 2, 3, 3))
    comp = rng.standard_normal((3, 4))
    layer = ConvLayer(weights, comp=comp, activation="identity")
    x = rng.standard_normal((2, 2, 5, 6))
    before = conv_forward_linear(layer, x)
    weights[...] = 0.0
    comp[...] = 0.0
    assert np.array_equal(conv_forward_linear(layer, x), before)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_layer_holds_one_weight_array(rng, k):
    bank = rng.standard_normal((4, 3, k, k))
    sources = {
        "C": bank.copy(),
        "F": np.asfortranarray(bank),
        "transposed": bank.transpose(3, 2, 1, 0).copy().transpose(3, 2, 1, 0),
        "int": np.arange(bank.size).reshape(bank.shape) - 7,
    }
    layer = ConvLayer(sources["C"])
    sources["another layer's weights"] = layer.weights
    sources["a pruned view"] = layer.weights[[0, 2, 3]]
    x = rng.standard_normal((2, 3, 5, 6))
    for name, source in sources.items():
        built = ConvLayer(source)
        assert_one_weight_array(built)
        assert not built.weights.flags.writeable
        assert not built.gemm_weights.flags.writeable
        assert not np.shares_memory(built.weights, source), name
        np.testing.assert_array_equal(built.weights, source)
        # row (a*K + b)*m + i, column j holds weights[j, i, a, b]
        n = source.shape[0]
        want = np.asarray(source, dtype=np.float64).transpose(2, 3, 1, 0)
        np.testing.assert_array_equal(built.gemm_weights, want.reshape(-1, n))
        if k > 1:
            # the GEMM matrix is always C-ordered, so the layout of the
            # source does not reach the conv's bits
            plain = ConvLayer(np.array(source, dtype=np.float64, order="C"))
            assert np.array_equal(
                conv_forward_linear(built, x), conv_forward_linear(plain, x)
            ), name


def test_comp_map_mixes_channels(rng):
    x = rng.standard_normal((2, 4, 4))
    weights = rng.standard_normal((3, 2, 3, 3))
    g = rng.standard_normal((3, 5))
    layer = ConvLayer(weights, comp=g, activation="identity")
    raw = conv_forward(ConvLayer(weights, activation="identity"), x)
    want = np.einsum("jhw,jk->khw", raw, g)
    np.testing.assert_allclose(conv_forward(layer, x), want, rtol=1e-12, atol=1e-12)
    assert layer.width == 5


def test_relu_clamps_negatives():
    layer = ConvLayer(np.full((1, 1, 1, 1), -1.0), activation="relu")
    x = np.ones((1, 3, 3))
    np.testing.assert_array_equal(conv_forward(layer, x), np.zeros((1, 3, 3)))
    lin = conv_forward_linear(layer, x)
    np.testing.assert_array_equal(lin, -np.ones((1, 3, 3)))


def test_forward_all_layers_equals_manual_chain(rng):
    net = rand_net(rng, [2, 4, 3, 2], k=3, activation="relu")
    x = rng.standard_normal((2, 5, 5))
    outs = forward_all_layers(net, x)
    y = x
    for layer, out in zip(net.layers, outs):
        y = conv_forward(layer, y)
        np.testing.assert_array_equal(out, y)
    assert len(outs) == 3


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_conv_is_linear_for_identity_activation(seed):
    rng = np.random.default_rng(seed)
    layer = rand_layer(rng, 2, 3, k=3, with_comp=True)
    x1 = rng.standard_normal((2, 4, 4))
    x2 = rng.standard_normal((2, 4, 4))
    a, b = rng.standard_normal(2)
    lhs = conv_forward(layer, a * x1 + b * x2)
    rhs = a * conv_forward(layer, x1) + b * conv_forward(layer, x2)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10)


def test_forward_is_deterministic(rng):
    layer = rand_layer(rng, 3, 4, k=3, with_comp=True, activation="relu")
    x = rng.standard_normal((3, 8, 8))
    first = conv_forward(layer, x)
    second = conv_forward(layer, x)
    np.testing.assert_array_equal(first, second)


def test_shape_mismatches_raise(rng):
    layer = rand_layer(rng, 3, 4)
    with pytest.raises(DimensionError):
        conv_forward(layer, rng.standard_normal((2, 5, 5)))
    with pytest.raises(DimensionError):
        conv_forward(layer, rng.standard_normal((3, 5)))
    with pytest.raises(DimensionError):
        conv_forward(layer, rng.standard_normal((1, 3, 3, 5, 5)))
    with pytest.raises(DimensionError):
        conv_forward(layer, rng.standard_normal((2, 2, 5, 5)))
    with pytest.raises(DimensionError):
        ConvLayer(rng.standard_normal((4, 3, 3)))
    with pytest.raises(DimensionError):
        ConvLayer(rng.standard_normal((4, 3, 3, 2)))
    with pytest.raises(DimensionError):
        ConvLayer(rng.standard_normal((4, 3, 3, 3)), comp=rng.standard_normal((3, 4)))
    with pytest.raises(ValueError):
        ConvLayer(rng.standard_normal((4, 3, 3, 3)), activation="tanh")


def test_network_chain_validation(rng):
    good = Network([rand_layer(rng, 2, 3), rand_layer(rng, 3, 2)])
    assert good.in_channels == 2
    with pytest.raises(DimensionError):
        Network([rand_layer(rng, 2, 3), rand_layer(rng, 4, 2)])
    with pytest.raises(DimensionError):
        Network([])
    # a comp map sets the composite width downstream layers must match
    wide = rand_layer(rng, 2, 3, with_comp=True, width=5)
    Network([wide, rand_layer(rng, 5, 2)])
    with pytest.raises(DimensionError):
        Network([wide, rand_layer(rng, 3, 2)])


def test_check_dataset(rng):
    net = rand_net(rng, [3, 4])
    data = rng.standard_normal((5, 3, 6, 6))
    assert check_dataset(net, data).shape == (5, 3, 6, 6)
    with pytest.raises(DimensionError):
        check_dataset(net, rng.standard_normal((5, 2, 6, 6)))
    with pytest.raises(DimensionError):
        check_dataset(net, np.empty((0, 3, 6, 6)))
    with pytest.raises(DimensionError):
        check_dataset(net, rng.standard_normal((5, 3, 6)))
    for hw in [(0, 6), (6, 0), (0, 0)]:
        with pytest.raises(DimensionError, match="images must be non-empty"):
            check_dataset(net, np.empty((5, 3, *hw)))


def test_activation_helper():
    x = np.array([-1.0, 0.0, 2.0])
    np.testing.assert_array_equal(apply_activation("relu", x), [0.0, 0.0, 2.0])
    np.testing.assert_array_equal(apply_activation("identity", x), x)


def test_outputs_finite_on_finite_inputs(rng):
    net = rand_net(rng, [2, 8, 8, 2], k=3, activation="relu")
    x = rng.standard_normal((2, 6, 6)) * 1e3
    for out in forward_all_layers(net, x):
        assert np.all(np.isfinite(out))
