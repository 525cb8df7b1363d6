"""Planted-redundancy network generator and calibration data."""
from __future__ import annotations

import numpy as np
import pytest

from convprune import flatten_filters, fp_backward, make_dataset, planted_network

from conftest import assert_one_weight_array, residual_error


def test_planted_filters_are_exact_combos():
    net, manifest = planted_network(3, 8, 3, 0.5, seed=11)
    assert len(net) == 3
    for layer, entry in zip(net.layers, manifest["layers"]):
        for planted in entry["planted"]:
            p = planted["index"]
            combo = np.zeros_like(layer.weights[p])
            for src, coef in planted["combo"].items():
                combo += coef * layer.weights[int(src)]
            np.testing.assert_allclose(layer.weights[p], combo, rtol=1e-12, atol=1e-12)
            assert all(int(s) in entry["base"] for s in planted["combo"])


def test_planted_counts_follow_redundancy():
    net, manifest = planted_network(4, 10, 3, [0.0, 0.2, 0.5, 0.8], seed=3)
    counts = [len(e["planted"]) for e in manifest["layers"]]
    assert counts == [0, 2, 5, 8]
    for e, want in zip(manifest["layers"], counts):
        assert len(e["base"]) == 10 - want
        assert sorted(e["base"] + [p["index"] for p in e["planted"]]) == list(range(10))
    assert manifest["redundancy"] == [0.0, 0.2, 0.5, 0.8]


def test_planted_redundancy_capped_below_all():
    _, manifest = planted_network(1, 4, 1, 0.9, seed=0)
    # round(0.9 * 4) = 4 would leave no base; capped at n - 1
    assert len(manifest["layers"][0]["planted"]) == 3
    assert len(manifest["layers"][0]["base"]) == 1


def test_planted_layers_prune_to_zero_residual():
    net, manifest = planted_network(3, 8, 3, 0.5, seed=42)
    for layer, entry in zip(net.layers, manifest["layers"]):
        n_planted = len(entry["planted"])
        a = flatten_filters(layer)
        sel = fp_backward(a, beta=n_planted / 8)
        energy = float(np.sum(layer.weights**2))
        assert residual_error(a, sel) <= 1e-9 * energy


def test_planted_network_is_seeded():
    net_a, man_a = planted_network(2, 6, 3, 0.4, seed=5)
    net_b, man_b = planted_network(2, 6, 3, 0.4, seed=5)
    assert man_a == man_b
    for la, lb in zip(net_a.layers, net_b.layers):
        assert la.weights.tobytes() == lb.weights.tobytes()
    net_c, _ = planted_network(2, 6, 3, 0.4, seed=6)
    assert net_a.layers[0].weights.tobytes() != net_c.layers[0].weights.tobytes()


def test_planted_network_shapes_and_channels():
    net, _ = planted_network(3, 6, 3, 0.5, seed=0)
    for layer in net.layers:
        assert_one_weight_array(layer)
    assert net.in_channels == 6
    assert all(layer.out_channels == 6 for layer in net.layers)
    assert all(layer.kernel_size == 3 for layer in net.layers)
    assert all(layer.activation == "identity" for layer in net.layers)

    net, _ = planted_network(2, 6, 3, 0.5, seed=0, in_channels=3, activation="relu")
    assert net.in_channels == 3
    assert net.layers[1].in_channels == 6
    assert all(layer.activation == "relu" for layer in net.layers)


def test_planted_network_validation():
    with pytest.raises(ValueError):
        planted_network(0, 8, 3, 0.5, seed=0)
    with pytest.raises(ValueError):
        planted_network(2, 1, 3, 0.5, seed=0)
    with pytest.raises(ValueError):
        planted_network(2, 8, 0, 0.5, seed=0)
    with pytest.raises(ValueError):
        planted_network(2, 8, 3, 1.0, seed=0)
    with pytest.raises(ValueError):
        planted_network(2, 8, 3, [0.5], seed=0)
    with pytest.raises(ValueError):
        planted_network(2, 8, 3, [0.5, -0.1], seed=0)


def test_make_dataset():
    data = make_dataset(5, 3, 7, seed=9)
    assert data.shape == (5, 3, 7, 7)
    again = make_dataset(5, 3, 7, seed=9)
    np.testing.assert_array_equal(data, again)
    other = make_dataset(5, 3, 7, seed=10)
    assert not np.array_equal(data, other)
    with pytest.raises(ValueError):
        make_dataset(0, 3, 7, seed=0)
