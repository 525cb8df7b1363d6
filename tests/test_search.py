"""Layer-selection drivers: scoring, tree propagation, baselines, bookkeeping."""
from __future__ import annotations

import math
import sys
import threading
import time
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from convprune import (
    ConvLayer,
    DimensionError,
    Network,
    PruneConfig,
    candidate_for_layer,
    collect_layer_outputs,
    conv_forward,
    flatten_filters,
    forward_all_layers,
    fp_backward,
    fp_omp,
    hbgs,
    hbgts,
    propagate_tree,
    random_baseline,
    relative_error_hbgs,
    relative_output_error,
    run_selector,
    uniform_baseline,
)
from convprune import search
from convprune.nets import conv_forward_linear
from convprune.search import PropagationTree

from conftest import rand_net


def all_candidates(net, n_prune=1, fp_method="backward"):
    return [candidate_for_layer(layer, n_prune, fp_method) for layer in net.layers]


# --------------------------------------------------------------- candidates


def test_candidate_for_layer_counts(rng):
    layer = ConvLayer(rng.standard_normal((6, 2, 3, 3)), activation="relu")
    cand = candidate_for_layer(layer, 2, "backward")
    sel = fp_backward(flatten_filters(layer), 2 / 6)
    assert cand.out_channels == 4
    assert cand.width == 6
    assert len(sel.retained) == 4
    assert cand.weights.tobytes() == layer.weights[list(sel.retained)].tobytes()
    assert cand.activation == "relu"
    with pytest.raises(ValueError):
        candidate_for_layer(layer, 0, "backward")
    with pytest.raises(ValueError):
        candidate_for_layer(layer, 6, "backward")


def test_candidate_folds_existing_comp(rng):
    comp = rng.standard_normal((6, 4))
    layer = ConvLayer(rng.standard_normal((6, 2, 3, 3)), comp=comp)
    cand = candidate_for_layer(layer, 3, "omp")
    sel = fp_omp(flatten_filters(layer), 3 / 6)
    assert cand.comp.shape == (3, 4)
    kept = list(sel.retained)
    dropped = list(sel.removed)
    want = comp[kept] + sel.coeffs[:, dropped] @ comp[dropped]
    np.testing.assert_allclose(cand.comp, want, rtol=1e-12, atol=0)


# ----------------------------------------------------------- layerwise error


def test_collect_layer_outputs_matches_manual(rng, monkeypatch):
    net = rand_net(rng, [2, 5, 4, 3], k=3, activation="relu")
    data = rng.standard_normal((3, 2, 5, 5))
    threads = set()

    def logged(layer, x):
        threads.add(threading.get_ident())
        return conv_forward_linear(layer, x)

    monkeypatch.setattr(search, "conv_forward_linear", logged)
    refs = collect_layer_outputs(net, data)
    assert len(threads) == 2  # examples run on the caller and one helper
    assert len(refs) == 3 and len(refs[0]) == 3
    for i, x in enumerate(data):
        y = x
        for c, layer in enumerate(net.layers):
            y = conv_forward(layer, y)
            np.testing.assert_array_equal(refs[i][c], y)


def test_relative_error_hbgs_matches_naive(rng):
    net = rand_net(rng, [2, 6, 5, 4], k=3, activation="relu")
    data = rng.standard_normal((4, 2, 5, 5))
    refs = collect_layer_outputs(net, data)
    candidates = all_candidates(net, n_prune=2)
    errors = relative_error_hbgs(net, candidates, data, refs)

    want = np.zeros(3)
    for i, x in enumerate(data):
        inputs = [x] + forward_all_layers(net, x)[:-1]
        for c in range(3):
            out = np.maximum(conv_forward_linear(candidates[c], inputs[c]), 0.0)
            want[c] += np.linalg.norm(refs[i][c] - out) / np.linalg.norm(refs[i][c])
    np.testing.assert_allclose(errors, want, rtol=1e-12)


def test_relative_error_hbgs_unscored_layers(rng):
    net = rand_net(rng, [2, 4, 4], k=3)
    data = rng.standard_normal((2, 2, 4, 4))
    refs = collect_layer_outputs(net, data)
    candidates = [None, all_candidates(net)[1]]
    errors = relative_error_hbgs(net, candidates, data, refs)
    assert errors[0] == math.inf
    assert np.isfinite(errors[1])


def test_relative_error_hbgs_skips_zero_refs(rng, monkeypatch):
    net = rand_net(rng, [2, 4, 4], k=3)
    data = np.zeros((2, 2, 4, 4))
    refs = collect_layer_outputs(net, data)
    candidates = all_candidates(net)
    calls = conv_log(monkeypatch)
    errors = relative_error_hbgs(net, candidates, data, refs)
    np.testing.assert_array_equal(errors, np.zeros(2))
    # a skipped reference runs no candidate conv; only the chain runs
    assert calls == [net.layers[0]] * len(data)


def serial_hbgs(net, candidates, refs, chains):
    """relative_error_hbgs's definition, one example after another on one
    thread: extend each chain to the last candidate's input, score every
    candidate, then drop the inputs of even layers >= 2."""
    errors = np.array([math.inf if cand is None else 0.0 for cand in candidates])
    last = max(c for c, cand in enumerate(candidates) if cand is not None)
    for i, chain in enumerate(chains):
        chain.extend([None] * (last + 1 - len(chain)))
        for c in range(1, last + 1):
            if chain[c] is None:
                chain[c] = conv_forward(net.layers[c - 1], chain[c - 1])
        for c, cand in enumerate(candidates):
            norm = float(np.linalg.norm(refs[i][c]))
            if cand is not None and norm != 0.0:
                out = conv_forward(cand, chain[c])
                errors[c] += float(np.linalg.norm(refs[i][c] - out)) / norm
        chain[2::2] = [None] * len(chain[2::2])
    return errors


def assert_same_chains(got, want):
    assert len(got) == len(want)
    for got_chain, want_chain in zip(got, want):
        assert [y is None for y in got_chain] == [y is None for y in want_chain]
        for y, ref in zip(got_chain, want_chain):
            if y is not None:
                assert y.tobytes() == ref.tobytes()


def test_relative_error_hbgs_scores_examples_on_two_threads(rng, monkeypatch):
    net = rand_net(rng, [3, 6, 5, 5, 4], k=3, activation="relu")
    data = rng.standard_normal((5, 3, 5, 5))
    data[3] = 0.0  # a zero-norm reference is skipped
    refs = collect_layer_outputs(net, data)
    candidates = all_candidates(net, n_prune=2)
    threads = []

    def logged(layer, x):
        threads.append(threading.get_ident())
        return conv_forward_linear(layer, x)

    monkeypatch.setattr(search, "conv_forward_linear", logged)
    chains = [[x] for x in data]
    want_chains = [[x] for x in data]
    # a fresh chain, then one whose inputs of even layers >= 2 were dropped
    for _ in range(2):
        threads.clear()
        errors = relative_error_hbgs(net, candidates, data, refs, chains)
        assert len(set(threads)) == 2
        want = serial_hbgs(net, candidates, refs, want_chains)
        assert errors.tobytes() == want.tobytes()
        assert_same_chains(chains, want_chains)
        assert all(chain[2] is None for chain in chains)


def test_relative_error_hbgs_raises_an_example_failure_after_joining(
    rng, monkeypatch
):
    net = rand_net(rng, [3, 6, 5, 5, 4], k=3, activation="relu")
    data = rng.standard_normal((2, 3, 5, 5))
    refs = collect_layer_outputs(net, data)
    candidates = all_candidates(net)
    chains = [[x] for x in data]
    boom = RuntimeError("conv failed")
    convs = []

    def failing(layer, x):
        convs.append((layer, x))
        time.sleep(0.001)
        if x is chains[1][0]:  # example 1's first conv, while example 0 runs
            raise boom
        return conv_forward_linear(layer, x)

    monkeypatch.setattr(search, "conv_forward_linear", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as excinfo:
        relative_error_hbgs(net, candidates, data, refs, chains)
    assert excinfo.value is boom
    assert threading.active_count() == before
    # example 0, below the failed example, runs whole: its 4 candidate and
    # 3 chain convs; example 1 runs only the conv that raised
    assert Counter(id(x) for _, x in convs)[id(chains[1][0])] == 1
    assert Counter(id(layer) for layer, _ in convs) == Counter(
        map(id, [*candidates, *net.layers[:3], candidates[0]])
    )
    assert len(chains[0]) == 4


def test_relative_error_hbgs_raises_the_lowest_failed_example(rng, monkeypatch):
    net = rand_net(rng, [3, 6, 5, 5, 4], k=3, activation="relu")
    data = rng.standard_normal((2, 3, 5, 5))
    refs = collect_layer_outputs(net, data)
    candidates = all_candidates(net)
    chains = [[x] for x in data]
    first, second = RuntimeError("example 0"), RuntimeError("example 1")
    started, raised = threading.Event(), threading.Event()

    def failing(layer, x):
        if x is chains[1][0]:  # example 1 fails once example 0 runs a conv
            started.wait(timeout=5.0)
            raised.set()
            raise second
        if x is chains[0][0]:  # example 0 fails while example 1 has failed
            started.set()
            raised.wait(timeout=5.0)
            time.sleep(0.01)
            raise first
        return conv_forward_linear(layer, x)

    monkeypatch.setattr(search, "conv_forward_linear", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as excinfo:
        relative_error_hbgs(net, candidates, data, refs, chains)
    # both examples failed; a serial pass would have raised example 0's
    assert started.is_set() and raised.is_set()
    assert excinfo.value is first
    assert threading.active_count() == before


def test_relative_error_hbgs_runs_a_lower_example_on_after_a_failure(
    rng, monkeypatch
):
    # example 0's first conv succeeds slowly and its second raises, while
    # example 1's first conv raises at once: a serial pass raises example
    # 0's exception, so example 0 must run on after example 1 has failed
    net = rand_net(rng, [3, 6, 5, 5, 4], k=3, activation="relu")
    data = rng.standard_normal((2, 3, 5, 5))
    refs = collect_layer_outputs(net, data)
    candidates = all_candidates(net)
    chains = [[x] for x in data]
    first, second = RuntimeError("example 0"), RuntimeError("example 1")
    raised = threading.Event()

    def failing(layer, x):
        if x is chains[1][0]:  # example 1's first conv
            raised.set()
            raise second
        if x is chains[0][0] and layer is candidates[0]:  # example 0's first
            raised.wait(timeout=5.0)
            time.sleep(0.01)
        elif x is chains[0][0]:  # example 0's second: the chain's layer 0
            raise first
        return conv_forward_linear(layer, x)

    monkeypatch.setattr(search, "conv_forward_linear", failing)
    with pytest.raises(RuntimeError) as excinfo:
        relative_error_hbgs(net, candidates, data, refs, chains)
    assert raised.is_set()
    assert excinfo.value is first


# ------------------------------------------------------------- tree scoring


def test_propagate_tree_layout(rng):
    net = rand_net(rng, [2, 4, 4, 3, 3], k=3, activation="relu")
    x = rng.standard_normal((2, 4, 4))
    candidates = all_candidates(net)
    candidates[1] = None  # an ineligible layer has no column
    tree = propagate_tree(net, candidates, x)
    # the input of every layer and the final output; column c runs layers
    # c to the last
    assert len(tree.chain) == 5
    assert [None if col is None else len(col) for col in tree.columns] == [
        4, None, 2, 1
    ]


def test_propagate_tree_entries_match_definition(rng):
    net = rand_net(rng, [2, 4, 3, 3], k=3, activation="relu")
    x = rng.standard_normal((2, 4, 4))
    candidates = all_candidates(net)
    tree = propagate_tree(net, candidates, x)
    # unpruned chain: the input of every layer, then the final output
    np.testing.assert_array_equal(tree.chain[0], x)
    outs = forward_all_layers(net, x)
    for c in range(3):
        np.testing.assert_array_equal(tree.chain[c + 1], outs[c])
    # column c: candidate c on the unpruned input of its layer, then the
    # unpruned layers after it
    inputs = [x] + outs[:-1]
    for c in range(3):
        y = conv_forward(candidates[c], inputs[c])
        np.testing.assert_array_equal(tree.columns[c][0], y)
        for j, layer in enumerate(net.layers[c + 1 :], start=1):
            y = conv_forward(layer, y)
            np.testing.assert_array_equal(tree.columns[c][j], y)


def test_tree_finals_match_swapped_networks(rng):
    net = rand_net(rng, [2, 5, 4, 4, 3], k=3, activation="relu")
    x = rng.standard_normal((2, 5, 5))
    candidates = all_candidates(net, n_prune=2)
    tree = propagate_tree(net, candidates, x)
    for c in range(4):
        swapped = net.with_layer(c, candidates[c])
        y = x
        for layer in swapped.layers[:-1]:
            y = conv_forward(layer, y)
        y = np.maximum(conv_forward_linear(swapped.layers[-1], y), 0.0)
        np.testing.assert_allclose(tree.columns[c][-1], y, rtol=1e-12, atol=1e-12)


def test_propagate_tree_batch_matches_per_example_trees(rng):
    net = rand_net(rng, [2, 5, 4, 4, 3], k=3, activation="relu")
    data = rng.standard_normal((4, 2, 5, 5))
    candidates = all_candidates(net, n_prune=2)
    candidates[2] = None
    tree = propagate_tree(net, candidates, data)
    for i, x in enumerate(data):
        single = propagate_tree(net, candidates, x)
        assert len(tree.chain) == len(single.chain)
        for got, want in zip(tree.chain, single.chain):
            np.testing.assert_allclose(got[i], want, rtol=1e-12, atol=1e-12)
        for col, want_col in zip(tree.columns, single.columns):
            if want_col is None:
                assert col is None
                continue
            assert len(col) == len(want_col)
            for got, want in zip(col, want_col):
                np.testing.assert_allclose(got[i], want, rtol=1e-12, atol=1e-12)
    assert tree.columns[2] is None


def per_example_tree(net, candidates, data, known=None):
    """The tree pass run one example at a time, entries stacked into a batch.

    known is accepted for propagate_tree's signature and ignored: every
    round recomputes the whole tree.
    """
    trees = [propagate_tree(net, candidates, x) for x in data]

    def stack(entries):
        return [np.stack(per_example) for per_example in zip(*entries)]

    columns = [
        None if col is None else stack([t.columns[c] for t in trees])
        for c, col in enumerate(trees[0].columns)
    ]
    return PropagationTree(stack([t.chain for t in trees]), columns)


def test_propagate_tree_extends_a_partial_tree(rng, monkeypatch):
    net = rand_net(rng, [2, 5, 4, 3, 3], k=3, activation="relu")
    data = rng.standard_normal((2, 2, 4, 4))
    candidates = all_candidates(net)
    full = propagate_tree(net, candidates, data)
    # the inputs of layers 0-2, column 0 up to layer 2's input, column 1's
    # first entry, and a column for a layer that has no candidate
    candidates[2] = None
    known = PropagationTree(
        full.chain[:3], [full.columns[0][:2], full.columns[1][:1], full.columns[2], []]
    )
    kept = [*known.chain, *known.columns[0], *known.columns[1]]
    convs = []

    def logged(layer, x):
        convs.append((layer, x))
        return conv_forward_linear(layer, x)

    monkeypatch.setattr(search, "conv_forward_linear", logged)
    tree = propagate_tree(net, candidates, data, known=known)
    # columns are filled concurrently, so only the order within the chain
    # and within each column is defined.  A conv belongs to the column its
    # input array is in; a candidate starts its column from a chain entry.
    owner = {id(y): "chain" for y in tree.chain}
    for c in (0, 1, 3):
        owner.update({id(y): c for y in tree.columns[c]})
    starts = {id(cand): c for c, cand in enumerate(candidates) if cand is not None}
    by_owner = {}
    for layer, x in convs:
        key = starts.get(id(layer), owner[id(x)])
        by_owner.setdefault(key, []).append((id(layer), id(x)))
    layer2, layer3 = net.layers[2:]
    expected = {
        "chain": [(layer2, tree.chain[2]), (layer3, tree.chain[3])],
        0: [(layer2, tree.columns[0][1]), (layer3, tree.columns[0][2])],
        1: [(layer2, tree.columns[1][0]), (layer3, tree.columns[1][1])],
        3: [(candidates[3], tree.chain[3])],
    }
    assert by_owner == {
        key: [(id(layer), id(x)) for layer, x in steps]
        for key, steps in expected.items()
    }
    # layers 2 and 3 of the chain and of columns 0 and 1, and column 3
    assert len(convs) == 7
    assert Counter(id(layer) for layer, _ in convs) == Counter(
        map(id, [layer2, layer3] * 3 + [candidates[3]])
    )
    reused = tree.chain[:3] + tree.columns[0][:2] + tree.columns[1][:1]
    assert all(got is want for got, want in zip(reused, kept, strict=True))
    assert tree.columns[2] is None
    for got, want in zip(tree.chain, full.chain):
        np.testing.assert_array_equal(got, want)
    for c in (0, 1, 3):
        assert len(tree.columns[c]) == len(full.columns[c])
        for got, want in zip(tree.columns[c], full.columns[c]):
            np.testing.assert_array_equal(got, want)


def serial_tree(net, candidates, x):
    """The tree pass's definition, one entry after another on one thread."""
    chain = [x]
    for layer in net.layers:
        chain.append(conv_forward(layer, chain[-1]))
    columns = []
    for c, cand in enumerate(candidates):
        column = None
        if cand is not None:
            column = [conv_forward(cand, chain[c])]
            for layer in net.layers[c + 1 :]:
                column.append(conv_forward(layer, column[-1]))
        columns.append(column)
    return PropagationTree(chain, columns)


def test_propagate_tree_fills_columns_on_two_threads(rng, monkeypatch):
    net = rand_net(rng, [3, 6, 5, 5, 4], k=3, activation="relu")
    data = rng.standard_normal((3, 3, 5, 5))
    candidates = all_candidates(net, n_prune=2)
    threads = []

    def slow(layer, x):
        threads.append(threading.get_ident())
        time.sleep(0.001)  # lets the other thread take a column meanwhile
        return conv_forward_linear(layer, x)

    monkeypatch.setattr(search, "conv_forward_linear", slow)
    tree = propagate_tree(net, candidates, data)
    assert len(set(threads)) == 2
    assert len(threads) == 4 + (4 + 3 + 2 + 1)
    want = serial_tree(net, candidates, data)
    assert len(tree.chain) == len(want.chain) == 5
    for got, ref in zip(tree.chain, want.chain):
        np.testing.assert_array_equal(got, ref)
    for col, ref_col in zip(tree.columns, want.columns, strict=True):
        assert len(col) == len(ref_col)
        for got, ref in zip(col, ref_col):
            np.testing.assert_array_equal(got, ref)


def test_propagate_tree_raises_a_column_failure_after_joining(rng, monkeypatch):
    net = rand_net(rng, [3, 6, 5, 5, 4], k=3, activation="relu")
    data = rng.standard_normal((2, 3, 5, 5))
    candidates = all_candidates(net)
    boom = RuntimeError("conv failed")
    raised = threading.Event()
    convs = []

    def failing(layer, x):
        convs.append(layer)
        time.sleep(0.001)
        if layer is candidates[1]:  # column 1's first conv, while column 0 runs
            raised.set()
            raise boom
        if layer is candidates[0]:  # column 1 fails while column 0 runs
            raised.wait(timeout=5.0)
        return conv_forward_linear(layer, x)

    monkeypatch.setattr(search, "conv_forward_linear", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as excinfo:
        propagate_tree(net, candidates, data)
    assert excinfo.value is boom
    assert threading.active_count() == before
    # the chain's 4 convs, column 0's 4 (below the failed column, it runs
    # whole) and column 1's 1; no conv of the columns above it
    assert Counter(map(id, convs)) == Counter(
        map(id, [*net.layers, candidates[0], *net.layers[1:], candidates[1]])
    )


def test_propagate_tree_raises_the_lowest_failed_column(rng, monkeypatch):
    net = rand_net(rng, [3, 6, 5, 5, 4], k=3, activation="relu")
    data = rng.standard_normal((2, 3, 5, 5))
    candidates = all_candidates(net)
    first, second = RuntimeError("column 0"), RuntimeError("column 1")
    raised = threading.Event()

    def failing(layer, x):
        if layer is candidates[1]:  # column 1 fails at once
            raised.set()
            raise second
        if layer is candidates[0]:  # column 0 fails while column 1 has failed
            raised.wait(timeout=5.0)
            time.sleep(0.01)
            raise first
        return conv_forward_linear(layer, x)

    monkeypatch.setattr(search, "conv_forward_linear", failing)
    with pytest.raises(RuntimeError) as excinfo:
        propagate_tree(net, candidates, data)
    # both columns failed; a serial pass would have raised column 0's
    assert raised.is_set()
    assert excinfo.value is first


def test_propagate_tree_runs_a_lower_column_on_after_a_failure(rng, monkeypatch):
    # column 0's first conv succeeds slowly and its second raises, while
    # column 1's first conv raises at once: a serial pass raises column 0's
    # exception, so column 0 must run on after column 1 has failed
    net = rand_net(rng, [3, 6, 5, 5, 4], k=3, activation="relu")
    data = rng.standard_normal((2, 3, 5, 5))
    candidates = all_candidates(net)
    first, second = RuntimeError("column 0"), RuntimeError("column 1")
    raised, cand0_done = threading.Event(), threading.Event()

    def failing(layer, x):
        if layer is candidates[1]:  # column 1's first conv
            raised.set()
            raise second
        if layer is candidates[0]:  # column 0's first conv
            raised.wait(timeout=5.0)
            time.sleep(0.01)
            cand0_done.set()
        elif layer is net.layers[1] and cand0_done.is_set():  # column 0's second
            raise first
        return conv_forward_linear(layer, x)

    monkeypatch.setattr(search, "conv_forward_linear", failing)
    with pytest.raises(RuntimeError) as excinfo:
        propagate_tree(net, candidates, data)
    assert raised.is_set()
    assert excinfo.value is first


def test_on_two_threads_runs_below_a_failure_and_starts_nothing_above():
    started, finished = [], []
    boom = RuntimeError("task 4")
    raised = threading.Event()

    def work(i):
        started.append(i)
        if i == 3:  # in progress on the helper while task 4 fails
            raised.wait(timeout=5.0)
            time.sleep(0.01)
        if i == 4:
            raised.set()
            raise boom
        finished.append(i)

    before = threading.active_count()
    with pytest.raises(RuntimeError) as excinfo:
        search._on_two_threads(work, *search._by_parity(8))
    assert excinfo.value is boom
    assert threading.active_count() == before
    assert sorted(finished) == [0, 1, 2, 3]
    assert sorted(started) == [0, 1, 2, 3, 4]


def test_on_two_threads_raises_the_lowest_failed_task():
    started = []
    low, high = RuntimeError("task 2"), RuntimeError("task 5")
    raised = threading.Event()

    def work(i):
        started.append(i)
        if i == 5:  # fails first, on the helper
            raised.set()
            raise high
        if i == 2:  # fails after task 5 has, on the caller
            raised.wait(timeout=5.0)
            time.sleep(0.01)
            raise low

    with pytest.raises(RuntimeError) as excinfo:
        search._on_two_threads(work, *search._by_parity(8))
    assert excinfo.value is low
    assert sorted(started) == [0, 1, 2, 3, 5]


def test_two_thread_passes_under_a_short_switch_interval(rng, monkeypatch):
    # the interpreter switches threads every few microseconds, so a task
    # taken twice or lost, or a table entry lost, would show
    net = rand_net(rng, [3, 6, 5, 5, 4], k=3, activation="relu")
    data = rng.standard_normal((5, 3, 5, 5))
    refs = collect_layer_outputs(net, data)
    candidates = all_candidates(net, n_prune=2)
    want_tree = serial_tree(net, candidates, data)
    want_chains = [[x] for x in data]
    want_errors = serial_hbgs(net, candidates, refs, want_chains).tobytes()
    calls = conv_log(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            calls.clear()
            tree = propagate_tree(net, candidates, data)
            assert len(calls) == 4 + (4 + 3 + 2 + 1)
            for col, ref_col in zip(tree.columns, want_tree.columns, strict=True):
                assert [y.tobytes() for y in col] == [y.tobytes() for y in ref_col]
            calls.clear()
            chains = [[x] for x in data]
            errors = relative_error_hbgs(net, candidates, data, refs, chains)
            assert len(calls) == len(data) * (4 + 3)
            assert errors.tobytes() == want_errors
            assert_same_chains(chains, want_chains)
            assert len(collect_layer_outputs(net, data)) == len(data)
    finally:
        sys.setswitchinterval(interval)


def test_hbgts_batched_rounds_match_per_example_trees(rng, monkeypatch):
    net = rand_net(rng, [3, 8, 7, 6], k=3, activation="relu")
    data = rng.standard_normal((5, 3, 5, 5))
    data[2] = 0.0  # a zero-norm reference is skipped per example
    cfg = PruneConfig(beta=0.4, alpha=2)
    batched = hbgts(net, data, cfg)
    monkeypatch.setattr(search, "propagate_tree", per_example_tree)
    looped = hbgts(net, data, cfg)
    assert len(batched.rounds) == len(looped.rounds) > 1
    for got, want in zip(batched.rounds, looped.rounds):
        np.testing.assert_allclose(got.errors, want.errors, rtol=1e-12)
        assert got.chosen_layer == want.chosen_layer
        assert got.retained == want.retained
        assert got.skipped_refs == want.skipped_refs == 1


def test_propagate_tree_candidate_count_guard(rng):
    net = rand_net(rng, [2, 4, 4], k=3)
    with pytest.raises(ValueError):
        propagate_tree(net, [None], rng.standard_normal((2, 4, 4)))


# ------------------------------------------- layerwise vs final-output rank


def discriminating_net():
    """Two-layer 1x1 net where layerwise and final-output scores disagree.

    Layer 0 has a redundant filter pair (column 2 is twice column 0) plus an
    amplified filter whose removal is locally expensive -- but layer 1 never
    reads the channel that removal damages, so the end-to-end cost is zero.
    Layer 1's own filters are nearly parallel: pruning them is locally cheap
    yet shows up directly in the final output.
    """
    w0 = np.zeros((3, 2, 1, 1))
    w0[0, 0] = 1.0  # (1, 0)
    w0[1, 1] = 2.0  # (0, 2): orthogonal, locally painful to drop
    w0[2, 0] = 2.0  # (2, 0): exact scaled copy of filter 0
    w1 = np.zeros((3, 3, 1, 1))
    w1[0, 0] = 1.0  # every filter ignores input channel 1,
    w1[1, 0] = 1.0  # the one that layer-0 pruning damages
    w1[1, 2] = 0.2
    w1[2, 0] = 1.0
    w1[2, 2] = -0.2
    return Network(
        [
            ConvLayer(w0, activation="identity"),
            ConvLayer(w1, activation="identity"),
        ]
    )


def test_layerwise_and_final_scores_disagree(rng):
    net = discriminating_net()
    data = rng.standard_normal((4, 2, 4, 4))
    cfg = dict(beta=0.05, alpha=2, floor=1, fp_method="backward")

    gs = hbgs(net, data, PruneConfig(selector="hbgs", **cfg))
    gts = hbgts(net, data, PruneConfig(selector="hbgts", **cfg))
    assert gs.status == gts.status == "reached"
    assert len(gs.rounds) == len(gts.rounds) == 1

    # layerwise scoring prefers layer 1, final-output scoring layer 0
    assert gs.rounds[0].chosen_layer == 1
    assert gts.rounds[0].chosen_layer == 0
    assert gs.rounds[0].errors[1] < gs.rounds[0].errors[0]
    assert gts.rounds[0].errors[0] <= 1e-8
    assert gts.rounds[0].errors[1] >= 0.01

    # for the last layer the two scores are the same quantity
    assert gs.rounds[0].errors[1] == pytest.approx(gts.rounds[0].errors[1], rel=1e-9)

    # and the final-output choice is the right one end to end
    err_gts, _ = relative_output_error(gts.network, net, data)
    err_gs, _ = relative_output_error(gs.network, net, data)
    assert err_gts <= 1e-6
    assert err_gs >= 0.01
    assert err_gs > 100.0 * err_gts


def test_single_layer_drivers_agree(rng):
    net = rand_net(rng, [3, 8], k=3, activation="relu")
    data = rng.standard_normal((3, 3, 5, 5))
    cfg = dict(beta=0.3, alpha=2, floor=1)
    gs = hbgs(net, data, PruneConfig(selector="hbgs", **cfg))
    gts = hbgts(net, data, PruneConfig(selector="hbgts", **cfg))
    assert [r.chosen_layer for r in gs.rounds] == [r.chosen_layer for r in gts.rounds]
    # in the first round both scores compare the same candidate against the
    # same reference; later rounds diverge because the layerwise driver keeps
    # the original network's references while the tree driver re-baselines
    np.testing.assert_allclose(gs.rounds[0].errors, gts.rounds[0].errors, rtol=1e-9)
    np.testing.assert_array_equal(
        gs.network.layers[0].weights, gts.network.layers[0].weights
    )


# ------------------------------------------------------------------ drivers


def test_greedy_budget_and_floor(rng):
    net = rand_net(rng, [2, 8, 8, 6], k=3, activation="relu")
    data = rng.standard_normal((3, 2, 5, 5))
    cfg = PruneConfig(beta=0.4, alpha=3, floor=2, selector="hbgts")
    res = hbgts(net, data, cfg)
    assert res.status == "reached"
    assert res.rounds[-1].param_reduction >= 0.4
    reductions = [r.param_reduction for r in res.rounds]
    assert reductions == sorted(reductions)
    for r in res.rounds:
        assert all(n >= 2 for n in r.retained)
        assert r.forward_passes == len(data)
    # rounds prune at most alpha filters from one layer
    prev = (8, 8, 6)
    for r in res.rounds:
        diffs = [p - q for p, q in zip(prev, r.retained)]
        assert sum(d != 0 for d in diffs) == 1
        assert 1 <= max(diffs) <= 3
        prev = r.retained


def test_partial_when_floor_blocks_budget(rng):
    net = rand_net(rng, [2, 2, 2], k=3)
    data = rng.standard_normal((2, 2, 4, 4))
    cfg = PruneConfig(beta=0.9, alpha=5, floor=1, selector="hbgs")
    res = hbgs(net, data, cfg)
    assert res.status == "partial"
    assert res.rounds[-1].param_reduction < 0.9
    assert all(layer.out_channels == 1 for layer in res.network.layers)


# ------------------------------------------------------- incremental rounds


def copy_layer(layer):
    """The same layer with its own copies of the arrays."""
    return replace(
        layer,
        weights=layer.weights.copy(),
        comp=None if layer.comp is None else layer.comp.copy(),
    )


def copy_net(net):
    return Network([copy_layer(layer) for layer in net.layers])


def assert_same_result(a, b):
    assert a.status == b.status
    assert a.rounds == b.rounds
    for la, lb in zip(a.network.layers, b.network.layers):
        assert la.weights.tobytes() == lb.weights.tobytes()
        assert (la.comp is None) == (lb.comp is None)
        if la.comp is not None:
            assert la.comp.tobytes() == lb.comp.tobytes()


def replay_hbgs(net, data, cfg, rounds):
    """hbgs recomputed in full along the recorded rounds: each round builds
    and scores every eligible candidate and commits the cheapest."""
    refs = collect_layer_outputs(net, data)
    replayed = []
    for r in rounds:
        candidates = [
            candidate_for_layer(
                layer, min(cfg.alpha, layer.out_channels - cfg.floor), cfg.fp_method
            )
            if layer.out_channels > cfg.floor
            else None
            for layer in net.layers
        ]
        errors = relative_error_hbgs(net, candidates, data, refs)
        skips = sum(
            float(np.linalg.norm(per_layer[c])) == 0.0
            for per_layer in refs
            for c, cand in enumerate(candidates)
            if cand is not None
        )
        chosen = int(np.argmin(errors))
        net = net.with_layer(chosen, candidates[chosen])
        replayed.append(
            replace(
                r,
                errors=tuple(float(e) for e in errors),
                chosen_layer=chosen,
                retained=tuple(layer.out_channels for layer in net.layers),
                skipped_refs=skips,
            )
        )
    done = all(layer.out_channels <= cfg.floor for layer in net.layers)
    return search.PruneResult(net, tuple(replayed), "partial" if done else "reached")


@pytest.mark.parametrize("driver", [hbgs, hbgts])
def test_incremental_rounds_equal_full_recompute(rng, driver, monkeypatch):
    # floor 4 makes layer 1 ineligible from the start and the others once
    # they reach it, so aliased hypotheses are reused too
    net = rand_net(rng, [3, 8, 4, 7, 10], k=3, activation="relu")
    data = rng.standard_normal((3, 3, 5, 5))
    data[1] = 0.0  # zero-norm references are skipped in reused layers too
    cfg = PruneConfig(beta=0.6, alpha=2, floor=4)
    incremental = driver(net, data, cfg)
    if driver is hbgs:
        # hbgs reuses the round record, which no cache flush can turn off
        full = replay_hbgs(net, data, cfg, incremental.rounds)
    else:
        commit = search._RoundLoop.commit
        propagate = search.propagate_tree

        def forgetful_commit(loop, *args):
            commit(loop, *args)
            loop.cache.clear()

        def forgetful_propagate(net, candidates, x, known=None):
            return propagate(net, candidates, x)

        # with nothing kept across a commit, every round is recomputed in full
        monkeypatch.setattr(search._RoundLoop, "commit", forgetful_commit)
        monkeypatch.setattr(search, "propagate_tree", forgetful_propagate)
        full = driver(net, data, cfg)
    assert incremental.status == "partial"
    assert len({r.chosen_layer for r in incremental.rounds}) > 1
    assert any(r.errors[1] == math.inf for r in incremental.rounds)
    assert all(r.skipped_refs > 0 for r in incremental.rounds)
    # some round still scores a layer before the last commit, so hbgs reuses
    # a recorded error
    assert any(
        r.errors[c] < math.inf
        for prev, r in zip(incremental.rounds, incremental.rounds[1:])
        for c in range(prev.chosen_layer)
    )
    assert_same_result(incremental, full)


def conv_log(monkeypatch):
    """Record the layer object of every conv that search runs itself."""
    calls = []

    def counted(layer, x):
        calls.append(layer)
        return conv_forward_linear(layer, x)

    monkeypatch.setattr(search, "conv_forward_linear", counted)
    return calls


def convs_per_round(driver, net, data, cfg, calls, monkeypatch):
    """Per round, (layer position, "net" or "candidate") of each conv run
    while scoring it; the kind says whether the conv ran a layer of the
    network or a candidate."""
    rounds = []
    commit = search._RoundLoop.commit

    def counted_commit(loop, *args):
        where = {}
        for c, layer in enumerate(loop.net.layers):
            where[id(layer)] = (c, "net")
            if c in loop.cache:
                where[id(loop.cache[c])] = (c, "candidate")
        rounds.append([where[id(layer)] for layer in calls])
        calls.clear()
        commit(loop, *args)

    monkeypatch.setattr(search._RoundLoop, "commit", counted_commit)
    res = driver(net, data, cfg)
    return res, rounds


def test_hbgts_round_after_commit_skips_the_unchanged_prefix(rng, monkeypatch):
    net = rand_net(rng, [3, 10, 10, 10, 10], k=3, activation="relu")
    data = rng.standard_normal((2, 3, 4, 4))
    calls = conv_log(monkeypatch)
    res, rounds = convs_per_round(
        hbgts, net, data, PruneConfig(beta=0.3, alpha=2), calls, monkeypatch
    )
    assert len(rounds) == len(res.rounds) > 3
    assert all(min(r.retained) > 1 for r in res.rounds)  # every layer eligible
    # a full tree: row c runs the chain, candidate c and c live hypotheses
    assert len(rounds[0]) == sum(c + 2 for c in range(4)) == 14
    for prev, convs in zip(res.rounds, rounds[1:]):
        k = prev.chosen_layer
        assert min(c for c, _ in convs) == k
        # row k: the new candidate and the hypotheses of layers < k; row
        # c > k: the candidate and all c hypotheses, the chain being the
        # committed hypothesis column of last round
        assert len(convs) == (k + 1) + sum(c + 1 for c in range(k + 1, 4))
        assert sorted(c for c, kind in convs if kind == "candidate") == list(
            range(k, 4)
        )


def test_hbgts_commit_frees_stale_tree_entries(rng, monkeypatch):
    net = rand_net(rng, [3, 10, 10, 10, 10], k=3, activation="relu")
    data = rng.standard_normal((2, 3, 4, 4))
    propagate = search.propagate_tree
    last = {}  # position -> weak reference to an entry of the last pass
    alive_at_first_conv = []

    def tree_pass(net, candidates, x, known=None):
        tree = propagate(net, candidates, x, known)
        last.update({("chain", i): weakref.ref(y) for i, y in enumerate(tree.chain)})
        for c, col in enumerate(tree.columns):
            last.update({(c, j): weakref.ref(y) for j, y in enumerate(col or [])})
        return tree

    lock = threading.Lock()  # both threads of a pass run convs

    def conv(layer, x):
        with lock:
            if last:  # the first conv of every pass but the first
                alive = {pos for pos, ref in last.items() if ref() is not None}
                alive_at_first_conv.append(alive)
                last.clear()
        return conv_forward_linear(layer, x)

    monkeypatch.setattr(search, "propagate_tree", tree_pass)
    monkeypatch.setattr(search, "conv_forward_linear", conv)
    res = hbgts(net, data, PruneConfig(beta=0.3, alpha=2))
    assert all(min(r.retained) > 1 for r in res.rounds)  # every layer eligible
    assert len(alive_at_first_conv) == len(res.rounds) - 1 > 3
    for prev, alive in zip(res.rounds, alive_at_first_conv):
        k = prev.chosen_layer
        # the chain up to layer k's input, the committed column, and each
        # column c < k up to layer k's input
        assert alive == (
            {("chain", i) for i in range(k + 1)}
            | {(k, j) for j in range(4 - k)}
            | {(c, j) for c in range(k) for j in range(k - c)}
        )


def test_hbgs_round_after_commit_skips_unchanged_layers(rng, monkeypatch):
    net = rand_net(rng, [3, 10, 10, 10, 10], k=3, activation="relu")
    data = rng.standard_normal((2, 3, 4, 4))
    calls = conv_log(monkeypatch)
    res, rounds = convs_per_round(
        hbgs, net, data, PruneConfig(beta=0.3, alpha=2), calls, monkeypatch
    )
    assert len(rounds) == len(res.rounds) > 3
    assert all(min(r.retained) > 1 for r in res.rounds)  # every layer eligible
    # one candidate conv per example and scored layer; the chain convs are
    # counted by test_hbgs_chain_convs_per_round
    for prev, convs in zip([None] + list(res.rounds), rounds):
        k = prev.chosen_layer if prev else 0
        assert sorted(c for c, kind in convs if kind == "candidate") == [
            c for c in range(k, 4) for _ in data
        ]


def test_hbgs_chain_convs_per_round(rng, monkeypatch):
    # layers reach the floor over the run, so the last scored layer, and
    # with it the chain, moves between rounds
    net = rand_net(rng, [3, 10, 8, 6, 6], k=3, activation="relu")
    data = rng.standard_normal((2, 3, 4, 4))
    calls = conv_log(monkeypatch)
    res, rounds = convs_per_round(
        hbgs, net, data, PruneConfig(beta=0.5, alpha=2, floor=3), calls, monkeypatch
    )
    # chain convs run layers of the network; round 1 also runs the
    # references, one conv per example and layer
    per_round = [sum(kind == "net" for _, kind in convs) for convs in rounds]
    per_round[0] -= len(data) * len(net)
    want, replay, restores = [], [], 0
    k = 0  # the chain keeps the inputs of layers <= last round's commit
    for r in res.rounds:
        scored = [c for c, e in enumerate(r.errors) if c >= k and e < math.inf]
        # between rounds the inputs of even layers >= 2 are dropped, so the
        # input of layer k costs one conv from the input of layer k - 1
        restored = bool(scored) and k >= 2 and k % 2 == 0
        want.append(len(data) * (max(scored) - k + restored) if scored else 0)
        replay.append(len(data) * max(scored, default=0))
        restores += restored
        k = r.chosen_layer
    # round 1 takes every chain from the references
    want[0] -= len(data) * (len(net) - 1)
    assert per_round == want
    assert restores > 0
    assert sum(want) < sum(replay)  # fewer than a chain from the input


def test_hbgs_chain_keeps_every_other_input_between_rounds(rng, monkeypatch):
    net = rand_net(rng, [3, 8, 8, 8, 8, 8, 8], k=3, activation="relu")
    data = rng.standard_normal((2, 3, 4, 4))
    layer_output = search._layer_output
    score = search.relative_error_hbgs
    made = []  # weak references to every layer output made while scoring
    alive = []  # per round, how many of them outlive its scoring
    kept = []  # per round, the chain entries past the input after scoring

    def output(layer, x):
        y = layer_output(layer, x)
        if scoring:
            made.append(weakref.ref(y))
        return y

    def counted_score(*args):
        nonlocal scoring
        scoring = True
        errors = score(*args)
        scoring = False
        alive.append(sum(ref() is not None for ref in made))
        chains = args[4]
        kept.append(sum(y is not None for chain in chains for y in chain[1:]))
        return errors

    scoring = False
    monkeypatch.setattr(search, "_layer_output", output)
    monkeypatch.setattr(search, "relative_error_hbgs", counted_score)
    res = hbgs(net, data, PruneConfig(beta=0.3, alpha=2))
    assert len(alive) == len(res.rounds) > 3
    # each chain keeps its input and the inputs of odd layers, which are
    # ceil((L - 1) / 2) arrays; round 1 takes every chain to layer L - 1
    # from the references, so it makes none of them
    bound = len(data) * math.ceil((len(net) - 1) / 2)
    assert alive[0] == 0
    assert kept[0] == bound
    assert max(kept) <= bound
    assert max(alive) <= bound


def test_relative_error_hbgs_chain_stops_at_last_candidate(rng, monkeypatch):
    net = rand_net(rng, [2, 5, 4, 4, 3], k=3, activation="relu")
    data = rng.standard_normal((3, 2, 4, 4))
    refs = collect_layer_outputs(net, data)
    candidates = all_candidates(net)
    candidates[2] = candidates[3] = None
    calls = []

    def counted(layer, x):
        calls.append((threading.get_ident(), layer))
        return conv_forward_linear(layer, x)

    monkeypatch.setattr(search, "conv_forward_linear", counted)
    relative_error_hbgs(net, candidates, data, refs)
    # the chain only feeds layer 1, the last one with a candidate.  Examples
    # run concurrently, so only the order within a thread is defined: the
    # caller scores examples 0 and 2, the helper example 1.
    per_example = [candidates[0], net.layers[0], candidates[1]]
    per_thread = {}
    for ident, layer in calls:
        per_thread.setdefault(ident, []).append(layer)
    assert sorted(per_thread.values(), key=len) == [per_example, per_example * 2]


def test_random_baseline_builds_through_the_candidate_cache(rng, monkeypatch):
    net = rand_net(rng, [2, 8, 8], k=3)
    data = rng.standard_normal((2, 2, 4, 4))
    asked = []
    lookup = search._RoundLoop.candidates

    def spy(loop, eligible):
        asked.append(list(eligible))
        return lookup(loop, eligible)

    monkeypatch.setattr(search._RoundLoop, "candidates", spy)
    res = random_baseline(net, data, PruneConfig(beta=0.4, alpha=3, selector="random"))
    assert len(res.rounds) > 1
    assert asked == [[r.chosen_layer] for r in res.rounds]


def test_uniform_baseline_counts(rng):
    net = rand_net(rng, [3, 8, 6, 4], k=3)
    data = rng.standard_normal((2, 3, 4, 4))
    res = uniform_baseline(net, data, PruneConfig(beta=0.5, selector="uniform"))
    assert res.status == "reached"
    assert len(res.rounds) == 1
    r = res.rounds[0]
    assert r.chosen_layer is None
    assert r.forward_passes == 0
    assert r.retained == (4, 3, 2)
    assert all(e == math.inf for e in r.errors)
    assert [l.out_channels for l in res.network.layers] == [4, 3, 2]


def test_uniform_baseline_respects_floor(rng):
    net = rand_net(rng, [2, 8, 2], k=3)
    data = rng.standard_normal((2, 2, 4, 4))
    res = uniform_baseline(net, data, PruneConfig(beta=0.75, floor=3, selector="uniform"))
    # the 8-wide layer stops at the floor; the 2-wide layer is already below
    # it and stays untouched
    assert res.rounds[0].retained == (3, 2)
    assert res.status == "partial"  # both layers stay above retained_count(n, 0.75)
    np.testing.assert_array_equal(
        res.network.layers[1].weights, net.layers[1].weights
    )
    # a floor at the 8-wide layer's target: the 2-wide layer's target keeps
    # all of its filters, so the floor blocks nothing
    at_target = uniform_baseline(
        net, data, PruneConfig(beta=0.25, floor=6, selector="uniform")
    )
    assert at_target.rounds[0].retained == (6, 2)
    assert at_target.status == "reached"


def test_random_baseline_is_seeded(rng):
    net = rand_net(rng, [2, 8, 8], k=3)
    data = rng.standard_normal((2, 2, 4, 4))
    a = random_baseline(net, data, PruneConfig(beta=0.4, selector="random", seed=7))
    b = random_baseline(net, data, PruneConfig(beta=0.4, selector="random", seed=7))
    assert [r.retained for r in a.rounds] == [r.retained for r in b.rounds]
    assert all(r.forward_passes == 0 for r in a.rounds)
    assert all(e == math.inf for r in a.rounds for e in r.errors)
    c = random_baseline(net, data, PruneConfig(beta=0.4, selector="random", seed=2))
    trail_a = [(r.chosen_layer, r.retained) for r in a.rounds]
    trail_c = [(r.chosen_layer, r.retained) for r in c.rounds]
    assert trail_a != trail_c  # different seed, different trajectory


def test_runs_are_deterministic(rng):
    net = rand_net(rng, [2, 8, 6], k=3, activation="relu")
    data = rng.standard_normal((3, 2, 5, 5))
    cfg = PruneConfig(beta=0.35, alpha=2, selector="hbgts", fp_method="omp")
    a = run_selector(net, data, cfg)
    b = run_selector(net, data, cfg)
    assert a.rounds == b.rounds
    for la, lb in zip(a.network.layers, b.network.layers):
        assert la.weights.tobytes() == lb.weights.tobytes()
        assert la.comp.tobytes() == lb.comp.tobytes()


@pytest.mark.parametrize("selector", ["hbgs", "hbgts", "uniform", "random"])
def test_run_selector_dispatch(rng, selector):
    net = rand_net(rng, [2, 6, 6], k=3)
    data = rng.standard_normal((2, 2, 4, 4))
    res = run_selector(net, data, PruneConfig(beta=0.3, alpha=2, selector=selector))
    assert res.status == "reached"
    if selector == "uniform":
        # beta is a per-layer filter fraction here, not a parameter budget
        assert res.rounds[0].retained == (4, 4)
    else:
        assert res.rounds[-1].param_reduction >= 0.3
    total_before = sum(l.out_channels for l in net.layers)
    total_after = sum(l.out_channels for l in res.network.layers)
    assert total_after < total_before


@pytest.mark.parametrize("selector", list(search.DRIVERS))
def test_drivers_accept_an_array_like_dataset(rng, selector):
    net = rand_net(rng, [2, 6, 6], k=3, activation="relu")
    data = rng.standard_normal((3, 2, 4, 4))
    cfg = PruneConfig(beta=0.3, alpha=2, selector=selector)
    want = run_selector(net, data, cfg)
    got = run_selector(net, data.tolist(), cfg)
    assert got.status == want.status
    assert got.rounds == want.rounds
    for a, b in zip(got.network.layers, want.network.layers, strict=True):
        assert a.weights.tobytes() == b.weights.tobytes()
        assert (a.comp is None) == (b.comp is None)
        assert a.comp is None or a.comp.tobytes() == b.comp.tobytes()


def test_prune_config_validation():
    with pytest.raises(ValueError):
        PruneConfig(beta=0.0)
    with pytest.raises(ValueError):
        PruneConfig(beta=1.0)
    with pytest.raises(ValueError):
        PruneConfig(beta=0.5, alpha=0)
    with pytest.raises(ValueError):
        PruneConfig(beta=0.5, floor=0)
    with pytest.raises(ValueError):
        PruneConfig(beta=0.5, selector="greedy")
    with pytest.raises(ValueError):
        PruneConfig(beta=0.5, fp_method="lasso")
    with pytest.raises(ValueError, match="seed must be >= 0"):
        PruneConfig(beta=0.5, seed=-1)
    for bad in [1.5, 2.0, "3", True, None]:
        for name in ("alpha", "floor", "seed"):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                PruneConfig(beta=0.5, **{name: bad})


@pytest.mark.parametrize("selector", list(search.DRIVERS))
@pytest.mark.parametrize(
    "shape, message",
    [((2, 2, 4, 4), "3 input channels"), ((2, 3, 0, 4), "images must be non-empty")],
    ids=["channels", "zero-height"],
)
def test_drivers_validate_data_shape(rng, selector, shape, message, monkeypatch):
    net = rand_net(rng, [3, 6], k=3)
    cfg = PruneConfig(beta=0.3, selector=selector)
    calls = conv_log(monkeypatch)
    with pytest.raises(DimensionError, match=message):
        search.DRIVERS[selector](net, np.ones(shape), cfg)
    assert calls == []  # raised before any conv


@pytest.mark.parametrize("selector", list(search.DRIVERS))
def test_round_record(rng, selector, monkeypatch):
    net = rand_net(rng, [3, 8, 8, 8], k=3, activation="relu")
    data = rng.standard_normal((3, 3, 4, 4))
    commit = search._RoundLoop.commit
    committed = []

    def checked_commit(loop, chosen, pruned, *args):
        if chosen is not None:  # the layer is the very candidate the loop cached
            assert pruned[chosen] is loop.cache[chosen]
            committed.append(chosen)
        commit(loop, chosen, pruned, *args)

    monkeypatch.setattr(search._RoundLoop, "commit", checked_commit)
    res = run_selector(net, data, PruneConfig(beta=0.4, alpha=2, selector=selector))
    assert [r.t for r in res.rounds] == list(range(1, len(res.rounds) + 1))
    passes = len(data) if selector in ("hbgs", "hbgts") else 0
    assert [r.forward_passes for r in res.rounds] == [passes] * len(res.rounds)
    if selector == "uniform":
        assert len(res.rounds) == 1 and committed == []
    else:
        assert len(res.rounds) > 1
        assert committed == [r.chosen_layer for r in res.rounds]


def test_relative_output_error_identity(rng):
    net = rand_net(rng, [2, 5, 4], k=3, activation="relu")
    data = rng.standard_normal((3, 2, 4, 4))
    total, skips = relative_output_error(net, net, data)
    assert total == 0.0
    assert skips == 0
    total, skips = relative_output_error(net, net, np.zeros((2, 2, 4, 4)))
    assert skips == 2


def test_relative_output_error_rejects_empty_images(rng, monkeypatch):
    net = rand_net(rng, [4, 5, 3], k=3, activation="relu")
    calls = conv_log(monkeypatch)
    # examples with no pixels are not zero-norm references: nothing is measured
    with pytest.raises(DimensionError, match="images must be non-empty"):
        relative_output_error(net, net, np.zeros((3, 4, 0, 5)))
    assert calls == []


@pytest.mark.parametrize("width", [1, 2])
def test_relative_output_error_rejects_another_final_width(rng, width, monkeypatch):
    reference = rand_net(rng, [2, 6, 5], k=3, activation="relu")
    net = rand_net(rng, [2, 6, width], k=3, activation="relu")
    calls = conv_log(monkeypatch)
    with pytest.raises(DimensionError, match=f"final width {width}, reference has 5"):
        relative_output_error(net, reference, rng.standard_normal((3, 2, 4, 4)))
    assert calls == []  # raised before any conv


def test_relative_output_error_matches_per_example_sum(rng):
    net = rand_net(rng, [2, 6, 5, 4], k=3, activation="relu")
    pruned = uniform_baseline(net, rng.standard_normal((3, 2, 4, 4)),
                              PruneConfig(beta=0.5, selector="uniform")).network
    data = rng.standard_normal((4, 2, 4, 4))
    data[1] = 0.0
    total, skips = relative_output_error(pruned, net, data)
    want = 0.0
    for x in data[[0, 2, 3]]:
        ref, out = x, x
        for c in range(len(net)):
            ref = conv_forward(net.layers[c], ref)
            out = conv_forward(pruned.layers[c], out)
        want += np.linalg.norm(ref - out) / np.linalg.norm(ref)
    assert skips == 1
    assert total == pytest.approx(want, rel=1e-12)
