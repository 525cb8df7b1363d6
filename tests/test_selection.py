"""Filter subset selection: flattening, least squares, forward and backward."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convprune import (
    ConsistencyError,
    ConvLayer,
    SingularGramError,
    flatten_filters,
    fp_backward,
    fp_omp,
    planted_network,
    retained_count,
)
from convprune import selection
from convprune.selection import (
    REFACTOR_VIF,
    RIDGE_SCALE,
    TIE_SLACK,
    GramInverse,
    border_gram,
    default_ridge,
    downdate_gram,
    elimination_scores,
    gram_inverse,
    least_squares_coeffs,
)

from conftest import residual_error, scratch_lstsq_error


# ---------------------------------------------------------------- flattening


def test_flatten_output_columns_are_filters(rng):
    w = rng.standard_normal((4, 3, 2, 2))
    a = flatten_filters(ConvLayer(w))
    assert a.shape == (3 * 2 * 2, 4)
    assert a.dtype == np.float64 and a.flags.c_contiguous
    for j in range(4):
        np.testing.assert_array_equal(a[:, j], w[j].ravel())


@pytest.mark.parametrize("k", [1, 2, 3])
def test_flatten_equals_the_filter_bank_reshape(rng, k):
    layer = ConvLayer(rng.standard_normal((5, 4, k, k)))
    for source in (layer, ConvLayer(layer.weights[[4, 0, 2]])):
        a = flatten_filters(source)
        want = np.ascontiguousarray(source.weights.reshape(source.out_channels, -1).T)
        assert a.flags.c_contiguous and a.tobytes() == want.tobytes()
        assert not np.shares_memory(a, source.gemm_weights)


def test_flatten_rejects_dead_filter(rng):
    w = rng.standard_normal((3, 2, 3, 3))
    w[1] = 0.0
    with pytest.raises(ConsistencyError, match="column 1"):
        flatten_filters(ConvLayer(w))


# ------------------------------------------------------------- least squares


def test_least_squares_matches_lstsq(rng):
    a = rng.standard_normal((20, 4))
    b = rng.standard_normal((20, 6))
    coeffs = least_squares_coeffs(a, b, ridge=0.0)
    want, *_ = np.linalg.lstsq(a, b, rcond=None)
    np.testing.assert_allclose(coeffs, want, rtol=1e-9, atol=1e-12)
    resid = b - a @ coeffs
    total = float(np.einsum("ij,ij->j", resid, resid).sum())
    assert total == pytest.approx(scratch_lstsq_error(a, b), rel=1e-10)
    assert total == pytest.approx(np.sum(resid * resid))


def test_least_squares_shape_guard(rng):
    with pytest.raises(ConsistencyError):
        least_squares_coeffs(rng.standard_normal((5, 2)), rng.standard_normal((6, 2)))


def test_least_squares_singular_without_ridge(rng):
    col = rng.standard_normal((8, 1))
    a = np.hstack([col, col])
    with pytest.raises(SingularGramError):
        least_squares_coeffs(a, a, ridge=0.0)
    # the default ridge makes the same system solvable
    coeffs = least_squares_coeffs(a, a)
    assert np.all(np.isfinite(coeffs))


def test_default_ridge_scales_with_energy(rng):
    a = rng.standard_normal((10, 4))
    assert default_ridge(3.0 * a) == pytest.approx(9.0 * default_ridge(a), rel=1e-12)


# ------------------------------------------------------------ retained_count


@pytest.mark.parametrize(
    "n,beta,want",
    [(8, 0.5, 4), (10, 0.25, 8), (5, 0.9, 1), (4, 0.0, 4), (3, 0.99, 1), (7, 0.5, 4)],
)
def test_retained_count_table(n, beta, want):
    assert retained_count(n, beta) == want


def test_retained_count_rejects_bad_beta():
    with pytest.raises(ValueError):
        retained_count(8, 1.0)
    with pytest.raises(ValueError):
        retained_count(8, -0.1)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 512),
    b1=st.floats(0.0, 0.999),
    b2=st.floats(0.0, 0.999),
)
def test_retained_count_bounds_and_monotone(n, b1, b2):
    t1, t2 = retained_count(n, b1), retained_count(n, b2)
    assert 1 <= t1 <= n
    if b1 <= b2:
        assert t1 >= t2


# --------------------------------------------------------------- forward OMP


def test_fp_omp_spanning_triple():
    s = 1.0 / np.sqrt(2.0)
    a = np.array([[1.0, 0.0, s], [0.0, 1.0, s]])
    sel = fp_omp(a, beta=1.0 / 3.0)
    # the mixed column correlates with everything and goes first; the
    # remaining pair ties and the smaller index wins
    assert sel.order == (2, 0)
    assert sel.retained == (0, 2)
    assert residual_error(a, sel) <= 1e-16


def test_fp_omp_skips_duplicates(rng):
    c1, c2, c3 = rng.standard_normal((3, 12))
    a = np.stack([c1, c1, c2, c3], axis=1)
    sel = fp_omp(a, beta=0.25)
    assert len(sel.retained) == 3
    assert not {0, 1} <= set(sel.retained)
    assert residual_error(a, sel) <= 1e-16 * np.sum(a * a)


def test_fp_omp_never_beats_exhaustive(rng):
    from itertools import combinations

    a = rng.standard_normal((6, 5))
    sel = fp_omp(a, beta=0.4)
    assert len(sel.retained) == 3
    best = min(
        scratch_lstsq_error(a[:, list(s)], a) for s in combinations(range(5), 3)
    )
    assert residual_error(a, sel) >= best - 1e-9


def test_fp_omp_beta_zero_keeps_everything(rng):
    a = rng.standard_normal((9, 4))
    sel = fp_omp(a, beta=0.0)
    assert sel.retained == (0, 1, 2, 3)
    assert residual_error(a, sel) <= 1e-12 * np.sum(a * a)


def lstsq_rank(a: np.ndarray) -> int:
    return int(np.linalg.lstsq(a, a, rcond=None)[2])


def data_space_omp(a: np.ndarray, t: int) -> list[int]:
    """Reference OMP: refit every unit column on the selected ones and take
    the column most correlated with all residuals, in data space.  Once the
    selected columns reach the bank's rank every score is 0 in exact
    arithmetic, and ties go to the smallest index."""
    ahat = a / np.linalg.norm(a, axis=0)
    rank = lstsq_rank(a)
    residual = ahat
    order: list[int] = []
    while len(order) < min(t, rank):
        scores = np.abs(ahat.T @ residual).sum(axis=1)
        scores[order] = -np.inf
        order.append(int(np.argmax(scores)))
        sub = ahat[:, order]
        ridge = RIDGE_SCALE * np.sum(sub * sub) / len(order)
        gram = sub.T @ sub + ridge * np.eye(len(order))
        residual = ahat - sub @ np.linalg.solve(gram, sub.T @ ahat)
    rest = [j for j in range(a.shape[1]) if j not in order]
    return order + rest[: t - len(order)]


def omp_reference_banks():
    for channels in (8, 16, 32, 48, 64):
        for redundancy in (0.0, 0.25, 0.5, 0.75):
            for seed in range(10):
                net, _ = planted_network(1, channels, 3, redundancy, seed)
                yield flatten_filters(net.layers[0])


def test_fp_omp_matches_data_space_reference():
    mismatches = []
    for a in omp_reference_banks():
        n = a.shape[1]
        # greedy picks do not depend on when the pass stops, so one
        # reference run covers every beta
        want = data_space_omp(a, retained_count(n, 0.2))
        for beta in (0.2, 0.4, 0.6):
            t = retained_count(n, beta)
            sel = fp_omp(a, beta)
            if sel.order != tuple(want[:t]):
                mismatches.append((a.shape, beta, sel.order, want[:t]))
            elif t > lstsq_rank(a):
                want_error = scratch_lstsq_error(a[:, sorted(want[:t])], a)
                energy = float(np.sum(a * a))
                assert abs(residual_error(a, sel) - want_error) <= 1e-9 * energy
    assert mismatches == []


def test_fp_omp_takes_smallest_indices_past_the_rank():
    # past a planted bank's rank every score is round-off: the picks there
    # are the smallest unselected indices, in ascending order, so they do
    # not depend on the factorization or on the BLAS kernel
    for channels in (16, 32, 64):
        for redundancy in (0.25, 0.5, 0.75):
            for seed in range(4):
                net, _ = planted_network(1, channels, 3, redundancy, seed)
                a = flatten_filters(net.layers[0])
                rank = lstsq_rank(a)
                energy = float(np.sum(a * a))
                for beta in (0.1, redundancy - 0.1):
                    t = retained_count(channels, beta)
                    assert t > rank
                    order = fp_omp(a, beta).order
                    spanning = list(order[:rank])
                    assert scratch_lstsq_error(a[:, spanning], a) <= 1e-9 * energy
                    rest = [j for j in range(channels) if j not in spanning]
                    assert order[rank:] == tuple(rest[: t - rank])


# ------------------------------------------------------- elimination scoring


def gram_state(a, b=None, ridge=None):
    b = a if b is None else b
    return gram_inverse(a.T @ a, a.T @ b, default_ridge(a) if ridge is None else ridge)


def test_elimination_scores_orthonormal_cost_one(rng):
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    a = q[:, :5]
    scores = elimination_scores(gram_state(a, ridge=0.0))
    np.testing.assert_allclose(scores, np.ones(5), rtol=0, atol=1e-10)


def test_elimination_scores_duplicate_is_free(rng):
    c1, c2 = rng.standard_normal((2, 10))
    a = np.stack([c1, c1, c2], axis=1)
    scores = elimination_scores(gram_state(a))
    assert scores[0] <= 1e-6
    assert scores[1] <= 1e-6
    assert scores[2] > 0.1


def test_elimination_scores_match_scratch_deltas(rng):
    a = rng.standard_normal((15, 6))
    b = rng.standard_normal((15, 6))
    base = scratch_lstsq_error(a, b)
    scores = elimination_scores(gram_state(a, b, ridge=0.0))
    for k in range(6):
        delta = scratch_lstsq_error(np.delete(a, k, axis=1), b) - base
        assert scores[k] == pytest.approx(delta, rel=1e-8, abs=1e-10)


def test_downdate_matches_fresh_inverse(rng):
    a = rng.standard_normal((16, 6))
    ridge = default_ridge(a)
    state = downdate_gram(gram_state(a, ridge=ridge), 2)
    rest = np.delete(a, 2, axis=1)
    fresh = gram_state(rest, a, ridge=ridge)
    np.testing.assert_allclose(state.matrix, fresh.matrix, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(state.coeffs, fresh.coeffs, rtol=1e-9, atol=1e-12)


def test_bordered_state_matches_fresh_inverse(monkeypatch):
    # after every pick up to the rank, the grown state is the fresh inverse
    # of the selected block; bordering stops at the rank
    states = []

    def recorded(*args):
        state = border_gram(*args)
        states.append(GramInverse(state.matrix.copy(), state.coeffs.copy()))
        return state

    monkeypatch.setattr(selection, "border_gram", recorded)
    rng = np.random.default_rng(77)
    banks = [rng.standard_normal((rows, n)) for rows, n in ((40, 12), (72, 32), (64, 64))]
    for channels, redundancy, seed in ((16, 0.5, 0), (32, 0.25, 1), (32, 0.75, 2)):
        net, _ = planted_network(1, channels, 3, redundancy, seed)
        banks.append(flatten_filters(net.layers[0]))
    for a in banks:
        rank = lstsq_rank(a)
        ahat = a / np.linalg.norm(a, axis=0)
        gram = ahat.T @ ahat
        ridge = default_ridge(ahat)
        for beta in (0.0, 0.5):
            states.clear()
            order = list(fp_omp(a, beta).order)
            assert len(states) == min(len(order) - 1, rank)
            for size, state in enumerate(states, start=1):
                keep = order[:size]
                fresh = gram_inverse(gram[np.ix_(keep, keep)], gram[keep], ridge)
                for got, want in ((state.matrix, fresh.matrix), (state.coeffs, fresh.coeffs)):
                    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), (
                        a.shape, beta, size
                    )


def test_border_then_downdate_round_trip(rng):
    a = rng.standard_normal((20, 7))
    gram, ridge = a.T @ a, default_ridge(a)
    keep = [4, 0, 2, 5]
    state = gram_inverse(gram[np.ix_(keep, keep)], gram[keep], ridge)
    out = GramInverse(np.empty((5, 5)), np.empty((5, 7)))
    grown = border_gram(state, gram[keep + [6], 6], gram[6], ridge, out)
    back = downdate_gram(grown, len(keep))
    np.testing.assert_allclose(back.matrix, state.matrix, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(back.coeffs, state.coeffs, rtol=1e-12, atol=1e-12)


def test_border_gram_guards():
    state = GramInverse(np.ones((1, 1)), np.ones((1, 2)))
    out = GramInverse(np.empty((2, 2)), np.empty((2, 2)))
    # gamma = 1 + 0 - 1 * 1 * 1 = 0: the new column is the old one
    with pytest.raises(SingularGramError, match="pivot"):
        border_gram(state, np.array([1.0, 1.0]), np.ones(2), 0.0, out)
    with pytest.raises(SingularGramError, match="pivot"):
        border_gram(state, np.array([1.0, 0.5]), np.ones(2), 0.0, out)
    with pytest.raises(SingularGramError, match="non-finite"):
        border_gram(state, np.array([0.0, 1.0]), np.array([1.0, np.nan]), 0.0, out)
    with pytest.raises(ConsistencyError):
        border_gram(state, np.array([1.0]), np.ones(2), 0.0, out)
    with pytest.raises(ConsistencyError):
        border_gram(state, np.array([0.0, 1.0]), np.ones(3), 0.0, out)


def test_gram_inverse_singular_without_ridge(rng):
    b = rng.standard_normal((8, 2))
    dup = [0, 0, 1]  # column 0 twice: the block has two equal rows
    gram = (b.T @ b)[np.ix_(dup, dup)]
    with pytest.raises(SingularGramError):
        gram_inverse(gram, gram, 0.0)


def test_gram_inverse_equals_numpy_inverse(rng):
    full = rng.standard_normal((20, 6))
    duplicated = np.repeat(rng.standard_normal((9, 3)), 2, axis=1)
    for a in (full, duplicated):
        gram, ridge = a.T @ a, default_ridge(a)
        state = gram_inverse(gram, gram, ridge)
        want = np.linalg.inv(gram + ridge * np.eye(len(gram)))
        assert state.matrix.tobytes() == want.tobytes()


def test_downdate_guards(rng):
    a = rng.standard_normal((6, 3))
    state = gram_state(a)
    with pytest.raises(ConsistencyError):
        downdate_gram(state, 3)
    one = gram_state(a[:, :1], a)
    with pytest.raises(ConsistencyError):
        downdate_gram(one, 0)
    with pytest.raises(ConsistencyError):
        gram_inverse(a.T @ a, a[:, :2].T @ a, 0.0)


# ------------------------------------------------------ backward elimination


def test_fp_backward_removes_scaled_copy_first(rng):
    c1, c2 = rng.standard_normal((2, 9))
    a = np.stack([c1, c2, 2.0 * c1], axis=1)
    sel = fp_backward(a, beta=1.0 / 3.0)
    # columns 0 and 2 are redundant with each other; the tie resolves to the
    # smaller original index
    assert sel.order == (0,)
    assert sel.retained == (1, 2)
    assert residual_error(a, sel) <= 1e-12 * np.sum(a * a)


def test_fp_backward_residual_monotone_in_beta(rng):
    a = rng.standard_normal((12, 8))
    errs = [residual_error(a, fp_backward(a, beta)) for beta in (0.1, 0.3, 0.5, 0.7)]
    assert errs == sorted(errs)


def test_fp_backward_beta_zero_keeps_everything(rng):
    a = rng.standard_normal((10, 5))
    sel = fp_backward(a, beta=0.0)
    assert sel.retained == (0, 1, 2, 3, 4)
    assert sel.order == ()
    assert residual_error(a, sel) <= 1e-12 * np.sum(a * a)


def test_fp_backward_handles_rank_deficient_bank(rng):
    # eight columns living in a 3-dim subspace: any spanning triple is exact,
    # and the near-singular downdates must not corrupt the scores
    basis = rng.standard_normal((20, 3))
    a = basis @ rng.standard_normal((3, 8))
    sel = fp_backward(a, beta=5.0 / 8.0)
    assert len(sel.retained) == 3
    assert residual_error(a, sel) <= 1e-9 * np.sum(a * a)


def test_fp_backward_survives_planted_banks(monkeypatch):
    # planted banks are rank-deficient by construction; backward elimination
    # must neither raise nor miss an exact fit while beta <= redundancy, and
    # with the dependent filters gone first it never refactorizes
    inverses = 0
    real_inverse = selection.gram_inverse

    def counted_inverse(*args):
        nonlocal inverses
        inverses += 1
        return real_inverse(*args)

    monkeypatch.setattr(selection, "gram_inverse", counted_inverse)
    failures = []
    for channels in (8, 16, 32, 48, 64):
        for redundancy in (0.1, 0.25, 0.5, 0.75):
            for seed in range(10):
                net, _ = planted_network(1, channels, 3, redundancy, seed)
                a = flatten_filters(net.layers[0])
                energy = float(np.sum(a * a))
                for beta in (0.2, 0.4, 0.6):
                    case = (channels, redundancy, seed, beta)
                    inverses = 0
                    try:
                        sel = fp_backward(a, beta)
                    except np.linalg.LinAlgError as exc:
                        failures.append((case, repr(exc)))
                        continue
                    if beta <= redundancy and residual_error(a, sel) > 1e-9 * energy:
                        failures.append((case, residual_error(a, sel) / energy))
                    if inverses > 1:
                        failures.append((case, f"{inverses} gram_inverse calls"))
    assert failures == []


def span_dependent_columns(a):
    """Columns in the span of the columns after them, by data-space least
    squares on each trailing block."""
    dependent = []
    for j in range(a.shape[1] - 1):
        rest = a[:, j + 1:]
        coef, *_ = np.linalg.lstsq(rest, a[:, j], rcond=None)
        resid = a[:, j] - rest @ coef
        if np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(a[:, j]):
            dependent.append(j)
    return dependent


def test_fp_backward_removes_dependent_filters_first():
    # exact ties go to the smallest index, so backward elimination removes
    # the filters lying in the span of the filters after them, ascending
    for channels in (8, 16, 32, 64):
        for redundancy in (0.25, 0.5, 0.75):
            for seed in range(5):
                net, _ = planted_network(1, channels, 3, redundancy, seed)
                a = flatten_filters(net.layers[0])
                dependent = span_dependent_columns(a)
                for beta in (0.2, 0.4, 0.6):
                    if beta > redundancy:
                        continue
                    drop = channels - retained_count(channels, beta)
                    assert len(dependent) >= drop
                    sel = fp_backward(a, beta)
                    case = (channels, redundancy, seed, beta)
                    assert sel.order == tuple(dependent[:drop]), case


def test_fp_backward_wide_rank_deficient_bank():
    # a 1x1 layer widening 8 channels to 256: rank 8, so 248 filters are
    # dependent and half the bank goes without error
    layer = ConvLayer(np.random.default_rng(8).standard_normal((256, 8, 1, 1)))
    a = flatten_filters(layer)
    sel = fp_backward(a, beta=0.5)
    assert len(sel.retained) == 128
    assert residual_error(a, sel) <= 1e-9 * np.sum(a * a)


def plain_elimination(a, beta):
    """Backward elimination by elimination_scores alone, from all filters:
    the loop fp_backward runs once no dependent filter is left."""
    n = a.shape[1]
    t = retained_count(n, beta)
    scale = float(np.einsum("ij,ij->", a, a)) / n
    keep = list(range(n))
    order = []
    gram = a.T @ a
    ridge = default_ridge(a)
    state = gram_inverse(gram, gram, ridge) if n > t else None
    while len(keep) > t:
        scores = elimination_scores(state)
        k = int(np.argmax(scores <= scores.min() + TIE_SLACK * scale))
        removed = keep.pop(k)
        order.append(removed)
        if len(keep) > t:
            vif = state.matrix[k, k] * (gram[removed, removed] + ridge)
            if vif > REFACTOR_VIF:
                state = gram_inverse(gram[np.ix_(keep, keep)], gram[keep], ridge)
            else:
                state = downdate_gram(state, k)
    return tuple(order), least_squares_coeffs(a[:, sorted(keep)], a)


def test_fp_backward_full_rank_matches_plain_elimination():
    # no filter of a full-rank bank is dependent, so the dependent pass must
    # leave order and coefficients bit for bit as the plain loop gives them
    rng = np.random.default_rng(1234)
    for _ in range(200):
        n = int(rng.integers(2, 65))
        a = rng.standard_normal((int(rng.integers(n, 4 * n + 1)), n))
        beta = float(rng.uniform(0.0, 0.9))
        order, coeffs = plain_elimination(a, beta)
        sel = fp_backward(a, beta)
        assert sel.order == order, (a.shape, beta)
        assert sel.coeffs.tobytes() == coeffs.tobytes(), (a.shape, beta)


@pytest.mark.parametrize("select", [fp_omp, fp_backward])
def test_selection_is_permutation_equivariant(rng, select):
    a = rng.standard_normal((12, 6))
    perm = rng.permutation(6)
    base = select(a, beta=0.5)
    shuffled = select(a[:, perm], beta=0.5)
    assert sorted(perm[list(shuffled.retained)]) == list(base.retained)
    assert residual_error(a[:, perm], shuffled) == pytest.approx(
        residual_error(a, base), rel=1e-9
    )


@pytest.mark.parametrize("select", [fp_omp, fp_backward])
def test_selection_is_scale_invariant(rng, select):
    a = rng.standard_normal((10, 7))
    base = select(a, beta=0.4)
    scaled = select(3.7 * a, beta=0.4)
    assert scaled.retained == base.retained
    assert scaled.order == base.order


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 10),
    rows=st.integers(4, 16),
    beta=st.floats(0.0, 0.9),
    backward=st.booleans(),
)
def test_selection_invariants(seed, n, rows, beta, backward):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, n))
    select = fp_backward if backward else fp_omp
    sel = select(a, beta)
    t = retained_count(n, beta)
    assert len(sel.retained) == t
    assert list(sel.retained) == sorted(set(sel.retained))
    assert sel.coeffs.shape == (t, n)
    kept = list(sel.retained)
    resid = a - a[:, kept] @ sel.coeffs
    per_target = np.einsum("ij,ij->j", resid, resid)
    assert residual_error(a, sel) == pytest.approx(per_target.sum(), abs=1e-9)
    if backward:
        assert sorted(sel.order) == sorted(sel.removed)
    else:
        assert sorted(sel.order) == sorted(sel.retained)
    # retained columns reconstruct themselves
    assert per_target[kept].max() <= 1e-9 * max(np.sum(a * a), 1.0)
