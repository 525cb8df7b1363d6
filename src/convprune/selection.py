"""Filter subset selection by sparse approximation.

A layer's filter bank is flattened into a plain (K*K*m, n) array A whose
columns are the filters; selection keeps the subset of columns that
reconstructs all columns best in the least-squares sense.  Both selectors
take A itself and work on its Gram matrix C = A^T A, formed once per call
with one ridge, and both hold the inverse of the ridged Gram block of their
set of columns and the least-squares coefficients on it as a GramInverse.
The greedy forward pass (orthogonal matching pursuit over the filters
scaled to unit norm) grows that state by one bordering update per pick;
once the picks span the bank, the remaining picks are the smallest
unselected indices.  The backward elimination pass first removes, in
ascending order, the filters that lie in the span of the filters after
them, found by one rank-revealing Cholesky pass over C; on the full-rank
rest it removes one filter at a time using a closed-form expression for the
exact error increase of each removal, with the state downdated by a rank-1
update after each removal.  A fresh state and the final refit each go
through one ridged solve.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nets import ConvLayer

# Scale factor for the diagonal regularizer added to every Gram matrix
# before inversion; keeps near-duplicate filter banks invertible without
# visibly perturbing well-conditioned solves.
RIDGE_SCALE = 1e-10

# Two elimination scores within this fraction of the mean column energy are
# treated as tied (ties go to the smallest original index).  Wide enough to
# absorb the ridge-induced slack on exact-duplicate columns.
TIE_SLACK = 1e-6

# Refactorize the elimination state instead of downdating it when the
# removed column's variance-inflation factor gamma_k (C_kk + ridge) exceeds
# this: the downdate cancels about log10 of that factor in digits.
REFACTOR_VIF = 1e6

# A filter whose Schur pivot against the independent filters after it is at
# most this fraction of its own energy C_jj (a relative residual of 1e-5)
# lies in their span: backward elimination removes it at no cost.
DEPENDENT_PIVOT = 1e-10

# fp_omp stops bordering once every unselected unit column's ridged residual
# energy against the selected ones is at most this: the selected set then
# spans the bank, every score is round-off, and the remaining picks are the
# smallest unselected indices, as exact ties would give.  Measured on 390
# planted banks of 16 to 256 filters: at the rank the ridge leaves at most
# 6.2e-9 (so DEPENDENT_PIVOT would not do), and before it at least 0.167.
# Random square banks, which have little room, read at least 4.9e-4 before
# their rank while two or more columns are unselected (300 banks).
SPANNED_RESIDUAL = 1e-6


class SingularGramError(np.linalg.LinAlgError):
    """Gram matrix numerically singular even after ridge regularization."""


class ConsistencyError(ValueError):
    """Inputs that disagree with each other (shapes, index sets, blocks)."""


def flatten_filters(layer: ConvLayer) -> np.ndarray:
    """The layer's filter matrix: column j is filter j flattened over
    (in_channels, K, K), so the matrix is (K*K*m, n)."""
    n, m, k = layer.out_channels, layer.in_channels, layer.kernel_size
    # one gather from the GEMM matrix, whose rows run over (K, K, m)
    mat = layer.gemm_weights.reshape(k, k, m, n).transpose(2, 0, 1, 3)
    mat = np.ascontiguousarray(mat.reshape(m * k * k, n))
    norms = np.linalg.norm(mat, axis=0)
    if np.any(norms <= 1e-300):
        dead = int(np.argmin(norms))
        raise ConsistencyError(f"filter column {dead} has zero norm")
    return mat


def default_ridge(a: np.ndarray) -> float:
    """Regularizer used for every Gram inversion: scaled mean column energy."""
    n = a.shape[1]
    return RIDGE_SCALE * float(np.einsum("ij,ij->", a, a)) / n


def _ridged_solve(gram: np.ndarray, rhs: np.ndarray, ridge: float) -> np.ndarray:
    """Solve (gram + ridge I) X = rhs: the one Gram-system solve of this module."""
    ridged = np.array(gram, dtype=np.float64)
    ridged[np.diag_indices_from(ridged)] += ridge
    try:
        x = np.linalg.solve(ridged, rhs)
    except np.linalg.LinAlgError:
        raise SingularGramError(
            f"Gram matrix singular at ridge {ridge:.3e} "
            f"(condition ~ {np.linalg.cond(ridged):.3e})"
        ) from None
    if not np.all(np.isfinite(x)):
        raise SingularGramError(f"non-finite solve at ridge {ridge:.3e}")
    return x


def least_squares_coeffs(
    a_sub: np.ndarray, b: np.ndarray, ridge: float | None = None
) -> np.ndarray:
    """Solve min ||b_j - a_sub @ coeffs_j||^2 for every column of b.

    Returns coeffs of shape (a_sub cols, b cols) via the normal equations
    with a ridge term on the diagonal (default: scaled mean column energy of
    a_sub; pass 0.0 for the unregularized solve).
    """
    if a_sub.ndim != 2 or b.ndim != 2 or a_sub.shape[0] != b.shape[0]:
        raise ConsistencyError(
            f"incompatible shapes {a_sub.shape} and {b.shape} for least squares"
        )
    if ridge is None:
        ridge = default_ridge(a_sub)
    return _ridged_solve(a_sub.T @ a_sub, a_sub.T @ b, ridge)


def retained_count(n: int, beta: float) -> int:
    """Number of filters kept when pruning fraction beta of n: round((1-beta)n),
    clamped to [1, n]."""
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must be in [0, 1), got {beta}")
    t = int(np.floor((1.0 - beta) * n + 0.5))
    return min(max(t, 1), n)


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of a filter-subset selection on one layer.

    retained: kept column indices, ascending.
    coeffs: (|retained|, n); column j reconstructs original filter j from the
        retained columns at their original (unnormalized) scale, refit by
        one ridged least-squares solve against all n original columns.
    order: indices in the order the selector touched them (forward: order of
        addition; backward: order of removal).
    """

    retained: tuple[int, ...]
    coeffs: np.ndarray
    order: tuple[int, ...]

    @property
    def removed(self) -> tuple[int, ...]:
        kept = set(self.retained)
        n = self.coeffs.shape[1]
        return tuple(i for i in range(n) if i not in kept)


def _finish(a: np.ndarray, retained: list[int], order: list[int]) -> SelectionResult:
    kept = sorted(retained)
    coeffs = least_squares_coeffs(a[:, kept], a)
    return SelectionResult(tuple(kept), coeffs, tuple(order))


@dataclass(frozen=True)
class GramInverse:
    """Selection state for a set S of columns, held in Gram space.

    matrix is G = (C_SS + ridge I)^-1 and coeffs is X = G C_S:, the
    least-squares coefficients of every target on the columns of S, where
    C = A^T A over all columns.  fp_backward shrinks it by downdate_gram,
    fp_omp grows it by border_gram.
    """

    matrix: np.ndarray
    coeffs: np.ndarray


def gram_inverse(gram: np.ndarray, cross: np.ndarray, ridge: float) -> GramInverse:
    """Fresh state from the Gram block C_SS and the cross block C_S: ."""
    size = gram.shape[0]
    if gram.shape != (size, size) or cross.shape[:1] != (size,):
        raise ConsistencyError(
            f"Gram block {gram.shape} does not match cross block {cross.shape}"
        )
    inv = _ridged_solve(gram, np.eye(size), ridge)
    return GramInverse(inv, inv @ cross)


def elimination_scores(state: GramInverse) -> np.ndarray:
    """Exact squared-error increase from deleting each retained column.

    For column k with inverse-Gram diagonal gamma_k, the direction
    d_k = A_S G[:, k] satisfies increase_k = sum_j (d_k . b_j)^2 / gamma_k,
    and d_k^T b_j is entry (k, j) of the coefficient matrix X.
    """
    gammas = np.diag(state.matrix)
    if np.any(gammas <= 0.0):
        raise SingularGramError("inverse Gram lost positive definiteness")
    return np.einsum("kj,kj->k", state.coeffs, state.coeffs) / gammas


def downdate_gram(state: GramInverse, k: int) -> GramInverse:
    """State after deleting retained column k, without refactorizing.

    Block-inverse identity: with g = G[-k, k] and gamma = G[k, k],
    G' = G[-k, -k] - g g^T / gamma and X' = X[-k] - g X[k]^T / gamma.
    """
    size = state.matrix.shape[0]
    if size < 2:
        raise ConsistencyError("cannot downdate a 1x1 Gram inverse")
    if not 0 <= k < size:
        raise ConsistencyError(f"column {k} out of range for size {size}")
    gamma = float(state.matrix[k, k])
    if gamma <= 0.0:
        raise SingularGramError("inverse Gram lost positive definiteness")
    g = np.delete(state.matrix[:, k], k)
    rest = np.delete(np.delete(state.matrix, k, axis=0), k, axis=1)
    coeffs = np.delete(state.coeffs, k, axis=0)
    return GramInverse(
        rest - np.outer(g, g) / gamma,
        coeffs - np.outer(g, state.coeffs[k]) / gamma,
    )


def border_gram(
    state: GramInverse,
    column: np.ndarray,
    row: np.ndarray,
    ridge: float,
    out: GramInverse,
) -> GramInverse:
    """State after appending column p to the set S, without refactorizing:
    the counterpart of downdate_gram.

    column is C_Sp followed by C_pp (the new last column of the Gram
    block) and row is C_p: .  Bordering identity: with b = C_Sp,
    u = G b and gamma = C_pp + ridge - b^T u, the new coefficient row is
    r = (C_p: - b^T X) / gamma, G' = [[G + u u^T / gamma, -u / gamma],
    [-u^T / gamma, 1 / gamma]] and X' = [X - u r ; r].  out holds
    buffers with room for the new state, which is written into their
    leading blocks; those may be state's own arrays.
    """
    size = state.matrix.shape[0]
    if column.shape != (size + 1,) or row.shape != state.coeffs.shape[1:]:
        raise ConsistencyError(
            f"border column {column.shape} and row {row.shape} do not match "
            f"a state of size {size} over {state.coeffs.shape[1]} targets"
        )
    cross = column[:size]
    u = state.matrix @ cross
    gamma = float(column[size] + ridge - cross @ u)
    if not gamma > 0.0:
        raise SingularGramError(f"bordered Gram pivot {gamma:.3e} is not positive")
    r = (row - cross @ state.coeffs) / gamma
    matrix = out.matrix[: size + 1, : size + 1]
    coeffs = out.coeffs[: size + 1]
    v = u / gamma
    np.add(state.matrix, np.outer(u, v), out=matrix[:size, :size])
    np.negative(v, out=matrix[:size, size])
    matrix[size, :size] = matrix[:size, size]
    matrix[size, size] = 1.0 / gamma
    np.subtract(state.coeffs, np.outer(u, r), out=coeffs[:size])
    coeffs[size] = r
    if not (np.all(np.isfinite(matrix)) and np.all(np.isfinite(coeffs))):
        raise SingularGramError(f"non-finite bordered state at pivot {gamma:.3e}")
    return GramInverse(matrix, coeffs)


def fp_omp(a: np.ndarray, beta: float) -> SelectionResult:
    """Greedy forward filter selection.

    Works on the columns of a scaled to unit norm (Ahat): repeatedly adds
    the unselected column with the largest total absolute correlation
    against the current residuals of all columns.  Only inner products are
    needed, so the pass runs on C = Ahat^T Ahat, formed once with its ridge:
    with X the ridged least-squares coefficients of every column on the
    selected set S, the correlations are C - C[:, S] X.  X and the inverse
    of the ridged block C_SS are held as a GramInverse and grown by
    border_gram at each pick.  Ties go to the smallest index.  Once every
    unselected column's residual energy (the diagonal of the correlations)
    is at most SPANNED_RESIDUAL, S spans the bank and every score is
    round-off: the remaining picks are the smallest unselected indices, as
    exact ties would give.  The reported coefficients are refit against
    the original unnormalized columns.
    """
    n = a.shape[1]
    t = retained_count(n, beta)
    ahat = a / np.linalg.norm(a, axis=0)
    gram = ahat.T @ ahat
    ridge = default_ridge(ahat)
    selected: list[int] = []
    free = np.ones(n, dtype=bool)
    # the state and the columns C[:, S] grow into buffers made once, and the
    # correlations and a scratch product live in two n x n buffers:
    # temporaries made fresh each step fragment the heap and raise the
    # resident peak of later work in the same process
    grown = GramInverse(np.empty((t, t)), np.empty((t, n)))
    state = GramInverse(grown.matrix[:0, :0], grown.coeffs[:0])
    columns = np.empty((n, t))
    corr = gram.copy()
    work = np.empty_like(gram)
    while True:
        if np.all(np.diagonal(corr)[free] <= SPANNED_RESIDUAL):
            selected += np.flatnonzero(free)[: t - len(selected)].tolist()
            return _finish(a, selected, selected)
        scores = np.abs(corr, out=work).sum(axis=1)
        scores[selected] = -np.inf
        pick = int(np.argmax(scores))
        selected.append(pick)
        free[pick] = False
        if len(selected) == t:
            return _finish(a, selected, selected)
        state = border_gram(state, gram[selected, pick], gram[pick], ridge, grown)
        columns[:, len(selected) - 1] = gram[:, pick]
        np.matmul(columns[:, : len(selected)], state.coeffs, out=work)
        np.subtract(gram, work, out=corr)


def _argmin_tied(scores: np.ndarray, scale: float) -> int:
    """Smallest index among scores within the tie window of the minimum."""
    tied = scores <= scores.min() + TIE_SLACK * scale
    return int(np.argmax(tied))


def _dependent_filters(gram: np.ndarray) -> list[int]:
    """Columns in the span of the independent columns after them, ascending.

    One rank-revealing Cholesky pass over C from the last column down: a
    column is dependent when its Schur pivot is at most DEPENDENT_PIVOT of
    C_jj, and only independent columns are eliminated from the columns
    before it.  The common full-rank case is one LAPACK Cholesky of the
    reversed C whose pivots all pass.
    """
    energy = np.diag(gram)
    try:
        pivots = np.diag(np.linalg.cholesky(gram[::-1, ::-1]))[::-1] ** 2
    except np.linalg.LinAlgError:
        pivots = None
    if pivots is not None and np.all(pivots > DEPENDENT_PIVOT * energy):
        return []
    work = gram.copy()
    dependent: list[int] = []
    for j in range(len(work) - 1, -1, -1):
        pivot = work[j, j]
        if pivot <= DEPENDENT_PIVOT * energy[j]:
            dependent.append(j)
        elif j:
            col = work[:j, j]
            work[:j, :j] -= np.outer(col, col / pivot)
    return dependent[::-1]


def fp_backward(a: np.ndarray, beta: float) -> SelectionResult:
    """Backward filter elimination.

    Removes the filters whose deletion increases the total reconstruction
    error (against all original columns, fixed) the least.  Ties go to the
    smallest original index, so in exact arithmetic the first removals are
    the dependent filters (_dependent_filters), in ascending order: up to
    n - t of them go first in one Gram-space pass.  On the full-rank rest
    the pass repeatedly removes the filter with the smallest
    elimination_scores.  C = A^T A is formed once; the elimination state is
    downdated each step and refactorized from blocks of C only after
    removing a nearly dependent column.  No normalization is applied at any
    point.
    """
    n = a.shape[1]
    t = retained_count(n, beta)
    scale = float(np.einsum("ij,ij->", a, a)) / n
    gram = a.T @ a
    order = _dependent_filters(gram)[: n - t] if n > t else []
    dropped = set(order)
    keep = [j for j in range(n) if j not in dropped]
    ridge = default_ridge(a)
    if len(keep) <= t:
        state = None
    elif order:
        state = gram_inverse(gram[np.ix_(keep, keep)], gram[keep], ridge)
    else:
        # nothing removed: both blocks are C itself, with no copy
        state = gram_inverse(gram, gram, ridge)
    while len(keep) > t:
        k = _argmin_tied(elimination_scores(state), scale)
        removed = keep.pop(k)
        order.append(removed)
        if len(keep) > t:
            vif = state.matrix[k, k] * (gram[removed, removed] + ridge)
            if vif > REFACTOR_VIF:
                state = gram_inverse(gram[np.ix_(keep, keep)], gram[keep], ridge)
            else:
                state = downdate_gram(state, k)
    return _finish(a, keep, order)
