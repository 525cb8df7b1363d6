"""Independent verification suites for the core numerical claims.

Every suite recomputes its expected values from scratch (plain lstsq / full
forward passes), never through the code paths it is checking, and reports
the worst observed deviation over a seeded batch of random instances.  The
suites back the `verify` CLI command and the acceptance tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .compensation import apply_pruning, compensate_output
from .nets import ConvLayer, Network, conv_forward, forward_all_layers
from .search import candidate_for_layer, propagate_tree
from .selection import (
    _argmin_tied,
    default_ridge,
    downdate_gram,
    elimination_scores,
    flatten_filters,
    fp_backward,
    fp_omp,
    gram_inverse,
)


@dataclass
class SuiteResult:
    name: str
    trials: int
    tolerance: float
    max_deviation: float = 0.0
    mismatches: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, trial_seed: int, deviation: float, mismatch: bool = False):
        # a NaN compares False with everything, so it is kept by name
        if math.isnan(deviation) or deviation > self.max_deviation:
            self.max_deviation = deviation
        if mismatch or not math.isfinite(deviation) or deviation > self.tolerance:
            self.mismatches += int(mismatch)
            self.failures.append(trial_seed)

    def line(self) -> str:
        status = "ok" if self.ok else f"FAIL seeds={self.failures[:5]}"
        return (
            f"{self.name}: trials={self.trials} max_deviation={self.max_deviation:.3e} "
            f"tolerance={self.tolerance:.1e} mismatches={self.mismatches} {status}"
        )


def lstsq_error(a: np.ndarray, b: np.ndarray) -> float:
    """Scratch total squared reconstruction error min ||b - a x||_F^2."""
    coef, *_ = np.linalg.lstsq(a, b, rcond=None)
    resid = b - a @ coef
    return float(np.einsum("ij,ij->", resid, resid))


def _well_conditioned(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    while True:
        a = rng.standard_normal((rows, cols))
        if np.linalg.cond(a.T @ a) < 1e8:
            return a


def deletion_suite(seed: int = 20240801, trials: int = 100) -> SuiteResult:
    """Closed-form single-deletion error increases vs scratch refits.

    For random (A, B), the score of every column must equal
    E(A_{-k}, B) - E(A, B) recomputed by plain least squares at ridge 0.
    """
    out = SuiteResult("deletion-oracle", trials, 1e-8)
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        cols = int(rng.integers(4, 17))
        rows = int(rng.integers(max(8, cols + 2), 65))
        a = _well_conditioned(rng, rows, cols)
        b = rng.standard_normal((rows, int(rng.integers(4, 17))))
        scores = elimination_scores(gram_inverse(a.T @ a, a.T @ b, 0.0))
        base = lstsq_error(a, b)
        worst = 0.0
        for k in range(cols):
            increase = lstsq_error(np.delete(a, k, axis=1), b) - base
            worst = max(worst, abs(scores[k] - increase) / max(increase, 1e-300))
        out.record(trial, worst)
    return out


def compensation_suite(seed: int = 20240802, trials: int = 50) -> SuiteResult:
    """Compensated-layer output identity.

    For a layer with 1x1 map g, pruning with compensation must change the
    composite output by exactly the sum of the per-removed-filter residual
    responses scaled by that filter's mixing row, checked pointwise on
    random inputs with the identity activation.
    """
    out = SuiteResult("compensation-oracle", trials, 1e-8)
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 9))
        k = int(rng.choice([1, 2, 3]))
        width = int(rng.integers(1, 9))
        weights = rng.standard_normal((n, m, k, k))
        g = rng.standard_normal((n, width))
        layer = ConvLayer(weights=weights, comp=g, activation="identity")
        n_prune = int(rng.integers(1, min(3, n - 1) + 1))
        a = flatten_filters(layer)
        select = fp_omp if trial % 2 == 0 else fp_backward
        sel = select(a, n_prune / n)
        pruned = apply_pruning(layer, sel, compensate_output(g, sel))
        kept, dropped = list(sel.retained), list(sel.removed)
        # scratch residual filters: each removed filter minus its
        # reconstruction from the retained ones
        epsilons = (a[:, dropped] - a[:, kept] @ sel.coeffs[:, dropped]).T
        worst = 0.0
        for _ in range(5):
            x = rng.standard_normal((m, 5, 5))
            z = conv_forward(layer, x)
            z_pruned = conv_forward(pruned, x)
            # scratch RHS: residual filters convolved with x, mixed by g rows
            rhs = np.zeros_like(z)
            for r, removed in enumerate(dropped):
                eps_layer = ConvLayer(
                    weights=epsilons[r].reshape(1, m, k, k),
                    activation="identity",
                )
                response = conv_forward(eps_layer, x)[0]
                rhs += response[None, :, :] * g[removed][:, None, None]
            scale = max(np.abs(z).max(), np.abs(z_pruned).max(), 1.0)
            worst = max(worst, np.abs((z - z_pruned) - rhs).max() / scale)
        out.record(trial, worst)
    return out


def omp_suite(seed: int = 20240803, trials: int = 30) -> SuiteResult:
    """Greedy forward selection vs the exhaustive best subset (16x8, keep 4).

    The greedy residual must never beat the optimum and must stay within a
    regression bound of 2.0x optimal, frozen from a one-time measurement of
    this suite (observed max 1.62 over the default 30 trials).
    """
    from itertools import combinations

    out = SuiteResult("omp-oracle", trials, 2.0)
    out.max_deviation = 1.0
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        a = rng.standard_normal((16, 8))
        sel = fp_omp(a, beta=0.5)
        resid = a - a[:, list(sel.retained)] @ sel.coeffs
        greedy = float(np.einsum("ij,ij->j", resid, resid).sum())
        best = min(
            lstsq_error(a[:, list(subset)], a) for subset in combinations(range(8), 4)
        )
        ratio = greedy / best
        out.record(trial, ratio, mismatch=ratio < 1.0 - 1e-9)
    return out


def backward_suite(seed: int = 20240804, trials: int = 50) -> SuiteResult:
    """Stepwise optimality and downdate accuracy of backward elimination.

    Replays every elimination against a brute-force oracle that refits the
    least squares from scratch for each possible removal (same deterministic
    tie rule), counting mismatches, and compares the downdated Gram inverse
    against a fresh inversion after every step.
    """
    out = SuiteResult("backward-oracle", trials, 1e-8)
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        n = int(rng.integers(4, 11))
        rows = int(rng.integers(n + 2, 41))
        a = _well_conditioned(rng, rows, n)
        t = int(rng.integers(1, n))
        sel = fp_backward(a, beta=1.0 - t / n)
        scale = float(np.einsum("ij,ij->", a, a)) / n
        keep = list(range(n))
        gram, ridge = a.T @ a, default_ridge(a)
        state = gram_inverse(gram, gram, ridge)
        mismatch = False
        worst = 0.0
        for step, removed in enumerate(sel.order):
            errors = np.array(
                [
                    lstsq_error(a[:, [c for c in keep if c != keep[k]]], a)
                    for k in range(len(keep))
                ]
            )
            expect = keep[_argmin_tied(errors, scale)]
            if expect != removed:
                mismatch = True
                break
            k = keep.index(removed)
            keep.pop(k)
            if len(keep) >= 1 and step < len(sel.order) - 1:
                state = downdate_gram(state, k)
                a_sub = a[:, keep]
                fresh = gram_inverse(a_sub.T @ a_sub, a_sub.T @ a, ridge)
                denom = max(np.abs(fresh.matrix).max(), 1e-300)
                worst = max(
                    worst, np.abs(state.matrix - fresh.matrix).max() / denom
                )
        out.record(trial, worst, mismatch=mismatch)
    return out


def tree_suite(
    seed: int = 20240805, trials: int = 10, n_examples: int = 4
) -> SuiteResult:
    """Composite tree pass vs one full forward pass per candidate.

    Every hypothesis final output from a single propagate_tree call must
    match the final output of the network with that one layer swapped for
    its candidate, recomputed naively.
    """
    out = SuiteResult("tree-oracle", trials, 1e-10)
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        depth = int(rng.integers(2, 7))
        n = int(rng.integers(3, 9))
        k = int(rng.choice([1, 3]))
        layers = []
        m = n
        for _ in range(depth):
            layers.append(
                ConvLayer(
                    rng.standard_normal((n, m, k, k)),
                    activation=str(rng.choice(["identity", "relu"])),
                )
            )
            m = n
        net = Network(layers)
        candidates: list[ConvLayer | None] = []
        for c in range(depth):
            if rng.random() < 0.8:
                n_prune = int(rng.integers(1, 3))
                candidates.append(
                    candidate_for_layer(net.layers[c], n_prune, "backward")
                )
            else:
                candidates.append(None)
        if all(c is None for c in candidates):
            candidates[0] = candidate_for_layer(net.layers[0], 1, "backward")
        worst = 0.0
        for _ in range(n_examples):
            x = rng.standard_normal((n, 5, 5))
            tree = propagate_tree(net, candidates, x)
            plain = forward_all_layers(net, x)[-1]
            denom = max(float(np.linalg.norm(plain)), 1e-300)
            worst = max(
                worst, float(np.linalg.norm(tree.chain[-1] - plain)) / denom
            )
            for c, cand in enumerate(candidates):
                if cand is None:
                    continue
                swapped = net.with_layer(c, cand)
                naive = forward_all_layers(swapped, x)[-1]
                dev = float(np.linalg.norm(tree.columns[c][-1] - naive))
                worst = max(worst, dev / max(float(np.linalg.norm(naive)), 1e-300))
        out.record(trial, worst)
    return out


SUITES = {
    "backward-oracle": backward_suite,
    "compensation-oracle": compensation_suite,
    "deletion-oracle": deletion_suite,
    "omp-oracle": omp_suite,
    "tree-oracle": tree_suite,
}
