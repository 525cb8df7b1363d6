"""The verification suites themselves: bookkeeping and reduced-trial runs."""
from __future__ import annotations

import numpy as np
import pytest

from convprune import oracles
from convprune.oracles import (
    SuiteResult,
    backward_suite,
    compensation_suite,
    deletion_suite,
    lstsq_error,
    omp_suite,
    tree_suite,
)


def test_suite_result_bookkeeping():
    r = SuiteResult("demo", trials=3, tolerance=1e-6)
    assert r.ok
    r.record(0, 1e-9)
    assert r.ok and r.max_deviation == 1e-9
    r.record(1, 1e-3)
    assert not r.ok
    assert r.failures == [1]
    assert "FAIL" in r.line()

    r2 = SuiteResult("demo", trials=2, tolerance=1e-6)
    r2.record(5, 0.0, mismatch=True)
    assert r2.mismatches == 1
    assert not r2.ok
    assert "demo:" in r2.line()


def test_suite_result_fails_a_nan_deviation():
    r = SuiteResult("demo", trials=3, tolerance=1e-6)
    r.record(0, 1e-9)
    r.record(1, float("nan"))
    r.record(2, 1e-9)  # a later finite deviation does not hide the NaN
    assert not r.ok
    assert r.failures == [1]
    assert "max_deviation=nan" in r.line() and "FAIL" in r.line()


def test_lstsq_error_matches_manual(rng):
    a = rng.standard_normal((12, 4))
    b = rng.standard_normal((12, 3))
    coef, *_ = np.linalg.lstsq(a, b, rcond=None)
    want = float(np.sum((b - a @ coef) ** 2))
    assert lstsq_error(a, b) == pytest.approx(want, rel=1e-12)


def test_suites_registry():
    assert sorted(oracles.SUITES) == [
        "backward-oracle",
        "compensation-oracle",
        "deletion-oracle",
        "omp-oracle",
        "tree-oracle",
    ]


@pytest.mark.parametrize(
    "suite,kwargs",
    [
        (deletion_suite, {"trials": 10}),
        (compensation_suite, {"trials": 10}),
        (omp_suite, {"trials": 8}),
        (backward_suite, {"trials": 10}),
        (tree_suite, {"trials": 3}),
    ],
)
def test_suites_pass_at_reduced_trials(suite, kwargs):
    result = suite(**kwargs)
    assert result.ok, result.line()
    assert result.trials == kwargs["trials"]


def test_suites_are_seed_sensitive():
    a = deletion_suite(seed=1, trials=5)
    b = deletion_suite(seed=2, trials=5)
    assert a.ok and b.ok
    assert a.max_deviation != b.max_deviation


def test_compensation_oracle_catches_a_broken_map(monkeypatch):
    # retained rows alone: the removed filters are dropped, not folded in
    monkeypatch.setattr(oracles, "compensate_output", lambda g, sel: g[list(sel.retained)])
    result = compensation_suite(trials=5)
    assert not result.ok
    assert result.failures == list(range(5))
