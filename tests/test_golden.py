"""Pinned decisions: the 12 runs of the standard config set and the 7-layer
cases choose the same layers and keep the same filters as recorded.

tests/data/golden_decisions.json is written by scripts/golden_decisions.py,
which also defines the runs.  Status, round numbers, chosen layers and
retained counts must match exactly; finite errors within 1e-4 relative,
about ten times their measured spread across BLAS kernels.
"""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ERROR_RTOL = 1e-4


def _load_script():
    path = ROOT / "scripts" / "golden_decisions.py"
    spec = importlib.util.spec_from_file_location("golden_decisions", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load_script()
RUN_NAMES = [golden.run_name(case, sel, method) for case, sel, method, _ in golden.runs()]


@pytest.fixture(scope="module")
def pinned():
    return json.loads(golden.DATA.read_text())


@pytest.fixture(scope="module")
def found():
    return golden.decisions()


def test_data_file_holds_every_run(pinned):
    assert sorted(pinned) == sorted(RUN_NAMES)
    assert len(RUN_NAMES) == 12


@pytest.mark.parametrize("name", RUN_NAMES)
def test_run_makes_the_pinned_decisions(name, pinned, found):
    want, got = pinned[name], found[name]
    assert got["status"] == want["status"]
    assert len(got["rounds"]) == len(want["rounds"])
    for w, g in zip(want["rounds"], got["rounds"]):
        where = f"{name} round {w['t']}"
        assert (g["t"], g["chosen_layer"], g["retained"]) == (
            w["t"], w["chosen_layer"], w["retained"]
        ), where
        assert len(g["errors"]) == len(w["errors"]), where
        for c, (we, ge) in enumerate(zip(w["errors"], g["errors"])):
            if we is None:
                assert ge is None, f"{where} layer {c + 1}: got {ge}, pinned no score"
            else:
                assert ge == pytest.approx(we, rel=ERROR_RTOL, abs=0), (
                    f"{where} layer {c + 1}"
                )
