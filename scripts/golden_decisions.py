#!/usr/bin/env python3
"""Write the pinned decisions of the standard config set and the 7-layer cases.

The standard config set is `gen --layers 4 --channels 24 --redundancy 0.3
--examples 6 --seed 5`, pruned with `--beta 0.4 --alpha 3` by every
selector under both methods (8 runs).  The 7-layer cases are `gen --layers
7 --channels 16 --redundancy 0.2 --examples 5 --seed 2`, pruned by hbgs and
hbgts with `--beta 0.5 --alpha 2 --floor 3` under both methods (4 runs).
Each run goes through `convprune gen` and `convprune prune --report`, and
its decisions are read from the report as written: the status, and each
round's t, chosen_layer (numbered from 1, null for none), retained counts
and errors (null for no finite score).

tests/test_golden.py runs the same 12 runs and compares them with the data
file.  A change that alters decisions by design regenerates it:

    PYTHONPATH=src python3 scripts/golden_decisions.py
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data" / "golden_decisions.json"
METHODS = ("fp-backward", "fp-omp")

# case name -> (gen flags, selectors, prune flags)
CASES = {
    "standard": (
        ["--layers", "4", "--channels", "24", "--redundancy", "0.3",
         "--examples", "6", "--seed", "5"],
        ("hbgts", "hbgs", "random", "uniform"),
        ["--beta", "0.4", "--alpha", "3"],
    ),
    "deep7": (
        ["--layers", "7", "--channels", "16", "--redundancy", "0.2",
         "--examples", "5", "--seed", "2"],
        ("hbgs", "hbgts"),
        ["--beta", "0.5", "--alpha", "2", "--floor", "3"],
    ),
}


def runs():
    """(case, selector, method, prune flags) of each of the 12 runs."""
    for case, (_, selectors, prune) in CASES.items():
        for selector in selectors:
            for method in METHODS:
                yield case, selector, method, prune


def run_name(case: str, selector: str, method: str) -> str:
    return f"{case}/{selector}/{method}"


def _main_quiet(argv: list[str]) -> int:
    # imported here, so that byte_set.py can choose the checkout first
    from convprune import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def decisions() -> dict:
    """Run name -> {"status", "rounds"}, each round as {"t", "chosen_layer",
    "retained", "errors"} from the run's report."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for case, (gen, _, _) in CASES.items():
            model, data = work / f"{case}.json", work / f"{case}.pkt"
            code = _main_quiet(["gen", *gen, "--out-model", str(model), "--out-data", str(data)])
            if code != 0:
                raise RuntimeError(f"gen of {case} exited {code}")
        for case, selector, method, prune in runs():
            name, report = run_name(case, selector, method), work / f"{len(out)}.report.json"
            code = _main_quiet([
                "prune", "--model", str(work / f"{case}.json"),
                "--data", str(work / f"{case}.pkt"),
                "--selector", selector, "--method", method, *prune,
                "--out", str(work / "pruned.json"), "--report", str(report),
            ])
            if code not in (0, 3):  # reached or partial: a report was written
                raise RuntimeError(f"prune of {name} exited {code}")
            doc = json.loads(report.read_text())
            out[name] = {
                "status": doc["status"],
                "rounds": [
                    {key: r[key] for key in ("t", "chosen_layer", "retained", "errors")}
                    for r in doc["rounds"]
                ],
            }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default=str(DATA), help=f"default {DATA.relative_to(ROOT)}")
    args = p.parse_args(argv)
    found = decisions()
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(found, fh, sort_keys=True, indent=1)
        fh.write("\n")
    rounds = sum(len(run["rounds"]) for run in found.values())
    print(f"golden_decisions: {len(found)} runs, {rounds} rounds -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
