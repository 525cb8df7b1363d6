#!/usr/bin/env python3
"""Self-test of the benchmark itself, on the seconds-long `tiny` workload.

    python3 perfbench/selftest.py

Checks that:
- a seeded run prints every metric named in BENCHMARK.json, with its unit,
  for --trace 0 (end-to-end) and --trace 1 (per module);
- a pruned model file with one weight changed counts as a failed job and
  makes the run incorrect;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
Exits 0 when all hold, 1 otherwise.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import run
import workloads as wl

HERE = Path(__file__).resolve().parent
SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tiny", "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_metrics_printed() -> list[str]:
    errors = []
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = bench(wl.ROOT, trace)
        if proc.returncode != 0:
            errors.append(f"--trace {trace} exited {proc.returncode}: {proc.stderr[-500:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            errors.append(f"--trace {trace}: result keys {sorted(result)}")
        if result.get("correct") is not True or result.get("failed") != 0:
            errors.append(f"--trace {trace}: tiny run not clean: {result}")
        want = {m["name"]: m["unit"] for m in SPEC[group]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            errors.append(f"--trace {trace}: metrics {got} != BENCHMARK.json {want}")
        for name, m in result["metrics"].items():
            if not isinstance(m["value"], float) or not math.isfinite(m["value"]):
                errors.append(f"--trace {trace}: {name} = {m['value']!r}")
    return errors


def check_tampered_output_fails() -> list[str]:
    original = run.check_all

    def tamper_then_check(cli, modelio, records, *rest):
        victim = records[0].out
        doc = json.loads(victim.read_text())
        doc["layers"][0]["weights"][0] += 1e-3
        victim.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
        return original(cli, modelio, records, *rest)

    run.check_all = tamper_then_check
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            result = run.run("tiny", run.DEFAULT_SEED, 0.0, False)  # one unit
    finally:
        run.check_all = original
    want_failed = 1
    if result["correct"] or result["failed"] != want_failed:
        return [f"tampered model: correct={result['correct']} failed={result['failed']}, "
                f"want correct=False failed={want_failed}"]
    return []


def check_fails_without_sources() -> list[str]:
    bare = run.WORK / f"selftest-bare-{time.time_ns()}"
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(wl.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = bench(bare, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or last.startswith("{"):
        return [f"without sources: exit {proc.returncode}, last line {last!r}"]
    return []


def main() -> int:
    errors = []
    for check in (check_metrics_printed, check_tampered_output_fails,
                  check_fails_without_sources):
        found = check()
        print(f"{check.__name__}: {'ok' if not found else 'FAILED'}")
        errors += found
    for e in errors:
        print("  " + e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
