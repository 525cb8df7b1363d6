"""Benchmark workloads and the fresh-process set-up that builds their inputs.

A workload is a set of seeded inputs (one or more models and one dataset)
and a *unit*: the list of `convprune prune` jobs run one after another.
The benchmark repeats the unit in a closed loop, one job at a time.

Run as a script, this module is the set-up child: it imports convprune
from the checkout's `src`, builds one workload's inputs with `synth`,
writes them with `modelio`, and prints one JSON line with its timings.
The parent times the child from spawn to "ready", which is `setup_s`.

    python3 perfbench/workloads.py --workload tree-wide --seed 0 --out DIR --spawned-at T
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# BLAS/OpenMP thread variables, all set to BLAS_THREADS and recorded in the
# fingerprint.  One thread: on 2 shared cores, OpenBLAS threads that wait on
# each other stall whenever anything else runs (jobs slowed up to 8x when two
# 2-thread processes overlapped), while a single thread only loses its share.
BLAS_THREADS = 1
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_threads() -> None:
    """Run BLAS/OpenMP with BLAS_THREADS threads.  Call before importing numpy."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_convprune():
    """Import convprune from this checkout's `src`, never from elsewhere."""
    init = SRC / "convprune" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no convprune sources at {init}")
    sys.path.insert(0, str(SRC))
    import convprune

    if Path(convprune.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported convprune from {convprune.__file__}")
    return convprune


@dataclass(frozen=True)
class Job:
    """One `convprune prune` invocation on one of the workload's models."""

    selector: str
    method: str
    model: str  # key into Workload.models
    beta: float
    alpha: int = 5

    @property
    def kind(self) -> str:
        return f"{self.selector}/{self.method}/{self.model}"

    def argv(self, inputs: Path, out: Path, report: Path) -> list[str]:
        return [
            "prune",
            "--model", str(inputs / f"{self.model}.json"),
            "--data", str(inputs / "data.pkt"),
            "--selector", self.selector,
            "--method", self.method,
            "--beta", repr(self.beta),
            "--alpha", str(self.alpha),
            "--out", str(out),
            "--report", str(report),
        ]


@dataclass(frozen=True)
class Workload:
    """Seeded inputs and the unit of jobs run on them.

    models pairs each model name with its planted redundancy; every model has
    `layers` relu layers of `channels` filters, the first reading
    `in_channels` inputs.  The dataset is `examples` inputs of
    spatial x spatial.  planted names the models whose redundant filters
    an exact selector must recover (rel_error <= PLANTED_TOL for fp-omp).
    """

    layers: int
    channels: int
    in_channels: int
    examples: int
    spatial: int
    models: tuple[tuple[str, float], ...]
    jobs: tuple[Job, ...]
    planted: tuple[str, ...] = ()


PLANTED_TOL = 1e-6

WORKLOADS = {
    # hbgts tree pass on wide convs over small images: most selector time
    # is conv inside propagate_tree.  Full-rank banks, because planted ones
    # make fp_backward raise SingularGramError on most seeds.
    "tree-wide": Workload(
        layers=4, channels=128, in_channels=128, examples=8, spatial=8,
        models=(("r0", 0.0),),
        jobs=(Job("hbgts", "fp-backward", "r0", beta=0.35, alpha=5),),
    ),
    # hbgs: conv on larger images and more examples; no tree pass and
    # almost no selection, so it is the control for those layers.
    "layerwise-deep": Workload(
        layers=6, channels=32, in_channels=32, examples=32, spatial=16,
        models=(("r0", 0.0),),
        jobs=(Job("hbgs", "fp-backward", "r0", beta=0.35, alpha=4),),
    ),
    # uniform: selection and modelio dominate and no conv is timed.  The
    # planted (rank-deficient) bank makes fp-backward raise
    # SingularGramError at this code; that defect is meant to show.
    "select-bank": Workload(
        layers=2, channels=256, in_channels=64, examples=8, spatial=8,
        models=(("r0", 0.0), ("r50", 0.5)),
        jobs=(
            Job("uniform", "fp-backward", "r0", beta=0.5),
            Job("uniform", "fp-omp", "r0", beta=0.5),
            Job("uniform", "fp-backward", "r50", beta=0.5),
            Job("uniform", "fp-omp", "r50", beta=0.5),
        ),
        planted=("r50",),
    ),
    # Not in BENCHMARK.json: a seconds-long run for perfbench/selftest.py.
    "tiny": Workload(
        layers=3, channels=8, in_channels=4, examples=4, spatial=6,
        models=(("r0", 0.0), ("r50", 0.5)),
        jobs=(
            Job("hbgts", "fp-backward", "r0", beta=0.3, alpha=2),
            Job("hbgs", "fp-omp", "r0", beta=0.3, alpha=2),
            Job("uniform", "fp-omp", "r50", beta=0.5),
        ),
        planted=("r50",),
    ),
}


def build_inputs(workload: Workload, seed: int, out: Path) -> dict:
    """Generate and write a workload's models and dataset; return timings."""
    import convprune.modelio as modelio
    from convprune import synth

    t0 = time.perf_counter()
    nets = {
        name: synth.planted_network(
            workload.layers, workload.channels, 3, redundancy, seed,
            in_channels=workload.in_channels, activation="relu",
        )[0]
        for name, redundancy in workload.models
    }
    data = synth.make_dataset(
        workload.examples, workload.in_channels, workload.spatial, seed
    )
    t1 = time.perf_counter()
    out.mkdir(parents=True, exist_ok=True)
    for name, net in nets.items():
        modelio.write_model(net, data.shape[1:], out / f"{name}.json")
    modelio.write_tensor(data, out / "data.pkt")
    t2 = time.perf_counter()
    return {"synth_s": t1 - t0, "write_s": t2 - t1}


def _child_main(argv=None) -> int:
    p = argparse.ArgumentParser(description="build one workload's inputs")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="CLOCK_MONOTONIC reading of the parent just before spawning")
    args = p.parse_args(argv)
    pin_threads()
    import_convprune()
    timings = build_inputs(WORKLOADS[args.workload], args.seed, Path(args.out))
    timings["setup_s"] = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    print(json.dumps(timings))
    return 0


if __name__ == "__main__":
    sys.exit(_child_main())
