#!/usr/bin/env python3
"""End-to-end and per-module benchmark of `convprune prune`.

    python3 perfbench/run.py --workload tree-wide --seed 0 --seconds 36 --trace 0

One run, in one process:

1. sets up the workload's inputs SETUP_REPEATS times, each in a fresh
   process (perfbench/workloads.py), and reports the median as setup_s;
2. runs the workload's unit of `convprune prune` jobs through
   `convprune.cli.main`, one job at a time, in a closed loop, starting a
   unit only while it is expected to end within --seconds;
3. checks every job's output outside the timed region;
4. prints an environment fingerprint, a readable summary, and as the last
   line one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates traced and
untraced units, wraps the public functions of each convprune module
(perfbench/tracing.py), and reports the per-module metrics, averaged per
traced unit, plus the tracing overhead.  Results whose fingerprints differ
are not comparable.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads as wl

WORK = wl.ROOT / ".bench_work"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60
DEFAULT_SEED = 0
# Tolerance on rel_error against perfbench/expected.json (seed 0): relative
# for values of at least 1, absolute below, where planted errors sit near 0.
EXPECTED_RTOL = 1e-6

END_TO_END_UNITS = {
    "setup_s": "s",
    "prune_s.p50": "s",
    "round_ms": "ms",
    "filters_per_s": "1/s",
    "rel_error": "1",
    "completed_frac": "ratio",
    "peak_rss_mb": "MB",
}


def fingerprint() -> dict:
    """What the numbers depend on besides the code: interpreter, BLAS, cores, threads."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "nproc": wl.nproc(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "threads": {var: os.environ.get(var) for var in wl.THREAD_VARS},
    }


def _tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def setup_inputs(name: str, seed: int, workdir: Path) -> tuple[Path, list[dict]]:
    """Build the inputs SETUP_REPEATS times in fresh processes; keep the first copy."""
    child = Path(__file__).resolve().parent / "workloads.py"
    timings, digests = [], []
    for i in range(SETUP_REPEATS):
        out = workdir / f"setup{i}"
        spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, str(child), "--workload", name, "--seed", str(seed),
             "--out", str(out), "--spawned-at", repr(spawned_at)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up failed:\n{proc.stderr}")
        timings.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        digests.append(_tree_digest(out))
        if i:
            shutil.rmtree(out)
    if len(set(digests)) != 1:
        raise SystemExit("perfbench: set-up is not deterministic for this seed")
    return workdir / "setup0", timings


@dataclass
class JobRecord:
    job: wl.Job
    out: Path
    report: Path
    traced: bool
    rc: int | None = None  # None: the CLI raised instead of returning a code
    wall_s: float = 0.0
    select_s: float | None = None  # time inside run_selector, if it returned
    rounds: int = 0
    digest: str | None = None  # network_digest of what run_selector returned
    retained: tuple[int, ...] = ()
    message: str = ""
    miss: str | None = None  # why the output check failed, if it did

    @property
    def completed(self) -> bool:
        return self.rc == 0 and self.miss is None


class SelectorProbe:
    """Stands in for cli.run_selector: times the call and keeps its result."""

    def __init__(self, original):
        self.original = original
        self.last = None

    def __call__(self, *args, **kwargs):
        t0 = time.perf_counter()
        result = self.original(*args, **kwargs)
        self.last = (time.perf_counter() - t0, result)
        return result


def run_job(cli, probe: SelectorProbe, job: wl.Job, inputs: Path, jobdir: Path,
            index: int, traced: bool) -> JobRecord:
    rec = JobRecord(job, jobdir / f"{index}.model.json",
                    jobdir / f"{index}.report.json", traced)
    argv = job.argv(inputs, rec.out, rec.report)
    sink = io.StringIO()
    probe.last = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rec.rc = cli.main(argv)
    except Exception:  # a crash is a failed job, not the end of the benchmark
        sink.write(traceback.format_exc())
    rec.wall_s = time.perf_counter() - t0
    lines = sink.getvalue().strip().splitlines()
    rec.message = lines[-1] if lines else ""
    if probe.last is not None:
        rec.select_s, result = probe.last
        rec.rounds = len(result.rounds)
        rec.digest = network_digest(result.network)
        rec.retained = tuple(layer.out_channels for layer in result.network.layers)
    return rec


def measure(cli, workload: wl.Workload, inputs: Path, jobdir: Path,
            seconds: float, trace: bool):
    """Closed loop over units, started while expected to end within `seconds`.

    In trace mode every other unit is traced, and at least one of each runs.
    """
    probe = SelectorProbe(cli.run_selector)
    tracer = tracing.Tracer()
    records: list[JobRecord] = []
    unit_s: list[float] = []
    cli.run_selector = probe
    try:
        start = time.perf_counter()
        while len(unit_s) < (2 if trace else 1) or (
            time.perf_counter() - start + statistics.median(unit_s) <= seconds
        ):
            traced = trace and len(unit_s) % 2 == 0
            t0 = time.perf_counter()
            with tracer if traced else contextlib.nullcontext():
                for job in workload.jobs:
                    records.append(run_job(cli, probe, job, inputs, jobdir,
                                           len(records), traced))
            unit_s.append(time.perf_counter() - t0)
    finally:
        cli.run_selector = probe.original
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return records, unit_s, tracer, peak_rss_mb


def network_digest(net) -> str:
    """Hash of every layer's activation, weights and comp map, exact to the bit."""
    h = hashlib.sha256()
    for layer in net.layers:
        h.update(layer.activation.encode())
        for arr in (layer.weights, layer.comp):
            h.update(b"none" if arr is None else repr(arr.shape).encode())
            if arr is not None:
                h.update(arr.astype("<f8").tobytes())
    return h.hexdigest()


def _retained_uniform(n: int, beta: float) -> int:
    return min(max(int((1.0 - beta) * n + 0.5), 1), n)


def evaluate(cli, modelio, rec: JobRecord, inputs: Path) -> dict:
    """Read a job's outputs back and measure them with `convprune eval`."""
    report = modelio.read_report(rec.report)
    net, _ = modelio.read_model(rec.out)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        rc = cli.main(["eval", "--model", str(rec.out), "--data", str(inputs / "data.pkt"),
                       "--reference-model", str(inputs / f"{rec.job.model}.json")])
    if rc != 0:
        raise ValueError(f"convprune eval exited {rc}")
    payload = json.loads(sink.getvalue().strip().splitlines()[-1])
    return {
        "status": report.status,
        "digest": network_digest(net),
        "rel_error": float(payload["relative_error"]),
        "reduction": 1.0 - payload["params"] / payload["reference_params"],
        "retained": [layer.out_channels for layer in net.layers],
    }


def check_job(rec: JobRecord, ev: dict, workload: wl.Workload,
              expected: dict | None) -> str | None:
    """The first reason this completed job's output is wrong, or None."""
    job = rec.job
    if ev["status"] != "reached":
        return f"status {ev['status']}"
    if ev["digest"] != rec.digest:
        return "model file differs from the network run_selector returned"
    if job.selector == "uniform":
        want = _retained_uniform(workload.channels, job.beta)
        if any(r != want for r in ev["retained"]):
            return f"retained {ev['retained']}, uniform beta={job.beta} wants {want} per layer"
    elif ev["reduction"] < job.beta:
        return f"parameter reduction {ev['reduction']:.4f} < beta {job.beta}"
    if job.model in workload.planted and job.method == "fp-omp" \
            and not ev["rel_error"] <= wl.PLANTED_TOL:
        return f"planted rel_error {ev['rel_error']:.3e} > {wl.PLANTED_TOL}"
    # A job kind that failed when the values were recorded has none yet.
    want = (expected or {}).get(job.kind)
    if want is not None:
        if ev["retained"] != want["retained"]:
            return f"retained {ev['retained']} != recorded {want['retained']}"
        tol = EXPECTED_RTOL * max(abs(want["rel_error"]), 1.0)
        if abs(ev["rel_error"] - want["rel_error"]) > tol:
            return f"rel_error {ev['rel_error']!r} != recorded {want['rel_error']!r}"
    return None


def check_all(cli, modelio, records: list[JobRecord], workload: wl.Workload,
              inputs: Path, expected: dict | None) -> dict:
    """Check every completed job; repeats of a job must match its first run bytewise."""
    first: dict[str, tuple[JobRecord, dict | None, str | None]] = {}
    for rec in records:
        if rec.rc != 0:
            continue
        kind = rec.job.kind
        if kind not in first:
            try:
                ev = evaluate(cli, modelio, rec, inputs)
            except (ValueError, OSError, KeyError) as exc:
                ev, miss = None, f"output unreadable: {exc}"
            else:
                miss = check_job(rec, ev, workload, expected)
            first[kind] = (rec, ev, miss)
            rec.miss = miss
        else:
            ref, ev, miss = first[kind]
            same = all(
                a.exists() and b.exists() and a.read_bytes() == b.read_bytes()
                for a, b in ((rec.out, ref.out), (rec.report, ref.report))
            )
            rec.miss = miss if same else "output differs from an identical earlier job"
            if rec.miss is None and ev["digest"] != rec.digest:
                rec.miss = "model file differs from the network run_selector returned"
    return {k: v[1] for k, v in first.items() if v[2] is None}


def _median(values, fallback):
    return statistics.median(values) if values else fallback


def end_to_end(records, workload, setups, peak_rss_mb, evaluations) -> dict:
    done = [r for r in records if r.completed]
    walls = [r.wall_s for r in (done or records)]
    per_round = [r.select_s * 1e3 / r.rounds for r in done if r.rounds]
    # Per unit: filters removed by its completed jobs over the wall time of
    # all its jobs, failed ones included; the median unit is reported.
    n_jobs = len(workload.jobs)
    units = [records[i:i + n_jobs] for i in range(0, len(records), n_jobs)]
    total_filters = workload.layers * workload.channels
    filter_rates = [
        sum(total_filters - sum(r.retained) for r in unit if r.completed)
        / sum(r.wall_s for r in unit)
        for unit in units
    ]
    return {
        "setup_s": statistics.median(t["setup_s"] for t in setups),
        "prune_s.p50": statistics.median(walls),
        "round_ms": _median(per_round, statistics.median(walls) * 1e3),
        "filters_per_s": statistics.median(filter_rates),
        "rel_error": sum(ev["rel_error"] for ev in evaluations.values()),
        "completed_frac": len(done) / len(records),
        "peak_rss_mb": peak_rss_mb,
    }


def dgemm_gmacs(size: int = 512, repeats: int = 7) -> float:
    """In-process dgemm ceiling: median GMAC/s of size^3 matrix products."""
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((size, size)), rng.standard_normal((size, size))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return size**3 / statistics.median(times) / 1e9


def per_layer(records, tracer, setups, unit_s) -> tuple[dict, dict]:
    """Per-module metrics per traced unit; the second dict holds their units."""
    traced = [r for r in records if r.traced]
    units = (len(unit_s) + 1) // 2  # units 0, 2, 4, ... were traced
    s = tracer.get
    conv, tree = s("nets.conv"), s("search.tree")
    hbgs, refs = s("search.hbgs_score"), s("search.refs")
    cand, lookup = s("search.candidate"), s("search.candidate_lookup")
    back, omp = s("selection.backward"), s("selection.omp")
    comp, stats = s("compensation"), s("metrics.count_stats")
    rm, wm, wr, rd = (s(f"modelio.{n}") for n in
                      ("read_model", "write_model", "write_report", "read_dataset"))
    written = wm.extra["bytes"] + wr.extra["bytes"]
    write_s = wm.total_s + wr.total_s
    done_t = [r.wall_s for r in traced if r.completed]
    done_u = [r.wall_s for r in records if not r.traced and r.completed]
    p50_t = _median(done_t, 0.0)
    rows = [
        ("nets.conv_calls", conv.calls / units, "count"),
        ("nets.conv_s", conv.total_s / units, "s"),
        ("nets.conv_macs", conv.extra["macs"] / units, "count"),
        ("nets.conv_gmacs",
         conv.extra["macs"] / conv.total_s / 1e9 if conv.total_s else 0.0, "GMAC/s"),
        ("nets.dgemm_gmacs", dgemm_gmacs(), "GMAC/s"),
        ("search.rounds", sum(r.rounds for r in traced) / units, "count"),
        ("search.tree_s", tree.total_s / units, "s"),
        ("search.tree_self_s", tree.self_s / units, "s"),
        ("search.hbgs_score_s", hbgs.total_s / units, "s"),
        ("search.hbgs_score_self_s", hbgs.self_s / units, "s"),
        ("search.refs_s", refs.total_s / units, "s"),
        ("search.candidate_builds", cand.calls / units, "count"),
        ("search.candidate_hit_ratio",
         1.0 - lookup.extra["builds"] / lookup.extra["lookups"]
         if lookup.extra["lookups"] else 0.0, "ratio"),
        ("search.candidate_s", cand.total_s / units, "s"),
        ("selection.backward_calls", back.calls / units, "count"),
        ("selection.backward_s", back.total_s / units, "s"),
        ("selection.eliminations", back.extra["eliminations"] / units, "count"),
        ("selection.backward_ms_per_elim",
         back.total_s * 1e3 / back.extra["eliminations"] if back.extra["eliminations"] else 0.0,
         "ms"),
        ("selection.refactorizations", back.extra["refactorizations"] / units, "count"),
        ("selection.failures",
         (back.errors["SingularGramError"] + omp.errors["SingularGramError"]) / units, "count"),
        ("selection.omp_calls", omp.calls / units, "count"),
        ("selection.omp_s", omp.total_s / units, "s"),
        ("compensation.calls", comp.calls / units, "count"),
        ("compensation.s", comp.total_s / units, "s"),
        ("metrics.count_stats_calls", stats.calls / units, "count"),
        ("metrics.count_stats_s", stats.total_s / units, "s"),
        ("modelio.read_model_s", rm.total_s / units, "s"),
        ("modelio.write_model_s", wm.total_s / units, "s"),
        ("modelio.write_report_s", wr.total_s / units, "s"),
        ("modelio.read_dataset_s", rd.total_s / units, "s"),
        ("modelio.bytes_written", written / units, "B"),
        ("modelio.write_mb_per_s", written / write_s / 1e6 if write_s else 0.0, "MB/s"),
        ("synth.s", statistics.median(t["synth_s"] for t in setups), "s"),
        ("trace.prune_s.p50", p50_t, "s"),
        ("trace.overhead_s", p50_t - _median(done_u, p50_t), "s"),
    ]
    return {n: v for n, v, _ in rows}, {n: u for n, _, u in rows}


def tail_percentile(samples: list[float]):
    """Highest of p90/p99/p99.9 with at least ten samples beyond it, or None."""
    for permille in (999, 990, 900):
        if len(samples) * (1000 - permille) >= 10 * 1000:
            cuts = statistics.quantiles(samples, n=1000, method="inclusive")
            return permille / 10, cuts[permille - 1]
    return None


def summarize(name, seed, records, unit_s, evaluations, values):
    print(f"workload {name} seed {seed}: {len(unit_s)} units in "
          f"{sum(unit_s):.2f} s, {len(records)} jobs")
    kinds = {}
    for r in records:
        k = kinds.setdefault(r.job.kind, {"n": 0, "ok": 0, "why": set()})
        k["n"] += 1
        k["ok"] += r.completed
        if not r.completed:
            k["why"].add(r.miss or f"exit {r.rc}: {r.message}")
    for kind, k in kinds.items():
        ev = evaluations.get(kind)
        extra = f" rel_error={ev['rel_error']!r} retained={ev['retained']}" if ev else ""
        print(f"  job {kind}: {k['ok']}/{k['n']} completed{extra}")
        for why in sorted(k["why"]):
            print(f"    failed: {why}")
    done = [r.wall_s for r in records if r.completed]
    tail = tail_percentile(done)
    print(f"  prune_s samples: {len(done)} completed jobs"
          + (f", p{tail[0]:g} = {tail[1]:.4f} s" if tail else
             ", too few for a tail percentile (needs >= 10 beyond it)"))
    failed = sum(not r.completed for r in records)
    print(f"  fail_frac = {failed}/{len(records)} = {failed / len(records):.4f}")
    for metric, (value, unit) in values.items():
        print(f"  {metric:32s} {value:.6g} {unit}")


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    workload = wl.WORKLOADS[name]
    wl.pin_threads()
    wl.import_convprune()
    import convprune.cli as cli
    import convprune.modelio as modelio

    env = fingerprint()
    env["env_id"] = hashlib.sha256(json.dumps(env, sort_keys=True).encode()).hexdigest()[:12]
    print("env " + json.dumps(env, sort_keys=True))

    expected = None
    if seed == DEFAULT_SEED:
        expected_all = json.loads((Path(__file__).parent / "expected.json").read_text())
        expected = expected_all.get(name, {})
    workdir = WORK / f"{name}-s{seed}-t{int(trace)}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        inputs, setups = setup_inputs(name, seed, workdir)
        jobdir = workdir / "jobs"
        jobdir.mkdir()
        records, unit_s, tracer, peak_rss_mb = measure(
            cli, workload, inputs, jobdir, seconds, trace)
        evaluations = check_all(cli, modelio, records, workload, inputs, expected)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        values, units = per_layer(records, tracer, setups, unit_s)
    else:
        values = end_to_end(records, workload, setups, peak_rss_mb, evaluations)
        units = END_TO_END_UNITS
    metrics = {k: (float(v), units[k]) for k, v in values.items()}
    summarize(name, seed, records, unit_s, evaluations, metrics)
    return {
        "correct": all(r.miss is None for r in records),
        "attempted": len(records),
        "failed": sum(not r.completed for r in records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
