"""Command-line interface: gen, prune, eval, verify.

Exit codes: 0 success, 1 usage error, 2 file/parse error, a model that
prune cannot select from (an all-zero filter) or one that eval cannot
compare with its reference (another final width), 3 the pruning run
stopped before reaching its budget, 4 a verification suite exceeded its
tolerance, 5 a numerical failure (singular or non-finite linear algebra).
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import modelio, oracles
from .metrics import count_stats, reduction_report
from .nets import DimensionError
from .search import DRIVERS, PruneConfig, relative_output_error, run_selector
from .selection import ConsistencyError, flatten_filters
from .synth import make_dataset, planted_network

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FILE = 2
EXIT_PARTIAL = 3
EXIT_VERIFY = 4
EXIT_NUMERIC = 5

GEN_SPATIAL = 8  # spatial size of generated calibration data


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(f"{self.prog}: error: {message}")


def _int_at_least(low: int):
    """argparse type: an integer no smaller than low."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value: 'x'"
    return parse


_SEED = _int_at_least(0)


def build_parser() -> _Parser:
    parser = _Parser(prog="convprune", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True

    gen = sub.add_parser("gen", help="generate a planted-redundancy model and data")
    gen.add_argument("--layers", type=int, default=4)
    gen.add_argument("--channels", type=int, default=8)
    gen.add_argument("--kernel", type=int, default=3)
    gen.add_argument(
        "--redundancy",
        type=str,
        default="0.5",
        help="fraction of exactly-redundant filters per layer; "
        "a single value or comma-separated per-layer values",
    )
    gen.add_argument("--examples", type=int, default=8)
    gen.add_argument("--seed", type=_SEED, default=0)
    gen.add_argument("--out-model", required=True)
    gen.add_argument("--out-data", required=True)

    prune = sub.add_parser("prune", help="prune a model against calibration data")
    prune.add_argument("--model", required=True)
    prune.add_argument("--data", required=True)
    prune.add_argument(
        "--method", choices=["fp-omp", "fp-backward"], default="fp-backward"
    )
    prune.add_argument("--selector", choices=list(DRIVERS), default="hbgts")
    prune.add_argument("--alpha", type=int, default=5)
    prune.add_argument("--beta", type=float, required=True)
    prune.add_argument("--floor", type=int, default=1)
    prune.add_argument("--seed", type=_SEED, default=0)
    prune.add_argument("--out", required=True)
    prune.add_argument("--report", default=None)

    ev = sub.add_parser("eval", help="measure a model against a reference")
    ev.add_argument("--model", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument(
        "--reference-model",
        default=None,
        help="defaults to --model (relative error 0.0)",
    )

    verify = sub.add_parser("verify", help="run the numerical oracle suites")
    verify.add_argument(
        "--suite",
        choices=sorted(oracles.SUITES) + ["all"],
        default="all",
    )
    verify.add_argument("--seed", type=_SEED, default=None)
    verify.add_argument("--trials", type=_int_at_least(1), default=None)
    return parser


def _parse_redundancy(text: str):
    parts = [p for p in text.split(",") if p.strip()]
    values = [float(p) for p in parts]
    if not values:
        raise ValueError("empty redundancy list")
    return values[0] if len(values) == 1 else values


def cmd_gen(args) -> int:
    redundancy = _parse_redundancy(args.redundancy)
    net, manifest = planted_network(
        args.layers, args.channels, args.kernel, redundancy, args.seed
    )
    data = make_dataset(args.examples, net.in_channels, GEN_SPATIAL, args.seed)
    input_shape = (net.in_channels, GEN_SPATIAL, GEN_SPATIAL)
    modelio.write_model(net, input_shape, args.out_model)
    modelio.write_tensor(data, args.out_data)
    manifest_path = f"{args.out_model}.manifest.json"
    with open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")
    stats = count_stats(net, input_shape)
    print(
        f"gen: {args.layers} layers x {args.channels} channels, kernel {args.kernel}, "
        f"{stats.params} params; model -> {args.out_model}, data -> {args.out_data}, "
        f"manifest -> {manifest_path}"
    )
    return EXIT_OK


def _signed_change(before: int, after: int, drop_pct: float) -> str:
    """A count's change as the prune line prints it: the rounded drop
    percentage with the sign of the change."""
    if after < before:
        return f"-{drop_pct}%"
    if after > before:
        return f"+{-drop_pct}%"
    return "0.0%"


def cmd_prune(args) -> int:
    net, input_shape = modelio.read_model(args.model)
    for c, layer in enumerate(net.layers):
        try:
            flatten_filters(layer)  # selection needs nonzero filters
        except ConsistencyError as exc:
            raise modelio.ModelIOError(f"layer {c}: {exc}") from None
    data = modelio.read_dataset(args.data)
    cfg = PruneConfig(
        beta=args.beta,
        alpha=args.alpha,
        selector=args.selector,
        fp_method={"fp-omp": "omp", "fp-backward": "backward"}[args.method],
        floor=args.floor,
        seed=args.seed,
    )
    result = run_selector(net, data, cfg)
    modelio.write_model(result.network, input_shape, args.out)
    report = modelio.build_report(cfg, result, net, input_shape)
    if args.report:
        modelio.write_report(report, args.report)
    before, after = report.before, report.after
    params = _signed_change(before["params"], after["params"], report.param_drop_pct)
    flops = _signed_change(before["flops"], after["flops"], report.flops_drop_pct)
    print(
        f"prune: {cfg.selector}/{cfg.fp_method} status={result.status} "
        f"rounds={len(result.rounds)} params {params} flops {flops} -> {args.out}"
    )
    return EXIT_OK if result.status == "reached" else EXIT_PARTIAL


def cmd_eval(args) -> int:
    net, input_shape = modelio.read_model(args.model)
    ref_path = args.reference_model or args.model
    ref_net, ref_shape = modelio.read_model(ref_path)
    data = modelio.read_dataset(args.data)
    error, skips = relative_output_error(net, ref_net, data)
    stats = count_stats(net, input_shape)
    ref_stats = count_stats(ref_net, ref_shape)
    drops = reduction_report(ref_stats, stats)
    payload = {
        "relative_error": error,
        "examples": int(data.shape[0]),
        "skipped_refs": skips,
        "params": stats.params,
        "flops": stats.flops,
        "reference_params": ref_stats.params,
        "reference_flops": ref_stats.flops,
        "param_drop_pct": drops.param_drop_pct,
        "flops_drop_pct": drops.flops_drop_pct,
    }
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_verify(args) -> int:
    names = sorted(oracles.SUITES) if args.suite == "all" else [args.suite]
    all_ok = True
    for name in names:
        fn = oracles.SUITES[name]
        kwargs = {}
        if args.seed is not None:
            kwargs["seed"] = args.seed
        if args.trials is not None:
            kwargs["trials"] = args.trials
        result = fn(**kwargs)
        print(result.line())
        all_ok = all_ok and result.ok
    return EXIT_OK if all_ok else EXIT_VERIFY


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "prune":
            return cmd_prune(args)
        if args.command == "eval":
            return cmd_eval(args)
        return cmd_verify(args)
    except (modelio.ModelIOError, DimensionError, OSError) as exc:
        print(f"convprune {args.command}: {exc}", file=sys.stderr)
        return EXIT_FILE
    except np.linalg.LinAlgError as exc:  # a ValueError, so caught first
        print(f"convprune {args.command}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"convprune {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
