#!/usr/bin/env python3
"""Prune one synthetic network with every selector and compare the results.

Builds a network with planted per-layer filter redundancy, runs the four
layer-selection drivers (crossed with both filter pruners for the greedy
ones), and prints a table of parameter/FLOP reductions and final-output
errors at a matched target budget.

Example:
    python3 scripts/run_pruning_demo.py --channels 12 --redundancy 0.1,0.5,0.75,0.8
"""
from __future__ import annotations

import argparse
import sys

from convprune import (
    PruneConfig,
    count_stats,
    make_dataset,
    planted_network,
    reduction_report,
    relative_output_error,
    run_selector,
)
from convprune.search import DRIVERS


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--layers", type=int, default=4)
    p.add_argument("--channels", type=int, default=12)
    p.add_argument("--kernel", type=int, default=3)
    p.add_argument("--redundancy", default="0.1,0.5,0.75,0.8",
                   help="per-layer planted redundancy, comma separated "
                        "(one value is broadcast to all layers)")
    p.add_argument("--examples", type=int, default=6)
    p.add_argument("--spatial", type=int, default=6)
    p.add_argument("--beta", type=float, default=0.35,
                   help="target parameter reduction for the greedy drivers; "
                        "per-layer filter fraction for uniform")
    p.add_argument("--alpha", type=int, default=3)
    p.add_argument("--floor", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    reds = [float(v) for v in args.redundancy.split(",")]
    if len(reds) == 1:
        reds = reds * args.layers
    if len(reds) != args.layers:
        sys.exit(f"need 1 or {args.layers} redundancy values, got {len(reds)}")

    net, manifest = planted_network(
        args.layers, args.channels, args.kernel, reds, seed=args.seed
    )
    data = make_dataset(args.examples, net.in_channels, args.spatial,
                        seed=args.seed)
    shape = (net.in_channels, args.spatial, args.spatial)
    before = count_stats(net, shape)
    planted = [len(e["planted"]) for e in manifest["layers"]]
    print(f"network: {args.layers} layers x {args.channels} channels, "
          f"kernel {args.kernel}, {before.params} params")
    print(f"planted redundant filters per layer: {planted}")
    print(f"target: beta={args.beta} alpha={args.alpha} floor={args.floor}, "
          f"{args.examples} calibration examples\n")

    header = (f"{'selector':8} {'method':8} {'status':8} {'rounds':>6} "
              f"{'param%':>7} {'flops%':>7} {'rel.err':>10}  retained")
    print(header)
    print("-" * len(header))
    for selector in DRIVERS:
        methods = ("backward", "omp") if selector in ("hbgs", "hbgts") else ("backward",)
        for method in methods:
            cfg = PruneConfig(beta=args.beta, alpha=args.alpha,
                              selector=selector, fp_method=method,
                              floor=args.floor, seed=args.seed)
            result = run_selector(net, data, cfg)
            rep = reduction_report(before, count_stats(result.network, shape))
            err, _ = relative_output_error(result.network, net, data)
            retained = ",".join(str(v) for v in result.rounds[-1].retained)
            print(f"{selector:8} {method:8} {result.status:8} "
                  f"{len(result.rounds):6d} {rep.param_drop_pct:7.1f} "
                  f"{rep.flops_drop_pct:7.1f} {err:10.3e}  {retained}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
