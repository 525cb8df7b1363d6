"""Spans around convprune's public functions, installed from outside.

A module that does `from .x import f` holds its own binding of `f`, so each
wrapper is installed on the module that makes the call (see PATCHES).  A
span records its wall time and, for its parent span, how much of the
parent's interval it covered, so every name gets a self time (total minus
nested spans).  Spans are aggregated per name in memory; nothing is written
while jobs run.
"""
from __future__ import annotations

import os
import time
from collections import Counter
from dataclasses import dataclass, field

# (module, attribute, span name).  conv_forward is deliberately absent: it
# calls nets.conv_forward_linear, which is wrapped, so conv work is counted
# once.  run_selector is timed by the benchmark itself in every run.
PATCHES = (
    ("convprune.nets", "conv_forward_linear", "nets.conv"),
    ("convprune.search", "conv_forward_linear", "nets.conv"),
    ("convprune.search", "propagate_tree", "search.tree"),
    ("convprune.search", "relative_error_hbgs", "search.hbgs_score"),
    ("convprune.search", "collect_layer_outputs", "search.refs"),
    ("convprune.search", "candidate_for_layer", "search.candidate"),
    ("convprune.search", "_RoundLoop.candidates", "search.candidate_lookup"),
    ("convprune.search", "fp_backward", "selection.backward"),
    ("convprune.search", "fp_omp", "selection.omp"),
    ("convprune.selection", "gram_inverse", "selection.gram_inverse"),
    ("convprune.selection", "elimination_scores", "selection.elimination_scores"),
    ("convprune.search", "compensate_output", "compensation"),
    ("convprune.search", "count_stats", "metrics.count_stats"),
    ("convprune.modelio", "read_model", "modelio.read_model"),
    ("convprune.modelio", "write_model", "modelio.write_model"),
    ("convprune.modelio", "write_report", "modelio.write_report"),
    ("convprune.modelio", "read_dataset", "modelio.read_dataset"),
)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    errors: Counter = field(default_factory=Counter)  # exception class name -> count
    extra: Counter = field(default_factory=Counter)  # per-span counters, see _on_exit


@dataclass
class _Frame:
    child_s: float = 0.0
    children: Counter = field(default_factory=Counter)  # successful direct child spans


def _conv_macs(layer, x) -> int:
    height, width = x.shape[-2:]
    params = layer.weights.size + (0 if layer.comp is None else layer.comp.size)
    return int(height) * int(width) * int(params)


def _on_exit(name: str, stat: SpanStats, frame: _Frame, args) -> None:
    """Counters that need the call's arguments or its nested spans."""
    if name == "nets.conv":
        stat.extra["macs"] += _conv_macs(args[0], args[1])
    elif name == "search.candidate_lookup":
        stat.extra["lookups"] += len(args[1])
        stat.extra["builds"] += frame.children["search.candidate"]
    elif name == "selection.backward":
        stat.extra["eliminations"] += frame.children["selection.elimination_scores"]
        stat.extra["refactorizations"] += max(0, frame.children["selection.gram_inverse"] - 1)
    elif name in ("modelio.write_model", "modelio.write_report"):
        path = args[-1]
        if os.path.exists(path):
            stat.extra["bytes"] += os.path.getsize(path)


class Tracer:
    """Installs the PATCHES wrappers while active; restores the originals on exit."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[_Frame] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, SpanStats())
        stack = self._stack

        def traced(*args, **kwargs):
            frame = _Frame()
            stack.append(frame)
            ok = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            except Exception as exc:
                stat.errors[type(exc).__name__] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1].child_s += dt
                    if ok:
                        stack[-1].children[name] += 1
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - frame.child_s
                _on_exit(name, stat, frame, args)

        return traced

    def __enter__(self):
        import importlib

        wrappers = {}
        for module_name, attr, name in PATCHES:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            # one wrapper per original function, however many modules bind it
            wrapper = wrappers.setdefault(id(original), self.wrap(name, original))
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, wrapper)
        return self

    def __exit__(self, *exc_info):
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)
        return False

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())
