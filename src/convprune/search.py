"""Greedy layer selection: which layer to prune next, and by how much.

Each round builds a pruned candidate for every eligible layer, scores the
candidates on a calibration dataset, commits the cheapest one, and repeats
until the parameter budget is met.  Two scoring rules are provided:

- hbgs compares each candidate against the original network's output *at
  that layer* (layerwise error: each example's chain of layer inputs is
  extended as far as the last candidate, and one candidate conv per
  example scores each layer).  Examples do not depend on each other, so
  the caller scores the even ones and one helper thread the odd ones,
  with results identical to a serial pass;
- hbgts propagates every candidate to the *final* output in a composite
  tree pass: one batched pass over the whole dataset per round instead of
  one pass per candidate.  The pass extends the unpruned chain first; its
  candidate columns do not depend on each other, so the caller and one
  helper thread fill them, with results identical to a serial pass.

One helper, _extend_chain, extends every chain of layer outputs (the hbgs
example chains, the references, the tree's chain and each tree column) and
restores a dropped (None) entry from the last entry before it.  Every pass
runs through one runner, _on_two_threads, which raises what a serial pass
raises: tasks below a failed one run whole and none above it starts.

Rounds are incremental.  A commit at layer k changes only layer k, so the
next round reuses what it left unchanged: hbgts keeps its tree's chain up
to layer k's input, takes the committed candidate's column as the chain
from layer k on, and keeps each column c < k up to layer k's input, so
only the columns of layers < k from layer k on and the columns of layers
>= k run a conv; hbgs takes the errors of layers < k from the last round's
record, scores only layers >= k, and keeps each example's chain up to
layer k's input; its first round takes the chains from the reference
outputs.  Between rounds an hbgs chain holds only the example and the
inputs of odd layers, a checkpoint every other layer, so _extend_chain
restores a dropped input of layer k with one conv.  Reused values are the
very arrays and floats the same computation produced, so results are
exactly those of a full recompute.

Every driver builds one _RoundLoop, which checks the dataset once, caches
each layer's candidate, numbers the rounds from 1 and records each commit,
so their reports are directly comparable.  Each round a pick returns the
chosen layer, the errors, the forward passes and the skipped references,
and the loop commits its own cached candidate for that layer.  hbgs and
hbgts pick the argmin of a score that returns (errors, skips); the random
baseline draws a seeded layer; the uniform baseline commits all of its
layers in a single round.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .compensation import apply_pruning, compensate_output, identity_comp
from .metrics import count_stats, param_reduction
from .nets import (
    ConvLayer,
    DimensionError,
    Network,
    apply_activation,
    check_dataset,
    conv_forward_linear,
)
from .selection import flatten_filters, fp_backward, fp_omp, retained_count

FP_METHODS = ("omp", "backward")


@dataclass(frozen=True)
class PruneConfig:
    """Knobs shared by all layer-selection drivers.

    beta is the target cumulative parameter reduction for the round-based
    drivers and the per-layer filter fraction for the uniform baseline.
    alpha filters are pruned from the chosen layer each round, never below
    floor retained filters.  Layer outputs are compared after the
    activation.
    """

    beta: float
    alpha: int = 5
    selector: str = "hbgts"
    fp_method: str = "backward"
    floor: int = 1
    seed: int = 0

    def __post_init__(self):
        for name in ("alpha", "floor", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {self.beta}")
        if self.alpha < 1:
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")
        if self.floor < 1:
            raise ValueError(f"floor must be >= 1, got {self.floor}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.selector not in DRIVERS:
            raise ValueError(f"selector must be one of {tuple(DRIVERS)}")
        if self.fp_method not in FP_METHODS:
            raise ValueError(f"fp_method must be one of {FP_METHODS}")


@dataclass(frozen=True)
class PruneRound:
    """Bookkeeping for one committed round.

    errors holds one relative error per layer, math.inf where no finite
    score exists (layer at the floor, or the driver does not score).
    retained and param_reduction describe the state after the commit.
    """

    t: int
    errors: tuple[float, ...]
    chosen_layer: int | None
    retained: tuple[int, ...]
    param_reduction: float
    forward_passes: int
    skipped_refs: int = 0


@dataclass(frozen=True)
class PruneResult:
    network: Network
    rounds: tuple[PruneRound, ...]
    status: str  # "reached" or "partial"


def candidate_for_layer(layer: ConvLayer, n_prune: int, fp_method: str) -> ConvLayer:
    """Prune n_prune filters from one layer, with compensation folded in."""
    n = layer.out_channels
    if not 1 <= n_prune < n:
        raise ValueError(f"cannot prune {n_prune} of {n} filters")
    a = flatten_filters(layer)
    select = fp_omp if fp_method == "omp" else fp_backward
    sel = select(a, n_prune / n)
    g = layer.comp if layer.comp is not None else identity_comp(layer)
    return apply_pruning(layer, sel, compensate_output(g, sel))


def _layer_output(layer: ConvLayer, x: np.ndarray) -> np.ndarray:
    """conv_forward, but through this module's conv_forward_linear: the one
    conv step of this module, so a wrapper of search.conv_forward_linear
    sees every conv that search runs."""
    return apply_activation(layer.activation, conv_forward_linear(layer, x))


def _on_two_threads(
    work: Callable[[int], None],
    caller_tasks: Iterable[int],
    helper_tasks: Iterable[int],
) -> None:
    """Run work(i) for the tasks of caller_tasks on the caller and those of
    helper_tasks on one helper thread; pass one iterator as both for a
    shared queue.

    Each thread takes its tasks in ascending order and runs each one
    whole.  No task above a failed one starts; the tasks below it run on,
    as in a serial pass.  The helper is joined before this returns or
    raises the lowest failed task's exception, which a serial pass raises.
    """
    lock = threading.Lock()
    failures: dict[int, BaseException] = {}  # task -> its exception

    def run(tasks: Iterator[int]) -> None:
        while True:
            with lock:
                i = next(tasks, None)
                if i is None or any(f < i for f in failures):
                    return
            try:
                work(i)
            except BaseException as exc:
                with lock:
                    failures[i] = exc

    helper = threading.Thread(
        target=run, args=(iter(helper_tasks),), name="convprune-helper"
    )
    helper.start()
    try:
        run(iter(caller_tasks))
    finally:
        helper.join()
    if failures:
        raise failures[min(failures)]


def _by_parity(n: int) -> tuple[range, range]:
    """Examples 0..n-1 split for _on_two_threads: the caller takes the even
    ones and the helper the odd ones, so each example's arrays are always
    made by the same thread."""
    return range(0, n, 2), range(1, n, 2)


def collect_layer_outputs(net: Network, data: np.ndarray) -> list[list[np.ndarray]]:
    """Per-example, per-layer post-activation outputs.

    Examples run on the caller and one helper thread, each example on
    one, so the outputs are those of a serial pass.
    """
    chains = [[x] for x in data]
    _on_two_threads(
        lambda i: _extend_chain(net.layers, chains[i], len(net)), *_by_parity(len(data))
    )
    return [chain[1:] for chain in chains]


def _each_norm(arrays) -> list[float]:
    """The norm of each array, in order (of each example, for a batch)."""
    return [float(np.linalg.norm(y)) for y in arrays]


def _norms(refs: list[list[np.ndarray]]) -> list[list[float]]:
    """The norm of every reference output, per example and layer."""
    return [_each_norm(per_layer) for per_layer in refs]


def _extend_chain(layers: list[ConvLayer], chain: list[np.ndarray | None], c: int) -> None:
    """Fill chain[c], where chain[i + 1] is layers[i] applied to chain[i].

    Every chain and tree column in this module is extended here, and a
    missing or dropped (None) entry is restored here, from the last entry
    present before it.  A started task runs this whole unless its own conv
    raises."""
    chain.extend([None] * (c + 1 - len(chain)))
    j = c
    while chain[j] is None:
        j -= 1
    for i in range(j, c):
        chain[i + 1] = _layer_output(layers[i], chain[i])


def relative_error_hbgs(
    net: Network,
    candidates: list[ConvLayer | None],
    data: np.ndarray,
    refs: list[list[np.ndarray]],
    chains: list[list[np.ndarray | None]] | None = None,
    ref_norms: list[list[float]] | None = None,
) -> np.ndarray:
    """Layerwise relative errors of all candidates in one pass per example.

    Candidate c is applied to the current network's input to layer c and
    compared against refs[i][c] (the original network's layer-c output),
    normalized by that reference's norm, ref_norms[i][c] (computed here
    when not given).  Zero-norm references are skipped.  Layers without a
    candidate score math.inf.

    chains[i], when given, is example i's chain [data[i], input of layer
    1, ...] in the current network, kept across calls.  It is extended in
    place up to the input of the last layer that has a candidate, and only
    the missing entries run a conv.  Once the example is scored, its
    inputs of even layers >= 2 are dropped (None): _extend_chain restores
    one with a single conv from the odd layer's input before it.

    The caller scores the even examples and one helper thread the odd
    ones, each into its own row of an error table; the rows are then added
    in example order.  So every float, chain entry and dropped input is
    that of a serial pass.  Examples below a failed one run whole and none
    above it starts, so after the helper is joined the lowest failed
    example's exception is raised, as in a serial pass.
    """
    if chains is None:
        chains = [[x] for x in data]
    if ref_norms is None:
        ref_norms = _norms(refs)
    table = np.zeros((len(chains), len(candidates)))  # row i: example i's errors

    def score(i: int) -> None:
        chain = chains[i]
        for c, cand in enumerate(candidates):
            if cand is None:
                continue
            _extend_chain(net.layers, chain, c)
            if ref_norms[i][c] != 0.0:
                cand_out = _layer_output(cand, chain[c])
                table[i, c] = float(np.linalg.norm(refs[i][c] - cand_out)) / ref_norms[i][c]
        chain[2::2] = [None] * len(chain[2::2])

    _on_two_threads(score, *_by_parity(len(chains)))
    errors = np.where([c is not None for c in candidates], 0.0, math.inf)
    for row in table:  # example order; a skipped reference adds 0.0
        errors += row
    return errors


@dataclass
class PropagationTree:
    """Outputs of a composite tree pass over a batch (or one example).

    chain[c] is the input of layer c in the unpruned network, so chain[0]
    is the pass's input and chain[-1] the final reference.  columns[c]
    holds the outputs of layers c, c+1, ... with layer c swapped for its
    candidate, so columns[c][-1] is that hypothesis's final output; a layer
    with no candidate has no column (None).  Every tensor has the leading
    batch axis of the input, if it had one.
    """

    chain: list[np.ndarray]
    columns: list[list[np.ndarray] | None]


def propagate_tree(
    net: Network,
    candidates: list[ConvLayer | None],
    x: np.ndarray,
    known: PropagationTree | None = None,
) -> PropagationTree:
    """One composite forward pass carrying every candidate hypothesis.

    x is a batch (N, channels, H, W) or a single example (channels, H, W).
    known, when given, is a partial tree of this very pass: a prefix of
    the chain, starting at x, and a prefix of each column.  It is extended
    in place, and only the entries it lacks run a conv.

    The chain is extended first.  The columns then depend only on it, so
    the caller and one helper thread fill them, each taking the next
    unfilled column in index order (in hbgts's passes, longest first).
    Every entry is the same conv on the same arrays as in a serial pass,
    so the tree is identical to a serial one.  Columns below a failed one
    run whole and none above it starts, so after the helper is joined the
    lowest failed column's exception is raised, as in a serial pass.
    """
    if len(candidates) != len(net):
        raise ValueError(
            f"{len(candidates)} candidates for {len(net)} layers"
        )
    if known is None:
        x = np.asarray(x, dtype=np.float64)
        known = PropagationTree([x], [None] * len(net))
    chain, columns = known.chain, known.columns
    _extend_chain(net.layers, chain, len(net))
    for c, cand in enumerate(candidates):
        columns[c] = None if cand is None else columns[c] or []

    def fill(c: int) -> None:
        # column c is the chain from chain[c] with layer c swapped for its candidate
        column = [chain[c], *columns[c]]
        _extend_chain([candidates[c], *net.layers[c + 1 :]], column, len(net) - c)
        columns[c] = column[1:]

    todo = iter([c for c, cand in enumerate(candidates) if cand is not None])
    _on_two_threads(fill, todo, todo)
    return known


def _after_commit(tree: PropagationTree, k: int) -> PropagationTree:
    """The entries of tree that a commit at layer k leaves unchanged.

    The chain keeps the inputs of layers <= k and continues with the
    committed column; each column c < k keeps the outputs of layers < k.
    """
    chain = tree.chain[: k + 1] + tree.columns[k]
    columns = [
        column[: k - c] if c < k and column is not None else None
        for c, column in enumerate(tree.columns)
    ]
    return PropagationTree(chain, columns)


def _relative_sum(
    refs: np.ndarray, outs: np.ndarray, ref_norms: list[float]
) -> tuple[float, int]:
    """Sum of per-example |ref - out| / |ref| in dataset order.

    ref_norms holds each reference's norm.  Zero-norm references are
    skipped; returns (total, number skipped).
    """
    total = 0.0
    skips = 0
    for ref, out, ref_norm in zip(refs, outs, ref_norms):
        if ref_norm == 0.0:
            skips += 1
            continue
        total += float(np.linalg.norm(ref - out)) / ref_norm
    return total, skips


def final_output(net: Network, data: np.ndarray) -> np.ndarray:
    """Final-layer post-activation output of net on a batch."""
    y = data
    for layer in net.layers:
        y = _layer_output(layer, y)
    return y


def relative_output_error(
    net: Network, reference: Network, data: np.ndarray
) -> tuple[float, int]:
    """Dataset-summed relative error between two networks' final outputs.

    Each network runs once over the whole dataset; per-example errors are
    summed in dataset order, and zero-norm references are skipped and counted.
    """
    data = check_dataset(reference, data)
    width, ref_width = net.layers[-1].width, reference.layers[-1].width
    if width != ref_width:
        raise DimensionError(f"model has final width {width}, reference has {ref_width}")
    refs = final_output(reference, data)
    return _relative_sum(refs, final_output(net, data), _each_norm(refs))


class _RoundLoop:
    """Round bookkeeping shared by every driver."""

    def __init__(self, net: Network, data: np.ndarray, cfg: PruneConfig):
        self.cfg = cfg
        self.data = check_dataset(net, data)
        self.input_shape = (net.in_channels, *self.data.shape[2:])
        self.original_stats = count_stats(net, self.input_shape)
        self.net = net
        self.rounds: list[PruneRound] = []
        # candidate cache: layer index -> candidate
        self.cache: dict[int, ConvLayer] = {}

    def reduction(self) -> float:
        return param_reduction(
            self.original_stats, count_stats(self.net, self.input_shape)
        )

    def eligible(self) -> list[int]:
        return [
            c
            for c, layer in enumerate(self.net.layers)
            if layer.out_channels > self.cfg.floor
        ]

    def candidates(self, eligible: list[int]) -> list[ConvLayer | None]:
        out: list[ConvLayer | None] = [None] * len(self.net)
        for c in eligible:
            if c not in self.cache:
                layer = self.net.layers[c]
                n_prune = min(self.cfg.alpha, layer.out_channels - self.cfg.floor)
                self.cache[c] = candidate_for_layer(layer, n_prune, self.cfg.fp_method)
            out[c] = self.cache[c]
        return out

    def commit(
        self,
        chosen: int | None,
        pruned: dict[int, ConvLayer],
        errors: np.ndarray,
        passes: int,
        skips: int,
    ) -> None:
        """Swap in the pruned layers and record the round, numbered from 1."""
        self.net = Network(
            [pruned.get(c, layer) for c, layer in enumerate(self.net.layers)]
        )
        for c in pruned:
            self.cache.pop(c, None)
        self.rounds.append(
            PruneRound(
                t=len(self.rounds) + 1,
                errors=tuple(float(e) for e in errors),
                chosen_layer=chosen,
                retained=tuple(l.out_channels for l in self.net.layers),
                param_reduction=self.reduction(),
                forward_passes=passes,
                skipped_refs=skips,
            )
        )

    def result(self, status: str) -> PruneResult:
        return PruneResult(self.net, tuple(self.rounds), status)


# pick(loop, eligible) -> (chosen layer, errors, passes, skips); the loop
# commits its cached candidate for the chosen layer
Pick = Callable[[_RoundLoop, list[int]], tuple[int, np.ndarray, int, int]]


def _run_rounds(loop: _RoundLoop, pick: Pick) -> PruneResult:
    """Commit the picked layer's cached candidate each round until beta is reached."""
    while loop.reduction() < loop.cfg.beta:
        eligible = loop.eligible()
        if not eligible:
            return loop.result("partial")
        chosen, errors, passes, skips = pick(loop, eligible)
        loop.commit(chosen, {chosen: loop.cache[chosen]}, errors, passes, skips)
    return loop.result("reached")


def _argmin(score) -> Pick:
    """A pick that scores every eligible candidate and takes the cheapest.

    score(loop, candidates, eligible) returns (errors, skips).  Every
    example is scored, so the round records len(loop.data) forward passes.
    Every scored round of hbgs and hbgts passes through this pick.
    """

    def pick(loop: _RoundLoop, eligible: list[int]):
        errors, skips = score(loop, loop.candidates(eligible), eligible)
        chosen = int(np.argmin(errors))  # ties -> smallest layer index
        return chosen, errors, len(loop.data), skips

    return pick


def hbgs(net: Network, data: np.ndarray, cfg: PruneConfig) -> PruneResult:
    """Greedy layer selection by layerwise candidate error.

    errors[c] depends only on the layers before c and on layer c.  Round 1
    runs no chain conv: before any commit each example's layer inputs are
    its reference outputs, so its chain starts as the example followed by
    those very arrays.  A commit at layer k changes only layer k, so every
    layer c < k keeps the error that the last round recorded and runs no
    candidate conv, and each example's chain keeps the inputs of layers
    <= k.  Between rounds a chain holds its input and the inputs of odd
    layers, so it costs at most half the network's activations and a
    dropped input of layer k is restored with one conv.  The references
    and scores run on the caller plus one helper thread, one example per
    thread, with results identical to a serial pass.
    """
    loop = _RoundLoop(net, data, cfg)
    refs = collect_layer_outputs(net, loop.data)
    ref_norms = _norms(refs)
    zero_refs = [sum(norms[c] == 0.0 for norms in ref_norms) for c in range(len(net))]
    chains = [[x, *per_layer[:-1]] for x, per_layer in zip(loop.data, refs)]

    def score(loop: _RoundLoop, candidates, eligible):
        last = loop.rounds[-1] if loop.rounds else None
        kept = last.errors[: last.chosen_layer] if last else ()
        k = len(kept)
        if last is not None:
            for chain in chains:
                del chain[k + 1 :]
        todo = [None] * k + candidates[k:]
        errors = relative_error_hbgs(loop.net, todo, loop.data, refs, chains, ref_norms)
        errors[:k] = kept
        return errors, sum(zero_refs[c] for c in eligible)

    return _run_rounds(loop, _argmin(score))


def hbgts(net: Network, data: np.ndarray, cfg: PruneConfig) -> PruneResult:
    """Greedy layer selection by final-output candidate error.

    Every candidate hypothesis is carried to the final layer by one
    composite tree pass over the whole dataset per round, so a round costs
    len(data) example passes rather than len(net) * len(data).  A commit at
    layer k changes only layer k, so the next pass starts from last round's
    tree with the entries the commit left unchanged.  The norm of each
    final reference is computed once per round, not once per candidate.
    """
    tree = None

    def score(loop: _RoundLoop, candidates, eligible):
        nonlocal tree
        if tree is not None:  # drop the stale entries before any conv
            tree = _after_commit(tree, loop.rounds[-1].chosen_layer)
        tree = propagate_tree(loop.net, candidates, loop.data, known=tree)
        refs = tree.chain[-1]
        ref_norms = _each_norm(refs)
        errors = np.full(len(candidates), math.inf)
        for c in eligible:  # same references, so the same skips for every c
            errors[c], skips = _relative_sum(refs, tree.columns[c][-1], ref_norms)
        return errors, skips

    return _run_rounds(_RoundLoop(net, data, cfg), _argmin(score))


def random_baseline(net: Network, data: np.ndarray, cfg: PruneConfig) -> PruneResult:
    """Rounds like the greedy drivers, but the layer is drawn at random."""

    def pick(loop: _RoundLoop, eligible: list[int]):
        t = len(loop.rounds) + 1  # the number commit gives this round
        chosen = int(np.random.default_rng([cfg.seed, t]).choice(eligible))
        loop.candidates([chosen])  # builds only this layer's candidate, to commit
        return chosen, np.full(len(loop.net), math.inf), 0, 0

    return _run_rounds(_RoundLoop(net, data, cfg), pick)


def uniform_baseline(net: Network, data: np.ndarray, cfg: PruneConfig) -> PruneResult:
    """Prune the same filter fraction (cfg.beta) from every layer at once.

    The result is partial when the floor keeps any layer above its target.
    """
    loop = _RoundLoop(net, data, cfg)
    pruned = {}
    blocked = False
    for c, layer in enumerate(net.layers):
        n = layer.out_channels
        target = retained_count(n, cfg.beta)
        n_keep = max(target, min(cfg.floor, n))
        blocked |= n_keep > target
        if n_keep < n:
            pruned[c] = candidate_for_layer(layer, n - n_keep, cfg.fp_method)
    loop.commit(None, pruned, np.full(len(net), math.inf), 0, 0)
    return loop.result("partial" if blocked else "reached")


DRIVERS = {
    "hbgs": hbgs,
    "hbgts": hbgts,
    "uniform": uniform_baseline,
    "random": random_baseline,
}


def run_selector(net: Network, data: np.ndarray, cfg: PruneConfig) -> PruneResult:
    """Run the configured driver."""
    return DRIVERS[cfg.selector](net, data, cfg)
