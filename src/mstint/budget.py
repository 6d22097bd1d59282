"""Greedy budget interdiction, and the cut engine that budget and profit share.

The engine turns (edge e, threshold W) pairs into partial cuts.  A pair's
cut is the canonical minimum u-v cut (u, v the ends of e) over the
participating set P = L∖R, where L holds the edges lighter than W and R the
greedy's removed edges among them, and its claimed gain is W - w(e).
`best_ratio_cut` returns the best gain/cost cut whose cost fits in an
allowance: the live budget greedy passes its budget guess, the profit greedy
what is left of its hard budget.  Four devices cut the number and the
length of max-flows without changing any answer:

- `CutMemo` keeps, for one top-level call, one `CutTable` per threshold,
  and each threshold keeps one record per pair: its latest cut, finished or
  not, and the removed set R0 it was taken under.  A greedy round removes
  only edges lighter than its own threshold, so most thresholds keep their
  R, and their records, from round to round and from one budget guess to
  the next.  A record under another set R0, of cost v0, bounds the pair's
  cut over P from below by v0 - c(R∖R0), since the edges of the record's
  set P0 missing from P are R∖R0; the scan skips the pair, with no flow,
  when that bound is over its limit, so a pair that could tie is still cut.
  Each table builds one flow network over the set asked for last.
- For W > w(e), e itself lies in P and joins u and v, so every u-v cut costs
  at least c(e) and the pair's ratio is at most (W - w(e)) / c(e).  The scan
  visits pairs in descending order of that bound and takes a cut only while
  the bound can still beat the best cut found so far; the order of `_better`
  is total, so the best cut is the same as that of a scan over every pair.
- A pair's cut is of use only at a cost of at most the allowance and, once
  a best cut is found, at most floor(gain * best.cost / best.gain), or its
  ratio is strictly below the best.  Its flow stops once past the allowance
  and leaves an unfinished cut, whose value bounds the cut from below.  Only
  finished flows give cuts, so every side is still the canonical one.  The
  profit greedy spends from its allowance at least what it drops from any
  P, so a value past the allowance keeps the pair out of every later scan;
  a flow stopped at the best-ratio limit would be flowed again.
- With no edge removed, P at W lies inside P at any W' > W, so a pair's
  cut only grows with the threshold.  `profit.best_single_cut` visits each
  edge's thresholds in ascending order and stops at the first cut over the
  budget; its flows stop past the budget.

`_run_greedy` is the one ratio-greedy loop of the package; budget and profit
differ only in when it stops.  `budget_approximate` is the paper's
algorithm: the greedy runs to the target increase at each budget guess of a
doubling search, with the global min cut as the fallback.  The run builds
one `mst.TreePricer`, which checks that the graph is connected and prices
the rounds of every guess and the answer.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from typing import Iterable

from .cuts import CutNetwork, CutResult, global_min_cut, min_st_cut
from .graph import Graph
from .mst import TreePricer, partial_cut
from .quantities import (
    INFINITY,
    ZERO,
    ExtendedValue,
    InputError,
    finite,
    log2_bounds,
)
from .solution import GreedyRound, GreedyTrace, InterdictionSolution, make_solution


class InfeasibleError(InputError):
    """No affordable solution reaches the target increase."""


@dataclass(frozen=True)
class ScoredCut:
    """One (edge, W) partial cut with its claimed gain."""

    gain: int  # W - w(defining edge), > 0
    cost: int  # cost of the realized cut edges
    edge: int  # defining edge index
    threshold: int  # W
    cut_edges: frozenset[int]
    side: frozenset[int]

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.gain, self.cost)


def _better(a: ScoredCut, b: ScoredCut | None) -> bool:
    """Strictly better ratio; ties by (cost, defining edge, threshold)."""
    if b is None:
        return True
    lhs = a.gain * b.cost
    rhs = b.gain * a.cost
    if lhs != rhs:
        return lhs > rhs
    return (a.cost, a.edge, a.threshold) < (b.cost, b.edge, b.threshold)


class CutTable:
    """Minimum u-v cuts at one threshold, over P = L∖R, where L holds the
    edges lighter than the threshold and R the removed ones among them,
    on one flow network over P built at its first miss.  L is the first
    `n_lighter` edges of `Graph.kruskal_order`, read only to build it.

    A flow given a limit may stop past it and leave an unfinished cut: an
    empty side, and the flow's value, at most the cut's cost, as its cost.
    `records` holds the latest cut of each pair, finished or not, with the
    removed set R0 it was taken under; a record under R itself is the
    pair's cut over P.  A u-v cut C over P, less its edges outside P0, plus
    P0∖P separates u from v over P0, so a cut of cost v0 over P0, even an
    unfinished one, gives c(C) >= v0 - c(P0∖P), whether or not P lies
    inside P0; and P0∖P = R∖R0.
    """

    def __init__(self, g: Graph, n_lighter: int):
        self.g = g
        self.n_lighter = n_lighter
        self.removed: frozenset[int] = frozenset()
        self.records: dict[tuple[int, int], tuple[CutResult, frozenset[int]]] = {}
        self._network: CutNetwork | None = None

    def cut(self, u: int, v: int, limit: int | None = None) -> CutResult:
        """The pair's cut over P; with `limit`, one that costs more may
        come back unfinished."""
        record = self.records.get((u, v))
        if record is not None and record[1] == self.removed:
            result = record[0]
            if result.side or limit is not None and result.cost.units > limit:
                return result
        if self._network is None:
            lighter = islice(self.g.kruskal_order, self.n_lighter)
            self._network = CutNetwork(self.g, [i for i, _, _ in lighter if i not in self.removed])
        result = min_st_cut(self._network, u, v, limit=limit)
        self.records[u, v] = (result, self.removed)
        return result

    def lower_bound(self, u: int, v: int) -> ExtendedValue:
        """A lower bound on the u-v cut over P with no flow, from the
        pair's record: its cost, under R itself, or v0 - c(R∖R0); ZERO with
        no record or an infinite-cost R∖R0."""
        record = self.records.get((u, v))
        if record is None:
            return ZERO
        old, removed = record
        if removed == self.removed:
            return old.cost
        costs = [self.g.edges[i].cost for i in self.removed - removed]
        if None in costs:
            return ZERO
        if not old.cost.is_finite:
            return INFINITY
        return ExtendedValue(max(0, old.cost.units - sum(costs)))


class CutMemo:
    """Minimum u-v cuts of one graph, kept for one top-level call in one
    `CutTable` per threshold W, which follows the removed edges lighter
    than W asked for last.  Nothing outlives the memo.
    """

    def __init__(self, g: Graph):
        self.g = g
        self.weights = g.distinct_weights()
        self._tables: dict[int, CutTable] = {}

    @cached_property
    def pairs(self) -> list[tuple[int, int]]:
        """(edge, W) pairs with W > w(e) and finite c(e), by descending
        bound (W - w(e)) / c(e), then by `_better`'s tie key.

        The integer key floor(gain * 2**128 / c(e)) orders the bounds
        exactly: gains and costs stay below 2**63, so two different bounds
        differ by more than 2**-126.
        """
        keyed = [
            (-(((w_threshold - e.weight) << 128) // e.cost), e.cost, i, w_threshold)
            for i, e in enumerate(self.g.edges)
            if e.cost is not None
            for w_threshold in self.weights
            if w_threshold > e.weight
        ]
        keyed.sort()
        return [(i, w_threshold) for _, _, i, w_threshold in keyed]

    def table(self, threshold: int, removed: Iterable[int]) -> CutTable:
        """The threshold's table, taking cuts over the edges lighter than
        `threshold` that are not in `removed`."""
        table = self._tables.get(threshold)
        if table is None:
            n_lighter = bisect_left(
                self.g.kruskal_order, threshold, key=lambda t: self.g.edges[t[0]].weight
            )
            table = self._tables[threshold] = CutTable(self.g, n_lighter)
        current = frozenset(i for i in removed if self.g.edges[i].weight < threshold)
        if current != table.removed:
            table.removed = current
            table._network = None
        return table


def best_ratio_cut(memo: CutMemo, removed: set[int], room: int) -> ScoredCut | None:
    """Best gain/cost cut of cost at most `room` over the (edge, W) pairs
    of the memo's graph less `removed`, under the total order of `_better`."""
    g = memo.g
    best: ScoredCut | None = None
    tables: dict[int, CutTable] = {}
    for edge_idx, w_threshold in memo.pairs:
        e = g.edges[edge_idx]
        if edge_idx in removed or e.cost > room:
            continue  # every cut of the pair costs at least c(e)
        gain = w_threshold - e.weight
        if best is not None:
            lhs = gain * best.cost
            rhs = best.gain * e.cost
            if lhs < rhs:
                break  # no bound from here on reaches the best ratio
            if lhs == rhs and (e.cost, edge_idx, w_threshold) > (
                best.cost,
                best.edge,
                best.threshold,
            ):
                continue
        table = tables.get(w_threshold)
        if table is None:
            table = tables[w_threshold] = memo.table(w_threshold, removed)
        # of use only at a cost of at most `limit`; a flow stops past the room
        limit = room if best is None else min(room, gain * best.cost // best.gain)
        bound = table.lower_bound(e.u, e.v)
        if not bound.is_finite or bound.units > limit:
            continue
        cut = table.cut(e.u, e.v, room)
        if not cut.cost.is_finite or cut.cost.units > limit:
            continue
        cand = ScoredCut(
            gain, cut.cost.units, edge_idx, w_threshold, cut.edges, cut.side
        )
        if _better(cand, best):
            best = cand
    return best


def _relaxed_budget_cap(n: int, budget: int) -> Fraction:
    # (1 + 2*log2 n) * budget with a conservative rational upper bound on
    # log2 n: allowing an extra round never breaks the cost analysis.
    _, ub = log2_bounds(n, bits=20)
    return (1 + 2 * ub) * budget


def _run_greedy(
    pricer: TreePricer, budget: int, delta: int | None, scan
) -> tuple[frozenset[int], GreedyTrace]:
    """The ratio greedy of budget and profit on the pricer's graph:
    `scan(removed, spent)` gives each round's cut.  With a target `delta` the
    run stops once the increase reaches it or the relaxed cap on `budget`
    is spent; with None it runs until no cut is left."""
    g = pricer.g
    removed: set[int] = set()
    spent = 0
    rounds: list[GreedyRound] = []
    # profit's scan keeps spent <= budget < (1 + 2*log2 n) * budget (n >= 2;
    # one vertex has no cut), so the cap only ever stops a budget guess
    cap = _relaxed_budget_cap(g.n_vertices, budget)
    outcome = "no_progress"
    while (best := scan(removed, spent)) is not None:
        removed |= best.cut_edges
        spent += best.cost
        current = pricer.price(removed)
        cut = partial_cut(g, best.side, best.threshold)
        rounds.append(GreedyRound(cut, best.ratio, spent, current))
        if delta is not None and current >= finite(delta):
            outcome = "reached_delta"
            break
        if not Fraction(spent) < cap:
            outcome = "budget_exhausted"
            break
    return frozenset(removed), GreedyTrace(tuple(rounds), budget, outcome)


def global_cut_candidate(g: Graph, below: int | None = None) -> frozenset[int] | None:
    """The edges of a finite, nonempty global min cut, or None; with
    `below`, None also when the cut costs `below` or more."""
    if g.n_vertices < 2:
        return None
    cut = global_min_cut(g, below)
    if cut is None or not cut.cost.is_finite or not cut.edges:
        return None
    return cut.edges


def _doubling(g: Graph, run) -> tuple[frozenset[int], GreedyTrace] | None:
    finite_costs = [e.cost for e in g.edges if e.cost is not None]
    if not finite_costs:
        return None
    budget = min(finite_costs)
    total = sum(finite_costs)
    while True:
        edges, trace = run(budget)
        if trace.outcome == "reached_delta":
            return edges, trace
        if budget >= total:
            return None
        budget *= 2


def _finish(
    pricer: TreePricer, greedy_result: tuple[frozenset[int], GreedyTrace] | None
) -> InterdictionSolution:
    g = pricer.g
    if greedy_result is None:
        fallback = global_cut_candidate(g)
    else:
        edges, trace = greedy_result
        # the fallback wins only when strictly cheaper than the greedy
        fallback = global_cut_candidate(g, sum(g.edges[i].cost for i in edges))
        if fallback is None:
            return make_solution(
                pricer, edges, cuts=tuple(r.cut for r in trace.rounds), trace=trace
            )
    if fallback is None:
        raise InfeasibleError("target increase is unreachable at finite cost")
    return make_solution(pricer, fallback)


def budget_approximate(g: Graph, delta: int) -> InterdictionSolution:
    """Cheapest-found edge set with profit >= delta, within O(log n) of OPT."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    pricer = TreePricer(g)  # raises on a disconnected graph
    memo = CutMemo(g)

    def run(budget: int):
        return _run_greedy(
            pricer, budget, delta, lambda removed, _spent: best_ratio_cut(memo, removed, budget)
        )

    return _finish(pricer, _doubling(g, run))

