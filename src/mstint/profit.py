"""Profit maximization under a hard budget: the better of the best single
cut and budget's `_run_greedy` run with no target increase, each round's cut
fitting in what is left of the budget, until no cut does.  The run builds one
`mst.TreePricer`, which checks that the graph is connected and prices the
single cut's candidates, the greedy's rounds and the answer."""
from __future__ import annotations

from .budget import CutMemo, _run_greedy, best_ratio_cut, global_cut_candidate
from .graph import Graph
from .mst import PartialCutSpec, TreePricer
from .quantities import ExtendedValue, ZERO
from .solution import InterdictionSolution, make_solution


def best_single_cut(
    pricer: TreePricer, budget: int, memo: CutMemo
) -> tuple[PartialCutSpec | None, ExtendedValue]:
    """Highest true-profit (edge, W) cut of cost at most `budget` in the
    pricer's graph.

    Ties keep the first pair in (edge, W) order.  Returns (None, 0) when no
    candidate cut is affordable and profitable.  `memo`, of the same graph,
    shares the input graph's cuts with a later greedy.
    """
    # no edge is lighter than the lightest weight, so every cut there is empty
    thresholds = memo.weights[1:]
    tables = {w_threshold: memo.table(w_threshold, ()) for w_threshold in thresholds}
    best_cut: PartialCutSpec | None = None
    best_profit = ZERO
    for e in pricer.g.edges:
        # thresholds ascend and P only grows with them, so a pair's cut
        # only grows: once it is over budget, so are all above it
        for w_threshold in thresholds:
            if w_threshold > e.weight and (e.cost is None or e.cost > budget):
                break  # e crosses every u-v cut at this threshold and above
            cut = tables[w_threshold].cut(e.u, e.v, budget)
            if not cut.cost.is_finite or cut.cost.units > budget:
                break
            if not cut.edges:
                continue
            value = pricer.price(cut.edges)
            if value > best_profit:
                best_profit = value
                # R = ∅, so P is every edge lighter than W and the cut
                # over P is the partial cut
                best_cut = PartialCutSpec(cut.side, w_threshold, cut.edges)
    return best_cut, best_profit


def profit_approximate(g: Graph, budget: int) -> InterdictionSolution:
    """Best of the within-budget ratio greedy and the best single cut.

    Never spends more than `budget`; approximates the optimal increase
    within O(log n) when one exists.  Both phases share one `CutMemo`.
    A global min cut within budget disconnects the graph, an infinite
    increase no other answer beats, so it is returned at once.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    pricer = TreePricer(g)  # raises on a disconnected graph
    complete = global_cut_candidate(g, budget + 1)
    if complete is not None:
        return make_solution(pricer, complete)
    memo = CutMemo(g)
    single_cut, single_profit = best_single_cut(pricer, budget, memo)
    # the hard budget: each round's cut must fit in what is left of it
    greedy_edges, trace = _run_greedy(
        pricer, budget, None, lambda removed, spent: best_ratio_cut(memo, removed, budget - spent)
    )
    greedy_profit = trace.rounds[-1].cumulative_profit if trace.rounds else ZERO
    if single_profit >= greedy_profit:
        if single_cut is None:
            return make_solution(pricer, frozenset(), trace=trace)
        return make_solution(pricer, single_cut.edges, cuts=(single_cut,), trace=trace)
    return make_solution(
        pricer, greedy_edges, cuts=tuple(r.cut for r in trace.rounds), trace=trace
    )
