"""The memoized, bound-pruned cut engine against a plain per-pair scan.

The reference here cuts every (edge, threshold) pair afresh on every round,
with no memo and no pruning, and plugs into the same greedy loops.  Budget
and profit must give identical solutions, cuts and greedy traces.
"""
from __future__ import annotations

import random

from conftest import price
from mstint import cuts
from mstint.budget import (
    CutMemo,
    CutTable,
    ScoredCut,
    _better,
    _doubling,
    _finish,
    _run_greedy,
    best_ratio_cut,
    budget_approximate,
)
from mstint.cuts import CutNetwork, global_min_cut, min_st_cut
from mstint.generators import gen_random
from mstint.graph import Edge, Graph
from mstint.mst import TreePricer, partial_cut
from mstint.profit import best_single_cut, profit_approximate
from mstint.quantities import SCALE, ZERO, ExtendedValue
from mstint.solution import GreedyRound, GreedyTrace, make_solution

MAX_WEIGHTS = (0, 1, 3, 20, 1000)


def reference_scan(g: Graph, alive: set[int], weights: list[int], room: int):
    best = None
    for edge_idx in sorted(alive):
        e = g.edges[edge_idx]
        for w in weights:
            gain = w - e.weight
            if gain <= 0:
                continue
            cut = min_st_cut(
                CutNetwork(g, [i for i in alive if g.edges[i].weight < w]), e.u, e.v
            )
            if not cut.cost.is_finite or not 0 < cut.cost.units <= room:
                continue
            cand = ScoredCut(gain, cut.cost.units, edge_idx, w, cut.edges, cut.side)
            if _better(cand, best):
                best = cand
    return best


def reference_budget(g: Graph, delta: int):
    weights = g.distinct_weights()
    pricer = TreePricer(g)

    def run(budget: int):
        return _run_greedy(
            pricer,
            budget,
            delta,
            lambda removed, _spent: reference_scan(
                g, set(range(g.n_edges)) - removed, weights, budget
            ),
        )

    return _finish(pricer, _doubling(g, run))


def reference_single_cut(g: Graph, budget: int):
    best_cut, best_profit = None, ZERO
    for e in g.edges:
        for w in g.distinct_weights():
            light = [i for i, ed in enumerate(g.edges) if ed.weight < w]
            cut = min_st_cut(CutNetwork(g, light), e.u, e.v)
            if not cut.cost.is_finite or cut.cost.units > budget or not cut.edges:
                continue
            value = price(g, cut.edges)
            if value > best_profit:
                best_profit, best_cut = value, partial_cut(g, cut.side, w)
    return best_cut, best_profit


def reference_greedy(g: Graph, budget: int):
    weights = g.distinct_weights()
    alive = set(range(g.n_edges))
    removed: set[int] = set()
    spent = 0
    rounds = []
    while (best := reference_scan(g, alive, weights, budget - spent)) is not None:
        alive -= best.cut_edges
        removed |= best.cut_edges
        spent += best.cost
        rounds.append(
            GreedyRound(
                partial_cut(g, best.side, best.threshold),
                best.ratio,
                spent,
                price(g, removed),
            )
        )
    return frozenset(removed), GreedyTrace(tuple(rounds), budget, "no_progress")


def reference_profit(g: Graph, budget: int):
    # a global min cut within budget is an infinite increase: returned at once
    pricer = TreePricer(g)
    cut = global_min_cut(g)
    if cut.cost.is_finite and cut.cost.units <= budget and cut.edges:
        return make_solution(pricer, cut.edges)
    single_cut, single_profit = reference_single_cut(g, budget)
    removed, trace = reference_greedy(g, budget)
    greedy_profit = price(g, removed) if removed else ZERO
    if single_profit >= greedy_profit:
        if single_cut is None:
            return make_solution(pricer, frozenset(), trace=trace)
        return make_solution(pricer, single_cut.edges, cuts=(single_cut,), trace=trace)
    return make_solution(pricer, removed, cuts=tuple(r.cut for r in trace.rounds), trace=trace)


def instance(seed: int) -> Graph:
    rng = random.Random(seed)
    n = rng.randint(4, 30)
    m = rng.randint(n - 1, n + 6)
    g = gen_random(seed, n, m, MAX_WEIGHTS[seed % 5], 6)
    if seed % 4 == 3:
        g = Graph(
            n,
            tuple(
                Edge(e.u, e.v, e.weight, None if rng.random() < 0.2 else e.cost)
                for e in g.edges
            ),
        )
    return g


def outcome(solver, g: Graph, target: int):
    try:
        sol = solver(g, target)
    except ValueError as exc:  # infeasible: compare the error
        return type(exc), str(exc)
    return sol, sol.trace


def test_engine_matches_reference_scan():
    for seed in range(200):
        g = instance(seed)
        rng = random.Random(seed)
        top = max(e.weight for e in g.edges)
        delta = max(1, top * (1, 2, 4)[seed % 3] // 2)
        assert outcome(budget_approximate, g, delta) == outcome(
            reference_budget, g, delta
        ), seed
        cut = global_min_cut(g).cost
        whole = sum(e.cost for e in g.edges if e.cost is not None)
        base = cut.units if cut.is_finite else whole
        budget = max(1, base * rng.randint(1, 8) // 4)
        assert best_single_cut(
            TreePricer(g), budget, CutMemo(g)
        ) == reference_single_cut(g, budget), seed
        assert outcome(profit_approximate, g, budget) == outcome(
            reference_profit, g, budget
        ), seed
        # the greedy itself, also where the global min cut answers first
        memo = CutMemo(g)
        greedy = _run_greedy(
            TreePricer(g),
            budget,
            None,
            lambda removed, spent: best_ratio_cut(memo, removed, budget - spent),
        )
        assert greedy == reference_greedy(g, budget), seed


def test_equal_bound_pair_can_still_win():
    # (e0, 4) has bound 4/1 but its cut takes the parallel e1 too: ratio 2 at
    # cost 2.  (e2, 4) has bound 2/1, equal to that ratio, and wins the tie
    # at cost 1, so a scan may stop only below the best ratio, not at it.
    g = Graph(
        3,
        (
            Edge(0, 1, 0, 1),
            Edge(0, 1, 0, 1),
            Edge(1, 2, 2, 1),
            Edge(0, 2, 4, None),
        ),
    )
    weights = g.distinct_weights()
    alive = set(range(g.n_edges))
    best = best_ratio_cut(CutMemo(g), set(), 10)
    assert (best.edge, best.threshold, best.cost) == (2, 4, 1)
    assert best == reference_scan(g, alive, weights, 10)


def test_stale_bounds_never_exceed_fresh_cuts():
    # a table's bound for a pair, from a record over another set, is at
    # most the pair's fresh min cut over the table's P, an infinite
    # recorded cut stays infinite, and a base cut only grows with the
    # threshold
    infinite_bounds = other_sets = 0
    for seed in range(150):
        rng = random.Random(seed)
        n = rng.randint(4, 14)
        g = gen_random(seed, n, rng.randint(n - 1, n + 8), MAX_WEIGHTS[seed % 5], 6)
        g = Graph(
            n,
            tuple(
                Edge(e.u, e.v, e.weight, None if rng.random() < 0.2 else e.cost)
                for e in g.edges
            ),
        )
        memo = CutMemo(g)
        pairs = sorted({(e.u, e.v) for e in g.edges} | {(e.v, e.u) for e in g.edges})
        for u, v in pairs:
            costs = [memo.table(w, ()).cut(u, v).cost for w in memo.weights]
            assert costs == sorted(costs), seed
        # two runs, as two budget guesses: the second starts again from
        # every edge, so its sets need not lie inside the first run's
        for _ in range(2):
            alive = set(range(g.n_edges))
            for _ in range(3):
                alive -= set(rng.sample(sorted(alive), rng.randint(1, max(1, len(alive) // 3))))
                for w in memo.weights:
                    table = memo.table(w, set(range(g.n_edges)) - alive)
                    for u, v in pairs:
                        record = table.records.get((u, v))
                        other_sets += record is not None and record[1] != table.removed
                        fresh = min_st_cut(
                            CutNetwork(g, [i for i in alive if g.edges[i].weight < w]), u, v
                        )
                        bound = table.lower_bound(u, v)
                        assert bound <= fresh.cost, seed
                        infinite_bounds += not bound.is_finite
                        if rng.random() < 0.5:
                            assert table.cut(u, v) == fresh, seed
    assert infinite_bounds and other_sets


def test_equal_removed_set_keeps_its_records(flow_counts):
    # a cut under R = {a}, then the table moved to {b}: back under a new
    # set equal to {a}, the record is the pair's cut again, with no flow
    g = Graph(
        4,
        (
            Edge(0, 1, 0, 1),
            Edge(1, 2, 0, 1),
            Edge(0, 2, 0, 1),
            Edge(2, 3, 0, 1),
            Edge(0, 3, 5, 1),
        ),
    )
    memo = CutMemo(g)
    first = memo.table(5, {2}).cut(0, 1)
    assert (first.edges, first.side) == (frozenset({0}), frozenset({0}))
    # under R = {3} the record bounds the cut by v0 - c(R∖R0) = 1 - c({3})
    assert memo.table(5, {3}).lower_bound(0, 1) == ZERO
    table = memo.table(5, set([2]))
    flows = dict(flow_counts)
    assert table.cut(0, 1) is first
    assert flow_counts == flows
    assert table.lower_bound(0, 1) == first.cost


def test_networks_built_at_most_set_changes(monkeypatch, flow_counts):
    # one table per threshold, which builds a network only for a set it
    # was not already over, and holds one network at a time
    counts = {"changes": 0, "networks": 0}
    tables: dict[tuple[CutMemo, int], CutTable] = {}
    sets: dict[CutTable, frozenset[int]] = {}
    real_table, real_net = CutMemo.table, cuts.CutNetwork.__init__

    def table(memo, threshold, removed):
        found = real_table(memo, threshold, removed)
        assert tables.setdefault((memo, threshold), found) is found
        if sets.get(found) != found.removed:
            sets[found] = found.removed
            counts["changes"] += 1
        return found

    def network(*args):
        counts["networks"] += 1
        real_net(*args)

    monkeypatch.setattr(CutMemo, "table", table)
    monkeypatch.setattr(cuts.CutNetwork, "__init__", network)
    g = gen_random(3, 16, 48, 20, 10)
    # one unit below the global min cut, so the greedy runs
    profit_approximate(g, global_min_cut(g).cost.units - 1)
    flows = flow_counts["completed"] + flow_counts["stopped"]
    assert 0 < counts["networks"] <= counts["changes"] < flows
    for found in tables.values():
        held = list(vars(found).values())
        held += [x for value in held if isinstance(value, dict) for x in value.values()]
        assert sum(isinstance(x, cuts.CutNetwork) for x in held) <= 1


def test_stopped_flows_change_no_answer(monkeypatch, flow_counts):
    # flows that stop at their limit give the same solutions and greedy
    # traces as flows that always run to the end, and complete fewer
    cases = []
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(8, 30)
        g = gen_random(seed, n, rng.randint(3 * n, 10 * n), rng.randint(3, 20), 10)
        top = max(e.weight for e in g.edges)
        cut = global_min_cut(g).cost.units // SCALE
        cases.append((g, max(SCALE, top * rng.randint(1, 2) // 2), SCALE * rng.randint(1, cut - 1)))

    def answers():
        return [
            (outcome(budget_approximate, g, delta), outcome(profit_approximate, g, budget))
            for g, delta, budget in cases
        ]

    limited = answers()
    completed, stopped = flow_counts["completed"], flow_counts["stopped"]
    real = cuts.CutNetwork.max_flow
    monkeypatch.setattr(
        cuts.CutNetwork, "max_flow", lambda net, s, t, *, limit=None: real(net, s, t)
    )
    assert answers() == limited
    assert flow_counts["stopped"] == stopped > 0
    assert completed < flow_counts["completed"] - completed


def test_dense_budget_completes_few_flows(flow_counts):
    # 2,324 flows, every one completed, before flows stopped at the room
    g = gen_random(1, 40, 400, 20, 10)
    sol = budget_approximate(g, 20 * SCALE)
    assert (sol.cost, sol.profit) == (20 * SCALE, ExtendedValue(20 * SCALE))
    assert (len(sol.trace.rounds), sol.trace.budget_guess) == (9, 4 * SCALE)
    assert flow_counts["completed"] < 2324 < flow_counts["completed"] + flow_counts["stopped"]
