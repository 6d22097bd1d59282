from fractions import Fraction

import pytest

from mstint.budget import (
    InfeasibleError,
    budget_approximate,
    budget_approximate_fast,
    collect_candidate_cuts,
    greedy,
    reduce_budget_range,
)
from mstint.cuts import mincut_call_count, reset_mincut_calls
from mstint.generators import gen_random
from mstint.graph import Edge, Graph
from mstint.mst import profit
from mstint.oracle import oracle_budget
from mstint.quantities import INFINITY, finite, log2_bounds

SCALE = 1_000_000


def test_greedy_t3_reaches_delta(t3):
    result = greedy(t3, SCALE, 2 * SCALE, t3.distinct_weights())
    assert result == frozenset({0})


def test_greedy_trace_first_round_ratio(t3):
    # best scan candidate is (edge (0,1), W=3): cut {e0}, ratio (3-1)/1 = 2
    from mstint.budget import CutMemo, _run_greedy, best_ratio_cut

    memo = CutMemo(t3, t3.distinct_weights())
    edges, trace = _run_greedy(
        t3,
        SCALE,
        2 * SCALE,
        lambda alive, b, _s: best_ratio_cut(memo, alive, b),
    )
    assert edges == frozenset({0})
    assert trace.outcome == "reached_delta"
    assert trace.rounds[0].claimed_ratio == Fraction(2)
    assert trace.rounds[0].cut.edges == frozenset({0})


def test_greedy_empty_is_in_band_failure(t3):
    # budget guess too small for any cut
    result = greedy(t3, SCALE // 2, 2 * SCALE, t3.distinct_weights())
    assert result == frozenset()


def test_budget_approximate_t3(t3):
    sol = budget_approximate(t3, 2 * SCALE)
    assert sol.edges == frozenset({0})
    assert sol.cost == SCALE
    assert sol.profit == finite(2 * SCALE)
    assert sol.cost == oracle_budget(t3, 2 * SCALE).cost  # optimal here


def test_budget_approximate_p2_fallback(p2):
    sol = budget_approximate(p2, SCALE)
    assert sol.edges == frozenset({0})
    assert sol.cost == 3 * SCALE
    assert sol.profit == INFINITY


def test_fast_matches_contract_on_t3(t3):
    slow = budget_approximate(t3, 2 * SCALE)
    fast = budget_approximate_fast(t3, 2 * SCALE)
    assert fast.edges == slow.edges
    assert fast.profit >= finite(2 * SCALE)


def test_rejects_nonpositive_delta(t3):
    with pytest.raises(ValueError):
        budget_approximate(t3, 0)
    with pytest.raises(ValueError):
        budget_approximate_fast(t3, -SCALE)


def test_infeasible_when_everything_uncuttable():
    g = Graph(2, (Edge(0, 1, SCALE, None),))
    with pytest.raises(InfeasibleError):
        budget_approximate(g, SCALE)


def test_guarantee_on_random_instances():
    for seed in range(40):
        n = 5 + seed % 4
        g = gen_random(seed, n, n + 4, 5, 5)
        opt = oracle_budget(g, SCALE)
        lo, _ = log2_bounds(n)
        bound = (2 + 4 * lo) * opt.cost
        for solver in (budget_approximate, budget_approximate_fast):
            sol = solver(g, SCALE)
            assert sol.profit >= finite(SCALE)
            assert Fraction(sol.cost) <= bound, (seed, solver.__name__)


def test_profit_recomputed_independently():
    for seed in range(15):
        g = gen_random(seed, 6, 10, 5, 5)
        sol = budget_approximate(g, SCALE)
        assert sol.profit == profit(g, sol.edges)
        assert sol.cost == sum(g.edges[i].cost for i in sol.edges)


def _cuttable_pairs(g):
    """Distinct (u, v, W) with W above the weight of a finite-cost edge
    (u, v): the pairs that can give a finite cut, one min cut each."""
    return {
        (e.u, e.v, w)
        for e in g.edges
        if e.cost is not None
        for w in g.distinct_weights()
        if w > e.weight
    }


def test_collect_candidate_cuts_call_count(t3):
    reset_mincut_calls()
    pool = collect_candidate_cuts(t3, t3.distinct_weights())
    assert mincut_call_count() == len(_cuttable_pairs(t3)) == 3
    # every pooled candidate has positive claimed gain and finite cost
    assert all(c.gain > 0 and c.cost > 0 for c in pool)


def test_fast_variant_computes_cuts_once():
    g = gen_random(2, 6, 9, 5, 5)
    reset_mincut_calls()
    budget_approximate_fast(g, SCALE)
    # one pool cut per cuttable pair (edges 4 and 5 are parallel, same
    # weight, and share theirs) plus one global min cut for the fallback
    assert mincut_call_count() == len(_cuttable_pairs(g)) + 1 == 14


def test_reduce_budget_range_t3(t3):
    lower, upper = reduce_budget_range(t3, 2 * SCALE)
    assert lower == SCALE
    assert upper == 3 * SCALE


def test_reduce_budget_range_uniform_cost():
    g = gen_random(3, 6, 9, 5, 1)  # all costs 1
    lower, upper = reduce_budget_range(g, SCALE)
    assert lower == SCALE
    assert upper == g.n_edges * SCALE


def test_reduce_budget_range_huge_delta(t3):
    lower, _ = reduce_budget_range(t3, 1000 * SCALE)
    assert lower == SCALE  # disconnection reached at cost threshold 1


def test_reduce_budget_range_infeasible():
    g = Graph(2, (Edge(0, 1, SCALE, None),))
    with pytest.raises(InfeasibleError):
        reduce_budget_range(g, SCALE)


def test_solution_cuts_cover_solution_edges():
    for seed in range(10):
        g = gen_random(seed, 6, 10, 5, 5)
        sol = budget_approximate(g, SCALE)
        if sol.cuts:
            assert frozenset().union(*(c.edges for c in sol.cuts)) == sol.edges


def test_deterministic(t3):
    g = gen_random(17, 7, 12, 5, 5)
    assert budget_approximate(g, SCALE) == budget_approximate(g, SCALE)
    assert budget_approximate_fast(g, SCALE) == budget_approximate_fast(g, SCALE)
