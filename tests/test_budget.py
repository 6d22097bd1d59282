import importlib
from fractions import Fraction

import pytest

from conftest import price
from mstint.budget import (
    CutMemo,
    InfeasibleError,
    _doubling,
    _relaxed_budget_cap,
    _run_greedy,
    best_ratio_cut,
    budget_approximate,
)
from mstint.generators import gen_random
from mstint.graph import Edge, Graph
from mstint.mst import TreePricer, mst
from mstint.oracle import oracle_budget, prim_mst_weight
from mstint.quantities import INFINITY, finite, log2_bounds

SCALE = 1_000_000

budget_module = importlib.import_module("mstint.budget")
mst_module = importlib.import_module("mstint.mst")


def _greedy_at(g, budget, delta):
    pricer, memo = TreePricer(g), CutMemo(g)
    return _run_greedy(
        pricer, budget, delta, lambda removed, _spent: best_ratio_cut(memo, removed, budget)
    )


def test_greedy_trace_first_round_ratio(t3):
    # best scan candidate is (edge (0,1), W=3): cut {e0}, ratio (3-1)/1 = 2
    edges, trace = _greedy_at(t3, SCALE, 2 * SCALE)
    assert edges == frozenset({0})
    assert trace.outcome == "reached_delta"
    assert trace.rounds[0].claimed_ratio == Fraction(2)
    assert trace.rounds[0].cut.edges == frozenset({0})


def test_greedy_empty_is_in_band_failure(t3):
    # budget guess too small for any cut
    edges, trace = _greedy_at(t3, SCALE // 2, 2 * SCALE)
    assert edges == frozenset()
    assert trace.rounds == ()
    assert trace.outcome == "no_progress"


def test_exhausted_guess_returns_its_partial_set_and_doubles():
    # at a guess of one unit the greedy spends its relaxed cap in eight
    # unit cuts and stops short of delta = w(T); the next guess reaches it
    g = gen_random(54, 10, 24, 20, 1)
    delta = mst(g).weight.units
    pricer, memo = TreePricer(g), CutMemo(g)
    runs = []

    def run(budget):
        runs.append(
            _run_greedy(
                pricer, budget, delta, lambda removed, _spent: best_ratio_cut(memo, removed, budget)
            )
        )
        return runs[-1]

    result = _doubling(g, run)
    (partial, first), (edges, second) = runs
    assert (first.budget_guess, first.outcome) == (SCALE, "budget_exhausted")
    assert len(first.rounds) == 8
    assert partial == frozenset().union(*(r.cut.edges for r in first.rounds))
    assert first.rounds[-1].cumulative_cost >= _relaxed_budget_cap(g.n_vertices, SCALE)
    assert price(g, partial) < finite(delta)
    assert (second.budget_guess, second.outcome) == (2 * SCALE, "reached_delta")
    assert result == (edges, second)


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


def test_rejects_nonpositive_delta(t3):
    with pytest.raises(ValueError):
        budget_approximate(t3, 0)


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
        sol = budget_approximate(g, SCALE)
        assert sol.profit >= finite(SCALE)
        assert Fraction(sol.cost) <= bound, seed


def test_profit_recomputed_independently():
    for seed in range(15):
        g = gen_random(seed, 6, 10, 5, 5)
        sol = budget_approximate(g, SCALE)
        # Prim, not the solver's own pricer
        assert sol.profit == prim_mst_weight(g, sol.edges) - prim_mst_weight(g)
        assert sol.cost == sum(g.edges[i].cost for i in sol.edges)


def test_solution_cuts_cover_solution_edges():
    for seed in range(10):
        g = gen_random(seed, 6, 10, 5, 5)
        sol = budget_approximate(g, SCALE)
        if sol.cuts:
            assert frozenset().union(*(c.edges for c in sol.cuts)) == sol.edges


def test_deterministic(t3):
    g = gen_random(17, 7, 12, 5, 5)
    assert budget_approximate(g, SCALE) == budget_approximate(g, SCALE)


def test_budget_mst_calls_per_guess(monkeypatch):
    counts = {"mst": 0, "guesses": 0}
    real_mst, real_run = mst_module.mst, budget_module._run_greedy

    def counted_mst(*args, **kwargs):
        counts["mst"] += 1
        return real_mst(*args, **kwargs)

    def counted_run(*args, **kwargs):
        counts["guesses"] += 1
        return real_run(*args, **kwargs)

    monkeypatch.setattr(mst_module, "mst", counted_mst)
    monkeypatch.setattr(budget_module, "_run_greedy", counted_run)
    guesses = set()
    for seed in range(5):
        g = gen_random(seed, 20, 60, 20, 10)
        for delta in (SCALE, 5 * SCALE, 20 * SCALE):
            counts.update(mst=0, guesses=0)
            budget_approximate(g, delta)
            # one pricer for the run: the connectivity check, every guess's
            # rounds and the answer's profit
            assert counts["mst"] == 1, (seed, delta)
            guesses.add(counts["guesses"])
    assert guesses >= {1, 2, 3}
