import importlib

import pytest

from mstint.budget import CutMemo
from mstint.cuts import global_min_cut
from mstint.generators import gen_bad_example, gen_random
from mstint.mst import TreePricer
from mstint.oracle import oracle_profit, prim_mst_weight
from mstint.profit import best_single_cut, profit_approximate
from mstint.quantities import INFINITY, ZERO, finite

SCALE = 1_000_000

mst_module = importlib.import_module("mstint.mst")


def single_cut(g, budget):
    return best_single_cut(TreePricer(g), budget, CutMemo(g))


def test_best_single_cut_t3(t3):
    cut, value = single_cut(t3, SCALE)
    assert value == finite(2 * SCALE)
    assert cut.edges == frozenset({0})
    # ties in true profit keep the first (edge, W) candidate, so the
    # recorded threshold is the smallest one realizing this cut
    assert cut.threshold == 2 * SCALE
    assert cut.side == frozenset({0})


def test_best_single_cut_unaffordable(t3):
    cut, value = single_cut(t3, SCALE // 2)
    assert cut is None
    assert value == ZERO


def test_best_single_cut_bad_example():
    g, budget = gen_bad_example(100, 4, 5)
    _, value = single_cut(g, budget)
    assert value >= finite(SCALE)  # at least a single path-edge cut


def test_profit_approximate_t3_budget1(t3):
    sol = profit_approximate(t3, SCALE)
    assert sol.edges == frozenset({0})
    assert sol.profit == finite(2 * SCALE)
    assert sol.profit == oracle_profit(t3, SCALE).profit


def test_profit_approximate_t3_budget3_disconnects(t3):
    sol = profit_approximate(t3, 3 * SCALE)
    assert sol.profit == INFINITY
    assert sol.cost <= 3 * SCALE


def test_profit_approximate_bad_example_golden():
    g, budget = gen_bad_example(100, 4, 5)
    sol = profit_approximate(g, budget)
    assert sol.cost <= budget
    # documented prior methods reach only 0.5 on this family
    assert sol.profit == finite(4_500_000)


def test_hard_budget_always_respected():
    for seed in range(40):
        g = gen_random(seed, 6, 10, 5, 5)
        budget = (1 + seed % 5) * SCALE
        sol = profit_approximate(g, budget)
        assert sol.cost <= budget
        # Prim, not the solver's own pricer
        assert sol.profit == prim_mst_weight(g, sol.edges) - prim_mst_weight(g)


def test_result_at_least_both_phases():
    for seed in range(20):
        g = gen_random(seed, 6, 10, 5, 5)
        budget = 2 * SCALE
        _, single = single_cut(g, budget)
        sol = profit_approximate(g, budget)
        assert sol.profit >= single


def test_rejects_bad_budget(t3):
    with pytest.raises(ValueError):
        profit_approximate(t3, 0)


def test_deterministic():
    g = gen_random(31, 7, 12, 5, 5)
    assert profit_approximate(g, 2 * SCALE) == profit_approximate(g, 2 * SCALE)


def test_profit_mst_calls_are_constant(monkeypatch):
    calls = 0
    real_mst = mst_module.mst

    def counted_mst(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real_mst(*args, **kwargs)

    monkeypatch.setattr(mst_module, "mst", counted_mst)
    rounds = set()
    for seed in range(5):
        g = gen_random(seed, 20, 60, 20, 10)
        complete = global_min_cut(g).cost.units
        for budget in (complete // 4, complete // 2, complete - 1):
            calls = 0
            sol = profit_approximate(g, budget)
            rounds.add(len(sol.trace.rounds))
            # one, whatever the rounds and candidates: the run's pricer
            # checks connectivity and prices both phases and the answer
            assert calls == 1, (seed, budget)
        calls = 0
        assert profit_approximate(g, complete).profit == INFINITY
        assert calls == 1  # the same pricer prices the complete cut
    assert len(rounds) >= 4
