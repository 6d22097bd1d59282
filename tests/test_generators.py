import pytest

from conftest import brute_components, price
from mstint.generators import gen_bad_example, gen_random
from mstint.mst import mst
from mstint.oracle import oracle_profit, prim_mst_weight
from mstint.quantities import finite

SCALE = 1_000_000


def test_gen_random_structure():
    g = gen_random(1, 6, 10, 5, 5)
    assert g.n_vertices == 6
    assert g.n_edges == 10
    assert len(brute_components(g)) == 1
    for e in g.edges:
        assert 0 <= e.weight <= 5 * SCALE and e.weight % SCALE == 0
        assert SCALE <= e.cost <= 5 * SCALE and e.cost % SCALE == 0


def test_gen_random_deterministic():
    assert gen_random(9, 7, 12, 5, 5) == gen_random(9, 7, 12, 5, 5)
    assert gen_random(9, 7, 12, 5, 5) != gen_random(10, 7, 12, 5, 5)


def test_gen_random_rejects_impossible():
    with pytest.raises(ValueError):
        gen_random(1, 4, 2, 5, 5)
    with pytest.raises(ValueError):
        gen_random(1, 4, 5, 5, 0)
    with pytest.raises(ValueError):
        gen_random(1, 5, 10**11, 5, 5)


def test_bad_example_budget_and_shape():
    g, budget = gen_bad_example(100, 5)
    assert budget == 4 * SCALE + SCALE // 2
    assert g.n_vertices == 9  # 5 path vertices + 4 special
    assert g.n_edges == 4 + 5 + 5  # path + star + five special edges


def test_bad_example_mst_is_w_plus_1():
    g, _ = gen_bad_example(100, 5)
    assert mst(g).weight == finite(101 * SCALE)


def test_bad_example_optimum_golden():
    g, budget = gen_bad_example(100, 5)
    opt = oracle_profit(g, budget, finite_only=True)
    assert opt.profit == finite(4_500_000)  # b - 1/2
    assert prim_mst_weight(g, opt.edges) == finite(105_500_000)  # W + b + 1/2


def test_bad_example_v2v3_removal_golden():
    g, _ = gen_bad_example(100, 5)
    (v2v3,) = [
        i
        for i, e in enumerate(g.edges)
        if {e.u, e.v} == {g.n_vertices - 3, g.n_vertices - 2}
    ]
    assert g.edges[v2v3].cost == 5 * SCALE  # B + 1: just over the budget
    assert prim_mst_weight(g, {v2v3}) == finite(201 * SCALE)  # 2W + 1
    assert price(g, {v2v3}) == finite(100 * SCALE)


def test_bad_example_parameter_validation():
    with pytest.raises(ValueError):
        gen_bad_example(5, 5)  # heavy weight too small
    with pytest.raises(ValueError):
        gen_bad_example(100, 1)
