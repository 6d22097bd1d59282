import importlib

import pytest

from conftest import price
from mstint import eps
from mstint.eps import NoFiniteCutError, class_components, eps_increase
from mstint.generators import gen_random
from mstint.graph import Edge, Graph
from mstint.mst import DisconnectedGraphError, mst
from mstint.oracle import oracle_eps, prim_mst_weight
from mstint.quantities import INFINITY, ZERO, finite

mst_module = importlib.import_module("mstint.mst")


def test_t3(t3):
    sol = eps_increase(t3)
    assert sol.edges == frozenset({0})  # tie with e1's cut breaks to edge 0
    assert sol.cost == 1_000_000
    assert sol.profit == finite(2_000_000)


def test_p2(p2):
    sol = eps_increase(p2)
    assert sol.edges == frozenset({0})
    assert sol.cost == 3_000_000
    assert sol.profit == INFINITY


def test_four_cycle_unit_weights():
    # weights all 1, costs 1..4: optimal is the two cheapest edges around
    # one endpoint of a tree edge
    g = Graph(
        4,
        (
            Edge(0, 1, 1_000_000, 1_000_000),
            Edge(1, 2, 1_000_000, 2_000_000),
            Edge(2, 3, 1_000_000, 3_000_000),
            Edge(3, 0, 1_000_000, 4_000_000),
        ),
    )
    sol = eps_increase(g)
    assert sol.cost == oracle_eps(g).cost
    assert sol.profit > ZERO


def test_trace_cut_is_partial_cut(t3):
    sol = eps_increase(t3)
    (cut,) = sol.cuts
    assert cut.edges == sol.edges
    assert cut.threshold == 2_000_000  # next distinct weight above w(e0)=1


def test_matches_oracle_on_random_instances():
    for seed in range(120):
        n = 3 + seed % 6
        m = max(n - 1, 3 + seed % 10)
        g = gen_random(seed, n, m, 5, 5)
        sol = eps_increase(g)
        assert sol.cost == oracle_eps(g).cost
        assert price(g, sol.edges) > ZERO
        # Prim, not the solver's own pricer
        assert sol.profit == prim_mst_weight(g, sol.edges) - prim_mst_weight(g)


@pytest.mark.parametrize("max_weight", [0, 3])
def test_eps_increase_5000_vertices_few_weights(max_weight):
    # few distinct weights put most of the graph into one class component;
    # no nonempty removal set costs less than the cheapest edge
    g = gen_random(1, 5000, 20000, max_weight, 10)
    sol = eps_increase(g)
    assert sol.cost == min(e.cost for e in g.edges)
    assert prim_mst_weight(g, sol.edges) > prim_mst_weight(g)


def class_component_count(g: Graph) -> int:
    """Components with >= 2 vertices of each tree weight's auxiliary graph,
    rebuilt from scratch per weight: G with lighter edges contracted."""
    count = 0
    for w in sorted({g.edges[i].weight for i in mst(g).edges}):
        cls = list(range(g.n_vertices))
        for _ in range(g.n_vertices):  # label propagation to a fixed point
            for e in g.edges:
                if e.weight < w:
                    cls[e.u] = cls[e.v] = min(cls[e.u], cls[e.v])
        pairs = [(cls[e.u], cls[e.v]) for e in g.edges if e.weight == w]
        comp = {c: c for c in cls}
        for _ in range(g.n_vertices):
            for a, b in pairs:
                comp[a] = comp[b] = min(comp[a], comp[b])
        count += len({comp[a] for a, b in pairs if a != b})
    return count


def test_one_global_min_cut_per_class_component(monkeypatch):
    calls = []
    real = eps.min_cut

    def counting(n, ends, below=None):
        calls.append(n)
        return real(n, ends, below)

    monkeypatch.setattr(eps, "min_cut", counting)
    for seed in (1, 5, 9):
        g = gen_random(seed, 7, 12, 5, 5)
        calls.clear()
        eps_increase(g)
        # a component whose every edge costs at least the best cut is skipped
        assert 1 <= len(calls) <= class_component_count(g)
    # a unit-weight cycle is one class with one component
    cycle = Graph(5, tuple(Edge(i, (i + 1) % 5, 1, 1) for i in range(5)))
    calls.clear()
    eps_increase(cycle)
    assert len(calls) == class_component_count(cycle) == 1


def test_eps_mst_calls(monkeypatch):
    calls = 0
    real_mst = mst_module.mst

    def counted_mst(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real_mst(*args, **kwargs)

    monkeypatch.setattr(mst_module, "mst", counted_mst)
    for seed in range(5):
        for max_weight in (0, 3, 1000):
            g = gen_random(seed, 20, 60, max_weight, 10)
            calls = 0
            eps_increase(g)
            # one: the run's pricer checks connectivity and prices the answer
            assert calls == 1, (seed, max_weight)


def test_rejects_disconnected():
    g = Graph(3, (Edge(0, 1, 1, 1),))
    with pytest.raises(DisconnectedGraphError):
        eps_increase(g)
    with pytest.raises(ValueError):
        eps_increase(Graph(1, ()))


def test_no_finite_cut():
    g = Graph(2, (Edge(0, 1, 1_000_000, None),))
    with pytest.raises(NoFiniteCutError):
        eps_increase(g)


def test_contracted_instance_t3(t3):
    tree = mst(t3)
    # e2 (w=3) joins a single class of G_<3, so only two classes have a
    # component; at w=2, e0 contracts {0,1} and e2 is dropped.  The member
    # lists are live, so each component's are copied as it is yielded
    components = []
    for triples, members, _ in class_components(t3):
        roots = dict.fromkeys(r for _, ru, rv in triples for r in (ru, rv))
        components.append(([i for i, _, _ in triples], [list(members[r]) for r in roots]))
    first, second = components
    assert first[0] == [0]
    assert second[0] == [1]
    assert sorted(map(sorted, second[1])) == [[0, 1], [2]]  # two roots
    assert 1 in tree.edges


def test_next_distinct_weight(t3, p2):
    # each class cut is taken at W', the next distinct weight above its class
    assert [w for _, _, w in class_components(t3)] == [2_000_000, 3_000_000]
    assert [w for _, _, w in class_components(p2)] == [None]


def test_deterministic():
    g = gen_random(42, 7, 12, 5, 5)
    assert eps_increase(g) == eps_increase(g)
