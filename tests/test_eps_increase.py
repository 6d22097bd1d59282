import importlib

import pytest

from conftest import price
from mstint import eps
from mstint.eps import NoFiniteCutError, class_components, eps_increase
from mstint.generators import gen_random
from mstint.graph import Edge, Graph
from mstint.mst import DisconnectedGraphError, TreePricer, mst
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
    counts = {"mst": 0, "partial_cut": 0, "pieces": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(mst_module, "mst", counted("mst", mst_module.mst))
    monkeypatch.setattr(eps, "partial_cut", counted("partial_cut", eps.partial_cut))
    monkeypatch.setattr(TreePricer, "pieces", counted("pieces", TreePricer.pieces))
    for seed in range(5):
        for max_weight in (0, 3, 1000):
            g = gen_random(seed, 20, 60, max_weight, 10)
            counts.update(dict.fromkeys(counts, 0))
            eps_increase(g)
            # one: the run's pricer checks connectivity and prices the answer
            assert counts["mst"] == 1, (seed, max_weight)
            # only the returned cut maps back to vertices, once, through the
            # pricer's pieces
            assert counts["partial_cut"] == 1, (seed, max_weight)
            assert counts["pieces"] == 1, (seed, max_weight)


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
    # component; at w=2, e0 contracts {0,1} and e2 is dropped
    components = [triples for triples, _ in class_components(t3)]
    assert [[i for i, _, _ in triples] for triples in components] == [[0], [1]]
    ((_, ru, rv),) = components[1]
    assert ru in (0, 1) and rv == 2  # two classes: {0, 1} and {2}
    assert 1 in tree.edges


def test_next_distinct_weight(t3, p2):
    # each class cut is taken at W', the next distinct weight above its class
    assert [w for _, w in class_components(t3)] == [2_000_000, 3_000_000]
    assert [w for _, w in class_components(p2)] == [None]


def test_roots_name_pieces_of_the_tree():
    """A root of class w stands for its class of G_<w, which is a piece of
    T minus T's edges of weight >= w; each class-w edge between two such
    pieces is in exactly one yielded triple."""
    for seed in range(200):
        n = 2 + seed % 13
        g = gen_random(seed, n, n - 1 + seed % (2 * n), (0, 2, 5, 1000)[seed % 4], 5)
        pricer = TreePricer(g)
        listed: dict[int, list[int]] = {}
        for triples, _ in class_components(g):
            w = g.edges[triples[0][0]].weight
            piece = pricer.pieces([i for i in pricer.tree.edges if g.edges[i].weight >= w])
            for i, ru, rv in triples:
                e = g.edges[i]
                assert e.weight == w, seed
                assert piece[ru] != piece[rv], seed
                assert (piece[e.u], piece[e.v]) == (piece[ru], piece[rv]), seed
                listed.setdefault(w, []).append(i)
        for w in {e.weight for e in g.edges}:
            piece = pricer.pieces([i for i in pricer.tree.edges if g.edges[i].weight >= w])
            crossing = [
                i for i, e in enumerate(g.edges) if e.weight == w and piece[e.u] != piece[e.v]
            ]
            assert sorted(listed.get(w, [])) == crossing, seed


def test_deterministic():
    g = gen_random(42, 7, 12, 5, 5)
    assert eps_increase(g) == eps_increase(g)


def test_unit_cycle_needs_no_adjacency_pass(monkeypatch):
    # on a cycle of unit edges every vertex has degree 2 and each edge
    # carries half of it, so Padberg and Rinaldi's test 2 merges the whole
    # class before any maximum-adjacency pass; without the test each pass
    # pops about n heap entries and the cut takes about n passes
    cuts = importlib.import_module("mstint.cuts")
    n = 2000
    g = Graph(n, tuple(Edge(i, (i + 1) % n, 1, 1) for i in range(n)))
    pops = 0
    real_heappop = cuts.heappop

    def counted_heappop(heap):
        nonlocal pops
        pops += 1
        return real_heappop(heap)

    monkeypatch.setattr(cuts, "heappop", counted_heappop)
    assert eps_increase(g).cost == 2
    assert pops <= n, pops
