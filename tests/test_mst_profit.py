import random

import pytest

from conftest import UnionFind, brute_mst_weight, connected_random_subset, price
from mstint.generators import gen_random
from mstint.graph import Edge, Graph
from mstint.mst import (
    DisconnectedGraphError,
    TreePricer,
    mst,
    partial_cut,
)
from mstint.oracle import prim_mst_weight
from mstint.quantities import INFINITY, ZERO, finite


def test_mst_t3(t3):
    forest = mst(t3)
    assert forest.edges == frozenset({0, 1})
    assert forest.weight == finite(3_000_000)


def test_mst_disconnected(p2):
    assert mst(Graph(3, p2.edges)).weight == INFINITY  # vertex 2 isolated


def test_mst_single_vertex():
    forest = mst(Graph(1, ()))
    assert forest.edges == frozenset()
    assert forest.weight == ZERO


def test_mst_matches_bruteforce():
    for seed in range(40):
        g = gen_random(seed, 6, 9, 5, 5)
        assert mst(g).weight == brute_mst_weight(g)


def test_mst_tie_break_lowest_index():
    g = Graph(2, (Edge(0, 1, 5, 1), Edge(0, 1, 5, 1)))
    assert mst(g).edges == frozenset({0})


def test_profit_t3(t3):
    assert price(t3, {0}) == finite(2_000_000)
    assert price(t3, set()) == ZERO
    assert price(t3, {0, 1}) == INFINITY  # vertex 1 isolated


def test_profit_rejects_disconnected(p2):
    g = Graph(3, p2.edges)  # vertex 2 isolated
    with pytest.raises(DisconnectedGraphError):
        price(g, set())


def test_profit_single_vertex_graph():
    assert price(Graph(1, ()), set()) == ZERO


def test_pricer_without_tree_edges_is_zero(t3):
    pricer = TreePricer(t3)
    assert pricer.tree.edges == frozenset({0, 1})
    pricer._joins = None  # a set with no tree edge must not scan
    assert pricer.price({2}) == ZERO
    assert pricer.price(set()) == ZERO
    assert TreePricer(Graph(1, ())).price(set()) == ZERO


def test_pricer_rejects_disconnected(p2):
    with pytest.raises(DisconnectedGraphError, match="graph is disconnected"):
        TreePricer(Graph(3, p2.edges))


def test_profit_is_the_pricer():
    rng = random.Random(0x7EE5)
    for seed in range(40):
        g = gen_random(seed, 2 + seed % 9, 1 + seed % 9 + 2 * (seed % 5), 3, 5)
        pricer = TreePricer(g)
        for _ in range(10):
            picks = [i for i in range(g.n_edges) if rng.random() < 0.3]
            assert pricer.price(set(picks)) == prim_mst_weight(g, picks) - prim_mst_weight(g)
            # a collection with repeats prices as its set
            assert pricer.price(picks + picks) == pricer.price(frozenset(picks))


def test_partial_cut_t3(t3):
    assert partial_cut(t3, {0}, 3_000_000).edges == frozenset({0})
    assert partial_cut(t3, {0}, None).edges == frozenset({0, 2})
    assert partial_cut(t3, {1}, 1_000_000).edges == frozenset()


def test_partial_cut_rejects_improper_side(t3):
    with pytest.raises(ValueError):
        partial_cut(t3, set(), None)
    with pytest.raises(ValueError):
        partial_cut(t3, {0, 1, 2}, None)


def test_lemma2_property():
    """profit(g, C_G(S,W)) >= W - w(e) for every crossing edge e."""
    for seed in range(30):
        g = gen_random(seed, 6, 9, 5, 5)
        rng = random.Random(seed)
        side = frozenset(
            rng.sample(range(g.n_vertices), rng.randint(1, g.n_vertices - 1))
        )
        for w_threshold in g.distinct_weights():
            cut = partial_cut(g, side, w_threshold)
            complete = partial_cut(g, side, None)
            for e in complete.edges:
                bound = finite(max(0, w_threshold - g.edges[e].weight))
                assert price(g, cut.edges) >= bound


def test_blue_rule_preservation():
    """MST(G - F) has an MST containing T - F (checked by weight equality)."""
    for seed in range(30):
        g = gen_random(seed, 7, 12, 5, 5)
        rng = random.Random(seed + 1000)
        removed = connected_random_subset(g, rng)
        tree = mst(g)
        kept = tree.edges - removed
        # contract kept tree edges, then find the cheapest completion
        uf = UnionFind(g.n_vertices)
        for i in kept:
            uf.union(g.edges[i].u, g.edges[i].v)
        order = sorted(
            (i for i in range(g.n_edges) if i not in removed),
            key=lambda i: (g.edges[i].weight, i),
        )
        total = sum(g.edges[i].weight for i in kept)
        for i in order:
            if uf.union(g.edges[i].u, g.edges[i].v):
                total += g.edges[i].weight
        assert prim_mst_weight(g, removed) == finite(total)


def test_supermodularity_single_edge():
    """Lemma: removing more first never lowers an edge's marginal profit."""
    for seed in range(60):
        g = gen_random(seed, 6, 10, 5, 5)
        rng = random.Random(seed + 5000)
        b = connected_random_subset(g, rng)
        rest = [i for i in range(g.n_edges) if i not in b]
        if not rest:
            continue
        e = rng.choice(rest)
        g_minus_b = Graph(
            g.n_vertices, tuple(g.edges[i] for i in range(g.n_edges) if i not in b)
        )
        new_e = rest.index(e)
        assert price(g_minus_b, {new_e}) >= price(g, {e})


def test_supermodularity_sets():
    """Corollary: p_{G-B}(A) >= p_G(A) for disjoint A, B."""
    for seed in range(60):
        g = gen_random(seed, 6, 10, 5, 5)
        rng = random.Random(seed + 9000)
        b = connected_random_subset(g, rng)
        rest = [i for i in range(g.n_edges) if i not in b]
        a = frozenset(rng.sample(rest, rng.randint(0, min(3, len(rest)))))
        g_minus_b = Graph(
            g.n_vertices, tuple(g.edges[i] for i in range(g.n_edges) if i not in b)
        )
        a_new = frozenset(rest.index(i) for i in a)
        assert price(g_minus_b, a_new) >= price(g, a)


def test_profit_monotone():
    for seed in range(30):
        g = gen_random(seed, 6, 10, 5, 5)
        rng = random.Random(seed + 12000)
        small = frozenset(rng.sample(range(g.n_edges), 2))
        large = small | frozenset(rng.sample(range(g.n_edges), 4))
        assert price(g, small) <= price(g, large)

