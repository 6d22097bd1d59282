import random

import pytest

from conftest import (
    brute_components,
    brute_min_st_cut_cost,
    brute_min_st_cut_sides,
    reference_min_st_cut,
    stoer_wagner_cost,
)
from mstint.cuts import CutNetwork, global_min_cut, min_cut, min_st_cut
from mstint.generators import gen_random
from mstint.graph import Edge, Graph
from mstint.quantities import INFINITY, ZERO, finite


def test_t3_weight_filtered_cut(t3):
    light = [i for i, e in enumerate(t3.edges) if e.weight < 2_000_000]
    cut = min_st_cut(CutNetwork(t3, light), 0, 1)
    assert cut.edges == frozenset({0})
    assert cut.cost == finite(1_000_000)


def test_t3_unfiltered_cut(t3):
    cut = min_st_cut(CutNetwork(t3, range(t3.n_edges)), 0, 1)
    assert cut.cost == finite(2_000_000)
    # side-canonical: one of the two brute-force minimum sides
    assert cut.side in brute_min_st_cut_sides(t3, 0, 1, range(3))


def test_t3_empty_filter_is_zero_cut(t3):
    light = [i for i, e in enumerate(t3.edges) if e.weight < 1_000_000]
    cut = min_st_cut(CutNetwork(t3, light), 0, 2)
    assert cut.edges == frozenset()
    assert cut.cost == ZERO


def test_infinite_cost_edges_are_uncuttable():
    g = Graph(2, (Edge(0, 1, 0, None),))
    assert min_st_cut(CutNetwork(g, range(g.n_edges)), 0, 1).cost == INFINITY


def test_global_min_cut_t3(t3):
    assert global_min_cut(t3).cost == finite(2_000_000)


def test_global_min_cut_p2(p2):
    cut = global_min_cut(p2)
    assert cut.edges == frozenset({0})
    assert cut.cost == finite(3_000_000)


def test_global_min_cut_raised_parallel_cost(t3):
    g = Graph(3, t3.edges[:2] + (Edge(0, 2, 3_000_000, 10_000_000),))
    cut = global_min_cut(g)
    assert cut.cost == finite(2_000_000)
    assert cut.edges == frozenset({0, 1})


def test_min_cut_matches_bruteforce_random():
    for seed in range(40):
        g = gen_random(seed, 6, 10, 5, 5)
        s, t = 0, 1 + seed % (g.n_vertices - 1)
        cut = min_st_cut(CutNetwork(g, range(g.n_edges)), s, t)
        assert cut.cost == brute_min_st_cut_cost(g, s, t, range(g.n_edges))


def test_min_cut_matches_bruteforce_with_inf_edges():
    rng = random.Random(7)
    for seed in range(20):
        g = gen_random(seed, 5, 8, 4, 4)
        edges = tuple(
            Edge(e.u, e.v, e.weight, None if rng.random() < 0.25 else e.cost)
            for e in g.edges
        )
        g = Graph(g.n_vertices, edges)
        cut = min_st_cut(CutNetwork(g, range(g.n_edges)), 0, g.n_vertices - 1)
        assert cut.cost == brute_min_st_cut_cost(
            g, 0, g.n_vertices - 1, range(g.n_edges)
        )


def test_s_equals_t_rejected(t3):
    with pytest.raises(ValueError):
        min_st_cut(CutNetwork(t3, range(t3.n_edges)), 1, 1)


def test_min_cut_needs_two_vertices():
    # one vertex has no cut: not even the empty side of cost 0
    for n in (0, 1):
        with pytest.raises(ValueError):
            min_cut(n, [])
    with pytest.raises(ValueError):
        global_min_cut(Graph(1, ()))
    assert min_cut(2, []) == (0, {0})


def brute_global_min_cut_cost(g: Graph):
    return min(
        brute_min_st_cut_cost(g, 0, t, range(g.n_edges)) for t in range(1, g.n_vertices)
    )


def test_global_min_cut_matches_bruteforce():
    rng = random.Random(11)
    disconnected = infinite = 0
    for seed in range(300):
        n = 2 + seed % 9
        edges = []
        for _ in range(rng.randint(0, 3 * n)):
            u, v = rng.sample(range(n), 2)
            cost = None if rng.random() < 0.2 else rng.randint(1, 6)
            edges.append(Edge(u, v, 0, cost))
        g = Graph(n, tuple(edges))
        cut = global_min_cut(g)
        assert cut.cost == brute_global_min_cut_cost(g), seed
        assert 0 in cut.side and len(cut.side) < n
        crossing = {
            i for i, e in enumerate(g.edges) if (e.u in cut.side) != (e.v in cut.side)
        }
        assert cut.edges == crossing
        disconnected += len(brute_components(g)) > 1
        infinite += cut.cost == INFINITY
    assert disconnected >= 20 and infinite >= 20


def differential_graphs():
    """About 300 seeded graphs for the global min cut: random multigraphs
    with `inf` costs, parallel edges and disconnected cases, then cycles,
    grids and two to four dense parts joined by a few light edges."""
    rng = random.Random(19)
    for seed in range(220):
        n = 2 + seed % 24
        edges = []
        for _ in range(rng.randint(0, 4 * n)):
            u, v = rng.sample(range(n), 2)
            edges.append(Edge(u, v, 0, None if rng.random() < 0.3 else rng.randint(1, 9)))
        for e in rng.sample(edges, min(3, len(edges))):
            edges.append(Edge(e.v, e.u, 0, rng.randint(1, 9)))
        yield Graph(n, tuple(edges))
    for n in range(3, 23):
        costs = [1] * n if n % 2 else [rng.randint(1, 5) for _ in range(n)]
        yield Graph(n, tuple(Edge(i, (i + 1) % n, 0, costs[i]) for i in range(n)))
    for rows in range(2, 7):
        for cols in range(rows, rows + 4):
            def at(r, c):
                return r * cols + c
            edges = [Edge(at(r, c), at(r, c + 1), 0, 1) for r in range(rows) for c in range(cols - 1)]
            edges += [Edge(at(r, c), at(r + 1, c), 0, 1) for r in range(rows - 1) for c in range(cols)]
            yield Graph(rows * cols, tuple(edges))
    for k in range(40):
        # dense parts joined by light edges: the min cut is below every degree
        sizes = [rng.randint(2, 10) for _ in range(2 + k % 3)]
        starts = [sum(sizes[:i]) for i in range(len(sizes))]
        edges = []
        for base, size in zip(starts, sizes):
            for i in range(size):
                for j in range(i + 1, size):
                    edges.append(Edge(base + i, base + j, 0, rng.randint(3, 9)))
        for a, b in zip(range(len(sizes)), range(1, len(sizes))):
            for _ in range(rng.randint(1, 3)):
                u = starts[a] + rng.randrange(sizes[a])
                v = starts[b] + rng.randrange(sizes[b])
                edges.append(Edge(u, v, 0, rng.randint(1, 4)))
        yield Graph(sum(sizes), tuple(edges))


def test_global_min_cut_matches_stoer_wagner():
    disconnected = infinite = cycles = 0
    graphs = list(differential_graphs())
    assert len(graphs) >= 300
    for k, g in enumerate(graphs):
        expected = stoer_wagner_cost(g)
        cut = global_min_cut(g)
        assert cut.cost == expected, k
        assert 0 in cut.side and len(cut.side) < g.n_vertices
        crossing = [e for e in g.edges if (e.u in cut.side) != (e.v in cut.side)]
        if any(e.cost is None for e in crossing):
            assert expected == INFINITY, k
        else:
            assert finite(sum(e.cost for e in crossing)) == expected, k
        total = sum(e.cost for e in g.edges if e.cost is not None)
        belows = {0, 1, total + 1}
        if expected.is_finite:
            belows |= {expected.units - 1, expected.units, expected.units + 1}
        for below in belows:
            found = global_min_cut(g, below)
            if expected < finite(below):
                assert found is not None and found.cost == expected, (k, below)
            else:
                assert found is None, (k, below)
        disconnected += len(brute_components(g)) > 1
        infinite += expected == INFINITY
        cycles += len(g.edges) == g.n_vertices
    assert disconnected >= 20 and infinite >= 20 and cycles >= 20


def reference_flow_cases():
    """(seed, graph, participating, pairs): 200 seeded multigraphs with
    infinite and parallel edges, each with three participating sets, three
    random pairs per set and one pair of adjacent ends."""
    rng = random.Random(28)
    for seed in range(200):
        n = 2 + seed % 59
        edges = []
        for _ in range(rng.randint(0, 3 * n)):
            u, v = rng.sample(range(n), 2)
            cost = None if rng.random() < 0.2 else rng.randint(1, 9)
            edges.append(Edge(u, v, rng.randint(0, 3), cost))
        for e in rng.sample(edges, min(4, len(edges))):  # parallel edges
            edges.append(Edge(e.v, e.u, e.weight, rng.randint(1, 9)))
        g = Graph(n, tuple(edges))
        everything = range(g.n_edges)
        light = [i for i, e in enumerate(edges) if e.weight < 2]
        half = [i for i in everything if rng.random() < 0.5]
        for participating in (everything, light, half):
            pairs = [tuple(rng.sample(range(n), 2)) for _ in range(3)]
            if participating:
                e = edges[rng.choice(list(participating))]
                pairs.append((e.u, e.v))  # s adjacent to t
            yield seed, g, participating, pairs


def test_min_st_cut_matches_reference_flow():
    # the flow value, the source side and the crossing edges of every cut,
    # against Dinic with full searches and a separate residual search for
    # the side
    adjacent = infinite = disconnected = 0
    for seed, g, participating, pairs in reference_flow_cases():
        net = CutNetwork(g, participating)
        adjacent += len(pairs) == 4
        for s, t in pairs:
            flow, side = reference_min_st_cut(g, participating, s, t)
            cut = min_st_cut(net, s, t)
            assert net.max_flow(s, t) == flow, (seed, s, t)
            assert cut.side == side, (seed, s, t)
            ends = [(i, g.edges[i].u, g.edges[i].v) for i in participating]
            assert cut.edges == {i for i, u, v in ends if (u in side) != (v in side)}, (seed, s, t)
            if cut.cost.is_finite:
                assert cut.cost.units == flow, (seed, s, t)
            else:
                assert flow >= net.big, (seed, s, t)
                infinite += 1
            disconnected += not cut.edges
    assert adjacent >= 500 and infinite >= 100 and disconnected >= 100


def test_limited_flow_completes_exactly_or_bounds_the_cut():
    # a flow either completes, with the reference's exact value and side,
    # or stops at a value over its limit and never over the true cut
    rng = random.Random(33)
    stopped = completed = 0
    for seed, g, participating, pairs in reference_flow_cases():
        net = CutNetwork(g, participating)
        for s, t in pairs:
            flow, side = reference_min_st_cut(g, participating, s, t)
            if flow >= net.big:  # infinite: a stop must still be a bound
                limits = (0, net.big - 1, rng.randint(0, net.big))
            else:
                limits = (0, max(flow - 1, 0), flow, flow + 1, rng.randint(0, 2 * flow + 1))
            for limit in limits:
                value = net.max_flow(s, t, limit=limit)
                cut = min_st_cut(net, s, t, limit=limit)
                if value > limit:
                    assert limit < cut.cost.units == value <= flow, (seed, s, t, limit)
                    assert not cut.side and not cut.edges, (seed, s, t, limit)
                    stopped += 1
                else:
                    assert value == flow and cut.side == side, (seed, s, t, limit)
                    completed += 1
    assert stopped >= 1000 and completed >= 1000
