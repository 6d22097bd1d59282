"""Differential tests above the oracle's size limit.

The reference here is the per-tree-edge flow method: for each MST edge,
contract every lighter edge, drop every heavier one, and take minimum s-t
cuts with the public max-flow engine.  The library's weight-class sweep
with bound-pruned global minimum cuts must agree with it exactly.
"""
from __future__ import annotations

import random

import pytest

from mstint.cuts import CutNetwork, min_st_cut
from mstint.eps import NoFiniteCutError, eps_increase
from mstint.generators import gen_random
from mstint.graph import Edge, Graph
from mstint.mst import mst
from mstint.oracle import prim_mst_weight
from mstint.quantities import ZERO

MAX_WEIGHTS = (0, 1, 3, 20, 1000)


def contracted_around(g: Graph, tree_edge: int):
    """Aux graph of one tree edge: lighter edges contracted, heavier dropped,
    kept to the component of the edge's endpoints.  Returns the aux graph,
    the aux -> original edge map and the two aux endpoints."""
    w = g.edges[tree_edge].weight
    cls = list(range(g.n_vertices))

    def find(x):
        while cls[x] != x:
            cls[x] = cls[cls[x]]
            x = cls[x]
        return x

    for e in g.edges:
        if e.weight < w:
            cls[find(e.u)] = find(e.v)
    pairs = [(find(e.u), find(e.v), i) for i, e in enumerate(g.edges) if e.weight == w]
    pairs = [(a, b, i) for a, b, i in pairs if a != b]
    s = find(g.edges[tree_edge].u)
    reach = {s}
    grew = True
    while grew:
        grew = False
        for a, b, _ in pairs:
            if (a in reach) != (b in reach):
                reach |= {a, b}
                grew = True
    label = {c: k for k, c in enumerate(sorted(reach))}
    kept = [(a, b, i) for a, b, i in pairs if a in reach]
    aux = Graph(
        len(label),
        tuple(
            Edge(label[a], label[b], w, g.edges[i].cost) for a, b, i in kept
        ),
    )
    t = find(g.edges[tree_edge].v)
    return aux, [i for _, _, i in kept], label[s], label[t]


def flow_eps_cost(g: Graph):
    """Cheapest finite min s-t cut over the tree edges, or None."""
    best = None
    for tree_edge in sorted(mst(g).edges):
        aux, _, s, t = contracted_around(g, tree_edge)
        cut = min_st_cut(CutNetwork(aux, range(aux.n_edges)), s, t)
        if cut.cost.is_finite and (best is None or cut.cost.units < best):
            best = cut.cost.units
    return best


def with_inf_costs(g: Graph, rng: random.Random, share: float) -> Graph:
    return Graph(
        g.n_vertices,
        tuple(
            Edge(e.u, e.v, e.weight, None if rng.random() < share else e.cost)
            for e in g.edges
        ),
    )


def instances(count: int, low: int, high: int):
    """Seeded instances with n spread over [low, high] and every weight range."""
    for seed in range(count):
        n = low + (seed * 37) % (high - low + 1)
        max_weight = MAX_WEIGHTS[seed % len(MAX_WEIGHTS)]
        # few classes make large aux graphs, the flow reference's slowest case
        m = n + n // (8 if max_weight <= 1 else 2)
        g = gen_random(seed + 900, n, m, max_weight, 1 + seed % 7)
        if seed % 4 == 3:
            g = with_inf_costs(g, random.Random(seed), 0.2)
        yield seed, g


def test_eps_matches_flow_reference():
    checked = 0
    for seed, g in instances(200, 20, 200):
        expected = flow_eps_cost(g)
        if expected is None:
            with pytest.raises(NoFiniteCutError):
                eps_increase(g)
            continue
        sol = eps_increase(g)
        assert sol.cost == expected, seed
        assert sol.profit > ZERO
        # Prim, not the solver's own pricer
        assert sol.profit == prim_mst_weight(g, sol.edges) - prim_mst_weight(g)
        checked += 1
    assert checked >= 150
