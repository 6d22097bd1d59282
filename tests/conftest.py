"""Shared fixtures and independent brute-force helpers.

The helpers here deliberately avoid the library's own engines: cuts by
bipartition scan, spanning trees by edge-subset enumeration, covers by
subset enumeration.  Slow and obviously correct.
"""
from __future__ import annotations

import itertools
import random

import pytest

from mstint.graph import Edge, Graph
from mstint.quantities import INFINITY, ExtendedValue, finite

# one line per acceptance criterion, echoed after the test run so the
# verdicts survive pytest's output capture
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture
def t3() -> Graph:
    # triangle: weights 1, 2, 3; all removal costs 1
    return Graph(
        3,
        (
            Edge(0, 1, 1_000_000, 1_000_000),
            Edge(1, 2, 2_000_000, 1_000_000),
            Edge(0, 2, 3_000_000, 1_000_000),
        ),
    )


@pytest.fixture
def p2() -> Graph:
    # single edge, w=5, c=3
    return Graph(2, (Edge(0, 1, 5_000_000, 3_000_000),))


def units(x: int | float) -> int:
    """Scaled units from a plain number, exact for halves."""
    scaled = x * 1_000_000
    assert scaled == int(scaled)
    return int(scaled)


def brute_components(g: Graph, removed=frozenset()) -> list[set[int]]:
    seen: set[int] = set()
    comps = []
    adj = [[] for _ in range(g.n_vertices)]
    for i, e in enumerate(g.edges):
        if i in removed:
            continue
        adj[e.u].append(e.v)
        adj[e.v].append(e.u)
    for start in range(g.n_vertices):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in comp:
                    comp.add(v)
                    stack.append(v)
        seen |= comp
        comps.append(comp)
    return comps


def brute_mst_weight(g: Graph, removed=frozenset()) -> ExtendedValue:
    """Minimum spanning tree weight by enumerating edge subsets."""
    alive = [i for i in range(g.n_edges) if i not in removed]
    best = None
    for subset in itertools.combinations(alive, g.n_vertices - 1):
        if len(brute_components(g, frozenset(range(g.n_edges)) - set(subset))) != 1:
            continue
        w = sum(g.edges[i].weight for i in subset)
        if best is None or w < best:
            best = w
    return INFINITY if best is None else finite(best)


def brute_min_st_cut_cost(g: Graph, s: int, t: int, participating) -> ExtendedValue:
    """Cheapest s/t-separating bipartition over the participating edges."""
    others = [v for v in range(g.n_vertices) if v not in (s, t)]
    best = INFINITY
    for bits in range(1 << len(others)):
        side = {s} | {v for k, v in enumerate(others) if bits >> k & 1}
        cost = finite(0)
        for i in participating:
            e = g.edges[i]
            if (e.u in side) != (e.v in side):
                cost = cost + (INFINITY if e.cost is None else finite(e.cost))
        if cost < best:
            best = cost
    return best


def brute_min_st_cut_sides(g: Graph, s: int, t: int, participating) -> set[frozenset[int]]:
    """All bipartition sides achieving the minimum s-t cut cost."""
    best = brute_min_st_cut_cost(g, s, t, participating)
    others = [v for v in range(g.n_vertices) if v not in (s, t)]
    sides = set()
    for bits in range(1 << len(others)):
        side = frozenset({s} | {v for k, v in enumerate(others) if bits >> k & 1})
        cost = finite(0)
        for i in participating:
            e = g.edges[i]
            if (e.u in side) != (e.v in side):
                cost = cost + (INFINITY if e.cost is None else finite(e.cost))
        if cost == best:
            sides.add(side)
    return sides


def connected_random_subset(g: Graph, rng: random.Random) -> frozenset[int]:
    """A random removable edge set that keeps g connected."""
    order = list(range(g.n_edges))
    rng.shuffle(order)
    removed: set[int] = set()
    for i in order:
        if g.edges[i].cost is None or rng.random() < 0.5:
            continue
        if len(brute_components(g, frozenset(removed | {i}))) == 1:
            removed.add(i)
    return frozenset(removed)


def max_tree_complement(g: Graph) -> frozenset[int]:
    """Every edge outside one maximum-weight spanning tree of connected g:
    a removal set that keeps g connected while T minus F falls apart into
    about n components."""
    label = list(range(g.n_vertices))
    keep = set()
    for i in sorted(range(g.n_edges), key=lambda i: -g.edges[i].weight):
        a, b = label[g.edges[i].u], label[g.edges[i].v]
        if a != b:
            keep.add(i)
            label = [a if x == b else x for x in label]
    return frozenset(range(g.n_edges)) - keep


def stoer_wagner_cost(g: Graph) -> ExtendedValue:
    """Global minimum cut cost by Stoer and Wagner 1997: n - 1 full
    maximum-adjacency phases, each merging its last two vertices.  The
    reference for `cuts.global_min_cut`; a disconnected graph costs 0."""
    n = g.n_vertices
    big = sum(e.cost for e in g.edges if e.cost is not None) + 1
    adj: list[dict[int, int]] = [{} for _ in range(n)]
    for e in g.edges:
        capacity = big if e.cost is None else e.cost
        adj[e.u][e.v] = adj[e.u].get(e.v, 0) + capacity
        adj[e.v][e.u] = adj[e.v].get(e.u, 0) + capacity
    if len(brute_components(g)) > 1:
        return finite(0)
    alive = list(range(n))
    best = None
    while len(alive) > 1:
        key = {v: 0 for v in alive}
        order = []
        while key:
            v = max(key, key=lambda x: (key[x], -x))
            value = key.pop(v)
            order.append(v)
            for x, capacity in adj[v].items():
                if x in key:
                    key[x] += capacity
        best = value if best is None else min(best, value)
        keep, gone = order[-2], order[-1]
        for x, capacity in adj[gone].items():
            if x != keep:
                adj[keep][x] = adj[keep].get(x, 0) + capacity
                adj[x][keep] = adj[x].get(keep, 0) + capacity
            del adj[x][gone]
        adj[gone] = {}
        alive.remove(gone)
    return INFINITY if best >= big else finite(best)
