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
