"""Exponential brute-force solvers: ground truth for the approximation tests.

Deliberately obvious: subset enumeration over edges, with a growth-based
(Prim) MST that is independent of the Kruskal implementation it validates.
"""
from __future__ import annotations

import heapq
from typing import Collection

from .graph import Graph
from .mst import DisconnectedGraphError
from .quantities import INFINITY, ExtendedValue, InputError, check_quantity, finite
from .solution import InterdictionSolution

MAX_ORACLE_EDGES = 22


class OracleSizeError(InputError):
    """The instance exceeds the brute-force size guard."""


def prim_mst_weight(g: Graph, exclude: Collection[int] = ()) -> ExtendedValue:
    """MST weight by priority-queue growth from vertex 0; infinite if
    disconnected."""
    banned = frozenset(exclude)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n_vertices)]
    for i, e in enumerate(g.edges):
        if i in banned:
            continue
        adj[e.u].append((e.weight, e.v))
        adj[e.v].append((e.weight, e.u))
    visited = [False] * g.n_vertices
    visited[0] = True
    reached = 1
    total = 0
    heap = list(adj[0])
    heapq.heapify(heap)
    while heap and reached < g.n_vertices:
        w, v = heapq.heappop(heap)
        if visited[v]:
            continue
        visited[v] = True
        reached += 1
        total += w
        for item in adj[v]:
            if not visited[item[1]]:
                heapq.heappush(heap, item)
    if reached < g.n_vertices:
        return INFINITY
    return finite(total)


def _guard(g: Graph) -> None:
    if g.n_edges > MAX_ORACLE_EDGES:
        raise OracleSizeError(f"oracle limited to {MAX_ORACLE_EDGES} edges")


def _base_weight(g: Graph) -> int:
    base = prim_mst_weight(g)
    if not base.is_finite:
        raise DisconnectedGraphError("graph is disconnected")
    return base.units


def _subset_cost(g: Graph, mask: int) -> int | None:
    """Total removal cost of a bitmask of edges; None if any cost is infinite."""
    total = 0
    m = mask
    while m:
        low = m & -m
        cost = g.edges[low.bit_length() - 1].cost
        if cost is None:
            return None
        total += cost
        m ^= low
    return total


def _mask_edges(mask: int) -> tuple[int, ...]:
    edges = []
    m = mask
    while m:
        low = m & -m
        edges.append(low.bit_length() - 1)
        m ^= low
    return tuple(edges)


def _solution(g: Graph, mask: int, cost: int, gain: ExtendedValue) -> InterdictionSolution:
    # the answer is range-checked as the solvers' answers are
    return InterdictionSolution(frozenset(_mask_edges(mask)), check_quantity(cost), gain)


def _min_cost_subset(g: Graph, qualifies) -> InterdictionSolution:
    """Cheapest edge subset whose profit qualifies; lexicographic ties.
    A subset that disconnects g prices at INFINITY like any other."""
    _guard(g)
    base = _base_weight(g)
    best: tuple[int, tuple[int, ...], int, ExtendedValue] | None = None
    for mask in range(1, 1 << g.n_edges):
        cost = _subset_cost(g, mask)
        if cost is None:
            continue
        if best is not None and cost > best[0]:
            continue
        edges = _mask_edges(mask)
        if best is not None and cost == best[0] and edges >= best[1]:
            continue
        gain = prim_mst_weight(g, edges) - finite(base)
        if qualifies(gain):
            best = (cost, edges, mask, gain)
    if best is None:
        raise InfeasibleOracleError("no qualifying edge subset exists")
    return _solution(g, best[2], best[0], best[3])


class InfeasibleOracleError(InputError):
    """No subset of removable edges reaches the target."""


def oracle_eps(g: Graph) -> InterdictionSolution:
    """Minimum-cost subset with any positive profit."""
    return _min_cost_subset(g, lambda gain: gain > finite(0))


def oracle_budget(g: Graph, delta: int) -> InterdictionSolution:
    """Minimum-cost subset with profit at least delta."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    target = finite(delta)
    return _min_cost_subset(g, lambda gain: gain >= target)


def oracle_profit(
    g: Graph, budget: int, finite_only: bool = False
) -> InterdictionSolution:
    """Maximum-profit subset of cost at most budget.

    Infinite profit dominates unless finite_only is set; among equal
    profits the cheaper, then lexicographically smaller, set wins.
    """
    _guard(g)
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    base = _base_weight(g)
    best = (finite(0), 0, (), 0)  # (profit, cost, edges, mask); empty set
    for mask in range(1, 1 << g.n_edges):
        cost = _subset_cost(g, mask)
        if cost is None or cost > budget:
            continue
        edges = _mask_edges(mask)
        gain = prim_mst_weight(g, edges) - finite(base)
        if finite_only and not gain.is_finite:
            continue
        key = (gain, -cost)
        best_key = (best[0], -best[1])
        if key > best_key or (key == best_key and edges < best[2]):
            best = (gain, cost, edges, mask)
    return _solution(g, best[3], best[1], best[0])
