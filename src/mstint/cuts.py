"""Minimum s-t cuts and the global minimum cut.

Cuts are always taken with respect to edge removal COSTS; a filter predicate
decides which edges participate at all.  Infinity-cost edges are modeled as
uncuttable (capacity above any finite cut).  A minimum s-t cut is canonical:
the source side is the residual-reachability set after a maximum flow, which
is the unique source-side-minimal minimum cut.  The global minimum cut needs
no flow: it is Stoer-Wagner's maximum-adjacency contraction.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable

from .graph import Edge, Graph
from .mst import UnionFind
from .quantities import (
    INFINITY,
    ZERO,
    ExtendedValue,
    GuaranteeError,
    check_quantity,
    checked_sum,
    finite,
)

EdgeFilter = Callable[[int, Edge], bool]

@dataclass(frozen=True)
class CutResult:
    side: frozenset[int]  # contains s
    edges: frozenset[int]  # participating edges crossing the side
    cost: ExtendedValue


class _FlowNet:
    """Dinic max-flow on an undirected multigraph.

    Each edge is one residual arc pair 2k, 2k+1; both directions start with
    the edge's full capacity.
    """

    def __init__(self, n: int, ends: list[tuple[int, int, int]]):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []
        for u, v, capacity in ends:
            self.head[u].append(len(self.to))
            self.head[v].append(len(self.to) + 1)
            self.to += (v, u)
            self.cap += (capacity, capacity)

    def max_flow(self, s: int, t: int) -> int:
        head, to, cap = self.head, self.to, self.cap
        flow = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for a in head[u]:
                    v = to[a]
                    if cap[a] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return flow
            # blocking flow by an iterative depth-first walk along level
            # arcs; `path` holds the arcs from s to the walk's vertex
            it = [0] * self.n
            path: list[int] = []
            u = s
            while True:
                if u == t:
                    pushed = min(cap[a] for a in path)
                    for a in path:
                        cap[a] -= pushed
                        cap[a ^ 1] += pushed
                    flow += pushed
                    # resume at the tail of the first saturated arc
                    k = next(k for k, a in enumerate(path) if cap[a] == 0)
                    del path[k:]
                    u = to[path[-1]] if path else s
                    continue
                arcs = head[u]
                n_arcs = len(arcs)
                i = it[u]
                next_level = level[u] + 1
                while i < n_arcs:
                    a = arcs[i]
                    if cap[a] > 0 and level[to[a]] == next_level:
                        break
                    i += 1
                it[u] = i
                if i < n_arcs:
                    path.append(a)
                    u = to[a]
                elif u == s:
                    break
                else:
                    # dead end: retreat and skip the arc that led here
                    a = path.pop()
                    u = to[a ^ 1]
                    it[u] += 1

    def residual_reachable(self, s: int) -> set[int]:
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for a in self.head[u]:
                v = self.to[a]
                if self.cap[a] > 0 and v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen


def _build_net(
    g: Graph, edge_filter: EdgeFilter | None
) -> tuple[_FlowNet, list[int], int]:
    participating = [
        i
        for i, e in enumerate(g.edges)
        if edge_filter is None or edge_filter(i, e)
    ]
    edges = [g.edges[i] for i in participating]
    # costs are positive, so the total bounds every partial sum
    big = check_quantity(sum(e.cost for e in edges if e.cost is not None)) + 1
    net = _FlowNet(
        g.n_vertices,
        [(e.u, e.v, big if e.cost is None else e.cost) for e in edges],
    )
    return net, participating, big


def _cut_of_side(g: Graph, participating: list[int], side: set[int]) -> CutResult:
    crossing = [i for i in participating if (g.edges[i].u in side) != (g.edges[i].v in side)]
    if any(g.edges[i].cost is None for i in crossing):
        cost = INFINITY
    else:
        cost = finite(checked_sum(g.edges[i].cost for i in crossing)) if crossing else ZERO
    return CutResult(frozenset(side), frozenset(crossing), cost)


def min_st_cut(
    g: Graph, s: int, t: int, edge_filter: EdgeFilter | None = None
) -> CutResult:
    """Minimum-cost cut separating s from t over the participating edges."""
    if s == t:
        raise ValueError("s and t must differ")
    net, participating, big = _build_net(g, edge_filter)
    flow = net.max_flow(s, t)
    side = net.residual_reachable(s)
    result = _cut_of_side(g, participating, side)
    # strong duality: the flow value must equal the cut cost
    if result.cost.is_finite:
        if flow != result.cost.units:
            raise GuaranteeError(
                f"max-flow {flow} differs from its min-cut cost {result.cost.units}"
            )
    elif flow < big:
        raise GuaranteeError(f"infinite min cut with flow {flow} below {big}")
    return result


def global_min_cut(g: Graph) -> CutResult:
    """Minimum-cost complete cut (Stoer and Wagner 1997), in exact integers.

    Infinite-cost edges get a capacity above any finite cut.  On a
    disconnected graph the component of vertex 0 is the zero-cost side.
    The returned side contains vertex 0.
    """
    n = g.n_vertices
    if n < 2:
        raise ValueError("global min cut needs at least two vertices")
    participating = list(range(g.n_edges))
    big = checked_sum(e.cost for e in g.edges if e.cost is not None) + 1
    adj: list[dict[int, int]] = [{} for _ in range(n)]
    for e in g.edges:
        capacity = big if e.cost is None else e.cost
        adj[e.u][e.v] = adj[e.u].get(e.v, 0) + capacity
        adj[e.v][e.u] = adj[e.v].get(e.u, 0) + capacity
    seen = {0}
    stack = [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    if len(seen) < n:
        return _cut_of_side(g, participating, seen)
    value, side = _stoer_wagner(adj)
    if 0 not in side:
        side = set(range(n)) - side
    result = _cut_of_side(g, participating, side)
    if result.cost != (INFINITY if value >= big else finite(value)):
        raise GuaranteeError(
            f"cut cost {result.cost} differs from its Stoer-Wagner phase value"
        )
    return result


def _stoer_wagner(adj: list[dict[int, int]]) -> tuple[int, set[int]]:
    """Minimum cut value and one side of a connected capacity graph.

    Each phase grows a maximum-adjacency order with a lazy max-heap (ties
    to the lower vertex); the last two vertices are then merged.  `adj`
    is consumed.
    """
    n = len(adj)
    added = [-1] * n  # phase in which the vertex joined the order
    merges: list[tuple[int, int]] = []
    best: tuple[int, int, int] | None = None  # (value, phase, last vertex)
    start = 0
    for phase in range(n - 1):
        key: dict[int, int] = {}
        heap = [(0, start)]
        prev = last = start
        value = 0
        while heap:
            neg_key, v = heappop(heap)
            if added[v] == phase:
                continue
            added[v] = phase
            prev, last, value = last, v, -neg_key
            for x, capacity in adj[v].items():
                if added[x] != phase:
                    k = key.get(x, 0) + capacity
                    key[x] = k
                    heappush(heap, (-k, x))
        # the phase's cut: `last` (with all merged into it) against the rest
        if best is None or value < best[0]:
            best = (value, phase, last)
        keep, gone = (prev, last) if len(adj[prev]) >= len(adj[last]) else (last, prev)
        merged = adj[keep]
        merged.pop(gone, None)
        for x, capacity in adj[gone].items():
            if x != keep:
                merged[x] = merged.get(x, 0) + capacity
                neighbour = adj[x]
                del neighbour[gone]
                neighbour[keep] = neighbour.get(keep, 0) + capacity
        adj[gone] = {}
        merges.append((keep, gone))
        start = keep
    value, phase, last = best
    groups = UnionFind(n)
    for keep, gone in merges[:phase]:
        groups.union(keep, gone)
    root = groups.find(last)
    return value, {v for v in range(n) if groups.find(v) == root}
