"""Minimum spanning trees, the profit function, and partial-cut primitives."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable

from .graph import Graph
from .quantities import INFINITY, ExtendedValue, InputError, finite


class DisconnectedGraphError(InputError):
    """An operation that presumes a connected graph got a disconnected one."""


@dataclass(frozen=True)
class SpanningForest:
    edges: frozenset[int]
    weight: ExtendedValue  # infinite iff the graph is disconnected


@dataclass(frozen=True)
class PartialCutSpec:
    """A partial cut: side S, weight threshold W, and its realized edges.

    threshold=None is the complete-cut sentinel (no weight restriction).
    """

    side: frozenset[int]
    threshold: int | None
    edges: frozenset[int]


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def mst(g: Graph, exclude: Collection[int] = ()) -> SpanningForest:
    """Deterministic minimum spanning forest of g minus `exclude`.

    Kruskal over `g.kruskal_order`, the edges sorted once per graph by
    (weight, index), skipping excluded indices; ties always resolve to the
    lower edge index, so repeated calls agree edge-for-edge.
    """
    banned = frozenset(exclude)
    need = g.n_vertices - 1
    parent = list(range(g.n_vertices))
    chosen = []
    for i, u, v in g.kruskal_order:
        if i in banned:
            continue
        # path-halving finds of both endpoints' roots
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[v] = u
            chosen.append(i)
            if len(chosen) == need:
                break
    if len(chosen) < need:
        return SpanningForest(frozenset(chosen), INFINITY)
    # weights are nonnegative, so a total in range bounds every partial sum
    weight = finite(sum(g.edges[i].weight for i in chosen))
    return SpanningForest(frozenset(chosen), weight)


def is_connected(g: Graph, exclude: Collection[int] = ()) -> bool:
    return mst(g, exclude).weight.is_finite or g.n_vertices == 1


def profit(g: Graph, removed: Collection[int]) -> ExtendedValue:
    """MST(G \\ F) - MST(G); infinite iff F disconnects g."""
    base = mst(g)
    if not base.weight.is_finite and g.n_vertices > 1:
        raise DisconnectedGraphError("profit is undefined on a disconnected graph")
    if g.n_vertices == 1:
        return finite(0)
    return mst(g, removed).weight - base.weight


def partial_cut(g: Graph, side: Iterable[int], threshold: int | None) -> PartialCutSpec:
    """Edges with exactly one endpoint in `side` and weight strictly < W.

    Every crossing edge has one end on each side, so only the edges at the
    smaller of S and V minus S are scanned.
    """
    s = frozenset(side)
    n = g.n_vertices
    if not s or len(s) >= n or min(s) < 0 or max(s) >= n:
        raise ValueError("cut side must be a nonempty proper vertex subset")
    scan = s if 2 * len(s) <= n else [v for v in range(n) if v not in s]
    edges, incidence = g.edges, g.incidence
    crossing = frozenset(
        i
        for v in scan
        for i in incidence[v]
        if ((edges[i].u in s) != (edges[i].v in s))
        and (threshold is None or edges[i].weight < threshold)
    )
    return PartialCutSpec(s, threshold, crossing)
