"""Minimum spanning trees, the profit MST(G minus F) - MST(G), and partial cuts."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable

from .graph import Graph
from .quantities import INFINITY, ZERO, ExtendedValue, InputError, finite


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


def mst(g: Graph) -> SpanningForest:
    """Deterministic minimum spanning forest of g.

    Kruskal over `g.kruskal_order`, the edges sorted once per graph by
    (weight, index); ties always resolve to the lower edge index, so
    repeated calls agree edge-for-edge.
    """
    need = g.n_vertices - 1
    parent = list(range(g.n_vertices))
    chosen = []
    for i, u, v in g.kruskal_order:
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


class TreePricer:
    """The package's one computation of p(F) = MST(G minus F) - MST(G).

    T = MST(G) is the unique MST under the (weight, index) order, so
    MST(G minus F) keeps T minus F and joins its |F & T| + 1 pieces with the
    lightest non-tree edges outside F, in Kruskal order.  T is computed and
    rooted once; each `price` labels the pieces and scans the non-tree edges,
    and `pieces` numbers the same labelling by vertex.
    """

    def __init__(self, g: Graph):
        tree = mst(g)
        if not tree.weight.is_finite:
            raise DisconnectedGraphError("graph is disconnected")
        self.g, self.tree = g, tree
        n = g.n_vertices
        # root T at vertex 0; a vertex's subtree holds the preorder positions
        # first[v] .. first[v] + size[v] - 1
        neighbours: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for i in tree.edges:
            e = g.edges[i]
            neighbours[e.u].append((e.v, i))
            neighbours[e.v].append((e.u, i))
        self._lower = lower = {}  # tree edge -> its endpoint farther from the root
        self._first = first = [0] * n
        parent = [-1] * n
        preorder, stack = [], [0]
        while stack:
            v = stack.pop()
            first[v] = len(preorder)
            preorder.append(v)
            for w, i in neighbours[v]:
                if w != parent[v]:
                    parent[w] = v
                    lower[i] = w
                    stack.append(w)
        self._size = size = [1] * n
        for v in reversed(preorder[1:]):
            size[parent[v]] += size[v]
        # the non-tree edges in Kruskal order, by the positions of their ends
        self._joins = [
            (i, first[u], first[v]) for i, u, v in g.kruskal_order if i not in lower
        ]

    def _label(self, in_tree: Collection[int]) -> list[int]:
        """The piece of T minus `in_tree` at each preorder position: 0 for
        the root's piece, k for the piece below the k-th cut edge in preorder."""
        first, size = self._first, self._size
        lost = sorted((self._lower[i] for i in in_tree), key=first.__getitem__)
        # outer subtrees first, so an inner piece overwrites its part
        piece = [0] * self.g.n_vertices
        for label, v in enumerate(lost, 1):
            piece[first[v] : first[v] + size[v]] = [label] * size[v]
        return piece

    def pieces(self, removed: Collection[int]) -> list[int]:
        """The piece of T minus F holding each vertex, for F = `removed`;
        pieces are numbered by their lowest vertex, so piece 0 holds vertex 0."""
        piece = self._label([i for i in removed if i in self._lower])
        number: dict[int, int] = {}
        return [number.setdefault(piece[p], len(number)) for p in self._first]

    def price(self, removed: Collection[int]) -> ExtendedValue:
        """MST(G minus F) - MST(G) for F = `removed`; infinite iff F disconnects G."""
        lower = self._lower
        in_tree = {i for i in removed if i in lower}
        if not in_tree:
            return ZERO
        piece = self._label(in_tree)
        root = list(range(len(in_tree) + 1))
        need, added = len(in_tree), 0
        edges = self.g.edges
        for i, a, b in self._joins:
            a, b = piece[a], piece[b]
            if a == b or i in removed:
                continue
            while root[a] != a:
                root[a] = a = root[root[a]]
            while root[b] != b:
                root[b] = b = root[root[b]]
            if a != b:
                root[b] = a
                added += edges[i].weight
                need -= 1
                if not need:
                    break
        if need:
            return INFINITY
        lost_weight = sum(edges[i].weight for i in in_tree)
        # the range check mst makes of its total
        return finite(self.tree.weight.units + added - lost_weight) - self.tree.weight


def partial_cut(g: Graph, side: Iterable[int], threshold: int | None) -> PartialCutSpec:
    """Edges with exactly one endpoint in `side` and weight strictly < W,
    by one scan of the edges."""
    s = frozenset(side)
    n = g.n_vertices
    if not s or len(s) >= n or min(s) < 0 or max(s) >= n:
        raise ValueError("cut side must be a nonempty proper vertex subset")
    crossing = frozenset(
        i
        for i, e in enumerate(g.edges)
        if ((e.u in s) != (e.v in s)) and (threshold is None or e.weight < threshold)
    )
    return PartialCutSpec(s, threshold, crossing)
