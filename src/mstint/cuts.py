"""Minimum s-t cuts and the global minimum cut.

Cuts are always taken with respect to edge removal COSTS; a set of edge
indices decides which edges participate at all.  Infinity-cost edges are
modeled as uncuttable (capacity above any finite cut).  A minimum s-t cut is
canonical: the source side is the residual-reachability set after a maximum
flow, which is the unique source-side-minimal minimum cut.  A `CutNetwork`
is the flow network over the participating edges, built once; each
`min_st_cut` on it runs one Dinic flow from the base capacities, and the
flow's last breadth-first search, the one that misses t, labels that side,
and the cut's edges are those of the network's arcs that leave it.
Given a limit, the flow stops at the augmentation that takes it past the
limit, and the cut comes back unfinished: no side, and that flow value, a
lower bound on the cut's cost, as its cost.
A global minimum cut needs no flow: `min_cut` contracts every edge that no
cut cheaper than the best one found can cross, by maximum-adjacency passes
(Nagamochi and Ibaraki 1992) with Padberg and Rinaldi's test 2 between
them; a pass that misses a vertex has found a cut of cost 0.  Given a bound,
it looks only for a cut strictly below it; `global_min_cut` and the eps
sweep's class components call it, and `global_min_cut` reads the edges
of its side with `partial_cut`.
"""
from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable

from .graph import Graph
from .mst import partial_cut
from .quantities import INFINITY, ExtendedValue, GuaranteeError


@dataclass(frozen=True)
class CutResult:
    side: frozenset[int]  # contains s
    edges: frozenset[int]  # participating edges crossing the side
    cost: ExtendedValue


class CutNetwork:
    """Dinic max-flow over the participating edges of a graph; built once
    and reset to its base capacities before each flow.

    Each participating edge, in ascending index order, is one residual arc
    pair 2k, 2k+1; both directions start with the edge's cost, or `big` for
    an infinite cost.
    """

    def __init__(self, g: Graph, participating: Iterable[int]):
        self.g = g
        self.participating = sorted(participating)
        self.n_vertices = n = g.n_vertices
        self.n_edges = len(self.participating)
        edges = [g.edges[i] for i in self.participating]
        # costs are positive, so the total bounds every partial sum
        self.big = sum(e.cost for e in edges if e.cost is not None) + 1
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.base_cap: list[int] = []
        for e in edges:
            capacity = self.big if e.cost is None else e.cost
            self.head[e.u].append(len(self.to))
            self.head[e.v].append(len(self.to) + 1)
            self.to += (e.v, e.u)
            self.base_cap += (capacity, capacity)
        self.cap = self.base_cap[:]
        self.reached: list[int] = []

    def max_flow(self, s: int, t: int, *, limit: int | None = None) -> int:
        """The value of a maximum s-t flow from the base capacities.  `cap`
        keeps its residual capacities and `reached` the vertices that the
        last breadth-first search labelled, which is the residual-reachable
        set of s.  With `limit`, the flow stops at the augmentation that
        takes its value past the limit and returns that value, a lower
        bound on the maximum, and leaves `reached` as it was."""
        head, to, cap = self.head, self.to, self.cap
        cap[:] = self.base_cap
        stop = float("inf") if limit is None else limit
        n = self.n_vertices
        flow = 0
        while True:
            # breadth-first levels, stopped once t is labelled: any other
            # vertex at t's level is a dead end for every level path
            level = [-1] * n
            level[s] = 0
            reached = [s]
            for u in reached:
                next_level = level[u] + 1
                for a in head[u]:
                    if cap[a] and level[to[a]] < 0:
                        level[to[a]] = next_level
                        reached.append(to[a])
                if level[t] >= 0:
                    break
            else:
                self.reached = reached
                return flow
            # blocking flow by an iterative depth-first walk along level
            # arcs; `path` holds the arcs from s to the walk's vertex
            it = [0] * n
            path: list[int] = []
            u = s
            while True:
                if u == t:
                    # the bottleneck, and the first arc that it saturates
                    first = 0
                    pushed = cap[path[0]]
                    for k in range(1, len(path)):
                        if cap[path[k]] < pushed:
                            pushed = cap[path[k]]
                            first = k
                    for a in path:
                        cap[a] -= pushed
                        cap[a ^ 1] += pushed
                    flow += pushed
                    if flow > stop:
                        return flow
                    # resume at the tail of the first saturated arc
                    del path[first:]
                    u = to[path[-1]] if path else s
                    continue
                arcs = head[u]
                n_arcs = len(arcs)
                i = it[u]
                next_level = level[u] + 1
                while i < n_arcs:
                    a = arcs[i]
                    if cap[a] and level[to[a]] == next_level:
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


def _priced(g: Graph, side: frozenset[int], edges: frozenset[int]) -> CutResult:
    """The cut of `side` crossed by `edges`, at their total cost."""
    costs = [g.edges[i].cost for i in edges]
    # an unchecked sum: a cut is a candidate, and only an answer must fit
    cost = INFINITY if None in costs else ExtendedValue(sum(costs))
    return CutResult(side, edges, cost)


def min_st_cut(net: CutNetwork, s: int, t: int, *, limit: int | None = None) -> CutResult:
    """Minimum-cost cut separating s from t over the network's edges.

    With `limit`, a cut that costs more may come back unfinished: its side
    and edges are empty and its cost is the stopped flow's value, over the
    limit and at most the cut's cost."""
    if s == t:
        raise ValueError("s and t must differ")
    flow = net.max_flow(s, t, limit=limit)
    if limit is not None and flow > limit:
        return CutResult(frozenset(), frozenset(), ExtendedValue(flow))
    side = frozenset(net.reached)
    head, to, participating = net.head, net.to, net.participating
    # a crossing edge has one arc out of the side: arc a is of edge a >> 1
    crossing = frozenset(
        participating[a >> 1] for v in net.reached for a in head[v] if to[a] not in side
    )
    result = _priced(net.g, side, crossing)
    # strong duality: the flow value must equal the cut cost
    if result.cost.is_finite:
        if flow != result.cost.units:
            raise GuaranteeError(
                f"max-flow {flow} differs from its min-cut cost {result.cost.units}"
            )
    elif flow < net.big:
        raise GuaranteeError(f"infinite min cut with flow {flow} below {net.big}")
    return result


def min_cut(
    n: int, ends: list[tuple[int, int, int | None]], below: int | None = None
) -> tuple[int | None, set[int]] | None:
    """Value and vertex-0 side of a minimum cut of n >= 2 vertices joined by
    (u, v, cost) edges, cost None meaning infinite; the value is None when
    every cut crosses an infinite-cost edge.  With `below` set, the cut is
    returned only when it costs strictly less than `below` units; otherwise
    the result is None.

    The graph is contracted while it is ordered (Nagamochi and Ibaraki
    1992).  λ̂ is the cheapest cut offered so far, or the bound; every vertex
    degree, trivial or merged, is offered as a cut.  An edge is contracted
    only when no cut through it can be cheaper than both λ̂ and the cuts that
    do not separate its ends, so the cheapest cut below the bound survives
    as an offered degree.  A maximum-adjacency pass that does not reach
    every class has found a side that no edge leaves, a cut of cost 0.
    """
    if n < 2:
        raise ValueError("a cut needs at least two vertices")
    # costs are positive, so a cut of `big` or more crosses an infinite edge
    big = sum(cost for _, _, cost in ends if cost is not None) + 1
    adj: list[dict[int, int]] = [{} for _ in range(n)]
    for u, v, cost in ends:
        capacity = big if cost is None else cost
        adj[u][v] = adj[u].get(v, 0) + capacity
        adj[v][u] = adj[v].get(u, 0) + capacity
    # no cut costs more than big * m, and one of `big` or more is never
    # below a finite bound
    bound = big * len(ends) + 1 if below is None else min(below, big)
    parent = list(range(n))  # a contracted vertex -> the vertex it joined
    members = [[v] for v in range(n)]
    deg = [sum(a.values()) for a in adj]
    lam = bound
    # (member list, length) of the cheapest cut: member lists are only ever
    # appended to, so a prefix of one stays the side it was when offered
    best: tuple[list[int], int] | None = None
    alive = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def offer(v: int) -> None:
        nonlocal lam, best
        if deg[v] < lam:
            lam = deg[v]
            best = (members[v], len(members[v]))

    def merge(a: int, b: int) -> None:
        """Contract the edge between vertices a and b, offering the result."""
        if len(adj[a]) < len(adj[b]):
            a, b = b, a
        kept = adj[a]
        between = kept.pop(b, 0)
        for x, capacity in adj[b].items():
            if x != a:
                kept[x] = kept.get(x, 0) + capacity
                neighbour = adj[x]
                del neighbour[b]
                neighbour[a] = neighbour.get(a, 0) + capacity
        adj[b] = {}
        parent[b] = a
        deg[a] += deg[b] - 2 * between
        small, large = sorted((members[a], members[b]), key=len)
        large.extend(small)
        members[a] = large
        if len(large) < n:
            offer(a)

    for v in alive:
        offer(v)
    added = [-1] * n  # the pass in which a vertex joined the order
    passes = 0
    while len(alive) > 1:
        # Padberg and Rinaldi's test 2, one edge at a time so that each test
        # reads current degrees: when 2·c(a, b) >= d(a), a cut separating a
        # from b costs no less than the same cut with a moved to b's side,
        # unless it is {a} alone, whose cost d(a) was offered
        for v in alive:
            for x in list(adj[v]):
                a, b = find(v), find(x)
                if a != b and 2 * adj[a][b] >= min(deg[a], deg[b]):
                    merge(a, b)
        alive = [v for v in alive if parent[v] == v]
        if len(alive) == 1:
            break
        # one maximum-adjacency pass: when v is scanned, key[w] <= λ(v, w)
        # (Nagamochi and Ibaraki), so an edge whose key reaches λ̂ is
        # contracted; the last vertex's key is its degree and equals
        # λ(prev, last), so once it is offered the last two are merged
        key: dict[int, int] = {}
        heap = [(0, alive[0])]
        marked: list[tuple[int, int]] = []
        scanned: list[int] = []
        while heap:
            _, v = heappop(heap)
            if added[v] == passes:
                continue
            added[v] = passes
            scanned.append(v)
            for x, capacity in adj[v].items():
                if added[x] != passes:
                    k = key.get(x, 0) + capacity
                    key[x] = k
                    if k >= lam:
                        marked.append((v, x))
                    heappush(heap, (-k, x))
        if len(scanned) < len(alive):
            # no edge leaves the scanned classes: their side costs 0
            if bound <= 0:
                return None
            side = [u for v in scanned for u in members[v]]
            lam, best = 0, (side, len(side))
            break
        passes += 1
        prev, last = scanned[-2:]
        offer(last)
        marked.append((prev, last))
        for v, x in marked:
            a, b = find(v), find(x)
            if a != b:
                merge(a, b)
        alive = [v for v in alive if parent[v] == v]
    if best is None:
        return None
    listed, size = best
    side = set(listed[:size])
    if 0 not in side:
        side = set(range(n)) - side
    return (None if lam >= big else lam), side


def global_min_cut(g: Graph, below: int | None = None) -> CutResult | None:
    """Minimum-cost complete cut of g by `min_cut`; its side contains
    vertex 0, and its edges, read by `partial_cut`, are checked to cost the
    cut's value."""
    found = min_cut(g.n_vertices, [(e.u, e.v, e.cost) for e in g.edges], below)
    if found is None:
        return None
    value, side = found
    cut = partial_cut(g, side, None)
    result = _priced(g, cut.side, cut.edges)
    if result.cost != (INFINITY if value is None else ExtendedValue(value)):
        raise GuaranteeError(f"cut cost {result.cost} differs from its contraction value")
    return result
