"""Shared fixtures and independent brute-force helpers.

The helpers here deliberately avoid the library's own engines: cuts by
bipartition scan, spanning trees by edge-subset enumeration, covers by
subset enumeration.  Slow and obviously correct.  The references at the
end are earlier, plainer versions of a library layer, kept to test the
current one against.
"""
from __future__ import annotations

import itertools
import random
from collections import deque

import pytest

from mstint.cuts import CutNetwork
from mstint.graph import MAX_VERTICES, Candidate, Edge, Graph, ParseError
from mstint.mst import DisconnectedGraphError, TreePricer, mst
from mstint.protection import CandidateInvariantError
from mstint.quantities import (
    INFINITY,
    ExtendedValue,
    QuantityParseError,
    check_quantity,
    finite,
    parse_digits,
    parse_quantity,
)

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


@pytest.fixture
def flow_counts(monkeypatch) -> dict[str, int]:
    """Counts of the flows run while the test runs: a flow whose value is
    over its limit stopped there, any other one completed."""
    counts = {"completed": 0, "stopped": 0}
    real = CutNetwork.max_flow

    def counted(net, s, t, *, limit=None):
        value = real(net, s, t, limit=limit)
        counts["stopped" if limit is not None and value > limit else "completed"] += 1
        return value

    monkeypatch.setattr(CutNetwork, "max_flow", counted)
    return counts


def price(g: Graph, removed) -> ExtendedValue:
    """MST(G minus F) - MST(G) for F = `removed`: one set priced by a
    `TreePricer` of its own."""
    return TreePricer(g).price(removed)


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


def side_cost(g: Graph, side, participating) -> ExtendedValue:
    """Total cost of the participating edges crossing `side`."""
    costs = [
        g.edges[i].cost
        for i in participating
        if (g.edges[i].u in side) != (g.edges[i].v in side)
    ]
    return INFINITY if None in costs else finite(sum(costs))


def brute_min_st_cut_cost(g: Graph, s: int, t: int, participating) -> ExtendedValue:
    """Cheapest s/t-separating bipartition over the participating edges."""
    others = [v for v in range(g.n_vertices) if v not in (s, t)]
    best = INFINITY
    for bits in range(1 << len(others)):
        side = {s} | {v for k, v in enumerate(others) if bits >> k & 1}
        cost = side_cost(g, side, participating)
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
        if side_cost(g, side, participating) == best:
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


def reference_graph_checks(n: int, edges) -> None:
    """The checks of `Graph.__post_init__`, each through `check_quantity`."""
    if n < 1:
        raise ValueError("graph needs at least one vertex")
    for i, e in enumerate(edges):
        if not (0 <= e.u < n and 0 <= e.v < n):
            raise ValueError(f"edge {i}: endpoint out of range")
        if e.u == e.v:
            raise ValueError(f"edge {i}: self-loop rejected")
        if e.weight < 0:
            raise ValueError(f"edge {i}: negative weight")
        if e.cost is not None and e.cost <= 0:
            raise ValueError(f"edge {i}: non-positive cost")
        check_quantity(e.weight)
        if e.cost is not None:
            check_quantity(e.cost)


def _reference_content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line.split()


def _reference_cost(token: str, lineno: int) -> int | None:
    if token == "inf":
        return None
    try:
        cost = parse_quantity(token)
    except QuantityParseError as exc:
        raise ParseError(f"line {lineno}: {exc}") from exc
    if cost <= 0:
        raise ParseError(f"line {lineno}: cost must be positive")
    return cost


def _reference_weight(token: str, lineno: int) -> int:
    try:
        return parse_quantity(token)
    except QuantityParseError as exc:
        raise ParseError(f"line {lineno}: {exc}") from exc


def reference_parse_instance_full(text: str) -> tuple[Graph, tuple[Candidate, ...]]:
    """The reference for `graph.parse_instance_full`: a generator of split
    lines, every token through `parse_digits` or `parse_quantity`, and the
    protect section read whole before its count is checked."""
    lines = _reference_content_lines(text)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise ParseError("empty instance") from None
    if len(header) != 2:
        raise ParseError(f"line {lineno}: expected `n m` header")
    try:
        n, m = parse_digits(header[0]), parse_digits(header[1])
    except ValueError as exc:
        raise ParseError(f"line {lineno}: bad header") from exc
    if n < 1:
        raise ParseError(f"line {lineno}: bad header values")
    if n > MAX_VERTICES:
        raise ParseError(f"line {lineno}: more than 10**6 vertices")

    edges = []
    for _ in range(m):
        try:
            lineno, parts = next(lines)
        except StopIteration:
            raise ParseError("unexpected end of input in edge list") from None
        if len(parts) != 4:
            raise ParseError(f"line {lineno}: expected `u v weight cost`")
        try:
            u, v = parse_digits(parts[0]), parse_digits(parts[1])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad endpoint") from exc
        weight = _reference_weight(parts[2], lineno)
        cost = _reference_cost(parts[3], lineno)
        edges.append(Edge(u, v, weight, cost))

    candidates: list[Candidate] = []
    tail = list(lines)
    if tail:
        lineno, parts = tail[0]
        if parts[0] != "protect" or len(parts) != 2:
            raise ParseError(f"line {lineno}: expected `protect k` or end of file")
        try:
            k = parse_digits(parts[1])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad protect count") from exc
        if len(tail) - 1 != k:
            raise ParseError(f"line {lineno}: protect section expects {k} lines")
        for lineno, parts in tail[1:]:
            if len(parts) != 5:
                raise ParseError(
                    f"line {lineno}: expected `u v weight build_cost removal_cost`"
                )
            try:
                u, v = parse_digits(parts[0]), parse_digits(parts[1])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad endpoint") from exc
            weight = _reference_weight(parts[2], lineno)
            build = _reference_cost(parts[3], lineno)
            removal = _reference_cost(parts[4], lineno)
            if build is None or removal is None:
                raise ParseError(f"line {lineno}: candidate costs must be finite")
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"line {lineno}: endpoint out of range")
            if u == v:
                raise ParseError(f"line {lineno}: self-loop rejected")
            candidates.append(Candidate(u, v, weight, build, removal))

    try:
        reference_graph_checks(n, edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    # outside the mapping: an error that only Graph's own checks raise
    # shows as a plain ValueError, never as the reference's ParseError
    return Graph(n, tuple(edges)), tuple(candidates)


def reference_min_st_cut(g: Graph, participating, s: int, t: int) -> tuple[int, set[int]]:
    """(flow value, source side) of a minimum s-t cut over the participating
    edges: Dinic with a full breadth-first search and fresh per-phase arrays
    each phase, then a separate residual search for the side.  The reference
    for `cuts.CutNetwork.max_flow` and the side `cuts.min_st_cut` reads."""
    edges = [g.edges[i] for i in sorted(participating)]
    n = g.n_vertices
    big = sum(e.cost for e in edges if e.cost is not None) + 1
    head: list[list[int]] = [[] for _ in range(n)]
    to: list[int] = []
    cap: list[int] = []
    for e in edges:
        capacity = big if e.cost is None else e.cost
        head[e.u].append(len(to))
        head[e.v].append(len(to) + 1)
        to += (e.v, e.u)
        cap += (capacity, capacity)
    flow = 0
    while True:
        level = [-1] * n
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
            break
        it = [0] * n
        path: list[int] = []
        u = s
        while True:
            if u == t:
                pushed = min(cap[a] for a in path)
                for a in path:
                    cap[a] -= pushed
                    cap[a ^ 1] += pushed
                flow += pushed
                k = next(k for k, a in enumerate(path) if cap[a] == 0)
                del path[k:]
                u = to[path[-1]] if path else s
                continue
            arcs = head[u]
            i = it[u]
            while i < len(arcs):
                a = arcs[i]
                if cap[a] > 0 and level[to[a]] == level[u] + 1:
                    break
                i += 1
            it[u] = i
            if i < len(arcs):
                path.append(a)
                u = to[a]
            elif u == s:
                break
            else:
                a = path.pop()
                u = to[a ^ 1]
                it[u] += 1
    seen = {s}
    stack = [s]
    while stack:
        u = stack.pop()
        for a in head[u]:
            v = to[a]
            if cap[a] > 0 and v not in seen:
                seen.add(v)
                stack.append(v)
    return flow, seen


def reference_candidate_check(base: Graph, candidates) -> None:
    """The candidate check of `ProtectionInstance` by rebuilding: a Kruskal
    on the base graph, then one on the base graph plus each candidate, in
    index order; the first candidate that lowers the MST weight is refused."""
    base_weight = mst(base).weight
    if not base_weight.is_finite:
        raise DisconnectedGraphError("graph is disconnected")
    for idx, c in enumerate(candidates):
        augmented = Graph(base.n_vertices, base.edges + (Edge(c.u, c.v, c.weight, c.removal_cost),))
        if mst(augmented).weight != base_weight:
            raise CandidateInvariantError(f"candidate {idx} reduces the MST weight")


class UnionFind:
    """A plain union-find with full path compression, for the reference
    Kruskals and contractions of the tests."""

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
