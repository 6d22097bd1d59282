"""Graph data model and instance file I/O.

Instance format (whitespace separated, `#` starts a comment line):

    n m                    (1 <= n <= 10**6)
    u v weight cost        (m lines, 0-based endpoints, cost may be `inf`)
    protect k              (optional section)
    u v weight build_cost removal_cost   (k candidate lines)

Weights and costs are decimals with at most 6 fractional digits; they are
stored exactly as integer units of 10**-6.  Edge identity is the list index.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .quantities import (
    InputError,
    QuantityParseError,
    check_quantity,
    format_quantity,
    parse_digits,
    parse_quantity,
)


MAX_VERTICES = 10**6  # every solver allocates per vertex


class ParseError(InputError):
    """The instance text does not conform to the format."""


@dataclass(frozen=True)
class Edge:
    u: int
    v: int
    weight: int  # scaled units, >= 0
    cost: int | None  # scaled units > 0, or None for the infinity sentinel


@dataclass(frozen=True)
class Candidate:
    """A buildable edge from the optional `protect` section."""

    u: int
    v: int
    weight: int
    build_cost: int
    removal_cost: int


@dataclass(frozen=True)
class Graph:
    n_vertices: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if self.n_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        for i, e in enumerate(self.edges):
            if not (0 <= e.u < self.n_vertices and 0 <= e.v < self.n_vertices):
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

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def distinct_weights(self) -> list[int]:
        """Sorted distinct finite edge weights."""
        return sorted({e.weight for e in self.edges})

    @cached_property
    def kruskal_order(self) -> tuple[tuple[int, int, int], ...]:
        """(index, u, v) of every edge, sorted once by (weight, index).

        The sort is stable over ascending indices, so equal weights keep
        index order.
        """
        edges = self.edges
        order = sorted(range(len(edges)), key=lambda i: edges[i].weight)
        return tuple((i, edges[i].u, edges[i].v) for i in order)

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """Indices of the edges at each vertex, ascending."""
        at: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for i, e in enumerate(self.edges):
            at[e.u].append(i)
            at[e.v].append(i)
        return tuple(map(tuple, at))

    def with_edges(self, extra: Iterable[Edge]) -> "Graph":
        return Graph(self.n_vertices, self.edges + tuple(extra))


def _content_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line.split()


def _parse_cost(token: str, lineno: int) -> int | None:
    if token == "inf":
        return None
    try:
        cost = parse_quantity(token)
    except QuantityParseError as exc:
        raise ParseError(f"line {lineno}: {exc}") from exc
    if cost <= 0:
        raise ParseError(f"line {lineno}: cost must be positive")
    return cost


def _parse_weight(token: str, lineno: int) -> int:
    try:
        return parse_quantity(token)
    except QuantityParseError as exc:
        raise ParseError(f"line {lineno}: {exc}") from exc


def parse_instance_full(text: str) -> tuple[Graph, tuple[Candidate, ...]]:
    """Parse an instance, including the optional protection section."""
    lines = _content_lines(text)
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
        weight = _parse_weight(parts[2], lineno)
        cost = _parse_cost(parts[3], lineno)
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
            weight = _parse_weight(parts[2], lineno)
            build = _parse_cost(parts[3], lineno)
            removal = _parse_cost(parts[4], lineno)
            if build is None or removal is None:
                raise ParseError(f"line {lineno}: candidate costs must be finite")
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"line {lineno}: endpoint out of range")
            if u == v:
                raise ParseError(f"line {lineno}: self-loop rejected")
            candidates.append(Candidate(u, v, weight, build, removal))

    try:
        graph = Graph(n, tuple(edges))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return graph, tuple(candidates)


def parse_instance(text: str) -> Graph:
    """Parse an instance; any protection section is validated but dropped."""
    graph, _ = parse_instance_full(text)
    return graph


def serialize_instance(g: Graph, candidates: Iterable[Candidate] = ()) -> str:
    out = [f"{g.n_vertices} {g.n_edges}"]
    for e in g.edges:
        cost = "inf" if e.cost is None else format_quantity(e.cost)
        out.append(f"{e.u} {e.v} {format_quantity(e.weight)} {cost}")
    cands = list(candidates)
    if cands:
        out.append(f"protect {len(cands)}")
        for c in cands:
            out.append(
                f"{c.u} {c.v} {format_quantity(c.weight)} "
                f"{format_quantity(c.build_cost)} {format_quantity(c.removal_cost)}"
            )
    return "\n".join(out) + "\n"
