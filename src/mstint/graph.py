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
from typing import Iterable

from .quantities import (
    QUANTITY_MAX,
    SCALE,
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


@dataclass(frozen=True, slots=True)
class Edge:
    u: int
    v: int
    weight: int  # scaled units, >= 0
    cost: int | None  # scaled units > 0, or None for the infinity sentinel


@dataclass(frozen=True, slots=True)
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
        n = self.n_vertices
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        for i, e in enumerate(self.edges):
            u, v, weight, cost = e.u, e.v, e.weight, e.cost
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {i}: endpoint out of range")
            if u == v:
                raise ValueError(f"edge {i}: self-loop rejected")
            if weight < 0:
                raise ValueError(f"edge {i}: negative weight")
            if cost is not None and cost <= 0:
                raise ValueError(f"edge {i}: non-positive cost")
            # past the checks above only the upper end of the range is left
            if weight > QUANTITY_MAX:
                check_quantity(weight)
            if cost is not None and cost > QUANTITY_MAX:
                check_quantity(cost)

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


def _candidate(parts: list[str], lineno: int, n: int) -> Candidate:
    if len(parts) != 5:
        raise ParseError(f"line {lineno}: expected `u v weight build_cost removal_cost`")
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
    return Candidate(u, v, weight, build, removal)


def parse_instance_full(text: str) -> tuple[Graph, tuple[Candidate, ...]]:
    """Parse an instance, including the optional protection section.

    One pass: each line is split once and parsed before the next is read.
    """
    numbered = enumerate(text.splitlines(), start=1)
    # (line number, tokens) of each content line, drawn from `numbered`
    # too; the first token of a comment line starts with `#`
    lines = (
        (lineno, parts)
        for lineno, raw in numbered
        if (parts := raw.split()) and parts[0][0] != "#"
    )
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

    # the hot loop: the content filter, parse_digits and the plain-integer
    # case of parse_quantity inline (at most 12 ASCII digits is below 10**18
    # units, always in range); an ASCII text needs no per-token ASCII test
    ascii_text = text.isascii()
    edges = []
    if m:
        for lineno, raw in numbered:
            parts = raw.split()
            if not parts or parts[0][0] == "#":
                continue
            if len(parts) != 4:
                raise ParseError(f"line {lineno}: expected `u v weight cost`")
            u, v, weight, cost = parts
            try:
                if not (
                    u.isdigit() and v.isdigit() and (ascii_text or u.isascii() and v.isascii())
                ):
                    raise ValueError("not a digit string")
                u, v = int(u), int(v)  # ValueError past 4300 digits
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad endpoint") from exc
            if len(weight) <= 12 and weight.isdigit() and (ascii_text or weight.isascii()):
                weight = int(weight) * SCALE
            else:
                weight = _parse_weight(weight, lineno)
            # a leading 0 goes to _parse_cost, which rejects a zero cost
            if (
                len(cost) <= 12
                and cost.isdigit()
                and (ascii_text or cost.isascii())
                and cost[0] != "0"
            ):
                cost = int(cost) * SCALE
            else:
                cost = _parse_cost(cost, lineno)
            edges.append(Edge(u, v, weight, cost))
            if len(edges) == m:
                break
        else:
            raise ParseError("unexpected end of input in edge list")

    candidates: list[Candidate] = []
    protect = next(lines, None)
    if protect is not None:
        lineno, parts = protect
        if parts[0] != "protect" or len(parts) != 2:
            raise ParseError(f"line {lineno}: expected `protect k` or end of file")
        try:
            k = parse_digits(parts[1])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad protect count") from exc
        # the line count is checked before the contents of any line
        count = 0
        error = None
        for at, parts in lines:
            count += 1
            if error is None and count <= k:
                try:
                    candidates.append(_candidate(parts, at, n))
                except InputError as exc:
                    error = exc
        if count != k:
            raise ParseError(f"line {lineno}: protect section expects {k} lines")
        if error is not None:
            raise error

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
