"""Exact minimum-cost interdiction that increases the MST weight at all.

For a tree edge e of weight w, contract every edge lighter than w and drop
every edge heavier: the cheapest cut separating the images of e's endpoints
is the cheapest increase through e.  That auxiliary graph depends only on
w, and the tree edges of weight w span each of its components, so the
cheapest cut over a whole weight class is one global minimum cut per
component.  One ascending sweep over the distinct weights yields every
component as the (edge, root, root) triples of its weight-w edges between
classes of G_<w.  A component whose every edge costs at least the best cut
so far is skipped; any other goes to `cuts.min_cut` with its roots
labelled 0..k-1.  The cheapest of these cuts is optimal, and only its side
maps back, through the pieces of T minus its edges of weight >= w (one per
class of G_<w), to the partial cut C(S, W') on g.
"""
from __future__ import annotations

from itertools import groupby
from typing import Iterator

from .cuts import min_cut
from .graph import Graph
from .mst import TreePricer, partial_cut
from .quantities import GuaranteeError, InputError
from .solution import InterdictionSolution, make_solution


class NoFiniteCutError(InputError):
    """Every candidate cut costs infinity; no affordable increase exists."""


Component = tuple[list[tuple[int, int, int]], int | None]


def class_components(g: Graph) -> Iterator[Component]:
    """Every auxiliary component, by ascending weight class, as its
    (edge, root u, root v) triples and W'.

    A root is a vertex of the class of G_<w that it stands for.  Within a
    class, components come in order of their lowest edge index.  One
    union-find grows class by class over `g.kruskal_order`, so the whole
    sweep costs near-linear work per class.
    """
    edges = g.edges
    batches = [(w, list(b)) for w, b in groupby(g.kruskal_order, key=lambda t: edges[t[0]].weight)]
    parent = list(range(g.n_vertices))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for k, (_, batch) in enumerate(batches):
        roots = [(i, find(u), find(v)) for i, u, v in batch]
        crossing = [(i, ru, rv) for i, ru, rv in roots if ru != rv]
        if not crossing:
            continue
        for _, ru, rv in crossing:
            parent[find(rv)] = find(ru)
        components: dict[int, list[tuple[int, int, int]]] = {}
        for triple in crossing:
            components.setdefault(find(triple[1]), []).append(triple)
        threshold = batches[k + 1][0] if k + 1 < len(batches) else None
        for part in components.values():
            yield part, threshold


def eps_increase(g: Graph) -> InterdictionSolution:
    """Cheapest edge set whose removal strictly increases the MST weight.

    Ties go to the lowest weight class, then to its component with the
    lowest edge index.  The solution trace carries the chosen cut as a
    partial cut C(S, W') where W' is the next distinct weight above the
    class weight.
    """
    if g.n_vertices < 2:
        raise InputError("need at least two vertices")
    pricer = TreePricer(g)  # raises on a disconnected graph

    # (value, class weight, the side's roots, W', the cut's edges)
    best: tuple[int, int, list[int], int | None, frozenset[int]] | None = None
    for triples, threshold in class_components(g):
        costs = [g.edges[i].cost for i, _, _ in triples]
        # every cut of a connected component holds one of its edges
        if best is not None and all(c is None or c >= best[0] for c in costs):
            continue
        # label the roots 0..k-1 in order of appearance
        label: dict[int, int] = {}
        ends = [
            (label.setdefault(ru, len(label)), label.setdefault(rv, len(label)), c)
            for (_, ru, rv), c in zip(triples, costs)
        ]
        found = min_cut(len(label), ends, None if best is None else best[0])
        if found is None or found[0] is None:
            continue
        value, side = found
        crossing = [k for k, (a, b, _) in enumerate(ends) if (a in side) != (b in side)]
        cut_costs = [costs[k] for k in crossing]
        if None in cut_costs or sum(cut_costs) != value:
            raise GuaranteeError(f"class cut does not cost its contraction value {value}")
        roots = list(label)
        weight = g.edges[triples[0][0]].weight
        cut = frozenset(triples[k][0] for k in crossing)
        best = (value, weight, [roots[a] for a in side], threshold, cut)

    if best is None:
        raise NoFiniteCutError("every candidate cut has infinite cost")
    _, weight, side_roots, threshold, cut = best
    # T minus its edges of weight >= w has one piece per class of G_<w
    piece = pricer.pieces([i for i in pricer.tree.edges if g.edges[i].weight >= weight])
    held = {piece[r] for r in side_roots}
    spec = partial_cut(g, (v for v, p in enumerate(piece) if p in held), threshold)
    if spec.edges != cut:
        raise GuaranteeError("class cut does not realize its partial cut")
    if not spec.edges:
        raise GuaranteeError("the cheapest class cut must be finite and nonempty")
    return make_solution(pricer, spec.edges, cuts=(spec,))
