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
labelled 0..k-1, and its cut side maps back through the classes' members
to the partial cut C(S, W') on g.  The cheapest of these cuts is optimal.
"""
from __future__ import annotations

from itertools import groupby
from typing import Iterator

from .cuts import min_cut
from .graph import Graph
from .mst import PartialCutSpec, TreePricer, UnionFind, partial_cut
from .quantities import GuaranteeError, InputError
from .solution import InterdictionSolution, make_solution


class NoFiniteCutError(InputError):
    """Every candidate cut costs infinity; no affordable increase exists."""


Component = tuple[list[tuple[int, int, int]], dict[int, list[int]], int | None]


def class_components(g: Graph) -> Iterator[Component]:
    """Every auxiliary component, by ascending weight class, as its
    (edge, root u, root v) triples, the member lists of the roots and W'.

    A root stands for one class of G_<w; its member list holds that class's
    vertices.  The member lists are live: the sweep merges them once a
    class's last component is taken, so read them before asking for the
    next component.  Within a class, components come
    in order of their lowest edge index.  One union-find grows class by
    class over `g.kruskal_order`, so the whole sweep costs near-linear work
    per class.
    """
    order = [i for i, _, _ in g.kruskal_order]
    batches = [list(b) for _, b in groupby(order, key=lambda i: g.edges[i].weight)]
    uf = UnionFind(g.n_vertices)
    members = {v: [v] for v in range(g.n_vertices)}
    for k, batch in enumerate(batches):
        roots = [(i, uf.find(g.edges[i].u), uf.find(g.edges[i].v)) for i in batch]
        crossing = [(i, ru, rv) for i, ru, rv in roots if ru != rv]
        if not crossing:
            continue
        for _, ru, rv in crossing:
            uf.union(ru, rv)
        components: dict[int, list[tuple[int, int, int]]] = {}
        for triple in crossing:
            components.setdefault(uf.find(triple[1]), []).append(triple)
        threshold = g.edges[batches[k + 1][0]].weight if k + 1 < len(batches) else None
        for part in components.values():
            yield part, members, threshold
        for r in dict.fromkeys(r for _, ru, rv in crossing for r in (ru, rv)):
            root = uf.find(r)
            if r != root:
                big, small = members[root], members.pop(r)
                if len(big) < len(small):
                    big, small = small, big
                big.extend(small)
                members[root] = big


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

    best: tuple[int, PartialCutSpec] | None = None
    for triples, members, threshold in class_components(g):
        costs = [g.edges[i].cost for i, _, _ in triples]
        # every cut of a connected component holds one of its edges
        if best is not None and all(c is None or c >= best[0] for c in costs):
            continue
        # label the roots 0..k-1 in order of appearance; the component is
        # connected, since its triples joined its roots in the union-find
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
        spec = partial_cut(g, (v for a in side for v in members[roots[a]]), threshold)
        if spec.edges != frozenset(triples[k][0] for k in crossing):
            raise GuaranteeError("class cut does not realize its partial cut")
        best = (value, spec)

    if best is None:
        raise NoFiniteCutError("every candidate cut has infinite cost")
    spec = best[1]
    if not spec.edges:
        raise GuaranteeError("the cheapest class cut must be finite and nonempty")
    return make_solution(pricer, spec.edges, cuts=(spec,))
