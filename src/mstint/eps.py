"""Exact minimum-cost interdiction that increases the MST weight at all.

For a tree edge e of weight w, contract every edge lighter than w and drop
every edge heavier: the cheapest cut separating the images of e's endpoints
is the cheapest increase through e.  That auxiliary graph depends only on
w, and the tree edges of weight w span each of its components, so the
cheapest cut over a whole weight class is one global minimum cut per
component.  One ascending sweep over the distinct weights builds every
component; the cheapest of their cuts is optimal.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Iterator

from .cuts import CutResult, global_min_cut
from .graph import Edge, Graph
from .mst import PartialCutSpec, TreePricer, UnionFind, partial_cut
from .quantities import INFINITY, GuaranteeError, InputError
from .solution import InterdictionSolution, make_solution


class NoFiniteCutError(InputError):
    """Every candidate cut costs infinity; no affordable increase exists."""


@dataclass(frozen=True)
class ContractedInstance:
    """One component of a weight class's auxiliary graph, with maps back to g.

    Its vertices are classes of G_<w (g with every edge lighter than w
    contracted); its edges are the weight-w edges between them.
    """

    aux: Graph
    orig_index: tuple[int, ...]  # aux edge index -> original edge index
    members: tuple[tuple[int, ...], ...]  # aux vertex -> original vertices
    threshold: int | None  # W', the next distinct weight above w

    def realize(self, g: Graph, cut: CutResult) -> PartialCutSpec:
        """The partial cut C(S, W') of an aux cut, checked to cut the same edges."""
        side = frozenset(v for a in cut.side for v in self.members[a])
        spec = partial_cut(g, side, self.threshold)
        if spec.edges != frozenset(self.orig_index[i] for i in cut.edges):
            raise GuaranteeError("contracted cut does not realize its partial cut")
        return spec


def contracted_instance(
    g: Graph,
    crossing: list[tuple[int, int, int]],
    members: dict[int, list[int]],
    threshold: int | None,
) -> ContractedInstance:
    """Auxiliary graph of one component from its (edge, root u, root v) triples."""
    label: dict[int, int] = {}
    aux_edges = []
    for i, ru, rv in crossing:
        e = g.edges[i]
        a = label.setdefault(ru, len(label))
        b = label.setdefault(rv, len(label))
        aux_edges.append(Edge(a, b, e.weight, e.cost))
    return ContractedInstance(
        Graph(len(label), tuple(aux_edges)),
        tuple(i for i, _, _ in crossing),
        tuple(tuple(members[r]) for r in label),
        threshold,
    )


def class_components(g: Graph) -> Iterator[ContractedInstance]:
    """Every auxiliary component, by ascending weight class.

    Within a class, components come in order of their lowest edge index.
    One union-find grows class by class over `g.kruskal_order`, so the whole
    sweep costs near-linear work per class.
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
            yield contracted_instance(g, part, members, threshold)
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

    best: tuple[CutResult, PartialCutSpec] | None = None
    for inst in class_components(g):
        if best is None:
            cut = global_min_cut(inst.aux)
        else:
            below = best[0].cost.units
            # every cut of a connected component holds one of its edges
            if all(e.cost is None or e.cost >= below for e in inst.aux.edges):
                continue
            cut = global_min_cut(inst.aux, below)
        if cut is None or cut.cost == INFINITY:
            continue
        best = (cut, inst.realize(g, cut))

    if best is None:
        raise NoFiniteCutError("every candidate cut has infinite cost")
    cut, spec = best
    if not (cut.cost.is_finite and spec.edges):
        raise GuaranteeError("the cheapest class cut must be finite and nonempty")
    return make_solution(pricer, spec.edges, cuts=(spec,))
