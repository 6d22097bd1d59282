"""Defense against the minimum-cost increase: list the optimal cuts and
cover them with buildable edges via greedy weighted set cover.
"""
from __future__ import annotations

from dataclasses import dataclass

from .cuts import enumerate_min_st_cuts, global_min_cut, min_st_cut
from .eps import NoFiniteCutError, class_components
from .graph import Candidate, Edge, Graph
from .mst import DisconnectedGraphError, PartialCutSpec, is_connected, mst
from .quantities import GuaranteeError


class UncoverableCutError(ValueError):
    """Some optimal cut cannot be covered by any candidate edge."""


class CandidateInvariantError(ValueError):
    """A candidate edge would lower the MST weight when added."""


@dataclass(frozen=True)
class ProtectionInstance:
    base: Graph
    candidates: tuple[Candidate, ...]

    def __post_init__(self) -> None:
        base_weight = mst(self.base).weight
        for idx, c in enumerate(self.candidates):
            augmented = self.base.with_edges(
                [Edge(c.u, c.v, c.weight, c.removal_cost)]
            )
            if mst(augmented).weight != base_weight:
                raise CandidateInvariantError(
                    f"candidate {idx} reduces the MST weight"
                )

    def augmented(self, chosen) -> Graph:
        return self.base.with_edges(
            Edge(c.u, c.v, c.weight, c.removal_cost)
            for c in (self.candidates[i] for i in sorted(chosen))
        )


@dataclass(frozen=True)
class OptimalCutListing:
    cuts: tuple[PartialCutSpec, ...]
    optimal_cost: int
    # False if an enumeration that could hold an optimal cut was truncated
    complete: bool


def list_optimal_cuts(g: Graph) -> OptimalCutListing:
    """All optimal-cost cuts the minimum-increase algorithm considers.

    Walks the weight-class sweep of `eps_increase`.  Only in a component
    whose global minimum cut costs the optimum, and only for a tree edge
    whose own minimum s-t cut does too, are the minimum s-t cuts enumerated
    (capped at 4*n^2 each); every other cut costs more than the optimum.
    Cuts are de-duplicated by realized edge set.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("graph is disconnected")
    classes = [(inst, global_min_cut(inst.aux)) for inst in class_components(g)]
    finite_costs = [cut.cost for _, cut in classes if cut.cost.is_finite]
    if not finite_costs:
        raise NoFiniteCutError("every candidate cut has infinite cost")
    optimum = min(finite_costs)
    tree = mst(g).edges
    cap = 4 * g.n_vertices * g.n_vertices
    complete = True
    by_edges: dict[frozenset[int], PartialCutSpec] = {}
    for inst, class_cut in classes:
        if class_cut.cost != optimum:
            continue
        for i, e in enumerate(inst.aux.edges):
            if inst.orig_index[i] not in tree:
                continue
            if min_st_cut(inst.aux, e.u, e.v).cost != optimum:
                continue
            cuts, truncated = enumerate_min_st_cuts(inst.aux, e.u, e.v, cap=cap)
            complete = complete and not truncated
            for cut in cuts:
                edges = frozenset(inst.orig_index[j] for j in cut.edges)
                if edges not in by_edges:
                    by_edges[edges] = inst.realize(g, cut)
    listed = tuple(sorted(by_edges.values(), key=lambda c: sorted(c.edges)))
    return OptimalCutListing(listed, optimum.units, complete)


def covers(candidate: Candidate, cut: PartialCutSpec) -> bool:
    """A new edge raises a cut's cost iff it would belong to the partial cut."""
    crosses = (candidate.u in cut.side) != (candidate.v in cut.side)
    return crosses and (cut.threshold is None or candidate.weight < cut.threshold)


def protect(inst: ProtectionInstance) -> tuple[frozenset[int], OptimalCutListing]:
    """Greedy weighted set cover of the optimal cuts by candidate edges.

    Returns the chosen candidate indices and the cut listing (whose
    `complete` flag qualifies the strict-increase guarantee).
    """
    listing = list_optimal_cuts(inst.base)
    coverage = [
        frozenset(
            i for i, cut in enumerate(listing.cuts) if covers(cand, cut)
        )
        for cand in inst.candidates
    ]
    covered_by_any = frozenset().union(*coverage) if coverage else frozenset()
    for i, cut in enumerate(listing.cuts):
        if i not in covered_by_any:
            raise UncoverableCutError(
                f"cut over side {sorted(cut.side)} (edges {sorted(cut.edges)}) "
                "is not coverable by any candidate"
            )

    uncovered = set(range(len(listing.cuts)))
    chosen: set[int] = set()
    while uncovered:
        best_idx = None
        best_new: frozenset[int] = frozenset()
        for idx, cand in enumerate(inst.candidates):
            if idx in chosen:
                continue
            new = coverage[idx] & uncovered
            if not new:
                continue
            if best_idx is None or cand.build_cost * len(best_new) < (
                inst.candidates[best_idx].build_cost * len(new)
            ):
                best_idx, best_new = idx, new
        if best_idx is None:  # coverability was checked up front
            raise GuaranteeError("no candidate covers an uncovered cut")
        chosen.add(best_idx)
        uncovered -= best_new
    return frozenset(chosen), listing
