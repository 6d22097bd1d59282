"""Defense against the minimum-cost increase: generate the optimal cuts one
at a time and cover them with buildable edges via greedy weighted set cover.
A candidate lowers the MST weight iff T minus T's edges heavier than it
separates its ends (the cycle property); the base graph's one rooted T is
labelled into those pieces once per distinct candidate weight.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .eps import eps_increase
from .graph import Candidate, Edge, Graph
from .mst import PartialCutSpec, TreePricer, partial_cut
from .quantities import GuaranteeError, InputError


class UncoverableCutError(InputError):
    """Some optimal cut cannot be covered by any candidate edge."""


class CandidateInvariantError(InputError):
    """A candidate edge would lower the MST weight when added."""


@dataclass(frozen=True)
class ProtectionInstance:
    base: Graph
    candidates: tuple[Candidate, ...]

    def __post_init__(self) -> None:
        pricer = TreePricer(self.base)  # the connectivity check
        cands, edges = self.candidates, self.base.edges
        # one graph checks every candidate's ends, weight and removal cost
        Graph(self.base.n_vertices, tuple(Edge(c.u, c.v, c.weight, c.removal_cost) for c in cands))
        by_weight: dict[int, list[int]] = {}
        for idx, c in enumerate(cands):
            by_weight.setdefault(c.weight, []).append(idx)
        bad = []
        for weight, indices in by_weight.items():
            piece = pricer.pieces([i for i in pricer.tree.edges if edges[i].weight > weight])
            bad += (i for i in indices if piece[cands[i].u] != piece[cands[i].v])
        if bad:
            raise CandidateInvariantError(f"candidate {min(bad)} reduces the MST weight")

    def augmented(self, chosen) -> Graph:
        built = [self.candidates[i] for i in sorted(chosen)]
        extra = tuple(Edge(c.u, c.v, c.weight, c.removal_cost) for c in built)
        return Graph(self.base.n_vertices, self.base.edges + extra)


@dataclass(frozen=True)
class OptimalCutListing:
    cuts: tuple[PartialCutSpec, ...]  # the generated family, in round order
    optimal_cost: int  # minimum increase cost of the base graph
    cost_after: int  # minimum increase cost with the chosen candidates built


def covers(candidate: Candidate, cut: PartialCutSpec) -> bool:
    """A new edge raises a cut's cost iff it would belong to the partial cut."""
    crosses = (candidate.u in cut.side) != (candidate.v in cut.side)
    return crosses and (cut.threshold is None or candidate.weight < cut.threshold)


def protect(inst: ProtectionInstance) -> tuple[frozenset[int], OptimalCutListing]:
    """Greedy weighted set cover of the optimal cuts, generated one at a time.

    Each round runs `eps_increase` on the base graph plus the chosen
    candidates.  While the cheapest increase still costs the base optimum,
    its cut is an optimal base cut that no chosen candidate covers (checked,
    so no cut comes twice and the loop ends): it joins the family, and the
    greedy cover of the whole family is recomputed from scratch.  The loop ends when the cheapest increase
    costs more, so the rise is certified by construction; k generated cuts
    take k + 1 runs of `eps_increase`.

    A family cut C(S, W'') takes as W'' the least weight above its class
    weight w over the base edges and the candidates, so a candidate covers
    it iff it crosses S with weight at most w.
    """
    weights = sorted(
        {e.weight for e in inst.base.edges} | {c.weight for c in inst.candidates}
    )
    g = inst.base
    sol = eps_increase(g)
    before = sol.cost
    cuts: list[PartialCutSpec] = []
    coverage = [0] * len(inst.candidates)  # bit j set: covers cut j
    chosen: frozenset[int] = frozenset()
    while sol.cost == before:
        (found,) = sol.cuts
        w = g.edges[min(found.edges)].weight
        k = bisect_right(weights, w)
        cut = partial_cut(inst.base, found.side, weights[k] if k < len(weights) else None)
        if cut.edges != found.edges:
            raise GuaranteeError("an optimal cut differs from its partial cut on the base graph")
        covering = [i for i, c in enumerate(inst.candidates) if covers(c, cut)]
        if not chosen.isdisjoint(covering):
            raise GuaranteeError("a chosen candidate covers a cut that is still optimal")
        if not covering:
            raise UncoverableCutError(
                f"cut of edges {sorted(cut.edges)} over a side of {len(cut.side)} "
                "vertices is not coverable by any candidate"
            )
        for i in covering:
            coverage[i] |= 1 << len(cuts)
        cuts.append(cut)
        chosen = _greedy_cover(inst.candidates, coverage, len(cuts))
        g = inst.augmented(chosen)
        sol = eps_increase(g)
    if sol.cost < before:
        raise GuaranteeError("building candidate edges lowered the minimum increase cost")
    return chosen, OptimalCutListing(tuple(cuts), before, sol.cost)


def _greedy_cover(
    candidates: tuple[Candidate, ...], coverage: list[int], n_cuts: int
) -> frozenset[int]:
    """Cheapest build cost per newly covered cut first, ties to the lower
    index.  Bit j of coverage[i] is set when candidate i covers cut j.

    A candidate's count of uncovered cuts only falls as the cover grows, so
    its ratio only rises: the heap holds lower bounds on the (ratio, index)
    keys, and a popped key whose count is still current is the least one.
    """
    uncovered = (1 << n_cuts) - 1
    heap = []
    for idx, mask in enumerate(coverage):
        count = (mask & uncovered).bit_count()
        if count:
            heap.append((Fraction(candidates[idx].build_cost, count), idx, count))
    heapify(heap)
    chosen: set[int] = set()
    while uncovered:
        if not heap:  # every family cut has a covering candidate
            raise GuaranteeError("no candidate covers an uncovered cut")
        _, idx, count = heappop(heap)
        new = coverage[idx] & uncovered
        current = new.bit_count()
        if current == count:
            chosen.add(idx)
            uncovered &= ~new
        elif current:
            heappush(heap, (Fraction(candidates[idx].build_cost, current), idx, current))
    return frozenset(chosen)
