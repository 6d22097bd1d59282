"""Cut-sequence construction and certification for a given solution F.

Given a removal set F with finite profit, builds the sequence of partial
cuts over the components of T minus F, one Kruskal pass over the
components graph in `Graph.kruskal_order` cutting the small side at each
join.  Each union-find label of that pass carries its vertices, and the
edges of F lighter than the scan and the edges of T&F that have exactly one
end in it, so each cut and the T&F edges it may be matched to are read off
a label, with no scan of the graph per cut.  `certify` then verifies the
cost, laminarity, matching, and profit bounds that make the greedy
analysis work.  One `mst.TreePricer` roots T = MST(G) for
the whole run: it gives T, labels the components of T minus F, prices p(F)
by its own scan, and, carried by the certificate, prices the cuts of the
profit bound, largest cut first and only until their prices cover the
solution's profit.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

from .graph import Graph
from .mst import DisconnectedGraphError, PartialCutSpec, TreePricer
from .quantities import (
    ExtendedValue,
    GuaranteeError,
    InputError,
    check_quantity,
    log2_bounds,
)


@dataclass(frozen=True)
class RelaxationCertificate:
    cuts: tuple[PartialCutSpec, ...]
    tree_prime_edges: tuple[int, ...]  # original indices, non-decreasing weight
    small_sides_cc: tuple[frozenset[int], ...]  # component-index sides
    matching: tuple[int, ...]  # cut i -> matched original edge in T & F
    cost_sum: int
    profit_value: ExtendedValue  # p_G(F)
    solution_cost: int  # c(F)
    pricer: TreePricer = field(compare=False, repr=False)  # the run's rooted T


def _matching(adjacent: list[list[int]], n_right: int) -> list[int] | None:
    """A perfect matching of the left side; left i -> right index, or None.

    Each left vertex first takes its first free right vertex; Kuhn's
    augmenting-path search then runs from each left vertex still unmatched.
    From any starting matching, a left vertex with no augmenting path has
    none in any perfect matching either, so None means there is none.  The
    depth-first search keeps its path on explicit stacks, so an augmenting
    path may be as long as the graph: `path[k]` is a left vertex on the
    path, `next_j[k]` the position of the next right vertex it tries, and
    `via[k]` the right vertex that led from `path[k]` to `path[k + 1]`.
    """
    match_left = [-1] * len(adjacent)
    match_right = [-1] * n_right
    for i, tries in enumerate(adjacent):
        for j in tries:
            if match_right[j] == -1:
                match_left[i] = j
                match_right[j] = i
                break
    for root in range(len(adjacent)):
        if match_left[root] != -1:
            continue
        seen: set[int] = set()
        path, next_j, via = [root], [0], []
        while path:
            tries = adjacent[path[-1]]
            k = next_j[-1]
            while k < len(tries) and tries[k] in seen:
                k += 1
            if k == len(tries):
                path.pop()
                next_j.pop()
                if via:
                    via.pop()
                continue
            j = tries[k]
            next_j[-1] = k + 1
            seen.add(j)
            via.append(j)
            if match_right[j] == -1:
                for i, j in zip(path, via):
                    match_left[i] = j
                    match_right[j] = i
                break
            path.append(match_right[j])
            next_j.append(0)
        else:
            return None
    return match_left


def build_cut_sequence(g: Graph, removed: frozenset[int]) -> RelaxationCertificate:
    pricer = TreePricer(g)
    tree = pricer.tree
    component_of = pricer.pieces(removed)
    tree_removed = sorted(tree.edges & removed)
    t = len(tree_removed) + 1
    edges = g.edges

    # Kruskal over the components graph: one union-find over the
    # components, joined in `g.kruskal_order` by the edges outside F whose
    # ends it still holds apart; the edges of T minus F join nothing.
    # Before prime edge e_i it holds the forest of prime edges j < i.  Each
    # label keeps its components, its vertices, the most small sides any
    # member has been on, and two crossing sets: `cut_out`, the F edges of
    # the weight classes already passed with exactly one end in the label,
    # and `tree_out`, the ranks of the T&F edges with exactly one end in it.
    # A join relabels the smaller component set into the larger and merges
    # each set smaller-into-larger by symmetric difference: an edge listed
    # by both labels now has both ends in one, and component and vertex
    # sets are disjoint, so for them ^ is a union.
    label = list(range(t))
    members = [{c} for c in range(t)]
    vertices: list[set[int]] = [set() for _ in range(t)]
    for v, c in enumerate(component_of):
        vertices[c].add(v)
    cut_out: list[set[int]] = [set() for _ in range(t)]
    tree_out: list[set[int]] = [set() for _ in range(t)]
    for r, ei in enumerate(tree_removed):
        tree_out[component_of[edges[ei].u]].add(r)
        tree_out[component_of[edges[ei].v]].add(r)
    top = [0] * t
    pending: list[tuple[int, int, int, int]] = []  # scanned F edges, by weight
    n_listed = 0  # the prefix of `pending` already in `cut_out`
    prime_edges: list[int] = []
    sides_cc: list[frozenset[int]] = []
    cuts: list[PartialCutSpec] = []
    adjacent: list[list[int]] = []  # cut i -> ranks of the T&F edges crossing it
    for i, u, v in g.kruskal_order:
        if len(prime_edges) == t - 1:
            break
        if i in removed:
            pending.append((edges[i].weight, i, u, v))
            continue
        left = label[component_of[u]]
        right = label[component_of[v]]
        if left == right:
            continue
        # The partial cut of a side at W is every edge lighter than W with
        # one end on it.  Every edge outside F lighter than W has been
        # scanned, so its ends share a label; the crossing edges are the F
        # edges of the classes lighter than W, listed only now, once the
        # scan has moved past them (F edges of weight W stay pending).
        weight = edges[i].weight
        while n_listed < len(pending) and pending[n_listed][0] < weight:
            _, j, a, b = pending[n_listed]
            n_listed += 1
            a, b = label[component_of[a]], label[component_of[b]]
            if a != b:
                cut_out[a].add(j)
                cut_out[b].add(j)
        prime_edges.append(i)
        small = left if top[left] <= top[right] else right
        top[small] += 1
        sides_cc.append(frozenset(members[small]))
        cuts.append(
            PartialCutSpec(frozenset(vertices[small]), weight, frozenset(cut_out[small]))
        )
        adjacent.append(sorted(tree_out[small]))
        if len(members[left]) < len(members[right]):
            left, right = right, left
        for c in members[right]:
            label[c] = left
        top[left] = max(top[left], top[right])
        for per_label in (members, vertices, cut_out, tree_out):
            big, little = per_label[left], per_label[right]
            if len(big) < len(little):
                big, little = little, big
            big ^= little
            per_label[left], per_label[right] = big, None
    if len(prime_edges) < t - 1:
        raise DisconnectedGraphError("removal set disconnects the graph")
    # p(F) from the pricer's own scan, so check (e) sets it against the
    # prime edges above
    profit = pricer.price(removed)
    for i in sorted(removed):
        if edges[i].cost is None:
            raise InputError(f"edge {i} has infinite removal cost")

    # perfect matching: cut i is matchable to any T&F edge crossing its side
    matched = _matching(adjacent, len(tree_removed))
    if matched is None:
        raise GuaranteeError("no perfect matching of cuts to removed tree edges")
    matching = tuple(tree_removed[j] for j in matched)

    # costs are positive, so a total in range bounds every partial sum
    cost_of = {i: edges[i].cost for i in removed}
    cost_sum = check_quantity(
        sum(map(cost_of.__getitem__, chain.from_iterable(cut.edges for cut in cuts)))
    )
    return RelaxationCertificate(
        cuts=tuple(cuts),
        tree_prime_edges=tuple(prime_edges),
        small_sides_cc=tuple(sides_cc),
        matching=matching,
        cost_sum=cost_sum,
        profit_value=profit,
        solution_cost=check_quantity(sum(cost_of.values())),
        pricer=pricer,
    )


def certify(g: Graph, removed: frozenset[int], cert: RelaxationCertificate) -> dict:
    """Check every guarantee of the cut sequence; returns a named report.
    Raises ValueError when the certificate was built on another graph."""
    if cert.pricer.g is not g and cert.pricer.g != g:
        raise ValueError("the certificate was built on another graph")
    t = len(cert.small_sides_cc) + 1
    checks: dict[str, bool] = {}

    # (a) cut membership: every cut edge was removed
    checks["cuts_within_solution"] = all(
        cut.edges <= removed for cut in cert.cuts
    )

    # (b) each edge is in at most 2*log2(t) cuts; exact via 2^count <= t^2
    crossings = Counter(chain.from_iterable(cut.edges for cut in cert.cuts))
    checks["crossing_bound"] = all(
        (1 << count) <= t * t for count in crossings.values()
    )

    # (c) total cut cost <= 2 * c(F) * log2(t), via a rational lower bound
    if t > 1:
        log2_lb, _ = log2_bounds(t)
        bound = 2 * cert.solution_cost * log2_lb
        checks["cost_bound"] = Fraction(cert.cost_sum) <= bound
    else:
        checks["cost_bound"] = cert.cost_sum == 0

    # (d) laminarity of the small sides.  Visited largest first, a side of
    # a laminar family lies inside every earlier side it meets, so all its
    # members were last claimed by the same side (or by none).
    laminar = True
    sides = cert.small_sides_cc
    owner: dict[int, int] = {}
    for k in sorted(range(len(sides)), key=lambda k: -len(sides[k])):
        if len({owner.get(c, -1) for c in sides[k]}) > 1:
            laminar = False
            break
        for c in sides[k]:
            owner[c] = k
    checks["laminar_sides"] = laminar

    # (e) the matching is a bijection from the cuts onto T&F, each cut's
    # edge crossing its side, and the matched weight differences
    # w(e_i') - w(e_pi(i)) sum exactly to the profit
    edges = g.edges
    matching = cert.matching
    checks["matching_profit_identity"] = (
        cert.profit_value.is_finite
        and len(matching) == len(cert.cuts) == len(cert.tree_prime_edges) == t - 1
        and sorted(matching) == sorted(cert.pricer.tree.edges & removed)
        and all(
            (edges[i].u in cut.side) != (edges[i].v in cut.side)
            for cut, i in zip(cert.cuts, matching)
        )
        and sum(edges[i].weight for i in cert.tree_prime_edges)
        - sum(edges[i].weight for i in matching)
        == cert.profit_value.units
    )

    # (f) total cut profit, priced against the run's one rooted T, covers
    # the solution profit.  Every price is >= 0, as MST(G minus C) >= MST(G),
    # so the total covers p(F) once a prefix does: the cuts are priced
    # largest first, ties to the later cut (its threshold is no lighter), and
    # each finite price comes off an exact integer remainder until one meets
    # it or a price is infinite.  An infinite p(F) is covered only by an
    # infinite price.
    left = cert.profit_value.units
    covered = left is not None and left <= 0
    for cut in sorted(cert.cuts[::-1], key=lambda cut: len(cut.edges), reverse=True):
        if covered:
            break
        price = cert.pricer.price(cut.edges).units
        if price is None:
            covered = True
        elif left is not None:
            left -= price
            covered = left <= 0
    checks["profit_cover"] = covered

    # (g) typical vertices: fresh component per cut, plus one untouched
    typical = True
    seen: set[int] = set()
    for side in cert.small_sides_cc:
        if not (side - seen):
            typical = False
        seen |= side
    if len(seen) >= t and t > 1:
        typical = False
    checks["typical_vertices"] = typical

    checks["ok"] = all(checks.values())
    return checks
