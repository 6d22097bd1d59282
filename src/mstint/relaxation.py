"""Cut-sequence construction and certification for a given solution F.

Given a removal set F with finite profit, builds the sequence of partial
cuts over the components of T minus F, one Kruskal pass over the
components graph in `Graph.kruskal_order` cutting the small side at each
join, and verifies the cost, laminarity, matching, and profit bounds that
make the greedy analysis work.  One `mst.TreePricer` roots T = MST(G) for
the whole run: it gives T, labels the components of T minus F, prices p(F)
by its own scan, and, carried by the certificate, prices the cuts of the
profit bound, largest cut first and only until their prices cover the
solution's profit.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .graph import Graph
from .mst import DisconnectedGraphError, PartialCutSpec, TreePricer, partial_cut
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
    profit_lb_sum: int  # sum of w(e_i') - w(e_pi(i))
    profit_value: ExtendedValue  # p_G(F)
    solution_cost: int  # c(F)
    pricer: TreePricer = field(compare=False, repr=False)  # the run's rooted T


def _matching(adjacent: list[list[int]], n_right: int) -> list[int] | None:
    """Kuhn's augmenting-path bipartite matching; left i -> right index.

    The depth-first search keeps its path on explicit stacks, so an
    augmenting path may be as long as the graph: `path[k]` is a left vertex
    on the path, `next_j[k]` the position of the next right vertex it tries,
    and `via[k]` the right vertex that led from `path[k]` to `path[k + 1]`.
    """
    match_left = [-1] * len(adjacent)
    match_right = [-1] * n_right
    for root in range(len(adjacent)):
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
    components: list[list[int]] = [[] for _ in range(t)]
    for v, c in enumerate(component_of):
        components[c].append(v)

    # Kruskal over the components graph: one union-find over the
    # components, joined in `g.kruskal_order` by the edges outside F whose
    # ends it still holds apart; the edges of T minus F join nothing.
    # Before prime edge e_i it holds the forest of prime edges j < i.  Each
    # label keeps its member list and the most small sides any member has
    # been on; a join relabels the smaller list into the larger.
    label = list(range(t))
    members = [[c] for c in range(t)]
    top = [0] * t
    prime_edges: list[int] = []
    sides_cc: list[frozenset[int]] = []
    cuts: list[PartialCutSpec] = []
    for i, u, v in g.kruskal_order:
        if len(prime_edges) == t - 1:
            break
        if i in removed:
            continue
        left = label[component_of[u]]
        right = label[component_of[v]]
        if left == right:
            continue
        prime_edges.append(i)
        small = left if top[left] <= top[right] else right
        side_cc = frozenset(members[small])
        top[small] += 1
        sides_cc.append(side_cc)
        side_vertices = frozenset().union(*(components[c] for c in side_cc))
        cuts.append(partial_cut(g, side_vertices, g.edges[i].weight))
        if len(members[left]) < len(members[right]):
            left, right = right, left
        for c in members[right]:
            label[c] = left
        members[left] += members[right]
        members[right] = []
        top[left] = max(top[left], top[right])
    if len(prime_edges) < t - 1:
        raise DisconnectedGraphError("removal set disconnects the graph")
    # p(F) from the pricer's own scan, so check (e) sets it against the
    # prime edges above
    profit = pricer.price(removed)
    for i in sorted(removed):
        if g.edges[i].cost is None:
            raise InputError(f"edge {i} has infinite removal cost")

    # perfect matching: cut i is matchable to any T&F edge crossing its
    # side.  Each such edge joins two distinct components and is listed
    # under both, so it crosses a side iff the side's members list it once.
    ends_at: list[list[int]] = [[] for _ in range(t)]
    for r, ei in enumerate(tree_removed):
        ends_at[component_of[g.edges[ei].u]].append(r)
        ends_at[component_of[g.edges[ei].v]].append(r)
    adjacent = []
    for side_cc in sides_cc:
        hits = Counter(r for c in side_cc for r in ends_at[c])
        adjacent.append(sorted(r for r, k in hits.items() if k == 1))
    matched = _matching(adjacent, len(tree_removed))
    if matched is None:
        raise GuaranteeError("no perfect matching of cuts to removed tree edges")
    matching = tuple(tree_removed[j] for j in matched)

    # costs are positive, so a total in range bounds every partial sum
    cost_sum = check_quantity(sum(g.edges[i].cost for cut in cuts for i in cut.edges))
    profit_lb_sum = sum(
        g.edges[prime_edges[i]].weight - g.edges[matching[i]].weight
        for i in range(t - 1)
    )
    return RelaxationCertificate(
        cuts=tuple(cuts),
        tree_prime_edges=tuple(prime_edges),
        small_sides_cc=tuple(sides_cc),
        matching=matching,
        cost_sum=cost_sum,
        profit_lb_sum=profit_lb_sum,
        profit_value=profit,
        solution_cost=check_quantity(sum(g.edges[i].cost for i in removed)),
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
    crossings: dict[int, int] = {}
    for cut in cert.cuts:
        for i in cut.edges:
            crossings[i] = crossings.get(i, 0) + 1
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

    # (e) matched weight differences sum exactly to the profit
    if cert.profit_value.is_finite:
        checks["matching_profit_identity"] = (
            cert.profit_lb_sum == cert.profit_value.units
        )
    else:
        checks["matching_profit_identity"] = False

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
