"""Cut-sequence construction and certification for a given solution F.

Given a removal set F with finite profit, builds the sequence of partial
cuts over the components of T minus F, chosen on the small side of the MST
of the connected-components graph, and verifies the cost, laminarity,
matching, and profit bounds that make the greedy analysis work.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph
from .mst import (
    DisconnectedGraphError,
    PartialCutSpec,
    UnionFind,
    mst,
    partial_cut,
    profit,
)
from .quantities import ExtendedValue, GuaranteeError, ZERO, checked_sum, log2_bounds


@dataclass(frozen=True)
class CcGraph:
    """Components of T minus F, with the surviving inter-component edges."""

    components: tuple[frozenset[int], ...]
    edges: tuple[int, ...]  # original edge indices between distinct components
    component_of: tuple[int, ...]  # vertex -> component index

    @property
    def t(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class RelaxationCertificate:
    cuts: tuple[PartialCutSpec, ...]
    tree_prime_edges: tuple[int, ...]  # original indices, non-decreasing weight
    small_sides_cc: tuple[frozenset[int], ...]  # component-index sides
    small_side_counts: tuple[int, ...]  # final k() per component
    matching: tuple[int, ...]  # cut i -> matched original edge in T & F
    cost_sum: int
    profit_lb_sum: int  # sum of w(e_i') - w(e_pi(i))
    profit_value: ExtendedValue  # p_G(F)
    solution_cost: int  # c(F)


def build_cc_graph(g: Graph, removed: frozenset[int]) -> CcGraph:
    tree = mst(g)
    if not tree.weight.is_finite:
        raise DisconnectedGraphError("graph is disconnected")
    if not mst(g, removed).weight.is_finite:
        raise DisconnectedGraphError("removal set disconnects the graph")
    uf = UnionFind(g.n_vertices)
    for i in tree.edges:
        if i not in removed:
            uf.union(g.edges[i].u, g.edges[i].v)
    roots = sorted({uf.find(v) for v in range(g.n_vertices)})
    relabel = {r: c for c, r in enumerate(roots)}
    component_of = tuple(relabel[uf.find(v)] for v in range(g.n_vertices))
    components = tuple(
        frozenset(v for v in range(g.n_vertices) if component_of[v] == c)
        for c in range(len(roots))
    )
    cc_edges = tuple(
        i
        for i, e in enumerate(g.edges)
        if i not in removed and component_of[e.u] != component_of[e.v]
    )
    return CcGraph(components, cc_edges, component_of)


def _cc_mst_edges(g: Graph, cc: CcGraph) -> list[int]:
    """MST of the components graph; returns original edge indices sorted
    non-decreasingly by (weight, original index)."""
    order = sorted(cc.edges, key=lambda i: (g.edges[i].weight, i))
    uf = UnionFind(cc.t)
    chosen = []
    for i in order:
        e = g.edges[i]
        if uf.union(cc.component_of[e.u], cc.component_of[e.v]):
            chosen.append(i)
    return chosen


def _matching(adjacent: list[list[int]], n_right: int) -> list[int] | None:
    """Kuhn's augmenting-path bipartite matching; left i -> right index."""
    match_left = [-1] * len(adjacent)
    match_right = [-1] * n_right

    def augment(i: int, seen: set[int]) -> bool:
        for j in adjacent[i]:
            if j in seen:
                continue
            seen.add(j)
            if match_right[j] == -1 or augment(match_right[j], seen):
                match_left[i] = j
                match_right[j] = i
                return True
        return False

    for i in range(len(adjacent)):
        if not augment(i, set()):
            return None
    return match_left


def build_cut_sequence(g: Graph, removed: frozenset[int]) -> RelaxationCertificate:
    cc = build_cc_graph(g, removed)
    t = cc.t
    tree = mst(g)
    tree_removed = sorted(tree.edges & removed)
    if len(tree_removed) != t - 1:
        raise GuaranteeError(
            f"T minus F has {t} components but F holds {len(tree_removed)} tree edges"
        )

    prime_edges = _cc_mst_edges(g, cc)
    if len(prime_edges) != t - 1:
        raise GuaranteeError(
            f"the components graph's MST has {len(prime_edges)} edges, not {t - 1}"
        )

    # forest connectivity using only prime edges with order index < i
    counts = [0] * t
    sides_cc: list[frozenset[int]] = []
    cuts: list[PartialCutSpec] = []
    for i in range(t - 1):
        uf = UnionFind(t)
        for j in range(i):
            e = g.edges[prime_edges[j]]
            uf.union(cc.component_of[e.u], cc.component_of[e.v])
        e_i = g.edges[prime_edges[i]]
        left_root = uf.find(cc.component_of[e_i.u])
        right_root = uf.find(cc.component_of[e_i.v])
        left = frozenset(c for c in range(t) if uf.find(c) == left_root)
        right = frozenset(c for c in range(t) if uf.find(c) == right_root)
        k_left = max(counts[c] for c in left)
        k_right = max(counts[c] for c in right)
        side_cc = left if k_left <= k_right else right
        for c in side_cc:
            counts[c] += 1
        sides_cc.append(side_cc)
        side_vertices = frozenset().union(*(cc.components[c] for c in side_cc))
        cuts.append(partial_cut(g, side_vertices, e_i.weight))

    # perfect matching: cut i is matchable to any T&F edge crossing its side
    adjacent = []
    for side_cc in sides_cc:
        adjacent.append(
            [
                r
                for r, ei in enumerate(tree_removed)
                if (cc.component_of[g.edges[ei].u] in side_cc)
                != (cc.component_of[g.edges[ei].v] in side_cc)
            ]
        )
    matched = _matching(adjacent, len(tree_removed))
    if matched is None:
        raise GuaranteeError("no perfect matching of cuts to removed tree edges")
    matching = tuple(tree_removed[j] for j in matched)

    cost_sum = checked_sum(
        checked_sum(g.edges[i].cost for i in cut.edges) if cut.edges else 0
        for cut in cuts
    )
    profit_lb_sum = sum(
        g.edges[prime_edges[i]].weight - g.edges[matching[i]].weight
        for i in range(t - 1)
    )
    return RelaxationCertificate(
        cuts=tuple(cuts),
        tree_prime_edges=tuple(prime_edges),
        small_sides_cc=tuple(sides_cc),
        small_side_counts=tuple(counts),
        matching=matching,
        cost_sum=cost_sum,
        profit_lb_sum=profit_lb_sum,
        profit_value=profit(g, removed),
        solution_cost=checked_sum(g.edges[i].cost for i in removed),
    )


def certify(g: Graph, removed: frozenset[int], cert: RelaxationCertificate) -> dict:
    """Check every guarantee of the cut sequence; returns a named report."""
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

    # (d) laminarity of the small sides
    laminar = True
    sides = cert.small_sides_cc
    for a in range(len(sides)):
        for b in range(a + 1, len(sides)):
            inter = sides[a] & sides[b]
            if inter and not (sides[a] <= sides[b] or sides[b] <= sides[a]):
                laminar = False
    checks["laminar_sides"] = laminar

    # (e) matched weight differences sum exactly to the profit
    if cert.profit_value.is_finite:
        checks["matching_profit_identity"] = (
            cert.profit_lb_sum == cert.profit_value.units
        )
    else:
        checks["matching_profit_identity"] = False

    # (f) total cut profit covers the solution profit
    total = ZERO
    for cut in cert.cuts:
        total = total + profit(g, cut.edges)
    checks["profit_cover"] = total >= cert.profit_value

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
