import dataclasses
import importlib
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from conftest import UnionFind, connected_random_subset, max_tree_complement, price
from mstint import relaxation
from mstint.cli import main
from mstint.generators import gen_random
from mstint.graph import Edge, Graph, serialize_instance
from mstint.mst import (
    DisconnectedGraphError,
    PartialCutSpec,
    SpanningForest,
    TreePricer,
    mst,
    partial_cut,
)
from mstint.quantities import (
    INFINITY,
    QuantityOverflowError,
    check_quantity,
    finite,
    log2_bounds,
)
from mstint.relaxation import (
    RelaxationCertificate,
    _matching,
    build_cut_sequence,
    certify,
)

mst_module = importlib.import_module("mstint.mst")


def test_cc_graph_t3_single_removal(t3):
    assert TreePricer(t3).pieces(frozenset({0})) == [0, 1, 1]


def test_cc_graph_t3_empty_removal(t3):
    assert TreePricer(t3).pieces(frozenset()) == [0, 0, 0]
    cert = build_cut_sequence(t3, frozenset())
    assert cert.cuts == ()
    assert certify(t3, frozenset(), cert)["ok"]


def test_cc_graph_path_middle_edge():
    g = Graph(
        4,
        (
            Edge(0, 1, 1_000_000, 1_000_000),
            Edge(1, 2, 1_000_000, 1_000_000),
            Edge(2, 3, 1_000_000, 1_000_000),
            Edge(0, 3, 2_000_000, 1_000_000),
        ),
    )
    assert TreePricer(g).pieces(frozenset({1})) == [0, 0, 1, 1]


def test_cc_graph_rejects_disconnecting_removal(t3):
    with pytest.raises(DisconnectedGraphError):
        build_cut_sequence(t3, frozenset({0, 1}))


def test_t3_certificate_hand_values(t3):
    removed = frozenset({0})
    cert = build_cut_sequence(t3, removed)
    assert cert.tree_prime_edges == (2,)
    (cut,) = cert.cuts
    assert cut.side == frozenset({0})
    assert cut.threshold == 3_000_000
    assert cut.edges == frozenset({0})
    assert cert.matching == (0,)
    assert cert.cost_sum == 1_000_000
    assert cert.profit_lb_sum == 2_000_000
    assert cert.profit_value == finite(2_000_000)
    report = certify(t3, removed, cert)
    assert report["ok"], report


def test_certify_rejects_another_graphs_certificate(t3):
    g = gen_random(3, 12, 20, 5, 5)
    removed = frozenset({min(mst(g).edges)})
    cert = build_cut_sequence(g, removed)
    assert certify(g, removed, cert)["ok"]
    assert certify(Graph(g.n_vertices, g.edges), removed, cert)["ok"]  # an equal copy
    other = Graph(2, (Edge(0, 1, 1_000_000, 1_000_000),))
    for h in (other, t3):
        with pytest.raises(ValueError, match="another graph"):
            certify(h, removed, cert)


def test_t2_single_cut_is_trivially_laminar():
    for seed in range(10):
        g = gen_random(seed, 6, 10, 5, 5)
        tree = mst(g)
        removed = frozenset({min(tree.edges)})
        if not price(g, removed).is_finite:
            continue
        cert = build_cut_sequence(g, removed)
        assert len(cert.cuts) == 1
        assert certify(g, removed, cert)["ok"]


def test_all_checks_on_random_pairs():
    checked = 0
    for seed in range(150):
        g = gen_random(seed, 5 + seed % 5, 8 + seed % 7, 5, 5)
        removed = connected_random_subset(g, random.Random(seed ^ 0xC0FFEE))
        cert = build_cut_sequence(g, removed)
        report = certify(g, removed, cert)
        assert report["ok"], (seed, report)
        checked += 1
    assert checked == 150


def test_cost_bound_is_the_certified_inequality():
    # spot-check the exact rational inequality the certifier evaluates
    g = gen_random(11, 8, 14, 5, 5)
    removed = connected_random_subset(g, random.Random(11))
    cert = build_cut_sequence(g, removed)
    t = len(cert.small_sides_cc) + 1
    if t > 1:
        lo, _ = log2_bounds(t)
        assert Fraction(cert.cost_sum) <= 2 * cert.solution_cost * lo


def test_determinism():
    g = gen_random(23, 7, 12, 5, 5)
    removed = connected_random_subset(g, random.Random(23))
    assert build_cut_sequence(g, removed) == build_cut_sequence(g, removed)


def test_matching_profit_identity_is_exact():
    for seed in range(40):
        g = gen_random(seed, 6, 11, 5, 5)
        removed = connected_random_subset(g, random.Random(seed + 77))
        cert = build_cut_sequence(g, removed)
        assert cert.profit_value.is_finite
        assert cert.profit_lb_sum == cert.profit_value.units


# --- reference certify path: a Kruskal that sorts on every call, a fresh
# union-find per cut, a recursive matching and profit() per cut


def ref_mst(g: Graph, exclude=()) -> SpanningForest:
    banned = frozenset(exclude)
    order = sorted(
        (i for i in range(g.n_edges) if i not in banned),
        key=lambda i: (g.edges[i].weight, i),
    )
    uf = UnionFind(g.n_vertices)
    chosen = []
    for i in order:
        e = g.edges[i]
        if uf.union(e.u, e.v):
            chosen.append(i)
            if len(chosen) == g.n_vertices - 1:
                break
    if len(chosen) < g.n_vertices - 1:
        return SpanningForest(frozenset(chosen), INFINITY)
    weight = finite(check_quantity(sum(g.edges[i].weight for i in chosen)))
    return SpanningForest(frozenset(chosen), weight)


def ref_profit(g: Graph, removed):
    base = ref_mst(g)
    if not base.weight.is_finite and g.n_vertices > 1:
        raise DisconnectedGraphError("profit is undefined on a disconnected graph")
    if g.n_vertices == 1:
        return finite(0)
    return ref_mst(g, removed).weight - base.weight


@dataclasses.dataclass(frozen=True)
class RefComponents:
    """The components of T minus F, numbered by their lowest vertex."""

    components: tuple[frozenset[int], ...]
    component_of: tuple[int, ...]  # vertex -> component index

    @property
    def t(self) -> int:
        return len(self.components)


def ref_cc_graph(g: Graph, removed: frozenset[int]) -> tuple[RefComponents, tuple[int, ...]]:
    """The components of T minus F and the edges of G minus F between them."""
    tree = ref_mst(g)
    assert tree.weight.is_finite and ref_mst(g, removed).weight.is_finite
    uf = UnionFind(g.n_vertices)
    for i in tree.edges:
        if i not in removed:
            uf.union(g.edges[i].u, g.edges[i].v)
    relabel: dict[int, int] = {}
    component_of = tuple(
        relabel.setdefault(uf.find(v), len(relabel)) for v in range(g.n_vertices)
    )
    components = tuple(
        frozenset(v for v in range(g.n_vertices) if component_of[v] == c)
        for c in range(len(relabel))
    )
    cc_edges = tuple(
        i
        for i, e in enumerate(g.edges)
        if i not in removed and component_of[e.u] != component_of[e.v]
    )
    return RefComponents(components, component_of), cc_edges


def ref_matching(adjacent, n_right):
    match_left = [-1] * len(adjacent)
    match_right = [-1] * n_right

    def augment(i, seen):
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


def ref_build(g: Graph, removed: frozenset[int]) -> RelaxationCertificate:
    cc, cc_edges = ref_cc_graph(g, removed)
    t = cc.t
    tree_removed = sorted(ref_mst(g).edges & removed)
    assert len(tree_removed) == t - 1
    order = sorted(cc_edges, key=lambda i: (g.edges[i].weight, i))
    uf = UnionFind(t)
    prime_edges = [
        i
        for i in order
        if uf.union(cc.component_of[g.edges[i].u], cc.component_of[g.edges[i].v])
    ]
    assert len(prime_edges) == t - 1
    counts = [0] * t
    sides_cc, cuts = [], []
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
        side_cc = left if max(counts[c] for c in left) <= max(counts[c] for c in right) else right
        for c in side_cc:
            counts[c] += 1
        sides_cc.append(side_cc)
        side_vertices = frozenset().union(*(cc.components[c] for c in side_cc))
        cuts.append(partial_cut(g, side_vertices, e_i.weight))
    adjacent = [
        [
            r
            for r, ei in enumerate(tree_removed)
            if (cc.component_of[g.edges[ei].u] in side)
            != (cc.component_of[g.edges[ei].v] in side)
        ]
        for side in sides_cc
    ]
    matched = ref_matching(adjacent, len(tree_removed))
    assert matched is not None
    matching = tuple(tree_removed[j] for j in matched)
    return RelaxationCertificate(
        cuts=tuple(cuts),
        tree_prime_edges=tuple(prime_edges),
        small_sides_cc=tuple(sides_cc),
        matching=matching,
        cost_sum=check_quantity(sum(g.edges[i].cost for cut in cuts for i in cut.edges)),
        profit_lb_sum=sum(
            g.edges[prime_edges[i]].weight - g.edges[matching[i]].weight
            for i in range(t - 1)
        ),
        profit_value=ref_profit(g, removed),
        solution_cost=check_quantity(sum(g.edges[i].cost for i in removed)),
        pricer=TreePricer(g),
    )


def ref_certify(g: Graph, removed: frozenset[int], cert: RelaxationCertificate) -> dict:
    t = len(cert.small_sides_cc) + 1
    checks = {"cuts_within_solution": all(cut.edges <= removed for cut in cert.cuts)}
    crossings: dict[int, int] = {}
    for cut in cert.cuts:
        for i in cut.edges:
            crossings[i] = crossings.get(i, 0) + 1
    checks["crossing_bound"] = all((1 << k) <= t * t for k in crossings.values())
    if t > 1:
        lo, _ = log2_bounds(t)
        checks["cost_bound"] = Fraction(cert.cost_sum) <= 2 * cert.solution_cost * lo
    else:
        checks["cost_bound"] = cert.cost_sum == 0
    sides = cert.small_sides_cc
    checks["laminar_sides"] = all(
        not (a & b) or a <= b or b <= a
        for x, a in enumerate(sides)
        for b in sides[x + 1 :]
    )
    checks["matching_profit_identity"] = (
        cert.profit_value.is_finite and cert.profit_lb_sum == cert.profit_value.units
    )
    prices = [ref_profit(g, cut.edges).units for cut in cert.cuts]
    total = INFINITY if None in prices else finite(sum(prices))
    checks["profit_cover"] = total >= cert.profit_value
    typical, seen = True, set()
    for side in sides:
        typical &= bool(side - seen)
        seen |= side
    checks["typical_vertices"] = typical and not (len(seen) >= t and t > 1)
    checks["ok"] = all(checks.values())
    return checks


def differential_cases():
    """300 seeded (graph, removal set) pairs: n=4-60, weights that tie,
    removal sets empty, random-connected and the max-spanning-tree
    complement."""
    for seed in range(300):
        n = 4 + seed % 57
        m = n - 1 + (seed * 7) % (2 * n + 1)
        g = gen_random(seed, n, m, (0, 1, 3, 1000)[seed % 4], 1 + seed % 9)
        kind = seed // 4 % 3
        if kind == 0:
            removed = frozenset()
        elif kind == 1:
            removed = connected_random_subset(g, random.Random(seed ^ 0xD1FF))
        else:
            removed = max_tree_complement(g)
        yield seed, g, removed


def test_certify_matches_reference():
    kinds = set()
    for seed, g, removed in differential_cases():
        cert = build_cut_sequence(g, removed)
        # any perfect matching will do: it feeds only profit_lb_sum, a sum
        # over all of T & F, so every other field must equal the reference
        ref = ref_build(g, removed)
        assert dataclasses.replace(cert, matching=()) == dataclasses.replace(ref, matching=()), seed
        assert sorted(cert.matching) == sorted(ref_mst(g).edges & removed), seed
        for cut, i in zip(cert.cuts, cert.matching, strict=True):
            e = g.edges[i]
            assert (e.u in cut.side) != (e.v in cut.side), seed
        report = certify(g, removed, cert)
        assert report == ref_certify(g, removed, cert), seed
        assert report["ok"], (seed, report)
        kinds.add(min(len(cert.cuts), 2))
    assert kinds == {0, 1, 2}


def tampered(cert: RelaxationCertificate, n_edges: int, t: int, rng):
    """One certificate with a side or a cut broken in one of four ways."""
    sides = list(cert.small_sides_cc)
    cuts = list(cert.cuts)
    at = rng.randrange(len(cuts))
    kind = rng.randrange(4)
    if kind == 0:  # a random nonempty side
        sides[at] = frozenset(rng.sample(range(t), rng.randint(1, t)))
    elif kind == 1:  # a side that overlaps another without nesting
        other = rng.randrange(len(sides))
        extra = rng.sample(sorted(sides[other]), rng.randint(1, len(sides[other])))
        outside = [c for c in range(t) if c not in sides[other]]
        sides[at] = sides[at] | frozenset(extra) | frozenset(rng.sample(outside, 1))
    elif kind == 2:  # a cut of random edges, often outside the solution
        edges = frozenset(i for i in range(n_edges) if rng.random() < 0.2)
        cuts[at] = PartialCutSpec(cuts[at].side, cuts[at].threshold, edges)
    else:  # cuts emptied
        for k in range(len(cuts)):
            if k == at or rng.random() < 0.7:
                cuts[k] = PartialCutSpec(cuts[k].side, cuts[k].threshold, frozenset())
    return dataclasses.replace(cert, small_sides_cc=tuple(sides), cuts=tuple(cuts))


def test_certify_matches_reference_on_tampered_certificates():
    # every check of certify against the pairwise, Kruskal-per-cut
    # reference, on certificates where the checks must also say False
    rng = random.Random(0x7A3B)
    names = ("laminar_sides", "profit_cover", "cuts_within_solution", "typical_vertices")
    failed = dict.fromkeys(names, 0)
    checked = 0
    for seed, g, removed in differential_cases():
        cert = build_cut_sequence(g, removed)
        if not cert.cuts:
            continue
        t = len(cert.small_sides_cc) + 1
        for _ in range(4):
            bad = tampered(cert, g.n_edges, t, rng)
            report = certify(g, removed, bad)
            assert report == ref_certify(g, removed, bad), seed
            for name in failed:
                failed[name] += not report[name]
            checked += 1
    assert checked >= 600
    assert min(failed.values()) >= 20, failed


def test_cut_profits_match_kruskal():
    rng = random.Random(0x9C1F)
    disconnecting = 0
    for seed in range(150):
        n = 2 + seed % 40
        m = n - 1 + (seed * 5) % (2 * n + 1)
        g = gen_random(seed, n, m, (0, 1, 3, 1000)[seed % 4], 5)
        tree = mst(g)
        sets = [frozenset(), frozenset(range(g.n_edges)), tree.edges]
        for _ in range(20):
            p = rng.choice((0.05, 0.2, 0.5))
            sets.append(frozenset(i for i in range(g.n_edges) if rng.random() < p))
        expected = [mst(g, cut).weight - tree.weight for cut in sets]
        pricer = TreePricer(g)
        assert [pricer.price(cut) for cut in sets] == expected, seed
        disconnecting += sum(not value.is_finite for value in expected)
    assert disconnecting >= 500


def ref_partial_cut(g: Graph, side, threshold):
    return frozenset(
        i
        for i, e in enumerate(g.edges)
        if ((e.u in side) != (e.v in side))
        and (threshold is None or e.weight < threshold)
    )


def test_partial_cut_matches_full_scan():
    rng = random.Random(0x51DE)
    sizes = set()
    for seed in range(120):
        n = 2 + seed % 30
        g = gen_random(seed, n, n - 1 + seed % (2 * n), (0, 1, 3, 1000)[seed % 4], 5)
        for _ in range(6):
            side = frozenset(rng.sample(range(n), rng.randint(1, n - 1)))
            sizes.add(2 * len(side) <= n)
            weights = sorted({e.weight for e in g.edges}) + [10**6]
            for threshold in (None, 0, *rng.sample(weights, 2)):
                expected = ref_partial_cut(g, side, threshold)
                assert partial_cut(g, side, threshold) == PartialCutSpec(side, threshold, expected)
    assert sizes == {True, False}
    g = gen_random(1, 5, 8, 3, 5)
    for side in (set(), set(range(5)), {0, 5}, {-1, 2}):
        with pytest.raises(ValueError):
            partial_cut(g, side, None)


def test_mst_matches_reference():
    rng = random.Random(0x4D57)
    graphs = [Graph(1, ())]
    for seed in range(120):
        n = 2 + seed % 13
        if seed % 3:
            g = gen_random(seed, n, n - 1 + seed % (2 * n), (0, 1, 3, 1000)[seed % 4], 5)
        else:  # any edge set, often disconnected
            edges = []
            for _ in range(seed % (2 * n)):
                u, v = rng.sample(range(n), 2)
                edges.append(Edge(u, v, rng.randint(0, 3), 1))
            g = Graph(n, tuple(edges))
        graphs.append(g)
    disconnected = 0
    for g in graphs:
        picks = [i for i in range(g.n_edges) if rng.random() < 0.3]
        for exclude in ((), picks, tuple(picks), set(picks), frozenset(picks)):
            forest = mst(g, exclude)
            assert forest == ref_mst(g, exclude)
            disconnected += not forest.weight.is_finite
    assert disconnected > 0


def test_mst_weight_overflow_is_checked():
    huge = 2**62
    g = Graph(3, (Edge(0, 1, huge, 1), Edge(1, 2, huge, 1)))
    with pytest.raises(QuantityOverflowError):
        ref_mst(g)
    with pytest.raises(QuantityOverflowError):
        mst(g)
    assert mst(g, {1}).weight == INFINITY


def test_matching_long_augmenting_path():
    # the first-free seed gives cut i edge i + 1 and leaves the last cut's
    # only edge taken, so that cut displaces the whole chain: one augmenting
    # path of 5000 steps, deeper than Python's recursion limit
    n = 5000
    adjacent = [[i + 1, i] for i in range(n - 1)] + [[n - 1]]
    assert _matching(adjacent, n) == list(range(n))


def test_matching_matches_reference():
    # any perfect matching will do: `_matching` must find one exactly when
    # the reference does, and give each left vertex its own adjacent right one
    rng = random.Random(0x3A7C)
    cases = []
    for _ in range(300):
        left, right = rng.randint(0, 8), rng.randint(0, 8)
        adjacent = [
            rng.sample(range(right), rng.randint(0, right)) for _ in range(left)
        ]
        cases.append((adjacent, right))
    # no perfect matching, though the first-free seed leaves only one or
    # two left vertices unmatched, and no augmenting path starts at them
    cases += [
        ([[0], [0]], 2),
        ([[0, 1], [0, 1], [0, 1]], 3),
        ([[0, 1], [1, 2], [0, 2], [0, 1, 2], [3]], 5),
        ([[1, 0], [2, 1], [3, 2], [0, 3], [0], [1]], 6),
    ]
    found = Counter()
    for adjacent, right in cases:
        expected = ref_matching(adjacent, right)
        matched = _matching(adjacent, right)
        found[expected is None] += 1
        if expected is None:
            assert matched is None, adjacent
            continue
        assert matched is not None and len(matched) == len(adjacent), adjacent
        assert all(j in adjacent[i] for i, j in enumerate(matched)), adjacent
        assert len(set(matched)) == len(matched), adjacent
    assert min(found.values()) > 50, found


# --- the work of one certify run, as counts


def counted_prices(patch, counts: dict) -> None:
    """Count `TreePricer.price` calls under `counts["price"]`."""
    real_price = TreePricer.price

    def counted_price(pricer, removed):
        counts["price"] += 1
        return real_price(pricer, removed)

    patch.setattr(TreePricer, "price", counted_price)


def certify_run_counts(monkeypatch, tmp_path, g: Graph, removed) -> dict:
    """Calls of `mst`, `kruskal_order`, `TreePricer.price` and `partial_cut`
    in one `mstint certify` run."""
    counts = {"mst": 0, "kruskal_order": 0, "price": 0, "partial_cut": 0}
    real_mst = mst_module.mst

    def counted_mst(*args, **kwargs):
        counts["mst"] += 1
        return real_mst(*args, **kwargs)

    order = Graph.__dict__["kruskal_order"]
    real_order = order.func

    def counted_order(graph):
        counts["kruskal_order"] += 1
        return real_order(graph)

    def counted_cut(*args, **kwargs):
        counts["partial_cut"] += 1
        return partial_cut(*args, **kwargs)

    path = tmp_path / "instance.txt"
    path.write_text(serialize_instance(g))
    with monkeypatch.context() as patch:
        patch.setattr(mst_module, "mst", counted_mst)
        patch.setattr(order, "func", counted_order)
        counted_prices(patch, counts)
        # every module of the package that holds `partial_cut`
        for name, module in list(sys.modules.items()):
            if name.startswith("mstint.") and vars(module).get("partial_cut") is partial_cut:
                patch.setattr(module, "partial_cut", counted_cut)
        assert main(["certify", str(path), "--edges", ",".join(map(str, removed))]) == 0
    return counts


def test_certify_work_counts(monkeypatch, tmp_path):
    for seed in range(6):
        g = gen_random(seed, 30 + 10 * seed, 120 + 40 * seed, (3, 1000)[seed % 2], 5)
        removed = sorted(max_tree_complement(g))
        n_cuts = len(build_cut_sequence(g, frozenset(removed)).cuts)
        assert n_cuts > 20
        counts = certify_run_counts(monkeypatch, tmp_path, g, removed)
        # one, whatever t: T = MST(G), inside the run's one `TreePricer`;
        # build finds the prime edges by one Kruskal pass over the
        # components of T minus F, the pricer labels those components,
        # prices p(F) and prices the cuts of check (f) from the pieces of
        # T minus C, with no Kruskal of its own
        assert counts["mst"] == 1
        assert counts["kruskal_order"] == 1
        # check (f) prices the largest cuts first and stops once their
        # prices cover p(F), which here takes at most half the cuts
        assert 0 < counts["price"] <= n_cuts // 2, (seed, counts["price"], n_cuts)
        # each cut is read off its union-find label in that Kruskal pass,
        # with no scan of the graph of its own
        assert counts["partial_cut"] == 0, (seed, counts["partial_cut"], n_cuts)


def test_profit_cover_short_exact_and_infinite(monkeypatch):
    g = gen_random(3, 60, 240, 1000, 5)
    removed = max_tree_complement(g)
    cert = build_cut_sequence(g, removed)
    prices = [cert.pricer.price(cut.edges) for cut in cert.cuts]
    assert all(p.is_finite for p in prices) and len(prices) > 20
    total = sum(p.units for p in prices)
    disconnecting = dataclasses.replace(
        cert,
        cuts=cert.cuts[:-1]
        + (PartialCutSpec(cert.cuts[-1].side, None, frozenset(range(g.n_edges))),),
    )
    cases = {
        # the prices fall one unit short of the claimed profit
        "short": (dataclasses.replace(cert, profit_value=finite(total + 1)), False),
        "exact": (dataclasses.replace(cert, profit_value=finite(total)), True),
        # an infinite profit is covered only by an infinite price
        "infinite": (dataclasses.replace(cert, profit_value=INFINITY), False),
        "infinite, disconnecting cut": (
            dataclasses.replace(disconnecting, profit_value=INFINITY),
            True,
        ),
    }
    for name, (bad, covered) in cases.items():
        counts = {"price": 0}
        with monkeypatch.context() as patch:
            counted_prices(patch, counts)
            report = certify(g, removed, bad)
        assert report == ref_certify(g, removed, bad), name
        assert report["profit_cover"] is covered, name
        if not covered:  # a cover that fails has priced every cut
            assert counts["price"] == len(cert.cuts), name
