import importlib
import random
from fractions import Fraction

import pytest

from conftest import price, reference_candidate_check
from mstint.eps import eps_increase
from mstint.generators import gen_random
from mstint.graph import Candidate, Edge, Graph
from mstint.mst import DisconnectedGraphError, PartialCutSpec, mst, partial_cut
from mstint.protection import (
    CandidateInvariantError,
    ProtectionInstance,
    UncoverableCutError,
    _greedy_cover,
    covers,
    protect,
)
from mstint.quantities import ZERO, GuaranteeError

SCALE = 1_000_000

mst_module = importlib.import_module("mstint.mst")


def mirror_candidates(g: Graph, rng: random.Random, count: int) -> tuple[Candidate, ...]:
    """Candidates parallel to MST edges with equal weight: adding one never
    lowers the MST weight, so the instance invariant holds by construction."""
    tree = sorted(mst(g).edges)
    picks = [tree[rng.randrange(len(tree))] for _ in range(count)]
    return tuple(
        Candidate(
            g.edges[i].u,
            g.edges[i].v,
            g.edges[i].weight,
            rng.randint(1, 5) * SCALE,
            rng.randint(1, 5) * SCALE,
        )
        for i in picks
    )


def tree_adjacency(g: Graph) -> dict[int, list[tuple[int, int]]]:
    """(neighbour, weight) pairs of each vertex over the edges of MST(g)."""
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(g.n_vertices)}
    for i in mst(g).edges:
        e = g.edges[i]
        adj[e.u].append((e.v, e.weight))
        adj[e.v].append((e.u, e.weight))
    return adj


def heaviest_on_tree_path(adj, u: int, v: int) -> int | None:
    """The heaviest weight on the tree path from u to v, by a search from u;
    None when v lies in another component."""
    heaviest = {u: 0}
    stack = [u]
    while stack:
        x = stack.pop()
        for y, w in adj[x]:
            if y not in heaviest:
                heaviest[y] = max(heaviest[x], w)
                stack.append(y)
    return heaviest.get(v)


def offset_candidates(g: Graph, rng: random.Random, count: int) -> tuple[Candidate, ...]:
    """Candidates beside random edges, weighing the heaviest MST edge on the
    tree path between the edge's ends plus 0, 1/2, 1 or 3/2 units: never below
    that MST edge, so the invariant holds, and often strictly between two
    edge weights."""
    adj = tree_adjacency(g)
    picks = []
    for _ in range(count):
        e = g.edges[rng.randrange(g.n_edges)]
        weight = heaviest_on_tree_path(adj, e.u, e.v) + rng.choice((0, 1, 2, 3)) * SCALE // 2
        picks.append(
            Candidate(e.u, e.v, weight, rng.randint(1, 5) * SCALE, rng.randint(1, 5) * SCALE)
        )
    return tuple(picks)


def test_protect_family_t3(t3):
    # both optimal cuts of t3 are generated, one per round
    inst = ProtectionInstance(
        t3,
        (
            Candidate(0, 1, SCALE, 2 * SCALE, 4 * SCALE),
            Candidate(1, 2, 2 * SCALE, 3 * SCALE, 4 * SCALE),
        ),
    )
    _, listing = protect(inst)
    assert listing.optimal_cost == SCALE
    assert [c.edges for c in listing.cuts] == [frozenset({0}), frozenset({1})]
    assert listing.cost_after == 5 * SCALE


def test_protect_family_p2(p2):
    # no weight lies above the only edge's: the family cut is complete; of
    # two equal candidates the greedy keeps the lower index
    twin = Candidate(0, 1, 5 * SCALE, SCALE, SCALE)
    chosen, listing = protect(ProtectionInstance(p2, (twin, twin)))
    assert chosen == frozenset({0})
    assert listing.cuts == (PartialCutSpec(frozenset({0}), None, frozenset({0})),)
    assert (listing.optimal_cost, listing.cost_after) == (3 * SCALE, 4 * SCALE)


def test_listed_cuts_are_optimal_and_profitable():
    for seed in range(30):
        g = gen_random(seed, 4 + seed % 4, 6 + seed % 5, 5, 5)
        best = eps_increase(g).cost
        # a mirror of every edge covers every optimal cut
        inst = ProtectionInstance(
            g, tuple(Candidate(e.u, e.v, e.weight, SCALE, SCALE) for e in g.edges)
        )
        _, listing = protect(inst)
        assert listing.optimal_cost == best
        assert listing.cost_after > best
        for cut in listing.cuts:
            assert sum(g.edges[i].cost for i in cut.edges) == best
            assert price(g, cut.edges) > ZERO


def test_covers_semantics(t3):
    cut_e0 = PartialCutSpec(frozenset({0}), 2 * SCALE, frozenset({0}))
    assert covers(Candidate(0, 1, SCALE, SCALE, SCALE), cut_e0)
    # parallel edge too heavy for the threshold does not cover
    heavy = Candidate(0, 1, 10 * SCALE, SCALE, SCALE)
    assert not covers(heavy, cut_e0)
    # non-crossing edge does not cover
    inner = Candidate(1, 2, 0, SCALE, SCALE)
    assert not (
        (inner.u in cut_e0.side) != (inner.v in cut_e0.side)
    ) and not covers(inner, cut_e0)
    # a candidate between the cut's weight 1 and the next edge weight 3
    # leaves the cut at cost 1: the cut's threshold is the candidate's
    # weight, so it does not cover, and no cover exists
    g = Graph(2, (Edge(0, 1, SCALE, SCALE), Edge(0, 1, 3 * SCALE, 10 * SCALE)))
    between = Candidate(0, 1, 2 * SCALE, SCALE, 10 * SCALE)
    inst = ProtectionInstance(g, (between,))
    assert eps_increase(inst.augmented({0})).cost == SCALE
    assert not covers(between, partial_cut(g, {0}, 2 * SCALE))
    with pytest.raises(UncoverableCutError):
        protect(inst)


def test_invariant_validation(t3):
    # a light shortcut edge would lower the MST: rejected
    with pytest.raises(CandidateInvariantError):
        ProtectionInstance(t3, (Candidate(0, 2, 500_000, SCALE, 5 * SCALE),))


KINDS = ("mirror", "shortcut", "between", "zero", "above", "parallel", "duplicate")


def mixed_candidates(g: Graph, rng: random.Random, count: int, kinds) -> list[Candidate]:
    """Candidates of the given kinds: equal-weight mirrors of tree edges,
    shortcuts lighter than the heaviest tree edge on their path, weights
    half a unit above a base weight, weight 0, weights above the heaviest
    edge, parallels to a base edge at its weight or one unit off it, and
    duplicates of an earlier candidate."""
    weights = sorted({e.weight for e in g.edges}) or [0]
    tree, adj = sorted(mst(g).edges), tree_adjacency(g)
    out: list[Candidate] = []
    for _ in range(count):
        kind = rng.choice(kinds)
        u, v = rng.sample(range(g.n_vertices), 2)
        if kind == "mirror" and tree:
            e = g.edges[rng.choice(tree)]
            u, v, weight = e.u, e.v, e.weight
        elif kind == "shortcut":
            top = heaviest_on_tree_path(adj, u, v) or 0
            weight = max(0, top - rng.choice((1, SCALE // 2, SCALE)))
        elif kind == "between":
            weight = rng.choice(weights) + SCALE // 2
        elif kind == "above":
            weight = weights[-1] + rng.choice((1, SCALE, 5 * SCALE))
        elif kind == "parallel" and g.edges:
            e = g.edges[rng.randrange(g.n_edges)]
            u, v, weight = e.u, e.v, max(0, e.weight + rng.choice((-SCALE, 0, SCALE)))
        elif kind == "duplicate" and out:
            out.append(rng.choice(out))
            continue
        else:
            weight = 0
        out.append(Candidate(u, v, weight, rng.randint(1, 5) * SCALE, rng.randint(1, 5) * SCALE))
    return out


def check_outcome(check, g: Graph, candidates) -> tuple[type, str] | None:
    try:
        check(g, tuple(candidates))
    except (CandidateInvariantError, DisconnectedGraphError) as exc:
        return type(exc), str(exc)
    return None


def test_candidate_check_matches_kruskal_per_candidate():
    # the pieces of T minus its heavier edges refuse the same candidate, by
    # the same error, as a Kruskal on the base graph plus each candidate
    outcomes = {"accepted": 0, "first": 0, "later": 0, "disconnected": 0}
    for seed in range(500):
        rng = random.Random(seed)
        n = 2 + seed % 29
        g = gen_random(seed + 7000, n, n - 1 + rng.randrange(2 * n), rng.randint(0, 6), 5)
        if seed % 25 == 0:  # isolate the last vertex
            g = Graph(n, tuple(e for e in g.edges if n - 1 not in (e.u, e.v)))
        # without shortcuts and zeros most instances pass the check
        kinds = KINDS if seed % 3 else ("mirror", "between", "above", "parallel", "duplicate")
        candidates = mixed_candidates(g, rng, rng.randint(1, 12), kinds)
        expected = check_outcome(reference_candidate_check, g, candidates)
        assert check_outcome(ProtectionInstance, g, candidates) == expected, seed
        if expected is None:
            outcomes["accepted"] += 1
        elif expected[0] is DisconnectedGraphError:
            outcomes["disconnected"] += 1
        else:
            outcomes["first" if expected[1] == "candidate 0 reduces the MST weight" else "later"] += 1
    assert min(outcomes.values()) >= 20, outcomes


def test_candidate_check_work_count(monkeypatch):
    # 4999 mirrors of a 5000-vertex path: one Kruskal, one candidate graph
    n = 5000
    g = Graph(n, tuple(Edge(i, i + 1, SCALE, SCALE) for i in range(n - 1)))
    mirrors = tuple(Candidate(i, i + 1, SCALE, SCALE, SCALE) for i in range(n - 1))
    calls = {"mst": 0, "graph": 0}
    real_mst, real_init = mst_module.mst, Graph.__post_init__

    def counted_mst(*args, **kwargs):
        calls["mst"] += 1
        return real_mst(*args, **kwargs)

    def counted_init(self):
        calls["graph"] += 1
        real_init(self)

    monkeypatch.setattr(mst_module, "mst", counted_mst)
    monkeypatch.setattr(Graph, "__post_init__", counted_init)
    ProtectionInstance(g, mirrors)
    assert calls["mst"] == 1 and calls["graph"] <= 1, calls


@pytest.mark.parametrize(
    "candidate, message",
    [
        (Candidate(0, 3, SCALE, SCALE, SCALE), "endpoint out of range"),
        (Candidate(-1, 1, SCALE, SCALE, SCALE), "endpoint out of range"),
        (Candidate(1, 1, SCALE, SCALE, SCALE), "self-loop rejected"),
        (Candidate(0, 1, -1, SCALE, SCALE), "negative weight"),
        (Candidate(0, 1, SCALE, SCALE, 0), "non-positive cost"),
    ],
)
def test_malformed_candidate_raises_value_error(t3, candidate, message):
    # the candidate graph names the candidate by its index
    mirror = Candidate(0, 1, SCALE, SCALE, SCALE)
    with pytest.raises(ValueError, match=f"^edge 1: {message}$"):
        ProtectionInstance(t3, (mirror, candidate))


def test_protect_t3_two_candidates(t3):
    inst = ProtectionInstance(
        t3,
        (
            Candidate(0, 1, SCALE, 2 * SCALE, 4 * SCALE),
            Candidate(1, 2, 2 * SCALE, 3 * SCALE, 4 * SCALE),
        ),
    )
    chosen, listing = protect(inst)
    assert chosen == frozenset({0, 1})
    before = eps_increase(t3).cost
    after = eps_increase(inst.augmented(chosen)).cost
    assert after > before
    assert listing.cost_after == after


def test_protect_uncoverable(t3):
    # one candidate cannot cover the {e1}-side cut (side {0,1})
    inst = ProtectionInstance(t3, (Candidate(0, 1, SCALE, SCALE, SCALE),))
    with pytest.raises(UncoverableCutError):
        protect(inst)


def test_disjoint_coverage_picks_both():
    # path 0-1-2 with distinct weights: two optimal cuts, each coverable
    # only by its own mirror candidate
    g = Graph(3, (Edge(0, 1, SCALE, SCALE), Edge(1, 2, 2 * SCALE, SCALE)))
    inst = ProtectionInstance(
        g,
        (
            Candidate(0, 1, SCALE, 2 * SCALE, SCALE),
            Candidate(1, 2, 2 * SCALE, 3 * SCALE, SCALE),
        ),
    )
    chosen, _ = protect(inst)
    assert chosen == frozenset({0, 1})
    total = sum(inst.candidates[i].build_cost for i in chosen)
    assert total == 5 * SCALE


def set_greedy_cover(candidates, coverage, n_cuts):
    """The greedy cover over sets: one full scan of the candidates a round."""
    uncovered = set(range(n_cuts))
    chosen = set()
    while uncovered:
        best_idx = None
        best_new = set()
        for idx, cand in enumerate(candidates):
            new = coverage[idx] & uncovered
            if not new:
                continue
            if best_idx is None or cand.build_cost * len(best_new) < (
                candidates[best_idx].build_cost * len(new)
            ):
                best_idx, best_new = idx, new
        if best_idx is None:
            raise GuaranteeError("no candidate covers an uncovered cut")
        chosen.add(best_idx)
        uncovered -= best_new
    return frozenset(chosen)


def test_bitset_cover_matches_set_cover():
    # few distinct costs and dense coverage give many ratio ties, which
    # both covers break to the lower index
    for seed in range(400):
        rng = random.Random(seed)
        n_cuts, k = rng.randint(1, 12), rng.randint(1, 10)
        candidates = tuple(Candidate(0, 1, 0, rng.randint(1, 3), 1) for _ in range(k))
        sets = [
            {j for j in range(n_cuts) if rng.random() < (seed % 4 + 1) / 5}
            for _ in range(k)
        ]
        if seed % 8:  # else some cut may have no covering candidate
            for j in range(n_cuts):
                rng.choice(sets).add(j)
        masks = [sum(1 << j for j in cut_set) for cut_set in sets]
        try:
            expected = set_greedy_cover(candidates, sets, n_cuts)
        except GuaranteeError:
            with pytest.raises(GuaranteeError):
                _greedy_cover(candidates, masks, n_cuts)
        else:
            assert _greedy_cover(candidates, masks, n_cuts) == expected, seed


def test_protect_matches_all_candidates_built():
    # the optimum survives building every candidate iff some optimal cut
    # is uncoverable; otherwise the rise is strict and the family is covered
    outcomes = {
        (make, outcome): 0
        for make in ("mirror_candidates", "offset_candidates")
        for outcome in ("protected", "uncoverable")
    }
    for seed in range(400):
        n = 5 + seed % 36
        g = gen_random(seed + 3000, n, n - 1 + (seed * 7) % (2 * n), 3 + seed % 4, 5)
        rng = random.Random(seed)
        # offset candidates cover less often: more of them balance the outcomes
        make, count = (mirror_candidates, n) if seed % 2 else (offset_candidates, 4 * n)
        inst = ProtectionInstance(g, make(g, rng, count))
        before = eps_increase(g).cost
        all_built = eps_increase(inst.augmented(range(len(inst.candidates)))).cost
        try:
            chosen, listing = protect(inst)
        except UncoverableCutError:
            assert all_built == before, seed
            outcomes[make.__name__, "uncoverable"] += 1
            continue
        assert all_built > before, seed
        outcomes[make.__name__, "protected"] += 1
        after = eps_increase(inst.augmented(chosen)).cost
        assert listing.optimal_cost == before and listing.cost_after == after > before
        for cut in listing.cuts:
            assert cut == partial_cut(g, cut.side, cut.threshold)
            assert sum(g.edges[i].cost for i in cut.edges) == before, seed
            assert price(g, cut.edges) > ZERO
            assert any(covers(inst.candidates[i], cut) for i in chosen), seed
    assert min(outcomes.values()) >= 40, outcomes


def brute_min_cover_cost(coverage, n_cuts, costs):
    best = None
    for mask in range(1 << len(coverage)):
        picked = [i for i in range(len(coverage)) if mask >> i & 1]
        covered = frozenset().union(*(coverage[i] for i in picked), frozenset())
        if len(covered) < n_cuts:
            continue
        cost = sum(costs[i] for i in picked)
        if best is None or cost < best:
            best = cost
    return best


def test_strict_increase_and_cover_quality_on_random_instances():
    successes = 0
    seed = 0
    while successes < 60 and seed < 400:
        seed += 1
        g = gen_random(seed, 5 + seed % 3, 7 + seed % 4, 5, 5)
        rng = random.Random(seed * 31)
        try:
            inst = ProtectionInstance(g, mirror_candidates(g, rng, 3 + seed % 6))
            chosen, listing = protect(inst)
        except UncoverableCutError:
            continue
        successes += 1
        before = eps_increase(g).cost
        after = eps_increase(inst.augmented(chosen)).cost
        assert after > before, seed
        # greedy quality vs brute-force optimum cover
        if len(listing.cuts) <= 12 and len(inst.candidates) <= 10:
            coverage = [
                frozenset(
                    k for k, cut in enumerate(listing.cuts) if covers(cand, cut)
                )
                for cand in inst.candidates
            ]
            costs = [c.build_cost for c in inst.candidates]
            opt = brute_min_cover_cost(coverage, len(listing.cuts), costs)
            harmonic = sum(Fraction(1, k) for k in range(1, len(listing.cuts) + 1))
            assert Fraction(sum(costs[i] for i in chosen)) <= harmonic * opt
    assert successes == 60
