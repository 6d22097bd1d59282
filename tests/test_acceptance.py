"""Acceptance suite: the eight primary guarantees at stated tolerances.

Each test prints one `ACCEPTANCE n <name>: PASS/FAIL` line (run pytest
with -s to see them) and then asserts.  All comparisons are exact
integer/rational arithmetic; log2 appears only via certified rational
bounds evaluated at whichever endpoint is conservative.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction

from conftest import brute_min_st_cut_cost, connected_random_subset, price
from mstint.budget import budget_approximate
from mstint.cuts import CutNetwork, min_st_cut
from mstint.eps import eps_increase
from mstint.generators import gen_bad_example, gen_random
from mstint.graph import Graph
from mstint.mst import mst
from mstint.oracle import (
    oracle_budget,
    oracle_eps,
    oracle_profit,
    prim_mst_weight,
)
from mstint.profit import profit_approximate
from mstint.protection import (
    ProtectionInstance,
    UncoverableCutError,
    covers,
    protect,
)
from mstint.quantities import ZERO, finite, log2_bounds
from mstint.relaxation import build_cut_sequence, certify

SCALE = 1_000_000


def report(number: int, name: str, violations: list, detail: str = "") -> None:
    import conftest

    verdict = "PASS" if not violations else f"FAIL ({len(violations)} violations)"
    suffix = f" {detail}" if detail else ""
    line = f"ACCEPTANCE {number} {name}: {verdict}{suffix}"
    print("\n" + line)
    conftest.acceptance_lines.append(line)
    assert not violations, violations[:5]


def log_ratio_bound(count: int) -> Fraction:
    """Conservative upper estimate of 1/(4L) - 1/(4L^2) for L = log2(count).

    The expression peaks at L = 2, so evaluating at both rational endpoints
    of the log2 bracket and taking the max is safe for any true L.
    """
    lo, hi = log2_bounds(count)
    values = []
    for L in (lo, hi):
        if L <= 0:
            return Fraction(0)
        values.append((1 / L - 1 / L**2) / 4)
    return max(max(values), Fraction(0))


def test_acceptance_1_eps_exactness():
    start = time.monotonic()
    violations = []
    for seed in range(500):
        n = 3 + seed % 6
        m = min(14, max(n - 1, 4 + seed % 11))
        g = gen_random(seed, n, m, 5, 5)
        sol = eps_increase(g)
        opt = oracle_eps(g)
        if sol.cost != opt.cost or not price(g, sol.edges) > ZERO:
            violations.append((seed, sol.cost, opt.cost))
    elapsed = time.monotonic() - start
    report(1, "eps-increase exactness", violations, f"(500 instances, {elapsed:.1f}s)")
    assert elapsed < 60


def test_acceptance_2_budget_guarantee():
    start = time.monotonic()
    violations = []
    for seed in range(200):
        n = 5 + seed % 4
        g = gen_random(seed, n, n + 4, 5, 5)
        rng = random.Random(seed + 10_000)
        # delta drawn from an achievable profit: a random connectivity
        # preserving subset, falling back to the smallest positive unit
        achieved = price(g, connected_random_subset(g, rng))
        delta = achieved.units if achieved.is_finite and achieved > ZERO else 1
        opt = oracle_budget(g, delta)
        lo, _ = log2_bounds(n)
        bound = (2 + 4 * lo) * opt.cost
        sol = budget_approximate(g, delta)
        if not (sol.profit >= finite(delta) and Fraction(sol.cost) <= bound):
            violations.append((seed, sol.cost, opt.cost))
    elapsed = time.monotonic() - start
    report(2, "budget O(log n) guarantee", violations, f"(200 instances, {elapsed:.1f}s)")
    assert elapsed < 300


def test_acceptance_3_profit_guarantee():
    violations = []
    for seed in range(200):
        n = 5 + seed % 4
        uniform = seed % 2 == 1
        g = gen_random(seed, n, n + 4, 5, 1 if uniform else 5)
        rng = random.Random(seed + 20_000)
        picked = rng.sample(range(g.n_edges), rng.randint(1, g.n_edges))
        budget = sum(g.edges[i].cost for i in picked)
        sol = profit_approximate(g, budget)
        if sol.cost > budget:
            violations.append((seed, "overspent", sol.cost, budget))
            continue
        if not sol.profit.is_finite:
            continue  # infinite profit beats any finite target
        delta_star = oracle_profit(g, budget, finite_only=True).profit.units
        if Fraction(sol.profit.units) < delta_star * log_ratio_bound(n):
            violations.append((seed, "log n bound", sol.profit.units, delta_star))
        if uniform:
            b_count = budget // SCALE  # costs are uniformly 1.0
            if b_count >= 2 and Fraction(sol.profit.units) < (
                delta_star * log_ratio_bound(b_count)
            ):
                violations.append((seed, "log B bound", sol.profit.units, delta_star))
    report(3, "profit O(log n) guarantee", violations, "(200 instances)")


def test_acceptance_4_relaxation_certification():
    violations = []
    for seed in range(500):
        n = 4 + seed % 6
        g = gen_random(seed, n, n + 2 + seed % 5, 5, 5)
        removed = connected_random_subset(g, random.Random(seed + 30_000))
        cert = build_cut_sequence(g, removed)
        result = certify(g, removed, cert)
        if not result["ok"]:
            violations.append((seed, [k for k, v in result.items() if not v]))
    report(4, "relaxation certification", violations, "(500 pairs)")


def test_acceptance_5_supermodularity():
    violations = []
    for case in range(1000):
        g = gen_random(case, 5 + case % 3, 8 + case % 4, 5, 5)
        rng = random.Random(case + 40_000)
        b = connected_random_subset(g, rng)
        rest = [i for i in range(g.n_edges) if i not in b]
        g_minus_b = Graph(
            g.n_vertices, tuple(g.edges[i] for i in range(g.n_edges) if i not in b)
        )
        e = rng.choice(rest)
        if price(g_minus_b, {rest.index(e)}) < price(g, {e}):
            violations.append((case, "single edge", e))
        a = frozenset(rng.sample(rest, rng.randint(0, min(3, len(rest)))))
        if price(g_minus_b, {rest.index(i) for i in a}) < price(g, a):
            violations.append((case, "edge set", sorted(a)))
    report(5, "super-modularity", violations, "(1000 cases)")


def test_acceptance_6_bad_example_goldens():
    violations = []
    g, budget = gen_bad_example(100, 4, 5)
    if mst(g).weight != finite(101 * SCALE):
        violations.append(("initial MST", str(mst(g).weight)))
    if budget != 4_500_000:
        violations.append(("budget", budget))
    opt = oracle_profit(g, budget)
    if opt.profit != finite(4_500_000):
        violations.append(("oracle profit", str(opt.profit)))
    if mst(g, opt.edges).weight != finite(105_500_000):
        violations.append(("optimal MST weight", str(mst(g, opt.edges).weight)))
    sol = profit_approximate(g, budget)
    if sol.cost > budget or sol.profit != finite(4_500_000):
        violations.append(("algorithm", sol.cost, str(sol.profit)))
    if not sol.profit > finite(500_000):  # documented prior-method profit
        violations.append(("prior comparison", str(sol.profit)))
    report(6, "bad-example goldens", violations, "(W=100, B=4, b=5)")


def _mirror_candidates(g: Graph, rng: random.Random, count: int):
    from mstint.graph import Candidate

    tree = sorted(mst(g).edges)
    return tuple(
        Candidate(
            g.edges[i].u,
            g.edges[i].v,
            g.edges[i].weight,
            rng.randint(1, 5) * SCALE,
            rng.randint(1, 5) * SCALE,
        )
        for i in (tree[rng.randrange(len(tree))] for _ in range(count))
    )


def test_acceptance_7_protection():
    violations = []
    successes = 0
    seed = 0
    while successes < 100 and seed < 600:
        seed += 1
        g = gen_random(seed, 5 + seed % 3, 7 + seed % 5, 5, 5)
        rng = random.Random(seed + 50_000)
        inst = ProtectionInstance(g, _mirror_candidates(g, rng, 3 + seed % 6))
        try:
            chosen, listing = protect(inst)
        except UncoverableCutError:
            continue
        successes += 1
        before = eps_increase(g).cost
        after = eps_increase(inst.augmented(chosen)).cost
        if not after > before:
            violations.append((seed, "no strict increase", before, after))
        if len(listing.cuts) <= 12 and len(inst.candidates) <= 10:
            coverage = [
                frozenset(k for k, cut in enumerate(listing.cuts) if covers(c, cut))
                for c in inst.candidates
            ]
            costs = [c.build_cost for c in inst.candidates]
            best = None
            for mask in range(1 << len(coverage)):
                sel = [i for i in range(len(coverage)) if mask >> i & 1]
                if len(frozenset().union(frozenset(), *(coverage[i] for i in sel))) == len(
                    listing.cuts
                ):
                    cost = sum(costs[i] for i in sel)
                    best = cost if best is None or cost < best else best
            harmonic = sum(Fraction(1, k) for k in range(1, len(listing.cuts) + 1))
            if Fraction(sum(costs[i] for i in chosen)) > harmonic * best:
                violations.append((seed, "cover quality", best))
    if successes < 100:
        violations.append(("insufficient successes", successes))
    report(7, "protection", violations, f"({successes} protected instances)")


def test_acceptance_8_engine_cross_validation():
    violations = []
    # sort-based MST vs growth-based oracle MST on 1000 graphs
    for seed in range(1000):
        n = 3 + seed % 7
        g = gen_random(seed, n, max(n - 1, 3 + seed % 12), 6, 6)
        if mst(g).weight != prim_mst_weight(g):
            violations.append((seed, "mst mismatch"))
    # min cut vs brute-force bipartition minimum for n <= 10; strong duality
    # (flow == cut cost) is asserted inside every min_st_cut call
    for seed in range(60):
        n = 4 + seed % 7  # up to 10 vertices
        g = gen_random(seed + 7000, n, n + 4, 5, 5)
        t = 1 + seed % (n - 1)
        cut = min_st_cut(CutNetwork(g, range(g.n_edges)), 0, t)
        if cut.cost != brute_min_st_cut_cost(g, 0, t, range(g.n_edges)):
            violations.append((seed, "cut mismatch", n, t))
    report(8, "engine cross-validation", violations, "(1000 MSTs, 60 cuts)")
