"""Benchmark and certification harness: seeded suites, TSV rows, one
nonzero exit when any proven guarantee fails to hold on an instance.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import cuts as cuts_mod
from .budget import budget_approximate
from .eps import eps_increase
from .generators import gen_bad_example, gen_random
from .graph import Graph
from .mst import is_connected
from .oracle import oracle_budget, oracle_eps
from .profit import profit_approximate
from .quantities import SCALE, finite, format_quantity, log2_bounds, parse_quantity
from .relaxation import build_cut_sequence, certify

ROW_FIELDS = (
    "instance",
    "algorithm",
    "cost",
    "profit",
    "bound",
    "bound_ok",
    "mincut_calls",
    "wall_time",
)


@dataclass(frozen=True)
class BenchRow:
    instance: str
    algorithm: str
    cost: str
    profit: str
    bound: str
    bound_ok: bool
    mincut_calls: int
    wall_time: float

    def tsv(self) -> str:
        return "\t".join(
            [
                self.instance,
                self.algorithm,
                self.cost,
                self.profit,
                self.bound,
                "ok" if self.bound_ok else "FAIL",
                str(self.mincut_calls),
                f"{self.wall_time:.4f}",
            ]
        )


def _timed(task):
    before = cuts_mod.mincut_call_count()
    start = time.perf_counter()
    result = task()
    elapsed = time.perf_counter() - start
    calls = cuts_mod.mincut_call_count() - before
    return result, calls, elapsed


def _budget_bound(n: int, oracle_cost: int) -> Fraction:
    lo, _ = log2_bounds(n)
    return (2 + 4 * lo) * oracle_cost


def _eps_rows(suite: dict) -> list[BenchRow]:
    rows = []
    for seed in suite["seeds"]:
        g = gen_random(
            seed, suite["n"], suite["m"], suite["max_weight"], suite["max_cost"]
        )
        name = f"eps-seed{seed}"
        opt = oracle_eps(g)
        sol, calls, elapsed = _timed(lambda: eps_increase(g))
        ok = sol.cost == opt.cost and sol.profit > finite(0)
        rows.append(
            BenchRow(
                name,
                "eps_increase",
                format_quantity(sol.cost),
                str(sol.profit),
                format_quantity(opt.cost),
                ok,
                calls,
                elapsed,
            )
        )
    return rows


def _budget_rows(suite: dict) -> list[BenchRow]:
    delta = parse_quantity(str(suite["delta"]))
    rows = []
    for seed in suite["seeds"]:
        g = gen_random(
            seed, suite["n"], suite["m"], suite["max_weight"], suite["max_cost"]
        )
        opt = oracle_budget(g, delta)
        bound = _budget_bound(g.n_vertices, opt.cost)
        sol, calls, elapsed = _timed(lambda: budget_approximate(g, delta))
        ok = sol.profit >= finite(delta) and Fraction(sol.cost) <= bound
        rows.append(
            BenchRow(
                f"budget-seed{seed}",
                "budget",
                format_quantity(sol.cost),
                str(sol.profit),
                f"{float(bound) / SCALE:.6f}",
                ok,
                calls,
                elapsed,
            )
        )
    return rows


def _connected_random_subset(g: Graph, rng: random.Random) -> frozenset[int]:
    removable = list(range(g.n_edges))
    rng.shuffle(removable)
    removed: set[int] = set()
    for i in removable:
        if g.edges[i].cost is None or rng.random() < 0.5:
            continue
        if is_connected(g, removed | {i}):
            removed.add(i)
    return frozenset(removed)


def _certify_rows(suite: dict) -> list[BenchRow]:
    rows = []
    for seed in suite["seeds"]:
        g = gen_random(
            seed, suite["n"], suite["m"], suite["max_weight"], suite["max_cost"]
        )
        removed = _connected_random_subset(g, random.Random(seed ^ 0x5EED))
        def task():
            cert = build_cut_sequence(g, removed)
            return cert, certify(g, removed, cert)
        (cert, report), calls, elapsed = _timed(task)
        failed = [k for k, v in report.items() if k != "ok" and not v]
        rows.append(
            BenchRow(
                f"certify-seed{seed}",
                "certify" if not failed else "certify:" + ",".join(failed),
                format_quantity(cert.solution_cost),
                str(cert.profit_value),
                format_quantity(cert.cost_sum),
                report["ok"],
                calls,
                elapsed,
            )
        )
    return rows


def _bad_example_rows(suite: dict) -> list[BenchRow]:
    heavy = suite.get("heavy_weight", 100)
    removals = suite.get("removals", 4)
    components = suite.get("components", 5)
    g, budget = gen_bad_example(heavy, removals, components)
    target_profit = components * SCALE - SCALE // 2
    sol, calls, elapsed = _timed(lambda: profit_approximate(g, budget))
    ok = sol.cost <= budget and sol.profit >= finite(target_profit)
    # the documented prior-method profit on this family is 1/2
    return [
        BenchRow(
            f"bad-W{heavy}-B{removals}-b{components}",
            "profit_approximate",
            format_quantity(sol.cost),
            str(sol.profit),
            format_quantity(target_profit) + " (prior methods: 0.5)",
            ok,
            calls,
            elapsed,
        )
    ]


_SUITE_RUNNERS = {
    "eps": _eps_rows,
    "budget": _budget_rows,
    "certify": _certify_rows,
    "bad_example": _bad_example_rows,
}


def run_bench(config: dict) -> tuple[list[BenchRow], bool]:
    """Run every configured suite; rows come back sorted by instance id."""
    suites = config.get("suites", [])
    tasks = []
    for suite in suites:
        kind = suite.get("kind")
        if kind not in _SUITE_RUNNERS:
            raise ValueError(f"unknown suite kind: {kind!r}")
        tasks.append((kind, suite))
    rows: list[BenchRow] = []
    for kind, suite in tasks:
        rows.extend(_SUITE_RUNNERS[kind](suite))
    rows.sort(key=lambda r: (r.instance, r.algorithm))
    return rows, all(r.bound_ok for r in rows)


def render_tsv(rows: list[BenchRow]) -> str:
    lines = ["\t".join(ROW_FIELDS)]
    lines.extend(r.tsv() for r in rows)
    passed = sum(1 for r in rows if r.bound_ok)
    lines.append(f"# summary: {passed}/{len(rows)} rows satisfied their bound")
    return "\n".join(lines) + "\n"
