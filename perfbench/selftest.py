#!/usr/bin/env python3
"""Self-test of the benchmark's checks and counters.

    python3 perfbench/selftest.py

Run from the repository root.  Three parts:
1. At oracle size (at most 22 edges) every verifier must accept the
   program's answer and the brute-force oracle's answer (`oracle_eps`,
   `oracle_budget`, `oracle_profit`), and reject answers that are wrong in
   a known way: a non-optimal cost, an increase below delta, a cost above
   the budget, a misreported profit, a failed certificate, a protection that
   did not raise a completely listed optimum.
2. Two traced runs of the same ops must give identical layer counts.
3. A one-pass run in each mode must exit 0 and print exactly the metrics,
   in order and with the units, that BENCHMARK.json lists.
Exits 0 when every check holds.
"""
from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout

import run
import tracing
import verify
import workloads

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        FAILURES.append(what)


def record(sol) -> str:
    """The CLI's --json record for a solution object."""
    return json.dumps({
        "edges": sorted(sol.edges),
        "cost": verify.format_units(sol.cost),
        "profit": str(sol.profit),
    })


def cli(mstint, path, *argv) -> tuple[int, str]:
    case = workloads.Case("selftest", argv[0], argv, None)
    _, code, out, error = run.run_op(mstint.cli.main, path, case)
    return code, out


def oracle_checks(mstint, work) -> int:
    oracle = mstint.oracle
    n_instances = 0
    for seed in range(12):
        g = mstint.generators.gen_random(seed, 6 + seed % 2, 11 + seed % 3, 5, 10)
        assert g.n_edges <= oracle.MAX_ORACLE_EDGES
        text = mstint.graph.serialize_instance(g)
        path = work / f"oracle-{seed}.txt"
        path.write_text(text)
        inst = verify.parse_instance(text)
        tag = f"seed {seed}"

        # eps-increase: the pinned cost is the oracle's optimum
        opt = oracle.oracle_eps(g)
        code, out = cli(mstint, path, "eps-increase")
        expect(verify.check_eps(inst, code, out, opt.cost) is None, f"{tag}: eps answer rejected")
        expect(verify.check_eps(inst, 0, record(opt), opt.cost) is None, f"{tag}: oracle eps rejected")
        expect(verify.check_eps(inst, code, out, opt.cost + 1) is not None,
               f"{tag}: eps check accepted a non-optimal cost")
        empty = json.dumps({"edges": [], "cost": "0", "profit": "0"})
        expect(verify.check_eps(inst, 0, empty, 0) is not None,
               f"{tag}: eps check accepted a set that does not raise the MST")
        wrong = json.loads(out)
        wrong["profit"] = "999"
        expect(verify.check_eps(inst, 0, json.dumps(wrong), opt.cost) is not None,
               f"{tag}: eps check accepted a misreported profit")

        # budget: profit >= delta, for the program's and the oracle's answer
        if opt.profit.is_finite:
            delta = opt.profit.units + verify.SCALE
            for fast in ((), ("--fast",)):
                code, out = cli(mstint, path, "budget", "--delta", verify.format_units(delta), *fast)
                expect(verify.check_budget(inst, code, out, delta) is None,
                       f"{tag}: budget{fast} answer rejected")
            best = oracle.oracle_budget(g, delta)
            expect(verify.check_budget(inst, 0, record(best), delta) is None,
                   f"{tag}: oracle budget rejected")
            expect(verify.check_budget(inst, 0, record(opt), delta) is not None,
                   f"{tag}: budget check accepted an increase below delta")

        # profit: cost <= budget, for the program's and the oracle's answer
        budget = verify.global_min_cut(inst) // 2 or 1
        code, out = cli(mstint, path, "profit", "--budget", verify.format_units(budget))
        expect(verify.check_profit(inst, code, out, budget) is None, f"{tag}: profit answer rejected")
        best = oracle.oracle_profit(g, budget)
        expect(verify.check_profit(inst, 0, record(best), budget) is None,
               f"{tag}: oracle profit rejected")
        rich = oracle.oracle_profit(g, 4 * budget)
        if rich.cost > budget:
            expect(verify.check_profit(inst, 0, record(rich), budget) is not None,
                   f"{tag}: profit check accepted a cost above the budget")

        # certify: ok plus the recomputed increase
        removed = sorted(best.edges)
        if removed and best.profit.is_finite:
            code, out = cli(mstint, path, "certify", "--edges", ",".join(map(str, removed)))
            expect(verify.check_certify(inst, code, out, removed) is None,
                   f"{tag}: certificate rejected")
            wrong = json.loads(out)
            wrong["profit"] = verify.format_units(best.profit.units + 1)
            expect(verify.check_certify(inst, 0, json.dumps(wrong), removed) is not None,
                   f"{tag}: certify check accepted a misreported profit")
            wrong["ok"] = False
            expect(verify.check_certify(inst, 0, json.dumps(wrong), removed) is not None,
                   f"{tag}: certify check accepted a failed certificate")

        # protect: the pinned cost before protection is the oracle's optimum
        fam = workloads.Family("selftest", g.n_vertices, g.n_vertices, g.n_edges / g.n_vertices, 5, 1,
                               "protect")
        text = workloads.with_candidates(mstint, f"selftest#{seed}", fam, seed).text
        path.write_text(text)
        inst = verify.parse_instance(text)
        before = oracle.oracle_eps(mstint.graph.parse_instance(text)).cost
        code, out = cli(mstint, path, "protect")
        expect(verify.check_protect(inst, code, out, before) is None, f"{tag}: protect answer rejected")
        expect(verify.check_protect(inst, code, out, before + 1) is not None,
               f"{tag}: protect check accepted a wrong cost before")
        wrong = json.loads(out)
        wrong.update(listing_complete=True, eps_cost_after=wrong["eps_cost_before"])
        expect(verify.check_protect(inst, 0, json.dumps(wrong), before) is not None,
               f"{tag}: protect check accepted a complete listing without a rise")
        n_instances += 1
    return n_instances


def count_checks(mstint, work) -> int:
    """Trace the two cheapest catalogue instances of each kind of op twice."""
    goldens = workloads.load_goldens()
    families = [f for fams in workloads.WORKLOADS.values() for f in fams]
    n_ops = 0
    for kind in workloads.KINDS:
        fam = min((f for f in families if f.kind == kind and f.count >= 2),
                  key=lambda f: (f.n_lo * f.m_per_n, f.max_weight))
        instances = [workloads.KINDS[kind].generate(mstint, f"{fam.key}#{i}", fam, 7)
                     for i in range(2)]
        paths = run.write_instances(work, instances, kind)
        cases = workloads.derive(instances, goldens)
        passes = []
        for _ in range(2):
            tracer = tracing.Tracer()
            tracer.bind()
            counts = []
            for case in cases:
                _, code, out, error = run.run_op(mstint.cli.main, paths[case.key], case, tracer)
                reason = case.check(code, out) if not error or code is not None else error
                expect(reason is None, f"{case.key} {case.cmd}: {reason}")
                counts.append(tracer.counts)
            passes.append(counts)
        expect(passes[0] == passes[1], f"{kind}: counts differ between traced runs")
        expect(any(passes[0]), f"{kind}: traced run recorded no counts")
        n_ops += len(cases)
    return n_ops


def names_check() -> None:
    """Both modes of one short run print exactly the metrics BENCHMARK.json lists."""
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        listed = json.load(fh)
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        out = io.StringIO()
        with redirect_stdout(out):
            code = run.main(["--workload", "certify-large", "--seed", "1", "--seconds", "0", "--trace", trace])
        printed = json.loads(out.getvalue().splitlines()[-1])["metrics"]
        expect(code == 0, f"--trace {trace}: exit code {code}")
        expect(list(printed) == [m["name"] for m in listed[section]],
               f"--trace {trace}: printed metrics differ from BENCHMARK.json {section}")
        expect(all(printed[m["name"]]["unit"] == m["unit"] for m in listed[section] if m["name"] in printed),
               f"--trace {trace}: units differ from BENCHMARK.json {section}")


def main() -> int:
    if not (run.ROOT / "src" / "mstint" / "cli.py").is_file():
        print("error: run from a checkout with src/mstint", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.ROOT / "src"))
    mstint = run.import_mstint()
    mstint.oracle = run.importlib.import_module("mstint.oracle")
    work = run.ROOT / ".bench_work" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    try:
        n_oracle = oracle_checks(mstint, work)
        n_traced = count_checks(mstint, work)
    finally:
        run.shutil.rmtree(work, ignore_errors=True)
    names_check()
    for failure in FAILURES:
        print("FAIL", failure)
    print(f"selftest: {n_oracle} oracle-size instances, {n_traced} ops traced twice, "
          f"both run modes checked against BENCHMARK.json, {len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
