#!/usr/bin/env python3
"""Pin the answers of every catalogue instance in perfbench/goldens.json.

    python3 perfbench/make_goldens.py

Run from the repository root at the commit whose answers are to be pinned.
For each instance of a pinned kind it stores the digest of the generated
graph plus:
  eps      eps_cost          the exact minimum strict-increase cost
  greedy   budget_cost, budget_fast_cost, profit_gain  (quality baseline)
  protect  eps_cost_before   the exact minimum cost before protection
Every answer must pass the same feasibility checks the benchmark applies.
Prints the seed-commit time of each op family, which sizes the pools.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

import run
import verify
import workloads

FIELDS = {
    "eps-increase": ("eps_cost", "cost"),
    "budget": ("budget_cost", "cost"),
    "budget-fast": ("budget_fast_cost", "cost"),
    "profit": ("profit_gain", "profit"),
    "protect": ("eps_cost_before", "eps_cost_before"),
}


def pin(families, mstint, work) -> dict:
    goldens = {}
    instances = workloads.generate(mstint, families, seed=0)
    paths = run.write_instances(work, instances)
    times = defaultdict(list)
    for inst in instances:
        goldens[inst.key] = {"digest": inst.digest}
        for case in workloads.cases_unpinned([inst]):
            seconds, code, out, error = run.run_op(mstint.cli.main, paths[case.key], case)
            times[inst.key.split("#")[0], case.cmd].append(seconds)
            name, field = FIELDS[case.cmd]
            if code != 0:
                sys.exit(f"{inst.key} {case.cmd}: exit {code} {error}")
            goldens[inst.key][name] = verify.parse_units(json.loads(out)[field])
            pinned = workloads.derive([inst], goldens)
            reason = next(c for c in pinned if c.cmd == case.cmd).check(code, out)
            if reason:
                sys.exit(f"{inst.key} {case.cmd}: {reason}")
    for (family, cmd), ts in times.items():
        print(f"{family:28s} {cmd:14s} median {statistics.median(ts):7.3f} s"
              f"  max {max(ts):7.3f} s  sum {sum(ts):7.3f} s", flush=True)
    return goldens


def main() -> int:
    if not (run.ROOT / "src" / "mstint" / "cli.py").is_file():
        print("error: run from a checkout with src/mstint", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.ROOT / "src"))
    mstint = run.import_mstint()
    goldens = {}
    work = run.ROOT / ".bench_work" / "goldens"
    try:
        for name, families in workloads.WORKLOADS.items():
            families = tuple(f for f in families if workloads.KINDS[f.kind].pinned)
            if families:
                (work / name).mkdir(parents=True, exist_ok=True)
                goldens.update(pin(families, mstint, work / name))
    finally:
        run.shutil.rmtree(work, ignore_errors=True)
    with open(workloads.GOLDENS_PATH, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(goldens.items())), fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
