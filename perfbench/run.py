#!/usr/bin/env python3
"""The mstint benchmark: seeded workloads of real CLI operations.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One process, one caller, one op at a time
(a closed loop).  An op is one in-process `mstint.cli.main([..., "--json"])`
call on an instance file written during set-up, with stdout captured, so
parse, solve and emit are timed and interpreter start-up is not.  The loop
makes a fixed number of passes over the pool of ops, so every op gets the
same number of calls whatever the speed of the code under test; S seconds
only cap the loop.  An op's time is the fastest of its calls.  Every answer
is checked after the loop, outside any timed interval.

The last stdout line is one JSON object: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1.  The exit code is 0 only if every op
passed its check.  See perfbench/README.md for what each number means.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import tracing
import verify
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
PASSES = 9  # calls per op in an untraced run
TRACED_PASSES = 4  # untraced + traced call pairs per op in a traced run
TAIL_SAMPLES = 10  # the tail percentile keeps this many samples beyond it

CLI_COMMANDS = ("eps-increase", "budget", "budget-fast", "profit", "certify", "protect")
CALL_COUNTS = (
    "solution.make", "mst.mst", "mst.profit", "mst.partial_cut", "eps.contract",
    "cuts.min_st_cut", "cuts.global_min_cut", "cuts.enumerate",
)
PLAIN_COUNTS = (
    "graph.parse.edges", "eps.aux_vertices", "eps.aux_edges", "cuts.net_vertices",
    "cuts.net_edges", "cuts.enumerated", "budget.rounds", "profit.rounds",
    "relax.components", "protect.listed_cuts",
)
# fraction metric -> (numerator count, denominator count)
FRACTIONS = {
    "cuts.infinite_frac": ("cuts.infinite", "cuts.min_st_cut.calls"),
    "cuts.truncated_frac": ("cuts.truncated", "cuts.enumerate.calls"),
    "budget.fallback_frac": ("budget.fallback", "budget.answers"),
    "profit.single_won_frac": ("profit.single_won", "profit.answers"),
    "protect.complete_frac": ("protect.complete", "protect.listings"),
}


@dataclass
class OpRecord:
    case: int
    traced: bool
    seconds: float
    code: object
    stdout: str
    error: str
    self_time: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)


def import_mstint() -> SimpleNamespace:
    """Import the package from scratch, so each set-up pays for it again."""
    for name in [n for n in sys.modules if n.split(".")[0] == "mstint"]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return SimpleNamespace(
        cli=importlib.import_module("mstint.cli"),
        generators=importlib.import_module("mstint.generators"),
        graph=importlib.import_module("mstint.graph"),
    )


def run_op(main, path: Path, case, tracer=None) -> tuple:
    """One CLI call; returns (seconds, exit code, stdout, error text)."""
    argv = [case.argv[0], str(path), *case.argv[1:], "--json"]
    out, err = io.StringIO(), io.StringIO()
    error = ""
    with redirect_stdout(out), redirect_stderr(err):
        if tracer is not None:
            tracer.install()
            tracer.begin_op(f"cli.{case.cmd}")
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed op, not a failed run
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
            tracer.remove()
    return seconds, code, out.getvalue(), error or err.getvalue().strip()


def write_instances(work: Path, instances, prefix: str = "") -> dict[str, Path]:
    paths = {}
    for i, inst in enumerate(instances):
        path = work / f"{prefix}{i:03d}.txt"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(inst.text)
        paths[inst.key] = path
    return paths


def set_up(families, seed: int, work: Path):
    """Import, generate, write and warm up SETUP_REPEATS times; the last
    repeat's files and modules are the ones measured.  The warm-up runs
    every kind of op of the workload once, on a tiny instance."""
    kinds = sorted({fam.kind for fam in families})
    warm = tuple(workloads.Family(f"warm-{kind}", 8, 8, 2, 5, 1, kind) for kind in kinds)
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        start = time.perf_counter()
        mstint = import_mstint()
        instances = workloads.generate(mstint, families, seed)
        paths = write_instances(work, instances)
        warm_instances = workloads.generate(mstint, warm, seed)
        warm_paths = write_instances(work, warm_instances, "warm-")
        for case in workloads.cases_unpinned(warm_instances):
            run_op(mstint.cli.main, warm_paths[case.key], case)
        times.append(time.perf_counter() - start)
    return times, mstint, instances, paths


def measure(main, cases, paths, passes: int, seconds: float, tracer=None) -> list[OpRecord]:
    """Closed loop: `passes` passes over the pool, capped at `seconds`.

    The cap only bites on a host far slower than the one the pool was sized
    on; the printed calls per op show when it did.  With a tracer, every op
    runs twice in a row, untraced then traced, so both see the same
    instances and the tracing overhead can be read off.
    """
    records = []
    deadline = time.perf_counter() + seconds
    for p in range(passes):
        for i, case in enumerate(cases):
            if p and time.perf_counter() >= deadline:
                return records
            for traced in (False, True) if tracer else (False,):
                gc.collect()
                result = run_op(main, paths[case.key], case, tracer if traced else None)
                rec = OpRecord(i, traced, *result)
                if traced:
                    rec.self_time, rec.counts = tracer.self_time, tracer.counts
                records.append(rec)
    return records


def check(cases, records) -> dict[int, str]:
    """Failure reason per failed record index; identical outputs share one check."""
    verdicts: dict[tuple, str | None] = {}
    first_counts: dict[int, Counter] = {}
    failures = {}
    for r, rec in enumerate(records):
        if rec.error and rec.code is None:
            failures[r] = rec.error
            continue
        key = (rec.case, rec.code, rec.stdout)
        if key not in verdicts:
            verdicts[key] = cases[rec.case].check(rec.code, rec.stdout)
        if verdicts[key]:
            failures[r] = verdicts[key]
        elif rec.traced:
            counts = first_counts.setdefault(rec.case, rec.counts)
            if counts != rec.counts:
                failures[r] = "layer counts differ between two traced runs of one op"
    return failures


def per_case_seconds(cases, records, traced: bool) -> list[float]:
    """Each op's time: the fastest of its calls.

    Other tenants of the host only ever slow a call down, in phases that
    last seconds (one op measured 0.131-0.270 s over 30 s), so the fastest
    of calls spread over the run is the steadiest estimate of the op's cost.
    Every op has the same number of calls, so the estimate is the same on
    a fast build and a slow one.
    """
    by_case: dict[int, list[float]] = {}
    for rec in records:
        if rec.traced == traced:
            by_case.setdefault(rec.case, []).append(rec.seconds)
    return [min(by_case[i]) for i in range(len(cases))]


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_SAMPLES beyond it."""
    ordered = sorted(values)
    k = max(0, len(ordered) - TAIL_SAMPLES - 1)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def _answer(stdout: str, field_name: str) -> int | None:
    try:
        return verify.parse_units(json.loads(stdout)[field_name])
    except (ValueError, KeyError, TypeError):
        return None


def quality(cases, records, cmds: tuple[str, ...], field_name: str) -> float:
    """Sum of answers over the sum of the seed commit's answers, same ops.

    1 when the workload has no such ops; lower cost / higher gain is better.
    """
    got = pinned = 0
    seen = set()
    for rec in records:
        case = cases[rec.case]
        if case.cmd not in cmds or rec.case in seen or case.golden is None:
            continue
        seen.add(rec.case)
        value = _answer(rec.stdout, field_name)
        if value is not None:
            got += value
            pinned += case.golden
    return got / pinned if pinned else 1.0


def end_to_end(cases, records, failures, setup_times) -> tuple[dict, list[str]]:
    seconds = per_case_seconds(cases, records, traced=False)
    failed_cases = {records[r].case for r in failures}
    tail_value, tail_pct = tail(seconds)
    metrics = {
        "op_s.p50": (statistics.median(seconds), "s"),
        "op_s.tail": (tail_value, "s"),
        "ops_per_s": ((len(cases) - len(failed_cases)) / sum(seconds), "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "quality.budget_cost": (
            quality(cases, records, ("budget", "budget-fast"), "cost"), "ratio"),
        "quality.profit_gain": (quality(cases, records, ("profit",), "profit"), "ratio"),
    }
    calls = Counter(rec.case for rec in records)
    notes = [
        f"op_s.tail is p{tail_pct:.0f} over {len(seconds)} ops, each the fastest of "
        f"{min(calls.values())}-{max(calls.values())} calls",
    ]
    return metrics, notes


def per_layer(cases, records) -> tuple[dict, list[str]]:
    plain = per_case_seconds(cases, records, traced=False)
    traced = per_case_seconds(cases, records, traced=True)
    metrics = {}
    for cmd in CLI_COMMANDS:
        times = [t for t, c in zip(plain, cases) if c.cmd == cmd]
        metrics[f"cli.{cmd}.s_p50"] = (statistics.median(times) if times else 0.0, "s")

    # self times come from each op's fastest traced call, averaged over ops;
    # counts from each op's first traced call, so one pass over the pool
    fastest: dict[int, OpRecord] = {}
    counts = Counter()
    for rec in records:
        if rec.traced:
            if rec.case not in fastest:
                counts.update(rec.counts)
            if rec.case not in fastest or rec.seconds < fastest[rec.case].seconds:
                fastest[rec.case] = rec
    for span in tracing.SPAN_NAMES:
        total = sum(rec.self_time[span] for rec in fastest.values())
        metrics[f"{span}.self_s"] = (total / len(cases), "s")
    for span in CALL_COUNTS:
        metrics[f"{span}.calls"] = (counts[f"{span}.calls"], "count")
    for name in PLAIN_COUNTS:
        metrics[name] = (counts[name], "count")
    for name, (num, den) in FRACTIONS.items():
        metrics[name] = (counts[num] / counts[den] if counts[den] else 0.0, "ratio")
    metrics["trace.overhead"] = (1 - sum(plain) / sum(traced), "ratio")
    notes = [f"counts cover one pass over {len(cases)} ops; self_s is per op"]
    return metrics, notes


def write_spans(tracer, workload: str, seed: int, cases, records) -> Path:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{workload}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": workload,
                "seed": seed,
                "ops": [[cases[r.case].key, cases[r.case].cmd] for r in records if r.traced],
                "fields": ["name", "start_s", "end_s", "parent", "op"],
                "spans": [list(s) for s in tracer.spans if s is not None],
            },
            fh,
            separators=(",", ":"),
        )
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mstint" / "cli.py").is_file():
        print(f"error: no mstint sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    families = workloads.WORKLOADS[args.workload]
    goldens = workloads.load_goldens()

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        setup_times, mstint, instances, paths = set_up(families, args.seed, work)
        cases = workloads.derive(instances, goldens)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.bind()
        passes = TRACED_PASSES if tracer else PASSES
        records = measure(mstint.cli.main, cases, paths, passes, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = check(cases, records)
    if args.trace:
        metrics, notes = per_layer(cases, records)
        path = write_spans(tracer, args.workload, args.seed, cases, records)
        notes.append(f"spans written to {path.relative_to(ROOT)}")
    else:
        metrics, notes = end_to_end(cases, records, failures, setup_times)

    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6f} {unit}")
    print(f"  {'failed_frac':28s} {len(failures) / len(records):14.6f} ratio"
          f" ({len(failures)} of {len(records)} ops)")
    for note in notes:
        print(f"  # {note}")
    for r in sorted(failures)[:10]:
        print(f"  FAILED {cases[records[r].case].key} {cases[records[r].case].cmd}: {failures[r]}")
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
