"""Command-line surface.

Every instance-taking command reads the instance from a file path argument
or from standard input when the path is `-`.  Exit codes: 0 ok,
1 guarantee violation, 2 input error, 3 internal fault.  `protect` exits 0
only with a strict rise of the minimum increase cost, found by
`eps_increase` itself; an optimal cut that no candidate can cover is an
input error.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from .budget import budget_approximate
from .eps import eps_increase
from .generators import gen_bad_example, gen_random
from .graph import Graph, parse_instance_full, serialize_instance
from .mst import mst
from .oracle import oracle_budget, oracle_eps, oracle_profit
from .profit import profit_approximate
from .protection import ProtectionInstance, protect
from .quantities import (
    GuaranteeError,
    InputError,
    QuantityParseError,
    echo,
    format_quantity,
    parse_digits,
    parse_quantity,
)
from .relaxation import build_cut_sequence, certify
from .solution import solution_record

EXIT_OK = 0
EXIT_GUARANTEE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _read_instance(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(str(exc)) from exc
    return parse_instance_full(text)


def _parse_amount(token: str, what: str) -> int:
    try:
        value = parse_quantity(token)
    except QuantityParseError as exc:
        raise InputError(f"bad {what}: {exc}") from exc
    if value <= 0:
        raise InputError(f"{what} must be positive")
    return value


def _cmd_solve(args) -> int:
    """Run the command's solver on the instance and print its solution."""
    g, _ = _read_instance(args.instance)
    record = solution_record(args.solve(g, args))
    if args.json:
        print(json.dumps(record, sort_keys=True))
        return EXIT_OK
    print("edges:", " ".join(map(str, record["edges"])) or "(none)")
    print("cost:", record["cost"])
    print("profit:", record["profit"])
    for cut in record["cuts"]:
        print(
            "cut: side",
            ",".join(map(str, cut["side_vertices"])),
            "threshold",
            cut["threshold"],
            "edges",
            ",".join(map(str, cut["edge_indices"])) or "(none)",
        )
    return EXIT_OK


def _cmd_mst(args) -> int:
    g, _ = _read_instance(args.instance)
    forest = mst(g)
    record = {
        "weight": str(forest.weight),
        "edges": sorted(forest.edges),
    }
    if args.json:
        print(json.dumps(record, sort_keys=True))
    else:
        print("weight:", record["weight"])
        print("edges:", " ".join(map(str, record["edges"])) or "(none)")
    return EXIT_OK


def _print_record(record: dict, as_json: bool) -> None:
    """One JSON line, or one `key: value` line per key in sorted order."""
    if as_json:
        print(json.dumps(record, sort_keys=True))
    else:
        for key in sorted(record):
            print(f"{key}:", record[key])


def _cmd_protect(args) -> int:
    g, candidates = _read_instance(args.instance)
    if not candidates:
        raise InputError("instance has no protect candidates")
    chosen, listing = protect(ProtectionInstance(g, candidates))
    record = {
        "chosen_candidates": sorted(chosen),
        "build_cost": format_quantity(
            sum(candidates[i].build_cost for i in chosen)
        ),
        "eps_cost_before": format_quantity(listing.optimal_cost),
        "eps_cost_after": format_quantity(listing.cost_after),
        # protect returns only once the minimum increase cost has risen
        "listing_complete": True,
        "n_cuts": len(listing.cuts),
    }
    _print_record(record, args.json)
    return EXIT_OK


def _parse_edge_list(token: str, g: Graph) -> frozenset[int]:
    try:
        indices = frozenset(parse_digits(part) for part in token.split(",") if part)
    except ValueError as exc:
        raise InputError(f"bad edge list: {echo(token)}") from exc
    for i in indices:
        if not 0 <= i < g.n_edges:
            raise InputError(f"edge index out of range: {echo(str(i))}")
    return indices


def _digits(token: str) -> int:
    try:
        return parse_digits(token)
    except ValueError:  # argparse would echo the whole token
        raise argparse.ArgumentTypeError(f"invalid value: {echo(token)}") from None


def _cmd_certify(args) -> int:
    g, _ = _read_instance(args.instance)
    removed = _parse_edge_list(args.edges, g)
    cert = build_cut_sequence(g, removed)
    report = certify(g, removed, cert)
    record = dict(report)
    record["cost_sum"] = format_quantity(cert.cost_sum)
    record["profit"] = str(cert.profit_value)
    record["n_cuts"] = len(cert.cuts)
    _print_record(record, args.json)
    return EXIT_OK if report["ok"] else EXIT_GUARANTEE


def _cmd_gen(args) -> int:
    if args.family == "random":
        g = gen_random(args.seed, args.n, args.m, args.max_weight, args.max_cost)
        sys.stdout.write(serialize_instance(g))
    else:
        g, budget = gen_bad_example(args.heavy_weight, args.components)
        sys.stdout.write(f"# recommended budget: {format_quantity(budget)}\n")
        sys.stdout.write(serialize_instance(g))
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="mstint", description="MST interdiction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def instance_cmd(name: str, func, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("instance", help="instance file path, or - for stdin")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=func)
        return p

    # a solver's name is looked up when it runs, so the function a tracer or
    # a test has rebound on this module is the one called
    instance_cmd("mst", _cmd_mst, "minimum spanning tree of the instance")
    p = instance_cmd("eps-increase", _cmd_solve, "exact minimum-cost strict MST increase")
    p.set_defaults(solve=lambda g, a: eps_increase(g))
    p = instance_cmd("budget", _cmd_solve, "approximate min-cost increase by delta")
    p.set_defaults(solve=lambda g, a: budget_approximate(g, _parse_amount(a.delta, "delta")))
    p.add_argument("--delta", required=True, help="required MST weight increase")
    p.add_argument("--fast", action="store_true", help="deprecated; ignored")
    p = instance_cmd("profit", _cmd_solve, "approximate max increase within budget")
    p.set_defaults(solve=lambda g, a: profit_approximate(g, _parse_amount(a.budget, "budget")))
    p.add_argument("--budget", required=True, help="hard removal budget")
    instance_cmd("protect", _cmd_protect, "greedy cover of the optimal cuts")
    p = instance_cmd("certify", _cmd_certify, "certify the cut sequence for a solution")
    p.add_argument("--edges", required=True, help="comma-separated removed edge indices")
    p = instance_cmd("oracle-eps", _cmd_solve, "brute-force minimum strict increase")
    p.set_defaults(solve=lambda g, a: oracle_eps(g))
    p = instance_cmd("oracle-budget", _cmd_solve, "brute-force budget optimum")
    p.set_defaults(solve=lambda g, a: oracle_budget(g, _parse_amount(a.delta, "delta")))
    p.add_argument("--delta", required=True)
    p = instance_cmd("oracle-profit", _cmd_solve, "brute-force profit optimum")
    p.set_defaults(
        solve=lambda g, a: oracle_profit(
            g, _parse_amount(a.budget, "budget"), finite_only=a.finite_only
        )
    )
    p.add_argument("--budget", required=True)
    p.add_argument("--finite-only", action="store_true", help="ignore disconnecting sets")

    p = sub.add_parser("gen", help="write a generated instance to stdout")
    gen_sub = p.add_subparsers(dest="family", required=True)
    pr = gen_sub.add_parser("random")
    pr.add_argument("--seed", type=_digits, required=True)
    pr.add_argument("--n", type=_digits, required=True)
    pr.add_argument("--m", type=_digits, required=True)
    pr.add_argument("--max-weight", type=_digits, default=100)
    pr.add_argument("--max-cost", type=_digits, default=100)
    pr.set_defaults(func=_cmd_gen)
    pb = gen_sub.add_parser("bad")
    pb.add_argument("--heavy-weight", type=_digits, default=100)
    pb.add_argument("--components", type=_digits, default=5)
    pb.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GuaranteeError as exc:
        print(f"guarantee violated: {exc}", file=sys.stderr)
        return EXIT_GUARANTEE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
