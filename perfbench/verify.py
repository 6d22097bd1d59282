"""Answer checks that do not trust the code under test.

Everything here works on the instance text the program was given and on the
JSON record it printed.  The spanning-tree, min-cut and decimal routines are
the benchmark's own, so a defect in `mstint` cannot hide itself by also
breaking the check.  Each `check_*` returns None for an accepted answer and a
one-line reason otherwise.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

SCALE = 10**6  # instance quantities are decimals with 6 fractional digits


def parse_units(token: str) -> int | None:
    """Decimal literal -> integer units of 10**-6; `inf` -> None."""
    if token == "inf":
        return None
    whole, _, frac = token.partition(".")
    if not whole.isdigit() or (frac and not frac.isdigit()) or len(frac) > 6:
        raise ValueError(f"bad quantity {token!r}")
    return int(whole) * SCALE + int(frac.ljust(6, "0"))


def format_units(units: int) -> str:
    whole, frac = divmod(units, SCALE)
    return str(whole) if frac == 0 else f"{whole}.{frac:06d}".rstrip("0")


@dataclass(frozen=True)
class Instance:
    n: int
    edges: tuple[tuple[int, int, int, int | None], ...]  # u, v, weight, cost
    candidates: tuple[tuple[int, int, int, int, int], ...]  # u, v, w, build, removal


def parse_instance(text: str) -> Instance:
    rows = [line.split() for line in text.splitlines() if line.strip() and not line.startswith("#")]
    n, m = int(rows[0][0]), int(rows[0][1])
    edges = tuple(
        (int(u), int(v), parse_units(w), parse_units(c)) for u, v, w, c in rows[1 : 1 + m]
    )
    candidates: tuple = ()
    if len(rows) > 1 + m:
        candidates = tuple(
            (int(u), int(v), parse_units(w), parse_units(b), parse_units(r))
            for u, v, w, b, r in rows[2 + m :]
        )
    return Instance(n, edges, candidates)


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def spanning_tree(inst: Instance, exclude=frozenset(), heaviest: bool = False):
    """Kruskal by (weight, index), or (-weight, index) for a max tree.

    Returns (total weight or None if disconnected, chosen edge indices).
    """
    sign = -1 if heaviest else 1
    order = sorted(
        (i for i in range(len(inst.edges)) if i not in exclude),
        key=lambda i: (sign * inst.edges[i][2], i),
    )
    parent = list(range(inst.n))
    chosen = []
    for i in order:
        u, v, _, _ = inst.edges[i]
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            parent[rv] = ru
            chosen.append(i)
    if len(chosen) < inst.n - 1:
        return None, chosen
    return sum(inst.edges[i][2] for i in chosen), chosen


def mst_increase(inst: Instance, removed) -> int | None:
    """MST(G minus removed) - MST(G) in units; None when removal disconnects."""
    base, _ = spanning_tree(inst)
    after, _ = spanning_tree(inst, frozenset(removed))
    return None if after is None else after - base


def global_min_cut(inst: Instance) -> int:
    """Stoer-Wagner minimum cut cost over removal costs (dense, O(n^3))."""
    big = sum(c for *_, c in inst.edges if c is not None) + 1
    n = inst.n
    w = [[0] * n for _ in range(n)]
    for u, v, _, c in inst.edges:
        cap = big if c is None else c
        w[u][v] += cap
        w[v][u] += cap
    alive = list(range(n))
    best = None
    while len(alive) > 1:
        weights = {v: 0 for v in alive}
        added: list[int] = []
        while weights:
            nxt = max(weights, key=lambda v: (weights[v], -v))
            phase_cut = weights.pop(nxt)
            added.append(nxt)
            for v in weights:
                weights[v] += w[nxt][v]
        s, t = added[-2], added[-1]
        best = phase_cut if best is None else min(best, phase_cut)
        for v in alive:
            w[s][v] += w[t][v]
            w[v][s] = w[s][v]
        alive.remove(t)
    return best


def _load(code, stdout: str, keys: tuple[str, ...]):
    if code != 0:
        return None, f"exit code {code}"
    try:
        record = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, "output is not one JSON record"
    missing = [k for k in keys if k not in record]
    if missing:
        return None, f"record lacks {missing}"
    return record, None


def _check_removal(inst: Instance, record: dict):
    """Shared part of every removal-set answer: returns (cost, increase) or a reason."""
    edges = record["edges"]
    if len(set(edges)) != len(edges) or not all(
        isinstance(i, int) and 0 <= i < len(inst.edges) for i in edges
    ):
        return None, "edge list has duplicates or indices out of range"
    if any(inst.edges[i][3] is None for i in edges):
        return None, "answer removes an uncuttable edge"
    cost = sum(inst.edges[i][3] for i in edges)
    if parse_units(record["cost"]) != cost:
        return None, f"reported cost {record['cost']} != {format_units(cost)}"
    gain = mst_increase(inst, edges)
    if parse_units(record["profit"]) != gain:
        shown = "inf" if gain is None else format_units(gain)
        return None, f"reported profit {record['profit']} != recomputed {shown}"
    return (cost, gain), None


_REMOVAL_KEYS = ("edges", "cost", "profit")


def check_eps(inst: Instance, code, stdout: str, golden_cost: int):
    record, why = _load(code, stdout, _REMOVAL_KEYS)
    if why:
        return why
    values, why = _check_removal(inst, record)
    if why:
        return why
    cost, gain = values
    if gain is not None and gain <= 0:
        return "removal does not increase the MST weight"
    if cost != golden_cost:
        return f"cost {format_units(cost)} != pinned optimum {format_units(golden_cost)}"
    return None


def check_budget(inst: Instance, code, stdout: str, delta: int):
    record, why = _load(code, stdout, _REMOVAL_KEYS)
    if why:
        return why
    values, why = _check_removal(inst, record)
    if why:
        return why
    _, gain = values
    if gain is not None and gain < delta:
        return f"increase {format_units(gain)} below delta {format_units(delta)}"
    return None


def check_profit(inst: Instance, code, stdout: str, budget: int):
    record, why = _load(code, stdout, _REMOVAL_KEYS)
    if why:
        return why
    values, why = _check_removal(inst, record)
    if why:
        return why
    cost, _ = values
    if cost > budget:
        return f"cost {format_units(cost)} exceeds budget {format_units(budget)}"
    return None


def check_certify(inst: Instance, code, stdout: str, removed):
    record, why = _load(code, stdout, ("ok", "profit"))
    if why:
        return why
    if record["ok"] is not True:
        failed = sorted(k for k, v in record.items() if v is False)
        return f"certificate rejected: {failed}"
    gain = mst_increase(inst, removed)
    if gain is None or parse_units(record["profit"]) != gain:
        return f"certified profit {record['profit']} != recomputed increase"
    return None


def check_protect(inst: Instance, code, stdout: str, golden_before: int):
    keys = ("chosen_candidates", "build_cost", "eps_cost_before", "eps_cost_after", "listing_complete")
    record, why = _load(code, stdout, keys)
    if why:
        return why
    chosen = record["chosen_candidates"]
    if len(set(chosen)) != len(chosen) or not all(
        isinstance(i, int) and 0 <= i < len(inst.candidates) for i in chosen
    ):
        return "chosen candidates have duplicates or indices out of range"
    build = sum(inst.candidates[i][3] for i in chosen)
    if parse_units(record["build_cost"]) != build:
        return f"reported build cost {record['build_cost']} != {format_units(build)}"
    before = parse_units(record["eps_cost_before"])
    after = parse_units(record["eps_cost_after"])
    if before != golden_before:
        return f"cost before {record['eps_cost_before']} != pinned {format_units(golden_before)}"
    if after < before:
        return "adding candidate edges lowered the minimum increase cost"
    if record["listing_complete"] and not after > before:
        return "complete listing but the minimum increase cost did not rise"
    return None
