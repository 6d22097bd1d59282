"""The solvers' answers, pinned as one digest.

Every answer of `eps_increase`, `budget_approximate` and `profit_approximate`
on 300 seeded graphs, and of the three oracles on those with at most 10
edges, goes into one sha256: the solution record, or the type and message of
the exception raised.  A change that means to keep every answer keeps the
digest; one that means to change an answer says which and pins the new
digest.
"""
from __future__ import annotations

import hashlib
import json

from mstint.budget import budget_approximate
from mstint.eps import eps_increase
from mstint.generators import gen_random
from mstint.graph import Edge, Graph
from mstint.oracle import oracle_budget, oracle_eps, oracle_profit
from mstint.profit import profit_approximate
from mstint.quantities import SCALE
from mstint.solution import solution_record

PINNED = "e9da45724f7123a39926b2c2b8742aced6470a253b56436193e2ea3f4189bf4b"


def pinned_graphs():
    """300 graphs: n = 2-30, m = n - 1 to 4n, max weights 0, 1, 3, 20 and
    1000, and every fifth edge uncuttable on every fourth graph."""
    for seed in range(300):
        n = 2 + seed % 29
        m = n - 1 + seed * 7 % (3 * n + 2)
        g = gen_random(seed, n, m, (0, 1, 3, 20, 1000)[seed % 5], 10)
        if seed % 4 == 3:
            g = Graph(n, tuple(
                Edge(e.u, e.v, e.weight, None if i % 5 == 0 else e.cost)
                for i, e in enumerate(g.edges)
            ))
        yield g


def answer(solve, *args) -> str:
    try:
        return json.dumps(solution_record(solve(*args)), sort_keys=True)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def test_answers_match_the_pinned_digest():
    digest = hashlib.sha256()
    oracled = 0
    for g in pinned_graphs():
        delta = max(SCALE, max(e.weight for e in g.edges))
        budget = 3 * SCALE
        runs = [(eps_increase, g), (budget_approximate, g, delta), (profit_approximate, g, budget)]
        if g.n_edges <= 10:
            runs += [(oracle_eps, g), (oracle_budget, g, delta), (oracle_profit, g, budget)]
            oracled += 1
        for solve, *args in runs:
            digest.update(answer(solve, *args).encode() + b"\n")
    assert oracled == 45
    assert digest.hexdigest() == PINNED
