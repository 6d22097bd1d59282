"""The two workloads: instance families, the seeded inputs, and the ops.

Every instance is `mstint.generators.gen_random(...)` output written to a
file; the program only ever sees that file.  Each family has a fixed
catalogue of instances, and every run measures the whole catalogue: ops take
0.01-1 s, so one run cannot average over enough independently drawn
instances to be steady from seed to seed (drawing 4 of 5 per family left
the seed-to-seed spread of the median op time at 0.35).  The seed instead
permutes the vertex labels of every instance, so each seed's files differ
while the work they demand does not.  Edge order and endpoint order are
kept, so each answer is the image of the unpermuted one and the costs that
goldens.json pins (taken at the seed commit) hold for every seed.
"""
from __future__ import annotations

import hashlib
import json
import random
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import verify

SCALE = verify.SCALE
MAX_COST = 100
GOLDENS_PATH = Path(__file__).with_name("goldens.json")


@dataclass(frozen=True)
class Family:
    """`count` instances with n spread evenly over [n_lo, n_hi], m = m_per_n * n.

    Spreading the sizes spreads the op times, so no quantile of the pool sits
    in a gap between two clusters of identical instances.  `kind` names the
    ops run on each instance, see KINDS.
    """

    key: str
    n_lo: int
    n_hi: int
    m_per_n: float
    max_weight: int
    count: int  # catalogue size; every run measures all of them
    kind: str

    def size(self, index: int) -> tuple[int, int]:
        n = self.n_lo + (self.n_hi - self.n_lo) * index // max(1, self.count - 1)
        return n, round(self.m_per_n * n)


@dataclass(frozen=True)
class Instance:
    """One generated instance file, before the ops on it are derived."""

    key: str  # "<family key>#<catalogue index>"
    kind: str
    text: str
    digest: str  # of the generated graph before relabelling, see goldens.json


@dataclass(frozen=True)
class Case:
    """One op of the pool: a CLI command on one instance file."""

    key: str  # instance key
    cmd: str  # metric label: eps-increase, budget, budget-fast, ...
    argv: tuple[str, ...]  # CLI arguments after the instance path
    check: Callable  # (code, stdout) -> None or a reason
    golden: int | None = None  # seed-commit answer for the quality metrics


def instance_seed(key: str) -> int:
    return zlib.crc32(key.encode())


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_goldens() -> dict:
    with open(GOLDENS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# -- instance generation (runs inside the timed set-up) ----------------------


def _write(mstint, key: str, kind: str, g, seed: int, candidates=()) -> Instance:
    """Serialize g with its vertices relabelled by a seeded permutation."""
    perm = list(range(g.n_vertices))
    random.Random(f"{key}/labels/{seed}").shuffle(perm)
    Edge = mstint.graph.Edge
    relabelled = mstint.graph.Graph(
        g.n_vertices, tuple(Edge(perm[e.u], perm[e.v], e.weight, e.cost) for e in g.edges)
    )
    candidates = [replace(c, u=perm[c.u], v=perm[c.v]) for c in candidates]
    digest = text_digest(repr([(e.u, e.v, e.weight, e.cost) for e in g.edges]))
    return Instance(key, kind, mstint.graph.serialize_instance(relabelled, candidates), digest)


def _gen(mstint, key: str, fam: Family):
    n, m = fam.size(int(key.rsplit("#", 1)[1]))
    return mstint.generators.gen_random(instance_seed(key), n, m, fam.max_weight, MAX_COST)


def plain(mstint, key: str, fam: Family, seed: int) -> Instance:
    return _write(mstint, key, fam.kind, _gen(mstint, key, fam), seed)


def with_candidates(mstint, key: str, fam: Family, seed: int) -> Instance:
    """Protect section: one candidate parallel to each MST edge, same weight.

    Such a candidate never lowers the MST weight, and it crosses every cut
    its tree edge crosses below the next weight, so every listed cut is
    coverable by construction rather than by selection.
    """
    g = _gen(mstint, key, fam)
    edges = tuple((e.u, e.v, e.weight, e.cost) for e in g.edges)
    _, tree = verify.spanning_tree(verify.Instance(g.n_vertices, edges, ()))
    rng = random.Random(f"{key}/candidates")
    candidates = [
        mstint.graph.Candidate(
            e.u, e.v, e.weight, rng.randint(1, MAX_COST) * SCALE, rng.randint(1, MAX_COST) * SCALE
        )
        for e in (g.edges[i] for i in sorted(tree))
    ]
    return _write(mstint, key, fam.kind, g, seed, candidates)


# -- op derivation (benchmark-side, outside every timed interval) ------------


def _eps_cases(inst: Instance, parsed, goldens: dict) -> list[Case]:
    golden = goldens.get(inst.key, {}).get("eps_cost")
    return [
        Case(inst.key, "eps-increase", ("eps-increase",),
             lambda code, out: verify.check_eps(parsed, code, out, golden))
    ]


def greedy_args(key: str, parsed) -> tuple[int, int]:
    """(delta, budget) in units for a greedy instance.

    Over the catalogue, delta cycles through 1, 2 and 1/2 times the top
    weight, so some answers come from the greedy and some from the
    global-cut fallback.  The budget cycles through 1/4, 1/2 and 3/4 of the
    global min-cut cost, so it never pays for a disconnecting set and profit
    answers stay finite.
    """
    index = int(key.rsplit("#", 1)[1])
    top = max(w for _, _, w, _ in parsed.edges)
    delta = max(SCALE, top * (2, 4, 1)[index % 3] // 2)
    budget = max(1, verify.global_min_cut(parsed) * (1, 2, 3)[index % 3] // 4)
    return delta, budget


def _greedy_cases(inst: Instance, parsed, goldens: dict) -> list[Case]:
    delta, budget = greedy_args(inst.key, parsed)
    gold = goldens.get(inst.key, {})
    d, b = verify.format_units(delta), verify.format_units(budget)
    return [
        Case(inst.key, "budget", ("budget", "--delta", d),
             lambda code, out: verify.check_budget(parsed, code, out, delta),
             gold.get("budget_cost")),
        Case(inst.key, "budget-fast", ("budget", "--delta", d, "--fast"),
             lambda code, out: verify.check_budget(parsed, code, out, delta),
             gold.get("budget_fast_cost")),
        Case(inst.key, "profit", ("profit", "--budget", b),
             lambda code, out: verify.check_profit(parsed, code, out, budget),
             gold.get("profit_gain")),
    ]


def certify_edges(parsed) -> list[int]:
    """Every edge outside a max-weight spanning tree: a large removal set
    that keeps the graph connected, so profit stays finite, while T minus F
    falls into hundreds of components.  One rule for every instance keeps
    the op times in one band, so the pool's median does not sit between two.
    """
    _, keep = verify.spanning_tree(parsed, heaviest=True)
    return sorted(set(range(len(parsed.edges))) - set(keep))


def _certify_cases(inst: Instance, parsed, goldens: dict) -> list[Case]:
    removed = certify_edges(parsed)
    return [
        Case(inst.key, "certify", ("certify", "--edges", ",".join(map(str, removed))),
             lambda code, out: verify.check_certify(parsed, code, out, removed))
    ]


def _protect_cases(inst: Instance, parsed, goldens: dict) -> list[Case]:
    golden = goldens.get(inst.key, {}).get("eps_cost_before")
    return [
        Case(inst.key, "protect", ("protect",),
             lambda code, out: verify.check_protect(parsed, code, out, golden))
    ]


@dataclass(frozen=True)
class Kind:
    generate: Callable  # (mstint, key, family, seed) -> Instance
    cases: Callable  # (Instance, parsed, goldens) -> [Case]
    pinned: bool  # answers pinned in goldens.json, instance digests checked


KINDS = {
    "eps": Kind(plain, _eps_cases, True),
    "greedy": Kind(plain, _greedy_cases, True),
    "protect": Kind(with_candidates, _protect_cases, True),
    "certify": Kind(plain, _certify_cases, False),
}

# Two workloads, not one per kind: other tenants of the host slow whole
# stretches of a minute or so, and only runs of about a minute get past
# them; a comparison runs each workload 22 times within an hour, which
# leaves room for two such workloads, not four.
# The split keeps what the layers should show: every op of `cuts-mix`
# calls the cut engine, no op of `certify-large` does.
WORKLOADS = {
    "cuts-mix": (
        Family("eps/m4n-w0", 30, 70, 4, 0, 5, "eps"),
        Family("greedy/m3n-w5", 16, 24, 3, 5, 3, "greedy"),
        Family("protect/m3n-w10", 18, 26, 3, 10, 3, "protect"),
        Family("eps/m4n-w3", 60, 160, 4, 3, 6, "eps"),
        Family("eps/m4n-w1000", 100, 300, 4, 1000, 6, "eps"),
        Family("greedy/m3n-w10", 14, 14, 3, 10, 1, "greedy"),
        Family("protect/m3n-w3", 18, 28, 3, 3, 3, "protect"),
        Family("eps/sparse-w3", 100, 300, 1.1, 3, 5, "eps"),
        Family("eps/sparse-w1000", 100, 300, 1.1, 1000, 5, "eps"),
    ),
    "certify-large": (
        Family("certify/m4n-w1000", 60, 170, 4, 1000, 18, "certify"),
        Family("certify/m4n-w10", 63, 160, 4, 10, 12, "certify"),
    ),
}


def generate(mstint, families: tuple[Family, ...], seed: int) -> list[Instance]:
    """The run's instances, interleaved family by family.

    Interleaving spreads each family over the whole pass, so every family
    sees the same mix of quiet and busy stretches of the host.
    """
    return [
        KINDS[fam.kind].generate(mstint, f"{fam.key}#{i}", fam, seed)
        for i in range(max(fam.count for fam in families))
        for fam in families
        if i < fam.count
    ]


def derive(instances: list[Instance], goldens: dict) -> list[Case]:
    """All ops of the pool.  An instance whose text no longer matches its
    pinned digest gets ops that always fail, since its goldens do not apply."""
    cases = []
    for inst in instances:
        if KINDS[inst.kind].pinned:
            if goldens.get(inst.key, {}).get("digest") != inst.digest:
                reason = f"{inst.key}: generated instance differs from the pinned one"
                cases.append(Case(inst.key, "unpinned", ("mst",), lambda code, out, r=reason: r))
                continue
        cases.extend(KINDS[inst.kind].cases(inst, verify.parse_instance(inst.text), goldens))
    return cases


def cases_unpinned(instances: list[Instance]) -> list[Case]:
    """Ops without goldens, for warm-up and for taking the goldens."""
    return [
        case
        for inst in instances
        for case in KINDS[inst.kind].cases(inst, verify.parse_instance(inst.text), {})
    ]
