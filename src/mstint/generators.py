"""Deterministic instance generators: seeded random graphs and the
adversarial instance on which ratio-greedy beats total-weight methods.
"""
from __future__ import annotations

import random

from .graph import MAX_VERTICES, Edge, Graph
from .quantities import SCALE, InputError


def gen_random(
    seed: int, n: int, m: int, max_weight: int, max_cost: int
) -> Graph:
    """Connected random multigraph: a random spanning tree plus extra edges.

    Integer weights in [0, max_weight] and costs in [1, max_cost], scaled.
    """
    if n > MAX_VERTICES:
        raise InputError("more than 10**6 vertices")
    if m > 10**7:
        raise InputError("more than 10**7 edges")
    if n < 1:
        raise InputError("graph needs at least one vertex")
    if m < n - 1:
        raise InputError("need m >= n - 1 for a connected graph")
    if max_weight < 0 or max_cost < 1:
        raise InputError("bad weight/cost ranges")
    if n == 1 and m > 0:
        raise InputError("single vertex admits no edges")
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    edges = []
    for i in range(1, n):
        u = order[i]
        v = order[rng.randrange(i)]
        edges.append((u, v))
    for _ in range(m - (n - 1)):
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        edges.append((u, v))
    return Graph(
        n,
        tuple(
            Edge(
                u,
                v,
                rng.randint(0, max_weight) * SCALE,
                rng.randint(1, max_cost) * SCALE,
            )
            for u, v in edges
        ),
    )


def gen_bad_example(heavy_weight: int, components: int) -> tuple[Graph, int]:
    """Adversarial profit instance; returns (graph, recommended budget).

    A path of `components` vertices joined by unit-cost zero-weight edges,
    which removals = components - 1 shatter completely, a star of weight-1
    uncuttable edges into a hub, and five special edges whose geometry
    makes total-weight approximations return a near-empty solution.  The
    recommended budget affords the removals and half a unit more.
    `heavy_weight` must exceed `components`; "uncuttable" costs are
    materialized as components + 1, which no recommended budget can afford.
    """
    if components + 4 > MAX_VERTICES:
        raise InputError("more than 10**6 vertices")
    if components < 2:
        raise InputError("need at least two path vertices")
    if heavy_weight <= components:
        raise InputError("heavy weight must exceed components")

    w_heavy = heavy_weight * SCALE
    half = SCALE // 2
    blocked = (components + 1) * SCALE  # stands in for an infinite removal cost
    v1 = components
    v2 = components + 1
    v3 = components + 2
    v4 = components + 3

    edges = [Edge(i, i + 1, 0, SCALE) for i in range(components - 1)]
    edges += [Edge(u, v1, SCALE, blocked) for u in range(components)]
    edges += [
        Edge(v1, v2, 0, blocked),
        Edge(v1, v3, w_heavy, blocked),
        Edge(v2, v3, 0, components * SCALE),
        Edge(v1, v4, w_heavy + half, blocked),
        Edge(v2, v4, w_heavy, half),
    ]
    budget = (components - 1) * SCALE + half
    return Graph(components + 4, tuple(edges)), budget
