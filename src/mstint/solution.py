"""Interdiction solutions, greedy traces, and the machine-readable record."""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .mst import PartialCutSpec, TreePricer
from .quantities import ExtendedValue, check_quantity, format_quantity


@dataclass(frozen=True)
class GreedyRound:
    cut: PartialCutSpec
    claimed_ratio: Fraction  # (W - w(e)) / c(C) for the chosen candidate
    cumulative_cost: int
    cumulative_profit: ExtendedValue


@dataclass(frozen=True)
class GreedyTrace:
    rounds: tuple[GreedyRound, ...]
    budget_guess: int
    outcome: str  # reached_delta | budget_exhausted | no_progress


@dataclass(frozen=True)
class InterdictionSolution:
    edges: frozenset[int]
    cost: int
    profit: ExtendedValue
    cuts: tuple[PartialCutSpec, ...] = ()
    trace: GreedyTrace | None = field(default=None, compare=False)


def make_solution(
    pricer: TreePricer,
    edges,
    cuts: tuple[PartialCutSpec, ...] = (),
    trace: GreedyTrace | None = None,
) -> InterdictionSolution:
    """Build a solution of the pricer's graph, recomputing its cost from the
    edges and its profit through the run's one `TreePricer`."""
    g, edge_set = pricer.g, frozenset(edges)
    for i in edge_set:
        if g.edges[i].cost is None:
            raise ValueError(f"edge {i} has infinite removal cost")
    # costs are positive, so a total in range bounds every partial sum
    cost = check_quantity(sum(g.edges[i].cost for i in edge_set))
    return InterdictionSolution(edge_set, cost, pricer.price(edge_set), cuts, trace)


def _cut_record(cut: PartialCutSpec) -> dict:
    return {
        "side_vertices": sorted(cut.side),
        "threshold": "inf" if cut.threshold is None else format_quantity(cut.threshold),
        "edge_indices": sorted(cut.edges),
    }


def solution_record(sol: InterdictionSolution) -> dict:
    return {
        "edges": sorted(sol.edges),
        "cost": format_quantity(sol.cost),
        "profit": str(sol.profit),
        "cuts": [_cut_record(c) for c in sol.cuts],
    }
