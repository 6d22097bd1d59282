"""MST interdiction toolkit: exact minimum-cost increase, greedy
budget/profit approximations with certified guarantees, and protection.
"""
from .budget import InfeasibleError, budget_approximate, reduce_budget_range
from .cuts import CutResult, global_min_cut, min_st_cut
from .eps import NoFiniteCutError, eps_increase
from .generators import gen_bad_example, gen_random
from .graph import Candidate, Edge, Graph, ParseError, parse_instance, parse_instance_full, serialize_instance
from .mst import (
    DisconnectedGraphError,
    PartialCutSpec,
    SpanningForest,
    is_connected,
    mst,
    partial_cut,
    profit,
)
from .oracle import (
    InfeasibleOracleError,
    OracleSizeError,
    oracle_budget,
    oracle_eps,
    oracle_profit,
)
from .profit import best_single_cut, profit_approximate
from .protection import (
    OptimalCutListing,
    ProtectionInstance,
    UncoverableCutError,
    protect,
)
from .quantities import (
    INFINITY,
    SCALE,
    ExtendedValue,
    GuaranteeError,
    finite,
    format_quantity,
    parse_quantity,
)
from .relaxation import RelaxationCertificate, build_cut_sequence, certify
from .solution import InterdictionSolution, solution_record

__all__ = [
    "INFINITY",
    "SCALE",
    "Candidate",
    "CutResult",
    "DisconnectedGraphError",
    "Edge",
    "ExtendedValue",
    "Graph",
    "GuaranteeError",
    "InfeasibleError",
    "InfeasibleOracleError",
    "InterdictionSolution",
    "NoFiniteCutError",
    "OptimalCutListing",
    "OracleSizeError",
    "ParseError",
    "PartialCutSpec",
    "ProtectionInstance",
    "RelaxationCertificate",
    "SpanningForest",
    "UncoverableCutError",
    "best_single_cut",
    "budget_approximate",
    "build_cut_sequence",
    "certify",
    "eps_increase",
    "finite",
    "format_quantity",
    "gen_bad_example",
    "gen_random",
    "global_min_cut",
    "is_connected",
    "min_st_cut",
    "mst",
    "oracle_budget",
    "oracle_eps",
    "oracle_profit",
    "parse_instance",
    "parse_instance_full",
    "parse_quantity",
    "partial_cut",
    "profit",
    "profit_approximate",
    "protect",
    "reduce_budget_range",
    "serialize_instance",
    "solution_record",
]
