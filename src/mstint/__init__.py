"""MST interdiction toolkit: exact minimum-cost increase, greedy
budget/profit approximations with certified guarantees, and protection.
"""
from .budget import InfeasibleError, budget_approximate
from .eps import NoFiniteCutError, eps_increase
from .generators import gen_bad_example, gen_random
from .graph import Candidate, Edge, Graph, ParseError, parse_instance_full, serialize_instance
from .mst import DisconnectedGraphError, PartialCutSpec, mst
from .oracle import (
    InfeasibleOracleError,
    OracleSizeError,
    oracle_budget,
    oracle_eps,
    oracle_profit,
)
from .profit import profit_approximate
from .protection import (
    OptimalCutListing,
    ProtectionInstance,
    UncoverableCutError,
    protect,
)
from .quantities import (
    SCALE,
    ExtendedValue,
    GuaranteeError,
    InputError,
    format_quantity,
    parse_quantity,
)
from .relaxation import RelaxationCertificate, build_cut_sequence, certify
from .solution import InterdictionSolution

__all__ = [
    "SCALE",
    "Candidate",
    "DisconnectedGraphError",
    "Edge",
    "ExtendedValue",
    "Graph",
    "GuaranteeError",
    "InfeasibleError",
    "InfeasibleOracleError",
    "InputError",
    "InterdictionSolution",
    "NoFiniteCutError",
    "OptimalCutListing",
    "OracleSizeError",
    "ParseError",
    "PartialCutSpec",
    "ProtectionInstance",
    "RelaxationCertificate",
    "UncoverableCutError",
    "budget_approximate",
    "build_cut_sequence",
    "certify",
    "eps_increase",
    "format_quantity",
    "gen_bad_example",
    "gen_random",
    "mst",
    "oracle_budget",
    "oracle_eps",
    "oracle_profit",
    "parse_instance_full",
    "parse_quantity",
    "profit_approximate",
    "protect",
    "serialize_instance",
]
