"""Dung-style argumentation with imprecise, multi-agent opinions.

Enumerates extensions of an abstract argumentation framework under the
six classical semantics and attaches a lower/upper probability interval
to each extension, aggregating per-agent opinions according to a causal
dependency graph. Ships a `.caf` text format, JSON and DOT output, and a
command-line front end (``credalarg``).
"""

from .af import DEFAULT_MAX_ARGS, SEMANTICS, ArgumentationFramework, Extension
from .bounds import (BoundsResult, CausalGroup, agent_valuation_oracle,
                     extension_bounds, rank_extensions)
from .causality import CausalityGraph, check_attack_disjointness
from .credal import (CredalProfile, CredalSet, ProbabilityInterval,
                     RationalityViolation, dependent_bounds,
                     dependent_credal_set, independent_bounds, is_maximal,
                     rationality_report, single_bounds)
from .errors import (CapExceededError, CausalCycleError, CoverageError,
                     CredalArgError, CredalSetError, ParseError,
                     UnknownArgumentError, ValidationError)
from .formats import (FrameworkDocument, dump_caf, emit_caf, emit_json,
                      export_dot, load_caf, parse_caf)

__version__ = "0.1.0"

__all__ = [
    "ArgumentationFramework", "Extension", "SEMANTICS", "DEFAULT_MAX_ARGS",
    "CredalSet", "CredalProfile", "ProbabilityInterval",
    "RationalityViolation", "single_bounds", "independent_bounds",
    "dependent_credal_set", "dependent_bounds", "rationality_report",
    "is_maximal",
    "CausalityGraph", "check_attack_disjointness",
    "CausalGroup", "BoundsResult", "extension_bounds",
    "agent_valuation_oracle", "rank_extensions",
    "FrameworkDocument", "parse_caf", "emit_caf", "emit_json", "export_dot",
    "load_caf", "dump_caf",
    "CredalArgError", "UnknownArgumentError", "ValidationError",
    "CausalCycleError", "CredalSetError", "CoverageError", "CapExceededError",
    "ParseError",
]
