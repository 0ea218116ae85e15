"""Dung-style argumentation with imprecise, multi-agent opinions.

Enumerates extensions of an abstract argumentation framework under the
six classical semantics and attaches a lower/upper probability interval
to each extension, aggregating per-agent opinions according to a causal
dependency graph. Ships a `.caf` text format, JSON and DOT output, and a
command-line front end (``credalarg``).
"""

from .af import DEFAULT_MAX_ARGS, SEMANTICS, ArgumentationFramework
from .bounds import agent_valuation_oracle, document_rows
from .causality import CausalityGraph, check_attack_disjointness
from .credal import (CredalProfile, CredalSet, ProbabilityInterval,
                     dependent_bounds, independent_bounds, is_maximal,
                     rationality_rows)
from .errors import (CapExceededError, CausalCycleError, CoverageError,
                     CredalArgError, CredalSetError, ParseError,
                     UnknownArgumentError, ValidationError)
from .formats import (FrameworkDocument, dump_caf, emit_caf, emit_json,
                      export_dot, load_caf, parse_caf)

__version__ = "0.1.0"

__all__ = [
    "ArgumentationFramework", "SEMANTICS", "DEFAULT_MAX_ARGS",
    "CredalSet", "CredalProfile", "ProbabilityInterval",
    "independent_bounds", "dependent_bounds", "rationality_rows",
    "is_maximal", "CausalityGraph", "check_attack_disjointness",
    "document_rows", "agent_valuation_oracle",
    "FrameworkDocument", "parse_caf", "emit_caf", "emit_json", "export_dot",
    "load_caf", "dump_caf",
    "CredalArgError", "UnknownArgumentError", "ValidationError",
    "CausalCycleError", "CredalSetError", "CoverageError", "CapExceededError",
    "ParseError",
]
