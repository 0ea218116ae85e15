"""Lower/upper probability bounds of extensions.

:func:`extension_bounds` has two size cases: the empty extension means
ignorance (0, 1); any other extension is cut into causal parts before
aggregating:

* every group anchor (a member caused by something, ancestor of no other
  member) collects itself plus its in-extension causal ancestors into one
  dependent group, reduced to a credal set by the per-agent minimum;
* members without causal edges stay isolated;
* causes whose direct effects all lie outside the extension are free.

Groups, isolated members and free causes then multiply as independent
factors in sorted order; a lone group is a product of one factor, which is
its dependent bounds exactly, and a singleton's one factor is its own
credal set, so its bounds are that set's min/max. Each member must be
consumed by exactly one part — anything else raises
:class:`~credalarg.errors.CoverageError` instead of silently producing a
meaningless product.

The extension becomes one member mask over the graph's bits, so anchors,
groups, the coverage checks and the singles are ``&``/``|`` on the graph's
closure masks, and each group is walked over its own set bits only. The
per-agent minimum and product run on the members' raw value tuples, through
the same helpers that back :func:`~credalarg.credal.dependent_credal_set`
and :func:`~credalarg.credal.independent_bounds`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .af import Extension, set_bits
from .causality import CausalityGraph
from .credal import (CredalProfile, ProbabilityInterval, agent_minimum,
                     product_bounds)
from .errors import CoverageError, ValidationError

EMPTY_CASE = "empty"
SINGLETON_CASE = "singleton"
ALGORITHM_CASE = "algorithm"


@dataclass(frozen=True)
class CausalGroup:
    """One dependent part: an anchor plus its in-extension ancestors."""

    top: str
    members: tuple[str, ...]


@dataclass(frozen=True)
class BoundsResult:
    extension: Extension
    interval: ProbabilityInterval
    case: str
    groups: tuple[CausalGroup, ...] = ()


def _as_extension(members: Extension | Iterable[str]) -> Extension:
    if isinstance(members, Extension):
        return members
    return Extension(tuple(members))


def _check_domains(ext: Extension, profile: CredalProfile,
                   graph: CausalityGraph) -> tuple[int, dict[int, tuple]]:
    """Check every member in order; return the member mask and each
    member's opinion values by bit."""
    mask = 0
    rows = {}
    for name in ext.members:
        values = profile.credal_set(name).values  # raises on a mismatch
        bit = graph.index.get(name)
        if bit is None:
            raise ValidationError(
                f"causality graph has no argument {name!r}")
        mask |= 1 << bit
        rows[bit] = values
    return mask, rows


def extension_bounds(members: Extension | Iterable[str],
                     profile: CredalProfile,
                     graph: CausalityGraph) -> BoundsResult:
    """Bounds of an extension: (0, 1) if empty, else via causal grouping.

    Factors multiply in sorted member order, so results are
    bit-reproducible for a given input. A singleton reports its own case
    and no groups.
    """
    ext = _as_extension(members)
    if not ext.members:
        return BoundsResult(ext, ProbabilityInterval(0.0, 1.0), EMPTY_CASE)
    mask, rows = _check_domains(ext, profile, graph)
    names = graph.arguments

    # parts[lowest bit of a part] = its per-agent values; parts are
    # disjoint, so ordering by lowest bit is ordering by sorted members
    parts = {}
    groups = []
    grouped = 0
    anchors = graph.anchor_mask(mask)
    for top in set_bits(anchors):
        inside = graph.ancestor_masks[top] & mask | 1 << top
        clash = inside & grouped
        if clash:
            name = names[next(set_bits(clash))]
            first = next(g.top for g in groups if name in g.members)
            raise CoverageError(
                f"causal groups anchored at {first!r} and "
                f"{names[top]!r} overlap on {name!r}")
        grouped |= inside
        bits = list(set_bits(inside))
        groups.append(CausalGroup(names[top], tuple(names[i] for i in bits)))
        parts[bits[0]] = agent_minimum([rows[i] for i in bits])

    singles = mask & graph.isolated_mask | graph.free_mask(mask, anchors)
    stray = mask & ~(grouped | singles) | grouped & singles
    if stray:
        i = next(set_bits(stray))
        if not grouped >> i & 1:
            raise CoverageError(
                f"member {names[i]!r} not reachable by any causal group, "
                f"isolated or free part")
        raise CoverageError(
            f"member {names[i]!r} consumed 2 times by the causal grouping")
    for i in set_bits(singles):
        parts[i] = rows[i]
    interval = product_bounds([parts[i] for i in sorted(parts)])
    if len(ext.members) == 1:
        return BoundsResult(ext, interval, SINGLETON_CASE)
    return BoundsResult(ext, interval, ALGORITHM_CASE, tuple(groups))


def agent_valuation_oracle(members: Extension | Iterable[str],
                           profile: CredalProfile,
                           graph: CausalityGraph) -> ProbabilityInterval:
    """Differential-testing oracle for the grouping algorithm.

    Re-derives the same semantics from raw causal edges: each agent values
    the extension as a product over parts (group parts contribute their
    member minimum), and the bounds are the min/max across agents. Shares
    no traversal or aggregation code with :func:`extension_bounds`, and
    raises the same :class:`~credalarg.errors.CoverageError` on partition
    defects.
    """
    ext = _as_extension(members)
    if not ext.members:
        raise ValidationError("oracle needs a non-empty extension")
    _check_domains(ext, profile, graph)
    names = ext.members
    inside = set(names)
    edges = sorted(graph.edges)
    effects = {b for _, b in edges}
    causes = {a for a, _ in edges}

    def ancestors(node: str) -> set[str]:
        found: set[str] = set()
        stack = [node]
        while stack:
            current = stack.pop()
            for cause, effect in edges:
                if effect == current and cause not in found:
                    found.add(cause)
                    stack.append(cause)
        return found

    up = {name: ancestors(name) for name in names}
    anchors = [n for n in names if n in effects
               and not any(n in up[other] for other in names if other != n)]
    parts: list[tuple[str, ...]] = [
        tuple(sorted({n} | (up[n] & inside))) for n in anchors]
    for n in names:
        if n not in effects and n not in causes:
            parts.append((n,))
    for n in names:
        if (n in causes and n not in anchors
                and not any((n, e) in graph.edges for e in inside)):
            parts.append((n,))

    flattened = sorted(x for part in parts for x in part)
    if flattened != list(names):
        raise CoverageError(
            "oracle partition mismatch: consumed %s, expected %s"
            % (",".join(flattened), ",".join(names)))

    values = []
    for j in range(profile.agent_count):
        total = 1.0
        for part in sorted(parts):
            total *= min(profile.credal_set(n).values[j] for n in part)
        values.append(total)
    return ProbabilityInterval(min(values), max(values))


def rank_extensions(results: Sequence[BoundsResult]) -> list[BoundsResult]:
    """Heuristic ordering of bounds results, best first.

    Not a principled interval order: it sorts by interval midpoint
    (descending) with a lexicographic member tiebreak, which agrees with
    pairwise dominance whenever both bounds of one interval weakly exceed
    the other's.
    """
    return sorted(results,
                  key=lambda r: (-r.interval.midpoint(), r.extension.members))
