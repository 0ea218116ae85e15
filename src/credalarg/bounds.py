"""Lower/upper probability bounds of extensions.

An extension's bounds are decided by size: the empty extension means
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
consumed by exactly one part — anything else is refused with
:class:`~credalarg.errors.CoverageError` instead of silently producing a
meaningless product.

:func:`mask_bounds` is the one kernel, a flat loop over member masks:
anchors, groups, coverage checks and singles are ``&``/``|`` on the
graph's closure masks, and a row is ``(lower, upper, case)`` or the
refusal text, with no name decoded, yielded as it is computed.
:func:`document_rows` runs it over a document's ``profile.rows``, the
opinion values by bit, and gives each row with its member names;
:func:`extension_bounds` checks one named set and runs the kernel on it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from operator import itemgetter

from .af import Extension, set_bits
from .causality import CausalityGraph
from .credal import (CredalProfile, ProbabilityInterval, agent_minimum,
                     agent_product)
from .errors import CoverageError, ValidationError
from .formats import FrameworkDocument

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
    return members if isinstance(members, Extension) else Extension(members)


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
            raise ValidationError(f"causality graph has no argument {name!r}")
        mask |= 1 << bit
        rows[bit] = values
    return mask, rows


def _group_masks(graph: CausalityGraph, mask: int, anchors: int) -> list:
    """``(anchor bit, group mask)`` per anchor, in-mask ancestors added."""
    ancestors = graph.ancestor_masks
    return [(top, ancestors[top] & mask | 1 << top)
            for top in set_bits(anchors)]


def mask_bounds(graph: CausalityGraph, rows: Sequence[Sequence[float]],
                masks: Iterable[int]) -> Iterator:
    """Yield ``(lower, upper, case)`` of each member mask, or the message
    of the :class:`~credalarg.errors.CoverageError` that refuses it.

    ``rows[i]`` holds the opinion values of ``graph.arguments[i]``, as a
    document's ``profile.rows`` does; the members are trusted to be in the
    graph. Factors multiply in ascending lowest-bit order, so intervals are
    bit-reproducible; a group's per-agent minimum is computed once a call.
    Rows are computed as they are drawn, so a caller may write them a chunk
    at a time.
    """
    names = graph.arguments
    ancestors = graph.ancestor_masks
    anchor_mask, free_mask = graph.anchor_mask, graph.free_mask
    isolated = graph.isolated_mask
    minima: dict[int, Sequence[float]] = {}
    for mask in masks:
        if not mask:
            yield 0.0, 1.0, EMPTY_CASE
            continue
        anchors = rest = anchor_mask(mask)
        # (lowest bit, values) per part; parts are disjoint, so ordering by
        # lowest bit is ordering by sorted members
        parts = []
        grouped = clash = 0
        while rest:
            top = rest & -rest
            rest ^= top
            inside = ancestors[top.bit_length() - 1] & mask | top
            clash = inside & grouped
            if clash:  # name the first group that holds the lowest clash
                low = clash & -clash
                first = next(t for t, group in
                             _group_masks(graph, mask, anchors) if group & low)
                yield (f"causal groups anchored at {names[first]!r} and "
                       f"{names[top.bit_length() - 1]!r} overlap on "
                       f"{names[low.bit_length() - 1]!r}")
                break
            grouped |= inside
            values = minima.get(inside)
            if values is None:
                values = minima[inside] = agent_minimum(
                    [rows[i] for i in set_bits(inside)])
            parts.append((inside & -inside, values))
        if clash:
            continue

        singles = mask & isolated | free_mask(mask, anchors)
        stray = mask & ~(grouped | singles) | grouped & singles
        if stray:
            low = stray & -stray
            name = names[low.bit_length() - 1]
            yield (f"member {name!r} consumed 2 times by the causal grouping"
                   if grouped & low else f"member {name!r} not reachable by "
                   "any causal group, isolated or free part")
            continue
        while singles:
            bit = singles & -singles
            parts.append((bit, rows[bit.bit_length() - 1]))
            singles ^= bit
        parts.sort()
        products = agent_product(map(itemgetter(1), parts))
        lower, upper = min(products), max(products)
        if not 0.0 <= lower <= upper <= 1.0:
            raise ValidationError(
                f"not a probability interval: ({lower}, {upper})")
        yield (lower, upper,
               ALGORITHM_CASE if mask & mask - 1 else SINGLETON_CASE)


def document_rows(doc: FrameworkDocument, masks: Sequence[int]) -> Iterator:
    """``(names, result)`` of each of ``doc``'s member masks, drawn
    lazily: the sorted names and the :func:`mask_bounds` row."""
    # the graph and the profile have the framework's arguments, in bit order
    return zip(map(doc.framework.row_decoder(masks), masks),
               mask_bounds(doc.causality, doc.profile.rows, masks))


def extension_bounds(members: Extension | Iterable[str],
                     profile: CredalProfile,
                     graph: CausalityGraph) -> BoundsResult:
    """Bounds of an extension: (0, 1) if empty, else via causal grouping.

    Checks the members against ``profile`` and ``graph``, then runs
    :func:`mask_bounds` on their mask; raises its refusal as
    ``CoverageError``. A singleton reports its own case and no groups.
    """
    ext = _as_extension(members)
    mask, rows = _check_domains(ext, profile, graph)
    result = next(mask_bounds(graph, rows, [mask]))
    if isinstance(result, str):
        raise CoverageError(result)
    lower, upper, case = result
    groups = ()
    if case == ALGORITHM_CASE:
        names = graph.arguments
        groups = tuple(
            CausalGroup(names[top], tuple(names[i] for i in set_bits(inside)))
            for top, inside in _group_masks(graph, mask,
                                            graph.anchor_mask(mask)))
    return BoundsResult(ext, ProbabilityInterval(lower, upper), case, groups)


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


def rank_key(lower: float, upper: float, members: tuple[str, ...]) -> tuple:
    """Sort key of :func:`rank_extensions`: midpoint descending, members."""
    return -((lower + upper) / 2.0), members


def rank_extensions(results: Sequence[BoundsResult]) -> list[BoundsResult]:
    """Heuristic ordering of bounds results, best first.

    Not a principled interval order: it sorts by :func:`rank_key`, which
    agrees with pairwise dominance whenever both bounds of one interval
    weakly exceed the other's.
    """
    return sorted(results, key=lambda r: rank_key(
        r.interval.lower, r.interval.upper, r.extension.members))
