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

:func:`mask_bounds` is the one kernel, and it owns this cut: a flat loop
over member masks that cuts each mask itself, as ``&``/``|`` on the
graph's effect, child and ancestor masks, and yields a row,
``(lower, upper, case)`` or the refusal text, with no name decoded, as
it is computed. It first finds the covered members, those that are some
member's causal ancestor. When none is, every member is a part of its own
(an anchor alone, a free cause or isolated), and the row is the product
of the members' values in bit order. Otherwise the anchors' groups are
built and checked for overlap, then each covered member must feed a
member directly: a covered member lies in some anchor's group, so one
that feeds none is a free cause as well and is consumed twice. The rest
are isolated members and free causes. No member is left out of every
part: a member that is no effect and not covered has no child among the
members, so it is isolated or a free cause.
:func:`document_rows` runs it over a document's ``profile.rows``, the
opinion values by bit, and gives each row with its member names; a
named set is the one mask that ``framework.extension_mask`` checks.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from operator import itemgetter, mul

from .af import _names, set_bits
from .causality import CausalityGraph
from .credal import (CredalProfile, ProbabilityInterval, agent_minimum,
                     agent_product)
from .errors import CoverageError, ValidationError
from .formats import FrameworkDocument

EMPTY_CASE = "empty"
SINGLETON_CASE = "singleton"
ALGORITHM_CASE = "algorithm"


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
    names, children = graph.arguments, graph.child_masks
    ancestors, effect_mask = graph.ancestor_masks, graph.effect_mask
    minima: dict[int, Sequence[float]] = {}
    for mask in masks:
        if not mask:
            yield 0.0, 1.0, EMPTY_CASE
            continue
        # covered: the members that are some member's ancestor (only
        # effects have ancestors)
        rest = effects = mask & effect_mask
        covered = 0
        while rest:
            low = rest & -rest
            rest ^= low
            covered |= ancestors[low.bit_length() - 1]
        covered &= mask
        if not covered:
            # each member is a part of its own: an anchor alone, a free
            # cause or isolated; folded as agent_product folds, but inline,
            # which is cheaper on these rows
            low = mask & -mask
            rest = mask ^ low
            products = rows[low.bit_length() - 1]
            while rest:
                low = rest & -rest
                rest ^= low
                products = list(map(mul, products,
                                    rows[low.bit_length() - 1]))
        else:
            # anchors: member effects that are no member's ancestor
            anchors = rest = effects & ~covered
            # (lowest bit, values) per part; parts are disjoint, so
            # ordering by lowest bit is ordering by sorted members
            parts = []
            grouped = clash = 0
            while rest:
                top = rest & -rest
                rest ^= top
                inside = ancestors[top.bit_length() - 1] & mask | top
                clash = inside & grouped
                if clash:  # name the first group that holds the lowest clash
                    low = clash & -clash
                    first = next(t for t in set_bits(anchors)
                                 if (ancestors[t] & mask | 1 << t) & low)
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
            # every covered member lies in a group; one that feeds no
            # member directly is a free cause too (child_masks, not
            # ancestor_masks, keeps the direct reading over the transitive)
            rest = covered
            while rest and children[(rest & -rest).bit_length() - 1] & mask:
                rest &= rest - 1
            if rest:
                yield (f"member {names[(rest & -rest).bit_length() - 1]!r} "
                       "consumed 2 times by the causal grouping")
                continue
            # the rest are isolated members and free causes
            singles = mask & ~grouped
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


def agent_valuation_oracle(members: Iterable[str],
                           profile: CredalProfile,
                           graph: CausalityGraph) -> ProbabilityInterval:
    """Differential-testing oracle for the grouping algorithm.

    Re-derives the same semantics from raw causal edges: each agent values
    the extension as a product over parts (group parts contribute their
    member minimum), and the bounds are the min/max across agents. Shares
    no traversal or aggregation code with :func:`mask_bounds`, and raises
    the same :class:`~credalarg.errors.CoverageError` on partition defects.
    ``members`` is checked for a string or an invalid name as
    ``extension_mask`` checks it, then each member, in sorted order,
    against ``profile`` and then against ``graph``. Each member's values
    are its row of ``profile.rows``, so no credal set is made.
    """
    names = tuple(sorted(set(_names(members))))
    if not names:
        raise ValidationError("oracle needs a non-empty extension")
    rows = {}
    for name in names:
        rows[name] = profile._row(name)  # raises on a mismatch
        if name not in graph.index:
            raise ValidationError(f"causality graph has no argument {name!r}")
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
            total *= min(rows[n][j] for n in part)
        values.append(total)
    return ProbabilityInterval(min(values), max(values))


def rank_key(lower: float, upper: float, members: tuple | str) -> tuple:
    """Sort key of ``rank``, best first: midpoint descending, then members:
    the sorted names, or their text as ``rank`` joins it, by a separator
    that sorts below every name character, so both give one order. Not a
    principled interval order: it agrees with pairwise dominance whenever
    both bounds of one interval weakly exceed the other's."""
    return -((lower + upper) / 2.0), members
