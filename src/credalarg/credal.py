"""Agent opinions as credal sets, and the interval aggregation rules.

Every argument carries one probability value per agent; the list of those
values is its credal set. Two aggregation modes exist for a collection of
credal sets: treat the underlying events as independent (per-agent product)
or as dependent (per-agent minimum). Both collapse to lower/upper bounds by
taking the min/max across agents.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Mapping, Sequence
from operator import mul

from .af import ArgumentationFramework, _names, _Value
from .errors import CredalSetError, ValidationError

MAX_AGENTS = 10_000  # caps what an all-ones profile allocates per argument


def _checked_agent_count(count: int) -> int:
    if count < 1:
        raise CredalSetError("agent count must be >= 1")
    if count > MAX_AGENTS:
        raise CredalSetError(f"agent count must be <= {MAX_AGENTS}")
    return count


class CredalSet(_Value):
    """Opinions about one event, indexed by agent (position i = agent i+1)."""

    __match_args__ = ("values",)

    def __init__(self, values: Iterable[float]):
        vals = []
        for v in values:  # a value float() refuses is outside too
            try:
                value = float(v)
            except (TypeError, ValueError, OverflowError):
                raise CredalSetError(f"opinion {v!r} outside [0, 1]") from None
            if not 0.0 <= value <= 1.0:
                raise CredalSetError(f"opinion {value!r} outside [0, 1]")
            vals.append(value)
        if not vals:
            raise CredalSetError("credal set must hold at least one opinion")
        self._set(tuple(vals))

    @classmethod
    def _trusted(cls, values: tuple[float, ...]) -> CredalSet:
        # for a non-empty tuple of floats in [0, 1] that the caller checked
        credal_set = object.__new__(cls)
        object.__setattr__(credal_set, "values", values)
        return credal_set

    def __len__(self) -> int:
        return len(self.values)


class ProbabilityInterval(_Value):
    """A lower/upper probability pair, always within the unit interval."""

    __match_args__ = ("lower", "upper")

    def __init__(self, lower: float, upper: float):
        if not 0.0 <= lower <= upper <= 1.0:
            raise ValidationError(
                f"not a probability interval: ({lower}, {upper})")
        self._set(lower, upper)


class CredalProfile(_Value):
    """Total mapping from argument names to equal-length credal sets.

    ``arguments`` holds the names sorted, and ``rows`` their opinion values
    in that order, a document's bit order; :meth:`credal_set` makes one
    name's set from its row. A profile is not hashable. Its constructors
    check the names as a framework's are checked: a string, or an
    invalid name (the lowest by ``repr``), raises ``ValidationError``.
    """

    __match_args__ = ("agent_count", "arguments", "rows")
    __hash__ = None

    def __init__(self, agent_count: int,
                 assignment: Mapping[str, CredalSet] = {}):  # only read
        _checked_agent_count(agent_count)
        names = tuple(sorted(_names(assignment)))
        for name in names:
            if len(assignment[name]) != agent_count:
                raise CredalSetError(
                    f"credal set for {name!r} has {len(assignment[name])} "
                    f"opinions, expected {agent_count}")
        self._set(agent_count, names,
                  tuple(assignment[name].values for name in names))

    @classmethod
    def of(cls, table: Mapping[str, Sequence[float]]) -> "CredalProfile":
        """Build from raw value lists, in sorted-name order, taking the
        agent count from the lowest-named list."""
        sets = {name: CredalSet(tuple(table[name]))
                for name in sorted(_names(table))}
        if not sets:
            return cls(1, {})
        return cls(len(next(iter(sets.values()))), sets)

    @classmethod
    def maximal(cls, arguments: Iterable[str],
                agent_count: int = 1) -> "CredalProfile":
        """All-ones profile: every agent fully believes every argument."""
        _checked_agent_count(agent_count)
        names = tuple(sorted(set(_names(arguments))))
        return _ones_profile(agent_count, names)

    def credal_set(self, name: str) -> CredalSet:
        """The credal set of ``name``, made from its row."""
        return CredalSet._trusted(self._row(name))

    def _row(self, name: str) -> tuple[float, ...]:
        # the opinion values of ``name``, found by binary search
        names = self.arguments
        try:
            i = bisect_left(names, name)
        except TypeError:  # a name that does not compare with strings
            i = len(names)
        if i == len(names) or names[i] != name:
            raise ValidationError(
                f"profile has no opinions for argument {name!r}")
        return self.rows[i]


def _row_profile(agent_count: int, arguments: tuple[str, ...],
                 rows: Sequence[tuple[float, ...]]) -> CredalProfile:
    # for a count in 1..MAX_AGENTS, sorted distinct names and, per name,
    # a tuple of that many floats in [0, 1], which the caller checked
    profile = object.__new__(CredalProfile)
    object.__setattr__(profile, "agent_count", agent_count)
    object.__setattr__(profile, "arguments", arguments)
    object.__setattr__(profile, "rows", rows)
    return profile


def _ones_profile(agent_count: int,
                  arguments: tuple[str, ...]) -> CredalProfile:
    # the all-ones profile, for a count in 1..MAX_AGENTS and sorted distinct
    # names, which the caller checked
    ones = (1.0,) * agent_count
    return _row_profile(agent_count, arguments, (ones,) * len(arguments))


def agent_minimum(rows: Sequence[tuple[float, ...]]) -> tuple[float, ...]:
    """Per-agent minimum of equal-length value rows (the dependent rule)."""
    return rows[0] if len(rows) == 1 else tuple(map(min, *rows))


def agent_product(rows: Iterable[Sequence[float]]) -> Sequence[float]:
    """Per-agent product of equal-length value rows (the independent rule),
    or the one row itself; left to right, one eager step per row, so sorted
    rows are bit-reproducible and no lazy-map chain can overflow the stack."""
    rows = iter(rows)
    products = next(rows)
    for row in rows:
        products = list(map(mul, products, row))
    return products


def _bounds(ks: Sequence[CredalSet], rule) -> ProbabilityInterval:
    # min/max across agents of ``rule`` over equal-length credal sets
    if not ks:
        raise CredalSetError("need at least one credal set")
    m = len(ks[0])
    for k in ks:
        if len(k) != m:
            raise CredalSetError(
                f"mismatched credal set cardinalities: {len(k)} vs {m}")
    values = rule([k.values for k in ks])
    return ProbabilityInterval(min(values), max(values))


def independent_bounds(ks: Sequence[CredalSet]) -> ProbabilityInterval:
    """Bounds for independent events; the caller controls factor order."""
    return _bounds(ks, agent_product)


def dependent_bounds(ks: Sequence[CredalSet]) -> ProbabilityInterval:
    """Bounds for dependent events: min/max of the per-agent minimum."""
    return _bounds(ks, agent_minimum)


def rationality_rows(
        profile: CredalProfile, af: ArgumentationFramework,
) -> list[tuple[int, str, str, float, float]]:
    """Scan every agent against every attack.

    An opinion is rational when believing an attacker above 0.5 forces the
    attacked argument to at most 0.5. Violations are diagnostics, never a
    rejection: perfectly sensible multi-agent tables break the rule.
    Each violation is an ``(agent, attacker, target, attacker_value,
    target_value)`` row (agent 1-based), in sorted order: agent first,
    then the sorted attacks.
    """
    # a row is a non-empty tuple, so _row runs only on a missing name and
    # words the refusal of the first one
    row = dict(zip(profile.arguments, profile.rows)).get
    rows = [(attacker, target, row(attacker) or profile._row(attacker),
             row(target) or profile._row(target))
            for attacker, target in sorted(af.attacks)]
    return [(j + 1, attacker, target, a[j], t[j])
            for j in range(profile.agent_count)
            for attacker, target, a, t in rows
            if a[j] > 0.5 and t[j] > 0.5]


def is_maximal(profile: CredalProfile) -> bool:
    """True iff every opinion of every agent equals 1."""
    return all(v == 1.0 for row in profile.rows for v in row)
