"""Agent opinions as credal sets, and the interval aggregation rules.

Every argument carries one probability value per agent; the list of those
values is its credal set. Two aggregation modes exist for a collection of
credal sets: treat the underlying events as independent (per-agent product)
or as dependent (per-agent minimum). Both collapse to lower/upper bounds by
taking the min/max across agents.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from operator import mul

from .af import ArgumentationFramework
from .errors import CredalSetError, ValidationError

MAX_AGENTS = 10_000  # caps what an all-ones profile allocates per argument


def _checked_agent_count(count: int) -> int:
    if count < 1:
        raise CredalSetError("agent count must be >= 1")
    if count > MAX_AGENTS:
        raise CredalSetError(f"agent count must be <= {MAX_AGENTS}")
    return count


@dataclass(frozen=True)
class CredalSet:
    """Opinions about one event, indexed by agent (position i = agent i+1)."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = []
        for v in self.values:  # a value float() refuses is outside too
            try:
                value = float(v)
            except (TypeError, ValueError, OverflowError):
                raise CredalSetError(f"opinion {v!r} outside [0, 1]") from None
            if not 0.0 <= value <= 1.0:
                raise CredalSetError(f"opinion {value!r} outside [0, 1]")
            vals.append(value)
        if not vals:
            raise CredalSetError("credal set must hold at least one opinion")
        object.__setattr__(self, "values", tuple(vals))

    @classmethod
    def _trusted(cls, values: tuple[float, ...]) -> CredalSet:
        # for a non-empty tuple of floats in [0, 1] that the caller checked
        credal_set = object.__new__(cls)
        object.__setattr__(credal_set, "values", values)
        return credal_set

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ProbabilityInterval:
    """A lower/upper probability pair, always within the unit interval."""

    lower: float
    upper: float

    def __post_init__(self):
        if not 0.0 <= self.lower <= self.upper <= 1.0:
            raise ValidationError(
                f"not a probability interval: ({self.lower}, {self.upper})")


@dataclass(frozen=True)
class CredalProfile:
    """Total mapping from argument names to equal-length credal sets.

    ``arguments`` holds the names sorted, and ``rows`` their values in that
    order, a document's bit order. A profile the `.caf` loader or
    :meth:`maximal` built holds only those two, and makes ``assignment``
    and its sets on first use.
    """

    agent_count: int
    assignment: Mapping[str, CredalSet] = field(default_factory=dict)

    def __post_init__(self):
        _checked_agent_count(self.agent_count)
        norm = {name: k for name, k in sorted(self.assignment.items())}
        for name, k in norm.items():
            if len(k) != self.agent_count:
                raise CredalSetError(
                    f"credal set for {name!r} has {len(k)} opinions, "
                    f"expected {self.agent_count}")
        object.__setattr__(self, "assignment", norm)
        object.__setattr__(self, "arguments", tuple(norm))
        object.__setattr__(self, "rows",
                           tuple(k.values for k in norm.values()))

    def __getattr__(self, name: str):
        # reached only for an attribute not yet set: a row-built profile's
        # assignment, made once
        if name != "assignment":
            raise AttributeError(name)
        value = dict(zip(self.arguments, map(CredalSet._trusted, self.rows)))
        object.__setattr__(self, name, value)
        return value

    @classmethod
    def of(cls, table: Mapping[str, Sequence[float]]) -> "CredalProfile":
        """Build from raw value lists, in sorted-name order, taking the
        agent count from the lowest-named list."""
        sets = {name: CredalSet(tuple(table[name])) for name in sorted(table)}
        if not sets:
            return cls(1, {})
        return cls(len(next(iter(sets.values()))), sets)

    @classmethod
    def maximal(cls, arguments: Iterable[str],
                agent_count: int = 1) -> "CredalProfile":
        """All-ones profile: every agent fully believes every argument."""
        ones = (1.0,) * _checked_agent_count(agent_count)
        names = tuple(sorted(dict.fromkeys(arguments)))
        return _row_profile(agent_count, names, (ones,) * len(names))

    def credal_set(self, name: str) -> CredalSet:
        try:
            return self.assignment[name]
        except KeyError:
            raise ValidationError(
                f"profile has no opinions for argument {name!r}") from None


def _row_profile(agent_count: int, arguments: tuple[str, ...],
                 rows: Sequence[tuple[float, ...]]) -> CredalProfile:
    # for a count in 1..MAX_AGENTS, sorted distinct names and, per name,
    # a tuple of that many floats in [0, 1], which the caller checked
    profile = object.__new__(CredalProfile)
    object.__setattr__(profile, "agent_count", agent_count)
    object.__setattr__(profile, "arguments", arguments)
    object.__setattr__(profile, "rows", rows)
    return profile


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


def single_bounds(k: CredalSet) -> ProbabilityInterval:
    """Lower/upper probability of one event: min/max of its credal set."""
    return ProbabilityInterval(min(k.values), max(k.values))


def _check_same_cardinality(ks: Sequence[CredalSet]) -> None:
    if not ks:
        raise CredalSetError("need at least one credal set")
    m = len(ks[0])
    for k in ks:
        if len(k) != m:
            raise CredalSetError(
                f"mismatched credal set cardinalities: {len(k)} vs {m}")


def independent_bounds(ks: Sequence[CredalSet]) -> ProbabilityInterval:
    """Bounds for independent events; the caller controls factor order."""
    _check_same_cardinality(ks)
    products = agent_product(k.values for k in ks)
    return ProbabilityInterval(min(products), max(products))


def dependent_credal_set(ks: Sequence[CredalSet]) -> CredalSet:
    """Joint credal set for dependent events: per-agent minimum."""
    _check_same_cardinality(ks)
    return CredalSet(agent_minimum([k.values for k in ks]))


def dependent_bounds(ks: Sequence[CredalSet]) -> ProbabilityInterval:
    """Bounds for dependent events: min/max of the joint credal set."""
    return single_bounds(dependent_credal_set(ks))


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
    values = dict(zip(profile.arguments, profile.rows))
    try:
        rows = [(attacker, target, values[attacker], values[target])
                for attacker, target in sorted(af.attacks)]
    except KeyError as exc:  # credal_set words the first missing name
        profile.credal_set(exc.args[0])
        raise
    return [(j + 1, attacker, target, a[j], t[j])
            for j in range(profile.agent_count)
            for attacker, target, a, t in rows
            if a[j] > 0.5 and t[j] > 0.5]


def is_maximal(profile: CredalProfile) -> bool:
    """True iff every opinion of every agent equals 1."""
    return all(v == 1.0 for row in profile.rows for v in row)
