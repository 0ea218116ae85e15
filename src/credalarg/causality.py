"""Directed causal dependencies between arguments.

A causality graph shares the framework's argument universe and carries
acyclic cause -> effect edges, disjoint from the attack relation. It only
controls how an extension is cut into aggregation parts: chains of causally
related members collapse into dependent groups, everything else multiplies
independently.
"""

from __future__ import annotations

import graphlib
from dataclasses import dataclass, field
from typing import Iterable

from .errors import UnknownArgumentError, ValidationError


@dataclass(frozen=True)
class CausalPartition:
    """Split of the argument universe by causal role.

    ``effects`` have an incoming edge, ``causes`` an outgoing one (the two
    may overlap); ``isolated`` holds the untouched rest.
    """

    effects: frozenset[str]
    causes: frozenset[str]
    isolated: frozenset[str]


@dataclass(frozen=True)
class CausalityGraph:
    arguments: tuple[str, ...] = ()
    edges: frozenset[tuple[str, str]] = field(default_factory=frozenset)

    def __post_init__(self):
        args = tuple(sorted(set(self.arguments)))
        object.__setattr__(self, "arguments", args)
        known = set(args)
        edges = frozenset((a, b) for a, b in self.edges)
        parents: dict[str, set[str]] = {a: set() for a in args}
        children: dict[str, set[str]] = {a: set() for a in args}
        for cause, effect in edges:
            for end in (cause, effect):
                if end not in known:
                    raise UnknownArgumentError(
                        f"causal edge ({cause},{effect}) mentions unknown "
                        f"argument {end!r}")
            if cause == effect:
                raise ValidationError(f"causal self-edge on {cause!r}")
            parents[effect].add(cause)
            children[cause].add(effect)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_parents", parents)
        object.__setattr__(self, "_children", children)
        effects = frozenset(b for _, b in edges)
        causes = frozenset(a for a, _ in edges)
        object.__setattr__(self, "_partition", CausalPartition(
            effects, causes, frozenset(args) - effects - causes))

        try:
            order = tuple(graphlib.TopologicalSorter(parents).static_order())
        except graphlib.CycleError as exc:
            cycle = exc.args[1]
            raise ValidationError(
                "causal cycle: " + " -> ".join(cycle)) from None
        # ancestor closure in topological order (parents come first)
        ancestors: dict[str, frozenset[str]] = {}
        for name in order:
            acc: set[str] = set()
            for p in parents[name]:
                acc.add(p)
                acc |= ancestors[p]
            ancestors[name] = frozenset(acc)
        descendants: dict[str, set[str]] = {a: set() for a in args}
        for name, up in ancestors.items():
            for p in up:
                descendants[p].add(name)
        object.__setattr__(self, "_ancestors", ancestors)
        object.__setattr__(
            self, "_descendants",
            {a: frozenset(d) for a, d in descendants.items()})

    def __contains__(self, name: object) -> bool:
        return name in self._parents

    def _known(self, name: str) -> str:
        if name not in self:
            raise UnknownArgumentError(f"unknown argument {name!r}")
        return name

    def partition(self) -> CausalPartition:
        """The effect/cause/isolated split, computed once at construction."""
        return self._partition

    def direct_causes_of(self, name: str) -> frozenset[str]:
        return frozenset(self._parents[self._known(name)])

    def direct_effects_of(self, name: str) -> frozenset[str]:
        return frozenset(self._children[self._known(name)])

    def ancestors_of(self, name: str) -> frozenset[str]:
        """Every argument with a directed causal path into ``name``."""
        return self._ancestors[self._known(name)]

    def descendants_of(self, name: str) -> frozenset[str]:
        return self._descendants[self._known(name)]

    def group_anchors(self, members: Iterable[str]) -> frozenset[str]:
        """Members that terminate a causal chain inside the given set.

        An anchor is caused by something, belongs to the set, and is an
        ancestor of no other member; each one roots a dependent group made
        of itself plus its in-set ancestors.
        """
        members = frozenset(members)
        return frozenset(a for a in members & self._partition.effects
                         if not self._descendants[a] & members)

    def free_causes(self, members: Iterable[str]) -> frozenset[str]:
        """Members with outgoing edges that feed no other member.

        Decided on direct successors (switching `self._children[a]` to
        `self._descendants[a]` here would give the transitive reading);
        anchors are excluded since they already root a group.
        """
        members = frozenset(members)
        candidates = frozenset(a for a in members & self._partition.causes
                               if not self._children[a] & members)
        return candidates - self.group_anchors(members)


def check_attack_disjointness(graph: CausalityGraph,
                              attacks: Iterable[tuple[str, str]]) -> None:
    """Reject causal edges that coincide with an attack in either direction."""
    for a, b in attacks:
        if (a, b) in graph.edges or (b, a) in graph.edges:
            raise ValidationError(
                f"attack ({a},{b}) clashes with a causal edge")
