"""Directed causal dependencies between arguments.

A causality graph shares the framework's argument universe and carries
acyclic cause -> effect edges, disjoint from the attack relation. It only
controls how an extension is cut into aggregation parts: chains of causally
related members collapse into dependent groups, everything else multiplies
independently.

Construction compiles the edges with :func:`~credalarg.af.compile_relation`
to parent and child bitmasks over the sorted ``arguments`` (bit i is
``arguments[i]``, see ``index``), then closes the ancestors along one
topological order, found by Kahn's algorithm. Its mask queries take and
return member masks; callers decode names only to print them.

Errors fire in a fixed order, each naming the lowest offender: an edge
with an unknown end (lowest pair), a self-edge (lowest looped argument),
then a cycle. Kahn's pass names it: every left-over node has a left-over
parent, so a walk from the lowest left-over bit to its lowest left-over
parent, and on, must repeat a node. No error depends on hash order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .af import compile_relation, set_bits
from .errors import CausalCycleError, ValidationError


@dataclass(frozen=True)
class CausalityGraph:
    """Acyclic cause -> effect edges over a set of argument names.

    Construction rejects, in this order, an edge with an unknown end
    (``UnknownArgumentError``), a self-edge (``ValidationError``) and a
    cycle (``CausalCycleError``, which names one). ``arguments`` is stored
    sorted.
    """

    arguments: tuple[str, ...] = ()
    edges: frozenset[tuple[str, str]] = field(default_factory=frozenset)

    def __post_init__(self):
        args, index, edges, parents, children = compile_relation(
            self.arguments, self.edges, "causal edge")
        for i, name in enumerate(args):
            if children[i] >> i & 1:
                raise ValidationError(f"causal self-edge on {name!r}")

        # Kahn's algorithm: parents come before their children in ``order``
        waiting = [p.bit_count() for p in parents]
        order = [i for i, count in enumerate(waiting) if not count]
        for i in order:
            for j in set_bits(children[i]):
                waiting[j] -= 1
                if not waiting[j]:
                    order.append(j)
        if len(order) < len(args):
            # walk up lowest left-over parents until a node repeats
            left = sum(1 << j for j, count in enumerate(waiting) if count)
            node = next(set_bits(left))
            step: dict[int, int] = {}
            while node not in step:
                step[node] = len(step)
                node = next(set_bits(parents[node] & left))
            cycle = list(step)[step[node]:] + [node]  # effect -> cause
            raise CausalCycleError([args[i] for i in reversed(cycle)])
        ancestors = [0] * len(args)
        effects = causes = 0
        for i in order:
            up = parents[i]
            for j in set_bits(parents[i]):
                up |= ancestors[j]
            ancestors[i] = up
            effects |= children[i]
            causes |= parents[i]

        for name, value in (
                ("arguments", args), ("edges", edges), ("index", index),
                ("child_masks", children), ("ancestor_masks", ancestors),
                ("effect_mask", effects), ("cause_mask", causes),
                ("isolated_mask", (1 << len(args)) - 1 & ~(effects | causes))):
            object.__setattr__(self, name, value)

    def __contains__(self, name: object) -> bool:
        return name in self.index

    def anchor_mask(self, members: int) -> int:
        """Members that terminate a causal chain inside ``members``.

        An anchor is caused by something, belongs to the set, and is an
        ancestor of no other member; each one roots a dependent group made
        of itself plus its in-set ancestors.
        """
        effects = members & self.effect_mask
        covered = 0
        for i in set_bits(effects):
            covered |= self.ancestor_masks[i]
        return effects & ~covered

    def free_mask(self, members: int, anchors: int) -> int:
        """Members with outgoing edges that feed no other member.

        Decided on direct successors, the ``child_masks`` (testing the
        members' ``ancestor_masks`` instead would give the transitive
        reading); ``anchors`` are excluded since they already root a group.
        """
        candidates = members & self.cause_mask & ~anchors
        return sum(1 << i for i in set_bits(candidates)
                   if not self.child_masks[i] & members)


def check_attack_disjointness(graph: CausalityGraph,
                              attacks: Iterable[tuple[str, str]]) -> None:
    """Reject causal edges that coincide with an attack in either direction.

    The error names the lowest clashing attack.
    """
    edges = graph.edges
    clashes = [(a, b) for a, b in attacks if (a, b) in edges or (b, a) in edges]
    if clashes:
        a, b = min(clashes)
        raise ValidationError(f"attack ({a},{b}) clashes with a causal edge")
