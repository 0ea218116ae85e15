"""Directed causal dependencies between arguments.

A causality graph shares the framework's argument universe and carries
acyclic cause -> effect edges, disjoint from the attack relation. It only
controls how an extension is cut into aggregation parts: chains of causally
related members collapse into dependent groups, everything else multiplies
independently.

Construction compiles the edges with :func:`~credalarg.af.compile_pairs`
to parent and child bitmasks over the sorted ``arguments`` (bit i is
``arguments[i]``, see ``index``), and checks them for a cycle with Kahn's
algorithm, which also gives a topological order. A graph the `.caf`
loader builds shares its ``arguments`` tuple and ``index`` with the
document's framework. The ancestor closure, ``ancestor_masks``, is
computed along the topological order on first use, since only bounds
read it.

Errors fire in a fixed order, each naming the lowest offender: an edge
with an unknown end (lowest pair), a self-edge (lowest looped argument),
then a cycle. Kahn's pass names it: every left-over node has a left-over
parent, so a walk from the lowest left-over bit to its lowest left-over
parent, and on, must repeat a node. No error depends on hash order.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable
from functools import cached_property

from .af import _Value, compile_pairs, index_arguments, pair_set, set_bits
from .errors import CausalCycleError, ValidationError, _clip, _echo


class CausalityGraph(_Value):
    """Acyclic cause -> effect edges over a set of argument names.

    Construction rejects, in this order, an edge with an unknown end
    (``UnknownArgumentError``), a self-edge (``ValidationError``) and a
    cycle (``CausalCycleError``, which names one). ``arguments`` is stored
    sorted.
    """

    __match_args__ = ("arguments", "edges")

    def __init__(self, arguments: Iterable[str] = (),
                 edges: Iterable[tuple[str, str]] = frozenset()):
        self._compile(*index_arguments(arguments),
                      pair_set(edges, "causal edge"))

    def _compile(self, arguments: tuple[str, ...], index: dict[str, int],
                 edges: frozenset) -> None:
        parents, children = compile_pairs(index, edges, "causal edge")
        for i, name in enumerate(arguments):
            if children[i] >> i & 1:
                raise ValidationError(f"causal self-edge on {_echo(name)}")

        # Kahn's algorithm: parents come before their children in ``order``;
        # bits walked inline, since most nodes have no child
        waiting = [p.bit_count() for p in parents]
        order = [i for i, count in enumerate(waiting) if not count]
        for i in order:
            down = children[i]
            while down:
                low = down & -down
                down ^= low
                j = low.bit_length() - 1
                waiting[j] -= 1
                if not waiting[j]:
                    order.append(j)
        if len(order) < len(arguments):
            # walk up lowest left-over parents until a node repeats
            left = sum(1 << j for j, count in enumerate(waiting) if count)
            node = next(set_bits(left))
            step: dict[int, int] = {}
            while node not in step:
                step[node] = len(step)
                node = next(set_bits(parents[node] & left))
            cycle = list(step)[step[node]:] + [node]  # effect -> cause
            raise CausalCycleError([arguments[i] for i in reversed(cycle)])
        effects = sum(1 << i for i, up in enumerate(parents) if up)
        causes = sum(1 << i for i, down in enumerate(children) if down)

        for name, value in (
                ("arguments", arguments), ("edges", edges), ("index", index),
                ("child_masks", children), ("_parents", parents),
                ("_order", order), ("effect_mask", effects),
                ("cause_mask", causes)):
            object.__setattr__(self, name, value)

    @cached_property
    def ancestor_masks(self) -> list[int]:
        """Per bit, the mask of its causal ancestors: closed along the
        topological order on first use, since only bounds read it."""
        ancestors = [0] * len(self.arguments)
        parents = self._parents
        for i in self._order:
            up = rest = parents[i]
            while rest:
                low = rest & -rest
                rest ^= low
                up |= ancestors[low.bit_length() - 1]
            ancestors[i] = up
        return ancestors


def check_attack_disjointness(graph: CausalityGraph,
                              attacks: Collection[tuple[str, str]]) -> None:
    """Reject causal edges that coincide with an attack in either direction.

    The error names the lowest clashing attack. Each edge is looked up in
    ``attacks``, both ways round, since a graph has fewer edges than most
    frameworks have attacks.
    """
    clashes = [pair for a, b in graph.edges for pair in ((a, b), (b, a))
               if pair in attacks]
    if clashes:
        a, b = min(clashes)
        raise ValidationError(
            f"attack ({_clip(a)},{_clip(b)}) clashes with a causal edge")


def _graph(arguments: tuple[str, ...], index: dict[str, int],
           edges: frozenset) -> CausalityGraph:
    # The graph over ``arguments`` and ``index`` as af._sorted_index gives
    # them and a frozenset of 2-tuples, without the checks the caller made;
    # an unknown end, a self-edge and a cycle still raise.
    graph = object.__new__(CausalityGraph)
    graph._compile(arguments, index, edges)
    return graph
