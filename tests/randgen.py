"""Seeded random generators shared by the property and acceptance suites,
the mask encoding the suites use to read a graph's masks by name, and one
bounds row of a named set from the kernel."""

from __future__ import annotations

import random

from credalarg import (ArgumentationFramework, CausalityGraph, CredalProfile,
                       FrameworkDocument)
from credalarg.af import set_bits
from credalarg.bounds import mask_bounds


def mask_of(graph: CausalityGraph, members) -> int:
    """Member mask of ``members`` over the graph's bits."""
    return sum(1 << graph.index[name] for name in members)


def names_of(graph: CausalityGraph, mask: int) -> set[str]:
    """The names of the set bits of ``mask``."""
    return {graph.arguments[i] for i in set_bits(mask)}


def groups_of(graph: CausalityGraph, mask: int) -> tuple:
    """``(anchor, members)`` of each causal group of ``mask``, in anchor
    bit order: an anchor is a member in ``effect_mask`` that lies in no
    other member's ``ancestor_masks``, and its group is it with its
    in-mask ancestors, names sorted."""
    ancestors, names = graph.ancestor_masks, graph.arguments
    covered = 0
    for i in set_bits(mask):
        covered |= ancestors[i]
    return tuple((names[top], tuple(names[i] for i in set_bits(
        ancestors[top] & mask | 1 << top)))
        for top in set_bits(mask & graph.effect_mask & ~covered))


def kernel_row(members, profile: CredalProfile, graph: CausalityGraph):
    """The ``mask_bounds`` row of the distinct names ``members``:
    ``(lower, upper, case)``, or the refusal text. Each row is a call of
    its own, so no group's per-agent minimum is shared with another row."""
    # profile.rows are read by graph bit
    assert profile.arguments == graph.arguments
    return next(mask_bounds(graph, profile.rows, [mask_of(graph, members)]))


def random_framework(rng: random.Random, max_args: int = 10,
                     min_args: int = 1,
                     attack_p: float = 0.2) -> ArgumentationFramework:
    n = rng.randint(min_args, max_args)
    args = tuple(f"n{i}" for i in range(n))
    attacks = frozenset((a, b) for a in args for b in args
                        if rng.random() < attack_p)
    return ArgumentationFramework(args, attacks)


def random_causality(rng: random.Random, af: ArgumentationFramework,
                     edge_p: float = 0.25) -> CausalityGraph:
    """Random DAG over the framework's arguments, disjoint from its attacks.

    Edges only run forward along a shuffled order, which guarantees
    acyclicity without rejection sampling.
    """
    order = list(af.arguments)
    rng.shuffle(order)
    edges = set()
    for i, cause in enumerate(order):
        for effect in order[i + 1:]:
            if (cause, effect) in af.attacks or (effect, cause) in af.attacks:
                continue
            if rng.random() < edge_p:
                edges.add((cause, effect))
    return CausalityGraph(af.arguments, frozenset(edges))


def random_profile(rng: random.Random, af: ArgumentationFramework,
                   agent_count: int | None = None,
                   digits: int | None = None) -> CredalProfile:
    m = agent_count if agent_count is not None else rng.randint(1, 5)
    table = {}
    for arg in af.arguments:
        values = [rng.random() for _ in range(m)]
        if digits is not None:
            values = [round(v, digits) for v in values]
        table[arg] = values
    return CredalProfile.of(table) if table else CredalProfile(m, {})


def random_document(rng: random.Random, max_args: int = 8,
                    digits: int = 9) -> FrameworkDocument:
    af = random_framework(rng, max_args=max_args)
    graph = random_causality(rng, af)
    profile = random_profile(rng, af, digits=digits)
    return FrameworkDocument(af, profile, graph,
                             name=f"doc{rng.randint(0, 999)}",
                             description="randomly generated")
