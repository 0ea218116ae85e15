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


def grid_attacks(names, cols: int) -> set:
    """Mutual attacks between the neighbours of ``names`` laid out row by
    row, ``cols`` to a row."""
    attacks = set()
    for k, a in enumerate(names):
        for j in (k + 1 if (k + 1) % cols else None, k + cols):
            if j is not None and j < len(names):
                attacks |= {(a, names[j]), (names[j], a)}
    return attacks


def symmetric_attacks(rng: random.Random, names, p: float) -> set:
    """Mutual attacks between each two of ``names`` with chance ``p``."""
    return {e for k, a in enumerate(names) for b in names[k + 1:]
            if rng.random() < p for e in ((a, b), (b, a))}


def twist(rng: random.Random, names, attacks: set, kind: str) -> set:
    """``attacks`` with one mutual attack made one-way (or, if there is
    none, one one-way attack added) under ``"one-way"``, or one
    self-attack added under ``"self-attack"``."""
    attacks = set(attacks)
    if kind == "self-attack":
        a = rng.choice(names)
        attacks.add((a, a))
    elif kind == "one-way":
        mutual = sorted((a, b) for a, b in attacks if a != b
                        and (b, a) in attacks)
        if mutual:
            attacks.discard(rng.choice(mutual))
        elif len(names) > 1:
            attacks.add(tuple(rng.sample(names, 2)))
    return attacks


PART_SHAPES = ("clique", "pairs", "grid", "symmetric", "cycle", "random",
               "chain", "fed")


def part_attacks(rng: random.Random, names, shape: str) -> set:
    """Attacks over ``names`` of one shape of :data:`PART_SHAPES`: a cycle
    or a chain in name order, a two-row grid, a symmetric rest that an
    unattacked first name attacks in part (so the grounded labelling
    labels those OUT, and they attack further one way), or random one-way
    attacks with self-attacks among them."""
    n = len(names)
    if shape == "clique":
        return {(a, b) for a in names for b in names if a != b}
    if shape == "pairs":
        return {e for a, b in zip(names[::2], names[1::2])
                for e in ((a, b), (b, a))}
    if shape == "grid":
        return grid_attacks(names, max(1, (n + 1) // 2))
    if shape == "symmetric":
        return symmetric_attacks(rng, names, 0.35)
    if shape in ("cycle", "chain"):
        attacks = set(zip(names, names[1:]))
        if shape == "cycle" and n > 1:
            attacks.add((names[-1], names[0]))
        return attacks
    if shape == "fed":
        attacks = symmetric_attacks(rng, names[1:], 0.35)
        for b in names[1:]:
            if rng.random() < 0.4:
                attacks.add((names[0], b))
                attacks |= {(b, c) for c in names[1:]
                            if c != b and rng.random() < 0.3}
        return attacks
    return {(a, b) for a in names for b in names if rng.random() < 0.15}


FAMILIES = ("grid", "clique", "symmetric", "union", "interleaved")


def family_framework(rng: random.Random, n: int, family: str,
                     shapes=PART_SHAPES) -> ArgumentationFramework:
    """A framework of about ``n`` arguments from :data:`FAMILIES`, with a
    one-way attack or a self-attack twisted in a third of the time each.

    ``union`` joins 2-5 parts of ``shapes``, each under its own
    name prefix, so that no part interleaves with another in sorted-name
    order; ``interleaved`` deals one set of names out to the parts.
    Unpadded numbers sort apart from their values (``a10`` < ``a2``)."""
    names = [f"a{i}" for i in range(n)]
    if family == "grid":
        attacks = grid_attacks(names, rng.randint(2, max(2, n // 3)))
    elif family == "clique":
        attacks = part_attacks(rng, names, "clique")
    elif family == "symmetric":
        attacks = symmetric_attacks(rng, names, rng.choice((0.1, 0.2, 0.3)))
    else:
        cuts = sorted(rng.sample(range(1, n), min(n - 1, rng.randint(1, 4))))
        sizes = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
        if family == "interleaved":
            rng.shuffle(names)
            groups = [names[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
        else:
            groups = [[f"{chr(97 + k)}{i}" for i in range(size)]
                      for k, size in enumerate(sizes)]
            names = sum(groups, [])
        attacks = set()
        for group in groups:
            attacks |= part_attacks(rng, group, rng.choice(shapes))
    kind = rng.choice((None, "one-way", "self-attack"))
    if kind:
        attacks = twist(rng, names, attacks, kind)
    return ArgumentationFramework(names, frozenset(attacks))
