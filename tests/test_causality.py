import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import credalarg
from credalarg import (ArgumentationFramework, CausalCycleError,
                       CausalityGraph, CredalProfile, UnknownArgumentError,
                       ValidationError, agent_valuation_oracle,
                       check_attack_disjointness)
from randgen import (groups_of, kernel_row, mask_of, names_of,
                     random_causality, random_framework, random_profile)

CORE = {"C", "D", "E", "F", "G", "H"}
PICKED = {"A", "F", "H", "D", "E", "G"}


def ancestors(graph, name):
    """Every argument with a directed causal path into ``name``."""
    return names_of(graph, graph.ancestor_masks[graph.index[name]])


def descendants(graph, name):
    """Every argument with a directed causal path from ``name``."""
    bit = graph.index[name]
    return {a for a, up in zip(graph.arguments, graph.ancestor_masks)
            if up >> bit & 1}


def anchors(graph, members):
    """The anchors of the causal groups of ``members``."""
    return {top for top, _ in groups_of(graph, mask_of(graph, members))}


def split(graph):
    """The effect, cause and isolated names; an isolated argument is in
    neither mask."""
    effects = names_of(graph, graph.effect_mask)
    causes = names_of(graph, graph.cause_mask)
    return effects, causes, set(graph.arguments) - effects - causes


def raw_cut(graph, members, up):
    """The anchors and parts of ``members`` from ``edges`` and ``up``, each
    name's ancestors, alone: an anchor with its in-set ancestors, then
    each isolated member and each free cause (no direct effect in the set,
    no anchor) alone."""
    effects = {b for _, b in graph.edges}
    causes = {a for a, _ in graph.edges}
    tops = {a for a in members & effects
            if not any(a in up[b] for b in members)}
    free = {a for a in members & causes
            if not any((a, b) in graph.edges for b in members)}
    return tops, [tuple(sorted({t} | up[t] & members)) for t in tops] + [
        (a,) for a in free - tops | members - effects - causes]


def assert_cut(graph, profile, members, parts):
    """Assert the kernel row of ``members`` is the product of ``parts``,
    each reduced by its per-agent minimum, in lowest-member order, or a
    refusal exactly when the parts do not consume every member once.
    True when the row is refused."""
    row = kernel_row(members, profile, graph)
    if sorted(n for part in parts for n in part) != sorted(members):
        assert isinstance(row, str), (members, parts, row)
        return True
    if not members:
        assert row == (0.0, 1.0, "empty")
        return False
    values = dict(zip(profile.arguments, profile.rows))
    products = [1.0] * profile.agent_count
    for part in sorted(parts):  # disjoint sorted tuples: by lowest member
        products = [p * min(values[n][j] for n in part)
                    for j, p in enumerate(products)]
    assert row == (min(products), max(products), "singleton"
                   if len(members) == 1 else "algorithm"), (members, parts)
    return False


class TestPartition:
    def test_diagnosis_partition(self, diagnosis):
        effects, causes, isolated = split(diagnosis.causality)
        assert effects == {"A", "B", "G"}
        assert causes == {"C", "D", "F", "G", "H"}
        assert isolated == {"E"}

    def test_no_edges_means_all_isolated(self):
        effects, causes, isolated = split(CausalityGraph(("x", "y")))
        assert isolated == {"x", "y"}
        assert not effects and not causes

    def test_single_edge(self):
        graph = CausalityGraph(("x", "y"), frozenset({("x", "y")}))
        effects, causes, isolated = split(graph)
        assert causes == {"x"}
        assert effects == {"y"}
        assert isolated == set()

    def test_partition_invariants_on_random_graphs(self):
        rng = random.Random(7)
        for _ in range(40):
            af = random_framework(rng, max_args=9)
            graph = random_causality(rng, af)
            effects, causes, isolated = split(graph)
            assert effects | causes | isolated == set(graph.arguments)
            assert not (effects | causes) & isolated


class TestAncestors:
    def test_single_step(self, diagnosis):
        assert ancestors(diagnosis.causality, "G") == {"H"}

    def test_transitive_closure(self, diagnosis):
        # H reaches A both directly and through G
        assert ancestors(diagnosis.causality, "A") == {"D", "F", "G", "H"}

    def test_source_has_none(self, diagnosis):
        assert ancestors(diagnosis.causality, "H") == set()

    def test_never_contains_itself(self, diagnosis):
        for name in diagnosis.causality.arguments:
            assert name not in ancestors(diagnosis.causality, name)

    def test_unknown_argument(self, diagnosis):
        # names reach the graph only through the oracle's domain check
        with pytest.raises(ValidationError) as info:
            agent_valuation_oracle(("Z",), CredalProfile.of({"Z": [0.5]}),
                                   diagnosis.causality)
        assert str(info.value) == "causality graph has no argument 'Z'"

    def test_membership(self, diagnosis):
        assert "E" in diagnosis.causality.index
        assert "Z" not in diagnosis.causality.index

    def test_monotone_under_edge_addition(self):
        rng = random.Random(21)
        for _ in range(30):
            af = random_framework(rng, max_args=8, attack_p=0.0)
            graph = random_causality(rng, af, edge_p=0.2)
            order = list(af.arguments)
            rng.shuffle(order)
            extra = None
            for i, a in enumerate(order):
                for b in order[i + 1:]:
                    if (a, b) not in graph.edges and \
                            a not in descendants(graph, b):
                        extra = (a, b)
                        break
                if extra:
                    break
            if extra is None:
                continue
            bigger = CausalityGraph(graph.arguments,
                                    graph.edges | {extra})
            for name in graph.arguments:
                assert ancestors(graph, name) <= ancestors(bigger, name)


class TestGroupAnchors:
    def test_accepted_core(self, diagnosis):
        graph = diagnosis.causality
        assert {top for top, _ in groups_of(graph, mask_of(graph, CORE))} \
            == {"G"}

    def test_hand_picked_set(self, diagnosis):
        # G is an ancestor of A which is in the set, so only A anchors
        assert anchors(diagnosis.causality, PICKED) == {"A"}
        assert not assert_cut(diagnosis.causality, diagnosis.profile, PICKED,
                              [("A", "D", "F", "G", "H"), ("E",)])

    def test_no_effect_members_no_anchors(self, diagnosis):
        assert anchors(diagnosis.causality, {"C", "D", "E"}) == set()
        assert not assert_cut(diagnosis.causality, diagnosis.profile,
                              {"C", "D", "E"}, [("C",), ("D",), ("E",)])


class TestFreeCauses:
    def test_accepted_core(self, diagnosis):
        # C, D and F are free: a factor each, beside E and the group of G
        assert not assert_cut(diagnosis.causality, diagnosis.profile, CORE,
                              [("C",), ("D",), ("E",), ("F",), ("G", "H")])

    def test_hand_picked_set_has_none(self, diagnosis):
        # every cause in the set reaches A or G inside the set
        assert not assert_cut(diagnosis.causality, diagnosis.profile, PICKED,
                              [("A", "D", "F", "G", "H"), ("E",)])

    def test_empty_set(self, diagnosis):
        assert not assert_cut(diagnosis.causality, diagnosis.profile,
                              set(), [])


def test_anchor_and_free_containment_on_random_graphs():
    rng, values = random.Random(99), random.Random(100)
    refused = 0
    for _ in range(60):
        af = random_framework(rng, max_args=9)
        graph = random_causality(rng, af)
        effects = split(graph)[0]
        pool = list(graph.arguments)
        subset = {a for a in pool if rng.random() < 0.5}
        up = {a: _reach(sorted(graph.edges), a, forward=False)
              for a in subset}
        tops, parts = raw_cut(graph, subset, up)
        assert anchors(graph, subset) == tops <= effects & subset
        refused += assert_cut(graph, random_profile(values, af), subset,
                              parts)
    assert 0 < refused < 60


class TestValidation:
    def test_cycle_rejected(self):
        with pytest.raises(ValidationError, match="cycle"):
            CausalityGraph(("x", "y"), frozenset({("x", "y"), ("y", "x")}))

    def test_cycle_message_names_a_real_cycle(self):
        rng = random.Random(5)
        for _ in range(100):
            args = [f"n{i}" for i in range(rng.randint(2, 12))]
            edges = {(a, b) for a in args for b in args
                     if a != b and rng.random() < 0.2}
            ring = rng.sample(args, rng.randint(2, len(args)))
            edges |= set(zip(ring, ring[1:] + ring[:1]))
            with pytest.raises(CausalCycleError) as err:
                CausalityGraph(tuple(args), frozenset(edges))
            prefix, _, walk = str(err.value).partition(": ")
            nodes = walk.split(" -> ")
            assert prefix == "causal cycle"
            assert tuple(nodes) == err.value.nodes
            assert nodes[0] == nodes[-1] and len(nodes) > 2
            assert len(set(nodes)) == len(nodes) - 1
            assert all(pair in edges for pair in zip(nodes, nodes[1:]))

    def test_ring_of_five_thousand_names_every_node(self):
        args = [f"r{i}" for i in range(5000)]
        edges = frozenset(zip(args, args[1:] + args[:1]))
        with pytest.raises(CausalCycleError) as err:
            CausalityGraph(tuple(args), edges)
        nodes = err.value.nodes
        assert len(nodes) == 5001 and nodes[0] == nodes[-1] == "r0"
        assert set(zip(nodes, nodes[1:])) == edges

    def test_name_that_is_not_a_string_rejected(self):
        with pytest.raises(ValidationError) as err:
            CausalityGraph(("a", 1))
        assert str(err.value) == "invalid argument name: 1"

    def test_name_off_the_pattern_rejected(self):
        with pytest.raises(ValidationError) as err:
            CausalityGraph(("a", "b-c"), frozenset({("a", "zz")}))
        assert str(err.value) == "invalid argument name: 'b-c'"

    def test_edge_that_is_not_a_2_tuple_rejected(self):
        with pytest.raises(ValidationError) as err:
            CausalityGraph(("a", "b"), frozenset(
                {("b",), ("a", "zz"), ("a", "b", "a")}))
        assert type(err.value) is ValidationError
        assert str(err.value) == \
            "causal edge ('a', 'b', 'a') is not a 2-tuple"

    def test_self_edge_rejected(self):
        with pytest.raises(ValidationError):
            CausalityGraph(("x",), frozenset({("x", "x")}))

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(UnknownArgumentError):
            CausalityGraph(("x",), frozenset({("x", "y")}))

    def test_lowest_unknown_edge_named_before_any_self_edge(self):
        with pytest.raises(UnknownArgumentError) as err:
            CausalityGraph(("a", "b", "c"), frozenset(
                {("b", "b"), ("c", "zz"), ("a", "zz"), ("yy", "a")}))
        assert str(err.value) == \
            "causal edge (a,zz) mentions unknown argument 'zz'"

    def test_lowest_self_edge_named_before_any_cycle(self):
        with pytest.raises(ValidationError) as err:
            CausalityGraph(tuple("abcde"), frozenset(
                {("e", "e"), ("c", "c"), ("d", "d"), ("a", "b"), ("b", "a")}))
        assert type(err.value) is ValidationError
        assert str(err.value) == "causal self-edge on 'c'"

    def test_lowest_clashing_attack_named(self):
        graph = CausalityGraph(tuple("abcdef"),
                               frozenset({("f", "e"), ("c", "d"), ("b", "a")}))
        attacks = {("e", "f"), ("c", "d"), ("a", "b")}
        with pytest.raises(ValidationError) as err:
            check_attack_disjointness(graph, attacks)
        assert str(err.value) == "attack (a,b) clashes with a causal edge"

    def test_attack_overlap_rejected_both_directions(self):
        af = ArgumentationFramework(("x", "y"), frozenset({("x", "y")}))
        aligned = CausalityGraph(af.arguments, frozenset({("x", "y")}))
        reversed_ = CausalityGraph(af.arguments, frozenset({("y", "x")}))
        for graph in (aligned, reversed_):
            with pytest.raises(ValidationError):
                check_attack_disjointness(graph, af.attacks)


# Prints the cycle named for 2,000 random cyclic graphs, for the same
# graphs written one statement per line in shuffled order, and for one
# document whose cycle x0 <-> x54 a search in set order may start at either
# node. It catches ValidationError, so it also runs against code without
# CausalCycleError. Then it prints the type and text of the error each
# library validator raises for malformed inputs, most with several faults.
_HASH_SEED_PROBE = r"""
import random
from credalarg import (ArgumentationFramework, CausalityGraph, CredalArgError,
                       CredalProfile, FrameworkDocument, ParseError,
                       ValidationError, check_attack_disjointness, parse_caf)

rng = random.Random(0xC1C)
for _ in range(2000):
    args = [f"x{i}" for i in rng.sample(range(100), rng.randint(2, 9))]
    edges = [(a, b) for a in args for b in args
             if a != b and rng.random() < 0.3]
    ring = rng.sample(args, rng.randint(2, len(args)))
    edges += zip(ring, ring[1:] + ring[:1])
    try:
        CausalityGraph(tuple(args), frozenset(edges))
    except ValidationError as exc:
        print(exc)
    lines = [f"arg({a})." for a in args] + [f"cau({a},{b})." for a, b in edges]
    rng.shuffle(lines)
    try:
        parse_caf("\n".join(lines))
    except ParseError as exc:
        print(exc)
try:
    parse_caf("arg(x0). arg(x20). arg(x54). arg(x55).\n"
              "cau(x20,x55). cau(x54,x0). cau(x0,x20). cau(x0,x54). "
              "cau(x54,x20).\n")
except ParseError as exc:
    print(exc)

args = tuple("abcdefgh")
attacks = frozenset({("e", "f"), ("c", "d"), ("a", "b"), ("g", "h")})
clashing = CausalityGraph(args, frozenset({("f", "e"), ("c", "d"),
                                           ("b", "a")}))
for build in (
        lambda: CausalityGraph(("a", "b", "c"),
                               frozenset({("a", "zz"), ("b", "b")})),
        lambda: CausalityGraph(args, frozenset({("g", "g"), ("c", "c"),
                                                ("e", "e"), ("d", "d")})),
        lambda: ArgumentationFramework(
            ("a", "b"), frozenset({("a", "zz"), ("yy", "b"), ("a", "xx")})),
        lambda: check_attack_disjointness(clashing, attacks),
        lambda: FrameworkDocument(ArgumentationFramework(args, attacks),
                                  CredalProfile.maximal(args, 2), clashing),
        lambda: CausalityGraph(("a", 1)),
        lambda: ArgumentationFramework(("a",), frozenset({("a",)})),
        lambda: CausalityGraph(("a", "b"), frozenset(
            {("b",), ("a", "zz"), ("a", "b", "a"), ("b", "a", "b")}))):
    try:
        build()
    except CredalArgError as exc:
        print(type(exc).__name__, exc)
"""


def test_cycle_names_do_not_depend_on_the_hash_seed():
    src = str(Path(credalarg.__file__).resolve().parent.parent)
    outputs = set()
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", _HASH_SEED_PROBE],
                              env=env, capture_output=True, text=True,
                              check=True)
        outputs.add(done.stdout)
    assert len(outputs) == 1
    lines = outputs.pop().splitlines()
    assert len(lines) == 4009
    assert lines[4000] == "line 2: causal cycle: x0 -> x54 -> x0"
    assert lines[4001:] == [
        "UnknownArgumentError causal edge (a,zz) mentions unknown "
        "argument 'zz'",
        "ValidationError causal self-edge on 'c'",
        "UnknownArgumentError attack (a,xx) mentions unknown argument 'xx'",
        "ValidationError attack (a,b) clashes with a causal edge",
        "ValidationError attack (a,b) clashes with a causal edge",
        "ValidationError invalid argument name: 1",
        "ValidationError attack ('a',) is not a 2-tuple",
        "ValidationError causal edge ('a', 'b', 'a') is not a 2-tuple"]


def _reach(edges, start, forward):
    found, stack = set(), [start]
    while stack:
        node = stack.pop()
        for cause, effect in edges:
            src, dst = (cause, effect) if forward else (effect, cause)
            if src == node and dst not in found:
                found.add(dst)
                stack.append(dst)
    return found


def test_mask_queries_match_a_derivation_from_raw_edges():
    # Every name-level query decodes the closure masks; rebuild each answer
    # from ``edges`` alone and compare, and on random member subsets check
    # each kernel row against the parts cut from ``edges`` alone.
    rng, values = random.Random(0x3A5C), random.Random(0x3A5D)
    graphs = closed = refused = 0
    while graphs < 200:
        af = random_framework(rng, max_args=10, min_args=2)
        graph = random_causality(rng, af, edge_p=rng.choice((0.15, 0.3)))
        if not graph.edges:
            continue
        graphs += 1
        edges = sorted(graph.edges)
        up = {a: _reach(edges, a, forward=False) for a in graph.arguments}
        down = {a: _reach(edges, a, forward=True) for a in graph.arguments}
        closed += any(up.values())
        effects = {b for _, b in edges}
        causes = {a for a, _ in edges}
        assert split(graph)[:2] == (effects, causes)
        for a in graph.arguments:
            assert ancestors(graph, a) == up[a]
            assert descendants(graph, a) == down[a]
        profile = random_profile(values, af)
        for _ in range(5):
            subset = {a for a in graph.arguments if rng.random() < 0.6}
            tops, parts = raw_cut(graph, subset, up)
            assert anchors(graph, subset) == tops
            refused += assert_cut(graph, profile, subset, parts)
    assert closed > 50
    assert 100 < refused < 900
