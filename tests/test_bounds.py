import hashlib
import random
import re
from collections import namedtuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from credalarg import (ArgumentationFramework, CausalityGraph,
                       CoverageError, CredalProfile, CredalSet,
                       ProbabilityInterval, ValidationError,
                       agent_valuation_oracle, dependent_bounds,
                       independent_bounds, parse_caf)
from credalarg.bounds import mask_bounds, rank_key
from credalarg.cli import main
from randgen import (groups_of, kernel_row, mask_of, names_of,
                     random_causality, random_document, random_framework,
                     random_profile)

TOL = 1e-9

CORE = ("C", "D", "E", "F", "G", "H")


def pair(interval):
    return (interval.lower, interval.upper)


class TestCaseDispatch:
    def test_empty_extension_means_ignorance(self, diagnosis):
        row = kernel_row((), diagnosis.profile, diagnosis.causality)
        assert row == (0.0, 1.0, "empty")
        assert groups_of(diagnosis.causality, 0) == ()

    def test_singleton_uses_its_own_credal_set(self, diagnosis):
        row = kernel_row(("A",), diagnosis.profile, diagnosis.causality)
        assert row == (0.2, 0.75, "singleton")

    def test_larger_extensions_run_the_grouping(self, diagnosis):
        row = kernel_row(CORE, diagnosis.profile, diagnosis.causality)
        assert row[2] == "algorithm"
        assert row[0] == pytest.approx(0.0117, abs=TOL)


class TestGrouping:
    def test_accepted_core_parts(self, diagnosis):
        graph = diagnosis.causality
        row = kernel_row(CORE, diagnosis.profile, graph)
        assert groups_of(graph, mask_of(graph, CORE)) == (("G", ("G", "H")),)
        assert row[0] == pytest.approx(0.0117, abs=TOL)
        assert row[1] == pytest.approx(0.088, abs=TOL)

    def test_pure_group_takes_the_dependent_rule(self, diagnosis):
        graph = diagnosis.causality
        row = kernel_row(("G", "H"), diagnosis.profile, graph)
        assert row[:2] == (0.7, 1.0)
        assert groups_of(graph, mask_of(graph, ("G", "H"))) == \
            (("G", ("G", "H")),)

    def test_two_isolated_believers_multiply_to_one(self):
        graph = CausalityGraph(("x", "y"))
        profile = CredalProfile.maximal(("x", "y"), 2)
        assert kernel_row(("x", "y"), profile, graph)[:2] == (1.0, 1.0)

    def test_empty_causal_graph_degenerates_to_the_product_rule(self):
        rng = random.Random(5)
        af = ArgumentationFramework(tuple(f"n{i}" for i in range(5)))
        graph = CausalityGraph(af.arguments)
        profile = random_profile(rng, af)
        expected = independent_bounds(
            [profile.credal_set(a) for a in af.arguments])
        got = kernel_row(af.arguments, profile, graph)
        assert got[0] == pytest.approx(expected.lower, abs=TOL)
        assert got[1] == pytest.approx(expected.upper, abs=TOL)

    def test_domain_mismatch_rejected(self, diagnosis):
        profile = CredalProfile.of({"A": [0.5]})
        with pytest.raises(ValidationError):
            agent_valuation_oracle(("A", "E"), profile, diagnosis.causality)

    def test_graph_domain_mismatch_rejected(self):
        profile = CredalProfile.of({"x": [0.5], "y": [0.5]})
        graph = CausalityGraph(("x",))
        for members in (("y",), ("x", "y")):
            with pytest.raises(ValidationError,
                               match="causality graph has no argument 'y'"):
                agent_valuation_oracle(members, profile, graph)


class TestCoverage:
    # x -> y -> z with y outside: x lands in z's group via the transitive
    # closure AND counts as free (its direct effect is outside), so the
    # grouping must refuse
    CHAIN = CausalityGraph(("x", "y", "z"),
                           frozenset({("x", "y"), ("y", "z")}))
    CHAIN_PROFILE = CredalProfile.of({"x": [0.5], "y": [0.5], "z": [0.5]})

    FORK = CausalityGraph(("s", "t1", "t2"),
                          frozenset({("s", "t1"), ("s", "t2")}))
    FORK_PROFILE = CredalProfile.of({"s": [0.5], "t1": [0.5], "t2": [0.5]})

    def test_double_consumption_raises(self):
        assert kernel_row(("x", "z"), self.CHAIN_PROFILE, self.CHAIN) == \
            "member 'x' consumed 2 times by the causal grouping"

    def test_oracle_raises_the_same_way(self):
        with pytest.raises(CoverageError):
            agent_valuation_oracle(("x", "z"), self.CHAIN_PROFILE, self.CHAIN)

    def test_overlapping_groups_raise(self):
        assert kernel_row(("s", "t1", "t2"), self.FORK_PROFILE,
                          self.FORK) == \
            "causal groups anchored at 't1' and 't2' overlap on 's'"
        with pytest.raises(CoverageError):
            agent_valuation_oracle(("s", "t1", "t2"), self.FORK_PROFILE,
                                   self.FORK)

    def test_full_chain_is_fine(self):
        row = kernel_row(("x", "y", "z"), self.CHAIN_PROFILE, self.CHAIN)
        assert row[:2] == (0.5, 0.5)

    # a -> b, c -> d and x -> y <- z; two agents, valuing v and 1 - v
    EDGES = CausalityGraph(("a", "b", "c", "d", "x", "y", "z"), frozenset(
        {("a", "b"), ("c", "d"), ("x", "y"), ("z", "y")}))
    VALUES = {"a": 0.5, "b": 0.25, "c": 0.75, "d": 0.625, "x": 0.375,
              "y": 0.875, "z": 0.125}
    EDGES_PROFILE = CredalProfile.of(
        {name: [value, 1 - value] for name, value in VALUES.items()})

    @pytest.mark.parametrize("member", ["a", "b", "y"])
    def test_single_member_is_its_own_credal_set(self, member):
        value = self.VALUES[member]
        assert kernel_row((member,), self.EDGES_PROFILE, self.EDGES) == \
            (min(value, 1 - value), max(value, 1 - value), "singleton")

    @pytest.mark.parametrize("members", [
        ("a", "d"), ("b", "d"), ("a", "c"), ("a", "d", "x", "z")],
        ids=["free cause and lone effect", "lone effects", "free causes",
             "causes of a shared effect outside"])
    def test_members_with_no_ancestor_among_them_multiply(self, members):
        # each member is a part of its own, though each has a causal edge:
        # the product of their rows in sorted order
        rows = [(self.VALUES[m], 1 - self.VALUES[m]) for m in members]
        products = [1.0, 1.0]
        for row in rows:
            products = [p * v for p, v in zip(products, row)]
        assert kernel_row(members, self.EDGES_PROFILE, self.EDGES) == \
            (min(products), max(products), "algorithm")


class TestOracle:
    def test_singleton_matches_the_credal_set(self, diagnosis):
        interval = agent_valuation_oracle(("A",), diagnosis.profile,
                                          diagnosis.causality)
        assert pair(interval) == (0.2, 0.75)

    def test_accepted_core(self, diagnosis):
        interval = agent_valuation_oracle(CORE, diagnosis.profile,
                                          diagnosis.causality)
        assert interval.lower == pytest.approx(0.0117, abs=TOL)
        assert interval.upper == pytest.approx(0.088, abs=TOL)

    def test_group_only_set(self, diagnosis):
        interval = agent_valuation_oracle(("G", "H"), diagnosis.profile,
                                          diagnosis.causality)
        assert pair(interval) == (0.7, 1.0)

    def test_rejects_empty_input(self, diagnosis):
        with pytest.raises(ValidationError):
            agent_valuation_oracle((), diagnosis.profile, diagnosis.causality)


# the two ways a named set reaches the bounds: the framework's member
# check, which gives the kernel its mask, and the oracle
NAMED_SET_CHECKS = {
    "extension_mask": lambda members, doc: doc.framework.extension_mask(
        members),
    "agent_valuation_oracle": lambda members, doc: agent_valuation_oracle(
        members, doc.profile, doc.causality),
}


@pytest.mark.parametrize("check", NAMED_SET_CHECKS.values(),
                         ids=NAMED_SET_CHECKS)
def test_non_string_member_is_a_validation_error(check, diagnosis):
    with pytest.raises(ValidationError) as info:
        check(["A", 1], diagnosis)
    assert str(info.value) == "invalid argument name: 1"


@pytest.mark.parametrize("check", NAMED_SET_CHECKS.values(),
                         ids=NAMED_SET_CHECKS)
def test_string_is_not_a_member_list(check, diagnosis):
    # "GH" would otherwise be read as {G,H}, which both accept
    with pytest.raises(ValidationError) as info:
        check("GH", diagnosis)
    assert str(info.value) == \
        "members must be a collection of names, not the string 'GH'"


def _ranked(*rows):
    """``(lower, upper, members)`` rows in the order of ``rank``."""
    return sorted(rows, key=lambda row: rank_key(*row))


class TestRanking:
    def test_strict_dominance_wins(self):
        strong = (0.2, 0.75, ("a",))
        weak = (0.02, 0.1875, ("b",))
        assert _ranked(weak, strong) == [strong, weak]

    def test_equal_intervals_fall_back_to_members(self):
        first = (0.3, 0.6, ("a", "c"))
        second = (0.3, 0.6, ("a", "d"))
        assert _ranked(second, first) == [first, second]

    def test_midpoint_breaks_incomparable_intervals(self):
        wide = (0.1, 0.9, ("w",))    # midpoint 0.5
        narrow = (0.3, 0.5, ("n",))  # midpoint 0.4
        assert _ranked(narrow, wide) == [wide, narrow]


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_grouping_agrees_with_the_per_agent_oracle(seed):
    rng = random.Random(seed)
    af = random_framework(rng, max_args=8)
    graph = random_causality(rng, af)
    profile = random_profile(rng, af, agent_count=rng.randint(1, 4))
    for ext in af.enumerate_extensions("conflict-free"):
        if not ext:
            continue
        got = kernel_row(ext, profile, graph)
        try:
            expected = agent_valuation_oracle(ext, profile, graph)
        except CoverageError:
            assert isinstance(got, str), ext
            continue
        assert got[0] == pytest.approx(expected.lower, abs=TOL)
        assert got[1] == pytest.approx(expected.upper, abs=TOL)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_mask_core_matches_the_wrapper_and_the_oracle(seed):
    # every conflict-free set of a random document with causal edges, the
    # empty set and the singletons included, in one call of the core
    doc = random_document(random.Random(seed), max_args=9)
    assume(doc.causality.edges)
    graph, profile = doc.causality, doc.profile
    masks = doc.framework.extension_masks("conflict-free")
    names_of = doc.framework.row_decoder(masks)
    results = list(mask_bounds(graph, profile.rows, masks))
    assert masks[0] == 0 and results[0] == (0.0, 1.0, "empty")
    for names, got in zip(map(names_of, masks), results):
        # one call a row, so its group minima are computed afresh
        assert repr(got) == repr(kernel_row(names, profile, graph))
        if not names:
            continue
        try:
            oracle = agent_valuation_oracle(names, profile, graph)
        except CoverageError:
            assert isinstance(got, str), names
        else:
            # the oracle folds the same parts in the same sorted order from
            # 1.0, so the kernel must agree with it bit for bit
            assert not isinstance(got, str), names
            assert got[:2] == (oracle.lower, oracle.upper), names


def test_mask_core_refuses_rows_outside_the_unit_interval():
    # value rows are trusted, but an interval the kernel yields is checked
    graph = CausalityGraph(("a",), frozenset())
    with pytest.raises(ValidationError) as info:
        list(mask_bounds(graph, [(1.5,)], [1]))
    assert str(info.value) == "not a probability interval: (1.5, 1.5)"


def test_bounds_survive_argument_relabeling():
    rng = random.Random(0xC0FFEE)
    for _ in range(25):
        af = random_framework(rng, max_args=7)
        graph = random_causality(rng, af)
        profile = random_profile(rng, af, agent_count=3)
        mapping = dict(zip(af.arguments,
                           rng.sample([f"r{i}" for i in range(20)],
                                      len(af.arguments))))
        af2 = type(af)(tuple(mapping.values()),
                       frozenset((mapping[a], mapping[b])
                                 for a, b in af.attacks))
        graph2 = CausalityGraph(af2.arguments,
                                frozenset((mapping[a], mapping[b])
                                          for a, b in graph.edges))
        profile2 = CredalProfile(profile.agent_count,
                                 {mapping[a]: profile.credal_set(a)
                                  for a in profile.arguments})
        for ext in af.enumerate_extensions("conflict-free"):
            renamed = tuple(sorted(mapping[a] for a in ext))
            original = kernel_row(ext, profile, graph)
            mirrored = kernel_row(renamed, profile2, graph2)
            if isinstance(original, str):
                assert isinstance(mirrored, str), renamed
                continue
            assert mirrored[0] == pytest.approx(original[0], abs=TOL)
            assert mirrored[1] == pytest.approx(original[1], abs=TOL)


def test_agent_subset_bounds_stay_within_the_full_range():
    rng = random.Random(0xDA7A)
    for _ in range(25):
        af = random_framework(rng, max_args=6)
        graph = random_causality(rng, af)
        m = rng.randint(2, 5)
        profile = random_profile(rng, af, agent_count=m)
        keep = sorted(rng.sample(range(m), rng.randint(1, m - 1)))
        smaller = CredalProfile(len(keep), {
            a: CredalSet(tuple(row[j] for j in keep))
            for a, row in zip(profile.arguments, profile.rows)})
        for ext in af.enumerate_extensions("conflict-free"):
            if not ext:
                continue
            full = kernel_row(ext, profile, graph)
            part = kernel_row(ext, smaller, graph)
            if isinstance(full, str) or isinstance(part, str):
                continue
            assert part[0] >= full[0] - TOL
            assert part[1] <= full[1] + TOL


def test_lone_group_product_equals_the_dependent_rule_exactly():
    # An extension that is one causal group and nothing else goes through
    # the same sorted-factor product as every other extension; a product of
    # one factor must be that group's dependent bounds bit for bit.
    rng = random.Random(0x1D)
    lone = 0
    for _ in range(200):
        doc = random_document(rng)
        for ext in doc.framework.enumerate_extensions("conflict-free"):
            if len(ext) < 2:
                continue
            row = kernel_row(ext, doc.profile, doc.causality)
            if isinstance(row, str):
                continue
            groups = groups_of(doc.causality,
                               mask_of(doc.causality, ext))
            if len(groups) != 1 or groups[0][1] != ext:
                continue
            lone += 1
            expected = dependent_bounds(
                [doc.profile.credal_set(n) for n in ext])
            assert row[:2] == (expected.lower, expected.upper)
    assert lone > 50


def test_large_grounded_set_matches_the_oracle():
    # No attack reaches the chains, isolated arguments or free causes, so
    # the grounded extension holds 2,300 members: 300 four-link causal
    # chains (one group each), 500 isolated arguments, and 300 causes whose
    # only effect is defeated by an unattacked, isolated argument.
    rng = random.Random(0x2000)
    chains = [[f"c{i}_{k}" for k in range(4)] for i in range(300)]
    isolated = [f"i{i}" for i in range(500)]
    free = [(f"f{i}", f"t{i}", f"u{i}") for i in range(300)]
    edges = {(c[k], c[k + 1]) for c in chains for k in range(3)}
    edges |= {(f, t) for f, t, _ in free}
    args = [a for c in chains for a in c] + isolated + \
        [a for triple in free for a in triple]
    af = ArgumentationFramework(args, frozenset((u, t) for _, t, u in free))
    graph = CausalityGraph(af.arguments, frozenset(edges))
    # opinions near 1, so a product of 1,400 factors does not underflow
    profile = CredalProfile.of(
        {a: [1.0 - rng.random() * 1e-3 for _ in range(4)] for a in args})
    [ext] = af.enumerate_extensions("grounded")
    assert len(ext) == 2300
    lower, upper, _ = kernel_row(ext, profile, graph)
    assert len(groups_of(graph, mask_of(graph, ext))) == 300
    expected = agent_valuation_oracle(ext, profile, graph)
    assert abs(lower - expected.lower) <= 1e-12
    assert abs(upper - expected.upper) <= 1e-12
    assert 0.0 < lower < upper < 1.0


@pytest.fixture
def credal_sets_made(monkeypatch):
    """The values of every ``CredalSet`` made from a row from now on."""
    made = []
    trusted = CredalSet._trusted.__func__

    def counted(cls, values):
        made.append(values)
        return trusted(cls, values)

    monkeypatch.setattr(CredalSet, "_trusted", classmethod(counted))
    return made


def test_oracle_makes_no_credal_set_beyond_its_members(credal_sets_made):
    # a singleton of a loaded 4,000-argument document: the oracle checks
    # its member against the profile and reads its values from its row
    names = [f"a{i:04d}" for i in range(4000)]
    doc = parse_caf("".join(f"arg({n}).\n" for n in names) + "agents(2).\n"
                    + "".join(f"p({j},{n},0.5).\n"
                              for j in (1, 2) for n in names))
    interval = agent_valuation_oracle(("a1234",), doc.profile, doc.causality)
    assert pair(interval) == (0.5, 0.5)
    assert not credal_sets_made


def test_oracle_command_makes_no_credal_set(credal_sets_made, capsys,
                                            diagnosis_caf):
    # every conflict-free set of the diagnosis document, each row checked
    # by the oracle
    assert main(["bounds", "--input", diagnosis_caf, "--semantics", "cf",
                 "--oracle"]) == 0
    out = capsys.readouterr().out
    assert out.count(" ok\n") > 30 and "MISMATCH" not in out
    assert not credal_sets_made


# SHA-256 of the sweep below, recorded before the grouping was compiled to
# bitmasks; any change to an interval, a group or a refusal text moves it
SWEEP_DIGEST = \
    "c7eef406abd460c3d236a7cf1f396906ac73a25f0576a3d2b1a4a4452228efc7"

# the text each group had in the recorded lines: the repr of the group
# record the library returned then, which the row pipeline does not build
RecordedGroup = namedtuple("CausalGroup", "top members")


def test_oracle_sweep_is_bit_for_bit_frozen():
    # criterion 7's generator: every conflict-free set of 1,000 random
    # (framework, causality, profile) triples, hashed by the repr of its
    # interval and groups (none for the empty set and a singleton), or by
    # its refusal text
    rng = random.Random(0x73)
    digest = hashlib.sha256()
    extensions = refused = 0
    for _ in range(1000):
        af = random_framework(rng, max_args=10)
        graph = random_causality(rng, af)
        profile = random_profile(rng, af, agent_count=rng.randint(1, 5))
        for ext in af.enumerate_extensions("conflict-free"):
            row = kernel_row(ext, profile, graph)
            if isinstance(row, str):
                line = f"{ext!r} refused {row}"
                refused += 1
            else:
                groups = () if row[2] != "algorithm" else tuple(
                    RecordedGroup(*group) for group in
                    groups_of(graph, mask_of(graph, ext)))
                line = f"{ext!r} {ProbabilityInterval(*row[:2])!r} " \
                       f"{groups!r}"
            extensions += 1
            digest.update(line.encode() + b"\n")
    assert (extensions, refused) == (17905, 1376)
    assert digest.hexdigest() == SWEEP_DIGEST


def _subset_rows():
    # (graph, mask, row) of every subset of 300 seeded random documents
    # with causal edges, of 1-9 arguments, in one kernel call a document
    rng = random.Random(0xC07)
    docs = 0
    while docs < 300:
        doc = random_document(rng, max_args=rng.randint(1, 9))
        if not doc.causality.edges:
            continue
        docs += 1
        masks = range(1 << len(doc.framework.arguments))
        for mask, row in zip(masks, mask_bounds(
                doc.causality, doc.profile.rows, masks)):
            yield doc.causality, mask, row


def _refusal_kinds(graph, mask) -> tuple[bool, bool]:
    # (overlap, consumed twice), read off the anchors' groups and the raw
    # edges: groups sharing a member overlap; a grouped member that is no
    # anchor and has no edge to a member is a free cause as well
    names = names_of(graph, mask)
    groups = groups_of(graph, mask)
    sets = [set(members) for _, members in groups]
    grouped = set().union(*sets) - {anchor for anchor, _ in groups}
    return (any(a & b for i, a in enumerate(sets) for b in sets[:i]),
            any(not any((m, e) in graph.edges for e in names)
                for m in grouped))


def test_every_refusal_is_an_overlap_or_a_double_consumption():
    kinds = {}
    for graph, mask, row in _subset_rows():
        overlap, consumed = kind = _refusal_kinds(graph, mask)
        kinds[kind] = kinds.get(kind, 0) + 1
        if overlap:  # overlap wins when a row has both
            assert re.fullmatch("causal groups anchored at '\\w+' and "
                                "'\\w+' overlap on '\\w+'", row), row
        elif consumed:
            assert re.fullmatch("member '\\w+' consumed 2 times by the "
                                "causal grouping", row), row
        else:
            assert not isinstance(row, str), row
    assert kinds == KERNEL_KINDS


# the refusal kinds and the rows of _subset_rows, frozen: a new cut of the
# kernel must give every row, refusal text included, unchanged
KERNEL_KINDS = {(False, False): 16920, (True, False): 1402,
                (False, True): 1825, (True, True): 265}
KERNEL_DIGEST = \
    "0da3eac84c42192ac175e9e08d4722dc4fad9ca13369a0b5dfe83d1c6ee57ad5"


def test_subset_rows_are_frozen():
    digest = hashlib.sha256()
    for _, mask, row in _subset_rows():
        digest.update(repr((mask, row)).encode() + b"\n")
    assert digest.hexdigest() == KERNEL_DIGEST
