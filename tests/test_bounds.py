import hashlib
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from credalarg import (ArgumentationFramework, CausalGroup, CausalityGraph,
                       CoverageError, CredalProfile, CredalSet, Extension,
                       ProbabilityInterval, ValidationError,
                       agent_valuation_oracle, dependent_bounds,
                       extension_bounds, independent_bounds, rank_extensions)
from credalarg.bounds import BoundsResult, mask_bounds
from randgen import (random_causality, random_document, random_framework,
                     random_profile)

TOL = 1e-9

CORE = ("C", "D", "E", "F", "G", "H")


def pair(interval):
    return (interval.lower, interval.upper)


class TestCaseDispatch:
    def test_empty_extension_means_ignorance(self, diagnosis):
        result = extension_bounds((), diagnosis.profile, diagnosis.causality)
        assert result.case == "empty"
        assert pair(result.interval) == (0.0, 1.0)
        assert result.groups == ()

    def test_singleton_uses_its_own_credal_set(self, diagnosis):
        result = extension_bounds(("A",), diagnosis.profile,
                                  diagnosis.causality)
        assert result.case == "singleton"
        assert pair(result.interval) == (0.2, 0.75)

    def test_larger_extensions_run_the_grouping(self, diagnosis):
        result = extension_bounds(CORE, diagnosis.profile,
                                  diagnosis.causality)
        assert result.case == "algorithm"
        assert result.interval.lower == pytest.approx(0.0117, abs=TOL)


class TestGrouping:
    def test_accepted_core_parts(self, diagnosis):
        result = extension_bounds(CORE, diagnosis.profile, diagnosis.causality)
        assert result.groups == (CausalGroup("G", ("G", "H")),)
        assert result.interval.lower == pytest.approx(0.0117, abs=TOL)
        assert result.interval.upper == pytest.approx(0.088, abs=TOL)

    def test_pure_group_takes_the_dependent_rule(self, diagnosis):
        result = extension_bounds(("G", "H"), diagnosis.profile,
                                  diagnosis.causality)
        assert pair(result.interval) == (0.7, 1.0)
        assert result.groups == (CausalGroup("G", ("G", "H")),)

    def test_two_isolated_believers_multiply_to_one(self):
        graph = CausalityGraph(("x", "y"))
        profile = CredalProfile.maximal(("x", "y"), 2)
        result = extension_bounds(("x", "y"), profile, graph)
        assert pair(result.interval) == (1.0, 1.0)

    def test_empty_causal_graph_degenerates_to_the_product_rule(self):
        rng = random.Random(5)
        af = ArgumentationFramework(tuple(f"n{i}" for i in range(5)))
        graph = CausalityGraph(af.arguments)
        profile = random_profile(rng, af)
        expected = independent_bounds(
            [profile.credal_set(a) for a in af.arguments])
        got = extension_bounds(af.arguments, profile, graph)
        assert got.interval.lower == pytest.approx(expected.lower, abs=TOL)
        assert got.interval.upper == pytest.approx(expected.upper, abs=TOL)

    def test_domain_mismatch_rejected(self, diagnosis):
        profile = CredalProfile.of({"A": [0.5]})
        with pytest.raises(ValidationError):
            extension_bounds(("A", "E"), profile, diagnosis.causality)

    def test_graph_domain_mismatch_rejected(self):
        profile = CredalProfile.of({"x": [0.5], "y": [0.5]})
        graph = CausalityGraph(("x",))
        for members in (("y",), ("x", "y")):
            with pytest.raises(ValidationError,
                               match="causality graph has no argument 'y'"):
                extension_bounds(members, profile, graph)


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
        with pytest.raises(CoverageError):
            extension_bounds(("x", "z"), self.CHAIN_PROFILE, self.CHAIN)

    def test_oracle_raises_the_same_way(self):
        with pytest.raises(CoverageError):
            agent_valuation_oracle(("x", "z"), self.CHAIN_PROFILE, self.CHAIN)

    def test_overlapping_groups_raise(self):
        with pytest.raises(CoverageError):
            extension_bounds(("s", "t1", "t2"), self.FORK_PROFILE, self.FORK)
        with pytest.raises(CoverageError):
            agent_valuation_oracle(("s", "t1", "t2"), self.FORK_PROFILE,
                                   self.FORK)

    def test_full_chain_is_fine(self):
        result = extension_bounds(("x", "y", "z"), self.CHAIN_PROFILE,
                                  self.CHAIN)
        assert pair(result.interval) == (0.5, 0.5)


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


@pytest.mark.parametrize("bounds", [extension_bounds, agent_valuation_oracle])
def test_non_string_member_is_a_validation_error(bounds, diagnosis):
    with pytest.raises(ValidationError) as info:
        bounds(["A", 1], diagnosis.profile, diagnosis.causality)
    assert str(info.value) == "invalid argument name: 1"


@pytest.mark.parametrize("bounds", [extension_bounds, agent_valuation_oracle])
def test_string_is_not_a_member_list(bounds, diagnosis):
    # "GH" would otherwise be read as {G,H}, which both accept
    with pytest.raises(ValidationError) as info:
        bounds("GH", diagnosis.profile, diagnosis.causality)
    assert str(info.value) == \
        "members must be a collection of names, not the string 'GH'"


def _result(members, lower, upper):
    return BoundsResult(Extension(members),
                        ProbabilityInterval(lower, upper), "algorithm")


class TestRanking:
    def test_strict_dominance_wins(self):
        strong = _result(("a",), 0.2, 0.75)
        weak = _result(("b",), 0.02, 0.1875)
        assert rank_extensions([weak, strong]) == [strong, weak]

    def test_equal_intervals_fall_back_to_members(self):
        first = _result(("a", "c"), 0.3, 0.6)
        second = _result(("a", "d"), 0.3, 0.6)
        assert rank_extensions([second, first]) == [first, second]

    def test_midpoint_breaks_incomparable_intervals(self):
        wide = _result(("w",), 0.1, 0.9)    # midpoint 0.5
        narrow = _result(("n",), 0.3, 0.5)  # midpoint 0.4
        assert rank_extensions([narrow, wide]) == [wide, narrow]


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_grouping_agrees_with_the_per_agent_oracle(seed):
    rng = random.Random(seed)
    af = random_framework(rng, max_args=8)
    graph = random_causality(rng, af)
    profile = random_profile(rng, af, agent_count=rng.randint(1, 4))
    for ext in af.enumerate_extensions("conflict-free"):
        if not ext.members:
            continue
        try:
            expected = agent_valuation_oracle(ext, profile, graph)
        except CoverageError:
            with pytest.raises(CoverageError):
                extension_bounds(ext, profile, graph)
            continue
        got = extension_bounds(ext, profile, graph).interval
        assert got.lower == pytest.approx(expected.lower, abs=TOL)
        assert got.upper == pytest.approx(expected.upper, abs=TOL)


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
        try:
            result = extension_bounds(names, profile, graph)
        except CoverageError as exc:
            assert got == str(exc)
        else:
            assert repr(got) == repr((result.interval.lower,
                                      result.interval.upper, result.case))
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
                                 {mapping[a]: k
                                  for a, k in profile.assignment.items()})
        for ext in af.enumerate_extensions("conflict-free"):
            renamed = tuple(sorted(mapping[a] for a in ext.members))
            try:
                original = extension_bounds(ext, profile, graph)
            except CoverageError:
                with pytest.raises(CoverageError):
                    extension_bounds(renamed, profile2, graph2)
                continue
            mirrored = extension_bounds(renamed, profile2, graph2)
            assert mirrored.interval.lower == \
                pytest.approx(original.interval.lower, abs=TOL)
            assert mirrored.interval.upper == \
                pytest.approx(original.interval.upper, abs=TOL)


def test_agent_subset_bounds_stay_within_the_full_range():
    rng = random.Random(0xDA7A)
    for _ in range(25):
        af = random_framework(rng, max_args=6)
        graph = random_causality(rng, af)
        m = rng.randint(2, 5)
        profile = random_profile(rng, af, agent_count=m)
        keep = sorted(rng.sample(range(m), rng.randint(1, m - 1)))
        smaller = CredalProfile(len(keep), {
            a: CredalSet(tuple(k.values[j] for j in keep))
            for a, k in profile.assignment.items()})
        for ext in af.enumerate_extensions("conflict-free"):
            if not ext.members:
                continue
            try:
                full = extension_bounds(ext, profile, graph).interval
                part = extension_bounds(ext, smaller, graph).interval
            except CoverageError:
                continue
            assert part.lower >= full.lower - TOL
            assert part.upper <= full.upper + TOL


def test_lone_group_product_equals_the_dependent_rule_exactly():
    # An extension that is one causal group and nothing else goes through
    # the same sorted-factor product as every other extension; a product of
    # one factor must be that group's dependent bounds bit for bit.
    rng = random.Random(0x1D)
    lone = 0
    for _ in range(200):
        doc = random_document(rng)
        for ext in doc.framework.enumerate_extensions("conflict-free"):
            if len(ext.members) < 2:
                continue
            try:
                result = extension_bounds(ext, doc.profile, doc.causality)
            except CoverageError:
                continue
            if (len(result.groups) != 1
                    or result.groups[0].members != ext.members):
                continue
            lone += 1
            expected = dependent_bounds(
                [doc.profile.credal_set(n) for n in ext.members])
            assert result.interval == expected
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
    assert len(ext.members) == 2300
    result = extension_bounds(ext, profile, graph)
    assert len(result.groups) == 300
    expected = agent_valuation_oracle(ext, profile, graph)
    assert abs(result.interval.lower - expected.lower) <= 1e-12
    assert abs(result.interval.upper - expected.upper) <= 1e-12
    assert 0.0 < result.interval.lower < result.interval.upper < 1.0


# SHA-256 of the sweep below, recorded before the grouping was compiled to
# bitmasks; any change to an interval, a group or a refusal text moves it
SWEEP_DIGEST = \
    "c7eef406abd460c3d236a7cf1f396906ac73a25f0576a3d2b1a4a4452228efc7"


def test_oracle_sweep_is_bit_for_bit_frozen():
    # criterion 7's generator: every conflict-free set of 1,000 random
    # (framework, causality, profile) triples, hashed by the repr of its
    # interval and groups, or by the text of its CoverageError
    rng = random.Random(0x73)
    digest = hashlib.sha256()
    extensions = refused = 0
    for _ in range(1000):
        af = random_framework(rng, max_args=10)
        graph = random_causality(rng, af)
        profile = random_profile(rng, af, agent_count=rng.randint(1, 5))
        for ext in af.enumerate_extensions("conflict-free"):
            try:
                result = extension_bounds(ext, profile, graph)
                line = f"{ext.members!r} {result.interval!r} " \
                       f"{result.groups!r}"
            except CoverageError as exc:
                line = f"{ext.members!r} refused {exc}"
                refused += 1
            extensions += 1
            digest.update(line.encode() + b"\n")
    assert (extensions, refused) == (17905, 1376)
    assert digest.hexdigest() == SWEEP_DIGEST
