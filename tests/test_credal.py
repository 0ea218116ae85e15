import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import credalarg
from credalarg import (ArgumentationFramework, CredalProfile, CredalSet,
                       CredalSetError, ProbabilityInterval, ValidationError,
                       dependent_bounds, independent_bounds, is_maximal,
                       rationality_rows)
from credalarg.credal import agent_minimum
from randgen import random_framework, random_profile

TOL = 1e-9

# three-event table used throughout: columns are events, rows are agents
EVENT_1 = CredalSet((0.3, 0.6, 0.45))
EVENT_2 = CredalSet((0.5, 0.7, 0.65))
EVENT_3 = CredalSet((0.75, 0.55, 0.8))

_unit = st.floats(min_value=0.0, max_value=1.0,
                  allow_nan=False, allow_infinity=False)


@st.composite
def credal_batches(draw, max_events=5, max_agents=5):
    agents = draw(st.integers(1, max_agents))
    events = draw(st.integers(1, max_events))
    rows = draw(st.lists(
        st.lists(_unit, min_size=agents, max_size=agents),
        min_size=events, max_size=events))
    return [CredalSet(tuple(row)) for row in rows]


def as_pair(interval):
    return (interval.lower, interval.upper)


def dependent_set(ks):
    """The per-agent minimum of ``ks`` as a credal set."""
    return CredalSet(agent_minimum([k.values for k in ks]))


class TestSingleBounds:
    def test_four_agent_set(self):
        assert as_pair(independent_bounds(
            [CredalSet((0.2, 0.7, 0.55, 0.75))])) == (0.2, 0.75)

    def test_singleton_collapses(self):
        interval = independent_bounds([CredalSet((0.5,))])
        assert interval.lower == interval.upper == 0.5

    def test_first_event_column(self):
        assert as_pair(independent_bounds([EVENT_1])) == (0.3, 0.6)


class TestIndependentBounds:
    def test_three_event_table(self):
        interval = independent_bounds([EVENT_1, EVENT_2, EVENT_3])
        assert interval.lower == pytest.approx(0.1125, abs=TOL)
        assert interval.upper == pytest.approx(0.234, abs=TOL)

    def test_single_factor_gives_the_set_s_min_and_max(self):
        assert independent_bounds([EVENT_2]) == \
            ProbabilityInterval(min(EVENT_2.values), max(EVENT_2.values))

    def test_all_ones_stay_at_one(self):
        ones = CredalSet((1.0, 1.0))
        interval = independent_bounds([ones, ones, ones])
        assert (interval.lower, interval.upper) == (1.0, 1.0)

    def test_mismatched_cardinality_rejected(self):
        for rule in (independent_bounds, dependent_bounds):
            with pytest.raises(CredalSetError) as info:
                rule([EVENT_1, CredalSet((0.5,))])
            assert str(info.value) == \
                "mismatched credal set cardinalities: 1 vs 3"

    def test_empty_list_rejected(self):
        for rule in (independent_bounds, dependent_bounds):
            with pytest.raises(CredalSetError) as info:
                rule([])
            assert str(info.value) == "need at least one credal set"


def test_agent_product_folds_a_deep_row_list_without_overflow():
    # a chain of lazy maps this deep nests one C call per row and crashes
    # the interpreter, so the fold runs in its own process
    src = str(Path(credalarg.__file__).resolve().parent.parent)
    probe = ("from credalarg.credal import agent_product\n"
             "p = agent_product([(0.5, 1.0)] * 200_000)\n"
             "print(min(p), max(p))\n")
    done = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, "0.0 1.0\n"), done.stderr


class TestDependentAggregation:
    def test_three_event_joint_set(self):
        joint = dependent_set([EVENT_1, EVENT_2, EVENT_3])
        assert joint.values == pytest.approx((0.3, 0.55, 0.45))

    def test_single_input_is_identity(self):
        assert dependent_set([EVENT_3]) == EVENT_3

    def test_diagnosis_group_columns(self, diagnosis):
        joint = dependent_set([diagnosis.profile.credal_set("G"),
                               diagnosis.profile.credal_set("H")])
        assert joint.values == (0.7, 0.8, 1.0, 0.9)

    def test_three_event_bounds(self):
        assert as_pair(dependent_bounds([EVENT_1, EVENT_2, EVENT_3])) == \
            pytest.approx((0.3, 0.55), abs=TOL)

    def test_group_bounds(self, diagnosis):
        interval = dependent_bounds([diagnosis.profile.credal_set("G"),
                                     diagnosis.profile.credal_set("H")])
        assert (interval.lower, interval.upper) == (0.7, 1.0)

    def test_identical_sets_collapse_to_one_set(self):
        assert dependent_bounds([EVENT_1, EVENT_1]) == \
            independent_bounds([EVENT_1])


class TestValidation:
    def test_empty_credal_set_rejected(self):
        with pytest.raises(CredalSetError):
            CredalSet(())

    def test_out_of_range_opinion_rejected(self):
        with pytest.raises(CredalSetError):
            CredalSet((1.3,))
        with pytest.raises(CredalSetError):
            CredalSet((-0.1,))

    @pytest.mark.parametrize("values, message", [
        (("x",), "opinion 'x' outside [0, 1]"),
        ((None,), "opinion None outside [0, 1]"),
        # the first offender in agent order, numeric or not
        ((0.5, None, 2, "x"), "opinion None outside [0, 1]"),
        ((0.5, 2, "x"), "opinion 2.0 outside [0, 1]"),
    ])
    def test_non_numeric_opinion_is_a_credal_set_error(self, values,
                                                       message):
        with pytest.raises(CredalSetError) as info:
            CredalSet(values)
        assert str(info.value) == message
        with pytest.raises(CredalSetError) as info:
            CredalProfile.of({"b": [0.5] * len(values), "a": list(values)})
        assert str(info.value) == message

    def test_profile_requires_equal_lengths(self):
        with pytest.raises(CredalSetError):
            CredalProfile(2, {"a": CredalSet((0.5, 0.5)),
                              "b": CredalSet((0.5,))})

    def test_huge_agent_count_rejected_before_allocation(self):
        # 10**19 does not fit an index-sized integer: allocating first
        # would end in an untyped OverflowError
        with pytest.raises(CredalSetError, match="agent count must be <="):
            CredalProfile.maximal(["a"], 10**19)
        with pytest.raises(CredalSetError, match="agent count must be <="):
            CredalProfile(10**19, {})

    def test_agent_count_below_one_rejected(self):
        with pytest.raises(CredalSetError, match="agent count must be >= 1"):
            CredalProfile(0, {})
        # an empty table has nothing to infer the count from
        assert CredalProfile.of({}) == CredalProfile(1, {})

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValidationError) as info:
            ProbabilityInterval(0.6, 0.4)
        assert str(info.value) == "not a probability interval: (0.6, 0.4)"

    def test_profile_lookup_miss(self):
        profile = CredalProfile.of({"a": [0.5]})
        with pytest.raises(ValidationError):
            profile.credal_set("b")


class TestRationality:
    def test_diagnosis_violations(self, diagnosis):
        report = rationality_rows(diagnosis.profile, diagnosis.framework)
        assert (1, "D", "B", 0.75, 0.8) in report
        assert [row[:3] for row in report] == \
            [(1, "D", "B"), (1, "F", "B"), (2, "C", "A")]

    def test_low_opinions_never_fire(self):
        af = ArgumentationFramework(("a", "b"), frozenset({("a", "b")}))
        profile = CredalProfile.of({"a": [0.5, 0.2], "b": [0.5, 0.9]})
        assert rationality_rows(profile, af) == []

    def test_no_attacks_vacuous(self):
        af = ArgumentationFramework(("a", "b"))
        profile = CredalProfile.maximal(af.arguments, 3)
        assert rationality_rows(profile, af) == []

    def test_report_is_every_violation_in_sorted_order(self):
        rng = random.Random(17)
        af = random_framework(rng, min_args=30, max_args=30, attack_p=0.3)
        profile = random_profile(rng, af, agent_count=4)
        report = rationality_rows(profile, af)
        expected = {
            (j + 1, a, b, profile.credal_set(a).values[j],
             profile.credal_set(b).values[j])
            for a, b in af.attacks for j in range(4)
            if profile.credal_set(a).values[j] > 0.5
            and profile.credal_set(b).values[j] > 0.5}
        assert len(report) > 150
        assert report == sorted(report)
        assert set(report) == expected and len(report) == len(expected)

    @pytest.mark.parametrize("profile", [
        CredalProfile.of({"a": [0.9]}),
        CredalProfile.maximal(["a"]),
        credalarg.parse_caf("arg(a).\nagents(1).\np(1,a,0.9).\n").profile,
    ], ids=["public", "maximal", "loaded"])
    def test_missing_argument_is_the_first_in_sorted_attacks(self, profile):
        # sorted attacks (b,c), (c,a): b is the first end with no opinions
        af = ArgumentationFramework(("a", "b", "c"), {("c", "a"), ("b", "c")})
        with pytest.raises(ValidationError) as exc:
            rationality_rows(profile, af)
        assert str(exc.value) == "profile has no opinions for argument 'b'"


class TestMaximalUniform:
    def test_all_ones_profile(self):
        profile = CredalProfile.maximal(("a", "b"), 4)
        assert is_maximal(profile)

    def test_diagnosis_profile(self, diagnosis):
        assert not is_maximal(diagnosis.profile)


@settings(max_examples=120, deadline=None)
@given(batch=credal_batches())
def test_dependent_bounds_dominate_independent(batch):
    dep = dependent_bounds(batch)
    ind = independent_bounds(batch)
    assert dep.lower >= ind.lower - TOL
    assert dep.upper >= ind.upper - TOL


@settings(max_examples=120, deadline=None)
@given(batch=credal_batches(), seed=st.randoms(use_true_random=False))
def test_aggregations_are_permutation_invariant(batch, seed):
    shuffled = list(batch)
    seed.shuffle(shuffled)
    for fn in (independent_bounds, dependent_bounds):
        a, b = fn(batch), fn(shuffled)
        assert a.lower == pytest.approx(b.lower, abs=TOL)
        assert a.upper == pytest.approx(b.upper, abs=TOL)
    assert dependent_set(shuffled) == dependent_set(batch)


@settings(max_examples=100, deadline=None)
@given(batch=credal_batches())
def test_appending_an_all_ones_factor_changes_nothing(batch):
    ones = CredalSet((1.0,) * len(batch[0]))
    extended = independent_bounds(batch + [ones])
    base = independent_bounds(batch)
    assert extended.lower == pytest.approx(base.lower, abs=TOL)
    assert extended.upper == pytest.approx(base.upper, abs=TOL)


@settings(max_examples=100, deadline=None)
@given(batch=credal_batches(max_agents=1))
def test_single_agent_collapses_every_interval(batch):
    for fn in (independent_bounds, dependent_bounds):
        interval = fn(batch)
        assert interval.lower == interval.upper
    single = independent_bounds(batch[:1])
    assert single.lower == single.upper


@settings(max_examples=120, deadline=None)
@given(batch=credal_batches())
def test_results_stay_inside_the_unit_interval(batch):
    for fn in (independent_bounds, dependent_bounds):
        interval = fn(batch)
        assert 0.0 <= interval.lower <= interval.upper <= 1.0
