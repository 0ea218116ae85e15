import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credalarg import (ArgumentationFramework, CapExceededError,
                       UnknownArgumentError, ValidationError)
from credalarg.af import set_bits
from bruteforce import bf_semantics
from randgen import random_framework

THREE_CYCLE = ArgumentationFramework(
    ("A", "B", "C"), frozenset({("A", "B"), ("B", "C"), ("C", "A")}))


def members(extensions):
    return [set(e) for e in extensions]


def names(af, members):
    """The sorted names of the checked set ``members``."""
    mask = af.extension_mask(members)
    return af.row_decoder([mask])(mask)


def _counter(af, members):
    # the arguments the framework's attack masks say ``members`` attack
    hit = 0
    for i in set_bits(af.extension_mask(members)):
        hit |= af._out[i]
    return hit


def defends(af, members, name):
    """Every attacker of ``name`` is attacked from ``members``."""
    counter = _counter(af, members)
    (i,) = set_bits(af.extension_mask([name]))
    return af._in[i] & ~counter == 0


def defended_arguments(af, members):
    """All arguments defended by ``members`` (the defense operator)."""
    counter = _counter(af, members)
    return {a for a, attackers in zip(af.arguments, af._in)
            if attackers & ~counter == 0}


class TestConflictFree:
    def test_accepted_core_is_conflict_free(self, diagnosis):
        core = {"C", "D", "E", "F", "G", "H"}
        assert names(diagnosis.framework, core) == tuple(sorted(core))

    def test_empty_set_is_vacuously_conflict_free(self, diagnosis):
        assert diagnosis.framework.extension_mask(set()) == 0

    def test_attacking_pair_is_not(self, diagnosis):
        with pytest.raises(ValidationError, match="not conflict-free"):
            diagnosis.framework.extension_mask({"A", "B"})

    def test_self_attacker_conflicts_alone(self):
        af = ArgumentationFramework(("X",), frozenset({("X", "X")}))
        with pytest.raises(ValidationError, match="not conflict-free"):
            af.extension_mask({"X"})

    def test_unknown_member_rejected(self, diagnosis):
        with pytest.raises(UnknownArgumentError):
            diagnosis.framework.extension_mask({"Z"})


class TestDefends:
    def test_unattacked_argument_is_defended_by_anything(self, diagnosis):
        assert defends(diagnosis.framework, {"C"}, "C")

    def test_no_counterattack_means_no_defense(self, diagnosis):
        # C attacks A and D does not attack C
        assert not defends(diagnosis.framework, {"D"}, "A")

    def test_argument_cannot_defend_itself_here(self, diagnosis):
        assert not defends(diagnosis.framework, {"A"}, "A")

    def test_unknown_target_rejected(self, diagnosis):
        with pytest.raises(UnknownArgumentError):
            defends(diagnosis.framework, {"A"}, "Z")


class TestGrounded:
    def test_diagnosis_grounded(self, diagnosis):
        [ext] = diagnosis.framework.enumerate_extensions("grounded")
        assert set(ext) == {"C", "D", "E", "F", "G", "H"}
        assert ext == ("C", "D", "E", "F", "G", "H")

    def test_no_attacks_accepts_everything(self):
        af = ArgumentationFramework(("x", "y", "z"))
        [ext] = af.enumerate_extensions("grounded")
        assert set(ext) == {"x", "y", "z"}

    def test_three_cycle_grounds_to_nothing(self):
        [ext] = THREE_CYCLE.enumerate_extensions("grounded")
        assert ext == ()

    def test_long_chain_accepts_every_other_argument(self):
        # c0 -> c1 -> ... -> c4000; unpadded names so sorted order is not
        # chain order
        names = [f"c{i}" for i in range(4001)]
        attacks = frozenset(zip(names, names[1:]))
        af = ArgumentationFramework(tuple(names), attacks)
        [ext] = af.enumerate_extensions("grounded")
        assert set(ext) == set(names[::2])

    def test_long_odd_cycle_grounds_to_nothing(self):
        names = [f"o{i}" for i in range(1001)]
        attacks = frozenset(zip(names, names[1:] + names[:1]))
        af = ArgumentationFramework(tuple(names), attacks)
        [ext] = af.enumerate_extensions("grounded")
        assert ext == ()


class TestEnumerate:
    def test_diagnosis_complete_unique(self, diagnosis):
        exts = diagnosis.framework.enumerate_extensions("complete")
        assert members(exts) == [{"C", "D", "E", "F", "G", "H"}]

    def test_diagnosis_stable(self, diagnosis):
        exts = diagnosis.framework.enumerate_extensions("stable")
        assert members(exts) == [{"C", "D", "E", "F", "G", "H"}]

    def test_three_cycle_has_no_stable_extension(self):
        assert THREE_CYCLE.enumerate_extensions("stable") == []

    def test_conflict_free_of_attack_free_framework_is_power_set(self):
        af = ArgumentationFramework(("a", "b", "c", "d"))
        exts = af.enumerate_extensions("conflict-free")
        assert len(exts) == 16
        assert len(set(exts)) == 16

    def test_empty_framework_yields_only_the_empty_extension(self):
        af = ArgumentationFramework()
        for semantics in ("conflict-free", "admissible", "complete",
                          "preferred", "grounded", "stable"):
            assert members(af.enumerate_extensions(semantics)) == [set()]

    def test_canonical_order(self, diagnosis):
        exts = diagnosis.framework.enumerate_extensions("admissible")
        keys = [(len(e), e) for e in exts]
        assert keys == sorted(keys)
        # each is the sorted tuple that the named set decodes to
        af = diagnosis.framework
        assert exts == [names(af, e[::-1]) for e in exts]

    def test_deterministic_across_runs(self, diagnosis):
        one = diagnosis.framework.enumerate_extensions("conflict-free")
        two = diagnosis.framework.enumerate_extensions("conflict-free")
        assert one == two

    def test_unknown_semantics_rejected(self, diagnosis):
        with pytest.raises(ValidationError):
            diagnosis.framework.enumerate_extensions("semi-stable")

    def test_cap_refuses_large_frameworks(self):
        af = ArgumentationFramework(tuple(f"a{i:02d}" for i in range(26)))
        with pytest.raises(CapExceededError):
            af.enumerate_extensions("conflict-free")
        # grounded bypasses subset enumeration entirely
        [ext] = af.enumerate_extensions("grounded")
        assert len(ext) == 26

    def test_mutual_attack_pairs(self):
        pairs = [(f"p{i}", f"q{i}") for i in range(8)]
        attacks = frozenset(pairs) | frozenset((b, a) for a, b in pairs)
        af = ArgumentationFramework(sum(pairs, ()), attacks)
        assert len(af.enumerate_extensions("complete")) == 3 ** 8
        assert len(af.enumerate_extensions("preferred")) == 2 ** 8
        assert len(af.enumerate_extensions("stable")) == 2 ** 8

    def test_many_self_attackers_under_a_raised_cap(self):
        # one walk level per argument: deeper than the recursion limit
        af = ArgumentationFramework(
            tuple(f"s{i}" for i in range(1200)),
            frozenset((f"s{i}", f"s{i}") for i in range(1200)))
        for semantics in ("conflict-free", "admissible", "complete",
                          "preferred"):
            assert members(af.enumerate_extensions(
                semantics, max_args=2000)) == [set()], semantics
        assert af.enumerate_extensions("stable", max_args=2000) == []

    def test_cap_is_configurable(self):
        af = ArgumentationFramework(("a", "b", "c"))
        with pytest.raises(CapExceededError):
            af.enumerate_extensions("conflict-free", max_args=2)
        with pytest.raises(ValidationError, match="max_args must be >= 1"):
            af.extension_masks("conflict-free", max_args=0)


def ring(n: int, closed: bool) -> ArgumentationFramework:
    # a0 -> a1 -> ... -> a(n-1), and back to a0 if closed; unpadded names,
    # so the walk's sorted order is not ring order
    names = [f"a{i}" for i in range(n)]
    attacks = set(zip(names, names[1:]))
    if closed:
        attacks.add((names[-1], names[0]))
    return ArgumentationFramework(tuple(names), frozenset(attacks))


class TestBeyondTheCap:
    # Closed forms on frameworks whose conflict-free sets number up to
    # about 2.3e8 (the 40-cycle): the walk must cut what cannot be
    # defended rather than visit every conflict-free set.

    def test_long_chain(self):
        af = ring(60, closed=False)
        evens = [f"a{i}" for i in range(0, 60, 2)]
        assert members(af.enumerate_extensions("admissible", max_args=64)) \
            == [set()] + [set(evens[:k]) for k in range(1, 31)]
        for semantics in ("complete", "preferred", "stable"):
            assert members(af.enumerate_extensions(
                semantics, max_args=64)) == [set(evens)], semantics

    def test_even_cycle(self):
        af = ring(40, closed=True)
        evens = {f"a{i}" for i in range(0, 40, 2)}
        odds = {f"a{i}" for i in range(1, 40, 2)}
        for semantics in ("admissible", "complete"):
            assert members(af.enumerate_extensions(
                semantics, max_args=64)) == [set(), evens, odds], semantics
        for semantics in ("preferred", "stable"):
            assert members(af.enumerate_extensions(
                semantics, max_args=64)) == [evens, odds], semantics

    def test_odd_cycle(self):
        af = ring(41, closed=True)
        for semantics in ("admissible", "complete", "preferred"):
            assert members(af.enumerate_extensions(
                semantics, max_args=64)) == [set()], semantics
        assert af.enumerate_extensions("stable", max_args=64) == []

    def test_cap_still_counts_every_argument(self):
        with pytest.raises(CapExceededError):
            ring(60, closed=False).enumerate_extensions("stable", max_args=59)


class TestConstruction:
    def test_lowest_unknown_attack_named(self):
        with pytest.raises(UnknownArgumentError) as err:
            ArgumentationFramework(("a", "b"), frozenset(
                {("a", "zz"), ("yy", "b"), ("a", "xx")}))
        assert str(err.value) == "attack (a,xx) mentions unknown argument 'xx'"

    def test_unknown_source_named_before_unknown_target(self):
        with pytest.raises(UnknownArgumentError) as err:
            ArgumentationFramework(("b",), frozenset({("yy", "zz")}))
        assert str(err.value) == "attack (yy,zz) mentions unknown argument 'yy'"

    def test_invalid_name_rejected_before_unknown_ends(self):
        with pytest.raises(ValidationError) as err:
            ArgumentationFramework(("a", "b-c"), frozenset({("a", "zz")}))
        assert str(err.value) == "invalid argument name: 'b-c'"

    def test_string_is_not_an_argument_list(self):
        # "ab" would otherwise be read as the arguments a and b
        with pytest.raises(ValidationError) as err:
            ArgumentationFramework("ab")
        assert str(err.value) == \
            "members must be a collection of names, not the string 'ab'"

    def test_ends_that_are_not_names_are_unknown(self):
        with pytest.raises(UnknownArgumentError) as err:
            ArgumentationFramework(("a",), frozenset({("a", "zz"), ("a", 1)}))
        assert str(err.value) == "attack (a,1) mentions unknown argument 1"

    def test_pair_that_is_not_a_2_tuple_rejected(self):
        for attacks, message in (
                (frozenset({("a",)}), "attack ('a',) is not a 2-tuple"),
                ([["a", "a"]], "attack ['a', 'a'] is not a 2-tuple")):
            with pytest.raises(ValidationError) as err:
                ArgumentationFramework(("a",), attacks)
            assert str(err.value) == message

    def test_lowest_malformed_pair_named_before_unknown_ends(self):
        with pytest.raises(ValidationError) as err:
            ArgumentationFramework(("a", "b"), frozenset(
                {("b",), ("a", "zz"), ("a", "b", "c"), ("a",)}))
        assert str(err.value) == "attack ('a', 'b', 'c') is not a 2-tuple"


class TestNamesOf:
    def test_agrees_with_set_bits(self):
        rng = random.Random(7)
        for n in range(1, 65):
            af = ArgumentationFramework(tuple(f"a{i:02d}" for i in range(n)))
            full = (1 << n) - 1
            for mask in [0, full, 1, 1 << (n - 1)] + [
                    rng.getrandbits(n) for _ in range(50)]:
                assert af._names_of(mask) == tuple(
                    af.arguments[i] for i in set_bits(mask))


class TestRowDecoder:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 25])
    def test_agrees_with_names_of(self, n):
        rng = random.Random(n)
        af = ArgumentationFramework(tuple(f"a{i:02d}" for i in range(n)))
        full = (1 << n) - 1
        # runs of 2, 3 and 9 bits that cross a byte boundary
        crossing = [((1 << width) - 1) << low
                    for low in range(0, n) for width in (2, 3, 9)
                    if low + width <= n and low // 8 != (low + width - 1) // 8]
        masks = [0, full, *crossing] + [rng.getrandbits(n)
                                        for _ in range(300)]
        decode = af.row_decoder(masks)
        assert decode != af._names_of  # a long list decodes by tables
        # twice, so entries made on first use are read back
        for _ in range(2):
            assert [decode(m) for m in masks] == [af._names_of(m)
                                                  for m in masks]

    def test_short_lists_decode_each_mask_by_itself(self):
        af = ArgumentationFramework(tuple(f"a{i:04d}" for i in range(4000)))
        assert af.row_decoder([1 << 3999]) == af._names_of
        assert af.row_decoder([1 << 3999])(1 << 3999) == ("a3999",)

    def test_empty_framework(self):
        af = ArgumentationFramework()
        assert af.row_decoder([0] * 300)(0) == ()


class TestExtensionType:
    """An extension is the sorted tuple of its member names; a named set
    is checked by ``extension_mask``."""

    def test_members_are_sorted_and_deduplicated(self):
        af = ArgumentationFramework(("a", "b"))
        assert names(af, ("b", "a", "b")) == ("a", "b")

    def test_checked_construction_rejects_conflicts(self, diagnosis):
        with pytest.raises(ValidationError, match="not conflict-free"):
            diagnosis.framework.extension_mask({"A", "B"})

    def test_checked_construction_rejects_unknown_names(self, diagnosis):
        with pytest.raises(UnknownArgumentError):
            diagnosis.framework.extension_mask({"nope"})

    def test_non_string_member_is_a_validation_error(self, diagnosis):
        with pytest.raises(ValidationError) as info:
            diagnosis.framework.extension_mask(("b", 1))
        assert str(info.value) == "invalid argument name: 1"

    def test_lowest_offender_by_repr_is_named(self, diagnosis):
        # reprs "'x y'" < "1.5" < "2" < "['l']", whatever the hash order
        with pytest.raises(ValidationError) as info:
            diagnosis.framework.extension_mask(("b", 2, ["l"], 1.5, "x y"))
        assert str(info.value) == "invalid argument name: 'x y'"

    def test_string_is_not_a_member_list(self, diagnosis):
        with pytest.raises(ValidationError) as info:
            diagnosis.framework.extension_mask("abc")
        assert str(info.value) == \
            "members must be a collection of names, not the string 'abc'"

    @pytest.mark.parametrize("members, expected", [
        (("C", "D", "E", "F", "G", "H"), ("C", "D", "E", "F", "G", "H")),
        (("H", "A", "H"), ("A", "H")), ((), ()),
        (("B", "A"), (ValidationError, "set {A,B} is not conflict-free")),
        (("A", "B", "nope"), (UnknownArgumentError,
                              "unknown argument 'nope'")),
        (("B", "zz", "A", "yy"), (UnknownArgumentError,
                                  "unknown argument 'yy'")),
        ("AB", (ValidationError, "members must be a collection of names, "
                                 "not the string 'AB'"))],
        ids=[*(f"members{i}" for i in range(6)), "AB"])
    def test_extension_mask_checks_as_extension_does(self, diagnosis,
                                                     members, expected):
        framework = diagnosis.framework
        if expected[:1] and isinstance(expected[0], type):
            with pytest.raises(expected[0]) as info:
                framework.extension_mask(members)
            assert str(info.value) == expected[1]
        else:
            assert names(framework, members) == expected

    def test_checked_construction_rejects_a_string(self, diagnosis):
        # the characters A and B are names of the framework, so only the
        # type of the argument can reject it
        with pytest.raises(ValidationError) as info:
            diagnosis.framework.extension_mask("AB")
        assert str(info.value) == \
            "members must be a collection of names, not the string 'AB'"


class TestAgainstBruteForce:
    def test_small_random_frameworks_agree_with_definitions(self):
        rng = random.Random(0xAF)
        for _ in range(30):
            af = random_framework(rng, max_args=7)
            expected = bf_semantics(af.arguments, af.attacks)
            for semantics, family in expected.items():
                got = members(af.enumerate_extensions(semantics))
                assert sorted(map(sorted, got)) == \
                    sorted(map(sorted, (set(s) for s in family)), ), semantics

    def test_grounded_first_semantics_agree_on_many_seeds(self):
        self_attacks = 0
        for seed in range(200):
            rng = random.Random(seed)
            af = random_framework(rng, max_args=8,
                                  attack_p=(0.1, 0.2, 0.35)[seed % 3])
            self_attacks += any(a == b for a, b in af.attacks)
            expected = bf_semantics(af.arguments, af.attacks)
            assert members(af.enumerate_extensions("grounded")) == \
                expected["grounded"], seed
            for semantics in ("conflict-free", "admissible", "complete",
                              "preferred", "stable"):
                got = members(af.enumerate_extensions(semantics))
                assert sorted(map(sorted, got)) == \
                    sorted(map(sorted, expected[semantics])), (seed, semantics)
        assert self_attacks > 50

    def test_row_order_is_size_then_members(self):
        # code-point order ("B" < "_x" < "a") differs from the order the
        # names are drawn in, and from their order by length
        pool = ("a", "B", "aa", "Ab", "b_", "Z9", "zz", "_x", "c", "C",
                "ab", "a0")
        self_attacks = 0
        for seed in range(120):
            rng = random.Random(seed)
            args = rng.sample(pool, rng.randint(1, 9))
            attacks = frozenset((a, b) for a in args for b in args
                                if rng.random() < (0.1, 0.2, 0.35)[seed % 3])
            self_attacks += any(a == b for a, b in attacks)
            af = ArgumentationFramework(args, attacks)
            expected = bf_semantics(args, attacks)
            for semantics, family in expected.items():
                want = sorted((tuple(sorted(s)) for s in family),
                              key=lambda names: (len(names), names))
                masks = af.extension_masks(semantics)
                got = list(map(af.row_decoder(masks), masks))
                assert got == want, (seed, semantics)
        assert self_attacks > 30

    def test_containment_chain(self):
        rng = random.Random(0xBEEF)
        for _ in range(40):
            af = random_framework(rng, max_args=8)
            by_sem = {s: set(map(frozenset, members(
                af.enumerate_extensions(s))))
                for s in ("conflict-free", "admissible", "complete",
                          "preferred", "stable")}
            assert by_sem["admissible"] <= by_sem["conflict-free"]
            assert by_sem["complete"] <= by_sem["admissible"]
            assert by_sem["preferred"] <= by_sem["complete"]
            assert by_sem["stable"] <= by_sem["preferred"]
            [ext] = af.enumerate_extensions("grounded")
            assert all(set(ext) <= c for c in by_sem["complete"])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_grounded_is_a_fixpoint_of_the_defense_operator(seed):
    af = random_framework(random.Random(seed), max_args=9)
    [ext] = af.enumerate_extensions("grounded")
    grounded = set(ext)
    assert defended_arguments(af, grounded) == grounded
