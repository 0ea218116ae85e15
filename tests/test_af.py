import random
import time
import tracemalloc
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credalarg import (ArgumentationFramework, CapExceededError,
                       UnknownArgumentError, ValidationError)
from credalarg import cli
from credalarg.af import _walk_product, set_bits
from bruteforce import bf_semantics
from labelling import labelling_semantics
from randgen import (FAMILIES, family_framework, grid_attacks,
                     random_framework, symmetric_attacks, twist)

THREE_CYCLE = ArgumentationFramework(
    ("A", "B", "C"), frozenset({("A", "B"), ("B", "C"), ("C", "A")}))


def members(extensions):
    return [set(e) for e in extensions]


def canonical_rows(family):
    """The sorted names of each set of ``family``, by size, then names."""
    return sorted((tuple(sorted(s)) for s in family),
                  key=lambda names: (len(names), names))


def walk_root(af, semantics):
    """The walk's seed (chosen, attacked, attackers) and the searched
    arguments: all of them from nothing under conflict-free and
    admissible, else those the grounded labelling leaves undecided."""
    searched = (1 << len(af.arguments)) - 1
    if semantics in ("conflict-free", "admissible"):
        return (0, 0, 0), searched
    chosen, attacked = af._grounded_labelling()
    return (chosen, attacked, 0), searched ^ (chosen | attacked)


def per_part_masks(af, semantics):
    """``af.extension_masks(semantics)`` rebuilt without its shortcuts:
    every weakly connected part of the searched arguments (self-attackers
    alone too) walked under ``semantics`` itself, the walks multiplied
    through the keys of ``_walk_product``, and the rows sorted by size."""
    seed, searched = walk_root(af, semantics)
    left, walks = set(set_bits(searched)), []
    while left:
        part, todo = 0, [min(left)]
        while todo:
            i = todo.pop()
            if i in left:
                left.discard(i)
                part |= 1 << i
                todo += set_bits(af._in[i] | af._out[i])
        walks.append(af._walk(semantics, seed, part))
    if not all(walks):
        return []
    masks = _walk_product(walks, len(af.arguments)) if walks else [seed[0]]
    masks.sort(key=int.bit_count)
    return masks


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

    def test_labelling_is_the_walk_root(self):
        # the walk starts from (IN, OUT, no attackers) as the labelling
        # gives them: IN attacks exactly OUT, and its attackers lie in OUT
        rng = random.Random(5)
        for _ in range(600):
            af = random_framework(rng, max_args=14, min_args=0,
                                  attack_p=rng.choice((0.05, 0.15, 0.3)))
            in_mask, out_mask = af._grounded_labelling()
            attacked = attackers = 0
            for i in set_bits(in_mask):
                attacked |= af._out[i]
                attackers |= af._in[i]
            assert attacked == out_mask
            assert attackers & ~out_mask == 0

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
        # preferred keeps 2^8 sets, more than fit in one machine word
        pairs = [(f"p{i}", f"q{i}") for i in range(8)]
        attacks = frozenset(pairs) | frozenset((b, a) for a, b in pairs)
        af = ArgumentationFramework(sum(pairs, ()), attacks)

        def canonical(choices):
            # a pick per pair ("" for none), as sorted names in row order
            sets = (tuple(sorted(filter(None, pick)))
                    for pick in product(*choices))
            return sorted(sets, key=lambda names: (len(names), names))

        complete = af.enumerate_extensions("complete")
        assert complete == canonical([(a, b, "") for a, b in pairs])
        assert len(complete) == 3 ** 8
        one_each = canonical(pairs)
        assert len(one_each) == 2 ** 8
        assert af.enumerate_extensions("preferred") == one_each
        assert af.enumerate_extensions("stable") == one_each

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

    def test_isolated_self_attackers_take_linear_time(self):
        # a part of self-attackers alone is set aside unwalked, and no step
        # per part reads a mask over every argument, so twice the
        # self-attackers take about twice the time
        for semantics in ("admissible", "complete", "preferred", "stable"):
            times = []
            for n in (2400, 4800):
                names = tuple(f"s{i}" for i in range(n))
                af = ArgumentationFramework(names, frozenset(zip(names,
                                                                 names)))
                best = float("inf")
                for _ in range(3):
                    start = time.perf_counter()
                    masks = af.extension_masks(semantics, max_args=n)
                    best = min(best, time.perf_counter() - start)
                assert masks == ([] if semantics == "stable" else [0])
                times.append(best)
            assert times[1] <= 3 * times[0] + 0.001, (semantics, times)

    def test_cap_is_configurable(self):
        af = ArgumentationFramework(("a", "b", "c"))
        with pytest.raises(CapExceededError):
            af.enumerate_extensions("conflict-free", max_args=2)
        with pytest.raises(ValidationError, match="max_args must be >= 1"):
            af.extension_masks("conflict-free", max_args=0)


class TestParts:
    """A framework whose attack graph falls apart is walked part by part
    and the parts multiplied, in the walk's canonical order."""

    @pytest.mark.parametrize("n", [0, 1, 5, 9, 16])
    def test_attack_free_rows_are_the_combinations(self, n):
        af = ArgumentationFramework(tuple(f"a{i}" for i in range(n)))
        rows = [c for r in range(n + 1)
                for c in combinations(af.arguments, r)]
        for semantics in ("conflict-free", "admissible"):
            assert af.enumerate_extensions(semantics) == rows, semantics
        for semantics in ("complete", "preferred", "grounded", "stable"):
            assert af.enumerate_extensions(semantics) == [af.arguments]

    @pytest.mark.parametrize("k", [1, 5, 9])
    def test_mutual_attack_pairs_multiply(self, k):
        # p0..p(k-1) sort before q0, so each pair is split in bit order
        pairs = [(f"p{i}", f"q{i}") for i in range(k)]
        af = ArgumentationFramework(sum(pairs, ()), frozenset(pairs) | {
            (b, a) for a, b in pairs})

        def canonical(choices):
            sets = (tuple(sorted(filter(None, pick)))
                    for pick in product(*choices))
            return sorted(sets, key=lambda names: (len(names), names))

        for semantics in ("preferred", "stable"):
            rows = af.enumerate_extensions(semantics)
            assert len(rows) == 2 ** k
            assert rows == canonical(pairs), semantics
        for semantics in ("admissible", "complete"):
            rows = af.enumerate_extensions(semantics)
            assert len(rows) == 3 ** k
            assert rows == canonical([(a, b, "") for a, b in pairs])

    @staticmethod
    def traced_peak(call):
        tracemalloc.start()
        try:
            return call(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_attack_free_peak(self):
        # the walk over the whole framework peaked at 14.2 MiB here
        af = ArgumentationFramework(tuple(f"a{i}" for i in range(18)))
        masks, peak = self.traced_peak(
            lambda: af.extension_masks("conflict-free"))
        assert len(masks) == 2 ** 18
        assert peak <= 14 * 2 ** 20

    def test_size_product_agrees_with_the_key_product(self):
        # unions of parts of every shape, under their own name prefixes
        # (no part interleaves with another) or dealt one set of names
        seen = set()
        for seed in range(120):
            rng = random.Random(seed)
            af = family_framework(rng, rng.randint(9, 14),
                                  ("union", "interleaved")[seed % 2])
            for semantics in ("conflict-free", "admissible", "complete",
                              "preferred", "stable"):
                masks = af.extension_masks(semantics)
                assert masks == per_part_masks(af, semantics), (
                    seed, semantics)
                root, searched = walk_root(af, semantics)
                parts = af._parts(searched)
                if searched.bit_count() <= 8 or len(parts) < 2:
                    continue
                seen.add("apart" if all(p < q & -q for p, q in zip(
                    parts, parts[1:])) else "interleaved")
                if root[0]:
                    seen.add("grounded seed")
                if semantics == "stable" and not masks:
                    seen.add("no stable set")
                if any(len(af._walk(semantics, root, part)) == 1
                       for part in parts):
                    seen.add("one-mask part")
        assert seen == {"apart", "interleaved", "grounded seed",
                        "no stable set", "one-mask part"}

    def test_an_empty_part_ends_before_the_product(self):
        # 2^32 stable sets of the pairs, none of the trailing 3-cycle, so
        # neither half of the parts may be multiplied out
        pairs = [(f"p{i}", f"q{i}") for i in range(32)]
        af = ArgumentationFramework(
            sum(pairs, ("x", "y", "z")), frozenset(pairs) | {
                (b, a) for a, b in pairs} | {("x", "y"), ("y", "z"),
                                             ("z", "x")})
        masks, peak = self.traced_peak(
            lambda: af.extension_masks("stable", max_args=67))
        assert masks == []
        assert peak < 2 ** 20


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
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 24, 25])
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
        # twice, so a decode is seen to leave its tables as they were
        for _ in range(2):
            assert [decode(m) for m in masks] == [af._names_of(m)
                                                  for m in masks]

    @pytest.mark.parametrize("n", [0, 5, 24])
    def test_tables_start_past_256_masks(self, n):
        rng = random.Random(n)
        af = ArgumentationFramework(tuple(f"a{i:02d}" for i in range(n)))
        masks = [rng.getrandbits(n) for _ in range(257)]
        assert af.row_decoder(masks[:256]) == af._names_of
        decode = af.row_decoder(masks)
        assert decode != af._names_of
        assert list(map(decode, masks)) == list(map(af._names_of, masks))

    @pytest.mark.parametrize("n", [0, 5, 8, 9, 16, 17, 25])
    def test_text_is_the_joined_names(self, n):
        # names of 1-3 characters, many of them prefixes of others, so a
        # row's text is seen to keep every name's own end
        rng = random.Random(200 + n)
        pool = sorted({"".join(rng.choice("Aa0_z9") for _ in range(k))
                       for k in (1, 2, 3) for _ in range(40)})
        af = ArgumentationFramework(rng.sample(pool, n))
        full = (1 << n) - 1
        for count in (256, 257):  # both sides of the 256-mask rule
            masks = [0, full] + [rng.getrandbits(n) for _ in range(count - 2)]
            decode = af.row_decoder(masks)
            for sep in (",", cli._NAMES_SEP):
                text = af._row_text(masks, sep)
                assert [text(m) for m in masks] == \
                    [sep.join(decode(m)) for m in masks]

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

    # code-point order ("B" < "_x" < "a") differs from the order the
    # names are drawn in, and from their order by length
    POOL = ("a", "B", "aa", "Ab", "b_", "Z9", "zz", "_x", "c", "C", "ab",
            "a0")

    @staticmethod
    def assert_rows_in_brute_force_order(args, attacks, label):
        af = ArgumentationFramework(args, attacks)
        for semantics, family in bf_semantics(args, attacks).items():
            masks = af.extension_masks(semantics)
            got = list(map(af.row_decoder(masks), masks))
            assert got == canonical_rows(family), (label, semantics)
        return af

    def test_row_order_is_size_then_members(self):
        self_attacks = 0
        for seed in range(120):
            rng = random.Random(seed)
            args = rng.sample(self.POOL, rng.randint(1, 9))
            attacks = frozenset((a, b) for a in args for b in args
                                if rng.random() < (0.1, 0.2, 0.35)[seed % 3])
            self_attacks += any(a == b for a, b in attacks)
            self.assert_rows_in_brute_force_order(args, attacks, seed)
        assert self_attacks > 30

    def test_row_order_with_many_kept_sets(self):
        # 10-12 arguments, most of them in mutual-attack pairs, so that
        # preferred keeps many sets; a few extra attacks and self-attacks
        # break the symmetry
        kept = 0
        for seed in range(150):
            rng = random.Random(seed)
            args = rng.sample(self.POOL, rng.randint(10, 12))
            pairs = list(zip(args[::2], args[1::2]))
            attacks = set(pairs) | {(b, a) for a, b in pairs}
            attacks |= {(a, b) for a in args for b in args
                        if rng.random() < 0.03}
            attacks |= {(a, a) for a in rng.sample(args, rng.randint(0, 2))}
            af = self.assert_rows_in_brute_force_order(
                args, frozenset(attacks), seed)
            kept = max(kept, len(af.extension_masks("preferred")))
        assert kept >= 32

    def test_row_order_of_disjoint_unions(self):
        # 9-12 names of POOL, interleaved in sorted order, split into 2-3
        # random parts, isolated arguments and isolated self-attackers
        for seed in range(100):
            rng = random.Random(seed)
            args = rng.sample(self.POOL, rng.randint(9, 12))
            loners = rng.sample(args, rng.randint(1, 3))
            owner = {a: rng.randrange(rng.randint(2, 3)) for a in args
                     if a not in loners}
            p = (0.15, 0.3, 0.5)[seed % 3]
            attacks = {(a, b) for a in owner for b in owner
                       if owner[a] == owner[b] and rng.random() < p}
            attacks |= {(a, a) for a in loners[1:]}
            af = self.assert_rows_in_brute_force_order(
                args, frozenset(attacks), seed)
            assert len(af._parts((1 << len(args)) - 1)) >= 2, seed

    def test_symmetric_families(self):
        # grids up to 3x4, cliques and symmetric random graphs, whose
        # preferred sets are their stable ones, each also with one attack
        # made one-way or one self-attack added, which keep the preferred
        # walk; whole walks of at most 8 arguments and split ones
        cases = [(f"grid-{r}x{c}", r * c, c) for r in (1, 2, 3)
                 for c in (1, 2, 3, 4)]
        cases += [(f"clique-{n}", n, None) for n in range(1, 11)]
        cases += [(f"symmetric-{k}", None, None) for k in range(40)]
        for label, n, cols in cases:
            rng = random.Random(label)
            args = rng.sample(self.POOL, n or rng.randint(2, 12))
            if label.startswith("grid"):
                attacks = grid_attacks(args, cols)
            elif label.startswith("clique"):
                attacks = {(a, b) for a in args for b in args if a != b}
            else:
                attacks = symmetric_attacks(rng, args, rng.choice((0.1, 0.2,
                                                                   0.4)))
            for kind in (None, "one-way", "self-attack"):
                self.assert_rows_in_brute_force_order(
                    args, frozenset(twist(rng, args, attacks, kind)),
                    (label, kind))

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


class TestAgainstLabellings:
    """``tests/labelling.py`` enumerates complete labellings from their
    definition, sharing no code with the walk, so it reaches frameworks
    beyond brute force."""

    def test_reference_agrees_with_brute_force(self):
        for seed in range(160):
            rng = random.Random(seed)
            if seed % 2:
                af = random_framework(rng, max_args=12,
                                      attack_p=(0.1, 0.2, 0.35)[seed % 3])
            else:
                af = family_framework(rng, rng.randint(2, 12),
                                      FAMILIES[seed // 2 % len(FAMILIES)])
            expected = bf_semantics(af.arguments, af.attacks)
            for semantics, family in labelling_semantics(
                    af.arguments, af.attacks).items():
                assert canonical_rows(family) == canonical_rows(
                    expected[semantics]), (seed, semantics)

    @staticmethod
    def assert_walk_agrees(af, label):
        reference = labelling_semantics(af.arguments, af.attacks)
        for semantics in ("complete", "preferred", "stable"):
            masks = af.extension_masks(semantics)
            assert list(map(af.row_decoder(masks), masks)) == \
                canonical_rows(reference[semantics]), (label, semantics)

    @pytest.mark.parametrize("rows, cols", [(3, 7), (4, 5)])
    def test_grids(self, rows, cols):
        # unpadded names: the sorted order is not the grid's row order
        names = [f"g{i}" for i in range(rows * cols)]
        self.assert_walk_agrees(ArgumentationFramework(
            names, frozenset(grid_attacks(names, cols))), (rows, cols))

    def test_clique_and_pairs(self):
        names = [f"k{i}" for i in range(25)]
        self.assert_walk_agrees(ArgumentationFramework(
            names, frozenset((a, b) for a in names for b in names
                             if a != b)), "clique-25")
        names = [f"p{i}" for i in range(14)]
        self.assert_walk_agrees(ArgumentationFramework(
            names, frozenset(zip(names[::2], names[1::2])) | frozenset(
                zip(names[1::2], names[::2]))), "pairs-7")

    def test_random_frameworks(self):
        for seed in range(40):
            rng = random.Random(seed)
            self.assert_walk_agrees(family_framework(
                rng, rng.randint(13, 20), FAMILIES[seed % len(FAMILIES)]),
                seed)

    def test_parts_attacked_by_decided_arguments(self):
        # each part's undecided arguments are attacked, one way, by ones
        # the grounded labelling makes OUT: a part walked with only its
        # own share of the labelling would take them as undefended
        for seed in range(40):
            rng = random.Random(seed)
            self.assert_walk_agrees(family_framework(
                rng, rng.randint(13, 20), ("union", "interleaved")[seed % 2],
                ("fed",)), seed)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_grounded_is_a_fixpoint_of_the_defense_operator(seed):
    af = random_framework(random.Random(seed), max_args=9)
    [ext] = af.enumerate_extensions("grounded")
    grounded = set(ext)
    assert defended_arguments(af, grounded) == grounded
