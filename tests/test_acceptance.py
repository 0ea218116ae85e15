"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Tolerances are pinned here and nowhere else: interval comparisons use an
absolute 1e-9 throughout.
"""

import random
import time
from contextlib import contextmanager

import pytest

from credalarg import (CoverageError, CredalProfile, CredalSet,
                       agent_valuation_oracle, dependent_bounds,
                       dependent_credal_set, extension_bounds,
                       independent_bounds, parse_caf, emit_caf)
from credalarg.cli import main
from credalarg.samples import REPORTED_FIXTURES, diagnosis_document
from bruteforce import bf_semantics
from randgen import (mask_of, names_of, random_causality, random_document,
                     random_framework, random_profile)

TOL = 1e-9

# frozen before the implementation existed, from an independent per-agent
# product oracle over the bundled scenario (see also REPORTED_FIXTURES for
# the originally reported values these deviate from)
FROZEN_ORACLE = {
    "semantics": (0.0117, 0.088),
    "cf-1": (0.0975, 0.525),
    "cf-2": (0.15, 0.75),
    "cf-3": (0.1, 0.4),
    "cf-4": (0.2, 0.75),
}


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL: {label}")
        raise
    print(f"criterion {number} PASS: {label}")


def test_criterion_1_table_aggregation_reproduction():
    with criterion(1, "three-event table: independent and dependent bounds"):
        table = [CredalSet((0.3, 0.6, 0.45)),
                 CredalSet((0.5, 0.7, 0.65)),
                 CredalSet((0.75, 0.55, 0.8))]
        independent_bounds(table)  # warm-up outside the timed window
        dependent_bounds(table)
        start = time.perf_counter()
        ind = independent_bounds(table)
        dep = dependent_bounds(table)
        elapsed = time.perf_counter() - start
        assert ind.lower == pytest.approx(0.1125, abs=TOL)
        assert ind.upper == pytest.approx(0.234, abs=TOL)
        assert dep.lower == pytest.approx(0.3, abs=TOL)
        assert dep.upper == pytest.approx(0.55, abs=TOL)
        assert elapsed < 1e-3, f"took {elapsed * 1e3:.3f} ms"


def test_criterion_2_diagnosis_semantics_coincide():
    with criterion(2, "eight-argument scenario: co=pr=gr=st in < 100 ms each"):
        af = diagnosis_document().framework
        expected = {"C", "D", "E", "F", "G", "H"}
        for semantics in ("complete", "preferred", "grounded", "stable"):
            start = time.perf_counter()
            exts = af.enumerate_extensions(semantics)
            elapsed = time.perf_counter() - start
            assert [set(e.members) for e in exts] == [expected], semantics
            assert elapsed < 0.1, f"{semantics} took {elapsed:.3f} s"


def test_criterion_3_worked_intermediates():
    with criterion(3, "grouping intermediates and the 0.0117 lower bound"):
        doc = diagnosis_document()
        core = frozenset({"C", "D", "E", "F", "G", "H"})
        joint = [doc.profile.credal_set("G"), doc.profile.credal_set("H")]
        assert dependent_credal_set(joint).values == (0.7, 0.8, 1.0, 0.9)
        result = extension_bounds(core, doc.profile, doc.causality)
        assert {group.top for group in result.groups} == {"G"}
        graph, mask = doc.causality, mask_of(doc.causality, core)
        assert names_of(graph, graph.free_mask(
            mask, graph.anchor_mask(mask))) == {"C", "D", "F"}
        assert result.interval.lower == pytest.approx(0.0117, abs=TOL)
        singleton = extension_bounds(("A",), doc.profile, doc.causality)
        assert (singleton.interval.lower, singleton.interval.upper) == \
            (0.2, 0.75)


def test_criterion_4_known_deviations_match_the_frozen_oracle(capsys):
    with criterion(4, "deviating fixtures match frozen values; both columns "
                      "shown by --paper-fixtures"):
        doc = diagnosis_document()
        for fixture in REPORTED_FIXTURES:
            frozen_lower, frozen_upper = FROZEN_ORACLE[fixture.label]
            result = extension_bounds(doc.framework.extension(fixture.members),
                                      doc.profile, doc.causality)
            assert result.interval.lower == pytest.approx(frozen_lower,
                                                          abs=TOL)
            assert result.interval.upper == pytest.approx(frozen_upper,
                                                          abs=TOL)
        # the four documented discrepancies really are discrepancies
        deviating = [f for f in REPORTED_FIXTURES
                     if abs(FROZEN_ORACLE[f.label][0] - f.reported.lower) > TOL
                     or abs(FROZEN_ORACLE[f.label][1] - f.reported.upper) > TOL]
        assert [f.label for f in deviating] == \
            ["semantics", "cf-1", "cf-2", "cf-3"]
        assert main(["bounds", "--paper-fixtures"]) == 0
        out = capsys.readouterr().out
        assert "reported" in out and "computed" in out
        for f in deviating:
            row = next(line for line in out.splitlines()
                       if line.startswith(f.label))
            assert "deviates" in row


def test_criterion_5_maximal_profiles_collapse_to_one():
    with criterion(5, "500 all-ones frameworks: non-empty -> (1,1), "
                      "empty -> (0,1)"):
        rng = random.Random(0x51)
        skipped = 0
        for _ in range(500):
            af = random_framework(rng, max_args=8)
            graph = random_causality(rng, af)
            profile = CredalProfile.maximal(af.arguments, rng.randint(1, 3))
            for semantics in ("conflict-free", "admissible", "complete",
                              "preferred", "grounded", "stable"):
                for ext in af.enumerate_extensions(semantics):
                    try:
                        result = extension_bounds(ext, profile, graph)
                    except CoverageError:
                        # documented grouping restriction; the independent
                        # oracle must refuse identically
                        with pytest.raises(CoverageError):
                            agent_valuation_oracle(ext, profile, graph)
                        skipped += 1
                        continue
                    if ext.members:
                        assert (result.interval.lower,
                                result.interval.upper) == (1.0, 1.0)
                    else:
                        assert (result.interval.lower,
                                result.interval.upper) == (0.0, 1.0)
        print(f"  (criterion 5 note: {skipped} extensions hit the "
              f"documented coverage restriction, consistently on both paths)")


def test_criterion_6_uniform_profiles_stay_in_the_unit_interval():
    with criterion(6, "500 uniform profiles: 0 <= lower <= upper <= 1"):
        rng = random.Random(0x62)
        for _ in range(500):
            af = random_framework(rng, max_args=8)
            graph = random_causality(rng, af)
            profile = random_profile(rng, af)
            # every extension of every semantics is conflict-free, so the
            # conflict-free family covers all computable intervals
            for ext in af.enumerate_extensions("conflict-free"):
                try:
                    result = extension_bounds(ext, profile, graph)
                except CoverageError:
                    with pytest.raises(CoverageError):
                        agent_valuation_oracle(ext, profile, graph)
                    continue
                assert 0.0 <= result.interval.lower \
                    <= result.interval.upper <= 1.0


def test_criterion_7_oracle_equivalence():
    with criterion(7, "1000 random triples: grouping == per-agent oracle "
                      "(or both refuse)"):
        rng = random.Random(0x73)
        mismatches = 0
        for _ in range(1000):
            af = random_framework(rng, max_args=10)
            graph = random_causality(rng, af)
            profile = random_profile(rng, af,
                                     agent_count=rng.randint(1, 5))
            for ext in af.enumerate_extensions("conflict-free"):
                if not ext.members:
                    continue
                oracle_interval = algorithm_result = None
                try:
                    oracle_interval = agent_valuation_oracle(ext, profile,
                                                             graph)
                except CoverageError:
                    pass
                try:
                    algorithm_result = extension_bounds(ext, profile, graph)
                except CoverageError:
                    pass
                if (oracle_interval is None) != (algorithm_result is None):
                    mismatches += 1
                elif oracle_interval is not None and (
                        abs(algorithm_result.interval.lower
                            - oracle_interval.lower) > TOL
                        or abs(algorithm_result.interval.upper
                               - oracle_interval.upper) > TOL):
                    mismatches += 1
        assert mismatches == 0


def test_criterion_8_enumeration_matches_brute_force():
    with criterion(8, "brute-force semantics agreement plus lattice facts "
                      "in < 60 s"):
        rng = random.Random(0x84)
        start = time.perf_counter()
        for _ in range(50):
            af = random_framework(rng, max_args=10)
            expected = bf_semantics(af.arguments, af.attacks)
            families = {}
            for semantics, family in expected.items():
                got = [frozenset(e.members)
                       for e in af.enumerate_extensions(semantics)]
                assert sorted(map(sorted, got)) == \
                    sorted(map(sorted, family)), semantics
                families[semantics] = set(got)
            grounded = frozenset(af.grounded_extension().members)
            assert all(grounded <= c for c in families["complete"])
            assert families["stable"] <= families["preferred"]
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"suite took {elapsed:.1f} s"


def test_criterion_9_round_trip_fidelity():
    with criterion(9, "200 random documents: parse(emit(doc)) == doc with "
                      "9-decimal opinions"):
        rng = random.Random(0x95)
        for _ in range(200):
            doc = random_document(rng, digits=9)
            assert parse_caf(emit_caf(doc)) == doc
