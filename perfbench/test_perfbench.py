"""Tests of the benchmark's own logic.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import random

import pytest

import checks
import run
import spans
import workloads


@pytest.fixture(scope="module")
def bruteforce():
    return run.load_bruteforce()


# -- generator ----------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_writes_identical_bytes(workload, tmp_path):
    written = []
    for i in range(2):
        directory = tmp_path / str(i)
        directory.mkdir()
        workloads.write(workloads.build(workload, 7), str(directory))
        written.append({p.name: p.read_bytes()
                        for p in sorted(directory.iterdir())})
    assert written[0] == written[1]
    other = workloads.write(workloads.build(workload, 8),
                            str(tmp_path / "0"))
    assert other != {k: v.decode() for k, v in written[0].items()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_keeps_the_amount_of_work(workload):
    def shape(seed):
        corpus = workloads.build(workload, seed)
        return ([(d.family, len(d.args), d.agents) for d in corpus.docs],
                [(c.kind, c.fmt, c.sem) for c in corpus.commands])
    assert shape(1) == shape(2)


def test_diagnosis_matches_the_bundled_sample():
    samples = run.import_program().samples
    doc = next(d for d in workloads.build("cli-small", 1).docs
               if d.family == "diagnosis")
    sample = samples.diagnosis_document()
    assert set(doc.attacks) == set(sample.framework.attacks)
    assert set(doc.causal) == set(sample.causality.edges)
    for name in doc.args:
        assert tuple(doc.opinions[name]) == \
            sample.profile.credal_set(name).values


# -- references ---------------------------------------------------------------

@pytest.mark.parametrize("family,size", [
    ("noattack", (5,)), ("chain", (7,)), ("chain", (8,)), ("cycle", (5,)),
    ("cycle", (6,)), ("pairs", (4,)), ("grid", (2, 3)), ("grid", (3, 3)),
    ("clique", (5,)),
])
def test_closed_forms_agree_with_brute_force(family, size, bruteforce):
    doc = workloads._structured(random.Random(3), family, *size)
    doc.path = doc.name
    refs = checks.References(bruteforce, None)
    truth = bruteforce.bf_semantics(sorted(doc.args), doc.attacks)
    for code, name in workloads.SEMANTICS.items():
        want = checks._canonical(truth[name])
        assert refs.extensions(doc, code) == want, code
        # the generic walk used for frameworks too big for brute force
        if code != "gr":
            assert refs._from_conflict_free(doc, code) == want, code


def test_component_product_agrees_with_brute_force(bruteforce):
    doc = workloads._component_doc(random.Random(5), (3, 2, 2), 0.2, 2)
    doc.path = doc.name
    refs = checks.References(bruteforce, None)
    truth = bruteforce.bf_semantics(sorted(doc.args), doc.attacks)
    for code in ("cf", "ad"):
        want = checks._canonical(truth[workloads.SEMANTICS[code]])
        assert refs.extensions(doc, code) == want
    assert refs.cf_count(doc) == len(truth["conflict-free"])


def test_deep_documents_keep_their_defence_chains():
    doc = workloads._deep_doc(random.Random(11), 1000, 2)
    accepted = {a for chain in doc.shape for a in chain[0::2]}
    assert checks.grounded(doc.args, doc.attacks) == accepted


# -- statistics ---------------------------------------------------------------

@pytest.mark.parametrize("samples,level", [
    (20, 50.0), (40, 75.0), (100, 90.0), (120, 90.0), (200, 95.0),
    (1000, 99.0), (10000, 99.9),
])
def test_tail_level_keeps_ten_samples_beyond(samples, level):
    assert run.tail_level(samples) == level
    rank = run.nearest_rank(list(range(samples)), level) + 1
    assert samples - rank >= run.TAIL_BEYOND


def test_tail_level_falls_back_to_the_median_when_samples_are_few():
    assert run.tail_level(5) == 50.0


def test_nearest_rank():
    ordered = [float(x) for x in range(1, 101)]
    assert run.nearest_rank(ordered, 50.0) == 50.0
    assert run.nearest_rank(ordered, 90.0) == 90.0
    assert run.nearest_rank(ordered, 99.9) == 100.0
    assert run.nearest_rank([3.0], 95.0) == 3.0


# -- self-time arithmetic -----------------------------------------------------

def _span(name, start, end, parent, command=0):
    return [name, start, end, parent, command]


def test_self_time_subtracts_nested_children():
    tree = [_span("root", 0.0, 10.0, -1), _span("a", 1.0, 4.0, 0),
            _span("a.x", 1.5, 2.0, 1), _span("b", 5.0, 6.0, 0)]
    assert spans.self_times(tree) == [6.0, 2.5, 0.5, 1.0]
    assert sum(spans.self_times(tree)) == 10.0


def test_self_time_subtracts_the_union_of_overlapping_children():
    tree = [_span("root", 0.0, 10.0, -1), _span("a", 1.0, 4.0, 0),
            _span("b", 3.0, 6.0, 0), _span("c", 3.5, 5.0, 0)]
    assert spans.self_times(tree)[0] == 5.0


def test_self_time_clips_children_to_the_parent():
    tree = [_span("root", 2.0, 4.0, -1), _span("a", 1.0, 3.0, 0),
            _span("b", 3.5, 9.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(0.5)


def test_summary_and_per_command_accounting():
    tree = [_span("cli.main", 0.0, 4.0, -1, 0), _span("x", 1.0, 2.0, 0, 0),
            _span("cli.main", 5.0, 6.0, -1, 1)]
    summary = spans.summarize(tree)
    assert summary["cli.main"] == {"busy": 5.0, "self": 4.0, "calls": 2}
    assert spans.per_command_self(tree) == {0: (4.0, 4.0), 1: (1.0, 1.0)}


def test_refusal_reasons():
    assert spans.refusal_reason(
        "causal groups anchored at 'a' and 'b' overlap on 'c'") == "overlap"
    assert spans.refusal_reason(
        "member 'a' not reachable by any causal group") == "unreachable"
    assert spans.refusal_reason(
        "member 'a' consumed 2 times by the causal grouping") == \
        "consumed-twice"
    assert spans.refusal_reason("something new") == "other"


def test_traced_command_is_fully_accounted_and_unchanged(tmp_path):
    program = run.import_program()
    corpus = workloads.build("cli-small", 3)
    workloads.write(corpus, str(tmp_path))
    cmd = next(c for c in corpus.commands if c.kind == "bounds")
    plain = run.execute(program.cli.main, cmd.resolved())
    tracer = spans.Tracer()
    with spans.installed(tracer, program):
        traced = run.execute(
            lambda argv: tracer.call("cli.main", program.cli.main, argv),
            cmd.resolved())
    assert traced[:2] == plain[:2]
    assert program.cli.load_caf is program.formats.load_caf  # restored
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "formats.load_caf", "formats.parse_caf",
            "af.build", "causality.build",
            "bounds.extension_bounds"} <= names
    assert run.accounting_gap(tracer) < 1e-9


# -- the manifest -------------------------------------------------------------

def test_manifest_lists_exactly_the_reported_metrics():
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == \
        run.PER_LAYER
    assert [w["name"] for w in manifest["workloads"]] == \
        list(workloads.WORKLOADS)
