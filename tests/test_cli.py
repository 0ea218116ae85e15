import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from credalarg import CoverageError, ProbabilityInterval, cli, document_rows
from credalarg.bounds import rank_key
from credalarg.cli import main
from credalarg.credal import is_maximal, rationality_rows
from credalarg.formats import emit_caf, parse_caf
from credalarg.samples import REPORTED_FIXTURES, diagnosis_document
from randgen import kernel_row, random_document

THREE_CYCLE = "arg(A). arg(B). arg(C).\natt(A,B). att(B,C). att(C,A).\n"


@pytest.fixture()
def three_cycle_caf(tmp_path):
    path = tmp_path / "cycle.caf"
    path.write_text(THREE_CYCLE)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_grounded_on_diagnosis(self, capsys, diagnosis_caf):
        code, out, _ = run(capsys, "solve", "--input", diagnosis_caf,
                           "--semantics", "grounded")
        assert code == 0
        assert out == "{C,D,E,F,G,H}\n"

    def test_short_semantics_codes_work(self, capsys, diagnosis_caf):
        code, out, _ = run(capsys, "solve", "--input", diagnosis_caf,
                           "--semantics", "gr")
        assert code == 0 and out == "{C,D,E,F,G,H}\n"

    def test_stable_on_three_cycle_reports_none(self, capsys,
                                                three_cycle_caf):
        code, out, _ = run(capsys, "solve", "--input", three_cycle_caf,
                           "--semantics", "st")
        assert code == 0
        assert out == "no extensions\n"

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "solve", "--input", "nope.caf",
                           "--semantics", "gr")
        assert code == 2
        assert "error" in err

    def test_unknown_semantics_is_a_usage_error(self, capsys, diagnosis_caf):
        code, _, err = run(capsys, "solve", "--input", diagnosis_caf,
                           "--semantics", "weird")
        assert code == 1

    def test_missing_input_is_a_usage_error(self, capsys):
        code, _, _ = run(capsys, "solve", "--semantics", "gr")
        assert code == 1

    def test_cap_exceeded_exits_3(self, capsys, tmp_path):
        lines = [f"arg(a{i:02d})." for i in range(30)]
        path = tmp_path / "big.caf"
        path.write_text("\n".join(lines))
        code, _, err = run(capsys, "solve", "--input", str(path),
                           "--semantics", "cf")
        assert code == 3
        # grounded still works on the same file
        code, out, _ = run(capsys, "solve", "--input", str(path),
                           "--semantics", "gr")
        assert code == 0 and out.count("a0") > 0

    def test_raised_cap_on_many_self_attackers(self, capsys, tmp_path):
        path = tmp_path / "selfish.caf"
        path.write_text("".join(f"arg(s{i}). att(s{i},s{i}).\n"
                                for i in range(1200)))
        code, out, _ = run(capsys, "solve", "--input", str(path),
                           "--semantics", "pr", "--max-args", "2000")
        assert code == 0
        assert out == "{}\n"

    def test_json_output(self, capsys, diagnosis_caf):
        code, out, _ = run(capsys, "solve", "--input", diagnosis_caf,
                           "--semantics", "co", "--format", "json")
        data = json.loads(out)
        assert data["semantics"] == "complete"
        assert data["extensions"] == [
            {"members": ["C", "D", "E", "F", "G", "H"]}]

    def test_json_is_the_json_dumps_text(self, capsys, tmp_path):
        path = tmp_path / "doc.caf"
        texts = [THREE_CYCLE] + [emit_caf(random_document(random.Random(seed)))
                                 for seed in range(40)]
        no_extensions = no_members = 0
        for text in texts:
            path.write_text(text)
            framework = parse_caf(text).framework
            for code, semantics in cli.SEMANTICS_CODES.items():
                _, out, _ = run(capsys, "solve", "--input", str(path),
                                "--semantics", code, "--format", "json")
                extensions = _extension_names(framework, semantics)
                assert out == json.dumps(
                    {"semantics": semantics,
                     "extensions": [{"members": list(names)}
                                    for names in extensions]},
                    indent=2, sort_keys=True) + "\n"
                no_extensions += not extensions
                no_members += any(not names for names in extensions)
        # st on the 3-cycle has no extension, gr on it one with no members
        assert no_extensions and no_members


def _extension_names(framework, semantics):
    """The member names of each extension, in the library's order."""
    masks = framework.extension_masks(semantics)
    return list(map(framework.row_decoder(masks), masks))


def _bounds_entries(doc, extensions, oracle=None,
                    tolerance=cli.DEFAULT_TOLERANCE):
    """The JSON entries of ``bounds`` over ``extensions``, built from the
    library one kernel call a row: ``(entry, result)`` pairs, ``result``
    the ``(lower, upper, case)`` row, or None for a refusal."""
    pairs = []
    for names in extensions:
        entry = {"members": list(names)}
        result = kernel_row(names, doc.profile, doc.causality)
        if isinstance(result, str):
            entry["error"] = result
            result = None
        else:
            entry.update(zip(("lower", "upper", "case"), result))
        if oracle is not None and names:
            try:
                found = oracle(names, doc.profile, doc.causality)
            except CoverageError as exc:
                entry.update(oracle_error=str(exc),
                             oracle_match=result is None)
            else:
                entry.update(oracle_lower=found.lower,
                             oracle_upper=found.upper,
                             oracle_match=result is not None and all(
                                 abs(a - b) <= tolerance for a, b in (
                                     (found.lower, result[0]),
                                     (found.upper, result[1]))))
        pairs.append((entry, result))
    return pairs


def _rank_json(semantics: str, pairs) -> str:
    """The ``json.dumps`` text of ``rank`` over ``_bounds_entries`` pairs:
    accepted rows sorted by ``rank_key``, then the refused ones."""
    ranked = sorted((entry for entry, result in pairs if result is not None),
                    key=lambda entry: rank_key(entry["lower"], entry["upper"],
                                               tuple(entry["members"])))
    return _dumps({
        "semantics": semantics,
        "extensions": [{**entry, "rank": i}
                       for i, entry in enumerate(ranked, start=1)],
        "unranked": [entry for entry, result in pairs if result is None]})


def _dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# documents with and without causal edges, so with and without refusals
BOUNDS_DOCUMENTS = [THREE_CYCLE] + [
    emit_caf(random_document(random.Random(seed))) for seed in range(30)]


class TestBounds:
    def test_explicit_singleton(self, capsys, diagnosis_caf):
        code, out, _ = run(capsys, "bounds", "--input", diagnosis_caf,
                           "--set", "A")
        assert code == 0
        assert "0.200000 0.750000" in out

    def test_grounded_lower_bound(self, capsys, diagnosis_caf):
        code, out, _ = run(capsys, "bounds", "--input", diagnosis_caf,
                           "--semantics", "grounded")
        assert code == 0
        assert "0.011700" in out

    def test_conflicting_set_exits_2(self, capsys, diagnosis_caf):
        code, _, err = run(capsys, "bounds", "--input", diagnosis_caf,
                           "--set", "A,B")
        assert code == 2
        assert "conflict-free" in err

    def test_oracle_column(self, capsys, diagnosis_caf):
        code, out, _ = run(capsys, "bounds", "--input", diagnosis_caf,
                           "--semantics", "gr", "--oracle")
        assert code == 0
        assert "oracle=0.011700,0.088000 ok" in out

    def test_coverage_error_row_is_annotated(self, capsys, tmp_path):
        path = tmp_path / "chain.caf"
        path.write_text("arg(x). arg(y). arg(z).\ncau(x,y). cau(y,z).\n")
        code, out, _ = run(capsys, "bounds", "--input", str(path),
                           "--semantics", "cf")
        assert code == 0
        assert "coverage-error" in out

    def test_explicit_set_coverage_error_exits_2(self, capsys, tmp_path):
        path = tmp_path / "chain.caf"
        path.write_text("arg(x). arg(y). arg(z).\ncau(x,y). cau(y,z).\n")
        doc = parse_caf(path.read_text())
        message = kernel_row(("x", "z"), doc.profile, doc.causality)
        assert message == "member 'x' consumed 2 times by the causal grouping"
        # the row is refused before anything is written, in either format
        for fmt in ("text", "json"):
            assert run(capsys, "bounds", "--input", str(path), "--set",
                       "x,z", "--format", fmt) == \
                (2, "", f"error: {message}\n")

    def test_json_schema(self, capsys, diagnosis_caf):
        code, out, _ = run(capsys, "bounds", "--input", diagnosis_caf,
                           "--set", "A", "--format", "json")
        data = json.loads(out)
        row = data["extensions"][0]
        assert row["lower"] == 0.2 and row["upper"] == 0.75
        assert row["case"] == "singleton"

    def test_paper_fixtures_table(self, capsys):
        code, out, _ = run(capsys, "bounds", "--paper-fixtures")
        assert code == 0
        assert "reported" in out and "computed" in out
        assert "deviates(upper)" in out      # accepted-core upper bound
        assert "deviates(lower)" in out
        assert out.count("matches") == 1     # only the singleton agrees

    def test_paper_fixtures_json(self, capsys):
        code, out, _ = run(capsys, "bounds", "--paper-fixtures",
                           "--format", "json")
        data = json.loads(out)
        assert len(data["fixtures"]) == 5
        core = data["fixtures"][0]
        assert core["reported_upper"] == 0.0806
        assert core["computed_upper"] == pytest.approx(0.088, abs=1e-9)
        # the batched rows give what one checked named set gives
        doc = diagnosis_document()
        for fixture, row in zip(REPORTED_FIXTURES, data["fixtures"]):
            [(_, found)] = document_rows(
                doc, [doc.framework.extension_mask(fixture.members)])
            assert (row["computed_lower"], row["computed_upper"]) == \
                found[:2]

    @pytest.mark.parametrize("tolerance, flagged", [
        ("0.06", {"cf-3": ["lower", "upper"]}), ("1", {})])
    def test_paper_fixtures_tolerance(self, capsys, tolerance, flagged):
        code, out, _ = run(capsys, "bounds", "--paper-fixtures",
                           "--tolerance", tolerance)
        assert code == 0
        rows = [line.split() for line in out.splitlines()[1:]]
        assert len(rows) == 5
        assert {row[0]: row[-1] for row in rows if row[-1] != "matches"} \
            == {label: "deviates(%s)" % ",".join(ends)
                for label, ends in flagged.items()}
        code, out, _ = run(capsys, "bounds", "--paper-fixtures",
                           "--tolerance", tolerance, "--format", "json")
        assert {f["label"]: f["deviates"]
                for f in json.loads(out)["fixtures"] if f["deviates"]} \
            == flagged

    def test_json_is_the_json_dumps_text(self, capsys, tmp_path,
                                         monkeypatch):
        path = tmp_path / "doc.caf"
        oracle = cli.agent_valuation_oracle

        def shifted(*args):  # moves every interval the oracle accepts
            interval = oracle(*args)
            return ProbabilityInterval(interval.lower / 2, interval.upper)

        seen = set()
        for i, text in enumerate(BOUNDS_DOCUMENTS):
            path.write_text(text)
            doc = parse_caf(text)
            src = ("--input", str(path), "--format", "json")
            # every third document runs the shifted oracle, so rows that
            # accept can mismatch it
            check = shifted if i % 3 == 2 else oracle
            monkeypatch.setattr(cli, "agent_valuation_oracle", check)
            for code, semantics in cli.SEMANTICS_CODES.items():
                extensions = _extension_names(doc.framework, semantics)
                for flags, oracle_fn in (((), None),
                                         (("--oracle",), check)):
                    _, out, _ = run(capsys, "bounds", *src,
                                    "--semantics", code, *flags)
                    entries = [entry for entry, _ in _bounds_entries(
                        doc, extensions, oracle_fn)]
                    assert out == _dumps({"semantics": semantics,
                                          "extensions": entries})
                    for entry in entries:
                        seen.update(entry)
                        seen.add(entry.get("case"))
                        seen.add(("match", entry.get("oracle_match")))
            # --set names one accepted conflict-free set
            cf = _extension_names(doc.framework, "conflict-free")
            accepted = [names for names, (_, result) in zip(
                cf, _bounds_entries(doc, cf)) if result is not None]
            named = accepted[len(accepted) // 2]
            _, out, _ = run(capsys, "bounds", *src, "--set", ",".join(named))
            assert out == _dumps({"semantics": None, "extensions": [
                entry for entry, _ in _bounds_entries(doc, [named])]})
        # refusals by both sides, the empty extension, and the oracle both
        # agreeing and disagreeing all occurred
        assert {"error", "oracle_error", "oracle_lower", "empty",
                ("match", True), ("match", False)} <= seen

    def test_refused_row_the_oracle_accepts_is_a_mismatch(
            self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "chain.caf"
        path.write_text("arg(x). arg(y). arg(z).\ncau(x,y). cau(y,z).\n")
        monkeypatch.setattr(cli, "agent_valuation_oracle",
                            lambda *args: ProbabilityInterval(0.25, 0.5))
        argv = ("bounds", "--input", str(path), "--semantics", "cf",
                "--oracle")
        _, out, _ = run(capsys, *argv)
        assert "{x,z} coverage-error: member 'x' consumed 2 times by the " \
            "causal grouping oracle=0.250000,0.500000 MISMATCH\n" in out
        _, out, _ = run(capsys, *argv, "--format", "json")
        assert out == _dumps(json.loads(out))
        assert {"members": ["x", "z"],
                "error": "member 'x' consumed 2 times by the causal "
                         "grouping",
                "oracle_lower": 0.25, "oracle_upper": 0.5,
                "oracle_match": False} in json.loads(out)["extensions"]

    def test_oracle_mismatch_beyond_the_tolerance(self, capsys,
                                                  diagnosis_caf,
                                                  monkeypatch):
        oracle = cli.agent_valuation_oracle

        def shifted(*args):
            interval = oracle(*args)
            return ProbabilityInterval(interval.lower - 0.01,
                                       interval.upper - 0.01)

        monkeypatch.setattr(cli, "agent_valuation_oracle", shifted)
        argv = ("bounds", "--input", diagnosis_caf, "--semantics", "gr",
                "--oracle")
        _, out, _ = run(capsys, *argv)
        assert out.endswith(" MISMATCH\n")
        _, out, _ = run(capsys, *argv, "--format", "json")
        assert json.loads(out)["extensions"][0]["oracle_match"] is False
        _, out, _ = run(capsys, *argv, "--tolerance", "0.02")
        assert out.endswith(" ok\n")
        _, out, _ = run(capsys, *argv, "--tolerance", "0.02",
                        "--format", "json")
        assert json.loads(out)["extensions"][0]["oracle_match"] is True


def _no_attacks(n: int) -> str:
    return "".join(f"arg(a{i:02d}).\n" for i in range(n))


def _expected_json(command: str, doc, semantics: str) -> str:
    """The ``json.dumps`` text of ``solve``, ``bounds`` or ``rank``, built
    from the library, one member tuple and one kernel call per row."""
    extensions = doc.framework.enumerate_extensions(semantics)
    if command == "solve":
        return _dumps({"semantics": semantics, "extensions": [
            {"members": list(names)} for names in extensions]})
    pairs = _bounds_entries(doc, extensions)
    if command == "bounds":
        return _dumps({"semantics": semantics,
                       "extensions": [entry for entry, _ in pairs]})
    return _rank_json(semantics, pairs)


def _expected_text(command: str, doc, semantics: str) -> str:
    """The text output of ``solve``, ``bounds`` or ``rank``, built as
    :func:`_expected_json` builds its JSON."""
    extensions = doc.framework.enumerate_extensions(semantics)
    if command == "solve":
        return "".join("{%s}\n" % ",".join(names)
                       for names in extensions) or "no extensions\n"
    rows = [(",".join(names), names,
             kernel_row(names, doc.profile, doc.causality))
            for names in extensions]
    if command == "bounds":
        return "".join("{%s} coverage-error: %s\n" % (text, result)
                       if isinstance(result, str) else
                       "{%s} %.6f %.6f %s\n" % (text, *result)
                       for text, _, result in rows)
    ranked = sorted((row for row in rows if not isinstance(row[2], str)),
                    key=lambda row: rank_key(*row[2][:2], row[1]))
    return "".join(["%d. {%s} %.6f %.6f\n" % (i, text, *result[:2])
                    for i, (text, _, result) in enumerate(ranked, start=1)]
                   + ["unranked {%s} coverage-error: %s\n" % (text, result)
                      for text, _, result in rows if isinstance(result, str)]
                   ) or "no extensions\n"


def _table_doc(free: int, clique: int = 0, hub: str = "") -> str:
    """Six causally linked arguments (s -> t1, s -> t2, x -> y -> z, whose
    sets hold both refusals: an overlap and a double consumption), beside
    ``free`` isolated ones and a ``clique`` of mutual attackers, under 2
    agents. A ``hub`` h attacks every other argument; under "self" it
    attacks itself too, so it joins no conflict-free set, else one."""
    names = ["s", "t1", "t2", "x", "y", "z", *(f"f{i}" for i in range(free)),
             *(f"k{i}" for i in range(clique))]
    attacks = [(a, b) for a in names[6 + free:] for b in names[6 + free:]
               if a != b]
    if hub:
        attacks += [("h", b) for b in names] + [("h", "h")] * (hub == "self")
        names.append("h")
    lines = [f"arg({name})." for name in names]
    lines += [f"att({a},{b})." for a, b in attacks]
    lines += ["cau(s,t1).", "cau(s,t2).", "cau(x,y).", "cau(y,z).",
              "agents(2)."]
    lines += [f"p({j},{name},{(7 * i + 3 * j) % 10 / 10 + 0.05:g})."
              for j in (1, 2) for i, name in enumerate(names)]
    return "\n".join(lines) + "\n"


class _Sink(io.TextIOBase):
    """A stdout that keeps only the size of each write."""

    def __init__(self):
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return len(text)


class TestStreamedOutput:
    """``solve``, ``bounds`` and ``rank`` write their rows a chunk at a
    time, and the text stays the ``json.dumps`` text."""

    @pytest.mark.parametrize("text, code, semantics, chunk", [
        # 4,096 rows: two chunks of the default size
        pytest.param(_no_attacks(12), "cf", "conflict-free", None,
                     id="two-chunks"),
        # refusals and the empty set, 7 rows a chunk
        pytest.param(emit_caf(diagnosis_document()), "cf", "conflict-free",
                     7, id="refusals-in-small-chunks"),
        # an empty list: stable has no extension on the 3-cycle
        pytest.param(THREE_CYCLE, "st", "stable", None, id="no-extensions"),
        # the grounded row, a single mask
        pytest.param(emit_caf(diagnosis_document()), "gr", "grounded", None,
                     id="grounded"),
        pytest.param(THREE_CYCLE, "gr", "grounded", 1, id="grounded-empty"),
    ])
    @pytest.mark.parametrize("command", ["solve", "bounds", "rank"])
    def test_json_is_the_json_dumps_text(self, capsys, tmp_path,
                                         monkeypatch, command, text, code,
                                         semantics, chunk):
        if chunk is not None:
            monkeypatch.setattr(cli, "CHUNK_ROWS", chunk)
        path = tmp_path / "doc.caf"
        path.write_text(text)
        rc, out, err = run(capsys, command, "--input", str(path),
                           "--semantics", code, "--format", "json")
        assert (rc, err) == (0, "")
        assert out == _expected_json(command, parse_caf(text), semantics)

    # (document, arguments, cf rows): past 256 rows each list of member
    # names is written from the per-byte tables of joined names, led by
    # one to four tables
    @pytest.mark.parametrize("text, n, rows", [
        pytest.param(_table_doc(4), 10, 1024, id="10-args"),
        pytest.param(_table_doc(0, clique=11), 17, 768, id="17-args"),
        pytest.param(_table_doc(0, clique=19), 25, 1280, id="25-args"),
        pytest.param(_table_doc(2, hub="self"), 9, 256, id="256-rows"),
        pytest.param(_table_doc(2, hub="plain"), 9, 257, id="257-rows"),
    ])
    @pytest.mark.parametrize("chunk", [None, 7])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command", ["solve", "bounds", "rank"])
    def test_rows_past_the_table_threshold_match_the_reference(
            self, capsys, tmp_path, monkeypatch, command, fmt, chunk, text,
            n, rows):
        doc = parse_caf(text)
        masks = doc.framework.extension_masks("conflict-free")
        assert (len(doc.framework.arguments), len(masks)) == (n, rows)
        if chunk is not None:
            monkeypatch.setattr(cli, "CHUNK_ROWS", chunk)
        path = tmp_path / "doc.caf"
        path.write_text(text)
        rc, out, err = run(capsys, command, "--input", str(path),
                           "--semantics", "cf", "--format", fmt)
        assert (rc, err) == (0, "")
        expected = (_expected_json if fmt == "json" else _expected_text)(
            command, doc, "conflict-free")
        assert out == expected
        if command != "solve":  # both refusals are written
            assert "overlap on" in out and "consumed 2 times" in out

    def test_text_lines_span_chunks(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "CHUNK_ROWS", 3)
        path = tmp_path / "doc.caf"
        path.write_text(_no_attacks(4))
        framework = parse_caf(_no_attacks(4)).framework
        _, out, _ = run(capsys, "solve", "--input", str(path),
                        "--semantics", "ad")
        assert out == "".join("{%s}\n" % ",".join(e) for e in
                              framework.enumerate_extensions("admissible"))
        _, out, _ = run(capsys, "bounds", "--input", str(path),
                        "--semantics", "ad")
        assert out.splitlines()[0] == "{} 0.000000 1.000000 empty"
        assert len(out.splitlines()) == 16

    def test_rows_are_written_a_chunk_at_a_time(self, tmp_path,
                                                monkeypatch):
        monkeypatch.setattr(cli, "CHUNK_ROWS", 100)
        path = tmp_path / "doc.caf"
        path.write_text(_no_attacks(10))
        for command in ("solve", "bounds"):
            sink = _Sink()
            with contextlib.redirect_stdout(sink):
                assert main([command, "--input", str(path), "--semantics",
                             "cf", "--format", "json"]) == 0
            # 1,024 rows, none longer than 400 characters
            assert len(sink.sizes) > 10
            assert max(sink.sizes) < 100 * 400

    def test_solve_memory_stays_bounded_at_18_arguments(self, tmp_path):
        # 262,144 rows, 44 MB of JSON text, and a traced peak of about
        # 14.4 MiB: one int per row and one chunk of text. Holding every
        # row's names and text, as a writer that joins them once does,
        # peaks at about 113 MiB
        path = tmp_path / "doc.caf"
        path.write_text(_no_attacks(18))
        sink = _Sink()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                rc = main(["solve", "--input", str(path), "--semantics",
                           "ad", "--format", "json"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert sum(sink.sizes) > 40_000_000
        assert peak < 24 * 2**20, peak / 2**20

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads VmHWM from /proc/self/status")
    def test_bounds_peak_rss_stays_bounded_at_18_arguments(self, tmp_path):
        # tracemalloc would make this 262,144-row run about 20x slower, so
        # the bound is on the peak RSS of a one-shot process: about 31 MiB,
        # against 190 MiB for a writer that holds every row. VmHWM counts
        # only the process image after exec, unlike ru_maxrss, which keeps
        # the high-water mark of the process that spawned it
        path = tmp_path / "doc.caf"
        path.write_text(_no_attacks(18))
        probe = ("import sys\n"
                 "from credalarg.cli import main\n"
                 "rc = main(sys.argv[1:])\n"
                 "sys.stdout.flush()\n"
                 "status = open('/proc/self/status').read()\n"
                 "print(rc, status.split('VmHWM:')[1].split()[0],"
                 " file=sys.stderr)\n")
        proc = subprocess.run(
            [sys.executable, "-c", probe, "bounds", "--input", str(path),
             "--semantics", "cf", "--format", "json"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            env=_child_env(), timeout=300)
        rc, peak_kib = map(int, proc.stderr.split())
        assert rc == 0
        assert peak_kib < 64 * 1024, peak_kib / 1024


def _child_env() -> dict:
    """The environment of a child ``python`` that imports this checkout's
    ``credalarg``, with block-buffered stdout."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("module", ["typing", "dataclasses"])
def test_cli_imports_no_typing(module):
    # without site, whose .pth files may import either themselves
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, credalarg.cli\n"
         f"print({module!r} in sys.modules)"],
        capture_output=True, text=True, env=_child_env(), timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


class TestClosedPipe:
    def test_in_process_write_to_a_closed_pipe_exits_0(self, capsys,
                                                       diagnosis_caf):
        class Closed(io.TextIOBase):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        with contextlib.redirect_stdout(Closed()):
            rc = main(["solve", "--input", diagnosis_caf,
                       "--semantics", "cf"])
        assert rc == 0
        assert capsys.readouterr() == ("", "")

    def test_one_shot_reader_closing_early_exits_0(self, tmp_path):
        # block-buffered stdout, so the interpreter's flush at exit would
        # meet the closed pipe too
        path = tmp_path / "doc.caf"
        path.write_text(_no_attacks(12))
        proc = subprocess.Popen(
            [sys.executable, "-m", "credalarg.cli", "solve", "--input",
             str(path), "--semantics", "cf"], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=_child_env())
        proc.stdout.close()  # before the child writes anything
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (0, b"")


class TestCheck:
    def test_diagnosis_diagnostics(self, capsys, diagnosis_caf):
        code, out, _ = run(capsys, "check", "--input", diagnosis_caf)
        assert code == 0
        assert "maximal: no" in out
        assert "uniform: yes" in out
        assert "rationality-violations: 3" in out
        assert "agent 1: attack (D,B)" in out

    def test_strict_mode_fails_on_violations(self, capsys, diagnosis_caf):
        code, _, _ = run(capsys, "check", "--input", diagnosis_caf,
                         "--strict")
        assert code == 2

    def test_all_ones_file_is_maximal(self, capsys, tmp_path):
        path = tmp_path / "ones.caf"
        path.write_text("arg(a). arg(b). att(a,b).\n")
        code, out, _ = run(capsys, "check", "--input", str(path))
        assert code == 0
        assert "maximal: yes" in out
        # full belief in both ends of an attack breaks the rationality rule
        assert "rationality-violations: 1" in out

    def test_strict_passes_without_violations(self, capsys, tmp_path):
        path = tmp_path / "calm.caf"
        path.write_text("arg(a). arg(b). att(a,b). agents(1).\n"
                        "p(1,a,0.9). p(1,b,0.3).\n")
        code, out, _ = run(capsys, "check", "--input", str(path), "--strict")
        assert code == 0
        assert "rationality-violations: 0" in out

    def test_causal_cycle_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "loop.caf"
        path.write_text("arg(a). arg(b).\ncau(a,b). cau(b,a).\n")
        code, _, err = run(capsys, "check", "--input", str(path))
        assert code == 2
        assert "cycle" in err

    def test_json_diagnostics(self, capsys, diagnosis_caf):
        code, out, _ = run(capsys, "check", "--input", diagnosis_caf,
                           "--format", "json")
        data = json.loads(out)
        assert data["agents"] == 4
        assert data["maximal"] is False
        assert len(data["violations"]) == 3

    def test_json_is_the_json_dumps_text(self, capsys, tmp_path, diagnosis):
        path = tmp_path / "doc.caf"
        rng = random.Random(0xC4EC)
        texts = [THREE_CYCLE, emit_caf(diagnosis)] + [
            emit_caf(random_document(rng)) for _ in range(40)]
        keys = ("agent", "attacker", "target", "attacker_value",
                "target_value")
        with_violations = without = 0
        for text in texts:
            path.write_text(text)
            doc = parse_caf(text)
            violations = rationality_rows(doc.profile, doc.framework)
            _, out, _ = run(capsys, "check", "--input", str(path),
                            "--format", "json")
            assert out == json.dumps(
                {"arguments": len(doc.framework.arguments),
                 "attacks": len(doc.framework.attacks),
                 "causal_edges": len(doc.causality.edges),
                 "agents": doc.profile.agent_count,
                 "causality_valid": True,
                 "maximal": is_maximal(doc.profile),
                 "uniform": True,
                 "violations": [dict(zip(keys, v)) for v in violations]},
                indent=2, sort_keys=True) + "\n"
            with_violations += bool(violations)
            without += not violations
        # the 3-cycle has no opinions, so all three attacks are violated
        assert with_violations and without

    def test_huge_agent_count_exits_2(self, capsys, tmp_path):
        path = tmp_path / "crowd.caf"
        path.write_text("arg(a). agents(10000000000000000000).\n")
        code, out, err = run(capsys, "check", "--input", str(path))
        assert code == 2
        assert out == ""
        assert "line 1" in err and "agent count" in err


class TestExportDot:
    def test_contains_both_edge_styles(self, capsys, diagnosis_caf):
        code, out, _ = run(capsys, "export-dot", "--input", diagnosis_caf)
        assert code == 0
        assert "A -> B;" in out
        assert "D -> A [style=dashed];" in out


class TestRank:
    def test_rank_is_deterministic(self, capsys, diagnosis_caf):
        code, first, _ = run(capsys, "rank", "--input", diagnosis_caf,
                             "--semantics", "cf")
        code2, second, _ = run(capsys, "rank", "--input", diagnosis_caf,
                               "--semantics", "cf")
        assert code == code2 == 0
        assert first == second
        assert first.splitlines()[0].startswith("1. ")

    def test_rank_json(self, capsys, diagnosis_caf):
        code, out, _ = run(capsys, "rank", "--input", diagnosis_caf,
                           "--semantics", "gr", "--format", "json")
        data = json.loads(out)
        assert data["extensions"][0]["rank"] == 1

    def test_unranked_rows_are_the_refused_bounds_rows(self, capsys,
                                                       tmp_path):
        path = tmp_path / "rand12.caf"
        path.write_text(emit_caf(random_document(random.Random(12))))
        src = ("--input", str(path), "--semantics", "cf")
        _, bounds_out, _ = run(capsys, "bounds", *src)
        _, rank_out, _ = run(capsys, "rank", *src)
        refused = [line for line in bounds_out.splitlines()
                   if "coverage-error" in line]
        assert refused
        assert [line for line in rank_out.splitlines()
                if line.startswith("unranked ")] \
            == ["unranked " + line for line in refused]

        _, bounds_out, _ = run(capsys, "bounds", *src, "--format", "json")
        _, rank_out, _ = run(capsys, "rank", *src, "--format", "json")
        entries = json.loads(bounds_out)["extensions"]
        ranked = json.loads(rank_out)["extensions"]
        assert json.loads(rank_out)["unranked"] \
            == [e for e in entries if "error" in e]
        accepted = [e for e in entries if "error" not in e]
        assert sorted([{k: v for k, v in e.items() if k != "rank"}
                       for e in ranked], key=json.dumps) \
            == sorted(accepted, key=json.dumps)
        assert [e["rank"] for e in ranked] == list(range(1, len(ranked) + 1))


    def test_json_is_the_json_dumps_text(self, capsys, tmp_path):
        path = tmp_path / "doc.caf"
        with_unranked = without = 0
        for text in BOUNDS_DOCUMENTS:
            path.write_text(text)
            doc = parse_caf(text)
            for code, semantics in cli.SEMANTICS_CODES.items():
                _, out, _ = run(capsys, "rank", "--input", str(path),
                                "--semantics", code, "--format", "json")
                pairs = _bounds_entries(
                    doc, _extension_names(doc.framework, semantics))
                assert out == _rank_json(semantics, pairs)
                refused = any(result is None for _, result in pairs)
                with_unranked += refused
                without += not refused
        assert with_unranked and without

    def test_order_is_the_rank_key_order_ties_included(
            self, capsys, tmp_path):
        # {}, {a}, {b}, {c}, {a,d}, {b,d} and {c,d} all have midpoint 0.5,
        # through three different intervals, so the members break the ties
        path = tmp_path / "ties.caf"
        path.write_text("arg(a). arg(b). arg(c). arg(d). agents(2).\n"
                        "p(1,a,0.5). p(2,a,0.5). p(1,b,0.5). p(2,b,0.5).\n"
                        "p(1,c,0.2). p(2,c,0.8). p(1,d,1). p(2,d,1).\n")
        src = ("--input", str(path), "--semantics", "cf", "--format", "json")
        _, bounds_out, _ = run(capsys, "bounds", *src)
        _, rank_out, _ = run(capsys, "rank", *src)
        rows = [(e["lower"], e["upper"], tuple(e["members"]))
                for e in json.loads(bounds_out)["extensions"]]
        ranked = json.loads(rank_out)["extensions"]
        assert [e["members"] for e in ranked] == \
            [list(row[2]) for row in sorted(rows, key=lambda row:
                                            rank_key(*row))]
        midpoints = [(e["lower"] + e["upper"]) / 2 for e in ranked]
        assert midpoints.count(0.5) == 7


    @pytest.mark.parametrize("extra", [
        pytest.param((), id="64-rows"),
        pytest.param(("a00", "a_0", "b"), id="512-rows"),
    ])
    def test_prefix_names_tie_in_the_rank_key_order(self, capsys, tmp_path,
                                                    extra):
        # no opinions, so every non-empty set has the interval (1, 1) and
        # one midpoint: only the member lists order the rows, across
        # sizes, and many of the names are prefixes of others. 6 names
        # decode one mask at a time, 9 through the per-byte tables
        names = ("a", "a0", "a_", "aa", "A", "Z9", *extra)
        text = "".join(f"arg({name}).\n" for name in names)
        path = tmp_path / "prefixes.caf"
        path.write_text(text)
        doc = parse_caf(text)
        extensions = doc.framework.enumerate_extensions("conflict-free")
        assert len(extensions) == 2 ** len(names)
        order = sorted(extensions, key=lambda members: rank_key(*kernel_row(
            members, doc.profile, doc.causality)[:2], members))
        assert {kernel_row(members, doc.profile, doc.causality)[:2]
                for members in order[:-1]} == {(1.0, 1.0)}
        src = ("--input", str(path), "--semantics", "cf")
        _, out, _ = run(capsys, "rank", *src, "--format", "json")
        assert [tuple(e["members"]) for e in json.loads(out)["extensions"]] \
            == order
        _, out, _ = run(capsys, "rank", *src)
        assert [tuple(filter(None, line.split()[1][1:-1].split(",")))
                for line in out.splitlines()] == order


MALFORMED_DOCUMENTS = [
    "arg(.",                              # unparsable statement
    "arg(a). att(a,b).",                  # undeclared attack endpoint
    "arg(a). agents(0).",                 # bad agent count
    "arg(a). agents(1). p(1,a,2).",       # out-of-range opinion
    "arg(a). agents(1). p(2,a,0.5).",     # agent index too large
    "arg(a). arg(b). att(a,b). cau(a,b).",  # attack/causal clash
    "arg(a). arg(b). cau(a,b). cau(b,a).",  # causal cycle
    "arg(a). agents(2). p(1,a,0.5).",     # missing opinion
    # an error echoes at most 40 characters of a name or an index
    pytest.param("arg(a). att(a,%s)." % ("n" * 400_000),
                 id="long undeclared name"),
    pytest.param("arg(a). agents(1). p(%s,a,1)." % ("1" * 4000),
                 id="long agent index"),
    pytest.param("arg({m}). arg({n}). cau({m},{n}). cau({n},{m})."
                 .format(m="m" * 100_000, n="n" * 100_000),
                 id="causal cycle of long names"),
]


@pytest.mark.parametrize("text", MALFORMED_DOCUMENTS)
def test_malformed_documents_always_exit_2(capsys, tmp_path, text):
    path = tmp_path / "bad.caf"
    path.write_text(text)
    for command in (["solve", "--semantics", "gr"], ["check"],
                    ["export-dot"]):
        code, _, err = run(capsys, *command, "--input", str(path))
        assert code == 2
        assert "error" in err
        assert len(err.encode()) < 1024, len(err)


def test_file_that_is_not_utf8_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.caf"
    path.write_bytes(b"arg(a).\narg(b\xff).\n")
    for command in (["solve", "--semantics", "gr"], ["check"],
                    ["bounds", "--semantics", "cf"], ["export-dot"]):
        code, out, err = run(capsys, *command, "--input", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: line 2: byte 0xff is not valid UTF-8\n"


def test_unknown_member_in_explicit_set_exits_2(capsys, diagnosis_caf):
    code, _, _ = run(capsys, "bounds", "--input", diagnosis_caf,
                     "--set", "A,nope")
    assert code == 2


@pytest.mark.parametrize("members, message", [
    ("n" * 100_000, "unknown argument '%s...'" % ("n" * 40)),
    ("A," + "-" * 100_000, "invalid argument name: '%s...'" % ("-" * 40)),
    ("n" * 40, "unknown argument '%s'" % ("n" * 40)),
], ids=["long unknown name", "long invalid name", "40 letters"])
def test_explicit_set_echoes_a_name_clipped(capsys, diagnosis_caf, members,
                                            message):
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "bounds", "--input", diagnosis_caf,
                             "--set", members, "--format", fmt)
        assert (code, out, err) == (2, "", f"error: {message}\n")


_LONG = "X" * 100_000


@pytest.mark.parametrize("edges, members, message", [
    (f"cau({_LONG},y). cau(y,z).", f"{_LONG},z",
     "member '%s...' consumed 2 times by the causal grouping" % ("X" * 40)),
    (f"cau({_LONG},y). cau({_LONG},z).", f"{_LONG},y,z",
     "causal groups anchored at 'y' and 'z' overlap on '%s...'" % ("X" * 40)),
], ids=["consumed twice", "overlap"])
def test_refused_explicit_set_echoes_names_clipped(capsys, tmp_path, edges,
                                                   members, message):
    path = tmp_path / "long.caf"
    path.write_text(f"arg({_LONG}). arg(y). arg(z). {edges}\n")
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "bounds", "--input", str(path),
                             "--set", members, "--format", fmt)
        assert (code, out, err) == (2, "", f"error: {message}\n")
    # a bounds --semantics row keeps the whole name
    _, out, _ = run(capsys, "bounds", "--input", str(path), "--semantics",
                    "cf")
    full = message.replace("X" * 40 + "...", _LONG)
    assert f" coverage-error: {full}\n" in out


class TestUsage:
    def test_no_command_is_a_usage_error(self, capsys):
        assert run(capsys, )[0] == 1

    def test_bad_max_args(self, capsys, diagnosis_caf):
        code, _, _ = run(capsys, "solve", "--input", diagnosis_caf,
                         "--semantics", "gr", "--max-args", "0")
        assert code == 1

    def test_bad_tolerance(self, capsys, diagnosis_caf):
        code, _, _ = run(capsys, "bounds", "--input", diagnosis_caf,
                         "--set", "A", "--tolerance", "-1")
        assert code == 1

    def test_nan_tolerance_is_a_usage_error(self, capsys):
        # NaN fails every comparison, so every row would read "matches"
        code, out, err = run(capsys, "bounds", "--paper-fixtures",
                             "--tolerance", "nan")
        assert code == 1
        assert out == ""
        assert "--tolerance must be > 0" in err

    def test_paper_fixtures_with_input_is_a_usage_error(self, capsys):
        # the fixtures are bundled, so the file would never be opened
        code, out, err = run(capsys, "bounds", "--paper-fixtures",
                             "--input", "missing.caf")
        assert code == 1
        assert out == ""
        assert "--paper-fixtures reads no --input" in err

    def test_export_dot_as_json_is_a_usage_error(self, capsys,
                                                 diagnosis_caf):
        code, out, err = run(capsys, "export-dot", "--input", diagnosis_caf,
                             "--format", "json")
        assert code == 1
        assert out == ""
        assert "export-dot writes DOT only, not --format json" in err

    @pytest.mark.parametrize("argv", [
        ("solve", "--semantics", "gr", "--tolerance", "5"),
        ("check", "--max-args", "3"),
        ("export-dot", "--tolerance", "0.5", "--max-args", "1"),
        ("rank", "--semantics", "cf", "--tolerance", "7"),
        # bounds reads the cap only when it enumerates a semantics
        ("bounds", "--set", "A", "--max-args", "3"),
        ("bounds", "--paper-fixtures", "--max-args", "3"),
        # and the tolerance only when it compares intervals
        ("bounds", "--semantics", "cf", "--tolerance", "0.5"),
        ("bounds", "--set", "A", "--tolerance", "0.5"),
        # the fixtures compare with their reported values, not the oracle
        ("bounds", "--paper-fixtures", "--oracle"),
    ])
    def test_flag_the_command_does_not_read_is_a_usage_error(
            self, capsys, diagnosis_caf, argv):
        if "--paper-fixtures" not in argv:
            argv += ("--input", diagnosis_caf)
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        if argv[0] != "bounds":
            message = "unrecognized arguments"
        elif "--tolerance" in argv:
            message = "--tolerance needs --oracle or --paper-fixtures"
        elif "--oracle" in argv:
            message = "--paper-fixtures reads no --oracle"
        else:
            message = "%s reads no --max-args" % argv[1]
        assert message in err

    def test_set_and_semantics_conflict(self, capsys, diagnosis_caf):
        code, _, _ = run(capsys, "bounds", "--input", diagnosis_caf,
                         "--set", "A", "--semantics", "gr")
        assert code == 1

    def test_repeated_calls_print_the_same_bytes(self, capsys,
                                                 diagnosis_caf):
        # main keeps one parser per process: no call may change the next.
        # Usage errors found after parsing print the top-level usage line,
        # as argparse does for unrecognized arguments
        usage = ("usage: credalarg [-h] "
                 "{solve,bounds,check,export-dot,rank} ...")
        src = ("--input", diagnosis_caf)
        errors = {
            ("solve", *src, "--semantics", "xx"):
                "unknown semantics 'xx' (use one of cf|ad|co|pr|gr|st)",
            ("solve", *src, "--semantics", "gr", "--max-args", "0"):
                "--max-args must be >= 1",
            ("bounds", "--paper-fixtures", "--bogus"):
                "unrecognized arguments: --bogus",
            (): "the following arguments are required: command",
        }
        calls = [("solve", *src, "--semantics", "gr"), *errors,
                 ("--help",), ("solve", "--help")]
        first, second = [[run(capsys, *argv) for argv in calls]
                         for _ in range(2)]
        assert first == second
        assert first[0] == (0, "{C,D,E,F,G,H}\n", "")
        for (code, out, err), message in zip(first[1:], errors.values()):
            assert (code, out) == (1, "")
            assert err == f"{usage}\ncredalarg: error: {message}\n"
        for (code, out, err), prog in zip(first[-2:], ("credalarg",
                                                      "credalarg solve")):
            assert (code, err) == (0, "")
            assert out.startswith(f"usage: {prog} [-h]")

        bounds = ("bounds", *src, "--semantics", "cf")
        _, with_oracle, _ = run(capsys, *bounds, "--oracle")
        _, plain, _ = run(capsys, *bounds)
        assert " oracle=" in with_oracle
        assert plain and " oracle=" not in plain

    def test_byte_determinism(self, capsys, diagnosis_caf):
        args = ("bounds", "--input", diagnosis_caf, "--semantics", "cf",
                "--format", "json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second
