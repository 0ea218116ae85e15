import enum
import json
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credalarg import (ArgumentationFramework, CausalCycleError,
                       CausalityGraph, CredalProfile, FrameworkDocument,
                       ParseError, ValidationError, dump_caf, emit_caf,
                       emit_json, export_dot, load_caf, parse_caf)
from credalarg.bounds import document_rows
from credalarg.cli import main
from randgen import random_document
from reference_caf import parse_caf as reference_parse_caf


class TestParse:
    def test_minimal_document_on_one_line(self):
        doc = parse_caf("arg(A). agents(1). p(1,A,0.5).")
        assert doc.framework.arguments == ("A",)
        assert doc.profile.credal_set("A").values == (0.5,)

    def test_diagnosis_document_round_trips(self, diagnosis, tmp_path):
        text = emit_caf(diagnosis)
        again = parse_caf(text)
        assert again == diagnosis
        assert emit_caf(again) == text  # canonicalization is idempotent
        path = str(tmp_path / "diagnosis.caf")
        dump_caf(diagnosis, path)
        assert load_caf(path) == diagnosis

    def test_out_of_range_value(self):
        with pytest.raises(ParseError) as err:
            parse_caf("arg(A).\nagents(1).\np(1,A,1.3).")
        assert err.value.line == 3
        assert "outside" in str(err.value)

    def test_plain_benchmark_defaults_to_all_ones(self):
        doc = parse_caf("arg(a).\narg(b).\natt(a,b).\n")
        assert doc.profile.agent_count == 1
        assert doc.profile.credal_set("a").values == (1.0,)

    def test_declared_agents_without_opinions_default_to_ones(self):
        doc = parse_caf("arg(a). agents(3).")
        assert doc.profile.credal_set("a").values == (1.0, 1.0, 1.0)

    def test_opinions_require_agents_declaration(self):
        with pytest.raises(ParseError) as err:
            parse_caf("arg(a).\np(1,a,0.5).")
        assert err.value.line == 2

    def test_missing_opinion_points_at_the_argument(self):
        text = "arg(a).\narg(b).\nagents(2).\np(1,a,0.1). p(2,a,0.2).\np(1,b,0.3)."
        with pytest.raises(ParseError) as err:
            parse_caf(text)
        assert err.value.line == 2  # b was declared there
        assert "agent 2" in str(err.value)

    def test_duplicate_opinion_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_caf("arg(a). agents(1).\np(1,a,0.5).\np(1,a,0.6).")
        assert err.value.line == 3

    def test_duplicate_agents_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_caf("agents(1).\nagents(2).")
        assert err.value.line == 2

    def test_huge_agent_count_rejected_on_its_line(self):
        with pytest.raises(ParseError) as err:
            parse_caf("arg(a).\nagents(10000000000000000000).")
        assert err.value.line == 2
        assert "agent count" in str(err.value)

    def test_agent_index_beyond_declared_count(self):
        with pytest.raises(ParseError) as err:
            parse_caf("arg(a). agents(1).\np(2,a,0.5).")
        assert err.value.line == 2

    def test_undeclared_argument_in_attack(self):
        with pytest.raises(ParseError) as err:
            parse_caf("arg(a).\natt(a,b).")
        assert err.value.line == 2

    def test_undeclared_argument_in_causal_edge(self):
        with pytest.raises(ParseError) as err:
            parse_caf("arg(a).\ncau(b,a).")
        assert err.value.line == 2

    def test_causal_attack_clash(self):
        with pytest.raises(ParseError) as err:
            parse_caf("arg(a). arg(b).\natt(a,b).\ncau(b,a).")
        assert err.value.line == 3
        assert "clashes" in str(err.value)

    def test_causal_cycle(self):
        with pytest.raises(ParseError) as err:
            parse_caf("arg(a). arg(b).\ncau(b,a).\ncau(a,b).")
        assert str(err.value) == "line 2: causal cycle: a -> b -> a"

    def test_causal_self_edge(self):
        with pytest.raises(ParseError):
            parse_caf("arg(a).\ncau(a,a).")

    def test_syntax_garbage_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_caf("arg(a).\nbogus line here\n")
        assert err.value.line == 2

    def test_bad_arity(self):
        with pytest.raises(ParseError):
            parse_caf("att(a).")

    def test_invalid_name_token(self):
        with pytest.raises(ParseError):
            parse_caf("arg(a-b).")

    def test_comments_and_blank_lines_ignored(self):
        doc = parse_caf("% a comment\n\narg(a). % trailing\n")
        assert doc.framework.arguments == ("a",)

    def test_metadata_comments_round_trip(self):
        doc = parse_caf("% name: demo\n% description: tiny case\narg(a).")
        assert doc.name == "demo"
        assert doc.description == "tiny case"
        assert parse_caf(emit_caf(doc)) == doc

    @pytest.mark.parametrize("data, line, byte", [
        (b"arg(a\xff).\n", 1, 0xff),
        (b"\xfe", 1, 0xfe),
        (b"arg(a).\r\narg(b).\r\n% \xc3\x28\n", 3, 0xc3),
        (b"arg(\xc3\xa9).\n\narg(b).\xe2\x82", 3, 0xe2),
        (b"arg(a).\xc2\x85\xed\xa0\x80", 2, 0xed),
    ])
    def test_file_that_is_not_utf8(self, tmp_path, data, line, byte):
        path = tmp_path / "bad.caf"
        path.write_bytes(data)
        with pytest.raises(ParseError) as err:
            load_caf(str(path))
        assert err.value.line == line
        assert str(err.value) == \
            f"line {line}: byte 0x{byte:02x} is not valid UTF-8"

    def test_load_caf_reads_crlf_like_parse_caf(self, tmp_path):
        text = "% name: n\r\narg(a).\r\narg(b).\ratt(a,b).\r\n"
        path = tmp_path / "crlf.caf"
        path.write_bytes(text.encode())
        assert load_caf(str(path)) == parse_caf(text.replace("\r\n", "\n"))

    def test_canonical_documents_skip_the_statement_loop(self, monkeypatch,
                                                         diagnosis):
        # emit_caf writes canonical text, which the whole-text pass reads
        from credalarg import formats

        def unused(*args, **kwargs):
            raise AssertionError("statement loop used on canonical text")

        rng = random.Random(7)
        docs = [diagnosis] + [random_document(rng) for _ in range(50)]
        monkeypatch.setattr(formats, "_STATEMENT",
                            type("Unused", (), {"match": unused})())
        for doc in docs:
            assert parse_caf(emit_caf(doc)) == doc


class TestCausalCycleLine:
    def test_named_cycle_is_real_and_on_the_lowest_line_of_its_edges(self):
        # one statement per line, some cau statements repeated: an edge's
        # line is its first one
        rng = random.Random(0xC7C)
        cyclic = 0
        for _ in range(400):
            args = [f"n{i}" for i in range(rng.randint(2, 8))]
            edges = [(a, b) for a in args for b in args
                     if a != b and rng.random() < 0.3]
            statements = [f"arg({a})." for a in args]
            statements += [f"cau({a},{b})." for a, b in
                           edges + rng.sample(edges, len(edges) // 3)]
            rng.shuffle(statements)
            first = {}
            for line, statement in enumerate(statements, start=1):
                if statement.startswith("cau"):
                    first.setdefault(tuple(statement[4:-2].split(",")), line)
            try:
                parse_caf("\n".join(statements))
            except ParseError as exc:
                with pytest.raises(CausalCycleError) as named:
                    CausalityGraph(tuple(args), frozenset(edges))
                nodes = named.value.nodes
                assert str(exc) == f"line {exc.line}: {named.value}"
                assert nodes[0] == nodes[-1]
                assert len(set(nodes)) == len(nodes) - 1 >= 2
                cycle = list(zip(nodes, nodes[1:]))
                assert set(cycle) <= set(edges)
                assert exc.line == min(first[e] for e in cycle)
                cyclic += 1
        assert cyclic > 150


class TestRandomRoundTrip:
    def test_two_hundred_documents(self):
        rng = random.Random(1234)
        for _ in range(200):
            doc = random_document(rng, digits=9)
            assert parse_caf(emit_caf(doc)) == doc

    def test_nine_decimal_fidelity(self):
        value = 0.123456789
        doc = parse_caf(f"arg(a). agents(1). p(1,a,{value:.9f}).")
        assert doc.profile.credal_set("a").values[0] == value
        assert f"{value:.9f}" in emit_caf(doc)


class TestJson:
    def test_singleton_bounds_payload(self, diagnosis_caf, capsys):
        assert main(["bounds", "--set", "A", "--format", "json",
                     "--input", diagnosis_caf]) == 0
        data = json.loads(capsys.readouterr().out)
        row = data["extensions"][0]
        assert row["members"] == ["A"]
        assert row["lower"] == 0.2
        assert row["upper"] == 0.75
        assert row["case"] == "singleton"


def _stdlib_json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True)


# every code point, control characters and lone surrogates included
_TEXT = st.text(st.characters(exclude_categories=()), max_size=6)
_LEAF = (st.none() | st.booleans() | st.integers() | st.floats() | _TEXT
         | st.sampled_from([-0.0, 1e16, 5e-324, float("nan"), float("inf"),
                            float("-inf"), True, 1, False, 0, "", "\u00e9"]))
_PAYLOAD = st.dictionaries(_TEXT, st.recursive(
    _LEAF, lambda inner: (st.lists(inner, max_size=5)
                          | st.lists(_TEXT, max_size=5)
                          | st.dictionaries(_TEXT, inner, max_size=5)),
    max_leaves=25))


class Color(enum.IntEnum):
    RED = 1


class TestJsonText:
    """``emit_json`` writes exactly what ``json.dumps`` writes."""

    @settings(max_examples=500, deadline=None)
    @given(_PAYLOAD)
    def test_generated_payloads_match_the_stdlib(self, data):
        assert emit_json(data) == _stdlib_json(data)

    @pytest.mark.parametrize("data", [
        {}, {"a": []}, {"a": {}}, {"a": [[], {}, [[]]]},
        {"\x00\n\"\\\u2028": ["\x1f", "\ud800", "\U0001f600"]},
        {"a": [-0.0, 1e16, 5e-324, float("nan"), float("inf"),
               float("-inf")]},
        {"a": [True, 1, "1", None, 1.0, False, 0]},
        {"b": 1, "a": 2, "B": 3, "": 4, "\u00e9": 5},
    ])
    def test_fixed_payloads_match_the_stdlib(self, data):
        assert emit_json(data) == _stdlib_json(data)

    @pytest.mark.parametrize("data", [
        {"a": ("x", "y")}, {"a": [("x", 1)]}, {"a": Color.RED},
        {"a": [Color.RED, "x"]}, {1: "x", 2: [1]}, {None: 1},
        {True: 1}, {1.5: 2},
    ])
    def test_types_the_writer_does_not_take_match_the_stdlib(self, data):
        assert emit_json(data) == _stdlib_json(data)

    @pytest.mark.parametrize("data", [{1: 1, "a": 2}, {"a": object()}])
    def test_stdlib_errors_are_raised(self, data):
        with pytest.raises(TypeError):
            _stdlib_json(data)
        with pytest.raises(TypeError):
            emit_json(data)

    def test_self_containing_list_raises_as_the_stdlib(self):
        loop = []
        loop.append(loop)
        with pytest.raises(Exception) as expected:
            _stdlib_json({"a": loop})
        with pytest.raises(Exception) as got:
            emit_json({"a": loop})
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)

    def test_cli_payloads_do_not_reach_the_stdlib(self, diagnosis_caf,
                                                  tmp_path, capsys,
                                                  monkeypatch):
        chain = tmp_path / "chain.caf"  # both sides refuse {x,z}
        chain.write_text("arg(x). arg(y). arg(z).\ncau(x,y). cau(y,z).\n")
        commands = [
            ["solve", "--semantics", "co", "--input", diagnosis_caf],
            ["bounds", "--semantics", "cf", "--oracle",
             "--input", diagnosis_caf],
            ["bounds", "--semantics", "cf", "--oracle", "--input", str(chain)],
            ["bounds", "--set", "A", "--input", diagnosis_caf],
            ["rank", "--semantics", "cf", "--input", str(chain)],
            ["check", "--input", diagnosis_caf],
        ]

        def unused(*args, **kwargs):
            raise AssertionError("json.dumps called")

        monkeypatch.setattr(json, "dumps", unused)
        outputs = []
        for argv in commands:
            assert main(argv + ["--format", "json"]) == 0
            outputs.append(capsys.readouterr().out)
        monkeypatch.undo()
        for out in outputs:
            assert out == _stdlib_json(json.loads(out)) + "\n"
        data = [json.loads(out) for out in outputs]
        assert any("error" in e for e in data[2]["extensions"])
        assert any("oracle_error" in e for e in data[2]["extensions"])
        assert data[4]["unranked"]
        assert data[5]["violations"]


class TestDot:
    def test_diagnosis_edges(self, diagnosis):
        dot = export_dot(diagnosis)
        assert "A -> B;" in dot
        assert "D -> A [style=dashed];" in dot
        assert dot.startswith("digraph")

    def test_no_causal_edges_no_dashes(self):
        doc = parse_caf("arg(a). arg(b). att(a,b).")
        assert "dashed" not in export_dot(doc)

    def test_single_argument(self):
        dot = export_dot(parse_caf("arg(lonely)."))
        assert "  lonely;" in dot
        assert "->" not in dot

    def test_keywords_and_leading_digits_are_quoted(self):
        doc = parse_caf("arg(node). arg(1a). arg(graph). arg(Strict). "
                        "arg(nodes). arg(a1). att(node,1a). cau(graph,node).")
        assert export_dot(doc) == (
            'digraph credal_af {\n  "1a";\n  "Strict";\n  a1;\n'
            '  "graph";\n  "node";\n  nodes;\n  "node" -> "1a";\n'
            '  "graph" -> "node" [style=dashed];\n}\n')


class TestDocumentValidation:
    def test_argument_universe_must_match(self):
        af = ArgumentationFramework(("a",))
        with pytest.raises(ValidationError):
            FrameworkDocument(af, CredalProfile.maximal(("a",)),
                              CausalityGraph(("a", "b")))

    @pytest.mark.parametrize("field", ["name", "description"])
    @pytest.mark.parametrize("value", ["demo\narg(zz).", "two\x85lines",
                                       " padded", "padded\t", "a\r"])
    def test_metadata_that_cannot_round_trip_is_rejected(self, diagnosis,
                                                         field, value):
        metadata = {"name": diagnosis.name,
                    "description": diagnosis.description, field: value}
        with pytest.raises(ValidationError):
            FrameworkDocument(diagnosis.framework, diagnosis.profile,
                              diagnosis.causality, **metadata)

    @pytest.mark.parametrize("value", ["", "demo", "a % b", "name: x",
                                       "inner  spaces"])
    def test_metadata_round_trips(self, diagnosis, value):
        doc = FrameworkDocument(diagnosis.framework, diagnosis.profile,
                                diagnosis.causality, value, value)
        assert parse_caf(emit_caf(doc)) == doc

    def test_profile_domain_must_match(self):
        af = ArgumentationFramework(("a", "b"))
        with pytest.raises(ValidationError):
            FrameworkDocument(af, CredalProfile.maximal(("a",)),
                              CausalityGraph(("a", "b")))


# -- differential test against the reference parser ------------------------

_NAMES = ["a", "b", "c", "B_2", "0"]
_BAD_NAMES = ["a-b", "\u00e9", "a b", "", "(a)", "a.b"]
_NUMBERS = ["1", "2", "3", "0", "-1", "+2", "1_0", "\u0661", " 2 ", "0.5",
            "1e-1", ".25", "1.5", "nan", "inf", "-inf", "", "x", "1 2",
            "10000000000000000000"]
_SPACES = ["", "", "", " ", "\t", "\xa0", "\x1f", "\u3000"]
_SEPARATORS = [" ", "", "\n", "\n", "\r\n", "\r", "\x0c", "\x85",
               " % trailing note\n", "%\n", "\n\n"]
_META = ["% name: demo", "%name:x", "% description: a case",
         "  % name:  padded  ", "% note", "% description:", "%% name: y"]
_ARITY = {"arg": 1, "att": 2, "cau": 2, "agents": 1, "p": 3}


def _pad(rng: random.Random, token: str) -> str:
    return rng.choice(_SPACES) + token + rng.choice(_SPACES)


def _statement(rng: random.Random, kw: str, fields: list[str]) -> str:
    """One statement with random padding, and now and then a broken
    keyword, arity, bracket or full stop."""
    roll = rng.random()
    if roll < 0.005:
        kw = rng.choice(["args", "ar g", "P", "bogus", ""])
    elif roll < 0.02:
        fields = fields[:-1] if rng.random() < 0.5 else fields + ["a"]
    body = ",".join(_pad(rng, f) for f in fields)
    text = f"{rng.choice(_SPACES)}{kw}{rng.choice(_SPACES)}({body})"
    roll = rng.random()
    if roll < 0.003:
        text = text[:-1]
    elif roll < 0.006:
        text = text.replace("(", "((", 1)
    return text + ("" if rng.random() < 0.003 else rng.choice(_SPACES) + ".")


def _field(rng: random.Random, kind: str, names: list[str]) -> str:
    if kind == "name":
        return rng.choice(_BAD_NAMES if rng.random() < 0.03 else names)
    return rng.choice(_NUMBERS)


def _fragment_text(rng: random.Random) -> str:
    """A mostly valid document cut into statement fragments: every
    argument, some attacks and causal edges, an agent count and the full
    opinion table, each fragment now and then broken, dropped, repeated
    or swapped for a random one."""
    names = rng.sample(_NAMES, rng.randint(1, len(_NAMES)))
    agents = rng.randint(1, 3)
    statements = [("arg", [a]) for a in names]
    pairs = [(a, b) for a in names for b in names]
    rng.shuffle(pairs)
    cut = rng.randint(0, len(pairs))
    statements += [(rng.choice(["att", "cau"]), list(pair))
                   for pair in pairs[:cut][:6]]
    statements.append(("agents", [str(agents)]))
    statements += [("p", [str(j), a, rng.choice(["0.25", "1", "0", ".7"])])
                   for j in range(1, agents + 1) for a in names]
    if rng.random() < 0.3:
        statements = [s for s in statements if rng.random() > 0.1]
    if statements and rng.random() < 0.3:
        statements.append(rng.choice(statements))
    fragments = []
    for kw, fields in statements:
        if rng.random() < 0.05:
            kinds = {"p": ["number", "name", "number"], "agents": ["number"]}
            fields = [_field(rng, kind, names) for kind in
                      kinds.get(kw, ["name"] * _ARITY[kw])]
        fragments.append(_statement(rng, kw, fields))
    if rng.random() < 0.5:
        rng.shuffle(fragments)
    parts = [rng.choice(_META) + "\n" for _ in range(rng.randint(0, 2))]
    for fragment in fragments:
        parts += [fragment, rng.choice(_SEPARATORS)]
    return "".join(parts)


def _outcome(parse, text: str):
    try:
        doc = parse(text)
    except (ParseError, ValidationError) as exc:
        return type(exc), getattr(exc, "line", None), str(exc)
    return doc, doc.name, doc.description


def _is_cycle(outcome) -> bool:
    return outcome[0] is ParseError and "causal cycle" in outcome[2]


def _matching_outcome(text: str):
    """Our outcome on ``text``, checked against the reference parser's.

    Outcomes must be equal, except when both sides report a causal cycle:
    the reference names the cycle graphlib finds in hash order, so there
    only the error type and family are compared.
    """
    ours = _outcome(parse_caf, text)
    theirs = _outcome(reference_parse_caf, text)
    if not (_is_cycle(ours) and _is_cycle(theirs)):
        assert ours == theirs, text
    return ours


_FAMILIES = ["syntax error", "expects", "invalid argument name",
             "invalid agent count", "invalid agent index",
             "invalid opinion value", "outside", "agent count must be >=",
             "agent count must be <=", "agent index must be >=",
             "duplicate opinion", "duplicate agents", "att uses undeclared",
             "cau uses undeclared", "causal self-edge", "clashes",
             "causal cycle", "require an agents", "exceeds agents",
             "p uses undeclared", "missing the opinion"]


# Statements with a run of n spaces inside the brackets
_WHITESPACE_RUNS = {
    "unclosed p": lambda n: "p(1,A,1" + " " * n + "x.",
    "unclosed arg": lambda n: "arg(A" + " " * n,
    "spaced name": lambda n: "arg(A" + " " * n + "B).",
}


class TestAgainstReference:
    def test_fragment_texts_match_the_reference_parser(self):
        rng = random.Random(0xCAF)
        reached = dict.fromkeys(_FAMILIES + ["ok"], 0)
        for _ in range(4000):
            text = _fragment_text(rng)
            outcome = _matching_outcome(text)
            if outcome[0] is ParseError:
                message = re.sub(r"^line \d+: ", "", outcome[2])
                family = next(f for f in _FAMILIES if f in message)
                reached[family] += 1
            else:
                reached["ok"] += 1
        assert all(reached.values()), reached
        assert reached["ok"] > 200, reached

    @pytest.mark.parametrize("text", [
        "agents().", "agents( ).", "agents(,).", "p(,a,0.5).", "p(1,a,).",
        "att(a).", "arg(a). arg(b). att(a,b). cau(b,a).",
        "arg(a).\targ(b)\xa0.att(a , b).% x\n% name: late",
        "arg(a).\x1farg(b).\x85cau(a,b).\x0ccau(b,a).",
        "arg(a). agents(+2). p(1_0,a,1). p(1,a,nan).",
        "arg(a). agents(\u0661). p(\u0661,a,\u0661).",
        "% name: first\n% name: second\n%description:  d  \narg(a).",
        *[make(40) for make in _WHITESPACE_RUNS.values()],
        "arg(a)   x", "att( a ,  b )",
    ])
    def test_edge_cases_match_the_reference_parser(self, text):
        _matching_outcome(text)

    # canonical in shape, so only the whole-text pass's value checks send
    # them on to the line parser, which words the error
    @pytest.mark.parametrize("text", [
        "agents(0).\n", "agents(10001).\n", "agents(%s).\n" % ("1" * 5000),
        "arg(a).\nagents(1).\np(1,a,1e).\n",
        "arg(a).\nagents(1).\np(1,a,1-2).\n",
        "arg(a).\nagents(1).\np(1,b,0.5).\n",
    ], ids=["agents-0", "agents-10001", "agents-5000-digits", "value-1e",
            "value-1-2", "undeclared-p"])
    def test_canonical_fallbacks_match_the_line_parser(self, text):
        from credalarg import formats

        assert formats._parse_canonical(text) is None
        with pytest.raises(ParseError) as lines:
            formats._parse_lines(text)
        outcome = _matching_outcome(text)
        assert outcome == (ParseError, lines.value.line, str(lines.value))

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_arbitrary_text_raises_only_parse_or_validation_errors(self, text):
        _matching_outcome(text)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(
        ["arg(a).", "arg(b).", "att(a,b).", "cau(b,a).", "agents(1).",
         "p(1,a,0.5).", "p(1,b,1).", "p(2,a,0).", "% name: n", "%",
         "agents().", "arg(a-b).", "arg( a ).", "p(1,a,inf)."]),
        max_size=8), st.lists(st.sampled_from(_SEPARATORS), min_size=8,
                              max_size=8))
    def test_joined_fragments_match_the_reference_parser(self, parts, seps):
        text = "".join(p + s for p, s in zip(parts, seps))
        _matching_outcome(text)


class TestLinearTime:
    # an echo keeps 40 characters of the run, so the text is the same at
    # every length
    @pytest.mark.parametrize("shape, message", [
        ("unclosed p", "syntax error near 'p(1,A,1%s...'" % (" " * 33)),
        ("unclosed arg", "syntax error near 'arg(A'"),
        ("spaced name", "invalid argument name 'A%s...'" % (" " * 39)),
    ])
    def test_whitespace_runs_are_refused_in_linear_time(self, shape,
                                                        message):
        # a pattern that can end a token anywhere in the run rescans it
        # from every position, so doubling the run would quadruple the time
        times = []
        for n in (50_000, 100_000):
            text = _WHITESPACE_RUNS[shape](n)
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                with pytest.raises(ParseError) as err:
                    parse_caf(text)
                best = min(best, time.perf_counter() - start)
            assert str(err.value) == "line 1: " + message
            assert best < 0.25, (n, best)
            times.append(best)
        assert times[1] <= 3 * times[0] + 0.001, times


# a 400,000-letter name, a 4,000-digit agent index, and how an error
# echoes each: at most 40 characters, "..." marking the cut
_LONG_NAME, _LONG_INDEX = "n" * 400_000, "1" * 4000
_NAME_ECHO, _INDEX_ECHO = "n" * 40 + "...", "1" * 40 + "..."
_LONG_ECHOES = {
    "att undeclared": (f"arg(a). att(a,{_LONG_NAME}).",
                       f"att uses undeclared argument '{_NAME_ECHO}'"),
    "cau undeclared": (f"arg(a). cau({_LONG_NAME},a).",
                       f"cau uses undeclared argument '{_NAME_ECHO}'"),
    "self-edge": (f"arg({_LONG_NAME}). cau({_LONG_NAME},{_LONG_NAME}).",
                  f"causal self-edge on '{_NAME_ECHO}'"),
    "clash": (f"arg(a). arg({_LONG_NAME}). att(a,{_LONG_NAME}). "
              f"cau({_LONG_NAME},a).",
              f"causal edge ({_NAME_ECHO},a) clashes with an attack"),
    "duplicate name": (f"arg(a). agents(1). p(1,{_LONG_NAME},1). "
                       f"p(1,{_LONG_NAME},1).",
                       f"duplicate opinion p(1,{_NAME_ECHO},...)"),
    "duplicate index": (f"arg(a). agents(1). p({_LONG_INDEX},a,1). "
                        f"p({_LONG_INDEX},a,1).",
                        f"duplicate opinion p({_INDEX_ECHO},a,...)"),
    "index exceeds": (f"arg(a). agents(1). p({_LONG_INDEX},a,1).",
                      f"agent index {_INDEX_ECHO} exceeds agents(1)"),
    "p undeclared": (f"arg(a). agents(1). p(1,a,1). p(1,{_LONG_NAME},1).",
                     f"p uses undeclared argument '{_NAME_ECHO}'"),
    "missing opinion": (f"arg({_LONG_NAME}). agents(2). "
                        f"p(1,{_LONG_NAME},1).",
                        f"argument '{_NAME_ECHO}' is missing the opinion "
                        "of agent 2"),
    "cycle": (f"arg(a{_LONG_NAME}). arg({_LONG_NAME}). "
              f"cau(a{_LONG_NAME},{_LONG_NAME}). "
              f"cau({_LONG_NAME},a{_LONG_NAME}).",
              f"causal cycle: a{_NAME_ECHO[1:]} -> {_NAME_ECHO} -> "
              f"a{_NAME_ECHO[1:]}"),
}


@pytest.mark.parametrize("text, message", _LONG_ECHOES.values(),
                         ids=_LONG_ECHOES.keys())
def test_long_names_and_indices_are_echoed_clipped(text, message):
    with pytest.raises(ParseError) as err:
        parse_caf(text)
    assert str(err.value) == "line 1: " + message
    _matching_outcome(text)


def _set_field(line: str, index: int, token: str) -> str:
    """``kw(f0,f1,...).`` with field ``index`` replaced by ``token``."""
    kw, _, body = line.partition("(")
    fields = body[:-2].split(",")
    fields[index] = token
    return f"{kw}({','.join(fields)})."


def _line_of(rng: random.Random, lines: list[str], prefix: str) -> int:
    return rng.choice([i for i, line in enumerate(lines)
                       if line.startswith(prefix)])


def _opinion_field(index: int, token: str):
    def mutate(rng, lines, args):
        i = _line_of(rng, lines, "p(")
        lines[i] = _set_field(lines[i], index, token)
    return mutate


def _insert(make):
    def mutate(rng, lines, args):
        for line in make(rng, lines, args):
            lines.insert(rng.randrange(len(lines) + 1), line)
    return mutate


def _space(rng, lines, args):
    i = rng.randrange(len(lines))
    at = rng.randrange(len(lines[i]) + 1)
    lines[i] = lines[i][:at] + " " + lines[i][at:]


def _cycle(rng, lines, args):
    causal = [tuple(line[4:-2].split(",")) for line in lines
              if line.startswith("cau(")]
    a, b = rng.choice(causal) if causal else args[:2]
    return [f"cau({b},{a})."] + ([] if causal else [f"cau({a},{b})."])


def _end(ending: str):
    def mutate(rng, lines, args):
        i = rng.randrange(len(lines))
        lines[i] += ending
    return mutate


def _swap_in_block(rng, lines, args):
    # two opinions of one agent trade lines
    agent = lines[_line_of(rng, lines, "p(")].split(",")[0] + ","
    i, j = rng.sample([k for k, line in enumerate(lines)
                       if line.startswith(agent)], 2)
    lines[i], lines[j] = lines[j], lines[i]


def _move_block(rng, lines, args):
    # one agent's block of opinions moves before an earlier agent's
    agents = list(dict.fromkeys(line.split(",")[0] + "," for line in lines
                                if line.startswith("p(")))
    if len(agents) < 2:
        return
    k = rng.randrange(1, len(agents))
    block = [line for line in lines if line.startswith(agents[k])]
    rest = [line for line in lines if not line.startswith(agents[k])]
    at = rest.index(next(line for line in rest
                         if line.startswith(rng.choice(agents[:k]))))
    lines[:] = rest[:at] + block + rest[at:]


# Changes to canonical text, most of one line. Each keeps the text
# canonical or not, valid or not, as it falls, so both paths meet the
# reference parser.
_MUTATIONS = {
    "space": _space,
    "+2": _opinion_field(0, "+2"),
    "1_0": _opinion_field(0, "1_0"),
    "nan": _opinion_field(2, "nan"),
    "1.5": _opinion_field(2, "1.5"),
    "1e-1": _opinion_field(2, "1e-1"),
    ".25": _opinion_field(2, ".25"),
    "duplicate p": _insert(
        lambda rng, lines, args: [lines[_line_of(rng, lines, "p(")]]),
    "undeclared endpoint": _insert(
        lambda rng, lines, args: [f"att({rng.choice(args)},zz)."]),
    "clash": _insert(lambda rng, lines, args: [
        f"att({args[0]},{args[1]}).", f"cau({args[1]},{args[0]})."]),
    "cycle": _insert(_cycle),
    "blank line": _insert(lambda rng, lines, args: [""]),
    "trailing comment": _end(" % note"),
    "\\r\\n ending": _end("\r"),
    "opinions swapped in a block": _swap_in_block,
    "agent blocks reordered": _move_block,
}


class TestCanonicalPass:
    def test_framework_and_graph_share_one_argument_tuple(self, diagnosis):
        # so a framework mask is a graph mask, on either path
        texts = [emit_caf(diagnosis), "arg(b). arg(a).\natt(a,b).\n",
                 "arg(c).\narg(b).\narg(a).\ncau(c,a).\n"]
        for text in texts:
            for variant in (text, text.replace("\n", " \n")):
                doc = parse_caf(variant)
                assert doc.causality.arguments is doc.framework.arguments
                assert doc.framework.arguments == doc.profile.arguments

    def test_mutated_canonical_texts_match_the_reference_parser(self,
                                                                diagnosis):
        from credalarg import formats

        rng = random.Random(0xFA57)
        docs = [diagnosis] + [random_document(rng) for _ in range(60)]
        paths = {"canonical": 0, "line parser": 0}
        for doc in docs:
            args = list(doc.framework.arguments)
            if len(args) < 2:
                continue
            text = emit_caf(doc)
            variants = [text, text[:-1]]  # the last: no final newline
            for mutate in _MUTATIONS.values():
                lines = text.split("\n")[:-1]
                mutate(rng, lines, args)
                variants.append("\n".join(lines) + "\n")
            for variant in variants:
                _matching_outcome(variant)
                fast = formats._parse_canonical(variant) is not None
                paths["canonical" if fast else "line parser"] += 1
        assert all(paths.values()), paths


# one table three ways: canonical with the blocks in sorted-name order,
# canonical with the blocks in another order, and line-parsed
_TABLE = {"a": [0.25, 1.0, 0.0], "b": [0.5, 0.125, 1e-05],
          "c": [0.1, 0.2, 0.30000000000000004]}
_TABLE_TEXTS = {
    "canonical": "".join(f"arg({n}).\n" for n in "abc") + "agents(3).\n"
    + "".join(f"p({j + 1},{n},{_TABLE[n][j]!r}).\n"
              for j in range(3) for n in "abc"),
    "canonical, unsorted blocks": "".join(f"arg({n}).\n" for n in "cab")
    + "agents(3).\n" + "".join(f"p({j + 1},{n},{_TABLE[n][j]!r}).\n"
                               for j in range(3) for n in "cab"),
    "line parser": "arg(c). arg(a). arg(b). agents(3).\n"
    + " ".join(f"p({j + 1},{n},{_TABLE[n][j]!r})."
               for n in "bca" for j in (2, 0, 1)),
}


class TestProfileRows:
    """The loader hands the profile its value rows by bit and builds no
    credal set; the profile still compares, prints and answers as one
    built from the same table."""

    @pytest.mark.parametrize("path", sorted(_TABLE_TEXTS))
    def test_loaded_profile_is_the_public_one(self, path):
        from credalarg import formats

        text = _TABLE_TEXTS[path]
        assert (formats._parse_canonical(text) is None) == (
            path == "line parser")
        public = CredalProfile.of(_TABLE)
        loaded = parse_caf(text).profile
        assert loaded.arguments == public.arguments == ("a", "b", "c")
        assert loaded.rows == public.rows  # before the sets are made
        assert loaded == public and public == loaded
        assert repr(loaded) == repr(public)
        for name in "abc":
            assert loaded.credal_set(name) == public.credal_set(name)
            assert loaded.credal_set(name).values == tuple(_TABLE[name])
        with pytest.raises(ValidationError) as err:
            loaded.credal_set("d")
        assert str(err.value) == "profile has no opinions for argument 'd'"
        assert loaded.rows == public.rows

    @pytest.mark.parametrize("text", ["arg(b).\narg(a).\nagents(2).\n",
                                      "arg(b).\narg(a).\n", "arg(b). arg(a)."])
    def test_loaded_all_ones_profile_is_the_public_one(self, text):
        count = 2 if "agents" in text else 1
        loaded = parse_caf(text).profile
        from credalarg import CredalSet

        ones = CredalSet((1.0,) * count)
        built = CredalProfile(count, {"b": ones, "a": ones})
        public = CredalProfile.maximal(("b", "a"), count)
        for profile in (loaded, public):
            assert profile == built and built == profile
            assert repr(profile) == repr(built)
            assert profile.arguments == ("a", "b")
            assert profile.rows == built.rows == ((1.0,) * count,) * 2
            assert profile.credal_set("a") == built.credal_set("a")

    def test_canonical_text_builds_no_credal_set(self, monkeypatch,
                                                 diagnosis):
        from credalarg import CredalSet

        made = []
        init, trusted = CredalSet.__init__, CredalSet._trusted.__func__

        def counted_init(self, *args, **kwargs):
            made.append("init")
            init(self, *args, **kwargs)

        def counted_trusted(cls, values):
            made.append("trusted")
            return trusted(cls, values)

        monkeypatch.setattr(CredalSet, "__init__", counted_init)
        monkeypatch.setattr(CredalSet, "_trusted",
                            classmethod(counted_trusted))
        texts = [emit_caf(diagnosis), _TABLE_TEXTS["canonical"],
                 _TABLE_TEXTS["canonical, unsorted blocks"],
                 "arg(a).\narg(b).\natt(a,b).\n"]
        for text in texts:
            doc = parse_caf(text)
            rows = list(document_rows(
                doc, doc.framework.extension_masks("conflict-free")))
            assert rows and made == []
        # each credal_set call makes that one set from its row, unchecked
        assert doc.profile.credal_set("a") == CredalSet((1.0,))
        assert made == ["trusted", "init"]
        doc.profile.credal_set("b")
        assert made == ["trusted", "init", "trusted"]

    def test_document_rows_match_a_public_profile(self):
        rng = random.Random(0x5EED)
        compared = 0
        for _ in range(60):
            doc = random_document(rng, max_args=9)
            loaded = parse_caf(emit_caf(doc))
            assert loaded.profile == doc.profile
            public = FrameworkDocument(loaded.framework, doc.profile,
                                       loaded.causality, loaded.name,
                                       loaded.description)
            for semantics in ("conflict-free", "grounded"):
                masks = loaded.framework.extension_masks(semantics)
                got = [(names, repr(row))
                       for names, row in document_rows(loaded, masks)]
                assert got == [(names, repr(row)) for names, row
                               in document_rows(public, masks)]
                compared += len(got)
        assert compared > 500
