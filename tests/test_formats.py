import json
import random

import pytest

from credalarg import (ArgumentationFramework, CausalityGraph, CredalProfile,
                       FrameworkDocument, ParseError, ValidationError,
                       emit_caf, emit_json, export_dot, extension_bounds,
                       parse_caf)
from credalarg.formats import document_payload, results_payload
from randgen import random_document


class TestParse:
    def test_minimal_document_on_one_line(self):
        doc = parse_caf("arg(A). agents(1). p(1,A,0.5).")
        assert doc.framework.arguments == ("A",)
        assert doc.profile.credal_set("A").values == (0.5,)

    def test_diagnosis_document_round_trips(self, diagnosis):
        text = emit_caf(diagnosis)
        again = parse_caf(text)
        assert again == diagnosis
        assert emit_caf(again) == text  # canonicalization is idempotent

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
            parse_caf("arg(a). arg(b).\ncau(a,b).\ncau(b,a).")
        assert "cycle" in str(err.value)
        assert err.value.line in (2, 3)

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
    def test_document_schema(self, diagnosis):
        data = json.loads(emit_json(document_payload(diagnosis)))
        assert set(data) == {"arguments", "attacks", "causality", "agents",
                             "opinions"}
        assert data["agents"] == 4
        assert ["A", "B"] in data["attacks"]
        assert data["opinions"]["G"] == [0.7, 0.8, 1.0, 0.9]

    def test_empty_framework(self):
        doc = FrameworkDocument(ArgumentationFramework(),
                                CredalProfile(1, {}), CausalityGraph())
        data = json.loads(emit_json(document_payload(doc)))
        assert data["arguments"] == []
        assert data["opinions"] == {}

    def test_singleton_bounds_payload(self, diagnosis):
        result = extension_bounds(("A",), diagnosis.profile,
                                  diagnosis.causality)
        data = json.loads(emit_json(results_payload(None, [result])))
        row = data["extensions"][0]
        assert row["members"] == ["A"]
        assert row["lower"] == 0.2
        assert row["upper"] == 0.75
        assert row["case"] == "singleton"

    def test_output_is_deterministic(self, diagnosis):
        assert emit_json(document_payload(diagnosis)) == \
            emit_json(document_payload(diagnosis))
        assert document_payload(diagnosis) == document_payload(diagnosis)


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


class TestDocumentValidation:
    def test_argument_universe_must_match(self):
        af = ArgumentationFramework(("a",))
        with pytest.raises(ValidationError):
            FrameworkDocument(af, CredalProfile.maximal(("a",)),
                              CausalityGraph(("a", "b")))

    def test_profile_domain_must_match(self):
        af = ArgumentationFramework(("a", "b"))
        with pytest.raises(ValidationError):
            FrameworkDocument(af, CredalProfile.maximal(("a",)),
                              CausalityGraph(("a", "b")))
