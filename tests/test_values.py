"""The seven value types behave as immutable values: ``==`` only within a
class and no ordering, ``hash`` and ``repr`` over the fields, keyword
construction with defaults, ``pickle`` and ``copy`` round trips, and
refused assignment and deletion."""

import copy
import pickle

import pytest

from credalarg import (ArgumentationFramework, CausalityGraph, CredalProfile,
                       CredalSet, FrameworkDocument,
                       ProbabilityInterval, parse_caf)
from credalarg.samples import REPORTED_FIXTURES, ReportedFixture

_FRAMEWORK = ArgumentationFramework(("b", "a", "c"), frozenset({("a", "b")}))
_GRAPH = CausalityGraph(("a", "b", "c"), frozenset({("c", "b")}))
_PROFILE = CredalProfile(2, {"b": CredalSet((1, 0.5)), "c": CredalSet((0, 1)),
                             "a": CredalSet((0.25, 0.75))})


def _document(name=""):
    return FrameworkDocument(_FRAMEWORK, _PROFILE, _GRAPH, name)


# class name -> (make an instance, make an unequal one, its exact repr)
_VALUES = {
    "ArgumentationFramework": (
        lambda: ArgumentationFramework(["b", "a"], {("a", "b")}),
        lambda: ArgumentationFramework(("a", "b")),
        "ArgumentationFramework(arguments=('a', 'b'), "
        "attacks=frozenset({('a', 'b')}))"),
    "CausalityGraph": (
        lambda: CausalityGraph(["b", "a"], {("b", "a")}),
        lambda: CausalityGraph(("a", "b")),
        "CausalityGraph(arguments=('a', 'b'), "
        "edges=frozenset({('b', 'a')}))"),
    "CredalSet": (
        lambda: CredalSet([0.5, 1]), lambda: CredalSet((0.5,)),
        "CredalSet(values=(0.5, 1.0))"),
    "ProbabilityInterval": (
        lambda: ProbabilityInterval(0.1, 0.2),
        lambda: ProbabilityInterval(0.1, 0.3),
        "ProbabilityInterval(lower=0.1, upper=0.2)"),
    "CredalProfile": (
        lambda: CredalProfile.of({"b": (1, 0.5), "a": (0.25, 0.75)}),
        lambda: CredalProfile(2),
        "CredalProfile(agent_count=2, arguments=('a', 'b'), "
        "rows=((0.25, 0.75), (1.0, 0.5)))"),
    "FrameworkDocument": (
        _document, lambda: _document("other"),
        "FrameworkDocument(framework=ArgumentationFramework(arguments="
        "('a', 'b', 'c'), attacks=frozenset({('a', 'b')})), "
        "profile=CredalProfile(agent_count=2, arguments=('a', 'b', 'c'), "
        "rows=((0.25, 0.75), (1.0, 0.5), (0.0, 1.0))), "
        "causality=CausalityGraph("
        "arguments=('a', 'b', 'c'), edges=frozenset({('c', 'b')})), "
        "name='', description='')"),
    "ReportedFixture": (
        lambda: ReportedFixture("cf-4", ("A",),
                                ProbabilityInterval(0.2, 0.75)),
        lambda: REPORTED_FIXTURES[0],
        "ReportedFixture(label='cf-4', members=('A',), "
        "reported=ProbabilityInterval(lower=0.2, upper=0.75))"),
}

# a profile is not hashable, and a document holds one
_UNHASHABLE = {"CredalProfile", "FrameworkDocument"}

_LOADED = "arg(a). arg(b). arg(c).\natt(a,b).\ncau(c,b).\nagents(2).\n" \
    "p(1,a,0.5). p(1,b,1). p(1,c,0.25).\np(2,a,0.75). p(2,b,0). p(2,c,1).\n"


@pytest.fixture(params=sorted(_VALUES))
def value(request):
    return request.param, *_VALUES[request.param]


def test_equality_is_by_fields_within_one_class(value):
    name, make, other, _ = value
    first, second = make(), make()
    assert type(first).__name__ == name
    assert first is not second
    assert first == second and not first != second
    assert first != other() and not first == other()
    assert first != (first,) and first.__eq__(object()) is NotImplemented
    # another value class with the same field values is not equal either
    assert first != _VALUES["CredalSet" if name != "CredalSet"
                            else "ProbabilityInterval"][0]()
    with pytest.raises(TypeError):
        first < second


def test_hash_is_over_the_fields(value):
    name, make, _, _ = value
    if name in _UNHASHABLE:
        with pytest.raises(TypeError):
            hash(make())
    else:
        assert hash(make()) == hash(make())
        assert len({make(), make()}) == 1


def test_repr_names_every_field(value):
    _, make, _, text = value
    assert repr(make()) == text


def test_keyword_construction_and_defaults():
    assert repr(ArgumentationFramework()) == \
        "ArgumentationFramework(arguments=(), attacks=frozenset())"
    assert ArgumentationFramework(arguments=("a",)) == \
        ArgumentationFramework(("a",), frozenset())
    assert repr(CausalityGraph()) == \
        "CausalityGraph(arguments=(), edges=frozenset())"
    assert CausalityGraph(edges=frozenset(), arguments=("a",)) == \
        CausalityGraph(("a",))
    assert CredalSet(values=(0.5,)) == CredalSet((0.5,))
    assert ProbabilityInterval(upper=0.5, lower=0.25) == \
        ProbabilityInterval(0.25, 0.5)
    assert repr(CredalProfile(agent_count=3)) == \
        "CredalProfile(agent_count=3, arguments=(), rows=())"
    document = FrameworkDocument(framework=_FRAMEWORK, profile=_PROFILE,
                                 causality=_GRAPH)
    assert (document.name, document.description) == ("", "")
    assert document == _document()
    assert ReportedFixture(label="x", members=("A",),
                           reported=ProbabilityInterval(0, 1)) == \
        ReportedFixture("x", ("A",), ProbabilityInterval(0, 1))


@pytest.mark.parametrize("round_trip", [
    lambda x: pickle.loads(pickle.dumps(x)),
    lambda x: pickle.loads(pickle.dumps(x, protocol=0)),
    copy.copy, copy.deepcopy,
], ids=["pickle", "pickle protocol 0", "copy", "deepcopy"])
def test_round_trips_give_an_equal_value(value, round_trip):
    _, make, _, text = value
    again = round_trip(make())
    assert again == make() and repr(again) == text


@pytest.mark.parametrize("round_trip", [
    lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
@pytest.mark.parametrize("source", ["loaded", "public"])
def test_documents_survive_round_trips(round_trip, source):
    doc = parse_caf(_LOADED) if source == "loaded" else _document()
    again = round_trip(doc)
    assert again == doc and repr(again) == repr(doc)
    assert again.profile.rows == doc.profile.rows
    assert again.causality.ancestor_masks == doc.causality.ancestor_masks
    assert again.framework.extension_masks("complete") == \
        doc.framework.extension_masks("complete")
    # a copy keeps refusing assignment
    with pytest.raises(AttributeError):
        again.name = "x"


@pytest.mark.parametrize("name, field", [
    ("ArgumentationFramework", "arguments"),
    ("CausalityGraph", "edges"), ("CredalSet", "values"),
    ("ProbabilityInterval", "lower"), ("CredalProfile", "agent_count"),
    ("FrameworkDocument", "name"), ("ReportedFixture", "label"),
])
def test_assignment_and_deletion_are_refused(name, field):
    instance = _VALUES[name][0]()
    before = repr(instance)
    with pytest.raises(AttributeError) as exc:
        setattr(instance, field, None)
    assert str(exc.value) == f"cannot assign to field {field!r}"
    with pytest.raises(AttributeError) as exc:
        delattr(instance, field)
    assert str(exc.value) == f"cannot delete field {field!r}"
    with pytest.raises(AttributeError):
        instance.unknown = 1
    assert repr(instance) == before
