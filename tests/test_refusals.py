"""Every library refusal names its lowest offender: the message follows
neither the hash seed (``PYTHONHASHSEED``) nor the order of the input.
A name it echoes is cut to 40 characters."""

import os
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest

import credalarg
from credalarg import (ArgumentationFramework, CausalityGraph,
                       CredalArgError, CredalProfile, agent_valuation_oracle)
from credalarg.causality import check_attack_disjointness

_FRAMEWORK = ArgumentationFramework(("a", "b", "c"), frozenset({("a", "b")}))

# (call on a member list, a list holding the offenders, the message);
# CredalProfile.of takes the list as the items of its dict, and credal_set
# the list itself as a name
_CASES = {
    "framework": (ArgumentationFramework, ["c-3", "e", "a-1", "b-2"],
                  "ValidationError: invalid argument name: 'a-1'"),
    "graph": (CausalityGraph, ["c-3", "e", "a-1", "b-2"],
              "ValidationError: invalid argument name: 'a-1'"),
    # unknown names before the conflict of a and b
    "extension_mask": (_FRAMEWORK.extension_mask, ["zz", "a", "b", "xx", "yy"],
                       "UnknownArgumentError: unknown argument 'xx'"),
    # invalid names, strings or not, before the unknown zz
    "extension_mask, not a string": (
        _FRAMEWORK.extension_mask, [["l"], "a-b", 2, "zz", "c"],
        "ValidationError: invalid argument name: 'a-b'"),
    "credal_set, not a string": (
        CredalProfile.of({"a": [0.5]}).credal_set, ["a"],
        "ValidationError: profile has no opinions for argument ['a']"),
    # members the profile lacks, each also missing from the graph
    "oracle": (
        lambda members: agent_valuation_oracle(
            members, CredalProfile.of({"a": [0.5]}), CausalityGraph(("a",))),
        ["zz", "a", "xx", "yy", "ww"],
        "ValidationError: profile has no opinions for argument 'ww'"),
    "profile counts": (
        lambda items: CredalProfile.of(dict(items)),
        [("c", [0.1, 0.2, 0.3]), ("a", [0.1, 0.2]), ("d", [0.4]),
         ("b", [0.3])],
        "CredalSetError: credal set for 'b' has 1 opinions, expected 2"),
    "profile opinions": (
        lambda items: CredalProfile.of(dict(items)),
        [("c", [2.0, 0.5]), ("a", [0.5, "x"]), ("b", [None, 0.5])],
        "CredalSetError: opinion 'x' outside [0, 1]"),
}


def _message(call, members) -> str:
    try:
        call(members)
    except CredalArgError as exc:
        return f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # an untyped error is a message of its own
        return f"untyped {type(exc).__name__}: {exc}"
    return "accepted"


@pytest.mark.parametrize("case", sorted(_CASES))
def test_refusal_does_not_depend_on_input_order(case):
    call, members, message = _CASES[case]
    assert {_message(call, list(order))
            for order in permutations(members)} == {message}


# The same refusals from sets of four offenders, whose iteration order
# follows the hash seed; each line is one refusal.
_HASH_SEED_PROBE = r"""
from credalarg import (ArgumentationFramework, CausalityGraph,
                       CredalArgError, CredalProfile)

framework = ArgumentationFramework(("a", "b", "c"), frozenset({("a", "b")}))
invalid = {"a-1", "b-2", "c-3", "d-4", "e"}
unknown = {"ww", "xx", "yy", "zz", "a"}
for call, members in (
        (ArgumentationFramework, invalid), (CausalityGraph, invalid),
        (framework.extension_mask, invalid | {1, 2.5}),
        (framework.extension_mask, unknown),
        (framework.extension_mask, unknown | {"a-b"}),
        (framework.extension_mask, unknown | {"b"}),
        (CredalProfile.of, {name: [0.5] * len(name)
                            for name in {"a", "bb", "ccc", "dddd"}}),
        (CredalProfile.of, {name: [value] for name, value in
                            {("a", "x"), ("b", None), ("c", 2), ("d", "y")}})):
    try:
        call(members)
        print("accepted")
    except CredalArgError as exc:
        print(f"{type(exc).__name__}: {exc}")
    except Exception as exc:
        print(f"untyped {type(exc).__name__}: {exc}")
"""


def test_refusal_does_not_depend_on_the_hash_seed():
    src = str(Path(credalarg.__file__).resolve().parent.parent)
    outputs = set()
    for seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", _HASH_SEED_PROBE],
                              env=env, capture_output=True, text=True,
                              check=True)
        outputs.add(done.stdout)
    assert len(outputs) == 1
    assert outputs.pop().splitlines() == [
        "ValidationError: invalid argument name: 'a-1'",
        "ValidationError: invalid argument name: 'a-1'",
        "ValidationError: invalid argument name: 'a-1'",
        "UnknownArgumentError: unknown argument 'ww'",
        "ValidationError: invalid argument name: 'a-b'",
        "UnknownArgumentError: unknown argument 'ww'",
        "CredalSetError: credal set for 'bb' has 2 opinions, expected 1",
        "CredalSetError: opinion 'x' outside [0, 1]"]


# a 100,000-letter name and how a library error echoes it: at most 40
# characters, "..." marking the cut; 40 letters are echoed whole
_LONG, _ECHO = "n" * 100_000, "n" * 40 + "..."
_FORTY = "m" * 40
_ECHOES = {
    "unknown member": (lambda: _FRAMEWORK.extension_mask(["a", _LONG]),
                       f"UnknownArgumentError: unknown argument '{_ECHO}'"),
    "unknown member of 40": (
        lambda: _FRAMEWORK.extension_mask([_FORTY]),
        f"UnknownArgumentError: unknown argument '{_FORTY}'"),
    "invalid name": (lambda: _FRAMEWORK.extension_mask(["a", "-" + _LONG]),
                     "ValidationError: invalid argument name: "
                     f"'-{_ECHO[1:]}'"),
    "invalid non-string": (lambda: ArgumentationFramework([[1] * 50_000]),
                           "ValidationError: invalid argument name: "
                           f"{repr([1] * 14)[:40]}..."),
    "unknown attack end": (
        lambda: ArgumentationFramework(("a",), {("a", _LONG)}),
        f"UnknownArgumentError: attack (a,{_ECHO}) mentions unknown "
        f"argument '{_ECHO}'"),
    "unknown non-string end": (
        lambda: CausalityGraph(("a",), {(5, "a")}),
        "UnknownArgumentError: causal edge (5,a) mentions unknown "
        "argument 5"),
    "cycle": (lambda: CausalityGraph(("a" + _LONG, _LONG),
                                     {("a" + _LONG, _LONG),
                                      (_LONG, "a" + _LONG)}),
              f"CausalCycleError: causal cycle: a{_ECHO[1:]} -> {_ECHO} -> "
              f"a{_ECHO[1:]}"),
    "self-edge": (lambda: CausalityGraph((_LONG,), {(_LONG, _LONG)}),
                  f"ValidationError: causal self-edge on '{_ECHO}'"),
    "clash": (lambda: check_attack_disjointness(
        CausalityGraph(("a", _LONG), {("a", _LONG)}), {(_LONG, "a")}),
              f"ValidationError: attack ({_ECHO},a) clashes with a causal "
              "edge"),
}


@pytest.mark.parametrize("case", sorted(_ECHOES))
def test_long_names_are_echoed_clipped(case):
    call, message = _ECHOES[case]
    assert _message(lambda _: call(), None) == message


def test_cycle_error_keeps_the_full_names():
    with pytest.raises(credalarg.CausalCycleError) as err:
        CausalityGraph(("a" + _LONG, _LONG),
                       {("a" + _LONG, _LONG), (_LONG, "a" + _LONG)})
    assert err.value.nodes == ("a" + _LONG, _LONG, "a" + _LONG)
    assert len(str(err.value)) < 200
