"""Reference answers and output checks, kept apart from the path under test.

Extension lists come from closed forms for the structured families, from
per-component products for the component documents, from the set-based
brute force in ``tests/bruteforce.py`` for frameworks small enough to walk
every subset, and from a counting-queue labelling for grounded extensions.
Every interval is compared with ``agent_valuation_oracle``, which shares
no aggregation code with ``extension_bounds``. None of this code runs in a
timed region.
"""

from __future__ import annotations

import itertools
import json
import math
import re

from workloads import SEMANTICS, Cmd, Doc

JSON_TOL = 1e-9
TEXT_TOL = 5e-7 + 1e-9  # text output rounds to six decimals
BRUTEFORCE_MAX = 12     # 2^12 subsets: still quick in plain Python


class CheckFailure(Exception):
    """An output that disagrees with its reference."""


def _canonical(sets) -> list[tuple[str, ...]]:
    return sorted({tuple(sorted(s)) for s in sets}, key=lambda m: (len(m), m))


def _product(choices: list[list[tuple[str, ...]]]) -> list[tuple[str, ...]]:
    return _canonical(tuple(itertools.chain.from_iterable(pick))
                      for pick in itertools.product(*choices))


class References:
    """Lazily computed, cached reference answers for one corpus."""

    def __init__(self, bruteforce, program):
        self.bf = bruteforce
        self.program = program  # the imported credalarg package
        self._ext: dict[tuple[str, str], list[tuple[str, ...]]] = {}
        self._intervals: dict[tuple[str, tuple[str, ...]], object] = {}
        self._objects: dict[str, tuple] = {}

    # -- extensions ------------------------------------------------------

    def extensions(self, doc: Doc, code: str) -> list[tuple[str, ...]]:
        key = (doc.path, code)
        if key not in self._ext:
            self._ext[key] = self._compute(doc, code)
        return self._ext[key]

    def cf_count(self, doc: Doc) -> int:
        """Number of conflict-free sets, the work a full subset walk visits."""
        if doc.family == "noattack":
            return 2 ** len(doc.args)
        if doc.family == "components":
            return math.prod(len(part) + 1 for part in doc.shape)
        if doc.family in ("deep", "self-attacks") or not doc.args:
            return 0  # only ever solved under grounded: no subset walk
        return len(self.extensions(doc, "cf"))

    def _compute(self, doc: Doc, code: str) -> list[tuple[str, ...]]:
        args = sorted(doc.args)
        if code == "gr":
            return [tuple(sorted(grounded(doc.args, doc.attacks)))]
        family = doc.family
        if family == "noattack":
            if code in ("cf", "ad"):
                return [c for r in range(len(args) + 1)
                        for c in itertools.combinations(args, r)]
            return [tuple(args)]
        if family == "chain":
            accepted = doc.shape[0][::2]
            if code == "ad":
                return [tuple(sorted(accepted[:j]))
                        for j in range(len(accepted) + 1)]
            if code != "cf":
                return [tuple(sorted(accepted))]
        if family == "cycle":
            order = doc.shape[0]
            halves = [tuple(sorted(order[0::2])), tuple(sorted(order[1::2]))]
            odd = len(order) % 2
            if code in ("ad", "co"):
                return [()] if odd else _canonical([()] + halves)
            if code == "pr":
                return [()] if odd else _canonical(halves)
            if code == "st":
                return [] if odd else _canonical(halves)
        if family == "pairs":
            if code in ("ad", "co", "cf"):
                return _product([[(), (a,), (b,)] for a, b in doc.shape])
            if code in ("pr", "st"):
                return _product([[(a,), (b,)] for a, b in doc.shape])
        if family == "clique":
            singles = [(a,) for a in args]
            return singles if code in ("pr", "st") else [()] + singles
        if family == "components":
            # no attacks between components: cf and ad factor exactly
            per_part = []
            for part in doc.shape:
                inner = [e for e in doc.attacks if e[0] in part]
                sem = self.bf.bf_semantics(sorted(part), inner)
                per_part.append([tuple(s) for s in sem[SEMANTICS[code]]])
            return _product(per_part)
        if len(args) <= BRUTEFORCE_MAX:
            sem = self.bf.bf_semantics(args, doc.attacks)
            return _canonical(sem[SEMANTICS[code]])
        return self._from_conflict_free(doc, code)

    def _from_conflict_free(self, doc: Doc, code: str):
        """Definitions applied to an independent walk of the cf sets."""
        attackers = {a: frozenset(x for x, y in doc.attacks if y == a)
                     for a in doc.args}
        cf = conflict_free_sets(doc.args, doc.attacks)
        everyone = set(doc.args)
        defends = self.bf.bf_defends

        def stable(s):
            return all(attackers[a] & s for a in everyone - s)

        if code == "cf":
            found = cf
        elif code == "ad":
            found = [s for s in cf
                     if all(defends(s, a, attackers) for a in s)]
        elif code == "co":
            found = [s for s in cf
                     if s == {a for a in everyone
                              if defends(s, a, attackers)}]
        elif code == "st" or (code == "pr" and _symmetric(doc)):
            # a symmetric framework without self-attacks is coherent:
            # its preferred extensions are exactly its stable ones
            found = [s for s in cf if stable(s)]
        else:
            complete = self.extensions(doc, "co")
            sets = [frozenset(c) for c in complete]
            found = [s for s in sets if not any(s < t for t in sets)]
        return _canonical(found)

    # -- intervals -------------------------------------------------------

    def _program_objects(self, doc: Doc):
        if doc.path not in self._objects:
            p = self.program
            agents = doc.agents or 1
            table = doc.opinions or {a: [1.0] * agents for a in doc.args}
            self._objects[doc.path] = (
                p.CredalProfile(agents, {a: p.CredalSet(tuple(v))
                                         for a, v in table.items()}),
                p.CausalityGraph(tuple(doc.args), frozenset(doc.causal)))
        return self._objects[doc.path]

    def interval(self, doc: Doc, members: tuple[str, ...]):
        """(lower, upper) from the oracle, or None when it refuses."""
        key = (doc.path, members)
        if key not in self._intervals:
            if not members:
                self._intervals[key] = (0.0, 1.0)
            else:
                profile, graph = self._program_objects(doc)
                try:
                    iv = self.program.agent_valuation_oracle(
                        members, profile, graph)
                    self._intervals[key] = (iv.lower, iv.upper)
                except self.program.CoverageError:
                    self._intervals[key] = None
        return self._intervals[key]


def _symmetric(doc: Doc) -> bool:
    attacks = set(doc.attacks)
    return all((b, a) in attacks and a != b for a, b in attacks)


def conflict_free_sets(args, attacks) -> list[frozenset]:
    """All conflict-free sets by a set-based include/exclude walk."""
    order = sorted(args)
    clash = {a: set() for a in order}
    selfish = set()
    for a, b in attacks:
        if a == b:
            selfish.add(a)
        clash[a].add(b)
        clash[b].add(a)
    out: list[frozenset] = []
    stack = [(0, frozenset(), frozenset())]
    while stack:
        i, chosen, blocked = stack.pop()
        if i == len(order):
            out.append(chosen)
            continue
        a = order[i]
        stack.append((i + 1, chosen, blocked))
        if a not in blocked and a not in selfish:
            stack.append((i + 1, chosen | {a}, blocked | clash[a]))
    return out


def grounded(args, attacks) -> set[str]:
    """Grounded extension by labelling with attacker counters (O(n + m))."""
    attackers = {a: set() for a in args}
    targets = {a: set() for a in args}
    for a, b in attacks:
        attackers[b].add(a)
        targets[a].add(b)
    live = {a: len(attackers[a]) for a in args}
    accepted, rejected = set(), set()
    queue = [a for a in args if live[a] == 0]
    while queue:
        a = queue.pop()
        accepted.add(a)
        for b in targets[a]:
            if b in rejected:
                continue
            rejected.add(b)
            for c in targets[b]:
                live[c] -= 1
                if live[c] == 0 and c not in accepted and c not in rejected:
                    queue.append(c)
    return accepted


def violations(doc: Doc) -> list[tuple]:
    if doc.opinions is None:
        return []
    found = []
    for a, b in set(doc.attacks):
        for j in range(doc.agents):
            va, vb = doc.opinions[a][j], doc.opinions[b][j]
            if va > 0.5 and vb > 0.5:
                found.append((j + 1, a, b, va, vb))
    return sorted(found)


def expected_dot(doc: Doc) -> str:
    lines = ["digraph credal_af {"]
    lines += [f"  {a};" for a in sorted(doc.args)]
    lines += [f"  {a} -> {b};" for a, b in sorted(set(doc.attacks))]
    lines += [f"  {a} -> {b} [style=dashed];"
              for a, b in sorted(set(doc.causal))]
    return "\n".join(lines + ["}"]) + "\n"


# -- output parsing ----------------------------------------------------------

_SET = re.compile(r"\{([^}]*)\}")


def _members(token: str) -> tuple[str, ...]:
    match = _SET.fullmatch(token)
    if not match:
        raise CheckFailure(f"not a member set: {token!r}")
    return tuple(match.group(1).split(",")) if match.group(1) else ()


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def _close(got: float, want: float, tol: float, what: str) -> None:
    _expect(abs(got - want) <= tol, f"{what}: {got!r} vs oracle {want!r}")


class Checker:
    """Checks one command's exit code and output against the references."""

    def __init__(self, refs: References, fixtures=(), diagnosis=None):
        self.refs = refs
        self.fixtures = fixtures  # credalarg.samples.REPORTED_FIXTURES
        self.diagnosis = diagnosis  # the cli-small copy of that scenario

    def check(self, cmd: Cmd, rc: int, out: str) -> None:
        expect = self._exit_code(cmd)
        _expect(rc == expect, f"exit code {rc}, expected {expect}")
        strict_report = cmd.kind == "check" and cmd.expect is None
        if rc != 0 and not strict_report:
            _expect(out == "", "error exit wrote to stdout")
            return
        getattr(self, "_" + cmd.kind.replace("-", "_"))(cmd, out)

    def _exit_code(self, cmd: Cmd) -> int:
        if cmd.expect is not None:
            return cmd.expect
        if cmd.kind == "check":  # --strict fails on rationality violations
            return 2 if violations(cmd.doc) else 0
        # an explicit set the causal grouping refuses is an input error
        members = tuple(sorted(cmd.explicit))
        refused = members and self.refs.interval(cmd.doc, members) is None
        return 2 if refused else 0

    def _target_sets(self, cmd: Cmd) -> list[tuple[str, ...]]:
        if cmd.explicit is not None:
            return [tuple(sorted(cmd.explicit))]
        return self.refs.extensions(cmd.doc, cmd.sem)

    def _solve(self, cmd: Cmd, out: str) -> None:
        if cmd.fmt == "json":
            data = json.loads(out)
            _expect(data["semantics"] == SEMANTICS[cmd.sem], "semantics")
            got = [tuple(e["members"]) for e in data["extensions"]]
        elif out == "no extensions\n":
            got = []
        else:
            got = [_members(line) for line in out.splitlines()]
        want = self.refs.extensions(cmd.doc, cmd.sem)
        _expect(len(got) == len(want),
                f"{len(got)} extensions, reference has {len(want)}")
        _expect(got == want, "extensions differ from the reference")

    def _entry_interval(self, cmd, members, lower, upper, tol) -> None:
        want = self.refs.interval(cmd.doc, members)
        _expect(want is not None, f"{members}: oracle refuses, program not")
        _close(lower, want[0], tol, f"{members} lower")
        _close(upper, want[1], tol, f"{members} upper")

    def _bounds(self, cmd: Cmd, out: str) -> None:
        oracle = "--oracle" in cmd.argv
        targets = self._target_sets(cmd)
        if cmd.fmt == "json":
            entries = json.loads(out)["extensions"]
            rows = [(tuple(e["members"]), e) for e in entries]
        else:
            rows = [(_members(line.split(" ", 1)[0]), line)
                    for line in out.splitlines()]
        _expect([m for m, _ in rows] == targets,
                "bounds rows differ from the reference extensions")
        for members, row in rows:
            if cmd.fmt == "json":
                refused = "error" in row
                if oracle and "oracle_match" in row:
                    _expect(row["oracle_match"], "oracle_match is false")
            else:
                refused = " coverage-error: " in row
                _expect(not row.endswith(" MISMATCH"), "oracle MISMATCH")
            if refused:
                _expect(self.refs.interval(cmd.doc, members) is None,
                        f"{members}: refused but the oracle has a value")
            elif cmd.fmt == "json":
                self._entry_interval(cmd, members, row["lower"],
                                     row["upper"], JSON_TOL)
            else:
                fields = row.split(" ")
                self._entry_interval(cmd, members, float(fields[1]),
                                     float(fields[2]), TEXT_TOL)

    def _rank(self, cmd: Cmd, out: str) -> None:
        targets = self.refs.extensions(cmd.doc, cmd.sem)
        if cmd.fmt == "json":
            data = json.loads(out)
            ranked = [(tuple(e["members"]), e["lower"], e["upper"])
                      for e in data["extensions"]]
            unranked = [tuple(e["members"]) for e in data["unranked"]]
            tol = JSON_TOL
        else:
            ranked, unranked, tol = [], [], TEXT_TOL
            for line in out.splitlines():
                if line == "no extensions":
                    continue
                fields = line.split(" ")
                if fields[0] == "unranked":
                    unranked.append(_members(fields[1]))
                else:
                    ranked.append((_members(fields[1]), float(fields[2]),
                                   float(fields[3])))
        refs = {m: self.refs.interval(cmd.doc, m) for m in targets}
        _expect(sorted(m for m, _, _ in ranked)
                == sorted(m for m in targets if refs[m] is not None),
                "ranked extensions differ from the oracle's")
        _expect(unranked == [m for m in targets if refs[m] is None],
                "unranked extensions differ from the oracle's refusals")
        mids = []
        for members, lower, upper in ranked:
            self._entry_interval(cmd, members, lower, upper, tol)
            mids.append(sum(refs[members]) / 2)
        _expect(all(a >= b - 2 * tol for a, b in zip(mids, mids[1:])),
                "ranking is not by descending midpoint")

    def _check(self, cmd: Cmd, out: str) -> None:
        doc = cmd.doc
        want = violations(doc)
        counts = {"arguments": len(doc.args),
                  "attacks": len(set(doc.attacks)),
                  "causal_edges": len(set(doc.causal)),
                  "agents": doc.agents or 1}
        maximal = doc.opinions is None or all(
            v == 1.0 for vals in doc.opinions.values() for v in vals)
        if cmd.fmt == "json":
            data = json.loads(out)
            for key, value in counts.items():
                _expect(data[key] == value, f"{key}: {data[key]} != {value}")
            _expect(data["maximal"] == maximal, "maximal flag")
            got = [(v["agent"], v["attacker"], v["target"],
                    v["attacker_value"], v["target_value"])
                    for v in data["violations"]]
            _expect(got == want, "violations differ from the reference")
            return
        lines = out.splitlines()
        head = dict(line.split(": ", 1) for line in lines[:8])
        for key, value in counts.items():
            label = key.replace("_", "-")
            _expect(head[label] == str(value), f"{label}: {head[label]}")
        _expect(head["maximal"] == ("yes" if maximal else "no"), "maximal")
        _expect(head["rationality-violations"] == str(len(want)),
                "violation count")
        got = [re.match(r"  agent (\d+): attack \((\w+),(\w+)\)", line)
               .groups() for line in lines[8:]]
        _expect(got == [(str(j), a, b) for j, a, b, _, _ in want],
                "violation lines differ from the reference")

    def _export_dot(self, cmd: Cmd, out: str) -> None:
        _expect(out == expected_dot(cmd.doc), "DOT text differs")

    def _fixtures(self, cmd: Cmd, out: str) -> None:
        diag = self.diagnosis
        if cmd.fmt == "json":
            rows = [(f["label"], tuple(f["members"]), f["computed_lower"],
                     f["computed_upper"], f["deviates"])
                    for f in json.loads(out)["fixtures"]]
            tol = JSON_TOL
        else:
            rows, tol = [], TEXT_TOL
            for line in out.splitlines()[1:]:
                label, members, _, computed, verdict = line.split()
                lower, upper = map(float, computed.strip("[]").split(","))
                sides = (verdict[len("deviates("):-1].split(",")
                         if verdict.startswith("deviates") else [])
                rows.append((label, _members(members), lower, upper, sides))
        _expect(len(rows) == len(self.fixtures), "fixture count")
        for fixture, (label, members, lower, upper, sides) in zip(
                self.fixtures, rows):
            _expect((label, members) == (fixture.label, fixture.members),
                    f"fixture {label}")
            want = self.refs.interval(diag, members)
            _close(lower, want[0], tol, f"{label} lower")
            _close(upper, want[1], tol, f"{label} upper")
            expected_sides = [
                side for side, got, rep in (
                    ("lower", want[0], fixture.reported.lower),
                    ("upper", want[1], fixture.reported.upper))
                if abs(got - rep) > 1e-9]
            _expect(sides == expected_sides, f"{label} deviation verdict")

