"""Parsing, serialization and DOT export for framework documents.

The `.caf` text format is line-oriented with `%` comments and five
statement kinds (several may share a line):

    arg(A).            declare an argument
    att(A,B).          A attacks B
    cau(C,B).          C causes B
    agents(4).         number of agents
    p(1,A,0.2).        opinion of agent 1 about A

Plain `arg`/`att` solver benchmarks load as-is: without any ``p``
statements the profile defaults to all-ones, which reduces the analysis to
classical acceptance. ``% name: ...`` and ``% description: ...`` comments
carry optional metadata. :func:`emit_json` takes a payload dict; the
payload helpers build the stable schemas ``{arguments, attacks, causality,
agents, opinions}`` for documents and ``{semantics, extensions: [{members,
lower, upper, case}]}`` for results.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Sequence

from .af import NAME_PATTERN, ArgumentationFramework, Extension
from .bounds import BoundsResult
from .causality import CausalityGraph, check_attack_disjointness
from .credal import MAX_AGENTS, CredalProfile, CredalSet
from .errors import ParseError, ValidationError

_STATEMENT = re.compile(r"\s*(arg|att|cau|agents|p)\s*\(\s*([^()]*?)\s*\)\s*\.")
_ARITY = {"arg": 1, "att": 2, "cau": 2, "agents": 1, "p": 3}


@dataclass(frozen=True)
class FrameworkDocument:
    """One analysis unit: framework + opinions + causal graph + metadata."""

    framework: ArgumentationFramework
    profile: CredalProfile
    causality: CausalityGraph
    name: str = ""
    description: str = ""

    def __post_init__(self):
        if self.causality.arguments != self.framework.arguments:
            raise ValidationError(
                "causality graph and framework disagree on the argument set")
        if self.profile.arguments != self.framework.arguments:
            raise ValidationError(
                "profile domain does not match the framework's arguments")
        check_attack_disjointness(self.causality, self.framework.attacks)


def _name(token: str, line: int) -> str:
    if not NAME_PATTERN.match(token):
        raise ParseError(line, f"invalid argument name {token!r}")
    return token


def _int(token: str, line: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line, f"invalid {what} {token!r}") from None


def parse_caf(text: str) -> FrameworkDocument:
    """Parse `.caf` text; every error names the offending 1-based line."""
    name = description = None
    arg_lines: dict[str, int] = {}
    attacks: dict[tuple[str, str], int] = {}
    causal: dict[tuple[str, str], int] = {}
    agents: int | None = None
    first_opinion_line: int | None = None
    opinions: dict[tuple[int, str], float] = {}
    opinion_lines: dict[tuple[int, str], int] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("%"):
            body = stripped[1:].strip()
            if body.startswith("name:") and name is None:
                name = body[len("name:"):].strip()
            elif body.startswith("description:") and description is None:
                description = body[len("description:"):].strip()
            continue
        code = raw.split("%", 1)[0]
        pos = 0
        while pos < len(code) and code[pos:].strip():
            match = _STATEMENT.match(code, pos)
            if not match:
                raise ParseError(line_no,
                                 f"syntax error near {code[pos:].strip()!r}")
            pos = match.end()
            kw, body = match.group(1), match.group(2)
            parts = [p.strip() for p in body.split(",")] if body.strip() else []
            if len(parts) != _ARITY[kw]:
                raise ParseError(
                    line_no, f"{kw} expects {_ARITY[kw]} argument(s), "
                    f"got {len(parts)}")
            if kw == "arg":
                arg_lines.setdefault(_name(parts[0], line_no), line_no)
            elif kw == "att":
                pair = (_name(parts[0], line_no), _name(parts[1], line_no))
                attacks.setdefault(pair, line_no)
            elif kw == "cau":
                pair = (_name(parts[0], line_no), _name(parts[1], line_no))
                causal.setdefault(pair, line_no)
            elif kw == "agents":
                if agents is not None:
                    raise ParseError(line_no, "duplicate agents declaration")
                agents = _int(parts[0], line_no, "agent count")
                if agents < 1:
                    raise ParseError(line_no, "agent count must be >= 1")
                if agents > MAX_AGENTS:
                    raise ParseError(
                        line_no, f"agent count must be <= {MAX_AGENTS}")
            else:  # p
                agent = _int(parts[0], line_no, "agent index")
                arg = _name(parts[1], line_no)
                try:
                    value = float(parts[2])
                except ValueError:
                    raise ParseError(
                        line_no, f"invalid opinion value {parts[2]!r}") from None
                if not 0.0 <= value <= 1.0:
                    raise ParseError(
                        line_no, f"opinion {parts[2]} outside [0, 1]")
                if agent < 1:
                    raise ParseError(line_no, "agent index must be >= 1")
                if (agent, arg) in opinions:
                    raise ParseError(
                        line_no, f"duplicate opinion p({agent},{arg},...)")
                if first_opinion_line is None:
                    first_opinion_line = line_no
                opinions[(agent, arg)] = value
                opinion_lines[(agent, arg)] = line_no

    for (a, b), line in sorted(attacks.items(), key=lambda kv: kv[1]):
        for end in (a, b):
            if end not in arg_lines:
                raise ParseError(line, f"att uses undeclared argument {end!r}")
    for (a, b), line in sorted(causal.items(), key=lambda kv: kv[1]):
        for end in (a, b):
            if end not in arg_lines:
                raise ParseError(line, f"cau uses undeclared argument {end!r}")
        if a == b:
            raise ParseError(line, f"causal self-edge on {a!r}")
        if (a, b) in attacks or (b, a) in attacks:
            raise ParseError(
                line, f"causal edge ({a},{b}) clashes with an attack")
    _reject_causal_cycle(causal)

    if opinions:
        if agents is None:
            raise ParseError(first_opinion_line,
                             "opinions require an agents(M) declaration")
        for (agent, arg), line in sorted(opinion_lines.items(),
                                         key=lambda kv: kv[1]):
            if agent > agents:
                raise ParseError(
                    line, f"agent index {agent} exceeds agents({agents})")
            if arg not in arg_lines:
                raise ParseError(line, f"p uses undeclared argument {arg!r}")
        for arg, decl_line in arg_lines.items():
            for j in range(1, agents + 1):
                if (j, arg) not in opinions:
                    raise ParseError(
                        decl_line,
                        f"argument {arg!r} is missing the opinion of agent {j}")
        profile = CredalProfile(agents, {
            arg: CredalSet(tuple(opinions[(j, arg)]
                                 for j in range(1, agents + 1)))
            for arg in arg_lines})
    else:
        profile = CredalProfile.maximal(arg_lines, agents or 1)

    framework = ArgumentationFramework(tuple(arg_lines), frozenset(attacks))
    graph = CausalityGraph(tuple(arg_lines), frozenset(causal))
    return FrameworkDocument(framework, profile, graph,
                             name or "", description or "")


def _reject_causal_cycle(causal: dict[tuple[str, str], int]) -> None:
    import graphlib

    parents: dict[str, set[str]] = {}
    for a, b in causal:
        parents.setdefault(a, set())
        parents.setdefault(b, set()).add(a)
    try:
        tuple(graphlib.TopologicalSorter(parents).static_order())
    except graphlib.CycleError as exc:
        nodes = exc.args[1]
        lines = [causal[(nodes[i], nodes[i + 1])]
                 for i in range(len(nodes) - 1)
                 if (nodes[i], nodes[i + 1]) in causal]
        raise ParseError(min(lines) if lines else 1,
                         "causal cycle: " + " -> ".join(nodes)) from None


def emit_caf(doc: FrameworkDocument) -> str:
    """Serialize canonically: args, attacks, causal edges, then opinions.

    Emitting and re-parsing yields an equal document; re-emitting is
    idempotent. Opinion values are written with full float fidelity.
    """
    lines = []
    if doc.name:
        lines.append(f"% name: {doc.name}")
    if doc.description:
        lines.append(f"% description: {doc.description}")
    lines.extend(f"arg({a})." for a in doc.framework.arguments)
    lines.extend(f"att({a},{b})." for a, b in sorted(doc.framework.attacks))
    lines.extend(f"cau({a},{b})." for a, b in sorted(doc.causality.edges))
    lines.append(f"agents({doc.profile.agent_count}).")
    for j in range(1, doc.profile.agent_count + 1):
        for arg in doc.framework.arguments:
            value = doc.profile.credal_set(arg).values[j - 1]
            lines.append(f"p({j},{arg},{value!r}).")
    return "\n".join(lines) + "\n"


def document_payload(doc: FrameworkDocument) -> dict:
    return {
        "arguments": list(doc.framework.arguments),
        "attacks": [list(pair) for pair in sorted(doc.framework.attacks)],
        "causality": [list(pair) for pair in sorted(doc.causality.edges)],
        "agents": doc.profile.agent_count,
        "opinions": {arg: list(doc.profile.credal_set(arg).values)
                     for arg in doc.framework.arguments},
    }


def results_payload(semantics: str | None,
                    results: Sequence[BoundsResult]) -> dict:
    return {
        "semantics": semantics,
        "extensions": [
            {"members": list(r.extension.members),
             "lower": r.interval.lower,
             "upper": r.interval.upper,
             "case": r.case}
            for r in results],
    }


def extensions_payload(semantics: str | None,
                       extensions: Sequence[Extension]) -> dict:
    return {
        "semantics": semantics,
        "extensions": [{"members": list(e.members)} for e in extensions],
    }


def emit_json(data: dict) -> str:
    """Stable JSON text (sorted keys, two-space indent) for a payload dict."""
    return json.dumps(data, indent=2, sort_keys=True)


def export_dot(doc: FrameworkDocument,
               graph_name: str = "credal_af") -> str:
    """DOT rendering: solid attack edges, dashed causal edges."""
    lines = [f"digraph {graph_name} {{"]
    lines.extend(f"  {a};" for a in doc.framework.arguments)
    lines.extend(f"  {a} -> {b};" for a, b in sorted(doc.framework.attacks))
    lines.extend(f"  {a} -> {b} [style=dashed];"
                 for a, b in sorted(doc.causality.edges))
    lines.append("}")
    return "\n".join(lines) + "\n"


def load_caf(path: str) -> FrameworkDocument:
    """Read and parse a `.caf` file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_caf(handle.read())


def dump_caf(doc: FrameworkDocument, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(emit_caf(doc))
