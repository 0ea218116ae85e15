"""Reference `.caf` parser for differential tests.

A verbatim copy of the statement-by-statement parser that split each
statement body on commas and checked every name on its own. It is kept
only as an oracle: ``formats.parse_caf`` must return an equal document,
or raise the same exception type with the same line and message, on any
input text. Its echoes of a token or of the rest of a line are cut to 40
characters, as the loader cuts them.
"""

from __future__ import annotations

import re

from credalarg import (ArgumentationFramework, CausalityGraph, CredalProfile,
                       CredalSet, FrameworkDocument, ParseError)
from credalarg.af import NAME_PATTERN
from credalarg.credal import MAX_AGENTS

_STATEMENT = re.compile(r"\s*(arg|att|cau|agents|p)\s*\(\s*([^()]*?)\s*\)\s*\.")
_ARITY = {"arg": 1, "att": 2, "cau": 2, "agents": 1, "p": 3}


def _clip(text: str) -> str:
    # at most 40 characters of the text an error echoes, "..." marking a cut
    return text if len(text) <= 40 else text[:40] + "..."


def _name(token: str, line: int) -> str:
    if not NAME_PATTERN.match(token):
        raise ParseError(line, f"invalid argument name {_clip(token)!r}")
    return token


def _int(token: str, line: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line, f"invalid {what} {_clip(token)!r}") from None


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
                raise ParseError(line_no, "syntax error near "
                                          f"{_clip(code[pos:].strip())!r}")
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
                        line_no,
                        f"invalid opinion value {_clip(parts[2])!r}") from None
                if not 0.0 <= value <= 1.0:
                    raise ParseError(
                        line_no, f"opinion {_clip(parts[2])} outside [0, 1]")
                if agent < 1:
                    raise ParseError(line_no, "agent index must be >= 1")
                if (agent, arg) in opinions:
                    raise ParseError(
                        line_no, "duplicate opinion "
                        f"p({_clip(str(agent))},{_clip(arg)},...)")
                if first_opinion_line is None:
                    first_opinion_line = line_no
                opinions[(agent, arg)] = value
                opinion_lines[(agent, arg)] = line_no

    for (a, b), line in sorted(attacks.items(), key=lambda kv: kv[1]):
        for end in (a, b):
            if end not in arg_lines:
                raise ParseError(line, "att uses undeclared argument "
                                 f"{_clip(end)!r}")
    for (a, b), line in sorted(causal.items(), key=lambda kv: kv[1]):
        for end in (a, b):
            if end not in arg_lines:
                raise ParseError(line, "cau uses undeclared argument "
                                 f"{_clip(end)!r}")
        if a == b:
            raise ParseError(line, f"causal self-edge on {_clip(a)!r}")
        if (a, b) in attacks or (b, a) in attacks:
            raise ParseError(
                line, f"causal edge ({_clip(a)},{_clip(b)}) clashes with "
                "an attack")
    _reject_causal_cycle(causal)

    if opinions:
        if agents is None:
            raise ParseError(first_opinion_line,
                             "opinions require an agents(M) declaration")
        for (agent, arg), line in sorted(opinion_lines.items(),
                                         key=lambda kv: kv[1]):
            if agent > agents:
                raise ParseError(
                    line, f"agent index {_clip(str(agent))} exceeds "
                    f"agents({agents})")
            if arg not in arg_lines:
                raise ParseError(line, "p uses undeclared argument "
                                 f"{_clip(arg)!r}")
        for arg, decl_line in arg_lines.items():
            for j in range(1, agents + 1):
                if (j, arg) not in opinions:
                    raise ParseError(
                        decl_line, f"argument {_clip(arg)!r} is missing the "
                        f"opinion of agent {j}")
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
