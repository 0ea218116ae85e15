"""Parsing, `.caf` and JSON serialization, and DOT export of documents.

The `.caf` text format is line-oriented (lines as ``str.splitlines`` cuts
them), and ``%`` starts a comment anywhere on a line. A line that is blank
before its ``%`` is a comment-only line; the first ``% name: ...`` and the
first ``% description: ...`` among those carry the document's metadata,
trimmed, and any other comment is ignored. Every other line holds one or
more statements, each closed by a full stop, with any whitespace
(``str.isspace``) allowed around tokens:

    arg(A).            declare an argument
    att(A,B).          A attacks B
    cau(C,B).          C causes B
    agents(4).         number of agents
    p(1,A,0.2).        opinion of agent 1 about A

Names match ``[A-Za-z0-9_]+``. Agent counts and indices are read by
``int()`` and opinion values by ``float()``, so ``+2`` and ``1_0`` are
numbers and ``nan`` is a value outside [0, 1]. Repeated ``arg``, ``att``
and ``cau`` statements are allowed; the first line counts. The first
failed check raises :class:`ParseError` with its line, in this order:

1. statement by statement, in text order: syntax, then arity; for
   ``arg``, ``att`` and ``cau`` an invalid name, from the left; for
   ``agents`` a second declaration, an invalid count, a count outside
   1..``MAX_AGENTS``; for ``p`` an invalid agent index, name or value,
   in that order, a value outside [0, 1], an index below 1, and a
   repeated (agent, argument) pair;
2. attacks, by first line: an undeclared endpoint;
3. causal edges, by first line: an undeclared endpoint, a self-edge, a
   clash with an attack; then a causal cycle, the one
   :class:`~credalarg.causality.CausalityGraph` names, on the lowest line
   among its edges;
4. opinions: none allowed without ``agents``; then, by line, an index
   above the count and an undeclared argument;
5. arguments, by declaration: a missing opinion, on the ``arg`` line.

An error echoes at most 40 characters of a token or of the rest of a line.

Plain `arg`/`att` solver benchmarks load as-is: without any ``p``
statements the profile defaults to all-ones, which reduces the analysis to
classical acceptance.

Canonical text is the form :func:`emit_caf` and the benchmark generator
write: one statement per ``\n``-terminated line, no whitespace, ``%`` only
at column 0, opinion values of ``[0-9][0-9.e-]*``, and the ``p`` lines in
one block per agent, agents ``1..M`` in order (indices in plain decimal),
every block listing each argument once and in the order of the first.
Lines of different kinds may interleave. A whole-text pass reads it: it
checks every rule above on whole columns, sorts and indexes the arguments
once, builds the framework, the causal graph and the profile over that
one index, and takes each argument's row of opinion values from the
agent blocks, one column each, in bit order. Any other text, and any
text that fails a check, goes to the line parser, which alone words the
errors: the accepted language, every error and every line number are the
same on both paths. Both take time linear in the text, whitespace runs
included. Neither path makes a credal set: the profile holds the rows,
and ``credal_set`` makes one from a row when asked.
"""

from __future__ import annotations

import json
import re

from .af import (NAME_PATTERN, NAME_REGEX, ArgumentationFramework, _framework,
                 _sorted_index, _Value)
from .causality import CausalityGraph, _graph, check_attack_disjointness
from .credal import MAX_AGENTS, CredalProfile, _ones_profile, _row_profile
from .errors import (CausalCycleError, ParseError, UnknownArgumentError,
                     ValidationError, _clip)

# One statement. The bracket text holds no bracket, so every part of the
# pattern has one place to end and a line is read in linear time; the
# fields are checked in _parse_lines.
_STATEMENT = re.compile(r"\s*(arg|att|cau|agents|p)\s*\(([^()]*)\)\s*\.")
_ARITY = {"arg": 1, "att": 2, "cau": 2, "agents": 1, "p": 3}

# Canonical lines, each kind read by one findall over "\n" + text: a match
# is one whole line, from the "\n" before it to the one after it. The kinds
# start differently, so the text is canonical when their matches together
# count its lines. An opinion value of these characters is never NaN.
_CANONICAL_ARG = re.compile(r"\narg\((" + NAME_REGEX + r")\)\.(?=\n)")
_CANONICAL_ATT = re.compile(
    r"\natt\((" + NAME_REGEX + r"),(" + NAME_REGEX + r")\)\.(?=\n)")
_CANONICAL_CAU = re.compile(
    r"\ncau\((" + NAME_REGEX + r"),(" + NAME_REGEX + r")\)\.(?=\n)")
_CANONICAL_AGENTS = re.compile(r"\nagents\(([0-9]+)\)\.(?=\n)")
# one group, so findall returns strings, not a tuple per line
_CANONICAL_P = re.compile(
    r"\np\(([0-9]+," + NAME_REGEX + r",[0-9][0-9.e-]*)\)\.(?=\n)")
_CANONICAL_COMMENT = re.compile(r"\n%([ -~]*)(?=\n)")


class FrameworkDocument(_Value):
    """One analysis unit: framework + opinions + causal graph + metadata."""

    __match_args__ = ("framework", "profile", "causality", "name",
                      "description")

    def __init__(self, framework: ArgumentationFramework,
                 profile: CredalProfile, causality: CausalityGraph,
                 name: str = "", description: str = ""):
        if causality.arguments != framework.arguments:
            raise ValidationError(
                "causality graph and framework disagree on the argument set")
        if profile.arguments != framework.arguments:
            raise ValidationError(
                "profile domain does not match the framework's arguments")
        check_attack_disjointness(causality, framework.attacks)
        for field_name, value in (("name", name),
                                  ("description", description)):
            # emit_caf writes it on one comment line that parse_caf strips
            if len(value.splitlines()) > 1 or value != value.strip():
                raise ValidationError(
                    f"document {field_name} {value!r} must be one line "
                    "without outer whitespace")
        self._set(framework, profile, causality, name, description)


def _name(token: str, line: int) -> str:
    if not NAME_PATTERN.match(token):
        raise ParseError(line, f"invalid argument name {_clip(token)!r}")
    return token


def _number(parse: type, token: str, line: int, what: str):
    try:
        return parse(token)
    except ValueError:
        raise ParseError(line, f"invalid {what} {_clip(token)!r}") from None


def _metadata(comments: list[str]) -> tuple[str, str]:
    """Name and description from the text after ``%`` of the comment-only
    lines: the first ``name:`` and the first ``description:``, trimmed."""
    found: dict[str, str] = {}
    for comment in comments:
        key, colon, value = comment.strip().partition(":")
        if colon and key in ("name", "description"):
            found.setdefault(key, value.strip())
    return found.get("name", ""), found.get("description", "")


def _parse_canonical(text: str) -> FrameworkDocument | None:
    """The document of canonical ``text``, or None if the text is not
    canonical or breaks a rule, so that the line parser words the error.

    The statements are checked here on whole columns, and the graph rules
    (declared ends, no causal self-edge, cycle or clash with an attack) by
    the constructors. No check needs a line number, since a document that
    passes them all has none to report. The names are sorted and indexed
    once; the framework, the graph and the profile share that tuple and
    skip the name and pair checks the patterns have made.
    """
    if not text.endswith("\n"):
        return None
    lines = text.count("\n")
    text = "\n" + text
    names = _CANONICAL_ARG.findall(text)
    attacks = _CANONICAL_ATT.findall(text)
    causal = _CANONICAL_CAU.findall(text)
    agents = _CANONICAL_AGENTS.findall(text)
    opinions = _CANONICAL_P.findall(text)
    comments = _CANONICAL_COMMENT.findall(text)
    if (len(names) + len(attacks) + len(causal) + len(agents)
            + len(opinions) + len(comments) != lines or len(agents) > 1):
        return None
    arguments, index = _sorted_index(names)
    try:
        count = int(agents[0]) if agents else None
    except ValueError:  # more digits than int() reads
        return None
    if count is not None and not 1 <= count <= MAX_AGENTS:
        return None
    if opinions:
        profile = _opinion_profile(arguments, index, count, opinions)
        if profile is None:
            return None
    else:
        profile = _ones_profile(count or 1, arguments)
    try:
        graph = _graph(arguments, index, frozenset(causal))
        framework = _framework(arguments, index, frozenset(attacks))
        return FrameworkDocument(framework, profile, graph,
                                 *_metadata(comments))
    except (UnknownArgumentError, ValidationError):
        return None


def _opinion_profile(arguments: tuple[str, ...], index: dict[str, int],
                     count: int | None,
                     opinions: list[str]) -> CredalProfile | None:
    """The profile of the canonical ``p`` fields (``"agent,name,value"``
    per line), or None unless they come as one block per agent,
    ``1..count`` in order, each listing every argument of ``index`` once,
    in the order of the first block, with values in [0, 1]."""
    n = len(index)
    if count is None or len(opinions) != n * count:
        return None
    # one split for all lines, then every third field is one column
    fields = ",".join(opinions).split(",")
    indices, owners, tokens = fields[0::3], fields[1::3], fields[2::3]
    first = owners[:n]
    for k in range(count):
        if (owners[k * n:(k + 1) * n] != first
                or indices[k * n:(k + 1) * n] != [str(k + 1)] * n):
            return None
    try:
        values = list(map(float, tokens))
    except ValueError:  # "1e" or "1-2"
        return None
    # a value of the pattern's characters is never NaN
    if not 0.0 <= min(values) <= max(values) <= 1.0:
        return None
    # each argument's row is its column across the agent blocks
    by_name = dict(zip(first, zip(*[values[k * n:(k + 1) * n]
                                    for k in range(count)])))
    if by_name.keys() != index.keys():
        return None
    return _row_profile(count, arguments,
                        tuple(map(by_name.__getitem__, arguments)))


def parse_caf(text: str) -> FrameworkDocument:
    """Parse `.caf` text; every error names the offending 1-based line."""
    doc = _parse_canonical(text)
    return doc if doc is not None else _parse_lines(text)


def _parse_lines(text: str) -> FrameworkDocument:
    """Parse any `.caf` text statement by statement, raising the first
    error on its line."""
    comments: list[str] = []
    arg_lines: dict[str, int] = {}
    attacks: dict[tuple[str, str], int] = {}
    causal: dict[tuple[str, str], int] = {}
    agents: int | None = None
    opinions: dict[tuple[int, str], tuple[float, int]] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        code, comment_mark, comment = raw.partition("%")
        end = len(code.rstrip())
        if not end:
            if comment_mark:  # metadata lives on comment-only lines
                comments.append(comment)
            continue
        pos = 0
        while pos < end:
            match = _STATEMENT.match(code, pos)
            if match is None:
                raise ParseError(line_no, "syntax error near "
                                          f"{_clip(code[pos:].strip())!r}")
            pos = match.end()
            kw, body = match.groups()
            parts = ([p.strip() for p in body.split(",")]
                     if body.strip() else [])
            if len(parts) != _ARITY[kw]:
                raise ParseError(line_no, f"{kw} expects {_ARITY[kw]} "
                                          f"argument(s), got {len(parts)}")
            if kw == "p":
                agent = _number(int, parts[0], line_no, "agent index")
                arg = _name(parts[1], line_no)
                value = _number(float, parts[2], line_no, "opinion value")
                if not 0.0 <= value <= 1.0:
                    raise ParseError(
                        line_no, f"opinion {_clip(parts[2])} outside [0, 1]")
                if agent < 1:
                    raise ParseError(line_no, "agent index must be >= 1")
                if (agent, arg) in opinions:
                    raise ParseError(
                        line_no, "duplicate opinion "
                        f"p({_clip(str(agent))},{_clip(arg)},...)")
                opinions[agent, arg] = (value, line_no)
            elif kw == "arg":
                arg_lines.setdefault(_name(parts[0], line_no), line_no)
            elif kw == "agents":
                if agents is not None:
                    raise ParseError(line_no, "duplicate agents declaration")
                agents = _number(int, parts[0], line_no, "agent count")
                if agents < 1:
                    raise ParseError(line_no, "agent count must be >= 1")
                if agents > MAX_AGENTS:
                    raise ParseError(
                        line_no, f"agent count must be <= {MAX_AGENTS}")
            else:  # att or cau
                pair = (_name(parts[0], line_no), _name(parts[1], line_no))
                (attacks if kw == "att" else causal).setdefault(pair, line_no)

    # each dict lists its keys in the order of their first line
    for (a, b), line in attacks.items():
        for end in (a, b):
            if end not in arg_lines:
                raise ParseError(line, "att uses undeclared argument "
                                 f"{_clip(end)!r}")
    for (a, b), line in causal.items():
        for end in (a, b):
            if end not in arg_lines:
                raise ParseError(line, "cau uses undeclared argument "
                                 f"{_clip(end)!r}")
        if a == b:
            raise ParseError(line, f"causal self-edge on {_clip(a)!r}")
        if (a, b) in attacks or (b, a) in attacks:
            raise ParseError(line, f"causal edge ({_clip(a)},{_clip(b)}) "
                                   "clashes with an attack")
    # every name was checked on its line, and the ends above
    arguments, index = _sorted_index(arg_lines)
    try:
        graph = _graph(arguments, index, frozenset(causal))
    except CausalCycleError as exc:
        line = min(causal[e] for e in zip(exc.nodes, exc.nodes[1:]))
        raise ParseError(line, str(exc)) from None

    if opinions:
        if agents is None:
            raise ParseError(next(iter(opinions.values()))[1],
                             "opinions require an agents(M) declaration")
        for (agent, arg), (_, line) in opinions.items():
            if agent > agents:
                raise ParseError(line, f"agent index {_clip(str(agent))} "
                                       f"exceeds agents({agents})")
            if arg not in arg_lines:
                raise ParseError(line, "p uses undeclared argument "
                                 f"{_clip(arg)!r}")
        if len(opinions) < len(arg_lines) * agents:
            for arg, decl_line in arg_lines.items():
                for j in range(1, agents + 1):
                    if (j, arg) not in opinions:
                        raise ParseError(
                            decl_line, f"argument {_clip(arg)!r} is missing "
                            f"the opinion of agent {j}")
        profile = _row_profile(agents, arguments, tuple(
            tuple([opinions[j, arg][0] for j in range(1, agents + 1)])
            for arg in arguments))
    else:
        profile = _ones_profile(agents or 1, arguments)

    framework = _framework(arguments, index, frozenset(attacks))
    return FrameworkDocument(framework, profile, graph, *_metadata(comments))


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
    for j in range(doc.profile.agent_count):
        lines.extend(f"p({j + 1},{arg},{row[j]!r})." for arg, row in
                     zip(doc.framework.arguments, doc.profile.rows))
    return "\n".join(lines) + "\n"


def emit_json(data: dict) -> str:
    """Stable JSON text: ``json.dumps(data, indent=2, sort_keys=True)``."""
    return json.dumps(data, indent=2, sort_keys=True)


_DOT_KEYWORDS = {"node", "edge", "graph", "digraph", "subgraph", "strict"}


def export_dot(doc: FrameworkDocument) -> str:
    """DOT rendering: solid attack edges, dashed causal edges. A DOT keyword
    in any case, or a name led by a digit, is double-quoted; no name of
    ``[A-Za-z0-9_]+`` needs other quotes or escapes."""
    ids = {a: f'"{a}"' if a[0].isdigit() or a.lower() in _DOT_KEYWORDS
           else a for a in doc.framework.arguments}
    lines = ["digraph credal_af {"]
    lines.extend(f"  {a};" for a in ids.values())
    lines.extend(f"  {ids[a]} -> {ids[b]};"
                 for a, b in sorted(doc.framework.attacks))
    lines.extend(f"  {ids[a]} -> {ids[b]} [style=dashed];"
                 for a, b in sorted(doc.causality.edges))
    lines.append("}")
    return "\n".join(lines) + "\n"


def load_caf(path: str) -> FrameworkDocument:
    """Read and parse a `.caf` file.

    A file that is not UTF-8 raises :class:`ParseError` on the line of its
    first bad byte.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # lines as parse_caf cuts them; the sentinel starts the bad one
        before = exc.object[:exc.start].decode("utf-8")
        raise ParseError(len((before + ".").splitlines()),
                         f"byte 0x{exc.object[exc.start]:02x} is not "
                         "valid UTF-8") from None
    return parse_caf(text)


def dump_caf(doc: FrameworkDocument, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(emit_caf(doc))
