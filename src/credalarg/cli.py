"""Command-line front end.

Subcommands: ``solve`` (enumerate extensions), ``bounds`` (probability
intervals per extension or for an explicit set), ``check`` (profile and
graph diagnostics), ``export-dot`` (render for graphviz) and ``rank``
(heuristic interval ordering).

Each command renders its rows here, as text lines or as JSON text
written straight from the rows (only the 5 ``--paper-fixtures`` rows go
through :func:`~credalarg.formats.emit_json`); ``bounds`` and ``rank``
draw every row from :func:`~credalarg.bounds.document_rows`. One chunked
writer, :func:`_write_rows`, serves ``solve``, ``bounds``, ``rank`` and
``check``: it decodes, renders and writes at most ``CHUNK_ROWS`` rows at
a time, so an enumerating command holds one int per extension mask and
not every row's names and text (``rank`` keeps every row, since it sorts
them). Every check, the cap and the walk run before the first byte is
written. ``--oracle`` and ``--paper-fixtures`` share one tolerance test.
Each subcommand declares only the flags it reads, so any other flag is a
usage error; so are ``--max-args`` beside ``bounds --set`` or
``--paper-fixtures``, which enumerate nothing, ``--oracle`` beside
``--paper-fixtures``, which has reported values to compare with instead,
and ``--tolerance`` without either, which compare nothing.

The argparse parser is built on the first :func:`main` call and kept for
the life of the process, so ``main`` may be called repeatedly in one
process and each call only parses and runs its own command.

Exit codes: 0 success, 1 usage error, 2 parse/validation error (including
a missing input file), 3 enumeration cap exceeded. A reader that closes
the output pipe early (``credalarg solve ... | head``) chose to stop: the
command writes nothing more and exits 0, with nothing on stderr.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from collections.abc import Callable, Iterable, Iterator
from itertools import chain, islice
from json.encoder import encode_basestring_ascii

from .af import DEFAULT_MAX_ARGS, NAME_REGEX, SEMANTICS
from .bounds import agent_valuation_oracle, document_rows, rank_key
from .credal import is_maximal, rationality_rows
from .errors import CapExceededError, CoverageError, CredalArgError, _echo
from .formats import FrameworkDocument, emit_json, export_dot, load_caf
from .samples import REPORTED_FIXTURES, diagnosis_document

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_CAP = 3

DEFAULT_TOLERANCE = 1e-9

# rows decoded, rendered and written per sys.stdout.write
CHUNK_ROWS = 2048

# between two items of a JSON list under a top-level key
_ITEM_SEP = ",\n    "

SEMANTICS_CODES = {
    "cf": "conflict-free",
    "ad": "admissible",
    "co": "complete",
    "pr": "preferred",
    "gr": "grounded",
    "st": "stable",
}


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first :func:`main` call.

    It is configuration only: every ``parse_args`` call makes a fresh
    ``Namespace`` and argparse looks up ``sys.stdout`` and ``sys.stderr``
    when it prints, so ``main`` may be called repeatedly in one process.
    """
    parser = _Parser(prog="credalarg",
                     description="argumentation analysis under imprecise, "
                                 "multi-agent opinions")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", metavar="PATH",
                        help="input document in .caf format")
    common.add_argument("--format", choices=("text", "json"), default="text",
                        dest="output_format", help="output format")
    # solve, bounds and rank enumerate; only bounds compares intervals
    capped = argparse.ArgumentParser(add_help=False, parents=[common])
    capped.add_argument("--max-args", type=int, metavar="N",
                        help="enumeration cap on the argument count "
                             f"(default {DEFAULT_MAX_ARGS})")

    # fields that only some subcommands define; --max-args and --tolerance
    # stay None until _check_args, so that a value nothing reads is refused
    parser.set_defaults(semantics=None, explicit_set=None, use_oracle=False,
                        strict=False, paper_fixtures=False, max_args=None,
                        tolerance=None)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    solve = sub.add_parser("solve", parents=[capped],
                           help="enumerate extensions of one semantics")
    solve.add_argument("--semantics", required=True,
                       help="cf|ad|co|pr|gr|st or the full semantics name")

    bounds = sub.add_parser("bounds", parents=[capped],
                            help="probability intervals for extensions")
    target = bounds.add_mutually_exclusive_group(required=True)
    target.add_argument("--semantics",
                        help="compute bounds for every extension of this "
                             "semantics")
    target.add_argument("--set", dest="explicit_set", metavar="LIST",
                        help="comma-separated conflict-free set to analyze")
    target.add_argument("--paper-fixtures", action="store_true",
                        help="compare computed intervals against the "
                             "originally reported values for the bundled "
                             "diagnosis scenario")
    bounds.add_argument("--oracle", action="store_true", dest="use_oracle",
                        help="also run the independent per-agent oracle and "
                             "flag mismatches")
    bounds.add_argument("--tolerance", type=float, metavar="X",
                        help="absolute tolerance of the interval "
                             "comparisons of --oracle and --paper-fixtures "
                             f"(default {DEFAULT_TOLERANCE})")

    check = sub.add_parser("check", parents=[common],
                           help="profile and causal-graph diagnostics")
    check.add_argument("--strict", action="store_true",
                       help="exit 2 when rationality violations exist")

    sub.add_parser("export-dot", parents=[common],
                   help="emit a graphviz rendering of the document")

    rank = sub.add_parser("rank", parents=[capped],
                          help="order extensions by their intervals")
    rank.add_argument("--semantics", required=True,
                      help="semantics whose extensions are ranked")
    return parser


def _resolve_semantics(token: str | None, parser: argparse.ArgumentParser):
    if token is None:
        return None
    name = SEMANTICS_CODES.get(token, token)
    if name not in SEMANTICS:
        parser.error(f"unknown semantics {token!r} (use one of "
                     f"{'|'.join(SEMANTICS_CODES)})")
    return name


def _check_args(ns: argparse.Namespace,
                parser: argparse.ArgumentParser) -> None:
    """Validate ``ns``; normalize its flags in place."""
    if ns.max_args is None:
        ns.max_args = DEFAULT_MAX_ARGS
    elif ns.command == "bounds" and ns.semantics is None:
        parser.error("%s reads no --max-args" % (
            "--paper-fixtures" if ns.paper_fixtures else "--set"))
    elif ns.max_args < 1:
        parser.error("--max-args must be >= 1")
    if ns.tolerance is None:
        ns.tolerance = DEFAULT_TOLERANCE
    elif not ns.tolerance > 0:  # also rejects NaN
        parser.error("--tolerance must be > 0")
    elif not (ns.use_oracle or ns.paper_fixtures):
        parser.error("--tolerance needs --oracle or --paper-fixtures")
    if ns.explicit_set is not None:
        ns.explicit_set = tuple(
            t.strip() for t in ns.explicit_set.split(",") if t.strip())
    if ns.input is None and not ns.paper_fixtures:
        parser.error("--input is required")
    if ns.input is not None and ns.paper_fixtures:
        parser.error("--paper-fixtures reads no --input")
    if ns.use_oracle and ns.paper_fixtures:
        parser.error("--paper-fixtures reads no --oracle")
    if ns.command == "export-dot" and ns.output_format == "json":
        parser.error("export-dot writes DOT only, not --format json")
    ns.semantics = _resolve_semantics(ns.semantics, parser)


def _fmt(lower: float, upper: float) -> str:
    return f"{lower:.6f} {upper:.6f}"


def _braced(names: tuple[str, ...]) -> str:
    return "{%s}" % ",".join(names)


def _deviations(lower: float, upper: float, reference,
                tolerance: float) -> list[str]:
    """The ends of ``(lower, upper)`` more than ``tolerance`` from
    ``reference``."""
    return [end for end, value in (("lower", lower), ("upper", upper))
            if abs(value - getattr(reference, end)) > tolerance]


def _chunks(rows: Iterable) -> Iterator[list]:
    """``rows`` as lists of at most ``CHUNK_ROWS``."""
    rows = iter(rows)
    while chunk := list(islice(rows, CHUNK_ROWS)):
        yield chunk


def _write_rows(rows: Iterable, render: Callable[[list], str], sep: str,
                head: str, tail: str, empty: str) -> None:
    """Write ``rows`` a chunk at a time: ``render`` gives the text of a
    chunk's rows joined by ``sep``, chunks are joined by ``sep`` too, and
    the whole stands between ``head`` and ``tail``, or is ``empty`` when
    there are no rows."""
    write = sys.stdout.write
    wrote = False
    for chunk in _chunks(rows):
        write(sep if wrote else head)
        write(render(chunk))
        wrote = True
    write(tail if wrote else empty)


def _write_list(rows: Iterable, render: Callable[..., str]) -> None:
    """The ``json.dumps(indent=2)`` text of a list under a top-level key,
    ``render(row)`` giving each item, written by :func:`_write_rows`."""
    _write_rows(rows, lambda chunk: _ITEM_SEP.join(map(render, chunk)),
                _ITEM_SEP, "[\n    ", "\n  ]", "[]")


def _write_lines(rows: Iterable, render: Callable[..., str],
                 empty: str = "") -> None:
    """The newline-ended line ``render(row)`` of each row, or ``empty``
    when there are none, written by :func:`_write_rows`."""
    _write_rows(rows, lambda chunk: "\n".join(map(render, chunk)), "\n",
                "", "\n", empty)


# the json.dumps(indent=2, sort_keys=True) text of a {"members"} row
# around its names, which match NAME_REGEX and so need no escaping: a
# chunk of non-empty rows is one join with the text between two rows
_MEMBERS_OPEN = '{\n      "members": [\n        "'
_MEMBERS_CLOSE = '"\n      ]\n    }'
_NAMES_SEP = '",\n        "'
_ROWS_SEP = _MEMBERS_CLOSE + _ITEM_SEP + _MEMBERS_OPEN


def _members_json(chunk: list) -> str:
    return (_MEMBERS_OPEN + _ROWS_SEP.join(map(_NAMES_SEP.join, chunk))
            + _MEMBERS_CLOSE)


def _braced_lines(chunk: list) -> str:
    return "{" + "}\n{".join(map(",".join, chunk)) + "}"


def cmd_solve(ns: argparse.Namespace) -> int:
    framework = load_caf(ns.input).framework
    masks = framework.extension_masks(ns.semantics, ns.max_args)
    rows = map(framework.row_decoder(masks), masks)
    if ns.output_format == "text":
        _write_rows(rows, _braced_lines, "\n", "", "\n", "no extensions\n")
        return EXIT_OK
    sys.stdout.write('{\n  "extensions": ')
    head, empty = "[\n    ", "[]"
    if masks and not masks[0]:
        # the empty set comes first, once, and has no names to join
        next(rows)
        head += '{\n      "members": []\n    }'
        empty = head + "\n  ]"
        head += _ITEM_SEP
    _write_rows(rows, _members_json, _ITEM_SEP, head, "\n  ]", empty)
    sys.stdout.write(',\n  "semantics": "%s"\n}\n' % ns.semantics)
    return EXIT_OK


def _oracle_check(ns: argparse.Namespace, doc: FrameworkDocument,
                  names: tuple[str, ...], result) -> tuple:
    """``(oracle, match)`` of a row: the oracle's interval or refusal
    message, and whether it agrees with ``result``; both None unless
    ``--oracle`` runs on a non-empty extension."""
    if not (ns.use_oracle and names):
        return None, None
    # a refusal is kept as its message: the error's traceback would keep
    # the frames of every refused extension alive
    try:
        oracle = agent_valuation_oracle(names, doc.profile, doc.causality)
    except CoverageError as exc:
        return str(exc), isinstance(result, str)  # agree if both refuse
    if isinstance(result, str):
        return oracle, False
    return oracle, not _deviations(*result[:2], oracle, ns.tolerance)


def _bounds_json(names: tuple[str, ...], result, oracle=None, match=None,
                rank=None) -> str:
    """The ``json.dumps(indent=2, sort_keys=True)`` text, as an item of
    :func:`_write_list`, of a row's ``{members, lower, upper, case}`` or
    ``{members, error}``, plus the oracle's fields and the
    ``rank`` when given. Names match NAME_REGEX and the bounds are finite
    floats, so ``%s`` and ``%r`` write them as json.dumps does."""
    if isinstance(result, str):
        fields = ['"error": ' + encode_basestring_ascii(result)]
    else:
        fields = ['"case": "%s"' % result[2], '"lower": %r' % result[0]]
    fields.append('"members": [\n        "%s"\n      ]'
                  % '",\n        "'.join(names) if names else '"members": []')
    if oracle is not None:  # then so is match, see _oracle_check
        verdict = '"oracle_match": ' + ("true" if match else "false")
        if isinstance(oracle, str):
            fields += ['"oracle_error": ' + encode_basestring_ascii(oracle),
                       verdict]
        else:
            fields += ['"oracle_lower": %r' % oracle.lower, verdict,
                       '"oracle_upper": %r' % oracle.upper]
    if rank is not None:
        fields.append('"rank": %d' % rank)
    if not isinstance(result, str):
        fields.append('"upper": %r' % result[1])
    return "{\n      " + ",\n      ".join(fields) + "\n    }"


def _bounds_line(names: tuple[str, ...], result, oracle=None, match=None,
                 use_oracle: bool = False) -> str:
    """The text line of a row, with an oracle column under ``--oracle``."""
    if isinstance(result, str):
        text = f"{_braced(names)} coverage-error: {result}"
    else:
        text = f"{_braced(names)} {_fmt(*result[:2])} {result[2]}"
    if use_oracle:
        if oracle is None:
            text += " oracle=n/a"
        elif isinstance(oracle, str):
            text += " oracle=coverage-error"
        else:
            text += f" oracle={oracle.lower:.6f},{oracle.upper:.6f}"
        if match is not None:
            text += " ok" if match else " MISMATCH"
    return text


def cmd_bounds(ns: argparse.Namespace) -> int:
    if ns.paper_fixtures:
        return _cmd_paper_fixtures(ns)
    doc = load_caf(ns.input)
    if ns.explicit_set is not None:  # then ns.semantics is None
        # one named set: a refusal exits 2 before anything is written
        pairs = list(document_rows(
            doc, [doc.framework.extension_mask(ns.explicit_set)]))
        if isinstance(pairs[0][1], str):  # each name echoed clipped
            raise CoverageError(re.sub(
                "'(%s)'" % NAME_REGEX, lambda m: _echo(m[1]), pairs[0][1]))
    else:
        pairs = document_rows(doc, doc.framework.extension_masks(
            ns.semantics, ns.max_args))
    # a chunk of rows is bounded first, then checked and rendered
    if ns.output_format == "json":
        sys.stdout.write('{\n  "extensions": ')
        _write_list(pairs, lambda pair: _bounds_json(
            *pair, *_oracle_check(ns, doc, *pair)))
        sys.stdout.write(',\n  "semantics": %s\n}\n' % (
            '"%s"' % ns.semantics if ns.semantics else "null"))
    else:
        _write_lines(pairs, lambda pair: _bounds_line(
            *pair, *_oracle_check(ns, doc, *pair), use_oracle=ns.use_oracle))
    return EXIT_OK


def _cmd_paper_fixtures(ns: argparse.Namespace) -> int:
    doc = diagnosis_document()
    masks = [doc.framework.extension_mask(f.members)
             for f in REPORTED_FIXTURES]
    # none of the bundled sets is refused
    rows = [(f, lower, upper, _deviations(lower, upper, f.reported,
                                          ns.tolerance))
            for f, (_, (lower, upper, _)) in zip(REPORTED_FIXTURES,
                                                 document_rows(doc, masks))]
    if ns.output_format == "json":
        print(emit_json({"fixtures": [
            {"label": f.label, "members": list(f.members),
             "reported_lower": f.reported.lower,
             "reported_upper": f.reported.upper,
             "computed_lower": lower, "computed_upper": upper,
             "deviates": deviations}
            for f, lower, upper, deviations in rows]}))
        return EXIT_OK
    lines = [f"{'fixture':<10} {'members':<16} {'reported':<20} "
             f"{'computed':<20} verdict"]
    for f, lower, upper, deviations in rows:
        reported = f"[{f.reported.lower:.6f},{f.reported.upper:.6f}]"
        interval = f"[{lower:.6f},{upper:.6f}]"
        verdict = ("matches" if not deviations
                   else "deviates(%s)" % ",".join(deviations))
        lines.append(f"{f.label:<10} {_braced(f.members):<16} {reported:<20} "
                     f"{interval:<20} {verdict}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_check(ns: argparse.Namespace) -> int:
    doc = load_caf(ns.input)
    violations = rationality_rows(doc.profile, doc.framework)
    maximal = is_maximal(doc.profile)
    if ns.output_format == "json":
        # the json.dumps(indent=2, sort_keys=True) text of the report:
        # names match NAME_REGEX and values are floats in [0, 1], so %s
        # and %r write them as json.dumps does
        row = ('{\n      "agent": %d,\n      "attacker": "%s",\n'
               '      "attacker_value": %r,\n      "target": "%s",\n'
               '      "target_value": %r\n    }')
        sys.stdout.write(
            '{\n  "agents": %d,\n  "arguments": %d,\n  "attacks": %d,\n'
            '  "causal_edges": %d,\n  "causality_valid": true,\n'
            '  "maximal": %s,\n'
            # a validated profile keeps every opinion in [0, 1]
            '  "uniform": true,\n  "violations": ' % (
                doc.profile.agent_count, len(doc.framework.arguments),
                len(doc.framework.attacks), len(doc.causality.edges),
                "true" if maximal else "false"))
        _write_list(violations,
                    lambda v: row % (v[0], v[1], v[3], v[2], v[4]))
        sys.stdout.write("\n}\n")
    else:
        header = [f"arguments: {len(doc.framework.arguments)}",
                  f"attacks: {len(doc.framework.attacks)}",
                  f"causal-edges: {len(doc.causality.edges)}",
                  f"agents: {doc.profile.agent_count}",
                  "causality: acyclic, attack-disjoint",
                  f"maximal: {'yes' if maximal else 'no'}",
                  "uniform: yes",
                  f"rationality-violations: {len(violations)}"]
        sys.stdout.write("\n".join(header) + "\n")
        _write_lines(violations,
                     "  agent %d: attack (%s,%s) believed %r and %r".__mod__)
    if ns.strict and violations:
        return EXIT_INVALID
    return EXIT_OK


def cmd_export_dot(ns: argparse.Namespace) -> int:
    doc = load_caf(ns.input)
    sys.stdout.write(export_dot(doc))
    return EXIT_OK


def cmd_rank(ns: argparse.Namespace) -> int:
    doc = load_caf(ns.input)
    pairs = list(document_rows(doc, doc.framework.extension_masks(
        ns.semantics, ns.max_args)))
    ranked = sorted([pair for pair in pairs if not isinstance(pair[1], str)],
                    key=lambda pair: rank_key(*pair[1][:2], pair[0]))
    refused = [pair for pair in pairs if isinstance(pair[1], str)]
    if ns.output_format == "json":
        sys.stdout.write('{\n  "extensions": ')
        _write_list(enumerate(ranked, start=1),
                    lambda item: _bounds_json(*item[1], rank=item[0]))
        sys.stdout.write(',\n  "semantics": "%s",\n  "unranked": '
                         % ns.semantics)
        _write_list(refused, lambda row: _bounds_json(*row))
        sys.stdout.write("\n}\n")
    else:
        _write_lines(chain(
            (f"{i}. {_braced(names)} {_fmt(*result[:2])}"
             for i, (names, result) in enumerate(ranked, start=1)),
            ("unranked " + _bounds_line(*row) for row in refused)),
            str, "no extensions\n")
    return EXIT_OK


_COMMANDS = {
    "solve": cmd_solve,
    "bounds": cmd_bounds,
    "check": cmd_check,
    "export-dot": cmd_export_dot,
    "rank": cmd_rank,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        _check_args(ns, parser)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[ns.command](ns)
    except BrokenPipeError:
        # the reader closed the pipe: it chose to stop, so say nothing
        return EXIT_OK
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (CredalArgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def run() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: what is still buffered can never be
        # written, so point stdout at os.devnull, where the interpreter's
        # flush at exit writes it without an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    run()
