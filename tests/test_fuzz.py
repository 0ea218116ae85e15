"""Mutation gate for the command line: random edits of two seed documents,
each run through ``cli.main`` in nine command forms, must end in a result
or a typed refusal. No exception may leave ``main``, the exit code is 0-3
and stderr stays short."""

import contextlib
import io
import random

from credalarg.cli import main
from credalarg.formats import emit_caf
from credalarg.samples import diagnosis_document

# three arguments with an attack, a causal edge and two agents
SMALL = """arg(a).
arg(b).
arg(c).
att(a,b).
cau(a,c).
agents(2).
p(1,a,0.5).
p(1,b,0.25).
p(1,c,0.75).
p(2,a,1.0).
p(2,b,0.0).
p(2,c,0.4).
"""

FORMS = (
    ["solve", "--semantics", "gr"],
    ["solve", "--semantics", "pr"],
    ["solve", "--semantics", "st", "--format", "json"],
    ["bounds", "--semantics", "co"],
    ["bounds", "--semantics", "gr", "--oracle"],
    ["rank", "--semantics", "ad"],
    ["check"],
    ["check", "--strict", "--format", "json"],
    ["export-dot"],
)

# what an edit inserts: single characters of the format, and statement heads
PIECES = (*"abcABCxyz0123456789().,_-% \n\t", "arg(", "att(", "cau(",
          "agents(", "p(1,", "0.5", ").\n", "1e9", "nan", "-1")


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        lines = text.splitlines(keepends=True) or [""]
        at = rng.randrange(len(text) + 1)
        edit = rng.randrange(6)
        if edit == 0:  # delete a character
            text = text[:at] + text[at + 1:]
        elif edit == 1:  # insert a piece
            text = text[:at] + rng.choice(PIECES) + text[at:]
        elif edit == 2:  # replace a character with a piece
            text = text[:at] + rng.choice(PIECES) + text[at + 1:]
        elif edit == 3:  # duplicate a line
            i = rng.randrange(len(lines))
            text = "".join(lines[:i + 1] + lines[i:])
        elif edit == 4:  # delete a line
            i = rng.randrange(len(lines))
            text = "".join(lines[:i] + lines[i + 1:])
        else:  # swap two lines
            i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
            text = "".join(lines)
    return text


def test_mutated_documents_end_in_a_result_or_a_typed_refusal(tmp_path):
    rng = random.Random(0xF022)
    seeds = (emit_caf(diagnosis_document()), SMALL)
    path = tmp_path / "mutant.caf"
    codes = set()
    for k in range(1400):
        text = _mutate(rng, seeds[k % 2])
        path.write_text(text, encoding="utf-8")
        for form in FORMS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main([*form, "--input", str(path)])
            assert code in (0, 1, 2, 3), (form, text)
            assert len(err.getvalue().encode()) < 2000, (form, text)
            codes.add(code)
    # the edits reach both results and refusals
    assert {0, 2} <= codes
