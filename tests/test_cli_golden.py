"""Golden CLI outputs: the exit code and stdout of fixed commands, byte for byte.

Every command runs through ``credalarg.cli.main`` on documents written to a
temporary directory; ``@name`` in a command stands for the path of the
document ``name``. The documents are the diagnosis scenario, a few small
hand-written ones, and ``randgen`` documents with causal edges whose
conflict-free sets include overlap and double-consumption refusals.

The golden file keeps the exit code and the SHA-256 of stdout per command,
since the outputs themselves run to about 300 KB. After a deliberate output
change, regenerate it with ``PYTHONPATH=src python tests/test_cli_golden.py``
and check the changed commands by hand.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

import pytest

from credalarg.cli import main
from credalarg.formats import emit_caf
from credalarg.samples import diagnosis_document
from randgen import random_document

GOLDEN = Path(__file__).with_name("cli_golden.json")

RANDGEN_SEEDS = (0, 12, 41, 44)
ANALYSED = ("diagnosis",) + tuple(f"rand{seed}" for seed in RANDGEN_SEEDS)
SEMANTICS = ("cf", "ad", "co", "pr", "gr", "st")


def documents() -> dict[str, str]:
    docs = {
        "diagnosis": emit_caf(diagnosis_document()),
        "cycle": "arg(A). arg(B). arg(C).\natt(A,B). att(B,C). att(C,A).\n",
        "chain": "arg(x). arg(y). arg(z).\ncau(x,y). cau(y,z).\n",
        "big": "".join(f"arg(a{i:02d}).\n" for i in range(30)),
        "undeclared": "arg(a). att(a,b).\n",
        "loop": "arg(a). arg(b).\ncau(a,b). cau(b,a).\n",
    }
    for seed in RANDGEN_SEEDS:
        docs[f"rand{seed}"] = emit_caf(random_document(random.Random(seed)))
    return docs


def commands() -> list[tuple[str, ...]]:
    cmds: list[tuple[str, ...]] = []
    for doc in ANALYSED:
        src = ("--input", f"@{doc}")
        for fmt in ("text", "json"):
            out = ("--format", fmt)
            for s in SEMANTICS:
                cmds.append(("solve", *src, "--semantics", s, *out))
            for s in ("cf", "pr", "gr"):
                cmds.append(("bounds", *src, "--semantics", s, *out))
            cmds.append(("bounds", *src, "--semantics", "cf", "--oracle",
                         *out))
            cmds.append(("rank", *src, "--semantics", "cf", *out))
            cmds.append(("check", *src, *out))
        cmds.append(("export-dot", *src))
    diagnosis = ("--input", "@diagnosis")
    for fmt in ("text", "json"):
        out = ("--format", fmt)
        cmds += [
            ("bounds", *diagnosis, "--set", "A", *out),
            ("bounds", *diagnosis, "--set", "C,D,E,F,G,H", "--oracle", *out),
            ("bounds", *diagnosis, "--set", "A,F,H,D,E,G", *out),
            ("bounds", "--paper-fixtures", *out),
            ("bounds", "--input", "@chain", "--semantics", "cf", "--oracle",
             *out),
            ("rank", "--input", "@cycle", "--semantics", "st", *out),
            ("solve", "--input", "@cycle", "--semantics", "st", *out),
        ]
    cmds += [
        ("check", *diagnosis, "--strict"),
        ("bounds", "--input", "@chain", "--set", "x,z"),
        ("bounds", *diagnosis, "--set", "A,B"),
        ("bounds", *diagnosis, "--set", "A,nope"),
        ("solve", "--input", "@undeclared", "--semantics", "gr"),
        ("check", "--input", "@loop"),
        ("solve", "--input", "@missing", "--semantics", "gr"),
        ("solve", "--input", "@big", "--semantics", "cf"),
        ("solve", "--input", "@big", "--semantics", "gr"),
        ("solve", *diagnosis, "--semantics", "weird"),
        ("solve", "--semantics", "gr"),
        ("solve", *diagnosis, "--semantics", "gr", "--max-args", "0"),
        (),
    ]
    return cmds


def run_all(directory: Path) -> dict[str, tuple[int, str]]:
    for name, text in documents().items():
        (directory / f"{name}.caf").write_text(text, encoding="utf-8")
    results = {}
    for cmd in commands():
        argv = [str(directory / f"{t[1:]}.caf") if t.startswith("@") else t
                for t in cmd]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        results[" ".join(cmd)] = (code, out.getvalue())
    return results


def digests(results: dict[str, tuple[int, str]]) -> dict[str, list]:
    return {key: [code, hashlib.sha256(out.encode("utf-8")).hexdigest()]
            for key, (code, out) in results.items()}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("golden"))


def test_outputs_match_the_golden_file(outputs):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = digests(outputs)
    assert list(got) == list(golden)
    for key, expected in golden.items():
        assert got[key] == expected, key


def test_corpus_covers_every_refusal_and_exit_code(outputs):
    text = "".join(out for _, out in outputs.values())
    assert "overlap on" in text
    assert "consumed 2 times" in text
    assert {code for code, _ in outputs.values()} == {0, 1, 2, 3}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        recorded = run_all(Path(tmp))
    GOLDEN.write_text(json.dumps(digests(recorded), indent=1) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(recorded)} commands to {GOLDEN}")
