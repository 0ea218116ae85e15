"""The package's public surface: README's Library section lists it once,
every listed name resolves, the entry points that the row pipeline
replaced stay deleted, and the section's example runs."""

import re
import tokenize
from pathlib import Path

import credalarg
from credalarg import af, bounds, credal
from credalarg.formats import emit_caf
from credalarg.samples import diagnosis_document

ROOT = Path(__file__).resolve().parent.parent

# deleted names; README's Library section gives each one's replacement
DELETED = {"extension_bounds", "BoundsResult", "CausalGroup",
           "rank_extensions", "single_bounds", "dependent_credal_set",
           "_check_same_cardinality", "_check_domains", "_as_extension",
           "Extension", "is_conflict_free", "anchor_mask", "free_mask",
           "isolated_mask"}


def _code_names(path: Path) -> set:
    """The identifiers of a Python file; its strings and comments are not
    read."""
    with path.open("rb") as handle:
        return {token.string for token in tokenize.tokenize(handle.readline)
                if token.type == tokenize.NAME}


def test_public_surface_is_the_readme_list(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    [listing] = [paragraph for paragraph in library.split("\n\n")
                 if paragraph.startswith("The package's public names")]
    assert re.findall(r"`(\w+)`", listing.split(":", 1)[1]) == \
        credalarg.__all__
    for name in credalarg.__all__:
        getattr(credalarg, name)

    for module in (credalarg, af, bounds, credal):
        assert not {name for name in DELETED if hasattr(module, name)}, module
    # an extension is its member tuple, and a profile its rows
    for name in ("extension", "is_conflict_free"):
        assert not hasattr(credalarg.ArgumentationFramework, name), name
    for profile in (diagnosis_document().profile,
                    credalarg.parse_caf("arg(a).\n").profile):
        assert not hasattr(profile, "assignment")
    # a graph holds the DAG; the kernel cuts each row itself
    for graph in (credalarg.CausalityGraph, diagnosis_document().causality,
                  credalarg.parse_caf("arg(a).\n").causality):
        assert not {name for name in DELETED if hasattr(graph, name)}
    for path in sorted((ROOT / "tests").iterdir()):
        if path.suffix == ".py" and path.name != Path(__file__).name:
            assert not _code_names(path) & DELETED, path.name
        elif path.suffix == ".json":
            text = path.read_text(encoding="utf-8")
            assert not re.findall(r"\b(%s)\b" % "|".join(DELETED), text), \
                path.name

    # the example reads diagnosis.caf from the working directory
    (tmp_path / "diagnosis.caf").write_text(emit_caf(diagnosis_document()))
    monkeypatch.chdir(tmp_path)
    [example] = re.findall(r"```python\n(.*?)```", library, re.S)
    exec(compile(example, "README.md", "exec"), {})
