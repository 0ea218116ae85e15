"""Seeded `.caf` corpora and command lists for the benchmark workloads.

Everything here is plain data built from ``random.Random`` seeded with the
workload name and the ``--seed`` value, so the same seed always yields
byte-identical files. Nothing in this module imports the program: the
program only ever sees the written `.caf` files and the argv lists.

Sizes are fixed per workload and the seed varies names, attack
orientation, causal edges, opinions and statement order. That keeps the
amount of work a pass does nearly the same from seed to seed, which is
what lets two sets of runs agree within the benchmark's bounds.
"""

from __future__ import annotations

import itertools
import os
import random
import string
from dataclasses import dataclass, field

WORKLOADS = ("enum-structured", "bounds-causal", "grounded-large",
             "cli-small")

SEMANTICS = {"cf": "conflict-free", "ad": "admissible", "co": "complete",
             "pr": "preferred", "gr": "grounded", "st": "stable"}


@dataclass
class Doc:
    """One generated document plus the structure its references need."""

    name: str
    args: list[str]
    attacks: list[tuple[str, str]]
    causal: list[tuple[str, str]] = field(default_factory=list)
    agents: int | None = None  # None: the file has no agents/p lines
    opinions: dict[str, list[float]] | None = None
    family: str = "random"
    # family-specific structure: chain/cycle order, pair or component lists
    shape: list[list[str]] = field(default_factory=list)
    path: str = ""

    @property
    def statements(self) -> int:
        count = len(self.args) + len(self.attacks) + len(self.causal)
        if self.opinions is not None:
            count += 1 + self.agents * len(self.args)
        return count

    def text(self) -> str:
        lines = [f"% name: {self.name}"]
        lines += [f"arg({a})." for a in self.args]
        lines += [f"att({a},{b})." for a, b in self.attacks]
        lines += [f"cau({a},{b})." for a, b in self.causal]
        if self.opinions is not None:
            lines.append(f"agents({self.agents}).")
            lines += [f"p({j + 1},{a},{self.opinions[a][j]!r})."
                      for j in range(self.agents) for a in self.args]
        return "\n".join(lines) + "\n"


@dataclass
class Cmd:
    """One CLI invocation. ``{input}`` in argv is replaced by the doc path.

    ``expect`` is the exit code the command must return; ``None`` leaves
    it to the checker (``check --strict`` depends on the violations).
    """

    argv: list[str]
    doc: Doc | None
    kind: str
    fmt: str = "text"
    sem: str | None = None
    expect: int | None = 0
    explicit: tuple[str, ...] | None = None

    def resolved(self) -> list[str]:
        path = self.doc.path if self.doc is not None else ""
        return [a.replace("{input}", path) for a in self.argv]


@dataclass
class Corpus:
    docs: list[Doc]
    commands: list[Cmd]
    warmup: list[Cmd]
    probes: list[Cmd] = field(default_factory=list)


def _prefix(rng: random.Random) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(2))


def _names(rng: random.Random, n: int, shuffle: bool) -> list[str]:
    """Distinct names; sorted order follows position unless shuffled."""
    width = len(str(n - 1))
    prefix = _prefix(rng)
    names = [f"{prefix}{i:0{width}d}" for i in range(n)]
    if shuffle:
        rng.shuffle(names)
    return names


def _opinions(rng: random.Random, args: list[str],
              agents: int) -> dict[str, list[float]]:
    return {a: [round(rng.random(), 4) for _ in range(agents)] for a in args}


def _finish(rng: random.Random, doc: Doc) -> Doc:
    # statement order in the file is part of the seeded input
    rng.shuffle(doc.args)
    rng.shuffle(doc.attacks)
    rng.shuffle(doc.causal)
    return doc


def _orient(rng: random.Random, a: str, b: str) -> list[tuple[str, str]]:
    return [[(a, b)], [(b, a)], [(a, b), (b, a)]][rng.randrange(3)]


def _random_dag(rng: random.Random, args: list[str],
                attacks: list[tuple[str, str]], p: float) -> list[tuple]:
    """A share ``p`` of the pairs clear of attacks, as causal edges that
    run forward along a shuffled order (so the graph is acyclic)."""
    order = list(args)
    rng.shuffle(order)
    clash = {frozenset(e) for e in attacks}
    free = [(a, b) for i, a in enumerate(order) for b in order[i + 1:]
            if frozenset((a, b)) not in clash]
    return rng.sample(free, round(p * len(free)))


# -- enum-structured --------------------------------------------------------

def _structured(rng: random.Random, family: str, *size: int) -> Doc:
    if family == "grid":
        rows, cols = size
        n = rows * cols
    else:
        n = size[0] if family != "pairs" else 2 * size[0]
    x = _names(rng, n, shuffle=False)
    attacks: list[tuple[str, str]] = []
    shape: list[list[str]] = []
    if family == "chain" or family == "cycle":
        order = x if rng.random() < 0.5 else x[::-1]
        attacks = [(order[i], order[i + 1]) for i in range(n - 1)]
        if family == "cycle":
            attacks.append((order[-1], order[0]))
        shape = [order]
    elif family == "pairs":
        shape = [[x[2 * i], x[2 * i + 1]] for i in range(size[0])]
        attacks = [e for a, b in shape for e in ((a, b), (b, a))]
    elif family == "grid":
        rows, cols = size
        cell = [x[r * cols:(r + 1) * cols] for r in range(rows)]
        for r in range(rows):
            for c in range(cols):
                for r2, c2 in ((r + 1, c), (r, c + 1)):
                    if r2 < rows and c2 < cols:
                        a, b = cell[r][c], cell[r2][c2]
                        attacks += [(a, b), (b, a)]
    elif family == "clique":
        attacks = [(a, b) for a in x for b in x if a != b]
    label = "x".join(map(str, size))
    return _finish(rng, Doc(f"{family}-{label}", list(x), attacks,
                            family=family, shape=shape))


def _enum_structured(rng: random.Random) -> Corpus:
    docs = [
        _structured(rng, "noattack", 12),
        _structured(rng, "noattack", 16),
        _structured(rng, "chain", 22),
        _structured(rng, "cycle", 21),
        _structured(rng, "cycle", 20),
        _structured(rng, "pairs", 7),
        _structured(rng, "pairs", 8),
        _structured(rng, "grid", 4, 5),
        _structured(rng, "grid", 3, 7),
        _structured(rng, "clique", 25),
    ]
    commands = []
    for d, doc in enumerate(docs):
        for s, sem in enumerate(("ad", "co", "pr", "st")):
            fmt = "json" if (d + s) % 2 else "text"
            commands.append(_solve(doc, sem, fmt))
    clique = docs[-1]
    warmup = [_solve(clique, sem, fmt) for sem in ("ad", "co", "pr", "st")
              for fmt in ("text", "json")]
    return Corpus(docs, commands, warmup)


# -- bounds-causal ----------------------------------------------------------

# Disjoint conflict cliques of these sizes: the number of conflict-free
# sets is the product of (size + 1), the same for every seed. The twenty
# patterns climb from 1,176 to 2,401 conflict-free sets in small steps,
# so no percentile sits on a jump between two document sizes.
_COMPONENTS = (
    (6, 6, 5, 3), (6, 6, 4, 4), (6, 5, 5, 4), (5, 5, 5, 5), (6, 6, 6, 3),
    (6, 6, 5, 4), (6, 5, 5, 5), (7, 6, 6, 3), (7, 7, 4, 4), (6, 6, 6, 4),
    (7, 5, 5, 5), (6, 6, 5, 5), (7, 7, 6, 3), (7, 6, 6, 4), (7, 6, 5, 5),
    (6, 6, 6, 5), (7, 7, 6, 4), (7, 7, 5, 5), (7, 6, 6, 5), (6, 6, 6, 6))
# causal-edge density per document, shuffled against the sizes above
_CAUSAL_DENSITY = tuple(0.04 + 0.01 * (7 * i % 20) for i in range(20))


def _component_doc(rng: random.Random, sizes: tuple[int, ...],
                   density: float, agents: int) -> Doc:
    n = sum(sizes)
    x = _names(rng, n, shuffle=True)
    shape, attacks, start = [], [], 0
    for size in sizes:
        part = x[start:start + size]
        start += size
        shape.append(part)
        for a, b in itertools.combinations(part, 2):
            attacks += _orient(rng, a, b)
    causal = _random_dag(rng, x, attacks, density)
    doc = Doc(f"components-{n}", list(x), attacks, causal, agents,
              _opinions(rng, x, agents), family="components", shape=shape)
    return _finish(rng, doc)


def _bounds_causal(rng: random.Random) -> Corpus:
    docs = [_component_doc(rng, sizes, p, 8)
            for sizes, p in zip(_COMPONENTS, _CAUSAL_DENSITY)]
    commands = []
    for d, doc in enumerate(docs):
        alt = "json" if d // 2 % 2 else "text"
        if d % 2 == 0:
            commands += [_bounds(doc, "cf", "text"), _rank(doc, "cf", alt)]
        else:
            commands += [_bounds(doc, "cf", "json"), _bounds(doc, "ad", alt)]
    warmup = [c for c in commands if c.doc in docs[:2]]
    return Corpus(docs, commands, warmup)


# -- grounded-large ---------------------------------------------------------

_DEEP_SIZES = (1000, 1150, 1300, 1500, 1750, 2000, 2600, 4000)
_CHAIN_LENGTH = 300


def _deep_doc(rng: random.Random, n: int, agents: int) -> Doc:
    """Defence chains of fixed length plus depth-preserving extra attacks.

    An extra attack runs from an accepted argument at chain position p to
    a rejected one at position q with p >= q - 1, so it never lets the
    fixpoint settle a chain early: the iteration count stays
    _CHAIN_LENGTH / 2 and the grounded extension is the even positions.
    """
    x = _names(rng, n, shuffle=True)
    chains = [x[i:i + _CHAIN_LENGTH] for i in range(0, n, _CHAIN_LENGTH)]
    attacks = [(c[i], c[i + 1]) for c in chains for i in range(len(c) - 1)]
    by_pos: dict[int, tuple[list[str], list[str]]] = {}
    for c in chains:
        for i, a in enumerate(c):
            by_pos.setdefault(i // 2, ([], []))[i % 2].append(a)
    depth = (_CHAIN_LENGTH + 1) // 2
    seen = set(attacks)
    while len(seen) < len(attacks) + n // 2:
        q = rng.randrange(depth)          # target at position 2q + 1
        p = rng.randrange(q, depth)       # attacker at position 2p >= 2q
        ins, _ = by_pos[p]
        _, outs = by_pos[q]
        if outs:
            seen.add((rng.choice(ins), rng.choice(outs)))
    attacks = attacks + sorted(seen - set(attacks))
    clash = {frozenset(e) for e in attacks}
    order = list(x)
    rng.shuffle(order)
    rank = {a: i for i, a in enumerate(order)}
    edges = set()
    while len(edges) < n // 4:
        a, b = rng.sample(order, 2)
        if rank[a] > rank[b]:
            a, b = b, a
        if frozenset((a, b)) not in clash:
            edges.add((a, b))
    causal = sorted(edges)
    doc = Doc(f"deep-{n}", list(x), attacks, causal, agents,
              _opinions(rng, x, agents), family="deep", shape=chains)
    return _finish(rng, doc)


def _grounded_large(rng: random.Random) -> Corpus:
    docs = [_deep_doc(rng, n, 4) for n in _DEEP_SIZES]
    commands = []
    for d, doc in enumerate(docs):
        commands += [
            _solve(doc, "gr", "text"),
            _bounds(doc, "gr", "json" if d % 2 else "text"),
            _check(doc, "text"),
            _check(doc, "json"),
            Cmd(["export-dot", "--input", "{input}"], doc, "export-dot"),
        ]
    warmup = [c for c in commands if c.doc is docs[0]]
    # Known seed fault (ROADMAP item 2): the recursive subset walk raises
    # RecursionError here. Run once outside the timed loop and reported.
    selfish = _names(rng, 1200, shuffle=True)
    probe_doc = _finish(rng, Doc("self-attacks-1200", list(selfish),
                                 [(a, a) for a in selfish],
                                 family="self-attacks"))
    probe = _solve(probe_doc, "pr", "text", "--max-args", "2000")
    return Corpus(docs + [probe_doc], commands, warmup,
                  probes=[probe])


# -- cli-small --------------------------------------------------------------

def _diagnosis() -> Doc:
    """The bundled eight-argument diagnosis scenario, as the README has it."""
    return Doc(
        "diagnosis",
        list("ABCDEFGH"),
        [("A", "B"), ("B", "A"), ("F", "B"), ("D", "B"), ("C", "A")],
        [("D", "A"), ("F", "A"), ("H", "A"), ("G", "A"), ("H", "G"),
         ("G", "B"), ("C", "B")],
        4,
        {"A": [0.2, 0.7, 0.55, 0.75], "B": [0.8, 0.25, 0.45, 0.1],
         "C": [0.2, 0.75, 0.4, 0.2], "D": [0.75, 0.15, 0.5, 0.8],
         "E": [0.8, 0.65, 0.8, 0.7], "F": [0.75, 0.2, 0.55, 0.8],
         "G": [0.7, 0.8, 1.0, 0.9], "H": [0.8, 0.9, 1.0, 0.9]},
        family="diagnosis")


_SMALL_SIZES = (3, 4, 5, 6, 7, 8, 9, 10) * 3
_SMALL_AGENTS = (1, 2, 3, 4, 5, 8) * 4
_CODES = ("cf", "ad", "co", "pr", "gr", "st")


def _small_doc(rng: random.Random, n: int, agents: int) -> Doc:
    x = _names(rng, n, shuffle=True)
    pairs = [(a, b) for a in x for b in x]
    attacks = rng.sample(pairs, round(0.2 * len(pairs)))
    causal = _random_dag(rng, x, attacks, 0.25)
    doc = Doc(f"small-{n}", list(x), attacks, causal, agents,
              _opinions(rng, x, agents))
    return _finish(rng, doc)


def _greedy_conflict_free(rng: random.Random, doc: Doc) -> tuple[str, ...]:
    hit = {a for e in doc.attacks for a in e if e[0] == e[1]}
    chosen: list[str] = []
    for a in sorted(doc.args, key=lambda _: rng.random()):
        if a in hit:
            continue
        chosen.append(a)
        hit |= {b for b, c in doc.attacks if c == a}
        hit |= {c for b, c in doc.attacks if b == a}
    return tuple(sorted(chosen))


def _cli_small(rng: random.Random) -> Corpus:
    docs = [_diagnosis()] + [_small_doc(rng, n, m)
                           for n, m in zip(_SMALL_SIZES, _SMALL_AGENTS)]
    commands = []
    for d, doc in enumerate(docs):
        sem = _CODES[d % 6]
        other = _CODES[(d + 3) % 6]
        fmt = "json" if d % 2 else "text"
        alt = "text" if d % 2 else "json"
        commands += [
            _solve(doc, sem, fmt),
            _solve(doc, other, alt),
            _bounds(doc, other, fmt),
            _bounds(doc, sem, alt, "--oracle"),
            _explicit(doc, _greedy_conflict_free(rng, doc), fmt),
            _check(doc, alt),
            _check(doc, fmt, "--strict"),
            Cmd(["export-dot", "--input", "{input}"], doc, "export-dot"),
            _rank(doc, _CODES[(d + 1) % 6], fmt),
        ]
        if len(doc.args) > 5:
            over = Cmd(["solve", "--input", "{input}", "--semantics", "co",
                        "--max-args", "5"], doc, "solve", sem="co", expect=3)
            commands.append(over)
    diag = docs[0]
    missing = Doc("missing", [], [], family="missing")
    commands += [
        Cmd(["bounds", "--paper-fixtures"], None, "fixtures"),
        Cmd(["bounds", "--paper-fixtures", "--format", "json"], None,
            "fixtures", fmt="json"),
        _bounds(diag, "gr", "text", "--oracle"),
        _explicit(diag, ("A",), "text"),
        Cmd(["bounds", "--input", "{input}", "--set", "A,B"], diag,
            "bounds", expect=2, explicit=("A", "B")),
        Cmd(["solve", "--input", "{input}", "--semantics", "xx"], diag,
            "solve", expect=1),
        Cmd(["check", "--input", "{input}"], missing, "check", expect=2),
    ]
    warmup = [c for c in commands if c.doc is diag]
    return Corpus(docs + [missing], commands, warmup)


# -- command helpers --------------------------------------------------------

def _fmt_args(fmt: str) -> list[str]:
    return ["--format", "json"] if fmt == "json" else []


def _solve(doc: Doc, sem: str, fmt: str, *extra: str) -> Cmd:
    return Cmd(["solve", "--input", "{input}", "--semantics", sem,
                *_fmt_args(fmt), *extra], doc, "solve", fmt, sem)


def _bounds(doc: Doc, sem: str, fmt: str, *extra: str) -> Cmd:
    return Cmd(["bounds", "--input", "{input}", "--semantics", sem,
                *_fmt_args(fmt), *extra], doc, "bounds", fmt, sem)


def _explicit(doc: Doc, members: tuple[str, ...], fmt: str) -> Cmd:
    return Cmd(["bounds", "--input", "{input}", "--set", ",".join(members),
                *_fmt_args(fmt)], doc, "bounds", fmt, expect=None,
               explicit=members)


def _rank(doc: Doc, sem: str, fmt: str) -> Cmd:
    return Cmd(["rank", "--input", "{input}", "--semantics", sem,
                *_fmt_args(fmt)], doc, "rank", fmt, sem)


def _check(doc: Doc, fmt: str, *extra: str) -> Cmd:
    expect = None if "--strict" in extra else 0
    return Cmd(["check", "--input", "{input}", *_fmt_args(fmt), *extra],
               doc, "check", fmt, expect=expect)


_BUILDERS = {
    "enum-structured": _enum_structured,
    "bounds-causal": _bounds_causal,
    "grounded-large": _grounded_large,
    "cli-small": _cli_small,
}


def build(workload: str, seed: int) -> Corpus:
    """The corpus of one workload; a pure function of its arguments."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def add_coverage(corpus: Corpus) -> None:
    """Append eight commands on the diagnosis scenario that together reach
    every traced layer, so that in a traced run no layer's time is a
    constant zero. Their cost is a few milliseconds per pass."""
    doc = _diagnosis()
    doc.name = "coverage-diagnosis"
    corpus.docs.append(doc)
    corpus.commands += [
        _solve(doc, "cf", "json"),
        _solve(doc, "ad", "text"),
        _rank(doc, "co", "json"),
        _bounds(doc, "pr", "text", "--oracle"),
        _solve(doc, "st", "text"),
        _bounds(doc, "gr", "json"),
        _check(doc, "text"),
        Cmd(["export-dot", "--input", "{input}"], doc, "export-dot"),
    ]


def write(corpus: Corpus, directory: str) -> dict[str, str]:
    """Write every document as ``<directory>/<nn>-<name>.caf``.

    Returns the written texts by file name. The ``missing`` document of
    cli-small gets a path but no file, for the exit-code-2 command.
    """
    texts = {}
    for i, doc in enumerate(corpus.docs):
        fname = f"{i:02d}-{doc.name}.caf"
        doc.path = os.path.join(directory, fname)
        if doc.family == "missing":
            continue
        text = doc.text()
        with open(doc.path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        texts[fname] = text
    return texts
