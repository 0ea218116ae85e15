"""Abstract argumentation frameworks and extension enumeration.

An :class:`ArgumentationFramework` is a finite set of named arguments plus
a binary attack relation. Six acceptance semantics are supported:
conflict-free, admissible, complete, preferred, grounded and stable.

:func:`compile_relation` compiles the attacks, and the causal edges of a
:class:`~credalarg.causality.CausalityGraph`, to per-argument source and
target bitmasks (bit i is ``arguments[i]``). A framework rejects first an
invalid name (in given order), then the lowest pair with an unknown end,
so the error never depends on hash or input order.

The grounded extension comes from the grounded labelling (Modgil &
Caminada 2009): an argument is IN once all its attackers are OUT, and
everything an IN argument attacks is OUT. A queue of arguments whose
live-attacker count has dropped to zero computes it in O(n + m) for n
arguments and m attacks, so it needs no cap.

Enumeration walks the conflict-free subsets depth-first with an explicit
stack and bitmask pruning, which is exact and fast enough for desk-scale
frameworks. Every complete, preferred and stable extension contains the
grounded extension and excludes what it attacks, so for those semantics
the walk starts with the IN arguments chosen and the OUT ones banned and
searches only the undecided rest. A hard argument-count cap (default 25),
which counts every argument, decided or not, guards against accidental
exponential blow-ups.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import CapExceededError, UnknownArgumentError, ValidationError

SEMANTICS = ("conflict-free", "admissible", "complete", "preferred",
             "grounded", "stable")

DEFAULT_MAX_ARGS = 25

NAME_REGEX = r"[A-Za-z0-9_]+"
NAME_PATTERN = re.compile(NAME_REGEX + r"\Z")


def set_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_name(name: str) -> str:
    if not isinstance(name, str) or not NAME_PATTERN.match(name):
        raise ValidationError(f"invalid argument name: {name!r}")
    return name


def compile_relation(arguments: Iterable[str],
                     pairs: Iterable[tuple[str, str]], kind: str) -> tuple:
    """Index ``pairs`` over the sorted ``arguments`` in one pass.

    Returns the sorted arguments, the name -> bit index, the pairs as a
    frozenset, and per bit the mask of its sources and the mask of its
    targets. A pair with an unknown end raises ``UnknownArgumentError``
    naming the lowest such pair; ``kind`` names the relation in it.
    """
    args = tuple(sorted(set(arguments)))
    index = {name: i for i, name in enumerate(args)}
    pairs = frozenset((a, b) for a, b in pairs)
    sources, targets, unknown = [0] * len(args), [0] * len(args), []
    for a, b in pairs:
        i, j = index.get(a), index.get(b)
        if i is None or j is None:
            unknown.append((a, b))
        else:
            targets[i] |= 1 << j
            sources[j] |= 1 << i
    if unknown:  # by text, so ends that are not strings still compare
        a, b = min(unknown, key=lambda pair: [str(end) for end in pair])
        raise UnknownArgumentError(
            f"{kind} ({a},{b}) mentions unknown argument "
            f"{a if a not in index else b!r}")
    return args, index, pairs, sources, targets


@dataclass(frozen=True, order=True)
class Extension:
    """A set of arguments accepted together under one semantics.

    ``members`` is kept as a sorted tuple so extensions order and compare
    deterministically. Conflict-freeness is enforced by the surfaces that
    build extensions (enumeration, the grounded labelling, and
    :meth:`ArgumentationFramework.extension`); build through those unless
    you already hold a checked set.
    """

    members: tuple[str, ...]
    semantics: str = "conflict-free"

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(sorted(set(self.members))))
        if self.semantics not in SEMANTICS:
            raise ValidationError(f"unknown semantics: {self.semantics!r}")

    def __str__(self) -> str:
        return "{%s}" % ",".join(self.members)


def _canonical_key(ext: Extension) -> tuple[int, tuple[str, ...]]:
    return (len(ext.members), ext.members)


@dataclass(frozen=True)
class ArgumentationFramework:
    """Arguments plus an attack relation, immutable after construction.

    Self-attacks and mutual attacks are allowed. All queries are pure and
    safe to run concurrently.
    """

    arguments: tuple[str, ...] = ()
    attacks: frozenset[tuple[str, str]] = field(default_factory=frozenset)

    def __post_init__(self):
        args, index, attacks, in_masks, out_masks = compile_relation(
            map(_check_name, self.arguments), self.attacks, "attack")
        for name, value in (("arguments", args), ("attacks", attacks),
                            ("_index", index), ("_in", in_masks),
                            ("_out", out_masks)):
            object.__setattr__(self, name, value)

    # -- mask helpers -----------------------------------------------------

    def _mask_of(self, names: Iterable[str]) -> int:
        mask = 0
        for name in names:
            i = self._index.get(name)
            if i is None:
                raise UnknownArgumentError(f"unknown argument {name!r}")
            mask |= 1 << i
        return mask

    def _names_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.arguments[i] for i in set_bits(mask))

    def _attacked_by_mask(self, mask: int) -> int:
        hit = 0
        for i in set_bits(mask):
            hit |= self._out[i]
        return hit

    # -- predicates -------------------------------------------------------

    def attackers_of(self, name: str) -> frozenset[str]:
        if name not in self._index:
            raise UnknownArgumentError(f"unknown argument {name!r}")
        return frozenset(self._names_of(self._in[self._index[name]]))

    def is_conflict_free(self, members: Iterable[str]) -> bool:
        """True iff no attack has both endpoints inside ``members``."""
        mask = self._mask_of(members)
        return not any(self._out[i] & mask for i in set_bits(mask))

    def defends(self, members: Iterable[str], name: str) -> bool:
        """True iff every attacker of ``name`` is attacked from ``members``."""
        mask = self._mask_of(members)
        if name not in self._index:
            raise UnknownArgumentError(f"unknown argument {name!r}")
        attackers = self._in[self._index[name]]
        return attackers & ~self._attacked_by_mask(mask) == 0

    def defended_arguments(self, members: Iterable[str]) -> frozenset[str]:
        """All arguments defended by ``members`` (the defense operator)."""
        counter = self._attacked_by_mask(self._mask_of(members))
        out = 0
        for i in range(len(self.arguments)):
            if self._in[i] & ~counter == 0:
                out |= 1 << i
        return frozenset(self._names_of(out))

    def extension(self, members: Iterable[str],
                  semantics: str = "conflict-free") -> Extension:
        """Build a checked extension; rejects conflicting member sets."""
        names = self._names_of(self._mask_of(members))
        if not self.is_conflict_free(names):
            raise ValidationError(
                "set {%s} is not conflict-free" % ",".join(names))
        return Extension(names, semantics)

    # -- semantics --------------------------------------------------------

    def _grounded_labelling(self) -> tuple[int, int]:
        # Returns the (IN, OUT) masks. live[i] counts the attackers of i
        # not yet OUT; i joins the queue when it reaches zero. That never
        # happens to an OUT argument, whose IN attacker stays live, so a
        # self-attacker is never accepted. An argument attacked by several
        # IN arguments is labelled OUT, and counted down from, only once.
        live = [m.bit_count() for m in self._in]
        queue = [i for i, count in enumerate(live) if not count]
        in_mask = out_mask = 0
        while queue:
            i = queue.pop()
            in_mask |= 1 << i
            for j in set_bits(self._out[i] & ~out_mask):
                out_mask |= 1 << j
                for k in set_bits(self._out[j]):
                    live[k] -= 1
                    if not live[k]:
                        queue.append(k)
        return in_mask, out_mask

    def grounded_extension(self) -> Extension:
        """The least complete extension, from the grounded labelling.

        An argument is IN once all its attackers are OUT, and everything
        an IN argument attacks is OUT; the IN arguments form the grounded
        extension. The labelling runs in O(n + m) for n arguments and m
        attacks, so it stays cheap on frameworks far beyond the
        enumeration cap.
        """
        return Extension(self._names_of(self._grounded_labelling()[0]),
                         "grounded")

    def _conflict_free_masks(self, chosen: int = 0,
                             banned: int = 0) -> Iterator[int]:
        # Include/exclude DFS over the sorted arguments that are neither
        # ``chosen`` nor ``banned``, each yielded set containing
        # ``chosen``. conflict[k] holds everything free[k] attacks or is
        # attacked by (including itself for a self-attack), so one AND
        # rejects a branch and all its supersets.
        free = [i for i in range(len(self.arguments))
                if not (chosen | banned) >> i & 1]
        conflict = [self._in[i] | self._out[i] for i in free]
        depth = len(free)
        stack = [(0, chosen)]
        while stack:
            k, chosen = stack.pop()
            if k == depth:
                yield chosen
                continue
            bit = 1 << free[k]
            if conflict[k] & (chosen | bit) == 0:
                stack.append((k + 1, chosen | bit))
            stack.append((k + 1, chosen))

    def enumerate_extensions(self, semantics: str,
                             max_args: int = DEFAULT_MAX_ARGS) -> list[Extension]:
        """All extensions under ``semantics``, canonically ordered.

        Order is by cardinality, then by the lexicographic member list, and
        is stable across runs and platforms. ``grounded`` always yields a
        single extension and bypasses both the subset walk and the
        ``max_args`` cap; ``stable`` may yield none.

        ``complete``, ``preferred`` and ``stable`` walk only the arguments
        the grounded labelling leaves undecided, with its IN arguments
        already chosen and its OUT arguments excluded. ``conflict-free``
        and ``admissible`` walk every argument. The cap counts every
        argument in either case.
        """
        if semantics not in SEMANTICS:
            raise ValidationError(f"unknown semantics: {semantics!r}")
        if semantics == "grounded":
            return [self.grounded_extension()]
        if max_args < 1:
            raise ValidationError("max_args must be >= 1")
        n = len(self.arguments)
        if n > max_args:
            raise CapExceededError(
                f"framework has {n} arguments, enumeration capped at {max_args}")

        if semantics in ("conflict-free", "admissible"):
            walk = self._conflict_free_masks()
        else:
            walk = self._conflict_free_masks(*self._grounded_labelling())
        full = (1 << n) - 1
        found: list[int] = []
        for mask in walk:
            if semantics == "conflict-free":
                found.append(mask)
                continue
            counter = self._attacked_by_mask(mask)
            if semantics == "stable":
                if counter | mask == full:
                    found.append(mask)
                continue
            defended = 0
            for i in range(n):
                if self._in[i] & ~counter == 0:
                    defended |= 1 << i
            if semantics == "admissible":
                if mask & ~defended == 0:
                    found.append(mask)
            else:  # complete and preferred both start from completeness
                if mask == defended:
                    found.append(mask)
        if semantics == "preferred":
            # Largest first: a mask is maximal iff no mask kept before it
            # is a superset, since every strict superset is larger.
            kept: list[int] = []
            for m in sorted(found, key=int.bit_count, reverse=True):
                if all(m | k != k for k in kept):
                    kept.append(m)
            found = kept
        exts = [Extension(self._names_of(m), semantics) for m in found]
        return sorted(exts, key=_canonical_key)

