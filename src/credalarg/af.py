"""Abstract argumentation frameworks and extension enumeration.

An :class:`ArgumentationFramework` is a finite set of named arguments plus
a binary attack relation. Six acceptance semantics are supported:
conflict-free, admissible, complete, preferred, grounded and stable.

The attacks, and the causal edges of a
:class:`~credalarg.causality.CausalityGraph`, compile in two steps:
:func:`index_arguments` checks, sorts and indexes the names (bit i is
``arguments[i]``), and :func:`compile_pairs` turns the pairs into
per-argument source and target bitmasks over that index. The public
constructors reject first an invalid name, then a pair that is not a
2-tuple (:func:`pair_set`), then a pair with an unknown end. Each
refusal, there and in :meth:`ArgumentationFramework.extension_mask`,
names the lowest offender, so none depends on hash or input order. The
`.caf` loader, which has matched every name and pair already, indexes
the names once and builds the framework and the graph over that one
tuple and index, so in a parsed document they share ``arguments`` and a
framework mask is a graph mask.

The grounded extension comes from the grounded labelling (Modgil &
Caminada 2009): an argument is IN once all its attackers are OUT, and
everything an IN argument attacks is OUT. A queue of arguments whose
live-attacker count has dropped to zero computes it in O(n + m) for n
arguments and m attacks, so it needs no cap.

Enumeration is one include/exclude depth-first walk whose stack entries
carry the chosen set, the set it attacks and the set of its attackers as
bitmasks, so admissibility and stability are O(1) tests. After Doutre &
Mengin (IJCAR 2001) and Nofal, Atkinson & Dunne (AIJ 207, 2014), it cuts a
branch once an argument needs an attacker and none is *choosable* (ahead
in the walk and in conflict with nothing chosen): for admissible, complete
and preferred, an attacker of the chosen set not yet attacked back; for
stable, an argument that can be neither chosen nor attacked any more.
Complete, preferred and stable extensions contain the grounded extension
and exclude what it attacks, so their walk starts with its IN arguments
chosen and its OUT ones banned. Complete and preferred also cut the branch
that leaves out an argument the chosen set already defends: attacked
arguments only accumulate, so the set would stay defended and outside. At
a leaf, completeness is tested only on the free arguments the set does
not attack, since an admissible set defends no argument it attacks and no
self-attacker (Dung's fundamental lemma).

The walk takes the include branch first, over the arguments in
sorted-name order. Two sets part at the first argument where they differ,
and the one holding it comes first, so sets of one size come out in
lexicographic member order and every strict superset of a set comes
before it. A stable sort by size is then the canonical order, and
preferred keeps a complete set, inside the walk, only when no set kept so
far contains it.

A hard argument-count cap (default 25), which counts every argument,
decided or not, guards against accidental exponential blow-ups.
:meth:`ArgumentationFramework.extension_masks` gives the extensions as
member masks, in the canonical order, so callers that compute over masks
decode the names only to print them, and may do so a chunk of rows at a
time. An extension's names are the sorted tuple its mask decodes to.
:meth:`ArgumentationFramework.row_decoder` decodes a list of masks
through one table per byte of the mask: entry ``b`` of table ``k`` is the
names of ``arguments[8k:8k+8]`` that byte ``b`` flags, made on first use,
so a row costs a lookup per byte and small frameworks build only the
entries their rows touch.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import compress

from .errors import (CapExceededError, UnknownArgumentError, ValidationError,
                     _clip, _echo)

SEMANTICS = ("conflict-free", "admissible", "complete", "preferred",
             "grounded", "stable")

DEFAULT_MAX_ARGS = 25

NAME_REGEX = r"[A-Za-z0-9_]+"
NAME_PATTERN = re.compile(NAME_REGEX + r"\Z")

# "0"/"1" digits of bin() to the 0/1 flags itertools.compress reads
_BITS = bytes.maketrans(b"01", b"\x00\x01")


class _ByteNames(dict):
    # the names of ``names`` (at most 8) that each byte value flags, keyed
    # by the byte; an entry is made on first use
    __slots__ = ("names",)

    def __init__(self, names: tuple[str, ...]):
        super().__init__()
        self.names = names

    def __missing__(self, byte: int) -> tuple[str, ...]:
        found = self[byte] = tuple(
            compress(self.names, bin(byte)[:1:-1].encode().translate(_BITS)))
        return found


def _byte_decoder(arguments: tuple[str, ...]) -> Callable[[int], tuple]:
    # mask -> names through one _ByteNames per byte of the mask
    tables = [_ByteNames(arguments[k:k + 8])
              for k in range(0, len(arguments) or 1, 8)]
    if len(tables) == 2:  # 9-16 arguments, about 1.5x as fast as the loop
        low, high = tables
        return lambda mask: low[mask & 255] + high[mask >> 8]

    def decode(mask: int) -> tuple[str, ...]:
        names = ()
        for table in tables:
            names += table[mask & 255]
            mask >>= 8
        return names
    return decode


class _Value:
    """An immutable value over the fields ``__match_args__`` names, in
    order: ``==`` within one class, ``hash`` and ``repr`` of the fields,
    and no assignment or deletion. Builders set the fields through
    ``object.__setattr__``; pickle and copy fill ``__dict__`` directly."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__match_args__))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def set_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _names(members: Iterable[str]) -> tuple:
    # members as a tuple; a str (never a member list) or an invalid name,
    # the lowest by repr, raises ValidationError
    if isinstance(members, str):
        raise ValidationError("members must be a collection of names, not "
                              f"the string {members!r}")
    names = tuple(members)
    invalid = [name for name in names
               if not isinstance(name, str) or not NAME_PATTERN.match(name)]
    if invalid:
        raise ValidationError(
            f"invalid argument name: {_echo(min(invalid, key=repr))}")
    return names


def _sorted_index(names: Iterable[str]) -> tuple:
    # the sorted distinct names and the name -> bit index, for names that
    # already match NAME_REGEX
    args = tuple(sorted(set(names)))
    return args, dict(zip(args, range(len(args))))


def index_arguments(arguments: Iterable[str]) -> tuple:
    """The sorted distinct ``arguments`` and the name -> bit index over
    them; a string, or an invalid name (the lowest by ``repr``), raises
    ``ValidationError``."""
    return _sorted_index(_names(arguments))


def pair_set(pairs: Iterable[tuple[str, str]], kind: str) -> frozenset:
    """``pairs`` as a frozenset; the lowest (by text) that is not a
    2-tuple raises ``ValidationError``, ``kind`` naming the relation."""
    pairs = list(pairs)
    malformed = [p for p in pairs if not isinstance(p, tuple) or len(p) != 2]
    if malformed:
        raise ValidationError(
            f"{kind} {min(malformed, key=repr)!r} is not a 2-tuple")
    return frozenset(pairs)


def compile_pairs(index: dict[str, int], pairs: frozenset,
                  kind: str) -> tuple[list[int], list[int]]:
    """Per bit of ``index``, the mask of its sources and the mask of its
    targets under the 2-tuples ``pairs``.

    A pair with an unknown end raises ``UnknownArgumentError`` (the lowest
    pair), ``kind`` naming the relation.
    """
    sources, targets, unknown = [0] * len(index), [0] * len(index), []
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
            f"{kind} ({_clip(str(a))},{_clip(str(b))}) mentions unknown "
            f"argument {_echo(a if a not in index else b)}")
    return sources, targets


class ArgumentationFramework(_Value):
    """Arguments plus an attack relation, immutable after construction.

    Self-attacks and mutual attacks are allowed. All queries are pure and
    safe to run concurrently.
    """

    __match_args__ = ("arguments", "attacks")

    def __init__(self, arguments: Iterable[str] = (),
                 attacks: Iterable[tuple[str, str]] = frozenset()):
        self._compile(*index_arguments(arguments), pair_set(attacks, "attack"))

    def _compile(self, arguments: tuple[str, ...], index: dict[str, int],
                 attacks: frozenset) -> None:
        in_masks, out_masks = compile_pairs(index, attacks, "attack")
        for name, value in (("arguments", arguments), ("attacks", attacks),
                            ("_index", index), ("_in", in_masks),
                            ("_out", out_masks)):
            object.__setattr__(self, name, value)

    # -- mask helpers -----------------------------------------------------

    def _names_of(self, mask: int) -> tuple[str, ...]:
        # bin() lists bits high first; reversed, byte i flags arguments[i]
        return tuple(compress(self.arguments,
                              bin(mask)[:1:-1].encode().translate(_BITS)))

    def row_decoder(self, masks: Sequence[int]
                    ) -> Callable[[int], tuple[str, ...]]:
        """A function from each of ``masks`` to its sorted member names.

        Many rows decode through one table per byte of the mask, each
        entry made on first use. A list shorter than one table (such as
        the single grounded row) decodes each mask by itself: its rows
        would share few entries, and one large mask would touch a table
        per byte.
        """
        if len(masks) <= 256:
            return self._names_of
        return _byte_decoder(self.arguments)

    def extension_mask(self, members: Iterable[str]) -> int:
        """The mask of the named set ``members``, checked: a string, or an
        invalid name (the lowest by ``repr``), raises ``ValidationError``,
        then the lowest unknown name ``UnknownArgumentError``, then a
        conflict ``ValidationError``. :meth:`row_decoder` gives the mask's
        sorted names."""
        names = set(_names(members))
        unknown = names - self._index.keys()
        if unknown:
            raise UnknownArgumentError(
                f"unknown argument {_echo(min(unknown))}")
        mask = sum(1 << self._index[name] for name in names)
        if any(self._out[i] & mask for i in set_bits(mask)):
            raise ValidationError("set {%s} is not conflict-free"
                                  % ",".join(self._names_of(mask)))
        return mask

    # -- semantics --------------------------------------------------------

    def _grounded_labelling(self) -> tuple[int, int]:
        # Returns the (IN, OUT) masks. live[i] counts the attackers of i
        # not yet OUT; i joins the queue when it reaches zero. That never
        # happens to an OUT argument, whose IN attacker stays live, so a
        # self-attacker is never accepted. An argument attacked by several
        # IN arguments is labelled OUT, and counted down from, only once.
        outs = self._out
        live = [m.bit_count() for m in self._in]
        queue = [i for i, count in enumerate(live) if not count]
        in_mask = out_mask = 0
        while queue:
            i = queue.pop()
            in_mask |= 1 << i
            # bits walked inline: most nodes attack little or nothing
            targets = outs[i] & ~out_mask
            out_mask |= targets
            while targets:
                low = targets & -targets
                targets ^= low
                attacked = outs[low.bit_length() - 1]
                while attacked:
                    bit = attacked & -attacked
                    attacked ^= bit
                    k = bit.bit_length() - 1
                    live[k] -= 1
                    if not live[k]:
                        queue.append(k)
        return in_mask, out_mask

    def _walk(self, semantics: str) -> list[int]:
        # Include/exclude DFS over the free arguments: those the grounded
        # seed leaves undecided, less the self-attackers. An entry is
        # (k, chosen, attacked, attackers), the last two the OR of _out
        # and of _in over chosen; ahead[k] masks free[k:]. The include
        # child is pushed last, so popped first: leaves of one size come
        # out in member order, and every strict superset of a leaf first.
        ins, outs = self._in, self._out
        n = len(ins)
        full = (1 << n) - 1
        chosen = banned = 0
        if semantics not in ("conflict-free", "admissible"):
            chosen, banned = self._grounded_labelling()
        free = [i for i in range(n)
                if not ((chosen | banned) >> i | outs[i] >> i) & 1]
        ahead = [0] * (len(free) + 1)
        for k in range(len(free) - 1, -1, -1):
            ahead[k] = ahead[k + 1] | 1 << free[k]
        attacked = attackers = 0
        for i in set_bits(chosen):
            attacked |= outs[i]
            attackers |= ins[i]
        stable = semantics == "stable"
        guard = 0 if semantics == "conflict-free" else full  # cf never cuts
        complete = semantics in ("complete", "preferred")
        preferred = semantics == "preferred"
        found: list[int] = []
        stack = [(0, chosen, attacked, attackers)]
        while stack:
            k, chosen, attacked, attackers = stack.pop()
            choosable = ahead[k] & ~(attacked | attackers)
            # cut if an argument needing an attacker has none choosable: for
            # stable, one that can be neither chosen nor attacked any more,
            # else an attacker of chosen not yet attacked back
            need = (full & ~(chosen | attacked | choosable) if stable
                    else attackers & ~attacked & guard)
            while need:
                low = need & -need
                if not ins[low.bit_length() - 1] & choosable:
                    break
                need ^= low
            if need:
                continue
            if choosable:
                i = free[k]
                # complete: once chosen defends free[k], it always will
                # (attacked only grows), so leaving it out finds nothing
                if not complete or ins[i] & ~attacked:
                    stack.append((k + 1, chosen, attacked, attackers))
                if 1 << i & choosable:
                    stack.append((k + 1, chosen | 1 << i, attacked | outs[i],
                                  attackers | ins[i]))
                continue
            # nothing left to choose, so chosen is the only completion;
            # complete also needs no outside argument defended. Chosen is
            # admissible here, so it defends none it attacks and no decided
            # or self-attacking one: only free ones outside both count
            if complete:
                rest = ahead[0] & ~(chosen | attacked)
                while rest:
                    low = rest & -rest
                    if not ins[low.bit_length() - 1] & ~attacked:
                        break
                    rest ^= low
                if rest:
                    continue
            if preferred:
                # every strict superset came first, and the maximal ones
                # among them were kept
                for m in found:
                    if chosen | m == m:
                        break
                else:
                    found.append(chosen)
            else:
                found.append(chosen)
        return found

    def extension_masks(self, semantics: str,
                        max_args: int = DEFAULT_MAX_ARGS) -> list[int]:
        """The member mask of every extension under ``semantics``.

        Order is by cardinality, then by the lexicographic member list, and
        is stable across runs and platforms. ``grounded`` always yields a
        single mask and bypasses both the subset walk and the ``max_args``
        cap; ``stable`` may yield none. Every check is made, and the walk
        finished, before the list is returned.

        One depth-first walk carries the chosen, attacked and attacker
        masks. ``admissible``, ``complete`` and ``preferred`` cut a branch
        once an attacker of the chosen set is neither attacked nor
        attackable from the arguments still choosable; ``stable`` once an
        argument can be neither chosen nor attacked. ``complete``,
        ``preferred`` and ``stable`` start from the grounded labelling;
        ``complete`` and ``preferred`` also cut the branch that leaves out
        an argument the chosen set already defends. The walk takes the
        include branch first, in sorted-name order, so sets of one size
        come out in member order, and a stable sort by size gives the
        canonical order. The same order puts every strict superset of a
        set before it, so ``preferred`` keeps a complete set only when no
        set kept so far contains it. The cap counts every argument,
        whatever the walk visits.
        """
        if semantics not in SEMANTICS:
            raise ValidationError(f"unknown semantics: {semantics!r}")
        if semantics == "grounded":
            return [self._grounded_labelling()[0]]
        if max_args < 1:
            raise ValidationError("max_args must be >= 1")
        n = len(self.arguments)
        if n > max_args:
            raise CapExceededError(
                f"framework has {n} arguments, enumeration capped at {max_args}")
        masks = self._walk(semantics)
        # a stable sort keeps the walk's member order within each size
        masks.sort(key=int.bit_count)
        return masks

    def enumerate_extensions(self, semantics: str,
                             max_args: int = DEFAULT_MAX_ARGS
                             ) -> list[tuple[str, ...]]:
        """The sorted member names of each of :meth:`extension_masks`, in
        its order."""
        masks = self.extension_masks(semantics, max_args)
        return list(map(self.row_decoder(masks), masks))


def _framework(arguments: tuple[str, ...], index: dict[str, int],
               attacks: frozenset) -> ArgumentationFramework:
    # The framework over ``arguments`` and ``index`` as _sorted_index gives
    # them and a frozenset of 2-tuples, without the checks the caller made;
    # an attack with an unknown end still raises.
    framework = object.__new__(ArgumentationFramework)
    framework._compile(arguments, index, attacks)
    return framework
