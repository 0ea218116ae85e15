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

Enumeration is one include/exclude depth-first walk over the chosen set,
the set it attacks and the set of its attackers as bitmasks, so
admissibility and stability are O(1) tests. It follows each include branch
at once, and its stack holds only the exclude branches still to visit. An
argument that attacks or is attacked by the chosen set can never join it,
so the walk steps over it to the next one that can. After Doutre & Mengin
(IJCAR 2001) and Nofal, Atkinson & Dunne (AIJ 207, 2014), it cuts a branch
once an argument needs an attacker and none is *choosable* (ahead in the
walk and in conflict with nothing chosen): for admissible, complete and
preferred, an attacker of the chosen set not yet attacked back; for
stable, an argument that can be neither chosen nor attacked any more.
Complete, preferred and stable extensions contain the grounded extension
and exclude what it attacks, so their walk starts with its IN arguments
chosen and its OUT ones banned. IN attacks exactly OUT, and every attacker
of IN is OUT, so the labelling is the walk's root as it is computed.
Complete and preferred also cut the branch that leaves out an argument the
chosen set already defends: attacked arguments only accumulate, so the set
would stay defended and outside. At a leaf, completeness is tested only on
the free arguments the set does not attack, since an admissible set
defends no argument it attacks and no self-attacker (Dung's fundamental
lemma).

The walk takes the include branch first, over the arguments in
sorted-name order. Two sets part at the first argument where they differ,
and the one holding it comes first, so sets of one size come out in
lexicographic member order and every strict superset of a set comes
before it. A stable sort by size is then the canonical order, and
preferred keeps a complete set, inside the walk, only when no set kept so
far contains it. An index makes that test a few AND operations: per
argument, a bitmask over the positions of the kept sets that hold it. A
set is contained in a kept one exactly when the AND over its members is
not zero.

Under every semantics but grounded, the extensions of a disjoint union
of frameworks are the unions of one extension of each: the simplest case
of SCC-recursiveness (Baroni, Giacomin & Guida, AIJ 168, 2005). So when
more than 8 arguments are searched (every argument under conflict-free
and admissible, the undecided ones otherwise), they are split into the
weakly connected parts of the attack graph, one breadth-first pass over
the attack masks, and each part is walked alone. Each walk starts from
the whole grounded labelling, so that an attacker outside the part that
it labels OUT still counts as attacked. A part whose every argument
attacks itself is not walked: its only row is the seed, and under stable
it has none. If a part has no extension, the framework has none; else
every union of one set per part is made. When each part lies wholly
below the next in bit order, the rows of one size are each set of the
lowest part, in walk order, joined to the rest's rows of the size that
completes it: the canonical order, with no sort. Interleaving parts are
multiplied through a key that puts each union in the walk's order: the
mask reversed over the n bits, then the mask. The lowest differing bit
decides the walk's order, so it is the keys' descending order, and the
keys of the parts combine by OR. A search of at most 8 arguments is
walked whole, which costs less than the split.

In a symmetric framework with no self-attack, the preferred extensions
are the stable ones (Coste-Marquis, Devred & Marquis, ECSQARU 2005). So
under preferred, a part (or a whole walk) whose every argument attacks
exactly its attackers, decided ones included, and not itself, is walked
as stable, whose cut comes far sooner.

A hard argument-count cap (default 25), which counts every argument,
decided or not, guards against accidental exponential blow-ups.
:meth:`ArgumentationFramework.extension_masks` gives the extensions as
member masks, in the canonical order, so callers that compute over masks
decode the names only to print them, and may do so a chunk of rows at a
time. An extension's names are the sorted tuple its mask decodes to.
A list of masks decodes through one table per byte of the mask, a plain
list built once by doubling, so a row costs a lookup per byte: for
:meth:`ArgumentationFramework.row_decoder`, entry ``b`` is the tuple of
the names that byte ``b`` flags; for the CLI writers, those names joined,
each led by ``sep``, with a twin table without the lead for the lowest
byte that flags a name, so no row builds a tuple or a join. A list of at
most 256 masks decodes each mask by itself.
"""

from __future__ import annotations

import re
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import compress, count

from .errors import (CapExceededError, UnknownArgumentError, ValidationError,
                     _clip, _echo)

SEMANTICS = ("conflict-free", "admissible", "complete", "preferred",
             "grounded", "stable")

DEFAULT_MAX_ARGS = 25

NAME_REGEX = r"[A-Za-z0-9_]+"
NAME_PATTERN = re.compile(NAME_REGEX + r"\Z")

# "0"/"1" digits of bin() to the 0/1 flags itertools.compress reads
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _byte_decoder(items: list, empty, cut: int = 0) -> Callable:
    # mask -> the sum of items[i] over its bits i, through one list per
    # byte of the mask: entry b of a list is the sum of its (at most 8)
    # items that byte b flags, in bit order, built by doubling. The lowest
    # byte that flags an item reads a twin list whose entries lose their
    # first cut characters: the separator a text item starts with
    tables = []
    for k in range(0, len(items) or 1, 8):
        table = [empty]
        for item in items[k:k + 8]:
            table += [entry + item for entry in table]
        tables.append(table)
    pairs = [(table, [entry[cut:] for entry in table]) for table in tables]
    if len(pairs) == 2:  # 9-16 arguments, about 1.5x as fast as the loop
        (_, low), (high, high_first) = pairs
        if not cut:
            return lambda mask: low[mask & 255] + high[mask >> 8]
        return lambda mask: (low[mask & 255] + high[mask >> 8] if mask & 255
                             else high_first[mask >> 8])

    def decode(mask: int):
        total = empty
        for table, first in pairs:
            total += (table if total else first)[mask & 255]
            mask >>= 8
        return total
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

        Many rows decode through one table per byte of the mask, each a
        list of 256 entries built once. A list no longer than one table
        (such as the single grounded row) decodes each mask by itself: its
        rows would not repay the tables, and one large mask would need a
        table per byte.
        """
        if len(masks) <= 256:
            return self._names_of
        return _byte_decoder([(name,) for name in self.arguments], ())

    def _row_text(self, masks: Sequence[int],
                  sep: str) -> Callable[[int], str]:
        # each of masks to its sorted member names joined by sep, by the
        # rule of row_decoder; a table entry is sep + name per name
        if len(masks) <= 256:
            return lambda mask: sep.join(self._names_of(mask))
        return _byte_decoder([sep + name for name in self.arguments], "",
                             len(sep))

    def extension_mask(self, members: Iterable[str]) -> int:
        """The mask of the named set ``members``, checked: a string, or an
        invalid name (the lowest by ``repr``), raises ``ValidationError``,
        then the lowest unknown name ``UnknownArgumentError``, then a
        conflict ``ValidationError`` naming the lowest attacking member and
        the lowest member it attacks (a self-attacker alone).
        :meth:`row_decoder` gives the mask's sorted names."""
        names = set(_names(members))
        unknown = names - self._index.keys()
        if unknown:
            raise UnknownArgumentError(
                f"unknown argument {_echo(min(unknown))}")
        mask = sum(1 << self._index[name] for name in names)
        for i in set_bits(mask):
            hit = self._out[i] & mask
            if hit:  # the lowest attacker and the lowest member it attacks
                raise ValidationError("set {%s} is not conflict-free" % (
                    ",".join(map(_clip, self._names_of(1 << i | hit & -hit)))))
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

    def _parts(self, searched: int) -> list[int]:
        # the weakly connected parts of the attack graph over the arguments
        # of searched that hold a free argument (one that does not attack
        # itself), each grown from its lowest free argument, in that order.
        # No step per part reads all of searched
        ins, outs = self._in, self._out
        parts, taken = [], 0
        for start in compress(count(), bin(searched)[:1:-1].encode()
                              .translate(_BITS)):
            if outs[start] >> start & 1 or taken >> start & 1:
                continue
            part = todo = 1 << start
            while todo:
                i = (todo & -todo).bit_length() - 1
                todo &= todo - 1
                grow = (ins[i] | outs[i]) & searched & ~part
                part |= grow
                todo |= grow
            taken |= part
            parts.append(part)
        return parts

    def _walk(self, semantics: str, seed: tuple[int, int, int],
              part: int) -> list[int]:
        # Include/exclude DFS over the free arguments of part, a set of
        # searched arguments: those not self-attacking. A node is
        # (pending, chosen, attacked, attackers): the free arguments not
        # yet decided, the set, and the OR of _out and of _in over it; seed
        # is the root's last three. Attackers is read only outside
        # attacked, so the seed may leave out the attackers it attacks, as
        # the grounded one does. It decides its lowest choosable
        # argument, skipping the pending ones that are not: attacked and
        # attackers only grow, so they never become choosable. The exclude
        # child is pushed and the include child followed at once, so
        # leaves of one size come out in member order, and every strict
        # superset of a leaf first.
        ins, outs = self._in, self._out
        free = part
        for i in set_bits(part):
            if outs[i] >> i & 1:
                free ^= 1 << i
        stable = semantics == "stable"
        guard = 0 if semantics == "conflict-free" else part  # cf never cuts
        complete = semantics in ("complete", "preferred")
        preferred = semantics == "preferred"
        # holders[bit]: the positions in found of the kept sets holding
        # that argument; a dict, so a walk over one small part of many
        # costs no list over every argument
        holders: defaultdict[int, int] = defaultdict(int)
        found: list[int] = []
        stack = [(free, *seed)]
        while stack:
            pending, chosen, attacked, attackers = stack.pop()
            while True:
                choosable = pending & ~(attacked | attackers)
                # cut if an argument needing an attacker has none
                # choosable: for stable, one that can be neither chosen nor
                # attacked any more, else an attacker of chosen not yet
                # attacked back. Complete needs no cut of its own at a
                # skipped argument chosen defends: it is such an attacker
                # (were it attacked, chosen would attack its own member)
                need = (part & ~(chosen | attacked | choosable) if stable
                        else attackers & ~attacked & guard)
                while need:
                    low = need & -need
                    if not ins[low.bit_length() - 1] & choosable:
                        break
                    need ^= low
                if need or not choosable:
                    break
                low = choosable & -choosable
                i = low.bit_length() - 1
                pending = choosable ^ low
                # complete: once chosen defends i, it always will (attacked
                # only grows), so leaving it out finds nothing
                if not complete or ins[i] & ~attacked:
                    stack.append((pending, chosen, attacked, attackers))
                chosen |= low
                attacked |= outs[i]
                attackers |= ins[i]
            if need:
                continue
            # nothing left to choose, so chosen is the only completion;
            # complete also needs no outside argument defended. Chosen is
            # admissible here, so it defends none it attacks and no decided
            # or self-attacking one: only free ones outside both count
            if complete:
                rest = free & ~(chosen | attacked)
                while rest:
                    low = rest & -rest
                    if not ins[low.bit_length() - 1] & ~attacked:
                        break
                    rest ^= low
                if rest:
                    continue
            if preferred:
                # every strict superset came first, and the maximal ones
                # among them were kept: chosen lies in one exactly when the
                # AND of holders over its free members is not zero; every
                # kept set holds the grounded seed, so one with no free
                # member lies in all
                hit = (1 << len(found)) - 1
                rest = chosen & free
                while rest and hit:
                    low = rest & -rest
                    hit &= holders[low]
                    rest ^= low
                if hit:
                    continue
                rest = chosen & free
                while rest:
                    low = rest & -rest
                    holders[low] |= 1 << len(found)
                    rest ^= low
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

        A depth-first walk carries the chosen, attacked and attacker
        masks. ``admissible``, ``complete`` and ``preferred`` cut a branch
        once an attacker of the chosen set is neither attacked nor
        attackable from the arguments still choosable; ``stable`` once an
        argument can be neither chosen nor attacked. ``complete``,
        ``preferred`` and ``stable`` start from the grounded labelling;
        ``complete`` and ``preferred`` also cut the branch that leaves out
        an argument the chosen set already defends. The walk takes the
        include branch first, in sorted-name order, so sets of one size
        come out in member order, and a stable sort by size gives the
        canonical order; its stack holds only the exclude branches. The
        same order puts every strict superset of a set before it, so
        ``preferred`` keeps a complete set only when no set kept so far
        contains it, tested through a per-argument index of the kept sets.
        Above 8 searched arguments, each weakly connected part of the
        attack graph is walked alone from the whole grounded labelling
        (one of self-attackers alone needs no walk), and the parts
        multiplied: a size at a time, with no sort, when each lies below
        the next in bit order; else through a key per row (the mask
        reversed over the n bits, then the mask), sorted descending, then
        by size. Under ``preferred``, a part whose every argument attacks
        exactly its attackers and not itself is walked as ``stable``, as
        the two coincide there (Coste-Marquis, Devred & Marquis, ECSQARU
        2005). The cap counts every argument, whatever the walk visits;
        one that is not an ``int``, a ``bool`` too, is refused.
        """
        if semantics not in SEMANTICS:
            raise ValidationError(f"unknown semantics: {semantics!r}")
        if semantics == "grounded":
            return [self._grounded_labelling()[0]]
        if type(max_args) is not int:  # a bool is no cap
            raise ValidationError(
                f"max_args must be an int, not {_echo(max_args)}")
        if max_args < 1:
            raise ValidationError("max_args must be >= 1")
        n = len(self.arguments)
        if n > max_args:
            raise CapExceededError(
                f"framework has {n} arguments, enumeration capped at {max_args}")
        # the walk's root: the chosen set, what it attacks and its
        # attackers, and the arguments it searches. The grounded IN attacks
        # exactly OUT, and every attacker of IN is in OUT, so the walk
        # needs none of them as attackers
        seed, searched = (0, 0, 0), (1 << n) - 1
        if semantics not in ("conflict-free", "admissible"):
            chosen, attacked = self._grounded_labelling()
            seed = chosen, attacked, 0
            searched ^= chosen | attacked
        ins, outs = self._in, self._out
        # a walk over at most 8 arguments (256 leaves) costs less than a
        # split into parts
        if searched.bit_count() <= 8:
            parts = [searched]
        else:
            # the parts leave out each whose every argument attacks itself:
            # it adds only the seed to each row, and has no stable set
            parts = self._parts(searched)
            if semantics == "stable" and sum(
                    map(int.bit_count, parts)) < searched.bit_count():
                return []
        walks = []
        for part in parts:
            # a symmetric part with no self-attack: its preferred sets are
            # its stable ones
            symmetric = semantics == "preferred" and all(
                ins[i] == outs[i] and not outs[i] >> i & 1
                for i in set_bits(part))
            walk = self._walk("stable" if symmetric else semantics, seed,
                              part)
            if not walk:
                return []
            walks.append(walk)
        if len(walks) == 1:
            masks = walks[0]
        elif all(p < q & -q for p, q in zip(parts, parts[1:])):
            return _size_product(walks, seed[0])
        else:
            masks = _walk_product(walks, n)
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


def _product(tables: list[list[int]]) -> list[int]:
    # every OR of one key from each table, the first table's varying
    # slowest; halved at each level, so the two lists the last step
    # combines hold about the square root of its rows each
    if len(tables) == 1:
        return tables[0]
    left = _product(tables[:len(tables) // 2])
    right = _product(tables[len(tables) // 2:])
    return [a | b for a in left for b in right]


def _walk_product(walks: list[list[int]], n: int) -> list[int]:
    # Every union of one mask from each walk, over n arguments, in the
    # walk's order. A mask's key is the mask reversed over n bits, then
    # the mask: the walk's order is the keys' descending order, since the
    # lowest differing bit decides. Walks share only the seed, so keys
    # combine by OR, and a walk of one mask only adds its bits
    fmt = f"0{n}b"
    fixed, tables = 0, []
    for walk in walks:
        if len(walk) == 1:
            fixed |= walk[0]
        else:
            tables.append([int(format(m, fmt)[::-1], 2) << n | m
                           for m in walk])
    keys = _product([*tables, [fixed]])
    keys.sort(reverse=True)
    full = (1 << n) - 1
    for i, key in enumerate(keys):  # in place, so no second list is held
        keys[i] = key & full
    return keys


def _size_product(walks: list[list[int]], chosen: int) -> list[int]:
    # Every union of one mask from each walk, in the canonical order, when
    # each walk's part lies wholly below the next one's; sizes count past
    # the seed's IN set chosen, which every mask holds. Built from the
    # highest part down, a size at a time, dropping each size of the tail
    # once no later size reads it
    tail = [[chosen]]
    for walk in reversed(walks):
        sized = [(m, (m ^ chosen).bit_count()) for m in walk]
        top, end = max(k for _, k in sized), len(tail)
        level = []
        for s in range(end + top):
            level.append([m | r for m, k in sized if 0 <= s - k < end
                          for r in tail[s - k]])
            if s >= top:
                tail[s - top] = None
        tail = level
    masks = []
    for s, rows in enumerate(tail):
        masks += rows
        tail[s] = None
    return masks


def _framework(arguments: tuple[str, ...], index: dict[str, int],
               attacks: frozenset) -> ArgumentationFramework:
    # The framework over ``arguments`` and ``index`` as _sorted_index gives
    # them and a frozenset of 2-tuples, without the checks the caller made;
    # an attack with an unknown end still raises.
    framework = object.__new__(ArgumentationFramework)
    framework._compile(arguments, index, attacks)
    return framework
