"""Complete labellings, enumerated straight from their definition.

A labelling gives each argument one of IN, OUT and UNDEC. It is complete
when an argument is IN exactly when all its attackers are OUT, and OUT
exactly when some attacker is IN, so UNDEC exactly when no attacker is IN
and some attacker is UNDEC (Caminada, JELIA 2006; Modgil & Caminada 2009).
The complete extensions are the IN sets of the complete labellings; the
preferred ones are those with a maximal IN set, the stable ones those with
no UNDEC argument, and the grounded one is the least.

Deliberately independent of the library's walk: names, attacker and
target lists, and a domain per argument, a set of the labels it may still
take. Propagation removes a label only when no complete labelling that
fits the other domains gives it; the search then branches on the lowest
name (in sorted order) whose domain holds more than one label. A leaf has
one label per argument, and propagation has checked every argument
against its attackers there, so it is a complete labelling.
"""

from __future__ import annotations

IN, OUT, UNDEC = 1, 2, 4


def complete_labellings(arguments, attacks) -> list[dict[str, int]]:
    """Every complete labelling of the framework, as name -> label."""
    names = sorted(set(arguments))
    index = {name: i for i, name in enumerate(names)}
    attackers = [[] for _ in names]
    targets = [[] for _ in names]
    for a, b in attacks:
        attackers[index[b]].append(index[a])
        targets[index[a]].append(index[b])

    def revise(dom: list[int], a: int) -> list[int] | None:
        # the arguments whose domains this narrows, a's first if its own
        # does; None once a domain is empty
        att = attackers[a]
        out_able = in_able = undec_able = forced_in = 0
        for b in att:
            held = dom[b]
            out_able += held & OUT != 0
            in_able |= held & IN
            undec_able |= held & UNDEC
            forced_in |= held == IN
        allowed = ((IN if out_able == len(att) else 0)
                   | (OUT if in_able else 0)
                   | (UNDEC if undec_able and not forced_in else 0))
        label = dom[a] & allowed
        if not label:
            return None
        changed = [a] if label != dom[a] else []
        dom[a] = label
        # what a's label asks of its attackers
        if not label & OUT:  # no attacker IN
            for b in att:
                if dom[b] & IN:
                    dom[b] &= ~IN
                    if not dom[b]:
                        return None
                    changed.append(b)
        if label == IN:  # every attacker OUT
            for b in att:
                if dom[b] != OUT:
                    dom[b] &= OUT
                    if not dom[b]:
                        return None
                    changed.append(b)
        elif label in (OUT, UNDEC):  # some attacker IN, or UNDEC
            need = IN if label == OUT else UNDEC
            able = [b for b in att if dom[b] & need]
            if not able:
                return None
            if len(able) == 1 and dom[able[0]] != need:
                dom[able[0]] = need
                changed.append(able[0])
        elif not label & IN:  # some attacker not OUT
            able = [b for b in att if dom[b] != OUT]
            if not able:
                return None
            if len(able) == 1 and dom[able[0]] & OUT:
                dom[able[0]] &= ~OUT
                changed.append(able[0])
        return changed

    def propagate(dom: list[int], todo: list[int]) -> bool:
        # revise until nothing changes; an argument is revised again when
        # its own domain or one of its attackers' domains narrows
        queued = set(todo)
        while todo:
            a = todo.pop()
            queued.discard(a)
            changed = revise(dom, a)
            if changed is None:
                return False
            for b in changed:
                for c in (b, *targets[b]):
                    if c not in queued:
                        queued.add(c)
                        todo.append(c)
        return True

    found = []
    root = [IN | OUT | UNDEC] * len(names)
    stack = [root] if propagate(root, list(range(len(names)))) else []
    while stack:
        dom = stack.pop()
        a = next((i for i, label in enumerate(dom)
                  if label & (label - 1)), None)
        if a is None:
            found.append({name: dom[i] for i, name in enumerate(names)})
            continue
        for label in (IN, OUT, UNDEC):
            if dom[a] & label:
                child = dom[:]
                child[a] = label
                if propagate(child, [a, *targets[a]]):
                    stack.append(child)
    return found


def labelling_semantics(arguments, attacks) -> dict[str, list[frozenset]]:
    """The complete, preferred, stable and grounded extensions, each a
    list of frozensets of names."""
    labellings = complete_labellings(arguments, attacks)
    complete = [frozenset(name for name, label in labelling.items()
                          if label == IN) for labelling in labellings]
    # a complete labelling is fixed by its IN set, so the sets are
    # distinct, and one lies in a larger one exactly when it lies in a
    # maximal one: largest first, each is tested against those kept
    preferred = []
    for s in sorted(complete, key=len, reverse=True):
        if not any(s <= t for t in preferred):
            preferred.append(s)
    stable = [s for s, labelling in zip(complete, labellings)
              if UNDEC not in labelling.values()]
    grounded = [s for s in complete if all(s <= t for t in complete)]
    return {"complete": complete, "preferred": preferred,
            "grounded": grounded, "stable": stable}
