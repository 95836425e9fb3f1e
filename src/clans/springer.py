"""Reflection counting on closed orbits: the second rational-smoothness test.

Any two opposite signs in a closed clan may be replaced by a fresh pair; this
is the action of a noncompact reflection and moves the closed orbit up to an
orbit whose clan has exactly one pair.  Fix a target orbit.  Each closed
orbit below it gets a budget, the target's dimension above the closed-orbit
dimension, and a count, the number of reflections whose image still lies
below the target.  A count strictly exceeding the budget rules out rational
smoothness.

The diagnosis sweeps every closed orbit below the target.  Collapsing an
embedded forbidden pattern produces one natural closed orbit to try, but it
can meet its budget exactly even when the target is singular, e.g. the
collapse of (1,+,-,1) itself scores 3 against budget 3 while (+,+,-,-)
scores 4; the sweep is what makes the test match pattern avoidance.
"""

from __future__ import annotations

__all__ = [
    "EXCEEDS_BUDGET",
    "ReflectionWitness",
    "collapse_to_closed",
    "springer_count",
    "springer_diagnosis",
    "witness_json",
]

import operator
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import (
    MINUS,
    PLUS,
    Clan,
    ClanError,
    base_dimension,
    canonicalize,
    format_clan,
)
from .poset import OrbitPoset

#: A closed orbit disqualifies the target only when its count strictly
#: exceeds the budget; kept in one place so the convention is easy to revisit.
EXCEEDS_BUDGET = operator.gt


@dataclass(frozen=True)
class ReflectionWitness:
    """Counting record for one (closed orbit, target) pair."""

    closed: Clan
    target: Clan
    budget: int
    count: int
    hits: tuple[tuple[int, int], ...]


def springer_count(poset: OrbitPoset, closed: Clan, target: Clan) -> ReflectionWitness:
    """Count the reflections sending the closed orbit below the target.

    Raises ClanError unless both clans are elements of the poset and
    ``closed`` is closed and lies below the target.  Closedness is checked
    once, by the diagnosis table behind :meth:`OrbitPoset.closed_leq`.

    >>> from clans import build_poset, parse_clan
    >>> closed, target = parse_clan("+,+,-,-", 2, 2), parse_clan("1,+,-,1", 2, 2)
    >>> w = springer_count(build_poset(2, 2), closed, target)
    >>> w.budget, w.count, w.hits
    (3, 4, ((1, 3), (1, 4), (2, 3), (2, 4)))
    """
    c = poset.index_of(closed)
    t = poset.index_of(target)
    if not poset.closed_leq(c, t):
        raise ClanError(
            f"closed clan {format_clan(closed)} does not lie below {format_clan(target)}"
        )
    budget = poset.dims[t] - base_dimension(poset.p, poset.q)
    hits = poset.reflection_hits(c, t)
    return ReflectionWitness(closed, target, budget, len(hits), hits)


def springer_diagnosis(poset: OrbitPoset, target: Clan) -> Optional[ReflectionWitness]:
    """First closed orbit below the target whose count exceeds its budget.

    None means the target passes the reflection-counting test.  This agrees
    with seven-pattern avoidance except on clans including 1,2,2,3,3,1,
    which pass avoidance yet fail here; the findings test module shows the
    failing side matches the geometry (those closures are not rationally
    smooth).
    """
    elements = poset.elements
    for c in poset.closed_below_indices(poset.index_of(target)):
        witness = springer_count(poset, elements[c], target)
        if EXCEEDS_BUDGET(witness.count, witness.budget):
            return witness
    return None


def collapse_to_closed(
    clan: Clan, pattern: Clan, embedding: Sequence[int]
) -> Clan:
    """Flatten a clan with an embedded pattern to a closed clan below it.

    The host positions filling the pattern's pairs become alternating signs
    -,+ (or -,+,-,+ for two pairs, in position order); every other pair
    becomes + on the left and - on the right.  Heuristic witness hunting
    only: the result need not exceed its budget even for singular targets.
    """
    embedding = tuple(embedding)
    # 1 <= e_1 < ... < e_m <= n, checked before any position is read; then
    # the picked pair entries must come in whole pairs for canonicalize
    in_order = all(map(operator.lt, (0,) + embedding, embedding + (clan.n + 1,)))
    host_mates = clan.mates()
    if (
        len(embedding) != pattern.n
        or not in_order
        or any(host_mates.get(i, i) not in embedding for i in embedding)
        or canonicalize(clan.entries[i - 1] for i in embedding) != pattern
    ):
        raise ClanError("the given positions do not embed the pattern in the clan")
    pattern_mates = pattern.mates()
    collapsed = sorted(embedding[slot - 1] for slot in pattern_mates)
    replaced = set(collapsed)
    new = list(clan.entries)
    for index, pos in enumerate(collapsed):
        new[pos - 1] = MINUS if index % 2 == 0 else PLUS
    for left, right in clan.pairs:
        if left not in replaced:
            new[left - 1] = PLUS
            new[right - 1] = MINUS
    return Clan(tuple(new), clan.p, clan.q)


def witness_json(witness: ReflectionWitness) -> dict:
    """Counting record as a JSON-ready document."""
    return {
        "closed": format_clan(witness.closed),
        "gamma": format_clan(witness.target),
        "budget": witness.budget,
        "count": witness.count,
        "hits": [list(ij) for ij in witness.hits],
    }
