"""The closure order on clans of a fixed signature.

Three kinds of moves enlarge an orbit:

* pair creation: two opposite signs, anywhere, become a new pair;
* endpoint slide: a pair entry trades places with a sign lying farther from
  the entry's mate, on the same side of the mate;
* pair exchange: entries of two different pairs swap, the left entry's mate
  lying left of the right entry's mate.

The order is the reflexive-transitive closure of these moves over all clans
of signature (p, q).  Every move must strictly raise the orbit dimension;
that makes the relation antisymmetric.  :func:`build_poset` checks it once
per move edge and aborts loudly on a move that fails it instead of dropping
the edge, since that would mean the move rules are implemented wrong.

Most move results come out canonical.  A pair created at signs i < j is
number k + 1, where k pairs open before i, and every number above k goes up
by one.  A right endpoint slide moves no first occurrence; left endpoint
slides and exchanges can, so only their results are renumbered.
"""

from __future__ import annotations

__all__ = [
    "PAIR_CREATION",
    "ENDPOINT_SLIDE",
    "PAIR_EXCHANGE",
    "Move",
    "NonIncreasingMoveError",
    "OrbitPoset",
    "PosetSizeError",
    "build_poset",
    "export_dot",
    "export_tsv",
    "moves",
    "successors",
]

from array import array
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate, chain, combinations
from typing import Iterator, NoReturn

from .core import (
    MINUS,
    PLUS,
    Clan,
    ClanError,
    _relabelled,
    _trusted_clan,
    dimension,
    enumerate_clans,
    format_clan,
    is_closed,
)
from ._parallel import ordered_map

PAIR_CREATION = "pair-creation"
ENDPOINT_SLIDE = "endpoint-slide"
PAIR_EXCHANGE = "pair-exchange"

#: Largest p + q that :func:`build_poset` accepts.  Clan counts grow
#: super-exponentially with n (9,891 at (5,4), 45,297 at (5,5)), and the
#: down-set bitmasks are quadratic in the clan count.
POSET_MAX_N = 9


class NonIncreasingMoveError(RuntimeError):
    """A generated move failed to raise the dimension; the move rules are broken."""


class PosetSizeError(ValueError):
    """Requested signature is above the configured size bound."""


@dataclass(frozen=True)
class Move:
    """One enlargement step: its kind, the two positions touched, the result."""

    kind: str
    positions: tuple[int, int]
    result: Clan


def _move_results(clan: Clan) -> Iterator[tuple[str, int, int, tuple]]:
    """(kind, i, j, result entries) of every move, in :func:`moves` order."""
    entries = clan.entries
    signs, opened, left, mates = [], [], [], {}
    for pos, e in enumerate(entries, start=1):
        if e == PLUS or e == MINUS:
            signs.append(pos)
            opened.append(len(left))
        elif e > len(left):
            left.append(pos)
        else:
            mates[left[e - 1]] = pos
            mates[pos] = left[e - 1]

    for a, (i, k) in enumerate(zip(signs, opened)):
        shifted = [e if e == PLUS or e == MINUS or e <= k else e + 1 for e in entries]
        for j in signs[a + 1 :]:
            if entries[i - 1] != entries[j - 1]:
                new = shifted.copy()
                new[i - 1] = new[j - 1] = k + 1
                yield PAIR_CREATION, i, j, tuple(new)
    pair_positions = sorted(mates)
    for v in pair_positions:
        right = v > mates[v]
        for u in signs:
            if (u > v) == right:  # farther from the mate, on the same side
                new = list(entries)
                new[u - 1], new[v - 1] = new[v - 1], new[u - 1]
                result = tuple(new) if right else _relabelled(new)
                yield ENDPOINT_SLIDE, min(u, v), max(u, v), result
    for u, v in combinations(pair_positions, 2):
        if entries[u - 1] != entries[v - 1] and mates[u] < mates[v]:
            new = list(entries)
            new[u - 1], new[v - 1] = new[v - 1], new[u - 1]
            yield PAIR_EXCHANGE, u, v, _relabelled(new)


def moves(clan: Clan) -> list[Move]:
    """Every single-move enlargement of the clan, in a deterministic order.

    Dimensions are not checked here; :func:`build_poset` checks each move edge.
    No result is validated: each move keeps every number occurring twice and
    keeps the signature (p, q).  Only the results of left endpoint slides and
    exchanges are renumbered; the module docstring says why.
    """
    p, q = clan.p, clan.q
    return [Move(kind, (i, j), _trusted_clan(r, p, q)) for kind, i, j, r in _move_results(clan)]


def successors(clan: Clan) -> set[Clan]:
    """Distinct one-move enlargements of the clan, each built as a ``Clan`` once."""
    return {_trusted_clan(r, clan.p, clan.q) for r in {r for _, _, _, r in _move_results(clan)}}


def _successor_indices(index: dict[tuple, int], clan: Clan) -> tuple[int, ...]:
    """Ascending element indices of the clan's successors; the ``Clan`` set dies here."""
    return tuple(sorted(index[s.entries] for s in successors(clan)))


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _ClosedTable(dict):
    """Entries keyed by closed element index; any other index is not closed."""

    def __init__(self, elements: tuple[Clan, ...]) -> None:
        super().__init__()
        self.elements = elements

    def __missing__(self, i: int) -> NoReturn:
        raise ClanError(f"clan {format_clan(self.elements[i])} is not closed")


class OrbitPoset:
    """All clans of signature (p, q) under the move-generated closure order.

    Elements sit in enumeration order.  Two tables are built on first use.
    The first holds one down-set bitmask per element and the Hasse covers,
    so :meth:`leq` is one bit test once it is built and :meth:`upper_set`
    scans the down-sets.  The index-level accessors (:meth:`down_mask`,
    :meth:`closed_below_indices`, :meth:`closed_leq`, :meth:`reflections`,
    :meth:`reflection_hits`, :meth:`reflection_count`) answer the same
    questions by element index without hashing clans.  All but the first
    read the second table, which is all that the diagnosis asks about.  S
    is the closed elements in token order, then the one-pair clans in token
    order; closedness is :func:`~clans.core.is_closed`, the package's one
    test of it.  The second table holds each element's down-set restricted
    to S, the (a, b) of each one-pair clan, and for each closed element its
    own S bit and the S-mask of its reflection images.  It is also what
    rejects a clan that is not closed: an index missing from it raises
    :class:`~clans.core.ClanError`.  Apart from the two tables, instances
    are immutable once constructed and safe to share; build with
    :func:`build_poset`.

    >>> from clans.core import parse_clan
    >>> poset = build_poset(2, 2)
    >>> t = poset.index_of(parse_clan("1,+,-,1", 2, 2))
    >>> [format_clan(poset.elements[c]) for c in poset.closed_below_indices(t)]
    ['+,+,-,-', '+,-,+,-', '+,-,-,+', '-,+,+,-', '-,+,-,+']
    >>> poset.reflection_hits(poset.index_of(parse_clan("+,+,-,-", 2, 2)), t)
    ((1, 3), (1, 4), (2, 3), (2, 4))
    """

    def __init__(
        self,
        p: int,
        q: int,
        elements: tuple[Clan, ...],
        dims: tuple[int, ...],
        succ: tuple[tuple[int, ...], ...],
    ) -> None:
        self.p = p
        self.q = q
        self.n = p + q
        self.elements = elements
        self.dims = dims
        self.succ = succ
        self._index = {c.entries: i for i, c in enumerate(elements)}
        # Both tables are built in this order; as a list it would hold an
        # int object per element (0.3 MB at (5,4)).
        self._ascending = array("I", sorted(range(len(elements)), key=dims.__getitem__))

    @cached_property
    def _closure(self) -> tuple[list[int], tuple[tuple[int, ...], ...]]:
        """(down-set bitmask, ascending upper covers) per element, in one pass.

        Elements go by ascending dimension, which every move edge raises, so
        a predecessor's down-set is done before it is read, and elements of
        equal dimension are incomparable.  Each j ORs its predecessors'
        down-sets into ``below``, highest dimension first.  A predecessor
        below another one has a lower dimension, so it is already in
        ``below`` when read: it is no cover and adds nothing.  A predecessor
        not yet in ``below`` lies below no other one, so it is a cover.
        """
        size, succ = len(self.elements), self.succ
        # predecessors, highest dimension first: j's are flat[start[j] : start[j + 1]]
        start = [0] * (size + 1)
        for j in chain.from_iterable(succ):
            start[j] += 1
        start = list(accumulate(start))
        flat = array("I", [0]) * start[-1]
        for i in self._ascending:
            for j in succ[i]:
                start[j] -= 1
                flat[start[j]] = i
        down, covers = [0] * size, [[] for _ in range(size)]
        for j in self._ascending:
            below = 0
            for i in flat[start[j] : start[j + 1]]:
                if not below >> i & 1:
                    covers[i].append(j)
                    below |= down[i]
            down[j] = below | 1 << j
        return down, tuple(tuple(sorted(c)) for c in covers)

    @property
    def cover_indices(self) -> tuple[tuple[int, ...], ...]:
        """Upper covers of each element, as ascending element indices."""
        return self._closure[1]

    def __len__(self) -> int:
        return len(self.elements)

    def index_of(self, clan: Clan) -> int:
        try:
            return self._index[clan.entries]
        except KeyError:
            raise ClanError(
                f"clan {format_clan(clan)} is not an element of the ({self.p},{self.q}) poset"
            ) from None

    def leq(self, a: Clan, b: Clan) -> bool:
        """Is the a-orbit contained in the closure of the b-orbit?"""
        low = self.index_of(a)
        return bool(self.down_mask(self.index_of(b)) >> low & 1)

    def lower_set(self, clan: Clan) -> set[Clan]:
        """Every element below-or-equal the given clan."""
        return {self.elements[i] for i in _bits(self.down_mask(self.index_of(clan)))}

    def upper_set(self, clan: Clan) -> set[Clan]:
        """Every element above-or-equal the given clan."""
        i = self.index_of(clan)
        return {self.elements[j] for j, down in enumerate(self._closure[0]) if down >> i & 1}

    def closed_below(self, clan: Clan) -> set[Clan]:
        """The all-sign clans in the lower set of the given clan."""
        return {self.elements[i] for i in self.closed_below_indices(self.index_of(clan))}

    def down_mask(self, i: int) -> int:
        """Bitmask of the element indices below-or-equal element i."""
        return self._closure[0][i]

    def closed_below_indices(self, i: int) -> Iterator[int]:
        """Indices of the closed elements below element i, ascending (token order)."""
        order, down, closed, _, _ = self._diagnosis
        return map(order.__getitem__, _bits(down[i] & closed))

    def closed_leq(self, c: int, t: int) -> bool:
        """Does closed element c lie below element t?"""
        _, down, _, _, images = self._diagnosis
        return bool(down[t] & images[c][0])

    def reflections(self, i: int) -> tuple[tuple[tuple[int, int], int], ...]:
        """((a, b), image index) for each noncompact reflection of closed element i.

        Listed in the order of :func:`~clans.core.noncompact_reflections`;
        the image is :func:`~clans.core.apply_reflection` of the element.
        """
        order, _, _, pairs, images = self._diagnosis
        spots = sorted(_bits(images[i][1]), reverse=True)
        return tuple((pairs[s], order[s]) for s in spots)

    def reflection_hits(self, c: int, t: int) -> tuple[tuple[int, int], ...]:
        """(a, b) of each reflection of closed element c whose image lies below element t."""
        _, down, _, pairs, images = self._diagnosis
        mask = down[t] & images[c][1]
        hits = []
        while mask:  # from the highest S position down: see _diagnosis
            s = mask.bit_length() - 1
            hits.append(pairs[s])
            mask ^= 1 << s
        return tuple(hits)

    def reflection_count(self, c: int, t: int) -> int:
        """How many reflection images of closed element c lie below element t."""
        _, down, _, _, images = self._diagnosis
        return (down[t] & images[c][1]).bit_count()

    @cached_property
    def _diagnosis(self) -> tuple:
        """(S order, S-masked down-sets, closed S-mask, (a, b) per one-pair S
        position, per closed index its own S bit and its images' S-mask).

        One pass over the elements sorts out S: :func:`~clans.core.is_closed`
        picks the closed ones, and a clan that is not closed has one pair iff
        it holds no 2, by the canonical numbering.  Each image is the closed
        entries with 1 at a and b, already canonical.

        The images of a closed clan strictly decrease in token order along
        :func:`~clans.core.noncompact_reflections`, which lists (a, b) in
        lexicographic order.  Take (a, b) < (a', b').  If a < a', the two
        images agree before a, and at a the first holds 1 while the second
        keeps its sign, as a < a' < b'.  If a = a' and b < b', they agree
        before b, and at b the first holds 1 while the second keeps its sign.
        Either way, at the first position where they differ, the earlier
        reflection's image holds 1 against a sign, and 1 comes after both
        signs.  One-pair clans take S positions in token order, so reading
        an image mask from its highest bit down lists the reflections in
        :func:`~clans.core.noncompact_reflections` order.
        """
        elements, index = self.elements, self._index
        closed, one_pair = [], []
        for k, c in enumerate(elements):
            if is_closed(c):
                closed.append(k)
            elif 2 not in c.entries:
                one_pair.append(k)
        order = closed + one_pair
        position = {k: s for s, k in enumerate(order)}
        down = [1 << position[k] if k in position else 0 for k in range(len(elements))]
        for i in self._ascending:
            for j in self.succ[i]:
                down[j] |= down[i]
        pairs = [None] * len(closed) + [elements[k].pairs[0] for k in one_pair]
        images = _ClosedTable(elements)
        for s, k in enumerate(closed):
            entries, mask = elements[k].entries, 0
            for a, b in combinations(range(self.n), 2):
                if entries[a] != entries[b]:
                    image = list(entries)
                    image[a] = image[b] = 1
                    mask |= 1 << position[index[tuple(image)]]
            images[k] = (1 << s, mask)
        return order, down, (1 << len(closed)) - 1, pairs, images

    def hasse_covers(self) -> list[tuple[Clan, Clan]]:
        """Transitive-reduction edges (lower, upper), by element index."""
        return [
            (self.elements[i], self.elements[j])
            for i in range(len(self.elements))
            for j in self.cover_indices[i]
        ]

    def maximum(self) -> Clan:
        """The greatest element; raises if there is none or it is not unique."""
        full = (1 << len(self.elements)) - 1
        tops = [c for c, down in zip(self.elements, self._closure[0]) if down == full]
        if len(tops) != 1:
            raise RuntimeError(
                f"({self.p},{self.q}) poset has {len(tops)} top elements, expected one"
            )
        return tops[0]

    def minimal_elements(self) -> list[Clan]:
        return [c for i, c in enumerate(self.elements) if self.down_mask(i) == 1 << i]


def build_poset(p: int, q: int, *, jobs: int = 1) -> OrbitPoset:
    """Enumerate the clans of signature (p, q) and close the move relation.

    Refuses p + q above :data:`POSET_MAX_N`.  Each clan's successor set is
    resolved to element indices as soon as it is made, so one set of
    ``Clan`` objects is alive at a time.  Successor generation may fan out
    over `jobs` workers, which send back index tuples; the merge is ordered,
    so the result is identical for any worker count.
    """
    if p + q > POSET_MAX_N:
        raise PosetSizeError(f"p+q={p + q} exceeds the size bound {POSET_MAX_N}")
    elements = tuple(enumerate_clans(p, q))
    index = {c.entries: i for i, c in enumerate(elements)}
    succ = tuple(ordered_map(partial(_successor_indices, index), elements, jobs))
    dims = tuple(dimension(c) for c in elements)
    for i, targets in enumerate(succ):
        for j in targets:
            if dims[j] <= dims[i]:
                raise NonIncreasingMoveError(
                    f"move {format_clan(elements[i])} -> {format_clan(elements[j])} "
                    f"takes the dimension from {dims[i]} to {dims[j]}"
                )
    return OrbitPoset(p, q, elements, dims, succ)


def export_dot(poset: OrbitPoset) -> str:
    """Hasse diagram as a DOT digraph, byte-deterministic."""
    lines = [f"digraph clan_poset_p{poset.p}_q{poset.q} {{", "  rankdir=BT;"]
    for i, c in enumerate(poset.elements):
        lines.append(f'  n{i} [label="{format_clan(c)}  dim {poset.dims[i]}"];')
    for i in range(len(poset.elements)):
        for j in poset.cover_indices[i]:
            lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_tsv(poset: OrbitPoset) -> str:
    """One row per element: clan, dim, closed, semicolon-joined cover targets."""
    lines = ["clan\tdim\tclosed\tcovers"]
    names = [format_clan(c) for c in poset.elements]
    for i, c in enumerate(poset.elements):
        targets = ";".join(names[j] for j in poset.cover_indices[i])
        closed = "true" if is_closed(c) else "false"
        lines.append(f"{names[i]}\t{poset.dims[i]}\t{closed}\t{targets}")
    return "\n".join(lines) + "\n"
