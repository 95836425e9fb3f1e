"""The move order on clans of a fixed signature, inside the closure order.

Three kinds of moves enlarge an orbit:

* pair creation: two opposite signs, anywhere, become a new pair;
* endpoint slide: a pair entry trades places with a sign lying farther from
  the entry's mate, on the same side of the mate;
* pair exchange: entries of two different pairs swap, the left entry's mate
  lying left of the right entry's mate.

The move order is the reflexive-transitive closure of these moves over all
clans of signature (p, q); it misses some closure relations, as
``test_pair_split_relation_is_missed_by_the_moves`` in ``tests/test_findings.py``
shows.  Every move must strictly raise the orbit dimension; that makes the
relation antisymmetric.  :func:`build_poset` checks it once per move edge and
aborts loudly on a move that fails it instead of dropping the edge, since that
would mean the move rules are implemented wrong.

A clan is its signs, by position, and a pairing of the other positions.  A
creation turns two signs into a pair and a slide moves one sign, so a result's
signs show the kind and, for these two, the positions.  An exchange of u and v
keeps the signs and trades the pairs {u, m(u)}, {v, m(v)} for {u, m(v)},
{v, m(u)}; of the other swaps between those two pairs, only its twin, the
exchange of m(u) and m(v), does the same.  So two moves make the same clan iff
they are twins (a test pins it too); :func:`successors` keeps the twin whose u
is a right end.

Every move result is numbered as it is made.  A canonical clan numbers its
pairs by where they open, and a move makes at most one pair open anew, at a
position y left of its old opening x.  Creation at signs i < j has y = i and
x past the end; a left slide of the entry at v to the sign at u has y = u and
x = v; an exchange of u < v, with mates m(u) < m(v), of disjoint pairs has
y = max(u, m(u)) and x = min(v, m(v)).  With k pairs opening before y and b
numbering x's pair (a new pair is one past the last), the pairs k+1..b-1
opening between y and x move up one and the pair at y becomes k+1.  So the
result is the parent renumbered so, then two positions overwritten: creation
writes k+1 at i and j; a slide swaps u and v; an exchange swaps y with v if
y = u, else with m(v), which links the same positions and carries the number
of x's pair to y.  Right slides and exchanges of crossing pairs (the result
nests them) open nothing anew: there k >= b, and the renumbering is void.
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

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from typing import Iterator, NoReturn

from .core import (
    MINUS,
    PLUS,
    Clan,
    ClanError,
    _clans_with_dimensions,
    _trusted_clan,
    base_dimension,
    format_clan,
    is_closed,
    noncompact_reflections,
)

PAIR_CREATION = "pair-creation"
ENDPOINT_SLIDE = "endpoint-slide"
PAIR_EXCHANGE = "pair-exchange"

#: Largest p + q that :func:`build_poset` accepts.  Clan counts grow
#: super-exponentially with n (9,891 at (5,4), 45,297 at (5,5)), and the
#: down-set bitmasks are quadratic in the clan count.
POSET_MAX_N = 9


class NonIncreasingMoveError(RuntimeError):
    """A generated move failed to raise the dimension; the move rules are broken."""


class _MissingElementError(RuntimeError):
    """A move result is not among the enumerated clans; the enumeration is broken."""


class PosetSizeError(ValueError):
    """Requested signature is above the configured size bound."""


@dataclass(frozen=True)
class Move:
    """One enlargement step: its kind, the two positions touched, the result."""

    kind: str
    positions: tuple[int, int]
    result: Clan


def _move_results(clan: Clan, labelled: bool = True) -> list:
    """(kind, i, j, result entries) of every move in :func:`moves` order, i and j counting
    from 1; unlabelled, the entries of each distinct result once (see the module docstring)."""
    entries = clan.entries
    signs, ends, before, left, mate = [], [], [], [], [0] * len(entries)
    for pos, e in enumerate(entries):
        before.append(len(left))  # pairs opened before pos
        if e == PLUS or e == MINUS:
            signs.append(pos)
            continue
        ends.append(pos)
        if e > len(left):
            left.append(pos)
        else:
            mate[pos] = m = left[e - 1]
            mate[m] = pos

    def renumbered(k: int, b: int) -> list:
        """The entries with numbers k+1..b-1 raised by one and b renamed to k+1."""
        new = list(entries)
        if b > k + 1:  # else no number changes
            for e, i in enumerate(left[k : b - 1], start=k + 2):
                new[i] = new[mate[i]] = e
            if b <= len(left):
                i = left[b - 1]
                new[i] = new[mate[i]] = k + 1
        return new

    out = []
    for a, i in enumerate(signs):
        k, s = before[i], entries[i]
        shifted = renumbered(k, len(left) + 1)
        for j in signs[a + 1 :]:
            if entries[j] != s:
                new = shifted.copy()
                new[i] = new[j] = k + 1
                out.append((PAIR_CREATION, i + 1, j + 1, tuple(new)) if labelled else tuple(new))
    for c, v in enumerate(ends):  # v - c signs lie before v
        if v > mate[v]:  # a right endpoint slides right, opening nothing anew
            for u in signs[v - c :]:
                new = list(entries)
                new[u], new[v] = new[v], new[u]
                out.append((ENDPOINT_SLIDE, v + 1, u + 1, tuple(new)) if labelled else tuple(new))
            continue
        for u in signs[: v - c]:
            new = renumbered(before[u], entries[v])
            new[u], new[v] = new[v], new[u]
            out.append((ENDPOINT_SLIDE, u + 1, v + 1, tuple(new)) if labelled else tuple(new))
    for u, v in combinations(ends, 2):
        # false for one pair's two ends and, unlabelled, for the twin with u a left end
        if mate[u] < mate[v] and (labelled or u > mate[u]):
            y, z = (u, v) if u > mate[u] else (mate[u], mate[v])  # see the module docstring
            new = renumbered(before[y], entries[v])
            new[y], new[z] = new[z], new[y]
            out.append((PAIR_EXCHANGE, u + 1, v + 1, tuple(new)) if labelled else tuple(new))
    return out


def moves(clan: Clan) -> list[Move]:
    """Every single-move enlargement of the clan: pair creations by (i, j), then endpoint
    slides by the pair entry's position and then the sign's, then pair exchanges by (u, v).

    Dimensions are not checked here; :func:`build_poset` checks each move edge.
    No result is validated or renumbered: the module docstring shows each is canonical.
    """
    p, q = clan.p, clan.q
    return [Move(kind, (i, j), _trusted_clan(r, p, q)) for kind, i, j, r in _move_results(clan)]


def successors(clan: Clan) -> set[Clan]:
    """Distinct one-move enlargements of the clan, each made and built as a ``Clan`` once."""
    p, q = clan.p, clan.q
    return {_trusted_clan(r, p, q) for r in _move_results(clan, labelled=False)}


def _successor_indices(index: dict[tuple, int], clan: Clan) -> tuple[int, ...]:
    """Ascending element indices of the clan's successors; the ``Clan`` set dies here."""
    try:
        return tuple(sorted(index[s.entries] for s in successors(clan)))
    except KeyError as exc:
        missing = format_clan(_trusted_clan(exc.args[0], clan.p, clan.q))
        raise _MissingElementError(
            f"move result {missing} of {format_clan(clan)} is not among the {len(index)} "
            "enumerated clans"
        ) from None


class _ClosedTable(dict):
    """Entries keyed by closed element index; any other index is not closed."""

    def __init__(self, elements: tuple[Clan, ...]) -> None:
        super().__init__()
        self.elements = elements

    def __missing__(self, i: int) -> NoReturn:
        raise ClanError(f"clan {format_clan(self.elements[i])} is not closed")


class OrbitPoset:
    """All clans of signature (p, q) under the move order, inside the closure order.

    Elements sit in enumeration order.  Two tables are built on first use.
    The first holds one down-set bitmask per element and the Hasse covers,
    so :meth:`leq` is one bit test once it is built and :meth:`upper_set`
    scans the down-sets.  The index-level accessors (:meth:`down_mask`,
    :meth:`closed_below_indices`, :meth:`reflection_hits`) answer the same
    questions by element index without hashing clans.  All but the first
    read the second table, which is all that the diagnosis and ``verify``'s
    budget statistic ask about; no other module reads either table.  S is
    the closed elements in token order, then one block per closed element
    with a position for each of its reflections; closedness is
    :func:`~clans.core.is_closed`, the package's one test of it.  The second
    table holds each element's down-set restricted to S and, for each closed
    element, its block.  An index missing from it is not closed and raises
    :class:`~clans.core.ClanError`.  A closed clan has no pairs, so its only
    moves are pair creations, which are its reflection images; as the order
    is move-generated, a closed element lies below t iff it is t or one of
    its images lies below t.  Apart from the two tables, instances are
    immutable once constructed and safe to share; build with
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
        index: dict[tuple, int],
    ) -> None:
        self.p = p
        self.q = q
        self.elements = elements
        self.dims = dims
        self.succ = succ
        self._index = index
        self._ascending = sorted(range(len(elements)), key=dims.__getitem__)

    @cached_property
    def _closure(self) -> tuple[list[int], tuple[tuple[int, ...], ...]]:
        """(down-set bitmask, ascending upper covers) per element, in one pass.

        Elements go by ascending dimension, which every move edge raises, so
        a predecessor's down-set is done before it is read, and elements of
        equal dimension are incomparable.  Each j's predecessor list is
        filled highest dimension first, and j ORs their down-sets into
        ``below`` in list order.  A predecessor below another one has a lower
        dimension, so it is already in ``below`` when read: it is no cover
        and adds nothing.  A predecessor not yet in ``below`` lies below no
        other one, so it is a cover.
        """
        size, succ = len(self.elements), self.succ
        preds = [[] for _ in range(size)]
        for i in reversed(self._ascending):
            for j in succ[i]:
                preds[j].append(i)
        down, covers = [0] * size, [[] for _ in range(size)]
        for j in self._ascending:
            below = 0
            for i in preds[j]:
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
        """Is a below-or-equal b in the move order?  False for ``1,1,2,2`` below ``1,+,-,1``,
        a closure relation the moves miss (``test_pair_split_relation_is_missed_by_the_moves``)."""
        low = self.index_of(a)
        return bool(self.down_mask(self.index_of(b)) >> low & 1)

    def lower_set(self, clan: Clan) -> set[Clan]:
        """Every element below-or-equal the given clan in the move order (see :meth:`leq`)."""
        below = bin(self.down_mask(self.index_of(clan)))[:1:-1]  # bit i is below[i]
        return {self.elements[i] for i, bit in enumerate(below) if bit == "1"}

    def upper_set(self, clan: Clan) -> set[Clan]:
        """Every element above-or-equal the given clan in the move order (see :meth:`leq`)."""
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
        closed, down, below, _ = self._diagnosis
        mask = down[i] & below
        while mask:
            yield closed[(low := mask & -mask).bit_length() - 1]
            mask ^= low

    def reflection_hits(self, c: int, t: int) -> tuple[tuple[int, int], ...]:
        """(a, b) of each reflection of closed element c whose image lies below element t."""
        _, down, _, blocks = self._diagnosis
        block, start, reflections = blocks[c]
        mask = (down[t] & block) >> start
        hits = []
        while mask:  # from the block's low bit up: noncompact_reflections order
            low = mask & -mask
            hits.append(reflections[low.bit_length() - 1])
            mask ^= low
        return tuple(hits)

    def _budget_counts(self) -> tuple[int, int]:
        """How many (closed c, target t) pairs have c below t, and in how many
        c's reflection count reaches the budget: ``verify``'s statistic, in
        one sweep over the second table instead of a call per pair."""
        closed, down, below, blocks = self._diagnosis
        base, pairs, at_least = base_dimension(self.p, self.q), 0, 0
        for t, dim in enumerate(self.dims):
            budget, mask = dim - base, down[t] & below
            pairs += mask.bit_count()
            while mask:
                c = closed[(low := mask & -mask).bit_length() - 1]
                at_least += (down[t] & blocks[c][0]).bit_count() >= budget
                mask ^= low
        return pairs, at_least

    @cached_property
    def _diagnosis(self) -> tuple:
        """(closed element indices, S-masked down-sets, closed S-mask, per
        closed index its block: (S-mask, first S position, (a, b) per position)).

        S opens with the closed elements in token order, picked by
        :func:`~clans.core.is_closed`.  Then each closed element, in the same
        order, gets a block of one position per (a, b) of
        :func:`~clans.core.noncompact_reflections`, in that order.  A closed
        element's successors are its reflection images (see the class
        docstring), whose indices fall along the reflections, as where two
        first differ the earlier holds 1, which follows both signs in token
        order; so its successor tuple read backwards sets the block's
        positions.  A one-pair clan has two closed preimages, its pair's ends
        holding +,- or -,+, so it sets one position in each of their blocks.
        The down-sets then gather S along the move edges, so a block bit of
        element t is set iff that image lies below t, and the block read from
        its low bit up lists the hits in
        :func:`~clans.core.noncompact_reflections` order.
        """
        elements, succ = self.elements, self.succ
        closed = [k for k, c in enumerate(elements) if is_closed(c)]
        down, blocks = [0] * len(elements), _ClosedTable(elements)
        start = len(closed)
        for r, k in enumerate(closed):
            down[k] = 1 << r
            for s, image in enumerate(reversed(succ[k]), start):
                down[image] |= 1 << s
            reflections = noncompact_reflections(elements[k])
            end = start + len(reflections)
            blocks[k] = ((1 << end) - (1 << start), start, reflections)
            start = end
        for i in self._ascending:
            for j in succ[i]:
                down[j] |= down[i]
        return closed, down, (1 << len(closed)) - 1, blocks

    def hasse_covers(self) -> list[tuple[Clan, Clan]]:
        """Transitive-reduction edges (lower, upper), by element index."""
        return [
            (self.elements[i], self.elements[j])
            for i in range(len(self.elements))
            for j in self.cover_indices[i]
        ]

    def maximum(self) -> Clan:
        """The one element with no successors: the greatest, as the order is finite."""
        tops = [c for c, up in zip(self.elements, self.succ) if not up]
        if len(tops) != 1:
            raise RuntimeError(
                f"({self.p},{self.q}) poset has {len(tops)} top elements, expected one"
            )
        return tops[0]

    def minimal_elements(self) -> list[Clan]:
        entered = set(chain.from_iterable(self.succ))  # targets of move edges
        return [c for i, c in enumerate(self.elements) if i not in entered]


def build_poset(p: int, q: int) -> OrbitPoset:
    """Enumerate the clans of signature (p, q) and close the move relation.

    Refuses p + q above :data:`POSET_MAX_N`.  The dimensions are read off the
    enumeration walk, not computed by :func:`~clans.core.dimension`, which the
    census of ``enumerate`` and ``stats`` still calls once per class.  Each
    clan's successor set is resolved to element indices as soon as it is
    made, so one set of ``Clan`` objects is alive at a time.
    """
    if p + q > POSET_MAX_N:
        raise PosetSizeError(f"p+q={p + q} exceeds the size bound {POSET_MAX_N}")
    elements, dims = map(tuple, _clans_with_dimensions(p, q))
    index = {c.entries: i for i, c in enumerate(elements)}
    succ = tuple([_successor_indices(index, c) for c in elements])
    for i, targets in enumerate(succ):
        for j in targets:
            if dims[j] <= dims[i]:
                raise NonIncreasingMoveError(
                    f"move {format_clan(elements[i])} -> {format_clan(elements[j])} "
                    f"takes the dimension from {dims[i]} to {dims[j]}"
                )
    return OrbitPoset(p, q, elements, dims, succ, index)


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
