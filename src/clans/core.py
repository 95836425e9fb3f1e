"""Clans: the combinatorial parameters of GL(p)xGL(q)-orbits on the flag variety.

A clan of signature (p, q) is a sequence of n = p + q symbols, each "+", "-"
or a natural number, in which every number occurs exactly twice or not at all.
Counting each pair of equal numbers once, the "+" entries together with the
pairs number p, and the "-" entries together with the pairs number q.  Two
sequences are the same clan when they carry the same signs in the same
positions and the same pairings, so pair labels are normalized to 1, 2, ...
in order of first occurrence: (2,+,2,-) and (1,+,1,-) are one clan, while
(1,+,-,1) is a different one.

Positions are 1-based throughout the public API.

>>> parse_clan("2,+,2,-", 2, 2) == parse_clan("1,+,1,-", 2, 2)
True
>>> dimension(parse_clan("1,+,-,1", 2, 2))
5
"""

from __future__ import annotations

__all__ = [
    "PLUS",
    "MINUS",
    "Entry",
    "Clan",
    "ClanError",
    "SignaturePrefix",
    "apply_reflection",
    "base_dimension",
    "canonicalize",
    "count_clans",
    "dimension",
    "enumerate_clans",
    "format_clan",
    "is_closed",
    "is_sign",
    "noncompact_reflections",
    "open_clan",
    "pair_map",
    "parse_clan",
    "prefix_signature",
    "token_sort_key",
]

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Union

PLUS = "+"
MINUS = "-"

#: One clan symbol: a sign or a positive pair number.
Entry = Union[str, int]


class ClanError(ValueError):
    """A sequence of entries does not form a valid clan (or the wrong one)."""


def is_sign(entry: Entry) -> bool:
    return entry == PLUS or entry == MINUS


@dataclass(frozen=True)
class Clan:
    """A canonical clan together with its signature (p, q).

    The constructor validates through :func:`canonicalize`: pair numbers
    must occur exactly twice and be numbered 1, 2, ... by first occurrence,
    and the entry counts must realize the signature.  Use
    :func:`canonicalize` or :func:`parse_clan` to build one from raw data.
    """

    __slots__ = ("entries", "p", "q", "__weakref__")

    entries: tuple[Entry, ...]
    p: int
    q: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        clan = canonicalize(self.entries)
        if clan.entries != self.entries:
            first_seen = list(dict.fromkeys(e for e in self.entries if not is_sign(e)))
            raise ClanError(
                f"pair numbers {first_seen} are not 1..k by first occurrence; use canonicalize"
            )
        if (clan.p, clan.q) != (self.p, self.q):
            raise ClanError(
                f"entries have signature ({clan.p},{clan.q}), not ({self.p},{self.q})"
            )

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Pair intervals (left, right), 1-based, indexed by pair number.

        One pass, by the canonical numbering: a number above the count of
        pairs opened so far opens the next pair, any other closes its pair.
        """
        out: list = []  # a pair's left position until its mate shows up
        for pos, e in enumerate(self.entries, start=1):
            if e == PLUS or e == MINUS:
                continue
            if e > len(out):
                out.append(pos)
            else:
                out[e - 1] = (out[e - 1], pos)
        return tuple(out)

    def mates(self) -> dict[int, int]:
        """Map each pair position to its mate's, read off :attr:`pairs`."""
        out: dict[int, int] = {}
        for a, b in self.pairs:
            out[a], out[b] = b, a
        return out

    def __hash__(self) -> int:
        return hash(self.entries)  # canonical entries fix p and q

    def __reduce__(self) -> tuple:
        return _trusted_clan, (self.entries, self.p, self.q)

    def __str__(self) -> str:
        return format_clan(self)


def canonicalize(entries: Iterable[Entry]) -> Clan:
    """Relabel pair numbers by first occurrence and infer the signature.

    >>> canonicalize((2, "+", 2, "-")).entries
    (1, '+', 1, '-')
    >>> canonicalize((3, 1, 1, 3)).entries
    (1, 2, 2, 1)
    """
    out: list[Entry] = []
    counts: dict[int, int] = {}
    number: dict[int, int] = {}  # pair number -> its canonical one, by first occurrence
    plus = minus = 0
    for e in entries:
        if e == PLUS:
            plus += 1
        elif e == MINUS:
            minus += 1
        elif isinstance(e, int) and not isinstance(e, bool) and e >= 1:
            counts[e] = counts.get(e, 0) + 1
            e = number.setdefault(e, len(number) + 1)
        else:
            raise ClanError(f"invalid clan entry {e!r}")
        out.append(e)
    for e, c in counts.items():
        if c != 2:
            raise ClanError(
                f"number {e} occurs {c} time(s); every number must occur exactly twice"
            )
    k = len(counts)
    return _trusted_clan(tuple(out), plus + k, minus + k)


def _trusted_clan(entries: tuple[Entry, ...], p: int, q: int) -> Clan:
    """Build a Clan from entries already known to be canonical for (p, q).

    Skips ``Clan.__post_init__``.  Its callers number pairs canonically:
    :func:`canonicalize` by first occurrence as it reads,
    :func:`apply_reflection` by making its one pair pair 1,
    :func:`enumerate_clans` by filling in token order, and the move kernel
    of ``clans.poset`` (see its module docstring).  Unpickling comes here too.
    """
    clan = object.__new__(Clan)
    _set_entries(clan, entries)
    _set_p(clan, p)
    _set_q(clan, q)
    return clan


# The slots' own setters: they skip the frozen ``Clan.__setattr__``.
_set_entries, _set_p, _set_q = (vars(Clan)[name].__set__ for name in ("entries", "p", "q"))


def parse_clan(text: str, p: int, q: int) -> Clan:
    """Parse clan text and validate it against the signature (p, q).

    Tokens are "+", "-", or a number >= 1, separated by commas; the compact
    undelimited form ("1+1-") is accepted only while every number is a single
    digit.  Pair numbers are renumbered canonically.
    """
    raw = [_parse_token(t) for t in _tokens(text)]
    clan = canonicalize(raw)
    if (clan.p, clan.q) != (p, q):
        raise ClanError(
            f"clan {format_clan(clan)} has signature ({clan.p},{clan.q}), not ({p},{q})"
        )
    return clan


def _tokens(text: str) -> list[str]:
    s = text.strip()
    if "," in s:
        return [t.strip() for t in s.split(",")]
    return [ch for ch in s if not ch.isspace()]


def _parse_token(token: str) -> Entry:
    if token == PLUS or token == MINUS:
        return token
    if token.isascii() and token.isdigit() and token[0] != "0":
        try:
            return int(token)
        except ValueError:  # more digits than int() converts from text
            raise ClanError(f"pair number with {len(token)} digits is too long") from None
    raise ClanError(f"bad clan token {token!r}: expected '+', '-' or a number >= 1")


def format_clan(clan: Clan) -> str:
    """Canonical comma-separated text; parse_clan inverts it.

    >>> format_clan(canonicalize((1, "+", 1, "-")))
    '1,+,1,-'
    """
    return ",".join(e if is_sign(e) else str(e) for e in clan.entries)


def pair_map(clan: Clan) -> dict[int, tuple[int, int]]:
    """Pair number -> (left, right) positions."""
    return dict(enumerate(clan.pairs, start=1))


def count_clans(p: int, q: int) -> int:
    """Number of clans of signature (p, q), by the closed form.

    Choosing 2k slots for pair endpoints, matching them up, and filling the
    rest with signs gives sum over k of C(n,2k) * (2k-1)!! * C(n-2k, p-k).

    >>> [count_clans(1, 1), count_clans(2, 2), count_clans(3, 2)]
    [3, 21, 55]
    """
    n = p + q
    total = 0
    for k in range(min(p, q) + 1):
        total += (
            math.comb(n, 2 * k)
            * _odd_product(2 * k - 1)
            * math.comb(n - 2 * k, p - k)
        )
    return total


def _odd_product(m: int) -> int:
    """Double factorial m!! for odd m; 1 when m < 1."""
    return math.prod(range(1, m + 1, 2))


def enumerate_clans(p: int, q: int) -> list[Clan]:
    """Every clan of signature (p, q), exactly once, in a fixed total order.

    The order is lexicographic on entries with "+" < "-" < numbers (by pair
    number), so reruns and dumps are diff-stable.

    Clans are filled in depth-first, one position at a time, trying "+",
    then "-", then closing each open pair in ascending number, then opening
    the next pair number; that is token order, so nothing is sorted.  A
    prefix carries the "+" and "-" it still owes the signature (a pair pays
    one of each), and a step is taken only while both stay >= 0.  No prefix
    is then a dead end, and every finished one is a canonical clan of (p, q):
    each pair is closed exactly once, pairs are numbered by first
    occurrence, and the counts owed are both zero.  So no clan is validated.

    >>> [format_clan(c) for c in enumerate_clans(1, 1)]
    ['+,-', '-,+', '1,1']
    """
    return _clans_with_dimensions(p, q)[0]


def _clans_with_dimensions(p: int, q: int) -> tuple[list[Clan], list[int]]:
    """The clans of :func:`enumerate_clans`, by its walk, and their dimensions.

    The walk keeps a running dimension d: it starts at the base dimension,
    each step past a position L adds the number of pairs still open after L,
    and closing the open pair that sits r places below the top of the stack
    of open pairs subtracts r.  That equals :func:`dimension`.  A pair (i, j)
    is open after L exactly for L = i, ..., j - 1, so the steps add j - i
    for it.  When (s, t) closes at t, the pairs above it on the stack are
    those opened after s and still open at t: the (i, j) with s < i < t < j.
    So each crossing (s, t), (i, j) with s < i < t < j is subtracted once,
    when (s, t) closes under (i, j), and those are exactly the crossings
    :func:`dimension` subtracts for (i, j).  Closing the i-th of m open pairs
    (from 0, bottom first) leaves m - 1 open and has r = m - 1 - i: it adds i.
    """
    clans, dims = [], []
    if p < 0 or q < 0:
        return clans, dims
    # Prefixes (entries, "+" owed, "-" owed, pairs opened, open pair numbers, d) on
    # a stack, as the depth is p + q; children are pushed in reverse token order.
    stack = [((), p, q, 0, (), base_dimension(p, q))]
    while stack:
        entries, plus, minus, k, open_, d = stack.pop()
        if not (plus or minus or open_):
            clans.append(_trusted_clan(entries, p, q))
            dims.append(d)
            continue
        m = len(open_)
        if plus and minus:
            opened = open_ + (k + 1,)
            stack.append((entries + (k + 1,), plus - 1, minus - 1, k + 1, opened, d + m + 1))
        for i in range(m - 1, -1, -1):
            rest = open_[:i] + open_[i + 1 :]
            stack.append((entries + (open_[i],), plus, minus, k, rest, d + i))
        if minus:
            stack.append((entries + (MINUS,), plus, minus - 1, k, open_, d + m))
        if plus:
            stack.append((entries + (PLUS,), plus - 1, minus, k, open_, d + m))
    return clans, dims


def _entry_key(e: Entry) -> tuple[int, int]:
    if e == PLUS:
        return (0, 0)
    if e == MINUS:
        return (1, 0)
    return (2, e)


def token_sort_key(clan: Clan) -> tuple[tuple[int, int], ...]:
    """Sort key realizing the enumeration order "+" < "-" < 1 < 2 < ..."""
    return tuple(_entry_key(e) for e in clan.entries)


def base_dimension(p: int, q: int) -> int:
    """Dimension shared by all closed orbits: (p(p-1) + q(q-1)) / 2."""
    return (p * (p - 1) + q * (q - 1)) // 2


def dimension(clan: Clan) -> int:
    """Dimension of the orbit with this clan.

    Each pair (i, j) contributes j - i minus the number of pairs (s, t) with
    s < i < t < j.  Sign-only clans sit at the base dimension; the dense
    orbit's clan reaches n(n-1)/2.

    >>> dimension(parse_clan("1,2,1,3,2,3", 3, 3))
    11
    """
    pairs = clan.pairs
    total = base_dimension(clan.p, clan.q)
    for i, j in pairs:
        crossings = sum(1 for s, t in pairs if s < i < t < j)
        total += j - i - crossings
    return total


@dataclass(frozen=True)
class SignaturePrefix:
    """Running counts along prefixes: plus[i-1] counts "+" entries and completed
    pairs among the first i entries, minus[i-1] the same with "-".

    On the orbit, plus[i-1] is the dimension of the intersection of the i-th
    flag subspace with the fixed p-dimensional coordinate subspace.
    """

    plus: tuple[int, ...]
    minus: tuple[int, ...]


def prefix_signature(clan: Clan) -> SignaturePrefix:
    """Per-prefix sign-and-completed-pair counts.

    >>> prefix_signature(parse_clan("1,+,-,1", 2, 2))
    SignaturePrefix(plus=(0, 1, 1, 2), minus=(0, 0, 1, 2))
    """
    plus_counts: list[int] = []
    minus_counts: list[int] = []
    a = b = opened = 0
    for e in clan.entries:
        if e == PLUS:
            a += 1
        elif e == MINUS:
            b += 1
        elif e <= opened:  # closes its pair, by the canonical numbering of Clan.pairs
            a += 1
            b += 1
        else:
            opened += 1
        plus_counts.append(a)
        minus_counts.append(b)
    return SignaturePrefix(tuple(plus_counts), tuple(minus_counts))


def is_closed(clan: Clan) -> bool:
    """True when the clan is all signs, i.e. the orbit is closed.

    A clan is canonical, so its pairs are numbered 1, 2, ... by first
    occurrence: it has a pair iff it holds a 1.
    """
    return 1 not in clan.entries


def noncompact_reflections(closed: Clan) -> list[tuple[int, int]]:
    """Position pairs (i, j), i < j, holding opposite signs.

    >>> noncompact_reflections(canonicalize(("+", "-", "+")))
    [(1, 2), (2, 3)]
    """
    if not is_closed(closed):
        raise ClanError(f"clan {format_clan(closed)} is not closed")
    entries = closed.entries
    return [
        (i, j)
        for i, j in combinations(range(1, closed.n + 1), 2)
        if entries[i - 1] != entries[j - 1]
    ]


def apply_reflection(closed: Clan, i: int, j: int) -> Clan:
    """Replace the opposite signs at i < j by a pair; dimension rises by j - i.

    The clan is closed, so it has no pairs: the new one is pair 1, and the
    closed entries with 1 at i and j are already canonical.

    >>> str(apply_reflection(canonicalize(("-", "+", "-", "+")), 1, 4))
    '1,+,-,1'
    """
    if not is_closed(closed):
        raise ClanError(f"clan {format_clan(closed)} is not closed")
    if not 1 <= i < j <= closed.n:
        raise ClanError(f"positions ({i},{j}) out of range for n={closed.n}")
    a, b = closed.entries[i - 1], closed.entries[j - 1]
    if a == b:
        raise ClanError(f"positions ({i},{j}) hold equal signs {a!r}")
    new = list(closed.entries)
    new[i - 1] = new[j - 1] = 1
    return _trusted_clan(tuple(new), closed.p, closed.q)


def open_clan(p: int, q: int) -> Clan:
    """Clan of the dense orbit: (1,...,m, signs, m,...,1) with |p-q| majority signs.

    The q < p convention is stated for "+"; the mirrored "-" version for
    p < q is forced by swapping the sign roles and is pinned down by the
    dimension-maximality checks in the test suite.

    >>> format_clan(open_clan(2, 1))
    '1,+,1'
    >>> format_clan(open_clan(2, 2))
    '1,2,2,1'
    """
    if p == 0 and q == 0:
        raise ClanError("signature (0,0) has no open orbit clan")
    m = min(p, q)
    sign = PLUS if p >= q else MINUS
    entries = (
        list(range(1, m + 1)) + [sign] * abs(p - q) + list(range(m, 0, -1))
    )
    return Clan(tuple(entries), p, q)
