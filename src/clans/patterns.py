"""Pattern containment and the smoothness classification of orbit closures.

A clan includes a pattern when some increasing choice of positions restricts
to it: same signs in the same slots, and pattern pairs filled by whole pairs
of the host.  The classifier rules that inclusion of one of seven small
patterns makes the orbit closure not rationally smooth, while an avoider
gets a recursive decomposition (certificate) along which the closure is
meant to fiber smoothly.

The decomposition alone is not a smoothness proof: (1,+,-,1) still peels to
its closed interior (+,-) even though its closure is singular.  What carries
the burden is a structural test (laminar pairs, constant signs inside a pair,
signs nesting into inner pairs); behind that gate a certificate is built in
one walk per node.  The gate equals pattern avoidance by the proof below,
and the test suite also checks that exhaustively.

Avoidance in one pass.  Call a clan a word of blocks when it is a
concatenation of blocks of three kinds:

(i) one sign;
(ii) one pair around a sign-free word of noncrossing pairs;
(iii) m >= 1 nested pairs around r >= 1 equal signs.

Avoiding the seven patterns, passing the structural test, being a word of
blocks and passing the scan of :func:`is_rationally_smooth` are the same:

- A word of blocks avoids the patterns.  Its pairs do not cross, so 1,2,1,2
  does not embed.  A pair holding a sign lies in a block of kind (iii), whose
  signs agree and lie inside each of its pairs.  So no pair holds two
  different signs (1,+,-,1 and 1,-,+,1), nor a sign beside a pair nested in
  it (1,+,2,2,1 and its three variants).
- An avoider passes the structural test: a crossing embeds 1,2,1,2, a pair
  holding two different signs embeds 1,+,-,1 or 1,-,+,1, and a sign inside a
  pair but left or right of a pair nested in it embeds one of the four
  five-letter patterns.
- A clan passing the structural test is a word of blocks.  Its pairs do not
  cross, so it splits into the signs inside no pair, each of kind (i), and
  its outermost pairs, each with what lies between its ends.  An outermost
  pair holding no sign is of kind (ii).  One holding a sign holds only equal
  signs, and each pair nested in it holds them all; two such pairs share a
  position, so they nest.  Hence its pairs form a chain around its signs:
  kind (iii).
- The scan accepts exactly the words of blocks.  Reading left to right with
  a stack of open pairs, it refuses the clan when

  1. a closing number is not the top of the stack;
  2. inside one outermost pair, two different signs appear;
  3. inside one outermost pair, a pair opens after a sign;
  4. inside one outermost pair, a sign comes after an inner pair has closed.

  Rule 1 refuses exactly the crossings: if the top is not the closing
  pair, the top opened inside it and closes outside it, and if (a, b) and
  (c, d) cross with a < c < b < d, pair c is open above pair a at b.  With
  no crossing, rules 2-4 pass every sign inside no pair and every
  outermost pair holding no sign: kinds (i) and (ii).  They pass an
  outermost pair holding signs exactly when its signs agree (2) and every
  pair inside it opens before the first sign (3) and closes after the last
  (4): kind (iii).

The seven patterns are closed under reversal (reading a clan right to left
and renumbering) and under the sign swap that exchanges + and -: an
embedding read backwards, or with its signs swapped, embeds the reversed or
swapped pattern.  So a clan, its reversal and their sign swaps share a
verdict.  The census of ``clans.cli`` relies on this and classifies one clan
per class.

Known caveat, pinned in the findings test module: clans including
1,2,2,3,3,1 classify as smooth here although their closures fail the
reflection-counting diagnostic and are in fact not rationally smooth; the
avoidance list would need that clan as an eighth pattern.
"""

from __future__ import annotations

__all__ = [
    "FORBIDDEN_PATTERNS",
    "BlockSplit",
    "Certificate",
    "ClosedLeaf",
    "DecompositionError",
    "OuterStrip",
    "SignDelete",
    "SmoothnessVerdict",
    "StructuralViolation",
    "build_certificate",
    "certificate_json",
    "classify",
    "find_embedding",
    "includes_any",
    "is_rationally_smooth",
    "structural_check",
    "verdict_json",
    "verify_certificate",
]

from dataclasses import dataclass
from typing import ClassVar, Optional, Union

from .core import (
    PLUS,
    MINUS,
    Clan,
    _SIGNS,
    canonicalize,
    dimension,
    format_clan,
    is_closed,
)

#: Inclusion of any of these seven patterns makes the orbit closure not
#: rationally smooth.  Order fixed for deterministic witnesses.  Reversal maps
#: the set to itself (the first two swap, the last four swap in pairs, 1,2,1,2
#: is its own), and so does the sign swap + <-> - (the first two swap, the last
#: four swap in neighbouring pairs, 1,2,1,2 is its own).  So avoidance is
#: invariant under both; the census relies on it.
FORBIDDEN_PATTERNS: tuple[Clan, ...] = (
    canonicalize((1, PLUS, MINUS, 1)),
    canonicalize((1, MINUS, PLUS, 1)),
    canonicalize((1, 2, 1, 2)),
    canonicalize((1, PLUS, 2, 2, 1)),
    canonicalize((1, MINUS, 2, 2, 1)),
    canonicalize((1, 2, 2, PLUS, 1)),
    canonicalize((1, 2, 2, MINUS, 1)),
)


def find_embedding(host: Clan, pattern: Clan) -> Optional[tuple[int, ...]]:
    """Least increasing position tuple along which host restricts to pattern.

    A host position holding a pair number participates only together with its
    mate, the two of them filling one pattern pair.  Returns None when the
    host avoids the pattern.

    The search fills slots left to right, trying host positions in increasing
    order, so the first tuple it completes is the least.  A slot's scan stops
    at the host right end of the open pattern pair that closes first: that end
    is fixed by the pair's left end and the slot must map before it, so the
    bound drops no embedding.

    >>> find_embedding(canonicalize((1, 2, "+", "-", 2, 1)), canonicalize((1, "+", "-", 1)))
    (1, 3, 4, 6)
    """
    return _least_embedding(host.entries, _mate_list(host), _slot_table(pattern))


def _mate_list(clan: Clan) -> list[int]:
    mates = [-1] * clan.n  # 0-based mate of each 0-based position, -1 at a sign
    for a, b in clan.pairs:
        mates[a - 1], mates[b - 1] = b - 1, a - 1
    return mates


def _slot_table(pattern: Clan) -> tuple[tuple[Optional[str], int, int], ...]:
    """Per slot: the sign wanted, None at a pair end; the left end's slot at a
    right end, else -1; the left slot of the open pair closing first, else -1."""
    mates = _mate_list(pattern)
    return tuple(
        (e if mate < 0 else None, mate if mate < s else -1,
         min([(b, a) for a, b in enumerate(mates) if a < s < b], default=(0, -1))[1])
        for s, (e, mate) in enumerate(zip(pattern.entries, mates))
    )


def _least_embedding(entries, mates: list[int], table) -> Optional[tuple[int, ...]]:
    """The search of :func:`find_embedding` on a host's entries and mate list."""
    m = len(table)
    chosen = [0] * m
    slot = pos = 0
    while 0 <= slot < m:
        want, left, closing = table[slot]
        k, end = pos, (mates[chosen[closing]] if closing >= 0 else len(entries))
        if left >= 0:  # right end of a pattern pair: the host position is forced
            k = mates[chosen[left]]
            end = k + 1 if k >= pos else 0
        elif want is None:  # left end of a pattern pair: a host pair's left end
            while k < end and mates[k] < k:
                k += 1
        else:
            while k < end and entries[k] != want:
                k += 1
        if k < end:
            chosen[slot] = k
            slot, pos = slot + 1, k + 1
        else:  # back up one slot; a forced slot then fails at once
            slot, pos = slot - 1, chosen[slot - 1] + 1
    return tuple(k + 1 for k in chosen) if slot == m else None


_FORBIDDEN_TABLES = tuple((pattern, _slot_table(pattern)) for pattern in FORBIDDEN_PATTERNS)


def includes_any(host: Clan) -> Optional[tuple[Clan, tuple[int, ...]]]:
    """First (pattern, least embedding) hit in :data:`FORBIDDEN_PATTERNS` order, else None."""
    entries, mates = host.entries, _mate_list(host)  # read once for all seven
    for pattern, table in _FORBIDDEN_TABLES:
        if (embedding := _least_embedding(entries, mates, table)) is not None:
            return pattern, embedding
    return None


def is_rationally_smooth(clan: Clan) -> bool:
    """True iff the clan avoids all seven forbidden patterns.

    One left-to-right scan under the four rules that the module docstring
    proves equal to avoidance.
    """
    stack: list[int] = []  # the open pairs
    opened = 0  # pairs opened so far: a larger number opens the next one
    sign = None  # the sign seen inside the open outermost pair
    closed = False  # an inner pair of the open outermost pair has closed
    for e in clan.entries:
        if e in _SIGNS:
            if stack:
                if closed or sign is not None and sign != e:  # rules 4 and 2
                    return False
                sign = e
        elif e > opened:
            if sign is not None:  # rule 3
                return False
            opened = e
            stack.append(e)
        elif e != stack.pop():  # rule 1
            return False
        elif stack:
            closed = True
        else:
            sign, closed = None, False
    return True


CROSSING_PAIRS = "crossing-pairs"
MIXED_SIGNS = "mixed-signs"
SIGN_OUTSIDE_INNER_PAIR = "sign-outside-inner-pair"


@dataclass(frozen=True)
class StructuralViolation:
    """Which structural condition failed, with the positions exhibiting it."""

    rule: str
    pairs: tuple[tuple[int, int], ...]
    signs: tuple[int, ...]


def structural_check(clan: Clan) -> Optional[StructuralViolation]:
    """None iff the clan passes all three structural conditions.

    1. crossing-pairs: any two pair intervals nest or are disjoint;
    2. mixed-signs: the signs strictly inside one pair all agree;
    3. sign-outside-inner-pair: a sign inside a pair lies inside every pair
       nested in it.

    Violations are reported for the first failing condition, in that order.
    """
    pairs = clan.pairs
    entries = clan.entries

    for x in range(len(pairs)):
        a, b = pairs[x]
        for y in range(x + 1, len(pairs)):
            c, d = pairs[y]  # a < c since pairs are ordered by left endpoint
            if c < b < d:
                return StructuralViolation(CROSSING_PAIRS, ((a, b), (c, d)), ())

    for a, b in pairs:
        inside = [k for k in range(a + 1, b) if entries[k - 1] in _SIGNS]
        for k in inside[1:]:
            if entries[k - 1] != entries[inside[0] - 1]:
                return StructuralViolation(MIXED_SIGNS, ((a, b),), (inside[0], k))

    for a, b in pairs:
        for c, d in pairs:
            if a < c and d < b:
                for k in range(a + 1, b):
                    if entries[k - 1] in _SIGNS and not c < k < d:
                        return StructuralViolation(
                            SIGN_OUTSIDE_INNER_PAIR, ((a, b), (c, d)), (k,)
                        )
    return None


@dataclass(frozen=True)
class ClosedLeaf:
    """A (possibly empty) run of signs; nothing left to decompose."""

    kind: ClassVar[str] = "closed-leaf"
    start: int
    end: int


@dataclass(frozen=True)
class SignDelete:
    """A sign inside no pair is deleted; the flanks decompose independently."""

    kind: ClassVar[str] = "sign-delete"
    start: int
    end: int
    position: int
    left: "Certificate"
    right: "Certificate"


@dataclass(frozen=True)
class BlockSplit:
    """Two or more adjacent blocks, each flanked by one pair, none sharing pairs."""

    kind: ClassVar[str] = "block-split"
    start: int
    end: int
    children: tuple["Certificate", ...]


@dataclass(frozen=True)
class OuterStrip:
    """First and last positions are mates; the interior decomposes on its own."""

    kind: ClassVar[str] = "outer-strip"
    start: int
    end: int
    child: "Certificate"


Certificate = Union[ClosedLeaf, SignDelete, BlockSplit, OuterStrip]


class DecompositionError(ValueError):
    """Certificate construction refused: the clan fails the structural check."""

    def __init__(self, violation: StructuralViolation):
        super().__init__(f"clan fails structural check: {violation}")
        self.violation = violation


def build_certificate(clan: Clan) -> Certificate:
    """Recursive smooth-fibration certificate for a structurally sound clan.

    Raises DecompositionError (carrying the violation) when the structural
    check fails; once it passes, one walk per node builds it and cannot fail.
    """
    violation = structural_check(clan)
    if violation is not None:
        raise DecompositionError(violation)
    return _decompose(clan)


def _decompose(clan: Clan) -> Certificate:
    """Certificate of a structurally sound clan, in one walk per node.

    Each walk visits its range's depth-0 positions, jumping from a top-level
    pair's left end to its mate + 1; it yields the first free sign and the
    top-level pairs.
    """
    mates = clan.mates()

    def node(s: int, e: int) -> Certificate:
        free = 0  # first sign outside every pair of [s, e]
        top = []
        k = s
        while k <= e:
            mate = mates.get(k)
            if mate is None:
                free = free or k
                k += 1
            elif k < mate <= e:
                top.append((k, mate))
                k = mate + 1
            else:
                raise RuntimeError(
                    f"pair ({min(k, mate)},{max(k, mate)}) straddles range [{s},{e}] "
                    f"or a top-level pair in it, decomposing {format_clan(clan)}"
                )
        if not top:
            return ClosedLeaf(s, e)
        if free:
            return SignDelete(s, e, free, node(s, free - 1), node(free + 1, e))
        if len(top) >= 2:
            return BlockSplit(s, e, tuple(node(a, b) for a, b in top))
        return OuterStrip(s, e, node(s + 1, e - 1))

    return node(1, clan.n)


def verify_certificate(clan: Clan, cert: Certificate) -> bool:
    """Re-check every certificate invariant against the clan from scratch."""
    pairs = clan.pairs
    mates = clan.mates()
    entries = clan.entries

    def valid(node: Certificate, s: int, e: int) -> bool:
        if node.start != s or node.end != e:
            return False
        for a, b in pairs:
            if (s <= a <= e) != (s <= b <= e):
                return False
        if isinstance(node, ClosedLeaf):
            return _SIGNS.issuperset(entries[s - 1 : e])  # s >= 1 at every node
        if s > e:
            return False  # only a leaf may cover an empty range
        if isinstance(node, SignDelete):
            k = node.position
            if not s <= k <= e or entries[k - 1] not in _SIGNS:
                return False
            for a, b in pairs:
                if s <= a < k < b <= e:
                    return False
            return valid(node.left, s, k - 1) and valid(node.right, k + 1, e)
        if isinstance(node, BlockSplit):
            if len(node.children) < 2:
                return False
            pos = s
            for child in node.children:
                a, b = child.start, child.end
                if a != pos or b > e or mates.get(a) != b:
                    return False
                if not valid(child, a, b):
                    return False
                pos = b + 1
            return pos == e + 1
        if isinstance(node, OuterStrip):
            if mates.get(s) != e:
                return False
            return valid(node.child, s + 1, e - 1)
        return False

    return valid(cert, 1, clan.n)


@dataclass(frozen=True)
class SmoothnessVerdict:
    """Outcome of classification: a witness embedding or a certificate."""

    clan: Clan
    rationally_smooth: bool
    witness_pattern: Optional[Clan] = None
    witness_positions: Optional[tuple[int, ...]] = None
    certificate: Optional[Certificate] = None


def classify(clan: Clan) -> SmoothnessVerdict:
    """Decide (rational) smoothness of the orbit closure.

    Inclusion of a forbidden pattern yields a witness; avoidance yields a
    certificate.  An avoider whose certificate cannot be built would mean the
    two criteria disagree, which aborts loudly instead of guessing.
    """
    hit = includes_any(clan)
    if hit is not None:
        pattern, embedding = hit
        return SmoothnessVerdict(
            clan=clan,
            rationally_smooth=False,
            witness_pattern=pattern,
            witness_positions=embedding,
        )
    try:
        certificate = build_certificate(clan)
    except DecompositionError as exc:
        raise RuntimeError(
            f"clan {format_clan(clan)} avoids all seven patterns yet fails the "
            f"structural check ({exc.violation}); the smoothness criteria disagree"
        ) from exc
    return SmoothnessVerdict(clan=clan, rationally_smooth=True, certificate=certificate)


def certificate_json(cert: Certificate) -> dict:
    """Certificate as nested tagged nodes (JSON-ready): each node's kind, then
    its fields in declaration order, a nested node or tuple of nodes in turn."""
    doc: dict = {"kind": cert.kind}
    for name, value in vars(cert).items():
        if isinstance(value, tuple):
            value = [certificate_json(child) for child in value]
        elif not isinstance(value, int):
            value = certificate_json(value)
        doc[name] = value
    return doc


def verdict_json(verdict: SmoothnessVerdict) -> dict:
    """Verdict document: clan data, the boolean, and witness or certificate."""
    doc: dict = {
        "clan": format_clan(verdict.clan),
        "p": verdict.clan.p,
        "q": verdict.clan.q,
        "dimension": dimension(verdict.clan),
        "closed": is_closed(verdict.clan),
        "rationally_smooth": verdict.rationally_smooth,
    }
    if verdict.witness_pattern is not None:
        doc["witness_pattern"] = format_clan(verdict.witness_pattern)
        doc["witness_positions"] = list(verdict.witness_positions or ())
    if verdict.certificate is not None:
        doc["certificate"] = certificate_json(verdict.certificate)
    return doc
