"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive: brute-force enumeration, brute-force
subsequence search, breadth-first reachability, exact linear algebra over the
rationals, and dense integer polynomials.  None of it shares code paths with
the package.
"""

from __future__ import annotations

from collections import Counter, deque
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, product
from operator import ge

from clans import (
    Clan,
    OrbitPoset,
    build_poset,
    canonicalize,
    dimension,
    enumerate_clans,
    prefix_signature,
)


@lru_cache(maxsize=None)
def get_poset(p: int, q: int) -> OrbitPoset:
    """Session-wide poset cache so exhaustive tests share the builds."""
    return build_poset(p, q)


def brute_force_clans(p: int, q: int) -> set[Clan]:
    """All clans of signature (p, q) found by filtering raw sequences."""
    n = p + q
    alphabet: list = ["+", "-"] + list(range(1, n // 2 + 1))
    out: set[Clan] = set()
    for seq in product(alphabet, repeat=n):
        counts = Counter(e for e in seq if isinstance(e, int))
        if any(c != 2 for c in counts.values()):
            continue
        clan = canonicalize(seq)
        if (clan.p, clan.q) == (p, q):
            out.add(clan)
    return out


def brute_embeddings(host: Clan, pattern: Clan) -> list[tuple[int, ...]]:
    """Every index tuple whose restriction is identified with the pattern."""
    out = []
    for positions in combinations(range(1, host.n + 1), pattern.n):
        entries = [host.entries[i - 1] for i in positions]
        counts = Counter(e for e in entries if isinstance(e, int))
        if any(c != 2 for c in counts.values()):
            continue
        if canonicalize(entries) == pattern:
            out.append(positions)
    return out


def naive_moves(clan: Clan) -> list[tuple[str, tuple[int, int], Clan]]:
    """(kind, (i, j), result) for every move, from the rules in the clans.poset docstring.

    Each position pair i < j (1-based) is tried against all three rules; a
    pair entry's mate is found with ``list.index``, and every result is
    validated by ``canonicalize``.
    """
    entries = list(clan.entries)

    def mate(k: int) -> int:
        first = entries.index(entries[k])
        return entries.index(entries[k], first + 1) if first == k else first

    out = []
    for i, j in combinations(range(len(entries)), 2):
        a, b = entries[i], entries[j]
        swapped = list(entries)
        swapped[i], swapped[j] = b, a
        if a in ("+", "-") and b in ("+", "-"):
            # pair creation: two opposite signs become a new pair
            if a != b:
                created = list(entries)
                created[i] = created[j] = len(entries) + 1
                out.append(("pair-creation", (i + 1, j + 1), canonicalize(created)))
        elif a in ("+", "-") or b in ("+", "-"):
            # endpoint slide: the pair entry trades places with a sign lying
            # farther from the entry's mate, on the same side of the mate
            sign, entry = (i, j) if a in ("+", "-") else (j, i)
            m = mate(entry)
            if (sign > m) == (entry > m) and abs(sign - m) > abs(entry - m):
                out.append(("endpoint-slide", (i + 1, j + 1), canonicalize(swapped)))
        elif a != b and mate(i) < mate(j):
            # pair exchange: entries of two different pairs swap, the left
            # entry's mate lying left of the right entry's mate
            out.append(("pair-exchange", (i + 1, j + 1), canonicalize(swapped)))
    return out


def bfs_below(low: Clan, high: Clan) -> bool:
    """Move-reachability by plain BFS over :func:`naive_moves`."""
    top = dimension(high)
    seen = {low}
    queue = deque([low])
    while queue:
        current = queue.popleft()
        if current == high:
            return True
        for _, _, nxt in naive_moves(current):
            if dimension(nxt) <= top and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


def naive_reach_and_covers(clans) -> tuple[dict, dict]:
    """Each clan's move-reachable set and its upper covers, from :func:`naive_moves` alone.

    Reachability is a memoised depth-first union over the naive successor
    sets.  A successor j of i is a cover iff no other successor of i reaches j.
    """
    succ = {c: {result for _, _, result in naive_moves(c)} for c in clans}
    reach: dict = {}

    def up(c):
        if c not in reach:
            found = {c}
            for s in succ[c]:
                found |= up(s)
            reach[c] = frozenset(found)
        return reach[c]

    for c in succ:
        up(c)
    covers = {
        c: {j for j in targets if not any(j in reach[k] for k in targets if k != j)}
        for c, targets in succ.items()
    }
    return reach, covers


def exact_rank(rows: list[list]) -> int:
    """Rank over Q by fraction-exact Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def dim_intersection(span_a: list[list], span_b: list[list]) -> int:
    if not span_a or not span_b:
        return 0
    return exact_rank(span_a) + exact_rank(span_b) - exact_rank(span_a + span_b)


def clan_of_flag(flag: list[list], p: int, q: int) -> Clan:
    """Clan of an explicit flag (list of n spanning vectors), exact arithmetic.

    P is the span of the first p coordinates, Q of the last q.  Only handles
    flags with at most one pair open at each closing step, which makes the
    pair matching unambiguous; raises otherwise.
    """
    n = p + q
    basis = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    pp = basis[:p]
    qq = basis[p:]
    entries: list = []
    open_positions: list[int] = []
    a = b = 0
    for i in range(1, n + 1):
        prefix = flag[:i]
        na = dim_intersection(prefix, pp)
        nb = dim_intersection(prefix, qq)
        step = (na - a, nb - b)
        a, b = na, nb
        if step == (1, 0):
            entries.append("+")
        elif step == (0, 1):
            entries.append("-")
        elif step == (0, 0):
            open_positions.append(i)
            entries.append(None)
        elif step == (1, 1):
            if len(open_positions) != 1:
                raise ValueError("ambiguous pair closure; oracle needs one open pair")
            s = open_positions.pop()
            entries[s - 1] = i
            entries.append(i)
        else:
            raise ValueError(f"illegal jump {step} at position {i}")
    if open_positions:
        raise ValueError("flag ended with an unclosed pair")
    return canonicalize(entries)


def naive_pairs(clan: Clan) -> list[tuple[int, int]]:
    """Pair intervals (left, right), 1-based, indexed by pair number.

    Each number's two positions are looked up with ``list.index``.
    """
    entries = list(clan.entries)
    out = []
    for number in range(1, sum(isinstance(e, int) for e in entries) // 2 + 1):
        left = entries.index(number)
        out.append((left + 1, entries.index(number, left + 1) + 1))
    return out


def naive_mates(clan: Clan) -> dict[int, int]:
    """Map each pair position to the position of its mate, from naive_pairs."""
    out = {}
    for left, right in naive_pairs(clan):
        out[left] = right
        out[right] = left
    return out


def reversed_clan(clan: Clan) -> Clan:
    """The clan read right to left, its pairs renumbered 1, 2, ... in the
    order they now first appear, by a plain dict (the constructor then
    checks the numbering is canonical)."""
    number: dict[int, int] = {}
    entries = []
    for e in reversed(clan.entries):
        if e not in ("+", "-") and e not in number:
            number[e] = len(number) + 1
        entries.append(number.get(e, e))
    return Clan(tuple(entries), clan.p, clan.q)


def swapped_clan(clan: Clan) -> Clan:
    """The clan with every "+" and "-" exchanged, a clan of (q, p); the
    constructor checks that the pair numbering is still canonical."""
    swap = {"+": "-", "-": "+"}
    return Clan(tuple(swap.get(e, e) for e in clan.entries), clan.q, clan.p)


def rank_invariants(clan: Clan):
    """Semicontinuous invariants of the orbit: intersection dimensions of the
    flag with its theta-image, plus the two prefix counts.

    Computed from the standard representative: a sign at position k is a
    theta-eigenvector; a pair (s, t) spans a plane <x, y> with x + y arriving
    at s and the full plane at t, while theta(V_j) sees x - y from s onwards.
    Degenerations can only grow each number, so containment of these arrays
    is a necessary condition for a closure relation.
    """
    n = clan.n
    pairs = naive_pairs(clan)
    sign_positions = [k for k, e in enumerate(clan.entries, 1) if e in ("+", "-")]
    m = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            v = sum(1 for k in sign_positions if k <= min(i, j))
            for s, t in pairs:
                vi = 2 if t <= i else (1 if s <= i else 0)
                tj = 2 if t <= j else (1 if s <= j else 0)
                if vi == 2 and tj == 2:
                    v += 2
                elif vi >= 1 and tj >= 1 and (vi == 2 or tj == 2):
                    v += 1
            row.append(v)
        m.append(tuple(row))
    sig = prefix_signature(clan)
    return tuple(m), sig.plus, sig.minus


def rank_vector(clan: Clan) -> tuple[int, ...]:
    """:func:`rank_invariants` flattened: the matrix row by row, then both prefix counts."""
    m, a, b = rank_invariants(clan)
    return tuple(chain.from_iterable(m)) + a + b


def rank_dominates(lower: Clan, upper: Clan) -> bool:
    """Necessary condition for lower <= upper in the true closure order."""
    return all(map(ge, rank_vector(lower), rank_vector(upper)))


@lru_cache(maxsize=None)
def monoid_down_sets(p: int, q: int) -> dict[Clan, frozenset[Clan]]:
    """Every clan's down-set in the closure order, from the Richardson–Springer
    monoid action; each relation found is a true closure relation.  Cached
    for the session like :func:`get_poset`, so callers must not mutate it.

    Let s be the simple reflection at positions i, i+1.  The cross action
    s×y swaps the two entries and renumbers (so it fixes equal signs and the
    two ends of one pair).  The monoid action m(s)y puts a new pair on two
    opposite signs; otherwise it is s×y if that raises the dimension, else y.
    If t = m(s)t' with dim t = dim t' + 1, the closure of t is P_s times the
    closure of t' (Richardson–Springer, 1990), and P_s/B is proper.  So
    down(t) is t together with the down-sets of y, m(s)y and s×y over every
    y <= t'.  The s×y term is needed: on opposite signs both sign orders lie
    below the new pair, but t' holds only one of them, so without it the
    pass misses +,-,-,+ <= +,-,1,1 at (2,2).

    Clans are reached from the closed ones by ascents, and each non-closed
    clan is built from the first ascent that reached it, in ascending
    dimension: every down-set read is then done, except t's own when
    m(s)t' = t.  Raises ValueError on an ascent that does not raise the
    dimension by exactly 1, since the theorem needs it.
    """
    n = p + q
    clans = [
        canonicalize(["+" if k in plus else "-" for k in range(n)])
        for plus in map(set, combinations(range(n), p))
    ]
    index = {c: k for k, c in enumerate(clans)}
    cross, monoid, descent = [], [], {}
    for y in clans:  # grows while it is walked: breadth first from the closed clans
        crossed, raised = [], []
        for i in range(n - 1):
            swapped = list(y.entries)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            x = canonicalize(swapped)
            if {y.entries[i], y.entries[i + 1]} == {"+", "-"}:
                paired = list(y.entries)
                paired[i] = paired[i + 1] = n + 1
                up = canonicalize(paired)
            else:
                up = x if dimension(x) > dimension(y) else y
            if up != y and dimension(up) != dimension(y) + 1:
                raise ValueError(f"ascent {y.entries} -> {up.entries} skips a dimension")
            for z in (x, up):
                if z not in index:
                    index[z] = len(clans)
                    clans.append(z)
            if up != y:
                descent.setdefault(index[up], (index[y], i))
            crossed.append(index[x])
            raised.append(index[up])
        cross.append(crossed)
        monoid.append(raised)
    down = [0] * len(clans)
    for t in sorted(range(len(clans)), key=lambda k: dimension(clans[k])):
        if t not in descent:  # closed
            down[t] = 1 << t
            continue
        low, i = descent[t]
        mask = down[low]
        for y in range(len(clans)):
            if down[low] >> y & 1:
                mask |= down[cross[y][i]] | down[monoid[y][i]]
        down[t] = mask | 1 << t
    return {
        c: frozenset(clans[y] for y in range(len(clans)) if down[k] >> y & 1)
        for k, c in enumerate(clans)
    }


# ---- dense integer polynomials in q, coefficient lists low degree first ----

def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_add(a: list[int], b: list[int]) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return out


def poly_trim(a: list[int]) -> list[int]:
    while len(a) > 1 and a[-1] == 0:
        a = a[:-1]
    return a


def q_bracket(m: int) -> list[int]:
    """1 + q + ... + q^(m-1); the zero polynomial for m = 0."""
    return [1] * m if m > 0 else [0]


def q_shift(a: list[int], k: int) -> list[int]:
    return [0] * k + a


def q_factorial(n: int) -> list[int]:
    out = [1]
    for i in range(1, n + 1):
        out = poly_mul(out, q_bracket(i))
    return out


def orbit_point_count(clan: Clan) -> list[int]:
    """Number of F_q-points of the orbit, as a polynomial in q.

    Flags are built one line at a time.  With a = dim(V cap P),
    b = dim(V cap Q) and c open pairs, set u = p - a - c and v = q - b - c;
    the line counts per step are q^c [u] for "+", q^c [v] for "-",
    (q - 1) [u][v] q^c for opening a pair, and q^e for closing the pair
    opened at s, where e counts open pairs opened before s (closing may mix
    in their directions without changing the orbit).
    """
    n, p, q = clan.n, clan.p, clan.q
    mates = naive_mates(clan)
    a = b = 0
    open_positions: list[int] = []
    total = [1]
    for i, e in enumerate(clan.entries, start=1):
        c = len(open_positions)
        u = p - a - c
        v = q - b - c
        if e == "+":
            total = poly_mul(total, q_shift(q_bracket(u), c))
            a += 1
        elif e == "-":
            total = poly_mul(total, q_shift(q_bracket(v), c))
            b += 1
        elif mates[i] > i:
            factor = poly_mul([-1, 1], poly_mul(q_bracket(u), q_bracket(v)))
            total = poly_mul(total, q_shift(factor, c))
            open_positions.append(i)
        else:
            s = mates[i]
            total = poly_mul(total, q_shift([1], sum(1 for t in open_positions if t < s)))
            open_positions.remove(s)
            a += 1
            b += 1
    return poly_trim(total)


def closure_point_count(elements, leq_low_high) -> list[int]:
    """Sum of orbit point counts over a lower set given by the predicate."""
    total = [0]
    for c in elements:
        if leq_low_high(c):
            total = poly_add(total, orbit_point_count(c))
    return poly_trim(total)


def is_palindromic(poly: list[int]) -> bool:
    poly = poly_trim(list(poly))
    return poly == poly[::-1]


# ---- the Lusztig–Vogan Hecke module: stalks of intersection cohomology ----

COMPACT, NONCOMPACT, REAL, ASCENT, DESCENT = (
    "compact", "noncompact", "real", "complex-ascent", "complex-descent"
)


def hecke_plus_one(clan: Clan, i: int) -> tuple[str, list[tuple[Clan, list[int]]]]:
    """The type of s = (i, i+1) for the clan (positions from 0) and
    (T_s + 1) of its basis element, as (clan, coefficient in q) terms.

    T_s is the pull-push along the P^1-fibration G/B -> G/P_s on F_q-point
    counts; with s×g the swap of entries i, i+1, renumbered:

    * equal signs (compact imaginary): T_s g = q g;
    * opposite signs (noncompact imaginary): T_s g = s×g + g^s, where g^s
      puts a new pair on i, i+1;
    * i and i+1 mates (real): T_s g = (q - 2) g + (q - 1)(g1 + g2), the two
      sign orders on i, i+1;
    * otherwise complex: T_s g = s×g if that raises the dimension, else
      (q - 1) g + q s×g.
    """
    a, b = clan.entries[i], clan.entries[i + 1]

    def put(x, y) -> Clan:
        entries = list(clan.entries)
        entries[i], entries[i + 1] = x, y
        return canonicalize(entries)

    if a == b and isinstance(a, str):
        return COMPACT, [(clan, [1, 1])]
    if {a, b} == {"+", "-"}:
        return NONCOMPACT, [(clan, [1]), (put(b, a), [1]), (put(clan.n + 1, clan.n + 1), [1])]
    if a == b:
        return REAL, [(clan, [-1, 1]), (put("+", "-"), [-1, 1]), (put("-", "+"), [-1, 1])]
    crossed = put(b, a)
    if dimension(crossed) > dimension(clan):
        return ASCENT, [(clan, [1]), (crossed, [1])]
    return DESCENT, [(clan, [0, 1]), (crossed, [0, 1])]


@lru_cache(maxsize=None)
def lusztig_vogan(p: int, q: int) -> dict[Clan, dict[Clan, tuple[int, ...]]]:
    """P(δ, γ) for every clan γ of signature (p, q): {γ: {δ: coefficients}},
    low degree first, holding only the δ with P(δ, γ) != 0.

    With C_s = u^-1 (T_s + 1) and u^2 = q, the basis C_γ = u^-ℓ(γ) Σ P(δ, γ) δ
    is built in ascending length ℓ, the dimension above the closed orbits'.  A
    clan with no pair (closed) has C_γ = γ.  Otherwise pick the first s that is
    a complex descent for γ (δ = s×γ) or real for γ (δ holds +,- on i, i+1), so
    that ℓ(δ) = ℓ(γ) - 1; then C_γ = C_s C_δ - Σ μ(η, δ) C_η over the η < δ
    with ℓ(δ) - ℓ(η) odd for which s is compact imaginary, a complex descent or
    real, and μ(η, δ) is the coefficient of q^((ℓ(δ) - ℓ(η) - 1)/2) in P(η, δ)
    (Lusztig–Vogan, Invent. Math. 71, 1983).  Every coefficient is then a
    polynomial in q: the μ term carries u^(ℓ(γ) - ℓ(η)), an even power.
    """
    clans = enumerate_clans(p, q)
    index = {c.entries: k for k, c in enumerate(clans)}
    dims = [dimension(c) for c in clans]  # ℓ differs from it by a constant
    steps = [  # per clan and s: (type, [(clan index, coefficient)])
        [
            (kind, [(index[c.entries], factor) for c, factor in terms])
            for kind, terms in (hecke_plus_one(clan, i) for i in range(p + q - 1))
        ]
        for clan in clans
    ]
    table: list[dict[int, tuple[int, ...]]] = [{} for _ in clans]
    for gamma in sorted(range(len(clans)), key=dims.__getitem__):
        descents = [i for i, (kind, _) in enumerate(steps[gamma]) if kind in (REAL, DESCENT)]
        if not descents:  # then γ has no pair: it is closed
            assert all(isinstance(e, str) for e in clans[gamma].entries), clans[gamma]
            table[gamma] = {gamma: (1,)}
            continue
        i = descents[0]
        delta = steps[gamma][i][1][1][0]  # s×γ, or the sign order +,- on i, i+1
        acc: dict[int, list[int]] = {}
        for eta, poly in table[delta].items():
            for zeta, factor in steps[eta][i][1]:
                acc[zeta] = poly_add(acc.get(zeta, [0]), poly_mul(list(poly), factor))
            gap = dims[delta] - dims[eta]
            # μ(η, δ) != 0 iff deg P(η, δ) reaches (gap - 1)/2, so poly[gap // 2] exists
            if gap % 2 and steps[eta][i][0] in (COMPACT, REAL, DESCENT) and len(poly) > gap // 2:
                mu = poly[gap // 2]
                for zeta, low in table[eta].items():
                    term = q_shift([-mu * x for x in low], (gap + 1) // 2)
                    acc[zeta] = poly_add(acc.get(zeta, [0]), term)
        trimmed = zip(acc, map(poly_trim, acc.values()))
        table[gamma] = {zeta: tuple(poly) for zeta, poly in trimmed if poly != [0]}
    return {
        clans[g]: {clans[d]: poly for d, poly in column.items()} for g, column in enumerate(table)
    }
