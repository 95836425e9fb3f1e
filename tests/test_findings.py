"""The one known disagreement between the classifiers, pinned with evidence.

The seven-pattern criterion and the reflection-counting diagnostic agree on
every clan with p+q <= 7 except the clan 1,2,2,3,3,1 and its four
sign-paddings: those avoid all seven patterns, yet some closed orbit below
them has more budget-respecting reflections than the dimension budget.

The evidence collected here shows the diagnostic is the side telling the
truth about the geometry:

* every relation entering the offending count is realized by explicit moves,
  and the only move type not stated verbatim for arbitrary positions (the
  non-adjacent endpoint slide) is certified by an explicit degeneration
  family of flags, checked below with exact rational arithmetic;
* the F_q point count of the closure of 1,2,2,3,3,1 is not palindromic,
  which is impossible for a rationally smooth projective variety (the count
  formula is validated in-test against full flag variety totals);
* the Lusztig–Vogan polynomials decide it: rational smoothness (every
  P(δ, γ) = 1) holds for p+q <= 7 exactly where the diagnostic passes, so
  the dissent is proved on both sides, not only shown by point counts;
* exhaustively for p+q <= 7, the diagnostic equals "avoids the seven
  patterns and 1,2,2,3,3,1", i.e. the avoidance list would need that clan as
  an eighth pattern for the two criteria to coincide.

A by-product, pinned here too: the three move types do not generate the full
closure order.  The family below exhibits 1,1,2,2 inside the closure of
1,+,-,1 while no move chain connects them.  The true order is pinned by a
sandwich: the Richardson–Springer monoid action bounds it from below, the
rank conditions from above, and the two agree for p+q <= 7.  The true order
is graded by dimension, and the move order is not.
"""

import operator
from itertools import compress

import pytest

from clans import (
    apply_reflection,
    canonicalize,
    dimension,
    enumerate_clans,
    find_embedding,
    format_clan,
    includes_any,
    is_closed,
    noncompact_reflections,
    parse_clan,
    springer_count,
    springer_diagnosis,
    token_sort_key,
)

import oracles

EIGHTH = canonicalize((1, 2, 2, 3, 3, 1))


def mismatches_at(p, q):
    poset = oracles.get_poset(p, q)
    out = []
    for clan in poset.elements:
        avoids_seven = includes_any(clan) is None
        passes = springer_diagnosis(poset, clan) is None
        if avoids_seven != passes:
            out.append(clan)
    return out


def test_unique_mismatch_up_to_n6():
    found = []
    for n in range(1, 7):
        for p in range(n + 1):
            found.extend(mismatches_at(p, n - p))
    assert [format_clan(c) for c in found] == ["1,2,2,3,3,1"]


@pytest.mark.slow
def test_mismatches_at_n7_are_the_sign_paddings():
    found = []
    for p in range(8):
        found.extend(mismatches_at(p, 7 - p))
    assert sorted(format_clan(c) for c in found) == [
        "+,1,2,2,3,3,1",
        "-,1,2,2,3,3,1",
        "1,2,2,3,3,1,+",
        "1,2,2,3,3,1,-",
    ]


def test_diagnostic_equals_avoiding_eight_patterns_small():
    for n in range(1, 7):
        for p in range(n + 1):
            poset = oracles.get_poset(p, n - p)
            for clan in poset.elements:
                avoids_eight = (
                    includes_any(clan) is None
                    and find_embedding(clan, EIGHTH) is None
                )
                assert avoids_eight == (springer_diagnosis(poset, clan) is None)


@pytest.mark.slow
@pytest.mark.parametrize("n", [7, 8])
def test_diagnostic_equals_avoiding_eight_patterns_large(n):
    for p in range(n + 1):
        poset = oracles.get_poset(p, n - p)
        for clan in poset.elements:
            avoids_eight = (
                includes_any(clan) is None and find_embedding(clan, EIGHTH) is None
            )
            assert avoids_eight == (springer_diagnosis(poset, clan) is None)


def test_offending_count_and_every_hit_is_reachable():
    poset = oracles.get_poset(3, 3)
    target = parse_clan("1,2,2,3,3,1", 3, 3)
    assert includes_any(target) is None
    witness = springer_diagnosis(poset, target)
    assert witness is not None
    assert format_clan(witness.closed) == "+,+,-,+,-,-"
    assert (witness.count, witness.budget) == (8, 7)
    # re-derive each counted relation with the BFS oracle, independently of
    # the bitmask closure
    from clans import apply_reflection

    for i, j in witness.hits:
        image = apply_reflection(witness.closed, i, j)
        assert oracles.bfs_below(image, target)


class TestDegenerationFamilies:
    """Explicit flag families: the source clan for all parameter values t != 0,
    the degenerate clan at the componentwise limit t = 0.

    Exact ranks over Q; the families are polynomial in t, so membership for
    three distinct t values and the limit flag being the span of the limit
    vectors make the closure relations airtight.
    """

    def test_nonadjacent_slide_is_a_true_closure_relation(self):
        # 1,+,1,+,-,- lies in the closure of 1,+,-,+,1,- (slide over a sign)
        def family(t):
            return [
                [1, 0, 0, 1, 0, 0],  # e1 + e4: opens the pair
                [0, 1, 0, 0, 0, 0],  # e2: plus
                [1, 0, 0, 0, t, 0],  # e1 + t*e5: minus step while t != 0
                [0, 0, 1, 0, 0, 0],  # e3: plus
                [1, 0, 0, 0, 0, 0],  # e1: closes the pair at 5 while t != 0
                [0, 0, 0, 0, 0, 1],  # e6: minus
            ]

        source = parse_clan("1,+,-,+,1,-", 3, 3)
        for t in (1, 2, 5):
            assert oracles.clan_of_flag(family(t), 3, 3) == source
        # componentwise subspace limits: V3(t) -> span(e1+e4, e2, e1), while
        # V5(t) = span(e1,...,e5) for every t != 0, hence also in the limit
        limit = [
            [1, 0, 0, 1, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [1, 0, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 1],
        ]
        assert oracles.clan_of_flag(limit, 3, 3) == parse_clan(
            "1,+,1,+,-,-", 3, 3
        )
        # and the relation is reproduced by the move closure
        assert oracles.get_poset(3, 3).leq(
            parse_clan("1,+,1,+,-,-", 3, 3), source
        )

    def test_pair_split_relation_is_missed_by_the_moves(self):
        # 1,1,2,2 lies in the closure of 1,+,-,1 but no move chain reaches it
        def family(t):
            return [
                [1, 0, 1, 0],  # e1 + e3: opens the pair
                [1, t, 0, 0],  # e1 + t*e2: plus step while t != 0
                [0, 1, 0, 1],  # e2 + e4: minus step while t != 0
                [0, 0, 0, 1],  # completes the flag
            ]

        source = parse_clan("1,+,-,1", 2, 2)
        low = parse_clan("1,1,2,2", 2, 2)
        for t in (1, 3, 7):
            assert oracles.clan_of_flag(family(t), 2, 2) == source
        assert oracles.clan_of_flag(family(0), 2, 2) == low
        poset = oracles.get_poset(2, 2)
        assert not poset.leq(low, source)
        # the rank-condition necessary conditions do allow it
        assert oracles.rank_dominates(low, source)


def sandwich_extra(n):
    """Relations of the true closure order missing from the move order, over length n.

    The monoid down-sets are a lower bound (every relation they hold is
    true) and the rank conditions an upper bound (every true relation meets
    them).  Asserting the two equal pins the true order; asserting the move
    order inside them pins its gap, which is returned as a count.
    """
    extra = 0
    for p in range(n + 1):
        poset = oracles.get_poset(p, n - p)
        monoid = oracles.monoid_down_sets(p, n - p)
        assert set(monoid) == set(poset.elements)
        vectors = {c: oracles.rank_vector(c) for c in poset.elements}
        for t in poset.elements:
            top = vectors[t]
            ranked = {c for c, v in vectors.items() if all(map(operator.ge, v, top))}
            assert monoid[t] == ranked, format_clan(t)
            moved = poset.lower_set(t)
            assert moved <= monoid[t], format_clan(t)
            extra += len(monoid[t]) - len(moved)
    return extra


class TestClosureOrderSandwich:
    """The true closure order, pinned between two independent bounds."""

    def test_the_bounds_agree_and_hold_the_move_order_up_to_6(self):
        assert [sandwich_extra(n) for n in range(1, 7)] == [0, 0, 0, 2, 30, 404]

    @pytest.mark.slow
    def test_the_bounds_agree_and_hold_the_move_order_7(self):
        assert sandwich_extra(7) == 5376

    def test_the_pair_split_is_an_extra_relation(self):
        # the degeneration family above, found by both bounds
        low, source = parse_clan("1,1,2,2", 2, 2), parse_clan("1,+,-,1", 2, 2)
        assert low in oracles.monoid_down_sets(2, 2)[source]

    def test_both_sign_orders_lie_below_a_new_pair(self):
        # +,-,1,1 is built from +,-,+,-; only the cross action reaches +,-,-,+
        down = oracles.monoid_down_sets(2, 2)[parse_clan("+,-,1,1", 2, 2)]
        assert sorted(map(format_clan, down)) == ["+,-,+,-", "+,-,-,+", "+,-,1,1"]


def true_cover_count(n):
    """Covers of the true closure order (the monoid down-sets) over length n,
    asserting that each one raises the dimension by exactly 1.  The covers of
    t are the maximal elements below it, found naively."""
    count = 0
    for p in range(n + 1):
        down = oracles.monoid_down_sets(p, n - p)
        for t, below in down.items():
            strict = below - {t}
            shadowed = set().union(*(down[y] - {y} for y in strict))
            for x in strict - shadowed:
                assert dimension(t) == dimension(x) + 1, (format_clan(x), format_clan(t))
                count += 1
    return count


class TestTrueOrderIsGraded:
    """The true closure order is graded by dimension; the move order is not,
    so the Hasse diagram that ``clans poset`` draws has covers that skip
    dimensions.  Tested, not cited: these sweeps are the evidence."""

    def test_every_true_cover_raises_the_dimension_by_one_up_to_6(self):
        assert [true_cover_count(n) for n in range(1, 7)] == [0, 2, 12, 62, 298, 1414]

    @pytest.mark.slow
    def test_every_true_cover_raises_the_dimension_by_one_7(self):
        assert true_cover_count(7) == 6716

    def test_move_order_covers_skip_dimensions_at_5_4(self):
        poset = oracles.get_poset(5, 4)
        dims = poset.dims
        rises = [dims[j] - dims[i] for i, up in enumerate(poset.cover_indices) for j in up]
        assert (len(rises), sum(rise >= 2 for rise in rises)) == (59386, 8598)


def monoid_diagnosis(down, target):
    """The reflection diagnosis of target, with ``down`` (its monoid down-set)
    as the order: (closed, budget, count, hits) of the first closed clan below
    it, in token order, with more hits than its budget, or None.  A hit is a
    noncompact reflection whose image lies in ``down``."""
    for closed in sorted(filter(is_closed, down), key=token_sort_key):
        hits = tuple(
            ij for ij in noncompact_reflections(closed) if apply_reflection(closed, *ij) in down
        )
        budget = dimension(target) - dimension(closed)
        if len(hits) > budget:
            return closed, budget, len(hits), hits
    return None


def diagnosis_under_true_order(n):
    """(targets, failing) over length n, asserting for each target that the
    diagnosis under the monoid down-sets returns springer_diagnosis's verdict
    and witness."""
    targets = failing = 0
    for p in range(n + 1):
        poset = oracles.get_poset(p, n - p)
        monoid = oracles.monoid_down_sets(p, n - p)
        for target in poset.elements:
            w = springer_diagnosis(poset, target)
            expected = None if w is None else (w.closed, w.budget, w.count, w.hits)
            assert monoid_diagnosis(monoid[target], target) == expected, format_clan(target)
            targets += 1
            failing += w is not None
    return targets, failing


class TestDiagnosisUnderTrueOrder:
    """The diagnosis over the true closure order (the monoid down-sets) gives
    the move order's verdict and first witness on every clan swept, although
    the move order misses relations from n = 4 on (the sandwich above)."""

    def test_same_verdict_and_witness_up_to_6(self):
        assert [diagnosis_under_true_order(n) for n in range(1, 7)] == [
            (2, 0), (5, 0), (14, 0), (43, 3), (142, 28), (499, 175),
        ]

    @pytest.mark.slow
    def test_same_verdict_and_witness_7(self):
        assert diagnosis_under_true_order(7) == (1850, 930)


def kronecker_code(poly):
    """The polynomial's value at q = 2^64, one integer per point count."""
    return sum(coefficient << (64 * i) for i, coefficient in enumerate(poly))


def balanced_digits(code):
    """Inverse of :func:`kronecker_code`: coefficients in (-2^63, 2^63]."""
    digits = []
    while code:
        digit = code & (1 << 64) - 1
        if digit > 1 << 63:
            digit -= 1 << 64
        digits.append(digit)
        code = (code - digit) >> 64
    return digits or [0]


def referee_counts(n, order="moves"):
    """(targets, failing) over length n, asserting for each target that its
    lower set's point count is palindromic iff the diagnosis passes.  The
    lower set is taken in the move order, or with ``order="rank"`` in the
    true closure order (``oracles.rank_dominates``)."""
    targets = failing = 0
    for p in range(n + 1):
        poset = oracles.get_poset(p, n - p)
        codes = [kronecker_code(oracles.orbit_point_count(c)) for c in poset.elements]
        if order == "rank":
            vectors = list(map(oracles.rank_vector, poset.elements))
        for t, target in enumerate(poset.elements):
            if order == "moves":
                below = [bit == "1" for bit in bin(poset.down_mask(t))[:1:-1]]
            else:
                below = [all(map(operator.ge, v, vectors[t])) for v in vectors]
            total = sum(compress(codes, below))
            passes = springer_diagnosis(poset, target) is None
            assert oracles.is_palindromic(balanced_digits(total)) == passes, format_clan(target)
            targets += 1
            failing += not passes
    return targets, failing


class TestPointCountReferee:
    """Palindromic F_q point counts are necessary for rational smoothness,
    not sufficient, so agreement with the diagnosis is an empirical fact."""

    def test_balanced_digits_invert_kronecker_code(self):
        for poly in ([0], [1], [-1], [0, 0, 1], [3, -5, 0, 7], [-(1 << 62), 1 << 62, -2]):
            assert balanced_digits(kronecker_code(poly)) == oracles.poly_trim(poly)

    def test_palindromicity_tracks_the_diagnosis_up_to_7(self):
        # 2,555 targets, 1,136 failing the diagnosis
        assert [referee_counts(n) for n in range(1, 8)] == [
            (2, 0), (5, 0), (14, 0), (43, 3), (142, 28), (499, 175), (1850, 930),
        ]

    def test_palindromicity_tracks_the_diagnosis_under_the_true_order_up_to_7(self):
        # the true order's lower sets are larger from n = 4 on, yet give the same verdicts
        assert [referee_counts(n, order="rank") for n in range(1, 8)] == [
            (2, 0), (5, 0), (14, 0), (43, 3), (142, 28), (499, 175), (1850, 930),
        ]

    @pytest.mark.slow
    def test_palindromicity_tracks_the_diagnosis_8(self):
        assert referee_counts(8) == (7193, 4581)

    def test_count_formula_matches_flag_variety_totals(self):
        for p, q in [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)]:
            total = [0]
            for clan in enumerate_clans(p, q):
                poly = oracles.orbit_point_count(clan)
                assert len(poly) - 1 == dimension(clan)  # degree = dimension
                total = oracles.poly_add(total, poly)
            assert oracles.poly_trim(total) == oracles.q_factorial(p + q)

    def test_closed_orbit_count_is_product_of_flag_counts(self):
        clan = parse_clan("+,-,+,-", 2, 2)
        expected = oracles.poly_mul(oracles.q_factorial(2), oracles.q_factorial(2))
        assert oracles.orbit_point_count(clan) == oracles.poly_trim(expected)

    def closure_poly(self, p, q, clan, order):
        poset = oracles.get_poset(p, q)
        if order == "moves":
            return oracles.closure_point_count(
                poset.elements, lambda c: poset.leq(c, clan)
            )
        return oracles.closure_point_count(
            poset.elements, lambda c: oracles.rank_dominates(c, clan)
        )

    def test_smooth_controls_are_palindromic(self):
        for text, p, q in [("1,1,2,2", 2, 2), ("1,2,2,1", 2, 2), ("1,+,1", 2, 1)]:
            clan = parse_clan(text, p, q)
            for order in ("moves", "rank"):
                assert oracles.is_palindromic(self.closure_poly(p, q, clan, order))

    def test_singular_controls_are_not_palindromic(self):
        for text in ("1,+,-,1", "1,-,+,1", "1,2,1,2"):
            clan = parse_clan(text, 2, 2)
            for order in ("moves", "rank"):
                assert not oracles.is_palindromic(self.closure_poly(2, 2, clan, order))

    def test_counterexample_is_not_palindromic(self):
        clan = parse_clan("1,2,2,3,3,1", 3, 3)
        for order in ("moves", "rank"):
            assert not oracles.is_palindromic(self.closure_poly(3, 3, clan, order))

    def test_palindromicity_tracks_the_diagnostic_at_2_2(self):
        poset = oracles.get_poset(2, 2)
        for clan in poset.elements:
            palin = oracles.is_palindromic(
                oracles.closure_point_count(
                    poset.elements, lambda c: poset.leq(c, clan)
                )
            )
            assert palin == (springer_diagnosis(poset, clan) is None)


def hecke_vector(terms):
    """The {clan: coefficients in q} sum of (clan, coefficients) terms,
    trimmed, without zero coefficients."""
    out = {}
    for clan, coefficient in terms:
        out[clan] = oracles.poly_add(out.get(clan, [0]), coefficient)
    return {c: x for c, x in zip(out, map(oracles.poly_trim, out.values())) if x != [0]}


def apply_hecke(vector, i):
    """T_s of a {clan: coefficients in q} vector, s = (i, i+1), from the
    oracle's T_s + 1."""
    return hecke_vector(
        (image, oracles.poly_mul(coefficient, factor))
        for clan, coefficient in vector.items()
        for image, factor in oracles.hecke_plus_one(clan, i)[1] + [(clan, [-1])]
    )


def assert_ic_self_checks(n):
    """The Lusztig–Vogan self-checks over length n: P(γ, γ) = 1, deg P(δ, γ)
    <= (ℓ(γ) - ℓ(δ) - 1)/2, no negative coefficient, the support of P(·, γ)
    is γ's monoid down-set, and Σ_δ P(δ, γ) #δ(F_q) is palindromic of degree
    dim γ, as intersection cohomology must be."""
    for p in range(n + 1):
        down = oracles.monoid_down_sets(p, n - p)
        dims = {c: dimension(c) for c in down}
        counts = {c: oracles.orbit_point_count(c) for c in down}
        for gamma, column in oracles.lusztig_vogan(p, n - p).items():
            assert column[gamma] == (1,) and set(column) == down[gamma], format_clan(gamma)
            total = [0] * (dims[gamma] + 1)  # the degree, if the bounds hold
            for delta, poly in column.items():
                assert min(poly) >= 0
                if delta != gamma:
                    assert 2 * (len(poly) - 1) <= dims[gamma] - dims[delta] - 1
                for k, c in enumerate(poly):
                    for j, x in enumerate(counts[delta], start=k):
                        total[j] += c * x
            assert total[-1] and oracles.is_palindromic(total), format_clan(gamma)


def ic_referee_counts(n):
    """(clans, not rationally smooth) over length n, asserting for each clan
    γ that every P(δ, γ) = 1 iff springer_diagnosis passes iff γ avoids the
    seven patterns and 1,2,2,3,3,1."""
    targets = failing = 0
    for p in range(n + 1):
        poset = oracles.get_poset(p, n - p)
        for gamma, column in oracles.lusztig_vogan(p, n - p).items():
            smooth = all(poly == (1,) for poly in column.values())
            assert (springer_diagnosis(poset, gamma) is None) == smooth, format_clan(gamma)
            avoids_eight = includes_any(gamma) is None and find_embedding(gamma, EIGHTH) is None
            assert avoids_eight == smooth, format_clan(gamma)
            targets += 1
            failing += not smooth
    return targets, failing


class TestICStalkReferee:
    """Rational smoothness decided by intersection cohomology stalks.

    The closure of γ is rationally smooth iff its IC sheaf is constant, that
    is iff every Lusztig–Vogan polynomial P(δ, γ) is 1 (Lusztig–Vogan,
    Invent. Math. 71, 1983).  The oracle builds them from the Hecke module
    alone: clans from enumerate_clans, dimensions from dimension, nothing
    from clans.poset or clans.springer.  So, unlike palindromic point counts,
    this referee proves both sides of the diagnosis."""

    def test_hecke_operators_satisfy_the_quadratic_relation_up_to_5(self):
        # (T_s + 1)(T_s - q) = 0, that is T_s T_s = (q - 1) T_s + q
        for n in range(2, 6):
            for p in range(n + 1):
                for clan in enumerate_clans(p, n - p):
                    for i in range(n - 1):
                        once = apply_hecke({clan: [1]}, i)
                        expected = hecke_vector(
                            [(c, oracles.poly_mul(x, [-1, 1])) for c, x in once.items()]
                            + [(clan, [0, 1])]
                        )
                        assert apply_hecke(once, i) == expected, (format_clan(clan), i)

    def test_self_checks_up_to_7(self):
        for n in range(1, 8):
            assert_ic_self_checks(n)

    def test_rational_smoothness_is_the_diagnosis_up_to_7(self):
        # the same (clans, failing) as the point-count referee
        assert [ic_referee_counts(n) for n in range(1, 8)] == [
            (2, 0), (5, 0), (14, 0), (43, 3), (142, 28), (499, 175), (1850, 930),
        ]

    def test_counterexample_has_a_nontrivial_stalk_at_the_witness(self):
        # the diagnosis's closed orbit for 1,2,2,3,3,1 sits in its singular locus
        target = parse_clan("1,2,2,3,3,1", 3, 3)
        column = oracles.lusztig_vogan(3, 3)[target]
        witness = springer_diagnosis(oracles.get_poset(3, 3), target)
        assert column[witness.closed] == (1, 1)
        assert includes_any(target) is None
