"""Reflection counting on closed orbits."""

import hashlib
import json
import operator

import pytest

from clans import (
    EXCEEDS_BUDGET,
    ClanError,
    FORBIDDEN_PATTERNS,
    apply_reflection,
    base_dimension,
    build_poset,
    collapse_to_closed,
    dimension,
    enumerate_clans,
    format_clan,
    is_closed,
    noncompact_reflections,
    parse_clan,
    springer_count,
    springer_diagnosis,
    successors,
    witness_json,
)

import oracles


class TestReflections:
    def test_examples(self):
        assert noncompact_reflections(parse_clan("+,-,+", 2, 1)) == [(1, 2), (2, 3)]
        assert noncompact_reflections(parse_clan("+,+", 2, 0)) == []
        assert noncompact_reflections(parse_clan("-,+,-,+", 2, 2)) == [
            (1, 2), (1, 4), (2, 3), (3, 4),
        ]

    def test_requires_closed(self):
        with pytest.raises(ClanError):
            noncompact_reflections(parse_clan("1,1", 1, 1))

    def test_count_is_plus_times_minus(self):
        for n in range(1, 7):
            for p in range(n + 1):
                for clan in enumerate_clans(p, n - p):
                    if is_closed(clan):
                        assert len(noncompact_reflections(clan)) == p * (n - p)


class TestApplyReflection:
    def test_examples(self):
        assert format_clan(apply_reflection(parse_clan("+,-", 1, 1), 1, 2)) == "1,1"
        assert (
            format_clan(apply_reflection(parse_clan("-,+,-,+", 2, 2), 1, 4))
            == "1,+,-,1"
        )
        assert (
            format_clan(apply_reflection(parse_clan("+,+,-,-", 2, 2), 2, 3))
            == "+,1,1,-"
        )

    def test_errors(self):
        closed = parse_clan("+,+,-,-", 2, 2)
        with pytest.raises(ClanError):
            apply_reflection(closed, 1, 2)  # equal signs
        with pytest.raises(ClanError):
            apply_reflection(closed, 0, 3)
        with pytest.raises(ClanError):
            apply_reflection(parse_clan("1,1", 1, 1), 1, 2)

    def test_dimension_gain_is_distance(self):
        for n in range(1, 8):
            for p in range(n + 1):
                base = base_dimension(p, n - p)
                for clan in enumerate_clans(p, n - p):
                    if not is_closed(clan):
                        continue
                    for i, j in noncompact_reflections(clan):
                        image = apply_reflection(clan, i, j)
                        assert dimension(image) - base == j - i

    def test_image_is_a_single_move(self):
        for n in range(1, 7):
            for p in range(n + 1):
                for clan in enumerate_clans(p, n - p):
                    if not is_closed(clan):
                        continue
                    ups = successors(clan)
                    for i, j in noncompact_reflections(clan):
                        assert apply_reflection(clan, i, j) in ups


class TestSpringerCount:
    def test_exceeding_witness(self):
        poset = oracles.get_poset(2, 2)
        witness = springer_count(
            poset, parse_clan("+,+,-,-", 2, 2), parse_clan("1,+,-,1", 2, 2)
        )
        assert witness.budget == 3
        assert witness.count == 4
        assert witness.hits == ((1, 3), (1, 4), (2, 3), (2, 4))

    def test_open_orbit_count(self):
        poset = oracles.get_poset(2, 1)
        witness = springer_count(
            poset, parse_clan("+,-,+", 2, 1), parse_clan("1,+,1", 2, 1)
        )
        assert (witness.count, witness.budget) == (2, 2)

    def test_closed_target(self):
        poset = oracles.get_poset(1, 1)
        closed = parse_clan("+,-", 1, 1)
        witness = springer_count(poset, closed, closed)
        assert (witness.count, witness.budget) == (0, 0)
        assert witness.hits == ()

    def test_requires_closed(self):
        poset = oracles.get_poset(2, 2)
        with pytest.raises(ClanError, match=r"^clan 1,1,\+,- is not closed$"):
            springer_count(
                poset, parse_clan("1,1,+,-", 2, 2), parse_clan("1,+,-,1", 2, 2)
            )

    def test_membership_is_checked_before_closedness(self):
        # closedness is read from the diagnosis table, so a clan outside the
        # poset is refused as such even when it is not closed either
        poset = oracles.get_poset(2, 2)
        with pytest.raises(
            ClanError, match=r"^clan 1,1 is not an element of the \(2,2\) poset$"
        ):
            springer_count(poset, parse_clan("1,1", 1, 1), parse_clan("1,+,-,1", 2, 2))

    def test_requires_closed_below(self):
        poset = oracles.get_poset(2, 2)
        with pytest.raises(
            ClanError, match=r"^closed clan -,-,\+,\+ does not lie below 1,\+,-,1$"
        ):
            springer_count(
                poset, parse_clan("-,-,+,+", 2, 2), parse_clan("1,+,-,1", 2, 2)
            )

    def test_below_check_matches_full_down_sets_up_to_n5(self):
        # springer_count tests "below" on the down-sets restricted to closed
        # and one-pair clans; it must refuse exactly the pairs the full
        # down-sets put apart
        for n in range(1, 6):
            for p in range(n + 1):
                poset = oracles.get_poset(p, n - p)
                elements = poset.elements
                closed = [c for c, clan in enumerate(elements) if is_closed(clan)]
                for t, target in enumerate(elements):
                    below = poset.down_mask(t)
                    for c in closed:
                        message = (
                            f"closed clan {format_clan(elements[c])} "
                            f"does not lie below {format_clan(target)}"
                        )
                        if below >> c & 1:
                            springer_count(poset, elements[c], target)
                        else:
                            with pytest.raises(ClanError) as info:
                                springer_count(poset, elements[c], target)
                            assert str(info.value) == message

    def test_json(self):
        poset = oracles.get_poset(2, 2)
        witness = springer_count(
            poset, parse_clan("+,+,-,-", 2, 2), parse_clan("1,+,-,1", 2, 2)
        )
        doc = witness_json(witness)
        assert doc == {
            "closed": "+,+,-,-",
            "gamma": "1,+,-,1",
            "budget": 3,
            "count": 4,
            "hits": [[1, 3], [1, 4], [2, 3], [2, 4]],
        }


class TestIndexKernelAgainstOracle:
    def test_hits_match_bfs_oracle_up_to_n5(self):
        for n in range(1, 6):
            for p in range(n + 1):
                poset = oracles.get_poset(p, n - p)
                closed_clans = [c for c in poset.elements if is_closed(c)]
                for target in poset.elements:
                    for closed in closed_clans:
                        if not oracles.bfs_below(closed, target):
                            continue
                        witness = springer_count(poset, closed, target)
                        expected = [
                            ij
                            for ij in noncompact_reflections(closed)
                            if oracles.bfs_below(apply_reflection(closed, *ij), target)
                        ]
                        assert list(witness.hits) == expected
                        assert witness.count == len(expected)
                        assert witness.budget == dimension(target) - dimension(closed)

    @staticmethod
    def assert_popcount_matches_count(n):
        # `verify` counts a (closed, target) pair as the popcount of the
        # target's down-set within the closed element's reflection-image mask
        for p in range(n + 1):
            poset = oracles.get_poset(p, n - p)
            elements = poset.elements
            for t, target in enumerate(elements):
                below = poset.down_mask(t)
                for c in poset.closed_below_indices(t):
                    mask = sum(1 << image for _, image in poset.reflections(c))
                    expected = springer_count(poset, elements[c], target).count
                    assert (below & mask).bit_count() == expected

    def test_popcount_matches_springer_count_up_to_n6(self):
        for n in range(1, 7):
            self.assert_popcount_matches_count(n)

    @pytest.mark.slow
    def test_popcount_matches_springer_count_n7(self):
        self.assert_popcount_matches_count(7)

    def test_separately_built_posets_agree(self):
        # each poset carries its own reflection table: diagnosing on one,
        # then on a poset of another signature, then on a fresh build of the
        # first signature must give the same witnesses
        for p, q in ((2, 2), (3, 3)):
            first = build_poset(p, q)
            before = [springer_diagnosis(first, c) for c in first.elements]
            other = build_poset(q + 1, p)
            for c in other.elements:
                springer_diagnosis(other, c)
            second = build_poset(p, q)
            assert second is not first
            after = [springer_diagnosis(second, c) for c in second.elements]
            assert after == before
            assert [springer_diagnosis(first, c) for c in first.elements] == before
            assert any(w is not None for w in before)


class TestDiagnosisTable:
    """The diagnosis accessors read down-sets restricted to the closed and
    one-pair elements; they must answer as the full down-sets do."""

    def test_table_matches_full_down_sets_up_to_7(self):
        for n in range(1, 8):
            for p in range(n + 1):
                poset = oracles.get_poset(p, n - p)
                elements = poset.elements
                closed = [i for i, c in enumerate(elements) if is_closed(c)]
                for c in closed:
                    assert poset.reflections(c) == tuple(
                        (ab, poset.index_of(apply_reflection(elements[c], *ab)))
                        for ab in noncompact_reflections(elements[c])
                    )
                for t in range(len(poset)):
                    below = poset.down_mask(t)
                    expected = [c for c in closed if below >> c & 1]
                    assert list(poset.closed_below_indices(t)) == expected
                    for c in expected:
                        hits = tuple(
                            ab for ab, img in poset.reflections(c) if below >> img & 1
                        )
                        assert poset.reflection_hits(c, t) == hits
                        assert poset.reflection_count(c, t) == len(hits)

    def test_images_decrease_along_noncompact_reflections_up_to_7(self):
        # reflection_hits lists hits from the highest S position down, which
        # is noncompact_reflections order only if the images' indices fall
        for n in range(1, 8):
            for p in range(n + 1):
                poset = oracles.get_poset(p, n - p)
                for clan in poset.elements:
                    if is_closed(clan):
                        images = [
                            poset.index_of(apply_reflection(clan, *ab))
                            for ab in noncompact_reflections(clan)
                        ]
                        assert all(x > y for x, y in zip(images, images[1:]))

    def test_accessors_refuse_a_non_closed_index(self):
        poset = oracles.get_poset(2, 2)
        i = poset.index_of(parse_clan("1,+,-,1", 2, 2))
        t = len(poset) - 1
        calls = (
            lambda: poset.reflections(i),
            lambda: poset.reflection_hits(i, t),
            lambda: poset.reflection_count(i, t),
            lambda: poset.closed_leq(i, t),
        )
        for call in calls:
            with pytest.raises(ClanError, match=r"^clan 1,\+,-,1 is not closed$"):
                call()


class TestDiagnosis:
    def test_fails_on_mixed_sign_pattern(self):
        poset = oracles.get_poset(2, 2)
        witness = springer_diagnosis(poset, parse_clan("1,+,-,1", 2, 2))
        assert witness is not None
        assert format_clan(witness.closed) == "+,+,-,-"
        assert witness.count == 4 and witness.budget == 3

    def test_passes_single_pair(self):
        poset = oracles.get_poset(1, 1)
        assert springer_diagnosis(poset, parse_clan("1,1", 1, 1)) is None

    def test_closed_clans_pass(self):
        for n in range(1, 5):
            for p in range(n + 1):
                poset = oracles.get_poset(p, n - p)
                for clan in poset.elements:
                    if is_closed(clan):
                        assert springer_diagnosis(poset, clan) is None

    def test_open_orbit_passes(self):
        for n in range(1, 7):
            for p in range(n + 1):
                poset = oracles.get_poset(p, n - p)
                assert springer_diagnosis(poset, poset.maximum()) is None

    def test_comparison_is_strict(self):
        assert EXCEEDS_BUDGET is operator.gt


def witness_digest(lengths):
    """(failing clans, sha256 over each clan's diagnosis witness or ``pass``).

    Clans are taken in enumeration order: by length, then p, then
    ``enumerate_clans`` order.
    """
    digest = hashlib.sha256()
    failing = 0
    for n in lengths:
        for p in range(n + 1):
            poset = oracles.get_poset(p, n - p)
            for clan in poset.elements:
                witness = springer_diagnosis(poset, clan)
                if witness is None:
                    doc = "pass"
                else:
                    doc = json.dumps(witness_json(witness), sort_keys=True)
                    failing += 1
                digest.update(f"{format_clan(clan)} {doc}\n".encode())
    return failing, digest.hexdigest()


def test_witnesses_pinned_up_to_7():
    # 2,555 clans with p+q <= 7
    assert witness_digest(range(1, 8)) == (
        1136,
        "d16835b18d2b8aae9a618657f303e53e30fd00d1dfc82eda817daa3c2fee4e3f",
    )


@pytest.mark.slow
def test_witnesses_pinned_8():
    # 7,193 clans with p+q = 8
    assert witness_digest([8]) == (
        4581,
        "09d63775a86d523c051f36f68621d2840f092a5c1bf0ef15f3ab2a5e84f937aa",
    )


class TestCollapse:
    def test_collapse_single_pair_pattern(self):
        clan = parse_clan("1,+,-,1", 2, 2)
        closed = collapse_to_closed(clan, FORBIDDEN_PATTERNS[0], (1, 2, 3, 4))
        assert format_clan(closed) == "-,+,-,+"

    def test_collapse_two_pair_pattern(self):
        clan = parse_clan("1,2,1,2", 2, 2)
        closed = collapse_to_closed(clan, FORBIDDEN_PATTERNS[2], (1, 2, 3, 4))
        assert format_clan(closed) == "-,+,-,+"

    def test_collapse_with_untouched_pair(self):
        clan = parse_clan("1,2,+,-,2,1", 3, 3)
        closed = collapse_to_closed(clan, FORBIDDEN_PATTERNS[0], (1, 3, 4, 6))
        assert format_clan(closed) == "-,+,+,-,-,+"
        poset = oracles.get_poset(3, 3)
        assert poset.leq(closed, clan)

    def test_collapse_rejects_non_embedding(self):
        clan = parse_clan("1,+,-,1", 2, 2)
        with pytest.raises(ClanError):
            collapse_to_closed(clan, FORBIDDEN_PATTERNS[2], (1, 2, 3, 4))

    def test_collapse_can_meet_budget_exactly(self):
        # the heuristic orbit alone does not witness the failure: it scores
        # 3 against budget 3 while the sweep finds +,+,-,- scoring 4
        poset = oracles.get_poset(2, 2)
        clan = parse_clan("1,+,-,1", 2, 2)
        closed = collapse_to_closed(clan, FORBIDDEN_PATTERNS[0], (1, 2, 3, 4))
        witness = springer_count(poset, closed, clan)
        assert (witness.count, witness.budget) == (3, 3)

    @pytest.mark.parametrize(
        "positions",
        [
            (0, 2, 3, 4),
            (-3, 2, 3, 4),
            (5, 2, 3, 4),
            (4, 2, 3, 1),
            (1, 2, 3, 1),
            (1, 2, 3),
            (1, 2, 3, 4, 4),
        ],
    )
    def test_collapse_rejects_bad_positions(self, positions):
        # out of range, out of order, repeated or the wrong number of positions
        clan = parse_clan("1,+,-,1", 2, 2)
        with pytest.raises(
            ClanError, match="^the given positions do not embed the pattern in the clan$"
        ):
            collapse_to_closed(clan, FORBIDDEN_PATTERNS[0], positions)

    def test_collapse_rejects_half_a_host_pair(self):
        # in order and of the right length, but position 1's mate (4) is not
        # picked; the message is the same as for any other non-embedding
        clan = parse_clan("1,+,-,1,+,-", 3, 3)
        with pytest.raises(
            ClanError, match="^the given positions do not embed the pattern in the clan$"
        ):
            collapse_to_closed(clan, FORBIDDEN_PATTERNS[0], (1, 2, 3, 5))
