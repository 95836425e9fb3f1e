"""Clan representation, parsing, enumeration, dimension and prefix counts."""

import math
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

from clans import (
    Clan,
    ClanError,
    base_dimension,
    canonicalize,
    count_clans,
    dimension,
    enumerate_clans,
    format_clan,
    is_closed,
    open_clan,
    pair_map,
    parse_clan,
    prefix_signature,
    token_sort_key,
)

import oracles


def clans_up_to(max_n):
    for n in range(max_n + 1):
        for p in range(n + 1):
            yield from enumerate_clans(p, n - p)


small_clans = st.builds(
    lambda pq, index: enumerate_clans(*pq)[index % len(enumerate_clans(*pq))],
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(0, 10 ** 6),
)


class TestParseFormat:
    def test_parse_basic(self):
        clan = parse_clan("1,+,1,-", 2, 2)
        assert clan.entries == (1, "+", 1, "-")
        assert (clan.p, clan.q) == (2, 2)

    def test_parse_renumbers(self):
        assert parse_clan("2,+,2,-", 2, 2) == parse_clan("1,+,1,-", 2, 2)

    def test_parse_single_occurrence_rejected(self):
        with pytest.raises(ClanError):
            parse_clan("1,+,-,2", 2, 1)

    def test_parse_signature_mismatch(self):
        with pytest.raises(ClanError):
            parse_clan("1,+,1,-", 2, 1)
        with pytest.raises(ClanError):
            parse_clan("+,-", 2, 0)

    def test_parse_compact_form(self):
        assert parse_clan("1+1-", 2, 2) == parse_clan("1,+,1,-", 2, 2)
        assert parse_clan(" +- ", 1, 1) == parse_clan("+,-", 1, 1)

    def test_parse_multidigit_needs_commas(self):
        assert parse_clan("10,+,10,-", 2, 2) == parse_clan("1,+,1,-", 2, 2)

    def test_parse_bad_tokens(self):
        for text in ("0,+,0,-", "x", "1,;,1", "+,", "1,+,1,"):
            with pytest.raises(ClanError):
                parse_clan(text, 2, 2)

    @given(
        st.one_of(st.text(), st.text(alphabet="+-,0123456789 \u00b2\u0661")),
        st.integers(0, 4),
        st.integers(0, 4),
    )
    def test_parse_raises_only_clan_error(self, text, p, q):
        try:
            parse_clan(text, p, q)
        except ClanError:
            pass

    def test_parse_empty_clan(self):
        assert parse_clan("", 0, 0).entries == ()

    def test_format_examples(self):
        assert format_clan(canonicalize((1, "+", 1, "-"))) == "1,+,1,-"
        assert format_clan(canonicalize(("+", "-"))) == "+,-"

    def test_round_trip_exhaustive(self):
        for clan in clans_up_to(6):
            assert parse_clan(format_clan(clan), clan.p, clan.q) == clan

    @given(small_clans)
    def test_round_trip_property(self, clan):
        assert parse_clan(format_clan(clan), clan.p, clan.q) == clan


class _Label(int):
    """An int subclass; canonicalize accepts it as a pair number."""


#: Signs, pair numbers in and out of range, an int subclass, and entries that
#: only look like numbers or signs.
raw_entries = st.one_of(
    st.sampled_from(["+", "-", True, False, 1.0, "plus", "", "1", "+-"]),
    st.integers(-1, 6),
    st.integers(1, 6).map(_Label),
)


class TestCanonicalize:
    def test_examples(self):
        assert canonicalize((2, "+", 2, "-")).entries == (1, "+", 1, "-")
        assert canonicalize((1, "+", "-", 1)).entries == (1, "+", "-", 1)
        assert canonicalize((3, 1, 1, 3)).entries == (1, 2, 2, 1)

    def test_idempotent(self):
        for clan in clans_up_to(5):
            assert canonicalize(clan.entries) == clan

    def test_twice_or_never(self):
        with pytest.raises(ClanError):
            canonicalize((1, 1, 1, "+"))
        with pytest.raises(ClanError):
            canonicalize((1, "+"))

    def test_bad_entries(self):
        for bad in (0, -1, 1.5, "plus", True):
            with pytest.raises(ClanError):
                canonicalize((bad, bad))

    def test_int_subclass_pair_numbers(self):
        clan = canonicalize((_Label(2), "+", _Label(2), "-"))
        assert clan.entries == (1, "+", 1, "-")
        assert all(type(e) is int for e in clan.entries if not isinstance(e, str))

    @given(
        st.one_of(
            st.lists(raw_entries, max_size=10),
            # every entry doubled, so most numbers occur exactly twice
            st.lists(raw_entries, max_size=5).flatmap(lambda xs: st.permutations(xs + xs)),
        ),
        st.integers(0, 5),
        st.integers(0, 5),
    )
    def test_accepts_exactly_the_valid_entries(self, entries, p, q):
        bad = [
            e for e in entries
            if e not in ("+", "-")
            and (not isinstance(e, int) or isinstance(e, bool) or e < 1)
        ]
        numbers = [e for e in entries if not isinstance(e, str)]
        first_seen = list(dict.fromkeys(numbers))
        # the message each rule raises, checked in this order; None if it holds
        plus = entries.count("+") + len(first_seen)
        minus = entries.count("-") + len(first_seen)
        odd = [e for e in first_seen if numbers.count(e) != 2]
        rules = [
            bad and f"invalid clan entry {bad[0]!r}",
            odd and (
                f"number {odd[0]} occurs {numbers.count(odd[0])} time(s); "
                "every number must occur exactly twice"
            ),
        ]
        constructor_rules = rules + [
            first_seen != list(range(1, len(first_seen) + 1)) and (
                f"pair numbers {first_seen} are not 1..k by first occurrence; use canonicalize"
            ),
            (plus, minus) != (p, q)
            and f"entries have signature ({plus},{minus}), not ({p},{q})",
        ]
        expected = next((m for m in constructor_rules if m), None)
        try:
            Clan(entries, p, q)
        except ClanError as exc:
            assert str(exc) == expected
        else:
            assert expected is None

        expected = next((m for m in rules if m), None)
        try:
            clan = canonicalize(entries)
        except ClanError as exc:
            assert str(exc) == expected
            return
        assert expected is None
        assert (clan.p, clan.q) == (plus, minus)
        assert Clan(clan.entries, clan.p, clan.q) == clan
        assert len(clan.entries) == len(entries)
        for raw, got in zip(entries, clan.entries):
            if isinstance(raw, str):
                assert got == raw
            else:  # a pair number keeps its position and its mate
                assert type(got) is int
                mates = [k for k, e in enumerate(entries) if e == raw]
                assert mates == [k for k, e in enumerate(clan.entries) if e == got]

    def test_direct_constructor_validates(self):
        # the messages of Clan(...), in the order its checks run
        cases = [
            (("+", 0, 0), 1, 1, "invalid clan entry 0"),
            ((1, "x", 1), 2, 1, "invalid clan entry 'x'"),
            ((True, True), 1, 1, "invalid clan entry True"),
            ((1, "x"), 1, 0, "invalid clan entry 'x'"),  # before the count of 1
            (
                (1, 1, 1, "+"), 2, 1,
                "number 1 occurs 3 time(s); every number must occur exactly twice",
            ),
            (
                (2, 2, 3), 1, 1,  # before the numbering
                "number 3 occurs 1 time(s); every number must occur exactly twice",
            ),
            (
                (2, "+", 2, "-"), 2, 2,
                "pair numbers [2] are not 1..k by first occurrence; use canonicalize",
            ),
            (
                (2, 1, 1, 2), 2, 2,
                "pair numbers [2, 1] are not 1..k by first occurrence; use canonicalize",
            ),
            (
                (2, 2), 0, 0,  # before the signature
                "pair numbers [2] are not 1..k by first occurrence; use canonicalize",
            ),
            ((1, "+", 1, "-"), 2, 1, "entries have signature (2,2), not (2,1)"),
            (("+", "-"), 2, 0, "entries have signature (1,1), not (2,0)"),
        ]
        for entries, p, q, message in cases:
            with pytest.raises(ClanError) as info:
                Clan(entries, p, q)
            assert str(info.value) == message


class TestEnumerate:
    def test_1_1(self):
        assert [format_clan(c) for c in enumerate_clans(1, 1)] == ["+,-", "-,+", "1,1"]

    def test_sizes(self):
        assert len(enumerate_clans(2, 1)) == 6
        assert len(enumerate_clans(2, 2)) == 21

    @staticmethod
    def assert_matches_brute_force(n):
        for p in range(n + 1):
            expected = sorted(oracles.brute_force_clans(p, n - p), key=token_sort_key)
            assert enumerate_clans(p, n - p) == expected, (p, n - p)

    def test_against_brute_force(self):
        # the same clans in the same order: token order is built in, not sorted
        for n in range(7):
            self.assert_matches_brute_force(n)

    @pytest.mark.slow
    def test_against_brute_force_n7(self):
        self.assert_matches_brute_force(7)

    def test_each_clan_revalidates(self):
        # enumerated clans skip validation; the full constructor must accept them
        for clan in clans_up_to(7):
            assert Clan(clan.entries, clan.p, clan.q) == clan

    def test_trusted_clans_stay_frozen(self):
        # enumerated clans skip the constructor; they must stay frozen and
        # equal and hash like checked ones
        for clan in enumerate_clans(2, 2):
            checked = Clan(clan.entries, 2, 2)
            assert clan == checked and hash(clan) == hash(checked)
            for field in ("entries", "p", "q"):
                with pytest.raises(FrozenInstanceError):
                    setattr(clan, field, getattr(clan, field))

    def test_negative_sides_have_no_clans(self):
        assert enumerate_clans(-1, 2) == enumerate_clans(2, -1) == []
        assert enumerate_clans(-1, -1) == []
        assert count_clans(-1, 2) == count_clans(2, -1) == 0

    def test_long_clan_needs_no_deep_recursion(self):
        assert enumerate_clans(1200, 0) == [Clan(("+",) * 1200, 1200, 0)]

    def test_count_closed_form(self):
        assert count_clans(1, 1) == 3
        assert count_clans(2, 2) == 21
        assert count_clans(3, 2) == 55
        for p in range(5):
            for q in range(5):
                assert count_clans(p, q) == len(enumerate_clans(p, q))

    def test_order_is_sorted_deterministically(self):
        for p, q in [(2, 2), (3, 2)]:
            clans = enumerate_clans(p, q)
            assert clans == sorted(clans, key=token_sort_key)
            assert clans == enumerate_clans(p, q)

    def test_closed_count_is_binomial(self):
        for n in range(8):
            for p in range(n + 1):
                closed = [c for c in enumerate_clans(p, n - p) if is_closed(c)]
                assert len(closed) == math.comb(n, p)


class TestDimension:
    def test_examples(self):
        assert dimension(parse_clan("+,-", 1, 1)) == 0
        assert dimension(parse_clan("1,1", 1, 1)) == 1
        assert dimension(parse_clan("1,2,1,3,2,3", 3, 3)) == 11
        assert dimension(parse_clan("1,+,-,1", 2, 2)) == 5

    def test_base_dimension(self):
        assert base_dimension(2, 2) == 2
        assert base_dimension(1, 1) == 0
        assert base_dimension(3, 3) == 6

    def test_bounds_and_extremes(self):
        for n in range(1, 7):
            for p in range(n + 1):
                q = n - p
                base = base_dimension(p, q)
                full = n * (n - 1) // 2
                top = open_clan(p, q)
                for clan in enumerate_clans(p, q):
                    d = dimension(clan)
                    assert base <= d <= full
                    assert (d == base) == is_closed(clan)
                    assert (d == full) == (clan == top)


class TestPrefixSignature:
    def test_examples(self):
        sig = prefix_signature(parse_clan("1,+,-,1", 2, 2))
        assert sig.plus == (0, 1, 1, 2)
        assert sig.minus == (0, 0, 1, 2)
        sig = prefix_signature(parse_clan("+,-", 1, 1))
        assert sig.plus == (1, 1)
        assert sig.minus == (0, 1)
        sig = prefix_signature(parse_clan("-,1,1,+", 2, 2))
        assert sig.plus == (0, 0, 1, 2)
        assert sig.minus == (1, 1, 2, 2)

    def test_invariants(self):
        for clan in clans_up_to(7):
            sig = prefix_signature(clan)
            if clan.n == 0:
                assert sig.plus == sig.minus == ()
                continue
            assert sig.plus[-1] == clan.p
            assert sig.minus[-1] == clan.q
            prev_a = prev_b = 0
            for i, (a, b) in enumerate(zip(sig.plus, sig.minus), start=1):
                assert a - prev_a in (0, 1) and b - prev_b in (0, 1)
                assert a + b <= i
                prev_a, prev_b = a, b


class TestClosedAndOpen:
    def test_is_closed(self):
        assert is_closed(parse_clan("+,-,+", 2, 1))
        assert not is_closed(parse_clan("1,1", 1, 1))
        assert not is_closed(parse_clan("1,+,-,1", 2, 2))

    def test_open_examples(self):
        assert format_clan(open_clan(2, 1)) == "1,+,1"
        assert format_clan(open_clan(2, 2)) == "1,2,2,1"
        assert format_clan(open_clan(1, 2)) == "1,-,1"

    def test_open_is_dimension_maximal(self):
        for n in range(1, 7):
            for p in range(n + 1):
                top = open_clan(p, n - p)
                assert dimension(top) == n * (n - 1) // 2

    def test_open_empty_signature_rejected(self):
        with pytest.raises(ClanError):
            open_clan(0, 0)


def test_pair_map():
    clan = parse_clan("1,2,1,3,2,3", 3, 3)
    assert pair_map(clan) == {1: (1, 3), 2: (2, 5), 3: (4, 6)}
    assert clan.mates() == {1: 3, 3: 1, 2: 5, 5: 2, 4: 6, 6: 4}
    assert pair_map(parse_clan("+,-", 1, 1)) == {}


def test_pairs_and_mates_match_the_oracle():
    # Clan.pairs and Clan.mates() rely on canonical numbering; the oracle
    # looks up each number's two positions
    for clan in clans_up_to(7):
        assert clan.pairs == tuple(oracles.naive_pairs(clan))
        assert clan.mates() == oracles.naive_mates(clan)
