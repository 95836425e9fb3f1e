"""Moves, the closure order, and its exports."""

import hashlib
import random
import weakref
from collections import Counter
from functools import cached_property

import pytest
from hypothesis import given, settings, strategies as st

from clans import (
    ENDPOINT_SLIDE,
    PAIR_CREATION,
    PAIR_EXCHANGE,
    Clan,
    ClanError,
    NonIncreasingMoveError,
    OrbitPoset,
    PosetSizeError,
    build_poset,
    canonicalize,
    dimension,
    enumerate_clans,
    export_dot,
    export_tsv,
    format_clan,
    is_closed,
    moves,
    open_clan,
    parse_clan,
    prefix_signature,
    springer_diagnosis,
    successors,
)

import oracles


def texts(clans):
    return sorted(format_clan(c) for c in clans)


def assert_moves_match_naive_oracle(clan):
    # move results are numbered, not validated; the oracle validates each
    got = moves(clan)
    naive = oracles.naive_moves(clan)
    assert Counter((mv.kind, mv.positions, mv.result) for mv in got) == Counter(naive)
    assert successors(clan) == {result for _, _, result in naive}
    for mv in got:
        assert mv.result == Clan(mv.result.entries, mv.result.p, mv.result.q)


@st.composite
def long_clans(draw):
    """A canonical clan of length 8 to 12, with 0 to n/2 pairs placed at random."""
    n = draw(st.integers(8, 12))
    entries = draw(st.lists(st.sampled_from("+-"), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    for k in range(draw(st.integers(0, n // 2))):
        entries[order[2 * k]] = entries[order[2 * k + 1]] = k + 1
    return canonicalize(entries)


class TestMoves:
    def test_successors_pair_creation_only(self):
        assert texts(successors(parse_clan("+,-", 1, 1))) == ["1,1"]

    def test_successors_mixed(self):
        got = texts(successors(parse_clan("1,1,-,+", 2, 2)))
        assert got == ["1,+,-,1", "1,-,1,+", "1,1,2,2"]

    def test_successor_by_pair_exchange(self):
        source = parse_clan("1,2,1,3,2,3", 3, 3)
        target = parse_clan("1,3,1,2,2,3", 3, 3)
        assert target in successors(source)
        exchange = [m for m in moves(source) if m.result == target]
        assert any(m.kind == PAIR_EXCHANGE and m.positions == (2, 4) for m in exchange)

    def test_move_kinds_recorded(self):
        kinds = {m.kind for m in moves(parse_clan("1,1,-,+", 2, 2))}
        assert kinds == {PAIR_CREATION, ENDPOINT_SLIDE}

    def test_open_clan_has_no_moves(self):
        for p, q in [(1, 1), (2, 1), (2, 2), (3, 2)]:
            assert moves(open_clan(p, q)) == []

    def test_moves_strictly_increase_dimension(self):
        for n in range(1, 6):
            for p in range(n + 1):
                for clan in enumerate_clans(p, n - p):
                    d = dimension(clan)
                    for mv in moves(clan):
                        assert dimension(mv.result) > d

    def test_moves_respect_rank_invariants(self):
        # every move edge satisfies the semicontinuity of all intersection
        # invariants of the flag against its theta-image
        for n in range(1, 6):
            for p in range(n + 1):
                for clan in enumerate_clans(p, n - p):
                    for mv in moves(clan):
                        assert oracles.rank_dominates(clan, mv.result)

    @pytest.mark.parametrize("n", range(7))
    def test_moves_match_naive_oracle(self, n):
        for p in range(n + 1):
            for clan in enumerate_clans(p, n - p):
                assert_moves_match_naive_oracle(clan)

    @pytest.mark.slow
    def test_moves_match_naive_oracle_n7(self):
        for p in range(8):
            for clan in enumerate_clans(p, 7 - p):
                assert_moves_match_naive_oracle(clan)

    @settings(max_examples=200, deadline=None)
    @given(long_clans())
    def test_moves_match_naive_oracle_past_exhaustive_range(self, clan):
        # creations shift the numbers of later pairs and right endpoint slides
        # are plain swaps; both need clans with many pairs to be exercised
        assert_moves_match_naive_oracle(clan)

    @staticmethod
    def move_counts(p, q):
        elements = enumerate_clans(p, q)
        kinds = Counter(mv.kind for clan in elements for mv in moves(clan))
        return kinds, sum(len(successors(clan)) for clan in elements)

    def test_move_counts_pinned_4_4(self):
        kinds, distinct = self.move_counts(4, 4)
        assert kinds == {PAIR_CREATION: 12040, ENDPOINT_SLIDE: 12320, PAIR_EXCHANGE: 8820}
        assert sum(kinds.values()) == 33180 and distinct == 28770

    def test_move_counts_pinned_5_4(self):
        # the benchmark's poset54 counts: build_poset calls successors only
        kinds, distinct = self.move_counts(5, 4)
        assert kinds == {PAIR_CREATION: 47880, ENDPOINT_SLIDE: 56280, PAIR_EXCHANGE: 41580}
        assert sum(kinds.values()) == 145740 and distinct == 124950


class TestBuildPoset:
    def test_1_1(self):
        poset = oracles.get_poset(1, 1)
        assert len(poset) == 3
        top = parse_clan("1,1", 1, 1)
        assert poset.leq(parse_clan("+,-", 1, 1), top)
        assert poset.leq(parse_clan("-,+", 1, 1), top)
        assert not poset.leq(parse_clan("+,-", 1, 1), parse_clan("-,+", 1, 1))
        assert not poset.leq(parse_clan("-,+", 1, 1), parse_clan("+,-", 1, 1))

    def test_2_2_maximum(self):
        poset = oracles.get_poset(2, 2)
        assert len(poset) == 21
        assert poset.maximum() == parse_clan("1,2,2,1", 2, 2)

    def test_2_1_maximum(self):
        poset = oracles.get_poset(2, 1)
        assert len(poset) == 6
        top = poset.maximum()
        assert top == parse_clan("1,+,1", 2, 1)
        assert poset.dims[poset.index_of(top)] == 3

    def test_size_bound(self):
        with pytest.raises(PosetSizeError, match=r"^p\+q=10 exceeds the size bound 9$"):
            build_poset(5, 5)

    def test_maximum_unique_and_extremes(self):
        for n in range(1, 7):
            for p in range(n + 1):
                poset = oracles.get_poset(p, n - p)
                assert poset.maximum() == open_clan(p, n - p)
                assert poset.minimal_elements() == [
                    c for c in poset.elements if is_closed(c)
                ]

    def test_non_increasing_move_edge_raises(self, monkeypatch):
        source = parse_clan("1,+,-,1", 2, 2)
        closed = parse_clan("+,+,-,-", 2, 2)

        def with_lower(clan):
            found = successors(clan)
            return found | {closed} if clan == source else found

        monkeypatch.setattr("clans.poset.successors", with_lower)
        with pytest.raises(NonIncreasingMoveError) as raised:
            build_poset(2, 2)
        message = str(raised.value)
        assert "1,+,-,1" in message and "+,+,-,-" in message

    def test_one_successor_set_alive_at_a_time(self, monkeypatch):
        # each set of successor Clans is resolved to indices and freed before
        # the next is made; holding every set would fail on the second call
        previous = []

        def one_at_a_time(clan):
            assert all(ref() is None for ref in previous)
            found = successors(clan)
            previous[:] = [weakref.ref(s) for s in found]
            return found

        monkeypatch.setattr("clans.poset.successors", one_at_a_time)
        poset = build_poset(4, 4)
        assert poset.succ == tuple(
            tuple(sorted(poset.index_of(s) for s in successors(c))) for c in poset.elements
        )

    def test_closure_is_built_once_on_first_use(self, monkeypatch):
        # the diagnosis reads its own table, so it must not build the
        # down-sets and covers; the first order query or export builds them once
        built = []
        closure = OrbitPoset._closure.func

        def counted(poset):
            built.append(poset)
            return closure(poset)

        prop = cached_property(counted)
        prop.__set_name__(OrbitPoset, "_closure")
        monkeypatch.setattr(OrbitPoset, "_closure", prop)
        poset = build_poset(3, 3)
        for clan in poset.elements:
            springer_diagnosis(poset, clan)
        assert built == []
        assert poset.leq(poset.elements[0], poset.maximum())
        poset.hasse_covers()
        export_tsv(poset)
        assert built == [poset]

    def test_constructor_sees_an_edited_successor_table(self):
        # verify's fault-injection tests build posets with an extra edge
        poset = build_poset(2, 2)
        low = parse_clan("1,1,+,-", 2, 2)
        high = parse_clan("-,1,+,1", 2, 2)
        assert not poset.leq(low, high)
        i, j = poset.index_of(low), poset.index_of(high)
        succ = list(poset.succ)
        succ[i] = tuple(sorted(succ[i] + (j,)))
        edited = OrbitPoset(2, 2, poset.elements, poset.dims, tuple(succ))
        assert edited.leq(low, high)
        assert j in edited.cover_indices[i]
        assert not poset.leq(low, high)

    def test_jobs_do_not_change_result(self):
        serial = build_poset(2, 2, jobs=1)
        parallel = build_poset(2, 2, jobs=2)
        assert serial.elements == parallel.elements
        assert serial.succ == parallel.succ
        assert export_dot(serial) == export_dot(parallel)


class TestOrderQueries:
    def test_pinned_order_facts(self):
        poset = oracles.get_poset(2, 2)
        low = parse_clan("1,+,1,-", 2, 2)
        assert poset.leq(low, parse_clan("1,2,1,2", 2, 2))
        assert poset.leq(low, parse_clan("1,+,-,1", 2, 2))
        poset6 = oracles.get_poset(3, 3)
        source = parse_clan("1,2,1,3,2,3", 3, 3)
        assert poset6.leq(source, parse_clan("1,3,1,2,2,3", 3, 3))
        assert not poset6.leq(source, parse_clan("1,3,1,3,2,2", 3, 3))

    def test_leq_against_bfs_oracle(self):
        rng = random.Random(7)
        for p, q in [(2, 2), (3, 2)]:
            poset = oracles.get_poset(p, q)
            clans = poset.elements
            for _ in range(60):
                a, b = rng.choice(clans), rng.choice(clans)
                assert poset.leq(a, b) == oracles.bfs_below(a, b)

    def test_leq_unknown_clan(self):
        poset = oracles.get_poset(1, 1)
        with pytest.raises(ClanError):
            poset.leq(parse_clan("+,+", 2, 0), parse_clan("1,1", 1, 1))

    def test_lower_set_minimal(self):
        poset = oracles.get_poset(1, 1)
        closed = parse_clan("+,-", 1, 1)
        assert poset.lower_set(closed) == {closed}

    def test_lower_set_of_maximum_is_everything(self):
        for n in range(1, 6):
            for p in range(n + 1):
                poset = oracles.get_poset(p, n - p)
                assert poset.lower_set(poset.maximum()) == set(poset.elements)

    def test_lower_set_census(self):
        poset = oracles.get_poset(2, 2)
        clan = parse_clan("1,+,-,1", 2, 2)
        lower = poset.lower_set(clan)
        assert len(lower) == 13
        by_pairs = {}
        for c in lower:
            by_pairs.setdefault(len(c.pairs), []).append(c)
        # the clan itself, 7 other one-pair clans, 5 closed clans
        assert len(by_pairs[0]) == 5
        assert len(by_pairs[1]) == 8 and clan in by_pairs[1]
        assert set(by_pairs) == {0, 1}
        # every member dominates the prefix counts of the top clan
        top = prefix_signature(clan)
        for c in lower:
            sig = prefix_signature(c)
            assert all(x >= y for x, y in zip(sig.plus, top.plus))
            assert all(x >= y for x, y in zip(sig.minus, top.minus))

    def test_closed_below(self):
        poset = oracles.get_poset(1, 1)
        assert texts(poset.closed_below(parse_clan("1,1", 1, 1))) == ["+,-", "-,+"]
        poset22 = oracles.get_poset(2, 2)
        got = texts(poset22.closed_below(parse_clan("1,+,-,1", 2, 2)))
        assert got == ["+,+,-,-", "+,-,+,-", "+,-,-,+", "-,+,+,-", "-,+,-,+"]
        closed = parse_clan("+,-", 1, 1)
        assert poset.closed_below(closed) == {closed}

    def test_upper_set(self):
        poset = oracles.get_poset(1, 1)
        assert texts(poset.upper_set(parse_clan("+,-", 1, 1))) == ["+,-", "1,1"]
        for n in range(1, 5):
            for p in range(n + 1):
                poset = oracles.get_poset(p, n - p)
                for low in poset.elements:
                    upper = poset.upper_set(low)
                    assert upper == {c for c in poset.elements if poset.leq(low, c)}
                    assert upper == {
                        c for c in poset.elements if oracles.bfs_below(low, c)
                    }


class TestHasseAndExports:
    def test_hasse_1_1(self):
        poset = oracles.get_poset(1, 1)
        edges = [(format_clan(a), format_clan(b)) for a, b in poset.hasse_covers()]
        assert edges == [("+,-", "1,1"), ("-,+", "1,1")]

    def test_cover_edges_increase_dimension(self):
        for n in range(1, 7):
            for p in range(n + 1):
                poset = oracles.get_poset(p, n - p)
                for low, high in poset.hasse_covers():
                    assert dimension(high) >= dimension(low) + 1

    def test_closure_matches_naive_oracle(self):
        # covers and down-sets come from one pass, so each is checked against
        # reachability over naive_moves rather than against the other
        for n in range(1, 8):
            for p in range(n + 1):
                poset = oracles.get_poset(p, n - p)
                reach, covers = oracles.naive_reach_and_covers(poset.elements)
                lower = {c: set() for c in poset.elements}
                for x, above in reach.items():
                    for c in above:
                        lower[c].add(x)
                for i, c in enumerate(poset.elements):
                    assert {poset.elements[j] for j in poset.cover_indices[i]} == covers[c]
                    assert poset.lower_set(c) == lower[c]

    def test_covers_are_transitive_reduction(self):
        # removing a cover edge must change reachability; adding back any
        # non-cover successor edge must not
        for n in range(1, 6):
            for p in range(n + 1):
                poset = oracles.get_poset(p, n - p)
                for i in range(len(poset)):
                    for j in poset.succ[i]:
                        is_cover = j in poset.cover_indices[i]
                        via = any(
                            poset.leq(poset.elements[k], poset.elements[j])
                            for k in poset.succ[i]
                            if k != j
                        )
                        assert is_cover == (not via)

    def test_dot_shapes(self):
        dot = export_dot(oracles.get_poset(1, 1))
        assert dot.count("[label=") == 3
        assert dot.count("->") == 2
        assert dot.startswith("digraph clan_poset_p1_q1 {")
        assert dot.rstrip().endswith("}")
        single = export_dot(oracles.get_poset(1, 0))
        assert single.count("[label=") == 1
        assert single.count("->") == 0

    def test_dot_deterministic(self):
        a = export_dot(build_poset(2, 1))
        b = export_dot(build_poset(2, 1))
        assert a == b

    def test_exports_pinned_4_4_and_5_4(self):
        pinned = {
            (4, 4): [
                "bd2d1d3dd6ca78f2259deccd122adb96688ad84619f30ea66ad9ca7ad8714eeb",
                "2ea4805e86452deb25a0d478abf36c06dc5cdb0424053462fe707f76c64af687",
            ],
            # the tsv digest is the one the benchmark's poset54 run checks
            (5, 4): [
                "bc780dbda5ea09d2e0dfb2841061f32fac0050b28b40738d08a7a6825ca64ba7",
                "06d9f962947b27357054c324dc4e68d93c59aa3e543c6bcda2217f5cb1aad469",
            ],
        }
        for (p, q), expected in pinned.items():
            poset = build_poset(p, q)
            digests = [
                hashlib.sha256(export(poset).encode()).hexdigest()
                for export in (export_tsv, export_dot)
            ]
            assert digests == expected, (p, q)

    def test_tsv(self):
        tsv = export_tsv(oracles.get_poset(2, 1))
        lines = tsv.strip().split("\n")
        assert lines[0] == "clan\tdim\tclosed\tcovers"
        assert len(lines) == 7
        row = dict(zip(("clan", "dim", "closed", "covers"), lines[1].split("\t")))
        assert row["clan"] == "+,+,-"
        assert row["dim"] == "1"
        assert row["closed"] == "true"
        assert row["covers"] == "+,1,1"


def test_semicontinuity_of_prefix_counts():
    for n in range(1, 6):
        for p in range(n + 1):
            poset = oracles.get_poset(p, n - p)
            sigs = [prefix_signature(c) for c in poset.elements]
            for i, low in enumerate(poset.elements):
                for j, high in enumerate(poset.elements):
                    if poset.leq(low, high):
                        assert all(
                            x >= y for x, y in zip(sigs[i].plus, sigs[j].plus)
                        )
                        assert all(
                            x >= y for x, y in zip(sigs[i].minus, sigs[j].minus)
                        )
