"""Pattern containment, the seven-pattern classifier, and certificates."""

import hashlib
import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from clans import (
    FORBIDDEN_PATTERNS,
    BlockSplit,
    ClosedLeaf,
    DecompositionError,
    OuterStrip,
    SignDelete,
    build_certificate,
    canonicalize,
    certificate_json,
    classify,
    dimension,
    enumerate_clans,
    find_embedding,
    format_clan,
    includes_any,
    is_rationally_smooth,
    parse_clan,
    structural_check,
    verdict_json,
    verify_certificate,
)

import oracles
from clans import patterns
from clans.patterns import _decompose
from strategies import clans_up_to, random_clans


def assert_least_embeddings(pattern_list, hosts):
    for pattern in pattern_list:
        for host in hosts:
            brute = oracles.brute_embeddings(host, pattern)
            assert find_embedding(host, pattern) == (min(brute) if brute else None), (
                format_clan(host),
                format_clan(pattern),
            )


def test_forbidden_pattern_constants():
    assert [format_clan(p) for p in FORBIDDEN_PATTERNS] == [
        "1,+,-,1",
        "1,-,+,1",
        "1,2,1,2",
        "1,+,2,2,1",
        "1,-,2,2,1",
        "1,2,2,+,1",
        "1,2,2,-,1",
    ]
    assert [(p.p, p.q) for p in FORBIDDEN_PATTERNS] == [
        (2, 2), (2, 2), (2, 2), (3, 2), (2, 3), (3, 2), (2, 3),
    ]


def test_forbidden_patterns_closed_under_reversal():
    # the census classifies one clan per reversal pair on the strength of this
    assert {oracles.reversed_clan(p) for p in FORBIDDEN_PATTERNS} == set(FORBIDDEN_PATTERNS)


def test_forbidden_patterns_closed_under_sign_swap():
    # at p = q the census also copies a verdict to the sign swaps
    assert {oracles.swapped_clan(p) for p in FORBIDDEN_PATTERNS} == set(FORBIDDEN_PATTERNS)


def assert_one_pass_verdict_agrees(clan):
    assert (
        is_rationally_smooth(clan)
        == (includes_any(clan) is None)
        == (structural_check(clan) is None)
    ), format_clan(clan)


def test_one_pass_verdict_agrees_up_to_8():
    for clan in clans_up_to(8):
        assert_one_pass_verdict_agrees(clan)


class TestFindEmbedding:
    def test_identity(self):
        pattern = parse_clan("1,+,-,1", 2, 2)
        assert find_embedding(pattern, pattern) == (1, 2, 3, 4)

    def test_absent(self):
        host = parse_clan("1,+,1,-", 2, 2)
        assert find_embedding(host, parse_clan("1,+,-,1", 2, 2)) is None

    def test_least_embedding(self):
        host = parse_clan("1,2,+,-,2,1", 3, 3)
        pattern = parse_clan("1,+,-,1", 2, 2)
        assert find_embedding(host, pattern) == (1, 3, 4, 6)
        assert oracles.brute_embeddings(host, pattern) == [(1, 3, 4, 6), (2, 3, 4, 5)]

    def test_reflexive_on_all_small_clans(self):
        for clan in clans_up_to(4):
            assert find_embedding(clan, clan) == tuple(range(1, clan.n + 1))

    def test_matches_brute_force(self):
        assert_least_embeddings(FORBIDDEN_PATTERNS, [c for c in clans_up_to(6) if c.n >= 4])

    # The scan bound depends on the pattern's shape (nested, crossing or
    # side-by-side pairs, signs inside or between them), so these sweeps take
    # every clan of a length as the pattern, not only the forbidden ones.
    def test_any_pattern_matches_brute_force(self):
        assert_least_embeddings(list(clans_up_to(4)), list(clans_up_to(5)))

    @pytest.mark.slow
    def test_any_pattern_matches_brute_force_5_on_6(self):
        assert_least_embeddings(list(clans_up_to(5)), list(clans_up_to(6)))

    @pytest.mark.slow
    def test_eighth_pattern_matches_brute_force_up_to_8(self):
        assert_least_embeddings([parse_clan("1,2,2,3,3,1", 3, 3)], list(clans_up_to(8)))

    def test_longer_pattern_never_embeds(self):
        host = parse_clan("1,1", 1, 1)
        for pattern in FORBIDDEN_PATTERNS:
            assert find_embedding(host, pattern) is None


class TestIncludesAny:
    def test_hit_in_fixed_pattern_order(self):
        clan = parse_clan("1,2,1,2", 2, 2)
        pattern, embedding = includes_any(clan)
        assert format_clan(pattern) == "1,2,1,2"
        assert embedding == (1, 2, 3, 4)

    def test_absent_without_pairs(self):
        assert includes_any(parse_clan("+,-,+,-", 2, 2)) is None

    def test_five_letter_hit(self):
        clan = parse_clan("1,-,2,2,1", 2, 3)
        pattern, _ = includes_any(clan)
        assert format_clan(pattern) == "1,-,2,2,1"

    def test_small_clans_all_avoid(self):
        for clan in clans_up_to(3):
            assert includes_any(clan) is None


class TestStructuralCheck:
    def test_crossing(self):
        violation = structural_check(parse_clan("1,2,1,2", 2, 2))
        assert violation.rule == "crossing-pairs"
        assert violation.pairs == ((1, 3), (2, 4))

    def test_mixed_signs(self):
        violation = structural_check(parse_clan("1,+,-,1", 2, 2))
        assert violation.rule == "mixed-signs"
        assert violation.pairs == ((1, 4),)
        assert violation.signs == (2, 3)

    def test_sign_outside_inner_pair(self):
        violation = structural_check(parse_clan("1,2,2,+,1", 3, 2))
        assert violation.rule == "sign-outside-inner-pair"
        assert violation.pairs == ((1, 5), (2, 3))
        assert violation.signs == (4,)

    def test_ok(self):
        assert structural_check(parse_clan("1,2,2,3,3,1", 3, 3)) is None
        assert structural_check(parse_clan("+,-", 1, 1)) is None


class TestCertificates:
    def test_closed_leaf(self):
        cert = build_certificate(parse_clan("+,-", 1, 1))
        assert cert == ClosedLeaf(1, 2)

    def test_outer_strip(self):
        cert = build_certificate(parse_clan("1,+,1", 2, 1))
        assert cert == OuterStrip(1, 3, ClosedLeaf(2, 2))

    def test_block_split(self):
        cert = build_certificate(parse_clan("1,1,2,2", 2, 2))
        assert cert == BlockSplit(
            1,
            4,
            (
                OuterStrip(1, 2, ClosedLeaf(2, 1)),
                OuterStrip(3, 4, ClosedLeaf(4, 3)),
            ),
        )

    def test_sign_delete(self):
        cert = build_certificate(parse_clan("1,1,-,+", 2, 2))
        assert isinstance(cert, SignDelete)
        assert cert.position == 3
        assert cert.left == OuterStrip(1, 2, ClosedLeaf(2, 1))
        assert cert.right == ClosedLeaf(4, 4)

    def test_refuses_structural_failures(self):
        with pytest.raises(DecompositionError) as info:
            build_certificate(parse_clan("1,+,-,1", 2, 2))
        assert info.value.violation.rule == "mixed-signs"

    def test_verify_accepts_built_certificates(self):
        for clan in clans_up_to(6):
            if includes_any(clan) is None:
                assert verify_certificate(clan, build_certificate(clan))

    def test_straddle_guard(self):
        # only reachable by skipping the structural gate
        with pytest.raises(RuntimeError, match=r"pair \(2,4\) straddles range \[1,4\]"):
            _decompose(parse_clan("1,2,1,2", 2, 2))

    def test_verify_rejects_single_child_block_split(self):
        clan = parse_clan("1,1", 1, 1)
        bad = BlockSplit(1, 2, (OuterStrip(1, 2, ClosedLeaf(2, 1)),))
        assert not verify_certificate(clan, bad)

    def test_verify_rejects_outer_strip_on_non_mates(self):
        clan = parse_clan("1,+,1,-", 2, 2)
        bad = OuterStrip(1, 4, ClosedLeaf(2, 3))
        assert not verify_certificate(clan, bad)

    def test_verify_rejects_tampered_position(self):
        clan = parse_clan("1,1,-,+", 2, 2)
        cert = build_certificate(clan)
        tampered = SignDelete(1, 4, 4, cert.left, cert.right)
        assert not verify_certificate(clan, tampered)

    def test_verify_rejects_wrong_clan(self):
        cert = build_certificate(parse_clan("1,1,2,2", 2, 2))
        assert not verify_certificate(parse_clan("1,2,2,1", 2, 2), cert)

    def test_verify_rejects_a_pair_straddling_a_node(self):
        # 1,3 are mates, so the block is accepted; pair (2,4) leaves it
        clan = parse_clan("1,2,1,2", 2, 2)
        bad = BlockSplit(1, 4, (OuterStrip(1, 3, ClosedLeaf(2, 2)), ClosedLeaf(4, 4)))
        assert not verify_certificate(clan, bad)

    def test_verify_rejects_a_non_leaf_on_an_empty_range(self):
        clan = parse_clan("+,-", 1, 1)
        bad = SignDelete(1, 2, 1, OuterStrip(1, 0, ClosedLeaf(2, -1)), ClosedLeaf(2, 2))
        assert not verify_certificate(clan, bad)

    def test_verify_rejects_a_sign_delete_off_the_signs(self):
        out_of_range = SignDelete(1, 2, 3, ClosedLeaf(1, 2), ClosedLeaf(4, 2))
        assert not verify_certificate(parse_clan("+,-", 1, 1), out_of_range)
        on_a_pair = SignDelete(1, 2, 1, ClosedLeaf(1, 0), ClosedLeaf(2, 2))
        assert not verify_certificate(parse_clan("1,1", 1, 1), on_a_pair)

    def test_verify_rejects_a_sign_delete_inside_a_pair(self):
        clan = parse_clan("1,+,1,-", 2, 2)
        bad = SignDelete(1, 4, 2, ClosedLeaf(1, 1), ClosedLeaf(3, 4))
        assert not verify_certificate(clan, bad)

    def test_verify_rejects_a_block_out_of_place(self):
        clan = parse_clan("1,1,2,2", 2, 2)
        first = OuterStrip(1, 2, ClosedLeaf(2, 1))
        second = OuterStrip(3, 4, ClosedLeaf(4, 3))
        assert verify_certificate(clan, BlockSplit(1, 4, (first, second)))
        assert not verify_certificate(clan, BlockSplit(1, 4, (second, first)))

    def test_verify_rejects_an_unknown_node(self):
        clan = parse_clan("+,-", 1, 1)
        assert not verify_certificate(clan, SimpleNamespace(start=1, end=2))

    def test_verify_rejects_a_leaf_holding_a_whole_pair(self):
        # no pair straddles the leaf's range, so only the leaf's sign test can object
        assert not verify_certificate(parse_clan("1,1", 1, 1), ClosedLeaf(1, 2))
        assert not verify_certificate(parse_clan("+,1,1,-", 2, 2), ClosedLeaf(1, 4))

    def test_verify_accepts_empty_leaves(self):
        # deleting the first sign leaves ClosedLeaf(1, 0); the strip's interior is ClosedLeaf(3, 2)
        clan = parse_clan("+,1,1", 2, 1)
        cert = SignDelete(1, 3, 1, ClosedLeaf(1, 0), OuterStrip(2, 3, ClosedLeaf(3, 2)))
        assert build_certificate(clan) == cert
        assert verify_certificate(clan, cert)


def certificate_digest(lengths):
    """(sound clans, sha256 over each clan's certificate or violation).

    Clans are taken in enumeration order: by length, then p, then
    ``enumerate_clans`` order.
    """
    digest = hashlib.sha256()
    sound = 0
    for n in lengths:
        for p in range(n + 1):
            for clan in enumerate_clans(p, n - p):
                try:
                    cert = build_certificate(clan)
                except DecompositionError as exc:
                    doc = repr(exc.violation)
                else:
                    doc = json.dumps(certificate_json(cert), sort_keys=True)
                    sound += 1
                digest.update(f"{format_clan(clan)} {doc}\n".encode())
    return sound, digest.hexdigest()


def test_certificates_pinned_up_to_7():
    assert certificate_digest(range(1, 8)) == (
        1424,
        "2fbd48fe2a247cb837e9ca81b8a3b76b0035baabb68d0d898567a2e79f3e170f",
    )


@pytest.mark.slow
def test_certificates_pinned_8():
    # 4,054 sound clans with p+q <= 8 in all
    assert certificate_digest([8]) == (
        2630,
        "99702dace03480c2cf2ff32ecf8c6c24af1357d3df112554a25f427143ef26a4",
    )


def witness_digest(lengths):
    """(clans including a pattern, sha256 over each clan's includes_any witness).

    Clans are taken in enumeration order, as in certificate_digest; an
    avoider's line reads "avoids".
    """
    digest = hashlib.sha256()
    hits = 0
    for n in lengths:
        for p in range(n + 1):
            for clan in enumerate_clans(p, n - p):
                hit = includes_any(clan)
                if hit is None:
                    doc = "avoids"
                else:
                    pattern, positions = hit
                    doc = f"{format_clan(pattern)} {','.join(map(str, positions))}"
                    hits += 1
                digest.update(f"{format_clan(clan)} {doc}\n".encode())
    return hits, digest.hexdigest()


def test_witnesses_pinned_up_to_7():
    assert witness_digest(range(1, 8)) == (
        1131,
        "3fd3bbd3f6bece3d3e93f2d98c1733592dab14ddcb37813ce9e04415025aa645",
    )


@pytest.mark.slow
def test_witnesses_pinned_8():
    assert witness_digest([8]) == (
        4563,
        "a66b28c1b509fc88bff88d97d5d66a1c2d08db164757d55b83a2dc396f9a2231",
    )


class TestClassify:
    def test_witnessed_singular(self):
        verdict = classify(parse_clan("1,+,-,1", 2, 2))
        assert not verdict.rationally_smooth
        assert format_clan(verdict.witness_pattern) == "1,+,-,1"
        assert verdict.witness_positions == (1, 2, 3, 4)
        assert verdict.certificate is None

    def test_smooth_closed(self):
        verdict = classify(parse_clan("+,-,+,-", 2, 2))
        assert verdict.rationally_smooth
        assert isinstance(verdict.certificate, (ClosedLeaf, SignDelete))
        assert verdict.witness_pattern is None

    def test_smooth_with_pairs(self):
        verdict = classify(parse_clan("1,2,2,1", 2, 2))
        assert verdict.rationally_smooth
        assert verify_certificate(verdict.clan, verdict.certificate)

    def test_five_letter_pattern_hit(self):
        verdict = classify(parse_clan("1,+,2,2,1", 3, 2))
        assert not verdict.rationally_smooth
        assert format_clan(verdict.witness_pattern) == "1,+,2,2,1"

    def test_avoider_failing_the_structural_check_aborts(self, monkeypatch):
        # only reachable if avoidance and the structural check disagree
        crossing = parse_clan("1,2,1,2", 2, 2)
        real = patterns.includes_any
        monkeypatch.setattr(
            patterns, "includes_any", lambda clan: None if clan == crossing else real(clan)
        )
        with pytest.raises(RuntimeError) as info:
            classify(crossing)
        assert str(info.value) == (
            "clan 1,2,1,2 avoids all seven patterns yet fails the structural check "
            "(StructuralViolation(rule='crossing-pairs', pairs=((1, 3), (2, 4)), signs=())); "
            "the smoothness criteria disagree"
        )

    def test_agreement_of_pattern_structural_certificate(self):
        # three of the four criteria agree everywhere (reflection counting is
        # compared separately; see test_findings.py)
        for clan in clans_up_to(6):
            avoids = includes_any(clan) is None
            assert avoids == is_rationally_smooth(clan)
            assert avoids == (structural_check(clan) is None)
            try:
                cert_ok = verify_certificate(clan, build_certificate(clan))
            except DecompositionError:
                cert_ok = False
            assert avoids == cert_ok


class TestJson:
    def test_verdict_json_witness(self):
        doc = verdict_json(classify(parse_clan("1,2,1,2", 2, 2)))
        assert doc["clan"] == "1,2,1,2"
        assert doc["rationally_smooth"] is False
        assert doc["witness_pattern"] == "1,2,1,2"
        assert doc["witness_positions"] == [1, 2, 3, 4]
        assert "certificate" not in doc

    def test_verdict_json_certificate(self):
        doc = verdict_json(classify(parse_clan("1,1,2,2", 2, 2)))
        assert doc["rationally_smooth"] is True
        cert = doc["certificate"]
        assert cert["kind"] == "block-split"
        assert [c["kind"] for c in cert["children"]] == ["outer-strip", "outer-strip"]

    def test_certificate_json_round_shape(self):
        cert = build_certificate(parse_clan("1,1,-,+", 2, 2))
        doc = certificate_json(cert)
        assert doc["kind"] == "sign-delete"
        assert doc["position"] == 3
        assert doc["left"]["kind"] == "outer-strip"
        assert doc["right"]["kind"] == "closed-leaf"
        # each kind's keys in the order classify prints them
        split = certificate_json(build_certificate(parse_clan("1,1,2,2", 2, 2)))
        assert list(doc) == ["kind", "start", "end", "position", "left", "right"]
        assert list(doc["left"]) == ["kind", "start", "end", "child"]
        assert list(doc["right"]) == ["kind", "start", "end"]
        assert list(split) == ["kind", "start", "end", "children"]


# constructive transitivity: a sub-clan of a sub-clan embeds in the host
@st.composite
def host_and_nested_subclans(draw):
    p = draw(st.integers(1, 3))
    q = draw(st.integers(1, 3))
    clans = enumerate_clans(p, q)
    host = clans[draw(st.integers(0, len(clans) - 1))]

    def sub_positions(clan):
        keep_pairs = [
            pair for pair in clan.pairs if draw(st.booleans())
        ]
        keep_signs = [
            k
            for k, e in enumerate(clan.entries, start=1)
            if e in ("+", "-") and draw(st.booleans())
        ]
        positions = sorted(keep_signs + [x for pair in keep_pairs for x in pair])
        return positions

    mid_positions = sub_positions(host)
    mid = canonicalize(host.entries[i - 1] for i in mid_positions)
    inner_positions = sub_positions(mid)
    inner = canonicalize(mid.entries[i - 1] for i in inner_positions)
    return host, mid, inner


@settings(max_examples=60, deadline=None)
@given(host_and_nested_subclans())
def test_inclusion_is_transitive(data):
    host, mid, inner = data
    assert find_embedding(host, mid) is not None
    assert find_embedding(mid, inner) is not None
    assert find_embedding(host, inner) is not None


@settings(max_examples=120, deadline=None)
@given(
    st.tuples(st.integers(1, 3), st.integers(1, 3)),
    st.integers(0, 10 ** 6),
    st.integers(0, 6),
)
def test_embedding_soundness_fuzz(pq, pick, pattern_index):
    host_list = enumerate_clans(*pq)
    host = host_list[pick % len(host_list)]
    pattern = FORBIDDEN_PATTERNS[pattern_index]
    embedding = find_embedding(host, pattern)
    if embedding is not None:
        assert len(embedding) == pattern.n
        assert all(a < b for a, b in zip(embedding, embedding[1:]))
        restricted = canonicalize(host.entries[i - 1] for i in embedding)
        assert restricted == pattern


def _sound_interior(draw, m, signs=True):
    """Tokens of a pair interior of length m that passes the structural check.

    A run of one sign, one pair around a sound interior, or (m even) pairs
    side by side whose interiors hold no sign; "(" and ")" stand for pair ends.
    """
    kinds = (["run"] if signs or not m else []) + (["wrap"] if m >= 2 else [])
    kind = draw(st.sampled_from(kinds + (["side-by-side"] if m % 2 == 0 else [])))
    if kind == "run":
        return [draw(st.sampled_from("+-"))] * m
    if kind == "wrap":
        return ["(", *_sound_interior(draw, m - 2, signs), ")"]
    tokens = []
    while m:
        inner = 2 * draw(st.integers(0, m // 2 - 1))
        tokens += ["(", *_sound_interior(draw, inner, signs=False), ")"]
        m -= inner + 2
    return tokens


@st.composite
def long_clans(draw):
    """(clan of length 10 to 16, whether it was built to be structurally sound).

    Sound clans are free signs and pairs around sound interiors; the others
    place 2 to n/2 pairs at random, as in test_poset.py.
    """
    n = draw(st.integers(10, 16))
    if draw(st.booleans()):
        return draw(random_clans(st.just(n), min_pairs=2)), False
    tokens = []
    while len(tokens) < n:
        left = n - len(tokens)
        if left == 1 or draw(st.booleans()):
            tokens.append(draw(st.sampled_from("+-")))
        else:
            tokens += ["(", *_sound_interior(draw, draw(st.integers(0, left - 2))), ")"]
    entries, stack = [], []
    for token in tokens:
        if token == "(":
            stack.append(len(entries) + 1)
            entries.append(stack[-1])
        elif token == ")":
            entries.append(stack.pop())
        else:
            entries.append(token)
    return canonicalize(entries), True


@settings(max_examples=200, deadline=None)
@given(long_clans())
def test_certificate_iff_structural_past_exhaustive_range(drawn):
    clan, built_sound = drawn
    violation = structural_check(clan)
    assert not (built_sound and violation)
    try:
        cert = build_certificate(clan)
    except DecompositionError as exc:
        assert violation is not None and exc.violation == violation
    else:
        assert violation is None
        assert verify_certificate(clan, cert)


@settings(max_examples=150, deadline=None)
@given(random_clans())
def test_inclusion_survives_reversal(host):
    mirror = oracles.reversed_clan(host)
    for pattern in FORBIDDEN_PATTERNS:
        reversed_pattern = oracles.reversed_clan(pattern)
        found = find_embedding(host, pattern)
        assert (found is None) == (find_embedding(mirror, reversed_pattern) is None)
        if found is not None:  # read backwards, the embedding embeds the reversed pattern
            backwards = [host.n + 1 - i for i in reversed(found)]
            assert canonicalize(mirror.entries[i - 1] for i in backwards) == reversed_pattern


@settings(max_examples=60, deadline=None)
@given(random_clans())
def test_includes_any_matches_brute_force_on_long_clans(host):
    # the first pattern, in FORBIDDEN_PATTERNS order, with a brute-force embedding
    expected = None
    for pattern in FORBIDDEN_PATTERNS:
        brute = oracles.brute_embeddings(host, pattern)
        if brute:
            expected = (pattern, min(brute))
            break
    assert includes_any(host) == expected


@settings(max_examples=200, deadline=None)
@given(st.one_of(random_clans(), long_clans().map(lambda drawn: drawn[0])))
def test_one_pass_verdict_agrees_on_long_clans(clan):
    # long_clans builds half its clans sound, so both verdicts are drawn
    assert_one_pass_verdict_agrees(clan)
