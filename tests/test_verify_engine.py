"""The self-check engine behind `clans verify`."""

import hashlib
import operator
from collections import Counter

import pytest

import clans.poset
from clans import (
    OrbitPoset,
    PosetSizeError,
    base_dimension,
    count_clans,
    enumerate_clans,
    parse_clan,
    prefix_signature,
    successors,
)
from clans import cli, patterns, verify
from clans.verify import report_lines, run_checks

import oracles


def test_all_green_up_to_n5():
    results, statistic = run_checks(max_n=5)
    assert all(r.passed for r in results)
    assert statistic.pairs == 630
    assert statistic.at_least == statistic.pairs


def test_known_fail_surfaces_at_n6():
    results, _ = run_checks(max_n=6)
    failing = [r for r in results if not r.passed]
    assert [(r.name, r.p, r.q) for r in failing] == [("criteria-equivalence", 3, 3)]
    assert "1,2,2,3,3,1" in failing[0].detail


def test_check_families_present():
    results, _ = run_checks(max_n=4)
    names = {r.name for r in results}
    assert names == {
        "count",
        "dimensions",
        "move-monotonicity",
        "poset-extremes",
        "prefix-monotonicity",
        "order-facts",
        "criteria-equivalence",
    }
    # order facts only checked where the pinned signatures exist
    assert [(r.p, r.q) for r in results if r.name == "order-facts"] == [(2, 2)]


def test_report_lines_shape():
    results, statistic = run_checks(max_n=3)
    lines = report_lines(results, statistic)
    assert lines[0].startswith("PASS count p=0 q=1")
    assert lines[-2].startswith("count>=budget held for")
    assert lines[-1].endswith(f"{len(results)}/{len(results)} checks passed")


def test_cap_above_the_poset_bound_is_refused_before_any_work(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("a poset was built")

    monkeypatch.setattr(verify, "build_poset", no_build)
    with pytest.raises(PosetSizeError, match=r"^p\+q=10 exceeds the size bound 9$"):
        run_checks(max_n=10)
    with pytest.raises(AssertionError):  # the bound itself is accepted
        run_checks(max_n=clans.poset.POSET_MAX_N)


def test_prefix_monotonicity_fails_on_a_bad_move_edge(monkeypatch):
    # 1,1,+,- -> -,1,+,1 raises the dimension from 3 to 4, so only the
    # prefix-count check can object: the first minus count falls from 1 to 0
    real_build = verify.build_poset

    def build_with_extra_edge(p, q, **kwargs):
        poset = real_build(p, q, **kwargs)
        if (p, q) != (2, 2):
            return poset
        low = poset.index_of(parse_clan("1,1,+,-", 2, 2))
        high = poset.index_of(parse_clan("-,1,+,1", 2, 2))
        assert (poset.dims[low], poset.dims[high]) == (3, 4)
        succ = list(poset.succ)
        succ[low] = tuple(sorted(succ[low] + (high,)))
        return OrbitPoset(p, q, poset.elements, poset.dims, tuple(succ), poset._index)

    monkeypatch.setattr(verify, "build_poset", build_with_extra_edge)
    results, statistic = run_checks(max_n=4)
    lines = report_lines(results, statistic)
    failing = [line for line in lines if line.startswith("FAIL prefix-monotonicity")]
    assert len(failing) == 1
    assert failing[0].startswith("FAIL prefix-monotonicity p=2 q=2")
    assert "-,1,+,1" in failing[0]


def _edit_successors(monkeypatch, text, p, q, edit):
    """Make the move kernel return ``edit(found)`` as the successors of one clan."""
    source = parse_clan(text, p, q)

    def edited(clan):
        found = successors(clan)
        return edit(found) if clan == source else found

    monkeypatch.setattr("clans.poset.successors", edited)


def _fail_lines(lines):
    return [line for line in lines if line.startswith("FAIL")]


FLAT_EDGE_FAIL = (
    "FAIL move-monotonicity p=2 q=2: "
    "move 1,1,+,- -> +,1,1,- takes the dimension from 3 to 3"
)


def _add_flat_edge(monkeypatch):
    # 1,1,+,- and +,1,1,- are incomparable and both of dimension 3
    flat = parse_clan("+,1,1,-", 2, 2)
    _edit_successors(monkeypatch, "1,1,+,-", 2, 2, lambda found: found | {flat})


def test_move_monotonicity_names_a_non_increasing_edge(monkeypatch):
    # build_poset refuses the edge; verify reports the refusal as the
    # signature's one line
    _add_flat_edge(monkeypatch)
    assert _fail_lines(report_lines(*run_checks(max_n=4))) == [FLAT_EDGE_FAIL]


def test_cli_verify_reports_a_non_increasing_edge_in_one_line(monkeypatch, capsys):
    _add_flat_edge(monkeypatch)
    assert cli.main(["verify", "--max-n", "4"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert _fail_lines(out.splitlines()) == [FLAT_EDGE_FAIL]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_verify_reports_a_missing_element_in_one_line(monkeypatch, capsys, jobs):
    # the enumeration walk drops 1,+,1,- and its dimension; the first clan's
    # pair creation makes it
    walk = clans.poset._clans_with_dimensions
    dropped = parse_clan("1,+,1,-", 2, 2)

    def walk_without(p, q):
        found, dims = walk(p, q)
        keep = [k for k, c in enumerate(found) if c != dropped]
        return [found[k] for k in keep], [dims[k] for k in keep]

    monkeypatch.setattr("clans.poset._clans_with_dimensions", walk_without)
    assert cli.main(["verify", "--max-n", "4", "--jobs", jobs]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert _fail_lines(out.splitlines()) == [
        "FAIL count p=2 q=2: move result 1,+,1,- of +,+,-,- "
        "is not among the 20 enumerated clans"
    ]


def test_count_reports_a_clan_enumerated_twice(monkeypatch):
    # the walk yields +,+,-,- again in place of -,-,+,+: both are closed and
    # neither is a move result, so only the distinctness test sees it
    walk = clans.poset._clans_with_dimensions
    twice, lost = parse_clan("+,+,-,-", 2, 2), parse_clan("-,-,+,+", 2, 2)

    def walk_with_repeat(p, q):
        found, dims = walk(p, q)
        return [twice if c == lost else c for c in found], dims

    monkeypatch.setattr("clans.poset._clans_with_dimensions", walk_with_repeat)
    assert "FAIL count p=2 q=2: 21 clans, 6 closed" in _fail_lines(
        report_lines(*run_checks(max_n=4))
    )


def test_poset_extremes_reports_two_tops(monkeypatch):
    # -,+ loses its only move, so it stays a top beside 1,1
    _edit_successors(monkeypatch, "-,+", 1, 1, lambda found: set())
    assert _fail_lines(report_lines(*run_checks(max_n=3))) == [
        "FAIL poset-extremes p=1 q=1: (1,1) poset has 2 top elements, expected one"
    ]


def test_criteria_equivalence_reports_a_refused_decomposition(monkeypatch):
    # a structural test that passes the crossing 1,2,1,2 sends it to
    # _decompose, which refuses it: the certificate criterion then fails it
    crossing = parse_clan("1,2,1,2", 2, 2)
    check = verify.structural_check
    monkeypatch.setattr(
        verify, "structural_check", lambda clan: None if clan == crossing else check(clan)
    )
    assert _fail_lines(report_lines(*run_checks(max_n=4))) == [
        "FAIL criteria-equivalence p=2 q=2: 1,2,1,2: avoidance=False "
        "structural=True certificate=False springer=False"
    ]


def _report_with_edited_dim(monkeypatch, text, dim):
    """``report_lines(*run_checks(max_n=4))`` with one (2,2) dimension edited."""
    real_build = verify.build_poset

    def build_with_edited_dim(p, q, **kwargs):
        poset = real_build(p, q, **kwargs)
        if (p, q) != (2, 2):
            return poset
        dims = list(poset.dims)
        dims[poset.index_of(parse_clan(text, 2, 2))] = dim
        return OrbitPoset(p, q, poset.elements, tuple(dims), poset.succ, poset._index)

    monkeypatch.setattr(verify, "build_poset", build_with_edited_dim)
    return report_lines(*run_checks(max_n=4))


def _dimensions_failures(monkeypatch, text, dim):
    """FAIL dimensions lines of :func:`_report_with_edited_dim`."""
    lines = _report_with_edited_dim(monkeypatch, text, dim)
    return [line for line in lines if line.startswith("FAIL dimensions")]


def test_dimensions_names_a_dimension_outside_the_range(monkeypatch):
    assert _dimensions_failures(monkeypatch, "1,2,2,1", 7) == [
        "FAIL dimensions p=2 q=2: 1,2,2,1 has dimension 7 outside [2,6]"
    ]


def test_dimensions_names_a_closed_clan_off_the_base(monkeypatch):
    assert _dimensions_failures(monkeypatch, "+,+,-,-", 3) == [
        "FAIL dimensions p=2 q=2: +,+,-,-: dimension 3 vs closedness mismatch"
    ]


def test_dimensions_names_a_second_clan_at_the_top(monkeypatch):
    assert _dimensions_failures(monkeypatch, "1,2,1,2", 6) == [
        "FAIL dimensions p=2 q=2: 1,2,1,2: dimension 6 vs open clan mismatch"
    ]


def test_budget_statistic_counts_a_pair_below_its_budget(monkeypatch):
    # five closed clans lie below 1,+,-,1; +,+,-,- has 4 reflection hits and
    # the other four have 3, its budget at dimension 5.  At dimension 6 the
    # budget is 4, so those four pairs fall short.
    lines = _report_with_edited_dim(monkeypatch, "1,+,-,1", 6)
    assert lines[-2] == "count>=budget held for 124/128 (closed, target) pairs"


def test_budget_statistic_matches_a_naive_count_up_to_n6():
    pairs = at_least = 0
    for n in range(1, 7):
        for p in range(n + 1):
            poset = oracles.get_poset(p, n - p)
            base = base_dimension(p, n - p)
            for t, dim in enumerate(poset.dims):
                for c in poset.closed_below_indices(t):
                    pairs += 1
                    at_least += len(poset.reflection_hits(c, t)) >= dim - base
        statistic = run_checks(max_n=n)[1]
        assert (statistic.pairs, statistic.at_least) == (pairs, at_least)


def test_packed_prefix_counts_compare_like_the_tuples():
    # every ordered pair of clans, not only move edges
    for n in range(1, 6):
        for p in range(n + 1):
            elements = oracles.get_poset(p, n - p).elements
            packed, guard = verify._packed_prefix_counts(elements, n)
            counts = [prefix_signature(c).plus + prefix_signature(c).minus for c in elements]
            for a, low in zip(counts, packed):
                for b, high in zip(counts, packed):
                    falls = ((low | guard) - high) & guard != guard
                    assert falls == any(map(operator.lt, a, b))


def test_structural_check_runs_once_per_clan(monkeypatch):
    calls = []
    check = patterns.structural_check

    def counted(clan):
        calls.append(clan)
        return check(clan)

    # verify binds its own name; patch both so a call through build_certificate counts too
    monkeypatch.setattr(patterns, "structural_check", counted)
    monkeypatch.setattr(verify, "structural_check", counted)
    run_checks(max_n=5)
    expected = sum(count_clans(p, n - p) for n in range(1, 6) for p in range(n + 1))
    assert len(calls) == len(set(calls)) == expected


def test_criteria_stop_at_the_first_disagreement(monkeypatch):
    calls = {"criteria_bits": Counter(), "springer_diagnosis": Counter()}
    for name, counter in calls.items():

        def counted(*args, fn=getattr(verify, name), counter=counter):
            counter[args[-1].p, args[-1].q] += 1
            return fn(*args)

        monkeypatch.setattr(verify, name, counted)
    results, _ = run_checks(max_n=7)
    failing = {
        (r.p, r.q): r.detail.split(":")[0]
        for r in results
        if r.name == "criteria-equivalence" and not r.passed
    }
    assert set(failing) == {(3, 3), (4, 3), (3, 4)}
    for n in range(1, 8):
        for p in range(n + 1):
            q = n - p
            bits, diagnoses = calls["criteria_bits"][p, q], calls["springer_diagnosis"][p, q]
            if (p, q) in failing:
                index = enumerate_clans(p, q).index(parse_clan(failing[p, q], p, q))
                assert index < bits <= 2 * (index + 1)
                assert diagnoses == index + 1
            else:
                assert bits == diagnoses == count_clans(p, q)


def test_golden_report_up_to_n7():
    lines = report_lines(*run_checks(max_n=7))
    assert lines[-2:] == [
        "count>=budget held for 21906/21906 (closed, target) pairs",
        "209/212 checks passed",
    ]
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
    assert digest == "3189eaf284d3bd2c19b7b09e0a7d899f9e6a9a332f19cec5e466ec99bd90cad6"


@pytest.mark.slow
def test_golden_report_up_to_n8():
    # the stdout of `clans verify --max-n 8`
    lines = report_lines(*run_checks(max_n=8))
    assert sum(line.startswith("FAIL criteria-equivalence") for line in lines) == 6
    assert lines[-2:] == [
        "count>=budget held for 148144/148144 (closed, target) pairs",
        "260/266 checks passed",
    ]
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
    assert digest == "3623f5674bdb2f7361c6fab7ffd54c9c1929dca0cdd23085500fb737bb5bad9e"


@pytest.mark.slow
def test_golden_report_up_to_n9(capsys):
    # the stdout of `clans verify --max-n 9`, at the poset's size bound: the
    # four new FAIL lines are the sign paddings of 1,2,2,3,3,1 at length 9
    assert cli.main(["verify", "--max-n", "9"]) == 1
    out = capsys.readouterr().out
    lines = out.splitlines()
    failing = _fail_lines(lines)
    assert len(failing) == 10
    assert all(line.startswith("FAIL criteria-equivalence") for line in failing)
    agree = ": avoidance=True structural=True certificate=True springer=False"
    assert failing[6:] == [
        "FAIL criteria-equivalence p=3 q=6: -,-,-,1,2,2,3,3,1" + agree,
        "FAIL criteria-equivalence p=4 q=5: +,-,-,1,2,2,3,3,1" + agree,
        "FAIL criteria-equivalence p=5 q=4: +,+,-,1,2,2,3,3,1" + agree,
        "FAIL criteria-equivalence p=6 q=3: +,+,+,1,2,2,3,3,1" + agree,
    ]
    assert lines[-2:] == [
        "count>=budget held for 1075138/1075138 (closed, target) pairs",
        "316/326 checks passed",
    ]
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "21a968bc08feb59ecbb1070a1f4abcf774927cd02735bb7ad13b7378bc39c821"
