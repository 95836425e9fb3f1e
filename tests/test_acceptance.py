"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 4 cross-checks the four smoothness criteria.  Pattern
avoidance, the structural test and the certificate must agree on every clan.
The reflection-counting diagnosis rejects exactly the seven-pattern avoiders
that include 1,2,2,3,3,1 (at n = 7, its four sign paddings), so the criterion
asserts that dissent set, found independently by brute-force embedding, and
certifies each dissent: the witness count exceeds its budget, and every
counted reflection is a T-curve whose image an independent oracle places
below the target.  The criterion line names each dissent with its witness;
see tests/test_findings.py for the rest of the evidence and README.md for the
summary.
"""

import math
import subprocess
import sys
import time

import pytest

from clans import (
    FORBIDDEN_PATTERNS,
    DecompositionError,
    apply_reflection,
    base_dimension,
    build_certificate,
    canonicalize,
    count_clans,
    dimension,
    enumerate_clans,
    format_clan,
    includes_any,
    is_closed,
    moves,
    open_clan,
    parse_clan,
    prefix_signature,
    springer_count,
    springer_diagnosis,
    structural_check,
    verify_certificate,
)

import oracles


def report(number, passed, detail):
    print(f"ACCEPTANCE {'PASS' if passed else 'FAIL'} criterion {number}: {detail}")


def test_criterion_1_enumeration_counts():
    start = time.monotonic()
    spot = {(1, 1): 3, (2, 1): 6, (2, 2): 21, (3, 2): 55}
    for n in range(0, 9):
        for p in range(n + 1):
            q = n - p
            clans = enumerate_clans(p, q)
            assert len(clans) == count_clans(p, q)
            assert len(set(clans)) == len(clans)
            closed = sum(1 for c in clans if is_closed(c))
            assert closed == math.comb(n, p)
            if (p, q) in spot:
                assert len(clans) == spot[(p, q)]
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(1, True, f"counts match closed form for p+q <= 8 in {elapsed:.2f}s")


def test_criterion_2_order_facts():
    poset = oracles.get_poset(2, 2)
    low = parse_clan("1,+,1,-", 2, 2)
    assert poset.leq(low, parse_clan("1,2,1,2", 2, 2))
    assert poset.leq(low, parse_clan("1,+,-,1", 2, 2))
    poset6 = oracles.get_poset(3, 3)
    source = parse_clan("1,2,1,3,2,3", 3, 3)
    assert poset6.leq(source, parse_clan("1,3,1,2,2,3", 3, 3))
    assert not poset6.leq(source, parse_clan("1,3,1,3,2,2", 3, 3))
    report(2, True, "all four pinned order facts hold exactly")


def test_criterion_3_dimension_invariants():
    start = time.monotonic()
    for n in range(1, 8):
        for p in range(n + 1):
            q = n - p
            base = base_dimension(p, q)
            full = n * (n - 1) // 2
            top = open_clan(p, q)
            top_count = 0
            for clan in enumerate_clans(p, q):
                d = dimension(clan)
                if is_closed(clan):
                    assert d == base
                else:
                    assert d > base
                if d == full:
                    top_count += 1
                    assert clan == top
                for mv in moves(clan):
                    assert dimension(mv.result) > d
            assert top_count == 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(3, True, f"dimension extremes and move monotonicity, p+q <= 7, {elapsed:.1f}s")


EIGHTH = canonicalize((1, 2, 2, 3, 3, 1))


def coordinate_flag(closed):
    """The T-fixed flag of a closed orbit: e_1, ..., e_p fill the + slots in
    order, e_{p+1}, ..., e_n the - slots."""
    slots = {"+": iter(range(closed.p)), "-": iter(range(closed.p, closed.n))}
    flag = []
    for e in closed.entries:
        k = next(slots[e])
        flag.append([int(j == k) for j in range(closed.n)])
    return flag


def certification_faults(target, witness):
    """Every way the witness fails to certify that the target is singular.

    The count must exceed the budget, and each hit (i, j) must be a T-curve
    from the closed orbit into the target's closure: the flag with v_i
    replaced by v_i + v_j lies in the orbit of the reflected clan, and that
    clan lies below the target in the move order and under the rank
    conditions, each computed by an independent oracle.
    """
    faults = []
    closed = witness.closed
    if witness.budget != dimension(target) - dimension(closed):
        faults.append(f"budget {witness.budget} is not the dimension gap")
    if not witness.count > witness.budget or len(set(witness.hits)) != witness.count:
        faults.append(f"{witness.count} hit(s) do not exceed budget {witness.budget}")
    flag = coordinate_flag(closed)
    for i, j in witness.hits:
        curve = [row[:] for row in flag]
        curve[i - 1] = [a + b for a, b in zip(flag[i - 1], flag[j - 1])]
        image = apply_reflection(closed, i, j)
        if oracles.clan_of_flag(curve, closed.p, closed.q) != image:
            faults.append(
                f"hit {(i, j)}: T-curve flag is not in the orbit of {format_clan(image)}"
            )
        if not oracles.bfs_below(image, target):
            faults.append(f"hit {(i, j)}: {format_clan(image)} not move-below")
        if not oracles.rank_dominates(image, target):
            faults.append(f"hit {(i, j)}: {format_clan(image)} not rank-below")
    return faults


def criterion_4_sweep(sizes):
    """Cross-check the four smoothness criteria on every clan of the sizes.

    Returns the clans on which avoidance, the structural test and the
    certificate disagree; the clans on which the reflection diagnosis
    dissents from them, with witnesses; and the clans that avoid the seven
    patterns but include 1,2,2,3,3,1, found by brute-force embedding.
    """
    three_way, dissents, eighth_only = [], [], []
    for n in sizes:
        for p in range(n + 1):
            poset = oracles.get_poset(p, n - p)
            for clan in poset.elements:
                avoids = includes_any(clan) is None
                structural_ok = structural_check(clan) is None
                try:
                    certificate_ok = verify_certificate(clan, build_certificate(clan))
                except DecompositionError:
                    certificate_ok = False
                if not avoids == structural_ok == certificate_ok:
                    three_way.append(
                        (format_clan(clan), avoids, structural_ok, certificate_ok)
                    )
                witness = springer_diagnosis(poset, clan)
                if (witness is None) != avoids:
                    dissents.append((clan, witness))
                if oracles.brute_embeddings(clan, EIGHTH) and not any(
                    oracles.brute_embeddings(clan, pattern)
                    for pattern in FORBIDDEN_PATTERNS
                ):
                    eighth_only.append(clan)
    return three_way, dissents, eighth_only


def check_criterion_4(sizes, scope, expected):
    """Run the sweep, print the criterion line, then assert the three-way
    agreement, the dissent set and the certification of every dissent."""
    three_way, dissents, eighth_only = criterion_4_sweep(sizes)
    dissents.sort(key=lambda item: format_clan(item[0]))
    found = [format_clan(clan) for clan, _ in dissents]
    eighth_only = sorted(format_clan(clan) for clan in eighth_only)
    faults, notes = {}, []
    for clan, witness in dissents:
        if witness is None:
            notes.append(f"{format_clan(clan)} (passes the diagnosis)")
            problems = ["includes a pattern yet passes the diagnosis"]
        else:
            count, budget = witness.count, witness.budget
            notes.append(
                f"{format_clan(clan)} ({format_clan(witness.closed)} scores "
                f"{count} {'>' if count > budget else '<='} budget {budget})"
            )
            problems = certification_faults(clan, witness)
        if problems:
            faults[format_clan(clan)] = problems
    report(
        4,
        not three_way and not faults and found == eighth_only == expected,
        f"{scope}: avoidance <=> structural <=> certificate with "
        f"{len(three_way)} mismatch(es); reflection diagnosis dissents on "
        f"{'; '.join(notes) or 'no clan'}; seven-pattern avoiders including "
        f"1,2,2,3,3,1 by brute force: {', '.join(eighth_only) or 'none'}; "
        f"{len(faults)} uncertified dissent(s)",
    )
    assert three_way == []
    assert found == expected
    assert eighth_only == expected
    assert faults == {}


def test_criterion_4_triple_oracle_equivalence():
    check_criterion_4(range(1, 7), "p+q <= 6", ["1,2,2,3,3,1"])


@pytest.mark.slow
def test_criterion_4_extended_to_n7():
    check_criterion_4(
        [7],
        "p+q = 7",
        ["+,1,2,2,3,3,1", "-,1,2,2,3,3,1", "1,2,2,3,3,1,+", "1,2,2,3,3,1,-"],
    )


def test_criterion_5_singular_census_2_2():
    singular = [
        format_clan(c)
        for c in enumerate_clans(2, 2)
        if includes_any(c) is not None
    ]
    assert singular == ["1,+,-,1", "1,-,+,1", "1,2,1,2"]
    poset = oracles.get_poset(2, 2)
    witness = springer_count(
        poset, parse_clan("+,+,-,-", 2, 2), parse_clan("1,+,-,1", 2, 2)
    )
    assert witness.count == 4 and witness.budget == 3
    report(5, True, "3 of 21 orbits singular at (2,2); witness +,+,-,- scores 4 > 3")


def test_criterion_6_poset_sanity():
    for n in range(1, 8):
        for p in range(n + 1):
            poset = oracles.get_poset(p, n - p)
            for i in range(len(poset)):
                for j in poset.succ[i]:
                    assert poset.dims[j] > poset.dims[i]
            assert poset.maximum() == open_clan(p, n - p)
            assert poset.minimal_elements() == [
                c for c in poset.elements if is_closed(c)
            ]
            sigs = [prefix_signature(c) for c in poset.elements]
            for i in range(len(poset)):
                low = sigs[i]
                for j_clan in poset.upper_set(poset.elements[i]):
                    high = sigs[poset.index_of(j_clan)]
                    assert all(x >= y for x, y in zip(low.plus, high.plus))
                    assert all(x >= y for x, y in zip(low.minus, high.minus))
    report(6, True, "acyclic grading, extremes, prefix monotonicity, p+q <= 7")


def run_cli(*argv):
    result = subprocess.run(
        [sys.executable, "-m", "clans", *argv], capture_output=True, text=True
    )
    return result.returncode, result.stdout


def test_criterion_7_determinism_across_jobs():
    commands = [
        ("enumerate", "--p", "3", "--q", "2", "--format", "tsv"),
        ("enumerate", "--p", "2", "--q", "2", "--format", "json"),
        ("poset", "--p", "2", "--q", "2", "--format", "dot"),
        ("poset", "--p", "2", "--q", "1", "--format", "tsv"),
        ("verify", "--max-n", "5"),
        ("verify", "--max-n", "6"),  # the first with a FAIL line: the criteria stop early
    ]
    for base in commands:
        outputs = set()
        codes = set()
        for jobs in ("1", "2"):
            code, out = run_cli(*base, "--jobs", jobs)
            outputs.add(out)
            codes.add(code)
        assert len(outputs) == 1, f"{base} output depends on --jobs"
        assert len(codes) == 1
    report(7, True, "byte-identical cmd output for --jobs 1 vs 2")
