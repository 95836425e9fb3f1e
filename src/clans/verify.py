"""Self-check engine: exhaustive verification over all signatures up to a cap.

Per signature: the clan count against the closed form, the dimension extremes,
move and prefix-count monotonicity, poset extremes, pinned order facts, and the
agreement of the four smoothness criteria (pattern avoidance, the structural
test, the certificate, reflection counting).  A cap above the poset size bound
is refused before any work; a signature's ``build_poset`` refusal is the FAIL
line of its check.  A disagreement between the criteria is a finding, never
patched over: ``criteria-equivalence`` names the first in token order and checks
that signature's criteria no further.
"""

from __future__ import annotations

__all__ = [
    "BudgetStatistic",
    "CheckResult",
    "report_lines",
    "run_checks",
]

from dataclasses import dataclass
from math import comb

from .core import (
    Clan,
    base_dimension,
    count_clans,
    format_clan,
    is_closed,
    open_clan,
    parse_clan,
    prefix_signature,
)
from .patterns import _decompose, includes_any, structural_check, verify_certificate
from .poset import POSET_MAX_N, NonIncreasingMoveError, PosetSizeError, build_poset
from .poset import _MissingElementError
from .springer import springer_diagnosis


@dataclass
class CheckResult:
    name: str
    p: int
    q: int
    passed: bool
    detail: str


@dataclass
class BudgetStatistic:
    """How often the reflection count reaches the budget (informational).

    Of the ``pairs`` (closed, target) pairs with closed below target,
    ``at_least`` reach it.  Each signature's poset counts its own pairs in
    one sweep over its diagnosis table; ``verify`` adds them up here.
    """

    pairs: int = 0
    at_least: int = 0


#: Pinned order facts: (lower, upper, expected leq) per signature.
ORDER_FACTS: dict[tuple[int, int], tuple[tuple[str, str, bool], ...]] = {
    (2, 2): (
        ("1,+,1,-", "1,2,1,2", True),
        ("1,+,1,-", "1,+,-,1", True),
    ),
    (3, 3): (
        ("1,2,1,3,2,3", "1,3,1,2,2,3", True),
        ("1,2,1,3,2,3", "1,3,1,3,2,2", False),
    ),
}


def criteria_bits(clan: Clan) -> tuple[bool, bool, bool]:
    """(avoids the seven patterns, passes structural check, certificate builds).

    >>> criteria_bits(parse_clan("1,+,-,1", 2, 2))
    (False, False, False)
    >>> criteria_bits(parse_clan("1,2,2,1", 2, 2))
    (True, True, True)
    """
    avoids = includes_any(clan) is None
    structural_ok = structural_check(clan) is None
    try:
        certificate_ok = structural_ok and verify_certificate(clan, _decompose(clan))
    except RuntimeError:  # the structural test passed a clan _decompose refuses
        certificate_ok = False
    return avoids, structural_ok, certificate_ok


def run_checks(max_n: int = 6) -> tuple[list[CheckResult], BudgetStatistic]:
    """Run every check for all signatures with 1 <= p + q <= max_n; raises
    ``PosetSizeError`` before any work when max_n exceeds ``POSET_MAX_N``."""
    if max_n > POSET_MAX_N:
        raise PosetSizeError(f"p+q={max_n} exceeds the size bound {POSET_MAX_N}")
    results: list[CheckResult] = []
    statistic = BudgetStatistic()
    for n in range(1, max_n + 1):
        for p in range(n + 1):
            results.extend(_signature_checks(p, n - p, statistic))
    return results, statistic


def _signature_checks(p: int, q: int, statistic: BudgetStatistic) -> list[CheckResult]:
    n = p + q
    try:
        poset = build_poset(p, q)
    except NonIncreasingMoveError as exc:
        return [CheckResult("move-monotonicity", p, q, False, str(exc))]
    except _MissingElementError as exc:
        return [CheckResult("count", p, q, False, str(exc))]
    out: list[CheckResult] = []
    elements, dims = poset.elements, poset.dims
    closed_flags = list(map(is_closed, elements))

    expected = count_clans(p, q)
    closed_count = sum(closed_flags)
    count_ok = (
        len(elements) == expected
        and len({c.entries for c in elements}) == expected
        and closed_count == comb(n, p)
    )
    out.append(
        CheckResult(
            "count", p, q, count_ok, f"{len(elements)} clans, {closed_count} closed"
        )
    )

    base = base_dimension(p, q)
    full = n * (n - 1) // 2
    top = open_clan(p, q)
    bad = ""
    for c, d, closed in zip(elements, dims, closed_flags):
        if not base <= d <= full:
            bad = f"{format_clan(c)} has dimension {d} outside [{base},{full}]"
        elif (d == base) != closed:
            bad = f"{format_clan(c)}: dimension {d} vs closedness mismatch"
        elif (d == full) != (c == top):
            bad = f"{format_clan(c)}: dimension {d} vs open clan mismatch"
        if bad:
            break
    out.append(
        CheckResult(
            "dimensions",
            p,
            q,
            not bad,
            bad or f"range [{base},{full}], extremes are the closed/open clans",
        )
    )

    # build_poset refuses a move edge that does not raise the dimension, so
    # the walk over the edges only counts them and checks prefix-count
    # monotonicity.  The order is the reflexive-transitive
    # closure of the move edges and componentwise domination is reflexive
    # and transitive, so checking every move edge checks every relation.
    packed, guard = _packed_prefix_counts(elements, n)
    edges = 0
    prefix_bad = ""
    for i, upper_indices in enumerate(poset.succ):
        edges += len(upper_indices)
        lower = packed[i] | guard
        for j in upper_indices:
            # counts are at most n < 128, so no byte borrows; a guard bit goes
            # exactly where a count of the lower clan is below the upper one's
            if not prefix_bad and (lower - packed[j]) & guard != guard:
                prefix_bad = (
                    f"move {format_clan(elements[i])} -> "
                    f"{format_clan(elements[j])} violates prefix-count monotonicity"
                )
    out.append(
        CheckResult(
            "move-monotonicity", p, q, True, f"{edges} move edges all raise dimension"
        )
    )

    try:
        maximum = poset.maximum()
    except RuntimeError as exc:  # no single top
        extremes_ok, extremes = False, str(exc)
    else:
        extremes_ok = maximum == top and poset.minimal_elements() == [
            c for c, closed in zip(elements, closed_flags) if closed
        ]
        extremes = f"maximum {format_clan(top)}, {closed_count} minimal elements"
    out.append(CheckResult("poset-extremes", p, q, extremes_ok, extremes))

    out.append(
        CheckResult(
            "prefix-monotonicity",
            p,
            q,
            not prefix_bad,
            prefix_bad or "all relations dominate prefix counts",
        )
    )

    if (p, q) in ORDER_FACTS:
        facts_ok = True
        checked = []
        for low_text, high_text, expected_leq in ORDER_FACTS[(p, q)]:
            got = poset.leq(parse_clan(low_text, p, q), parse_clan(high_text, p, q))
            facts_ok = facts_ok and got == expected_leq
            rel = "<=" if got else "!<="
            checked.append(f"{low_text} {rel} {high_text}")
        out.append(
            CheckResult("order-facts", p, q, facts_ok, "; ".join(checked))
        )

    # Blocks of 1, 2, 4, ... clans: criteria between diagnosis calls slow each diagnosis.
    mismatch, smooth, start = "", 0, 0
    while start < len(elements) and not mismatch:
        block = elements[start : 2 * start + 1]
        bits = list(map(criteria_bits, block))
        for c, (avoids, structural_ok, certificate_ok) in zip(block, bits):
            springer_ok = springer_diagnosis(poset, c) is None
            if not avoids == structural_ok == certificate_ok == springer_ok:
                mismatch = (
                    f"{format_clan(c)}: avoidance={avoids} structural={structural_ok} "
                    f"certificate={certificate_ok} springer={springer_ok}"
                )
                break
            smooth += avoids
        start = 2 * start + 1
    out.append(
        CheckResult(
            "criteria-equivalence",
            p,
            q,
            not mismatch,
            mismatch or f"{smooth} smooth / {len(elements) - smooth} singular, criteria agree",
        )
    )

    pairs, at_least = poset._budget_counts()
    statistic.pairs += pairs
    statistic.at_least += at_least

    return out


def _packed_prefix_counts(elements, n: int) -> tuple[list[int], int]:
    """Each clan's 2n prefix counts, one byte each, and the guard: 0x80 in every byte."""
    signatures = map(prefix_signature, elements)
    packed = [int.from_bytes(bytes(s.plus + s.minus), "little") for s in signatures]
    return packed, int.from_bytes(b"\x80" * (2 * n), "little")


def report_lines(results: list[CheckResult], statistic: BudgetStatistic) -> list[str]:
    """Human- and diff-friendly report, one line per check plus a summary."""
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.name} p={r.p} q={r.q}: {r.detail}"
        for r in results
    ]
    passed = sum(1 for r in results if r.passed)
    lines.append(
        f"count>=budget held for {statistic.at_least}/{statistic.pairs} "
        "(closed, target) pairs"
    )
    lines.append(f"{passed}/{len(results)} checks passed")
    return lines
