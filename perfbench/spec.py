"""What the benchmark runs and reports: workloads, metrics and traced layers.

This module is the single source of ``BENCHMARK.json``: ``run.py
--write-config`` renders it from the tables below, and a test checks that the
checked-in file matches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Workload:
    """One benchmark input.

    A CLI workload times ``clans.cli.main(argv)`` in a fresh interpreter; a
    diagnosis workload builds the poset of ``signature`` during set-up and
    times ``springer_diagnosis`` on every element, in an order drawn from the
    seed.  ``query`` names the function whose per-call latency is reported as
    ``query_ms_*``.  Layers in ``count_only`` are counted but not timed in a
    traced run, because timing them would swamp the trace.  Tiny workloads
    exist for the benchmark's own tests and are not in ``BENCHMARK.json``.
    """

    name: str
    why: str
    query: str
    argv: Optional[tuple[str, ...]] = None
    signature: Optional[tuple[int, int]] = None
    count_only: tuple[str, ...] = ()
    tiny: bool = False


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "verify8",
            "clans verify --max-n 8: the headline run; the only one that exercises "
            "verify and every layer together (44 signatures, 9748 clans)",
            query="springer.springer_diagnosis",
            argv=("verify", "--max-n", "8", "--jobs", "1"),
            count_only=("poset.leq",),
        ),
        Workload(
            "poset54",
            "clans poset --p 5 --q 4 --format tsv: the poset build path (writes) at "
            "the largest signature the bitmasks allow; never calls patterns or springer",
            query="poset.successors",
            argv=("poset", "--p", "5", "--q", "4", "--format", "tsv", "--jobs", "1"),
        ),
        Workload(
            "census55",
            "clans enumerate --p 5 --q 5: 45297 clans classified at p+q=10 with no "
            "poset built; bypasses poset and springer, shows enumeration memory",
            query="patterns.is_rationally_smooth",
            argv=("enumerate", "--p", "5", "--q", "5", "--jobs", "1"),
        ),
        Workload(
            "diagnose54",
            "build_poset(5,4) in set-up, then springer_diagnosis on all 9891 targets "
            "in seeded order: the order-query path (reads) beside poset54's writes",
            query="springer.springer_diagnosis",
            signature=(5, 4),
        ),
        Workload(
            "verify4",
            "tiny verify for the benchmark's tests",
            query="springer.springer_diagnosis",
            argv=("verify", "--max-n", "4", "--jobs", "1"),
            count_only=("poset.leq",),
            tiny=True,
        ),
        Workload(
            "poset22",
            "tiny poset build for the benchmark's tests",
            query="poset.successors",
            argv=("poset", "--p", "2", "--q", "2", "--format", "tsv", "--jobs", "1"),
            tiny=True,
        ),
        Workload(
            "census22",
            "tiny census for the benchmark's tests",
            query="patterns.is_rationally_smooth",
            argv=("enumerate", "--p", "2", "--q", "2", "--jobs", "1"),
            tiny=True,
        ),
        Workload(
            "diagnose22",
            "tiny diagnosis sweep for the benchmark's tests",
            query="springer.springer_diagnosis",
            signature=(2, 2),
            tiny=True,
        ),
    )
}

#: (name, unit, better, bound) of the metrics a run reports with tracing off.
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("wall_s", "s", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("query_ms_p50", "ms", "lower", 0.2),
    ("query_ms_p99", "ms", "lower", 0.25),
)


@dataclass(frozen=True)
class Layer:
    """A traced function: where it lives and how its calls are recorded.

    ``target`` is ``module.function`` or ``module.Class.method`` inside the
    ``clans`` package.  A timed layer records calls and self time, a counted
    layer only calls.  Several targets may share one layer name.
    """

    name: str
    target: str
    timed: bool = True


LAYERS: tuple[Layer, ...] = (
    Layer("core.canonicalize", "core.canonicalize"),
    Layer("core.dimension", "core.dimension"),
    Layer("core.enumerate_clans", "core.enumerate_clans"),
    Layer("poset.moves", "poset.moves", timed=False),
    Layer("poset.successors", "poset.successors"),
    Layer("poset.build_poset", "poset.build_poset"),
    Layer("poset.closure", "poset.OrbitPoset.__init__"),
    Layer("poset.export_tsv", "poset.export_tsv"),
    Layer("poset.leq", "poset.OrbitPoset.leq"),
    Layer("poset.closed_below", "poset.OrbitPoset.closed_below"),
    Layer("springer.springer_diagnosis", "springer.springer_diagnosis"),
    Layer("springer.springer_count", "springer.springer_count"),
    Layer("patterns.is_rationally_smooth", "patterns.is_rationally_smooth"),
    Layer("patterns.find_embedding", "patterns.find_embedding", timed=False),
    Layer("patterns.structural_check", "patterns.structural_check"),
    Layer("patterns.certificate", "patterns.build_certificate"),
    Layer("patterns.certificate", "patterns.verify_certificate"),
    Layer("verify.run_checks", "verify.run_checks"),
    Layer("verify.criteria_bits", "verify.criteria_bits"),
    Layer("cli.main", "cli.main"),
    Layer("parallel.ordered_map", "_parallel.ordered_map"),
)

#: (name, unit, better) of the metrics a traced run reports.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("core.canonicalize.calls", "count", "lower"),
    ("core.canonicalize.self_s", "s", "lower"),
    ("core.dimension.calls", "count", "lower"),
    ("core.dimension.self_s", "s", "lower"),
    ("poset.successors.calls", "count", "lower"),
    ("poset.successors.self_s", "s", "lower"),
    ("poset.move_edges", "count", "lower"),
    ("poset.successor_yield", "ratio", "higher"),
    ("poset.build_poset.self_s", "s", "lower"),
    ("poset.closure.self_s", "s", "lower"),
    ("poset.cover_edges", "count", "lower"),
    ("poset.export_tsv.self_s", "s", "lower"),
    ("poset.leq.calls", "count", "lower"),
    ("poset.leq.self_s", "s", "lower"),
    ("poset.closed_below.calls", "count", "lower"),
    ("poset.closed_below.self_s", "s", "lower"),
    ("springer.springer_diagnosis.calls", "count", "lower"),
    ("springer.springer_diagnosis.self_s", "s", "lower"),
    ("springer.springer_count.calls", "count", "lower"),
    ("springer.springer_count.self_s", "s", "lower"),
    ("springer.reflection_tests", "count", "lower"),
    ("springer.repeat_ratio", "ratio", "lower"),
    ("patterns.is_rationally_smooth.calls", "count", "lower"),
    ("patterns.is_rationally_smooth.self_s", "s", "lower"),
    ("patterns.find_embedding.calls", "count", "lower"),
    ("patterns.structural_check.self_s", "s", "lower"),
    ("patterns.certificate.self_s", "s", "lower"),
    ("verify.run_checks.self_s", "s", "lower"),
    ("verify.criteria_bits.calls", "count", "lower"),
    ("verify.criteria_bits.self_s", "s", "lower"),
    ("verify.checks", "count", "higher"),
    ("core.enumerate_clans.calls", "count", "lower"),
    ("core.enumerate_clans.self_s", "s", "lower"),
    ("core.clans_enumerated", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("parallel.ordered_map.calls", "count", "lower"),
    ("parallel.ordered_map.items", "count", "lower"),
    ("parallel.ordered_map.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

RUN_SECONDS = 20


def benchmark_config() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in WORKLOADS.values() if not w.tiny
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
