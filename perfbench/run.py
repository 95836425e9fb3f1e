"""Benchmark of the clans pipeline.

    python3 perfbench/run.py --workload verify8 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                  # every workload, one after another
    python3 perfbench/run.py --write-config   # regenerate BENCHMARK.json

Run from the root of a source checkout; ``clans`` is imported from its
``src`` directory.  Every timed run is a fresh interpreter at ``--jobs 1``
(``springer`` keeps a process-wide cache, so repeats inside one process would
time a warm cache users never get).  Runs repeat until ``--seconds`` is spent
and medians are reported.  Every run's exit code and output digest are
checked against the reference pinned in ``perfbench/reference``; a mismatch,
a crash or an exception is a failed operation.

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
plain and traced runs alternate, and the per-layer metrics come from the
traced ones.  Lines before the last are a readable report; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from math import ceil

import spec
from worker import GAUGE_PRESAMPLES, GAUGE_REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
#: Every run of one workload ends well inside the 180 s a run may take.
HARD_LIMIT_S = 165.0
#: Another run starts only if it is expected to end within this multiple of
#: the run's seconds, so that long runs do not overshoot them by a whole run.
OVERRUN = 1.5
#: Set-up-only runs top the set-ups timed up to this many, while they take
#: less than a quarter of the run's seconds.
MIN_SETUPS = 10


def machine_info(root: str) -> dict:
    """Python version, core count, CPU model and the checkout's commit."""
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": checkout_commit(root),
    }


def checkout_commit(root: str) -> str | None:
    """The commit of ``root`` read from its ``.git``, without leaving it."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def load_reference(name: str) -> dict:
    with open(os.path.join(HERE, "reference", f"{name}.json")) as f:
        return json.load(f)


def spawn(request: dict, timeout: float) -> dict:
    """Run one worker; its record gains ``setup_s`` from spawn to timed phase."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, json.dumps(request)],
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"worker exceeded {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    if "t_start" in record:
        record["setup_s"] = record["t_start"] - spawned
    return record


def judge(record: dict, reference: dict) -> tuple[int, int]:
    """(operations attempted, operations failed) for one timed run.

    The run is one operation; each diagnosis target is one more.  A run
    fails on an exception, a crash, or an exit code or output digest other
    than the reference's; a target fails when its line's digest differs.
    """
    items = reference.get("items", [])
    attempted = 1 + len(items)
    if "error" in record:
        return attempted, attempted
    run_failed = record["exit"] != reference["exit"] or record["sha256"] != reference["sha256"]
    got = record.get("items", [])
    item_failed = sum(1 for a, b in zip(got, items) if a != b) + abs(len(items) - len(got))
    return attempted, int(run_failed) + min(item_failed, len(items))


def speed_factor(gauge: list[float]) -> float:
    """Multiplier taking times measured beside these gauge samples to the
    reference speed."""
    return GAUGE_REFERENCE_S / statistics.fmean(gauge)


def setup_time(record: dict) -> float:
    """Set-up time at reference speed, by the samples taken during and
    right after it."""
    measured = record["setup_s"] - record["setup_paused_s"]
    return measured * speed_factor(record["gauge"][: record["setup_samples"]])


def wall_time(record: dict) -> float:
    """Timed-phase wall time at reference speed, by the samples from the
    end of set-up on."""
    return record["wall_s"] * speed_factor(record["gauge"][record["setup_samples"] - GAUGE_PRESAMPLES :])


def query_latencies(record: dict) -> list[float]:
    """Query latencies at reference speed, each by the gauge samples nearest it.

    The speed can change within a second, so a percentile needs each sample
    scaled by the speed when it was taken, not by the run's average.
    """
    gauge = record["gauge"]
    near = [speed_factor(gauge[max(0, n - 2) : n + 2]) for n in range(len(gauge) + 1)]
    return [seconds * near[n] for seconds, n in record["latencies"]]


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, ceil(q * len(sorted_values)) - 1)]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_workload(
    workload: spec.Workload,
    seed: int,
    seconds: float,
    trace: bool,
    src: str,
    reference: dict,
) -> dict:
    """Run one workload for ``seconds`` and return its report."""
    started = time.monotonic()

    def left() -> float:
        return HARD_LIMIT_S - (time.monotonic() - started)

    def request(name: str, mode: str) -> dict:
        return {"workload": name, "seed": seed, "mode": mode, "src": src}

    # Untimed warm-up on a tiny workload: writes bytecode caches, loads files.
    spawn(request("census22", "plain"), left())

    attempted = failed = 0
    errors: list[str] = []
    plain: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    loop_start = time.monotonic()
    modes = ["plain", "traced"] if trace else ["plain"]
    while True:
        mode = modes[(len(plain) + len(traced)) % len(modes)]
        record = spawn(request(workload.name, mode), left())
        a, f = judge(record, reference)
        attempted += a
        failed += f
        if "error" in record:
            errors.append(record["error"])
            break
        (traced if mode == "traced" else plain).append(record)
        if mode == "plain":
            setups.append(setup_time(record))
        spent = time.monotonic() - loop_start
        per_run = spent / (len(plain) + len(traced))
        if len(plain) + len(traced) >= len(modes) and (
            spent >= seconds or spent + per_run > OVERRUN * seconds
        ):
            break
        if left() < 2 * per_run:
            break
    probes_start = time.monotonic()
    while (
        not trace
        and not errors
        and len(setups) < MIN_SETUPS
        and time.monotonic() - probes_start < seconds / 4
        and left() > 10
    ):
        record = spawn(request(workload.name, "setup"), left())
        if "error" in record:
            attempted += 1
            failed += 1
            errors.append(record["error"])
            break
        setups.append(setup_time(record))

    report = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "runs": len(plain),
        "traced_runs": len(traced),
        "setups": len(setups),
    }
    if not plain or (trace and not traced):
        return report
    raw = [r["wall_s"] for r in plain]
    walls = [wall_time(r) for r in plain]
    report["raw_wall_quartiles"] = quartiles(raw)
    report["wall_quartiles"] = quartiles(walls)
    if trace:
        report["metrics"] = layer_metrics(workload, plain, traced)
        return report
    latencies = sorted(x for r in plain for x in query_latencies(r))
    report["query_samples"] = len(latencies)
    report["metrics"] = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "query_ms_p50": percentile(latencies, 0.50) * 1e3,
        "query_ms_p99": percentile(latencies, 0.99) * 1e3,
    }
    return report


def layer_metrics(workload: spec.Workload, plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer medians over the traced runs, plus the tracing overhead.

    Self times are scaled to the reference speed like ``wall_s``, by the
    gauge samples of their whole run.
    """
    out = {}
    for name, unit, _ in spec.PER_LAYER:
        values = [r["layers"].get(name, 0) for r in traced]
        if unit == "s":
            values = [v * speed_factor(r["gauge"]) for v, r in zip(values, traced)]
        out[name] = statistics.median_low(values)
    out["cli.output_bytes"] = traced[0]["bytes"] if workload.argv is not None else 0
    out["trace.overhead_s"] = statistics.median(wall_time(r) for r in traced) - statistics.median(
        wall_time(r) for r in plain
    )
    return out


def print_report(report: dict) -> None:
    units = {n: u for n, u, *_ in spec.END_TO_END + spec.PER_LAYER}
    head = f"# {report['workload']} seed={report['seed']} trace={report['trace']}"
    print(f"{head}: {report['runs']} plain runs, {report['traced_runs']} traced, {report['setups']} set-ups")
    for error in report["errors"]:
        print("#   error: " + error.replace("\n", "\n#   "))
    for key, label in (("wall_quartiles", "wall_s"), ("raw_wall_quartiles", "measured wall")):
        if key in report:
            q1, med, q3 = report[key]
            print(f"#   {label} median {med:.4f} s, quartiles {q1:.4f}..{q3:.4f}, n={report['runs']}")
    if "query_samples" in report:
        print(f"#   query_ms percentiles over {report['query_samples']} samples")
    for name, value in report.get("metrics", {}).items():
        print(f"#   {name} = {value:.6g} {units[name]}")
    rate = report["failed"] / report["attempted"] if report["attempted"] else 1.0
    print(f"#   error_rate = {report['failed']}/{report['attempted']} = {rate:.6g}")


def result_line(reports: list[dict], prefix: bool) -> dict:
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    units = {n: u for n, u, *_ in spec.END_TO_END + spec.PER_LAYER}
    metrics = {
        (f"{r['workload']}.{name}" if prefix else name): {"value": value, "unit": units[name]}
        for r in reports
        for name, value in r["metrics"].items()
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS), help="default: every benchmarked workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="PATH", help="also write the full report as JSON")
    parser.add_argument("--write-config", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    if args.write_config:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(spec.benchmark_config(), f, indent=2)
            f.write("\n")
        return 0

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "clans", "__init__.py")):
        print(f"error: no clans package under {src}; run from a source checkout", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else [n for n, w in spec.WORKLOADS.items() if not w.tiny]
    info = machine_info(ROOT)
    print("# machine: " + json.dumps(info))
    reports = []
    for name in names:
        report = run_workload(
            spec.WORKLOADS[name], args.seed, args.seconds, bool(args.trace), src, load_reference(name)
        )
        print_report(report)
        if "metrics" not in report:
            print(f"error: {name} produced no measurement", file=sys.stderr)
            return 1
        reports.append(report)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"machine": info, "reports": reports}, f, indent=2)
            f.write("\n")
    print(json.dumps(result_line(reports, prefix=len(reports) > 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
