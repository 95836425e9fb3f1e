"""One run of a benchmark workload in a fresh interpreter.

    python3 perfbench/worker.py '<request JSON>'

The request gives the workload name, the seed, the ``src`` directory to
import ``clans`` from and the mode: ``setup`` stops after set-up, ``plain``
times the workload with only the query-latency probe and the speed gauge
installed, ``traced`` wraps every layer.  The last line of stdout is one JSON
record; the parent (``run.py``) judges it against the pinned reference.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import signal
import sys
import time
import traceback
from time import perf_counter
from typing import Callable

#: The gauge interrupts the worker this often (seconds) ...
GAUGE_PERIOD_S = 0.05
#: ... and between set-up and the timed phase takes this many samples.
GAUGE_PRESAMPLES = 5
#: ``calibration_loop`` time at which reported times equal measured ones:
#: its fast, quiet-host duration on the 2-core Xeon VM the benchmark was set
#: up on (Python 3.11).
GAUGE_REFERENCE_S = 0.0013


def calibration_loop() -> None:
    """Fixed pure-Python work of the engine's kind: tuple keys, dict updates,
    small sorts and string joins."""
    table: dict = {}
    for i in range(1000):
        key = (i % 97, i % 13, "+" if i & 1 else "-")
        table[key] = table.get(key, 0) + 1
        ",".join(str(x) for x in sorted((i % 7, i % 5, i % 3)))


class SpeedGauge:
    """Samples how long ``calibration_loop`` takes while a worker runs.

    On a shared host the speed of the CPU can halve within seconds and drift
    for minutes; the samples let the parent express each run's times at the
    reference speed (``GAUGE_REFERENCE_S`` per loop).  A timer signal takes a
    sample every ``GAUGE_PERIOD_S``; ``paused`` is the total time spent
    sampling, which every timed interval leaves out, and ``on_pause`` is told
    each sample's duration.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.paused = 0.0
        self.on_pause: Callable[[float], None] | None = None
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        start = perf_counter()
        calibration_loop()
        self.samples.append(perf_counter() - start)
        if self.on_pause is not None:
            self.on_pause(perf_counter() - start)
        self.paused += perf_counter() - start
        self._busy = False

    def presample(self) -> None:
        """Samples between set-up and the timed phase, so that even a short
        set-up or run is scaled by some."""
        for _ in range(GAUGE_PRESAMPLES):
            self.sample()

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_PERIOD_S, GAUGE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(clans, workload, gauge: SpeedGauge) -> dict:
    """Time ``clans.cli.main`` with stdout captured; the run is one operation."""
    sink = io.StringIO()
    away = gauge.paused
    start = perf_counter()
    with contextlib.redirect_stdout(sink):
        try:
            code = clans.cli.main(list(workload.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    wall = perf_counter() - start - (gauge.paused - away)
    text = sink.getvalue()
    return {"wall_s": wall, "exit": code, "sha256": digest(text), "bytes": len(text.encode())}


def diagnosis_lines(clans, poset, results: list) -> list[str]:
    """One line per element in enumeration order: the witness, or ``pass``."""
    return [
        f"{clans.format_clan(c)}\t"
        + (json.dumps(clans.witness_json(w), sort_keys=True) if w is not None else "pass")
        for c, w in zip(poset.elements, results)
    ]


def run_diagnosis(clans, poset, order: list[int], gauge: SpeedGauge) -> dict:
    """Diagnose every element in the seeded order; each target is one operation."""
    results: list = [None] * len(order)
    latencies: list[tuple[float, int]] = []
    raised: list[int] = []
    elements = poset.elements
    paused_before = gauge.paused
    start = perf_counter()
    for i in order:
        away = gauge.paused
        t0 = perf_counter()
        try:
            results[i] = clans.springer_diagnosis(poset, elements[i])
        except Exception:
            raised.append(i)
        latencies.append((perf_counter() - t0 - (gauge.paused - away), len(gauge.samples)))
    wall = perf_counter() - start - (gauge.paused - paused_before)
    lines = diagnosis_lines(clans, poset, results)
    for i in raised:
        lines[i] = f"{clans.format_clan(elements[i])}\traised"
    failing = "".join(line + "\n" for line in lines if not line.endswith("\tpass"))
    return {
        "wall_s": wall,
        "exit": 0,
        "sha256": digest(failing),
        "bytes": len(failing.encode()),
        "items": [digest(line)[:8] for line in lines],
        "latencies": latencies,
    }


def main(request: dict) -> dict:
    """Set up, time the workload and describe the run; the gauge runs from
    the first import to the end of the timed phase."""
    gauge = SpeedGauge()
    with gauge.running():
        record = measure(request, gauge)
    record["gauge"] = gauge.samples
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return record


def measure(request: dict, gauge: SpeedGauge) -> dict:
    """Import ``clans`` from the request's ``src``, set up, and run the mode."""
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, request["src"])
    import spec

    workload = spec.WORKLOADS[request["workload"]]
    mode = request["mode"]

    import clans

    if workload.argv is not None:
        import clans.cli
    src = os.path.realpath(request["src"])
    if not os.path.realpath(clans.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported clans from {clans.__file__}, not from {src}")

    tracer = None
    samples: list[tuple[float, int]] = []
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(spec.LAYERS, workload.count_only)
        gauge.on_pause = tracer.exclude
    elif workload.argv is not None:
        from tracer import latency_probe

        samples = latency_probe(workload.query, gauge)

    poset = order = None
    if workload.signature is not None:
        poset = clans.build_poset(*workload.signature)
        order = list(range(len(poset)))
        random.Random(request["seed"]).shuffle(order)

    record: dict = {"t_start": time.monotonic(), "setup_paused_s": gauge.paused}
    gauge.presample()
    record["setup_samples"] = len(gauge.samples)
    if mode == "setup":
        return record
    if poset is not None:
        record.update(run_diagnosis(clans, poset, order, gauge))
    else:
        record.update(run_cli(clans, workload, gauge))
        record["latencies"] = samples
    if tracer is not None:
        record["layers"] = tracer.metrics()
    return record


if __name__ == "__main__":
    try:
        result = main(json.loads(sys.argv[1]))
    except Exception:
        result = {"error": traceback.format_exc(limit=3)}
    print(json.dumps(result))
