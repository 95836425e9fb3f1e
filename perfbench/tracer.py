"""Out-of-program layer tracing for the ``clans`` package.

Functions are wrapped from outside: every module attribute in the package
that holds the original function is rebound to the wrapper, so a caller that
looks the name up at call time (``build_poset`` finding ``successors``) and a
module that imported its own binding (``verify``'s ``springer_count``) both
reach it.  Self time is a call's duration minus the durations of the timed
calls made beneath it, kept on a stack.
"""

from __future__ import annotations

import sys
from collections import Counter
from functools import partial
from time import perf_counter
from typing import Any, Callable, Iterable

from spec import Layer

#: Called with (args, result) after the wrapped call returns.
AfterHook = Callable[[tuple, Any], None]


def resolve(target: str) -> tuple[Any, str, Callable]:
    """Owner object, attribute name and function for ``module.[Class.]name``."""
    module_name, *owner_path, attr = target.split(".")
    owner: Any = sys.modules[f"clans.{module_name}"]
    for name in owner_path:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


def rebind(target: str, make_wrapper: Callable[[Callable], Callable]) -> None:
    """Replace the function named by ``target`` wherever the package binds it."""
    owner, attr, original = resolve(target)
    wrapper = make_wrapper(original)
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return
    for name, module in list(sys.modules.items()):
        if name != "clans" and not name.startswith("clans."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def latency_probe(target: str, gauge) -> list[tuple[float, int]]:
    """Time every call of one function; returns the list the samples go to.

    Each sample is (seconds, gauge samples taken so far).  Time the speed
    gauge spent calibrating during a call is taken out of it.
    """
    samples: list[tuple[float, int]] = []

    def make(fn: Callable) -> Callable:
        def probe(*args, **kwargs):
            away = gauge.paused
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start - (gauge.paused - away)
                samples.append((elapsed, len(gauge.samples)))

        return probe

    rebind(target, make)
    return samples


class Tracer:
    """Call counts, self times and derived counters of the traced layers."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[float] = []
        self._seen_pairs: set[tuple] = set()

    def install(self, layers: Iterable[Layer], count_only: Iterable[str] = ()) -> None:
        """Wrap every layer whose module the process has imported."""
        untimed = set(count_only)
        hooks = self._hooks()
        for layer in layers:
            if "clans." + layer.target.split(".")[0] not in sys.modules:
                continue
            timed = layer.timed and layer.name not in untimed
            wrap = partial(self._wrap, layer.name, timed=timed, after=hooks.get(layer.name))
            rebind(layer.target, wrap)

    def exclude(self, seconds: float) -> None:
        """Leave time spent outside the program out of the running layer's
        self time."""
        if self._stack:
            self._stack[-1] += seconds

    def _wrap(self, name: str, fn: Callable, *, timed: bool, after: AfterHook | None) -> Callable:
        calls = self.calls
        if not timed:

            def counted(*args, **kwargs):
                calls[name] += 1
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result

            return counted

        stack = self._stack
        self_s = self.self_s

        def timed_call(*args, **kwargs):
            calls[name] += 1
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[name] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(args, result)
            return result

        return timed_call

    def _hooks(self) -> dict[str, AfterHook]:
        from clans.core import MINUS, PLUS

        counts = self.counts
        seen = self._seen_pairs

        def springer_count(args: tuple, result: Any) -> None:
            closed, target = args[1], args[2]
            entries = closed.entries
            counts["springer.reflection_tests"] += entries.count(PLUS) * entries.count(MINUS)
            key = (entries, target.entries)
            if key in seen:
                counts["springer.repeat_calls"] += 1
            else:
                seen.add(key)

        def closure(args: tuple, result: Any) -> None:
            counts["poset.cover_edges"] += sum(len(c) for c in args[0].cover_indices)

        def run_checks(args: tuple, result: Any) -> None:
            counts["verify.checks"] += len(result[0])

        def add_len(counter: str) -> AfterHook:
            def hook(args: tuple, result: Any) -> None:
                counts[counter] += len(result)

            return hook

        return {
            "poset.moves": add_len("poset.move_edges"),
            "poset.successors": add_len("poset.successor_results"),
            "poset.closure": closure,
            "springer.springer_count": springer_count,
            "core.enumerate_clans": add_len("core.clans_enumerated"),
            "verify.run_checks": run_checks,
            "parallel.ordered_map": add_len("parallel.ordered_map.items"),
        }

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers of this process; layers never called are absent."""
        out: dict[str, float] = dict(self.counts)
        for name, calls in self.calls.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self.self_s[name]
        moves = self.counts["poset.move_edges"]
        if moves:
            out["poset.successor_yield"] = self.counts["poset.successor_results"] / moves
        counted = self.calls["springer.springer_count"]
        if counted:
            out["springer.repeat_ratio"] = self.counts["springer.repeat_calls"] / counted
        return out
