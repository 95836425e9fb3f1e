"""Order-preserving worker map; output bytes never depend on the worker count."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def ordered_map(fn: Callable[[T], R], items: Iterable[T], jobs: int = 1) -> list[R]:
    """Map over `jobs` workers (0 = all cores), results in input order."""
    if jobs < 0:
        raise ValueError("jobs must be >= 0")
    data = list(items)
    cores = os.cpu_count() or 1
    # The pool forks every worker on its first submit, so it is never asked
    # for more workers than there are cores or items.
    workers = min(jobs or cores, cores, len(data))
    if workers <= 1:
        return [fn(x) for x in data]
    chunk = max(1, len(data) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, data, chunksize=chunk))
