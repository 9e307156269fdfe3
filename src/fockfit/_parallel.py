"""Process pool for coverage: a coverage study starts one pool for all its
cells.  After one batched fit of every point histogram, each task runs the
replicate engine over consecutive whole experiments (point studies fit
every row in one serial batch instead).

Work items are mapped in input order with per-item seeds, so results are
identical for any worker count (including 1, which runs inline).  The pool
module is imported only when a pool is started.
"""

from __future__ import annotations

import os

__all__ = ["worker_count", "parallel_map"]

_ENV_VAR = "FOCKFIT_THREADS"


def worker_count() -> int:
    """Parallelism bound: FOCKFIT_THREADS if set, else all available CPUs."""
    raw = os.environ.get(_ENV_VAR)
    if raw is not None:
        try:
            n = int(raw)
        except ValueError as exc:
            raise ValueError(f"{_ENV_VAR} must be an integer, got {raw!r}") from exc
        if n < 1:
            raise ValueError(f"{_ENV_VAR} must be >= 1, got {n}")
        return n
    return os.cpu_count() or 1


def parallel_map(fn, items: list) -> list:
    """Apply ``fn`` to every item, preserving input order in the output."""
    workers = min(worker_count(), len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
