"""Chunked multiprocess execution with scheduling-independent results.

Work is split into fixed-size chunks whose boundaries never depend on the
worker count; per-chunk results are combined in chunk order, so any degree
of parallelism reproduces the serial output bit for bit.
"""

from __future__ import annotations

import os
from multiprocessing import get_context

from .errors import ValidationError


def resolve_workers(workers: int | None = None) -> int:
    """Explicit worker count, else the SSDIAG_WORKERS env var, else 1."""
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("SSDIAG_WORKERS")
    if not env:
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ValidationError(
            f"SSDIAG_WORKERS: could not parse {env!r} as an integer"
        ) from None


def chunk_bounds(n: int, size: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


# The chunk function of the pool being started.  Forked workers inherit it, so
# a task carries only its bounds, not fn and the arrays fn closes over.
_TASK_FN = None


def _run_task(bounds):
    return _TASK_FN(bounds)


def map_chunks(fn, bounds, workers: int):
    """Apply fn to each (lo, hi) chunk, returning results in chunk order."""
    global _TASK_FN
    if workers <= 1 or len(bounds) <= 1:
        return [fn(b) for b in bounds]
    ctx = get_context("fork")
    _TASK_FN = fn
    try:
        with ctx.Pool(processes=min(workers, len(bounds))) as pool:
            return pool.map(_run_task, bounds)
    finally:
        _TASK_FN = None
