"""Chunked multiprocess execution with scheduling-independent results.

Work is split into fixed-size chunks whose boundaries never depend on the
worker count; per-chunk results are combined in chunk order, so any degree
of parallelism reproduces the serial output bit for bit.

The first ``map_chunks`` call of a process sets glibc's allocator to keep
freed memory on its heap: blocks under 32 MiB come from the heap, which is
trimmed only above 64 MiB free.  A chunk allocates and frees numpy
temporaries of 200 KB to 800 KB (the regressor block, the kernel's centred
and squared terms, matmul outputs).  Under glibc's default thresholds each is
a fresh ``mmap`` whose pages fault in one by one: 218 minor faults per
256-row chunk of a 100-group permutation simulation, about 500,000 for a
serial ``mc-table --reps 128 --perms 500``.  With the heap kept that chunk
takes none.  32 MiB is the ceiling of glibc's own dynamic threshold, so
larger blocks, such as a 20 MB regressor block at 10,000 regions, come from
the heap as before.  Results do not change, forked workers inherit the
setting, and without ``mallopt`` in the C library it does nothing.
"""

from __future__ import annotations

import ctypes
import functools
import os
from multiprocessing import get_context

from .errors import ValidationError


def resolve_workers(workers: int | None = None) -> int:
    """Explicit worker count, else the SSDIAG_WORKERS env var, else 1; at least 1."""
    if workers is None:
        env = os.environ.get("SSDIAG_WORKERS")
        if not env:
            return 1
        try:
            workers = int(env)
        except ValueError:
            raise ValidationError(
                f"SSDIAG_WORKERS: could not parse {env!r} as an integer"
            ) from None
    if workers < 1:
        raise ValidationError(f"workers must be at least 1 (got {workers})")
    return workers


# mallopt parameters of glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def keep_freed_memory() -> tuple[int, ...]:
    """Once per process: keep freed memory on the heap (module docstring).

    Returns mallopt's results, 1 on success, or () without mallopt.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if os.name == "posix" else None
    if mallopt is None:
        return ()
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, 32 << 20), mallopt(_M_TRIM_THRESHOLD, 64 << 20))


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
    keep_freed_memory()
    if workers <= 1 or len(bounds) <= 1:
        return [fn(b) for b in bounds]
    ctx = get_context("fork")
    _TASK_FN = fn
    try:
        with ctx.Pool(processes=min(workers, len(bounds))) as pool:
            # one chunk per task: a free worker takes the next chunk
            return pool.map(_run_task, bounds, chunksize=1)
    finally:
        _TASK_FN = None
