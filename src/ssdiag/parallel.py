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

Each pool worker runs one BLAS thread.  A worker forked from a process whose
OpenBLAS keeps its default thread count would otherwise start one BLAS
thread per core, so that 2 workers on 2 cores run 4 threads: on such a
machine a 2-worker ``diagnose`` at 10,000 regions took 2.8 times as long,
and a 2-worker ``flag-curve`` of 500 draws 3.9 times.  The pool's
initializer finds the OpenBLAS that numpy bundles (``numpy.libs``) through
``ctypes``, sets its thread count to 1, whatever OPENBLAS_NUM_THREADS says,
and stops its thread pool; where no such library or symbol is found, it
does nothing.  A serial run keeps the process's BLAS threads.  Results do
not change.
"""

from __future__ import annotations

import ctypes
import functools
import os
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from .errors import ValidationError, check_integer


def resolve_workers(workers: int | None = None) -> int:
    """Explicit worker count, else the SSDIAG_WORKERS env var, else 1; at least 1."""
    if workers is None:
        env = os.environ.get("SSDIAG_WORKERS") or "1"
        try:
            workers = int(env)
        except ValueError:
            message = f"SSDIAG_WORKERS: could not parse {env!r} as an integer"
            raise ValidationError(message) from None
    return check_workers(workers)


def check_workers(workers: int) -> int:
    """Refuse a worker count that is a bool, not an integer or below 1, before any work."""
    check_integer("workers", workers)
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


# the symbol prefixes of numpy's bundled OpenBLAS and of a plain OpenBLAS build, and
# the suffix of the former
_BLAS_SYMBOLS = (("scipy_openblas", "64_"), ("openblas", ""))


@functools.cache
def blas_threads():
    """The thread-count setter and getter of the OpenBLAS numpy bundles, and its pool stop.

    None where numpy bundles no OpenBLAS; the pool stop, OpenBLAS's own fork
    handler, is None where the library does not export it.  Opening the
    library numpy has loaded returns numpy's own handle.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("lib*openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix, suffix in _BLAS_SYMBOLS:
            set_threads = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if set_threads is not None and get_threads is not None:
                set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
                get_threads.argtypes, get_threads.restype = (), ctypes.c_int
                stop_pool = getattr(lib, "blas_thread_shutdown_", None)
                if stop_pool is not None:
                    stop_pool.argtypes, stop_pool.restype = (), ctypes.c_int
                return set_threads, get_threads, stop_pool
    return None


def one_blas_thread() -> None:
    """Pool initializer: this process runs one BLAS thread (module docstring)."""
    found = blas_threads()
    if found is not None:
        set_threads, _, stop_pool = found
        set_threads(1)
        # in a forked worker the setter restarts the pool of BLAS threads that the fork
        # left behind, and its idle threads spin for about 0.1 s before they sleep: a
        # 2-worker mc-table took 4-15% longer.  One thread needs no pool, so stop it
        if stop_pool is not None:
            stop_pool()


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
    check_workers(workers)
    keep_freed_memory()
    if workers <= 1 or len(bounds) <= 1:
        return [fn(b) for b in bounds]
    ctx = get_context("fork")
    _TASK_FN = fn
    try:
        with ctx.Pool(processes=min(workers, len(bounds)), initializer=one_blas_thread) as pool:
            # one chunk per task: a free worker takes the next chunk
            return pool.map(_run_task, bounds, chunksize=1)
    finally:
        _TASK_FN = None
