"""Spans around the calls into each ssdiag layer, recorded from outside the program.

``install`` replaces names in the ssdiag modules where the program looks them
up (for example ``ssdiag.engines.substream``) with wrappers that record spans;
nothing under ``src/`` is edited.  Spans are plain dicts kept in memory and
written out by the caller when the command ends.

Pool workers are forked from a process whose modules are already wrapped, so
they record spans too.  ``map_chunks`` hands the pool a task wrapper that runs
the program's chunk function and returns the spans the worker recorded along
with the chunk's result; the wrapper then passes the program its results
unchanged.

Calls too frequent to keep a span each (``substream``, ``derive_seed``) are
leaves: their count and time are added to the innermost open span.
"""

from __future__ import annotations

import functools
import os
import time
from multiprocessing.reduction import ForkingPickler

# CLOCK_MONOTONIC on Linux: one timeline for a process and its forked workers
_clock = time.perf_counter

# The tracer of this process; forked workers inherit it.  Module state because
# the pool task wrapper is pickled by reference and must find it in the worker.
_ACTIVE: Tracer | None = None


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []  # closed spans
        self.stack: list[dict] = []  # open spans, innermost last
        self._count = 0

    def open(self, name: str, **attrs) -> dict:
        self._count += 1
        span = {
            "id": f"{os.getpid()}:{self._count}",
            "parent": self.stack[-1]["id"] if self.stack else None,
            "name": name,
            "pid": os.getpid(),
            "attrs": attrs,
            "leaf": {},
            "t0": _clock(),
        }
        self.stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["t1"] = _clock()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")
        self.spans.append(span)

    def add_leaf(self, name: str, seconds: float) -> None:
        leaf = self.stack[-1]["leaf"]
        calls, total = leaf.get(name, (0, 0.0))
        leaf[name] = (calls + 1, total + seconds)


def _spanned(tracer, name, fn, before=None, after=None):
    """Wrap fn in a span; before(args) and after(result) give span attributes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        attrs = before(*args) if before else {}
        span = tracer.open(name, **attrs)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if after:
            span["attrs"].update(after(result))
        return result

    return wrapper


def _leaf(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.add_leaf(name, _clock() - t0)

    return wrapper


def _run_task(fn, bounds):
    """Pool task: the program's chunk function plus the spans it recorded."""
    tracer = _ACTIVE
    mark = len(tracer.spans)
    span = tracer.open("parallel.task", rows=bounds[1] - bounds[0])
    try:
        result = fn(bounds)
    finally:
        tracer.close(span)
    spans = tracer.spans[mark:]
    del tracer.spans[mark:]
    return result, spans


def _task_payload_bytes(fn, bounds, processes: int) -> int:
    """Pickled bytes of the tasks Pool.map sends, batched by its default chunksize.

    Each task carries the function and one batch of bounds; the function is
    pickled once here and counted once per task.
    """
    chunksize, extra = divmod(len(bounds), processes * 4)
    chunksize += bool(extra)
    fn_bytes = len(ForkingPickler.dumps(fn))
    return sum(
        fn_bytes + len(ForkingPickler.dumps(tuple(bounds[i : i + chunksize])))
        for i in range(0, len(bounds), chunksize)
    )


def _traced_map_chunks(tracer, real):
    @functools.wraps(real)
    def map_chunks(fn, bounds, workers):
        span = tracer.open("parallel.map_chunks", chunks=len(bounds))
        try:
            parts = real(functools.partial(_run_task, fn), bounds, workers)
        finally:
            tracer.close(span)
        results = []
        for result, spans in parts:
            results.append(result)
            tracer.spans.extend(spans)
        processes = span["attrs"].get("processes")
        if processes:
            span["attrs"]["payload_bytes"] = _task_payload_bytes(fn, bounds, processes)
        return results

    return map_chunks


class _PoolCountingContext:
    """A multiprocessing context whose Pool() records its size on the open span."""

    def __init__(self, tracer, ctx):
        self._tracer = tracer
        self._ctx = ctx

    def Pool(self, processes=None, *args, **kwargs):
        self._tracer.stack[-1]["attrs"]["processes"] = processes
        return self._ctx.Pool(processes, *args, **kwargs)


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of ssdiag, as looked up by their callers."""
    global _ACTIVE
    import ssdiag.cli as cli
    import ssdiag.dgp as dgp
    import ssdiag.engines as engines
    import ssdiag.parallel as parallel

    _ACTIVE = tracer

    def wrap(module, attr, make):
        setattr(module, attr, make(getattr(module, attr)))

    def spanned(name, before=None, after=None):
        return lambda fn: _spanned(tracer, name, fn, before, after)

    def leaf(name):
        return lambda fn: _leaf(tracer, name, fn)

    for module in (engines, dgp):
        wrap(module, "substream", leaf("rng.substream"))
        wrap(module, "map_chunks", lambda real: _traced_map_chunks(tracer, real))
    for module in (dgp, cli):
        wrap(module, "derive_seed", leaf("rng.derive_seed"))

    def regressor_rows(*args):  # (..., seed, lo, hi)
        return {"rows": args[-1] - args[-2]}

    def outer_rows(*args):  # (..., (lo, hi))
        lo, hi = args[-1]
        return {"rows": hi - lo}

    wrap(engines, "_shares_regressors", spanned("engines.regressors", regressor_rows))
    wrap(engines, "_partition_regressors", spanned("engines.regressors", regressor_rows))
    wrap(
        engines,
        "_kernel_counts",
        spanned(
            "engines.kernel",
            lambda kernel, X: {
                "rows": X.shape[0],
                "tests": X.shape[0] * len(kernel.estimators),
                "bytes_in": X.nbytes,
            },
        ),
    )
    wrap(engines, "_make_kernel", spanned("engines.make_kernel"))
    wrap(
        engines,
        "_run_sim",
        spanned("engines.sim", after=lambda r: {"skipped": r.skipped_degenerate}),
    )

    wrap(dgp, "_grouped_chunk", spanned("dgp.chunk", outer_rows))
    wrap(dgp, "_flagging_chunk", spanned("dgp.chunk", outer_rows))
    wrap(dgp, "draw_grouped", spanned("dgp.draw_grouped"))
    for name in ("ols_simple", "t_test", "var_robust", "var_cluster"):
        wrap(dgp, name, spanned("estimators.realized_test"))
    wrap(cli, "ols_simple", spanned("estimators.realized_test"))

    wrap(
        cli,
        "ingest",
        spanned(
            "cli.ingest",
            lambda shares, outcomes: {
                "bytes": os.path.getsize(shares) + os.path.getsize(outcomes)
            },
        ),
    )
    wrap(cli, "validate_dataset", spanned("data.validate"))
    wrap(cli, "_emit_json", spanned("cli.emit"))
    wrap(cli, "_emit_csv", spanned("cli.emit"))

    real_get_context = parallel.get_context

    def get_context(method=None):
        return _PoolCountingContext(tracer, real_get_context(method))

    parallel.get_context = get_context


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one command

# name, unit, better
LAYER_METRICS = (
    ("rng.substream.calls", "count", "lower"),
    ("rng.substream.s", "s", "lower"),
    ("rng.derive_seed.calls", "count", "lower"),
    ("engines.regressors.rows", "count", "higher"),
    ("engines.regressors.s", "s", "lower"),
    ("engines.kernel.rows", "count", "higher"),
    ("engines.kernel.tests", "count", "higher"),
    ("engines.kernel.s", "s", "lower"),
    ("engines.kernel.bytes_in", "B", "lower"),
    ("engines.make_kernel.calls", "count", "lower"),
    ("engines.make_kernel.s", "s", "lower"),
    ("engines.sims", "count", "higher"),
    ("engines.skipped_degenerate", "count", "lower"),
    ("estimators.realized_test.calls", "count", "lower"),
    ("estimators.realized_test.s", "s", "lower"),
    ("dgp.outer_draws", "count", "higher"),
    ("dgp.draw_grouped.s", "s", "lower"),
    ("dgp.chunk.self_s", "s", "lower"),
    ("parallel.map_chunks.s", "s", "lower"),
    ("parallel.pools", "count", "lower"),
    ("parallel.chunks", "count", "lower"),
    ("parallel.worker_busy_s", "s", "lower"),
    ("parallel.idle_s", "s", "lower"),
    ("parallel.payload_bytes", "B", "lower"),
    ("cli.ingest.s", "s", "lower"),
    ("cli.ingest.bytes", "B", "lower"),
    ("data.validate.s", "s", "lower"),
    ("cli.emit.s", "s", "lower"),
)


def _covered(t0: float, t1: float, intervals) -> float:
    """Length of [t0, t1] covered by the union of the intervals."""
    total, reach = 0.0, t0
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, t1)
        if b > a:
            total += b - a
            reach = b
    return total


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals of one command; self time excludes child spans and leaves."""
    children: dict[str, list[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def duration(s):
        return s["t1"] - s["t0"]

    def self_time(s):
        kids = [(c["t0"], c["t1"]) for c in children.get(s["id"], ())]
        leaves = sum(total for _, total in s["leaf"].values())
        return duration(s) - _covered(s["t0"], s["t1"], kids) - leaves

    m = {name: 0 for name, _, _ in LAYER_METRICS}
    for s in spans:
        name, attrs = s["name"], s["attrs"]
        for leaf_name, (calls, total) in s["leaf"].items():
            m[f"{leaf_name}.calls"] += calls
            if leaf_name == "rng.substream":
                m["rng.substream.s"] += total
        if name == "engines.regressors":
            m["engines.regressors.rows"] += attrs["rows"]
            m["engines.regressors.s"] += self_time(s)
        elif name == "engines.kernel":
            m["engines.kernel.rows"] += attrs["rows"]
            m["engines.kernel.tests"] += attrs["tests"]
            m["engines.kernel.bytes_in"] += attrs["bytes_in"]
            m["engines.kernel.s"] += duration(s)
        elif name == "engines.make_kernel":
            m["engines.make_kernel.calls"] += 1
            m["engines.make_kernel.s"] += duration(s)
        elif name == "engines.sim":
            m["engines.sims"] += 1
            m["engines.skipped_degenerate"] += attrs["skipped"]
        elif name == "estimators.realized_test":
            m["estimators.realized_test.calls"] += 1
            m["estimators.realized_test.s"] += duration(s)
        elif name == "dgp.chunk":
            m["dgp.outer_draws"] += attrs["rows"]
            m["dgp.chunk.self_s"] += self_time(s)
        elif name == "dgp.draw_grouped":
            m["dgp.draw_grouped.s"] += duration(s)
        elif name == "parallel.map_chunks":
            m["parallel.map_chunks.s"] += self_time(s)
            m["parallel.chunks"] += attrs["chunks"]
            processes = attrs.get("processes")
            if processes:
                busy = sum(duration(c) for c in children.get(s["id"], ()))
                m["parallel.pools"] += 1
                m["parallel.worker_busy_s"] += busy
                m["parallel.idle_s"] += processes * duration(s) - busy
                m["parallel.payload_bytes"] += attrs["payload_bytes"]
        elif name == "cli.ingest":
            m["cli.ingest.s"] += duration(s)
            m["cli.ingest.bytes"] += attrs["bytes"]
        elif name == "data.validate":
            m["data.validate.s"] += duration(s)
        elif name == "cli.emit":
            m["cli.emit.s"] += duration(s)
    return m
