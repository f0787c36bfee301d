#!/usr/bin/env python3
"""Benchmark of the ssdiag CLI: run one workload, check its output, print metrics.

    python3 bench/run.py --workload grouped-table --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from ``src/``.
Each CLI command runs in a fresh process (bench/child.py) with BLAS pinned to
one thread.  A run first starts a few set-up probes, which stop at the first
engine call, then repeats the workload's command until ``--seconds`` have
passed.  Every command of a run, and of every earlier run at the same seed
on the same source, must give the same report bytes, and those bytes must
pass the workload's checks (bench/workloads.py).

With ``--trace 0`` the last line of stdout carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of traced commands (bench/tracer.py);
a traced run alternates untraced and traced commands, checks that their
reports are byte-identical, and reports the tracing overhead on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 4
RUN_LIMIT_S = 170.0  # a run must end within 180 s


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Runner:
    """Starts CLI commands of one workload in child processes and collects results."""

    def __init__(self, workload, seed: int, work_dir: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.deadline = deadline
        self.ctx = workload.prepare(seed, work_dir)
        self.count = 0
        tmp = work_dir / "tmp"
        tmp.mkdir()
        self.env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "SSDIAG_WORKERS")}
        self.env.update(
            PYTHONPATH=str(SRC),
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
            TMPDIR=str(tmp),
        )

    def command(self, probe: bool = False, trace: bool = False) -> dict | None:
        """Run one command; its measurements, report bytes and spans, or None if it failed."""
        self.count += 1
        i = self.count
        report = self.work_dir / f"report-{i}"
        spec = {
            "argv": self.workload.argv(self.seed, self.ctx, report),
            "entry": self.workload.entry,
            "probe": probe,
            "trace": trace,
            "result": str(self.work_dir / f"result-{i}.json"),
            "spans": str(self.work_dir / f"spans-{i}.json"),
        }
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            start_new_session=True,  # its own process group, pool workers included
        )
        try:
            output, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            _log(f"command {i} timed out")
            return None
        result_path = Path(spec["result"])
        if proc.returncode != 0 or not result_path.exists():
            _log(f"command {i} exited with {proc.returncode}: {output.decode(errors='replace')[-2000:]}")
            return None
        result = json.loads(result_path.read_text())
        if not Path(result["ssdiag_file"]).is_relative_to(SRC):
            _log(f"command {i} imported ssdiag from {result['ssdiag_file']}, not {SRC}")
            return None
        if probe:
            return result if result["setup_s"] is not None else None
        if result["exit_code"] != 0 or not report.exists():
            _log(f"command {i}: ssdiag exit code {result['exit_code']}")
            return None
        result["report"] = report.read_bytes()
        if trace:
            result["spans"] = json.loads(Path(spec["spans"]).read_text())
        return result


def _same_as_earlier_runs(workload, seed: int, report: bytes) -> bool:
    """Record the report digest for (workload, seed, source); compare with earlier runs."""
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    key = f"{workload.name} seed={seed} src={source.hexdigest()[:16]}"
    store = OUT / "report-digests.json"
    digests = json.loads(store.read_text()) if store.exists() else {}
    digest = digests.setdefault(key, hashlib.sha256(report).hexdigest())
    store.write_text(json.dumps(digests, indent=1, sort_keys=True))
    return digest == hashlib.sha256(report).hexdigest()


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    work_dir = OUT / f"{workload.name}-seed{seed}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    runner = Runner(workload, seed, work_dir, started + RUN_LIMIT_S)

    attempted = failed = 0
    problems: list[str] = []

    def attempt(**kwargs) -> dict | None:
        nonlocal attempted, failed
        attempted += 1
        result = runner.command(**kwargs)
        failed += result is None
        return result

    probes = [r for r in (attempt(probe=True) for _ in range(SETUP_PROBES)) if r]

    plain: list[dict] = []
    traced: list[dict] = []
    window_start = time.monotonic()
    rounds = 0
    while True:
        t0 = time.monotonic()
        # a traced round runs an untraced and a traced command, alternating which goes first
        kinds = ((False, True), (True, False))[rounds % 2] if trace else (False,)
        for traced_command in kinds:
            result = attempt(trace=traced_command)
            if result:
                (traced if traced_command else plain).append(result)
        rounds += 1
        now = time.monotonic()
        if now - window_start >= seconds or now + (now - t0) > runner.deadline:
            break

    reports = {r["report"] for r in plain + traced}
    if len(reports) > 1:
        problems.append(f"{len(reports)} different report byte strings at one seed")
    for report in reports:
        problems += workload.check(report, runner.ctx)
        if not _same_as_earlier_runs(workload, seed, report):
            problems.append("report bytes differ from an earlier run at this seed")

    if trace:
        layers = [tracer.layer_metrics(r["spans"]) for r in traced]
        metrics = {
            name: _metric(statistics.median(m[name] for m in layers), unit)
            for name, unit, _ in tracer.LAYER_METRICS
        } if layers else {}
        if plain and traced:
            base = statistics.median(r["wall_s"] for r in plain)
            with_trace = statistics.median(r["wall_s"] for r in traced)
            _log(
                f"tracing overhead: wall {with_trace:.3f} s traced vs {base:.3f} s untraced "
                f"({100 * (with_trace / base - 1):+.1f}%)"
            )
    else:
        inner = workload.inner_reps(runner.ctx)
        metrics = {
            "wall_s": _metric(statistics.median(r["wall_s"] for r in plain), "s"),
            "setup_s": _metric(statistics.median(r["setup_s"] for r in probes + plain), "s"),
            "inner_reps_per_s": _metric(statistics.median(inner / r["sim_s"] for r in plain), "1/s"),
            "peak_rss_mb": _metric(statistics.median(r["peak_rss_kb"] / 1024 for r in plain), "MB"),
        } if plain else {}
        _log(
            f"{workload.name} seed {seed}: {len(plain)} commands, {len(probes)} set-up probes, "
            f"{inner} inner replications per command"
        )

    for problem in problems:
        _log(f"check failed: {problem}")
    return {
        "correct": not problems and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ssdiag" / "cli.py").is_file():
        _log(f"no ssdiag source at {SRC}; run from the root of a source checkout")
        return 2
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
