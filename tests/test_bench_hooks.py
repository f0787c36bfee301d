"""The names the benchmark hooks into still exist and still mean what it reads.

bench/child.py ends set-up at the first call of a ``ssdiag.cli`` engine
function, and bench/tracer.py wraps layer functions where the program looks
them up and reads their arguments and results.  A rename under ``src/``
breaks the benchmark, not the program, so this test runs bench/child.py on
small versions of the three workload commands with tracing on.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
GOLDEN = ROOT / "tests" / "golden"

# (entry function of ssdiag.cli, argv); each reaches the process pool at 2 workers
COMMANDS = {
    "grouped-table": (
        "run_grouped_experiment",
        ["mc-table", "--seed", "3", "--reps", "65", "--perms", "20",
         "--states", "4", "--per-state", "2", "--workers", "2"],
    ),
    "flag-curve": (
        "run_flagging_curve",
        ["flag-curve", "--seed", "3", "--reps", "4", "--perms", "20",
         "--gammas", "0,1", "--clusters", "4", "--sectors", "3", "--workers", "1"],
    ),
    "diagnose": (
        "run_y_fixed",
        ["diagnose", "--shares", str(GOLDEN / "shares.csv"), "--outcomes",
         str(GOLDEN / "outcomes.csv"), "--seed", "3", "--perms", "300", "--workers", "2"],
    ),
}


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", sorted(COMMANDS))
def test_traced_child_runs(workload, tmp_path):
    entry, argv = COMMANDS[workload]
    spec = {
        "argv": argv + ["--out", str(tmp_path / "report")],
        "entry": entry,
        "probe": False,
        "trace": True,
        "result": str(tmp_path / "result.json"),
        "spans": str(tmp_path / "spans.json"),
    }
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "SSDIAG_WORKERS")}
    env.update(PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["exit_code"] == 0
    assert result["setup_s"] is not None
    metrics = _tracer().layer_metrics(json.loads((tmp_path / "spans.json").read_text()))
    assert metrics["engines.kernel.rows"] > 0
    assert metrics["engines.kernel.tests"] >= metrics["engines.kernel.rows"]
    assert metrics["engines.sims"] > 0
