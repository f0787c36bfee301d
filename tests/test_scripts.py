"""Smoke tests of scripts/ and the README quick-start, each run as a subprocess.

The toy data are also pinned byte for byte against files in tests/golden/.
A change that alters them on purpose regenerates them and says so in
CHANGES.md:

    PYTHONPATH=src python tests/test_scripts.py
"""

import csv
import errno
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from test_acceptance import REFERENCE_TABLE

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
GOLDEN = ROOT / "tests" / "golden"

TOY = {"toy-shares.csv": "shares.csv", "toy-outcomes.csv": "outcomes.csv"}


def _run(args, cwd, stderr=False, code=0):
    """The stdout of a run of ``args`` that exits with ``code``, and its stderr if asked."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == code, proc.stderr
    return (proc.stdout, proc.stderr) if stderr else proc.stdout


def _csv_rows(text):
    return list(csv.DictReader(io.StringIO(text), skipinitialspace=True))


@pytest.fixture(scope="module")
def toy_data(tmp_path_factory):
    cwd = tmp_path_factory.mktemp("toy")
    _run([str(SCRIPTS / "make_toy_data.py"), "--out-dir", "example_data"], cwd)
    return cwd, cwd / "example_data"


def test_make_toy_data_writes_both_files(toy_data):
    _, data = toy_data
    shares = _csv_rows((data / "shares.csv").read_text())
    outcomes = _csv_rows((data / "outcomes.csv").read_text())
    assert len(shares) == len(outcomes) == 40
    assert list(outcomes[0]) == ["region_id", "y", "y_placebo", "cluster", "x_realized"]


@pytest.mark.parametrize("name", sorted(TOY))
def test_make_toy_data_matches_golden(toy_data, name):
    _, data = toy_data
    assert (data / TOY[name]).read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize(
    "args, message",
    [(["--states", "3"], "balanced assignment requires an even group count"),
     (["--seed", "-1"], "seed must be at least 0 (got -1)"),
     (["--beta", "nan"], "beta must be finite (got nan)"),
     # an --out-dir that is an existing file
     (["--out-dir", "taken"],
      f"cannot write taken: [Errno {errno.EEXIST}] {os.strerror(errno.EEXIST)}: 'taken'")],
)
def test_make_toy_data_bad_setting_exits_2(tmp_path, args, message):
    # the script maps a ValidationError to exit code 2 before it writes anything, as ssdiag does
    (tmp_path / "taken").write_text("kept\n")
    out, err = _run(
        [str(SCRIPTS / "make_toy_data.py"), "--out-dir", "data", *args], tmp_path, True, 2
    )
    assert (out, err) == ("", f"error: {message}\n")
    assert not (tmp_path / "data").exists()
    assert (tmp_path / "taken").read_text() == "kept\n"


def test_readme_diagnose(toy_data):
    cwd, data = toy_data
    out = _run(
        [
            "-m", "ssdiag.cli", "diagnose", "--shares", str(data / "shares.csv"),
            "--outcomes", str(data / "outcomes.csv"), "--seed", "7", "--perms", "100",
        ],
        cwd,
    )
    report = json.loads(out)
    assert set(report["modes"]) == {"y-fixed", "eps-fixed", "placebo"}
    assert report["modes"]["y-fixed"]["replications"] == 100


def test_readme_oracle(toy_data):
    cwd, data = toy_data
    out = _run(
        ["-m", "ssdiag.cli", "oracle", "--outcomes", str(data / "outcomes.csv"), "--group-size", "5"],
        cwd,
    )
    report = json.loads(out)
    assert report["config"] == {"group_size": 5, "n_groups": 8, "n_units": 40}
    assert report["enumeration"]["n_assignments"] == 70


def test_readme_convergence(tmp_path):
    out = _run(
        ["-m", "ssdiag.cli", "convergence", "--grid", "10", "--reps", "3", "--seed", "1"],
        tmp_path,
    )
    (row,) = _csv_rows(out)
    assert row["n_groups"] == "10" and float(row["mean_ratio"]) > 0


def test_run_full_table(tmp_path):
    # the report bytes are mc-table's; stderr scores the 20-state cells, the ones the
    # reference table holds, and the test recomputes that score from the report
    args = [
        "--seed", "1", "--reps", "3", "--perms", "10", "--states", "4,20", "--per-state", "2",
        "--workers", "1",
    ]
    record = tmp_path / "record.json"
    script = [str(SCRIPTS / "run_full_table.py"), "--record", str(record), *args]
    out, err = _run(script, tmp_path, stderr=True)
    assert out == _run(["-m", "ssdiag.cli", "mc-table", *args], tmp_path)
    comment, body = out.split("\n", 1)
    assert comment.startswith("# ") and "reps=3" in comment and "perms=10" in comment
    rows = _csv_rows(body)
    assert [(r["panel"], r["n_states"]) for r in rows] == [
        (panel, n) for panel in "ABCDE" for n in ("4", "20")
    ]
    assert all(0.0 <= float(r["size"]) <= 1.0 for r in rows)
    columns = ("size", "pr_gamma_y", "pr_gamma_eps")
    z = {
        f"{r['panel']}/20 {column}": (float(r[column]) - ref) / math.sqrt(ref * (1 - ref) / 3)
        for r in rows
        if r["n_states"] == "20"
        for column, ref in zip(columns, REFERENCE_TABLE[(r["panel"], 20)])
    }
    worst = max(z, key=lambda name: abs(z[name]))
    chi2 = sum(v * v for v in z.values())
    assert err == (
        f"chi2(15) = {chi2:.1f} against the reference table; "
        f"largest |z| = {abs(z[worst]):.2f} ({worst})\n"
    )
    # --record appends one entry per run, and leaves the report and stderr as they are
    assert _run(script, tmp_path, stderr=True) == (out, err)
    entries = json.loads(record.read_text(encoding="utf-8"))
    assert len(entries) == 2 and entries[0] == entries[1]
    entry = entries[0]
    assert list(entry) == [
        "seed", "reps", "perms", "workers", "numpy", "sha256", "df", "chi2",
        "chi2_with_rounding", "cells",
    ]
    assert (entry["seed"], entry["reps"], entry["perms"], entry["workers"]) == (1, 3, 10, 1)
    assert entry["numpy"] == np.__version__
    assert entry["sha256"] == hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert [cell["cell"] for cell in entry["cells"]] == list(z) and entry["df"] == 15
    for cell in entry["cells"]:
        assert list(cell) == ["cell", "value", "reference", "se", "z"]
        panel, column = cell["cell"].split("/20 ")
        ref = REFERENCE_TABLE[(panel, 20)][columns.index(column)]
        assert cell["reference"] == ref and cell["se"] == math.sqrt(ref * (1 - ref) / 3)
        assert cell["z"] == z[cell["cell"]] == (cell["value"] - ref) / cell["se"]
    assert entry["chi2"] == pytest.approx(chi2, rel=1e-12)
    assert entry["chi2_with_rounding"] == pytest.approx(sum(
        (c["value"] - c["reference"]) ** 2 / (c["se"] ** 2 + 0.001**2 / 12) for c in entry["cells"]
    ), rel=1e-12)
    assert entry["chi2_with_rounding"] < entry["chi2"]
    # --help leaves by SystemExit from inside mc-table; its text still reaches stdout
    out, err = _run([str(SCRIPTS / "run_full_table.py"), "--help"], tmp_path, stderr=True)
    assert out == _run(["-m", "ssdiag.cli", "mc-table", "--help"], tmp_path) and not err


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        _run([str(SCRIPTS / "make_toy_data.py"), "--out-dir", tmp], ROOT)
        for name, source in TOY.items():
            shutil.copyfile(Path(tmp) / source, GOLDEN / name)
            print(f"wrote {GOLDEN / name}")
