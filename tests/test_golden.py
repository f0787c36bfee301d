"""Golden outputs: every CLI command at a fixed seed and a small budget, byte for byte.

A refactor that must keep report bytes identical is checked against these
files.  A change that alters them on purpose (for example the random-stream
layout) regenerates the goldens it means to change, by name, and says so in
CHANGES.md; with no names every golden is regenerated:

    PYTHONPATH=src python tests/test_golden.py mc-table.csv flag-curve.csv
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from ssdiag.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = {
    "diagnose.json": [
        "diagnose", "--shares", "{golden}/shares.csv", "--outcomes", "{golden}/outcomes.csv",
        "--seed", "7", "--perms", "300",
    ],
    "mc-table.csv": [
        "mc-table", "--seed", "7", "--reps", "16", "--perms", "300",
        "--states", "4,6", "--per-state", "2",
    ],
    "flag-curve.csv": [
        "flag-curve", "--seed", "7", "--reps", "12", "--perms", "300",
        "--gammas", "0,0.6", "--clusters", "5", "--sectors", "4",
    ],
    "analytic.json": [
        "analytic", "--beta", "0.5", "--sigma2", "1", "--rho", "0.2", "--group-size", "3",
    ],
    "oracle.json": ["oracle", "--outcomes", "{golden}/oracle.csv", "--group-size", "2"],
    "convergence-y-fixed.csv": [
        "convergence", "--seed", "7", "--grid", "4,8,20", "--reps", "50", "--rho", "0.3",
    ],
    "convergence-eps-fixed.csv": [
        "convergence", "--seed", "7", "--mode", "eps-fixed", "--rho", "-0.2", "--grid", "4,8",
        "--reps", "30",
    ],
}


def _run(name: str, out: Path) -> bytes:
    argv = [arg.format(golden=GOLDEN) for arg in COMMANDS[name]] + ["--out", str(out)]
    assert main(argv) == 0, f"{name}: command failed"
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_bytes_match_golden(name, tmp_path):
    assert _run(name, tmp_path / name) == (GOLDEN / name).read_bytes()


def _write_inputs() -> None:
    rng = np.random.default_rng(20)
    n_regions, n_sectors = 24, 4
    shares = ["region_id," + ",".join(f"s_{j}" for j in range(1, n_sectors + 1))]
    outcomes = ["region_id,y,y_placebo,cluster,x_realized"]
    # outcomes share a sector-level component, so the simulations reject often
    w = rng.exponential(1.0, (n_regions, n_sectors))
    x = w @ rng.standard_normal(n_sectors)
    y = 0.5 * x + 2.0 * w @ rng.standard_normal(n_sectors) + rng.standard_normal(n_regions)
    y_placebo = 2.0 * w @ rng.standard_normal(n_sectors) + rng.standard_normal(n_regions)
    for i in range(n_regions):
        shares.append(f"u{i}," + ",".join(repr(float(v)) for v in w[i]))
        outcomes.append(f"u{i},{float(y[i])!r},{float(y_placebo[i])!r},{i % 6},{float(x[i])!r}")
    (GOLDEN / "shares.csv").write_text("\n".join(shares) + "\n")
    (GOLDEN / "outcomes.csv").write_text("\n".join(outcomes) + "\n")
    oracle_y = rng.standard_normal(12)
    (GOLDEN / "oracle.csv").write_text(
        "region_id,y\n" + "".join(f"r{i},{float(v)!r}\n" for i, v in enumerate(oracle_y))
    )


if __name__ == "__main__":
    names = [arg for arg in sys.argv[1:] if arg != "--inputs"]
    unknown = sorted(set(names) - set(COMMANDS))
    if unknown:
        sys.exit(f"unknown goldens {unknown}; choose from {sorted(COMMANDS)}")
    GOLDEN.mkdir(exist_ok=True)
    if "--inputs" in sys.argv:
        _write_inputs()
    for name in names or COMMANDS:
        _run(name, GOLDEN / name)
        print(f"wrote {GOLDEN / name}")
