"""The benchmark's workloads: CLI arguments, inputs and output checks.

Each check is computed apart from the program, or rests on a property the
method must have; none compares against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np
from scipy import stats

import gendata

# Acceptance criterion 5's reference table (tests/test_acceptance.py): size,
# Pr(flag | y-fixed), Pr(flag | eps-fixed) per (panel, states), for 500
# permutations per inner simulation.
REFERENCE_TABLE = {
    ("A", 20): (0.051, 0.632, 0.091),
    ("A", 100): (0.049, 0.715, 0.008),
    ("B", 20): (0.140, 0.927, 0.688),
    ("B", 100): (0.138, 0.998, 0.902),
    ("C", 20): (0.140, 0.743, 0.689),
    ("C", 100): (0.138, 0.913, 0.902),
    ("D", 20): (0.051, 0.114, 0.091),
    ("D", 100): (0.049, 0.009, 0.008),
    ("E", 20): (0.129, 0.672, 0.615),
    ("E", 100): (0.130, 0.840, 0.826),
}


# Two-sided tail mass of a binomial acceptance band.  Each run checks up to 30
# proportions and the benchmark runs on dozens of seeds, so a 1% or a 4-sigma
# band would refuse correct output every few dozen runs.
BAND_TAIL = 1e-6


def _binomial_se(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / n)


def _binomial_band(p: float, n: int) -> tuple[float, float]:
    """Central range of Binomial(n, p) counts holding all but BAND_TAIL of the mass."""
    return stats.binom.ppf(BAND_TAIL / 2, n, p), stats.binom.isf(BAND_TAIL / 2, n, p)


def _read_report_csv(report: bytes) -> list[dict[str, str]]:
    lines = report.decode("utf-8").splitlines()
    if not lines or not lines[0].startswith("# "):
        raise ValueError("report does not start with its # comment line")
    return list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


class GroupedTable:
    """mc-table: 5 panels x {20, 100} states x 10 units, 500 permutations, 2 workers."""

    name = "grouped-table"
    entry = "run_grouped_experiment"
    reps = 128  # two outer chunks of 64 per cell, one for each worker
    perms = 500

    def prepare(self, seed: int, work_dir: Path) -> dict:
        return {}

    def argv(self, seed: int, ctx: dict, out: Path) -> list[str]:
        return [
            "mc-table", "--seed", str(seed), "--reps", str(self.reps),
            "--perms", str(self.perms), "--workers", "2", "--out", str(out),
        ]

    def inner_reps(self, ctx: dict) -> int:
        # per outer draw: a y-fixed and an eps-fixed permutation simulation
        return len(REFERENCE_TABLE) * self.reps * 2 * self.perms

    def check(self, report: bytes, ctx: dict) -> list[str]:
        rows = _read_report_csv(report)
        got = {(r["panel"], int(r["n_states"])): r for r in rows}
        if sorted(got) != sorted(REFERENCE_TABLE) or len(rows) != len(REFERENCE_TABLE):
            return [f"cells {sorted(got)} do not match the reference table"]
        problems = []
        columns = ("size", "pr_gamma_y", "pr_gamma_eps")
        for cell, reference in REFERENCE_TABLE.items():
            for column, ref in zip(columns, reference):
                value = float(got[cell][column])
                lo, hi = _binomial_band(ref, self.reps)
                if abs(value - ref) > 0.03 and not lo <= value * self.reps <= hi:
                    problems.append(
                        f"{cell} {column}: {value:.3f} vs reference {ref:.3f}, "
                        f"outside 0.03 and the count band [{lo:.0f}, {hi:.0f}]"
                    )
        return problems


class FlagCurve:
    """flag-curve on the synthetic crossed 25x20 design, 200 permutations, 1 worker."""

    name = "flag-curve"
    entry = "run_flagging_curve"
    reps = 64
    perms = 200
    gammas = (0.0, 0.25, 0.5, 1.0)
    alpha = 0.05

    def prepare(self, seed: int, work_dir: Path) -> dict:
        return {}

    def argv(self, seed: int, ctx: dict, out: Path) -> list[str]:
        return [
            "flag-curve", "--seed", str(seed), "--reps", str(self.reps),
            "--perms", str(self.perms), "--gammas", ",".join(map(str, self.gammas)),
            "--workers", "1", "--out", str(out),
        ]

    def inner_reps(self, ctx: dict) -> int:
        return self.reps * len(self.gammas) * 2 * self.perms

    def check(self, report: bytes, ctx: dict) -> list[str]:
        rows = _read_report_csv(report)
        if [float(r["gamma"]) for r in rows] != list(self.gammas):
            return [f"gamma column {[r['gamma'] for r in rows]} is not {self.gammas}"]
        problems = []
        base, top = rows[0], rows[-1]
        count = float(base["size"]) * self.reps
        lo, hi = _binomial_band(self.alpha, self.reps)
        if not (count == round(count) and lo <= count <= hi):
            problems.append(f"size count {count} at gamma=0 outside [{lo:.0f}, {hi:.0f}]")
        p0, p1 = float(base["pr_flag_y"]), float(top["pr_flag_y"])
        pooled = math.hypot(_binomial_se(p0, self.reps), _binomial_se(p1, self.reps))
        if not p1 - p0 >= 5.0 * pooled:
            problems.append(f"pr_flag_y lift {p0:.3f} -> {p1:.3f} is under 5 pooled SEs")
        return problems


class DiagnoseLarge:
    """diagnose on generated CSVs: N=10,000 regions, F=100 sectors, 2 workers."""

    name = "diagnose-large"
    entry = "run_y_fixed"
    perms = 4000
    # The eps-fixed and placebo crve rates of single datasets of this design
    # spread from about 0.01 to 0.095 across seeds, so the default 0.1 would
    # flag some seeds; the y-fixed rates sit near 0.55.
    threshold = 0.2

    def prepare(self, seed: int, work_dir: Path) -> dict:
        inputs = gendata.make_inputs(seed)
        shares, outcomes = gendata.write_csvs(inputs, work_dir / "data")
        return {"inputs": inputs, "shares": shares, "outcomes": outcomes}

    def argv(self, seed: int, ctx: dict, out: Path) -> list[str]:
        return [
            "diagnose", "--shares", str(ctx["shares"]), "--outcomes", str(ctx["outcomes"]),
            "--seed", str(seed), "--perms", str(self.perms),
            "--threshold", str(self.threshold), "--workers", "2", "--out", str(out),
        ]

    def inner_reps(self, ctx: dict) -> int:
        return 3 * self.perms  # y-fixed, eps-fixed, placebo

    def check(self, report: bytes, ctx: dict) -> list[str]:
        modes = json.loads(report)["modes"]
        if sorted(modes) != ["eps-fixed", "placebo", "y-fixed"]:
            return [f"modes {sorted(modes)}"]
        problems = []
        inputs = ctx["inputs"]
        design = np.column_stack([np.ones_like(inputs.x_realized), inputs.x_realized])
        slope = np.linalg.lstsq(design, inputs.y, rcond=None)[0][1]
        beta_hat = modes["eps-fixed"]["beta_hat"]
        if not abs(beta_hat - slope) <= 1e-9 * abs(slope):
            problems.append(f"beta_hat {beta_hat!r} vs lstsq {slope!r}")
        for mode, est, want in (
            ("y-fixed", "crve", True),
            ("y-fixed", "robust-hc1", True),
            ("eps-fixed", "crve", False),
            ("placebo", "crve", False),
        ):
            entry = modes[mode]["estimators"][est]
            if entry["flag"] is not want:
                problems.append(f"{mode} {est} flag {entry['flag']} at rate {entry['rate']}")
        for mode, block in modes.items():
            if block["b_effective"] + block["skipped_degenerate"] != self.perms:
                problems.append(f"{mode}: b_effective + skipped_degenerate != {self.perms}")
        return problems


WORKLOADS = {w.name: w for w in (GroupedTable(), FlagCurve(), DiagnoseLarge())}
