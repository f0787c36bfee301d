"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Budgets and tolerances
are pinned here.  The table-reproduction check runs its inner permutation
simulations at 500 permutations, the budget behind the reference values:
a flag probability Pr(rate >= threshold) depends on that budget, so it is
only comparable at the same one.
"""

import math
import os
import time

import numpy as np
import pytest
from scipy import stats

import oracles
from ssdiag import (
    GroupedDGP,
    PANEL_PARAMS,
    SimConfig,
    StylizedParams,
    contiguous_partition,
    crossed_shares,
    enumerate_assignment_variance,
    eps_fixed_variance_ratio_limit,
    ols_simple,
    randomization_variance_true,
    ratio_convergence_experiment,
    run_flagging_curve,
    run_grouped_experiment,
    run_y_fixed,
    share_design,
    validate_dataset,
    var_cluster,
    y_fixed_variance_ratio_limit,
)
from ssdiag.cli import main
from ssdiag.rng import derive_seed, substream

WORKERS = min(8, os.cpu_count() or 1)

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


def _report(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_1_formula_fidelity():
    t0 = time.perf_counter()
    p = lambda beta, sigma2, rho, m: StylizedParams(beta, sigma2, rho, m)
    ok = abs(y_fixed_variance_ratio_limit(p(1, 1, 0, 2)) - 5 / 6) <= 1e-15
    ok &= abs(y_fixed_variance_ratio_limit(p(0, 1, 0.5, 2)) - 2 / 3) <= 1e-15
    ok &= abs(y_fixed_variance_ratio_limit(p(0, 1, 0, 5)) - 1.0) <= 1e-15
    ok &= abs(y_fixed_variance_ratio_limit(p(3, 2, 0.7, 1)) - 1.0) <= 1e-15
    ok &= abs(eps_fixed_variance_ratio_limit(p(9, 1, 0.5, 2)) - 2 / 3) <= 1e-15
    ok &= abs(eps_fixed_variance_ratio_limit(p(9, 1, 0, 4)) - 1.0) <= 1e-15
    ok &= abs(eps_fixed_variance_ratio_limit(p(9, 2, 0.7, 1)) - 1.0) <= 1e-15
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 9))
        sigma2 = float(rng.uniform(0.1, 5.0))
        low = -sigma2 / (m - 1) if m > 1 else -sigma2
        rho = float(rng.uniform(0.9 * low, sigma2))
        zero_beta = p(0.0, sigma2, rho, m)
        a = y_fixed_variance_ratio_limit(zero_beta)
        b = eps_fixed_variance_ratio_limit(zero_beta)
        worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    ok &= worst <= 1e-15
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    assert _report(
        "1 formula-fidelity", ok, f"worst zero-effect gap {worst:.2e}, {elapsed:.2f}s"
    )


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    checked, worst = 0, 0.0
    ok = True
    for f, reps in ((4, 67), (6, 67), (8, 66)):
        design = contiguous_partition(f, 1)
        for _ in range(reps):
            y = rng.standard_normal(f) * rng.uniform(0.5, 3.0)
            enum = enumerate_assignment_variance(y, design)
            scale = max(1.0, float(np.abs(y).max()))
            ok &= abs(enum.mean) <= 1e-12 * scale
            adjusted = randomization_variance_true(y, design) * (f - 2) / (f - 1)
            gap = abs(adjusted - enum.variance)
            worst = max(worst, gap)
            ok &= gap <= 1e-10 * max(1.0, enum.variance)
            checked += 1
    elapsed = time.perf_counter() - t0
    ok &= checked == 200 and elapsed < 10.0
    assert _report(
        "2 oracle-equivalence", ok, f"{checked} vectors, worst gap {worst:.2e}, {elapsed:.1f}s"
    )


def test_criterion_3_ratio_convergence():
    t0 = time.perf_counter()
    cases = [
        (0.5, 1.0, 2, 0.0),
        (0.0, 1.0, 2, 0.5),
        (0.5, 1.0, 2, 0.5),
        (0.0, 1.0, 5, 0.0),
    ]
    ok = True
    details = []
    for i, (beta, sigma2, m, rho) in enumerate(cases):
        params = StylizedParams(beta=beta, sigma2=sigma2, rho=rho, group_size=m)
        (row,) = ratio_convergence_experiment(
            params, [2000], replications=200, seed=303 + i, workers=WORKERS
        )
        rel = abs(row.mean_ratio - row.limit) / row.limit
        ok &= rel <= 0.05
        details.append(f"{row.mean_ratio:.4f}/{row.limit:.4f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    assert _report("3 ratio-convergence", ok, f"{'; '.join(details)}, {elapsed:.0f}s")


def test_criterion_4_eps_fixed_beta_independence():
    t0 = time.perf_counter()
    rows = {}
    limits = set()
    for beta in (0.0, 0.5, 2.0):
        params = StylizedParams(beta=beta, sigma2=1.0, rho=0.5, group_size=2)
        (row,) = ratio_convergence_experiment(
            params, [2000], replications=200, seed=404, mode="eps-fixed", workers=WORKERS
        )
        rows[beta] = row
        limits.add(row.limit)
    ok = len(limits) == 1  # closed form bit-identical across beta
    worst = 0.0
    betas = list(rows)
    for i, bi in enumerate(betas):
        for bj in betas[i + 1 :]:
            pooled = math.hypot(rows[bi].se_ratio, rows[bj].se_ratio)
            gap = abs(rows[bi].mean_ratio - rows[bj].mean_ratio)
            worst = max(worst, gap / pooled if pooled else 0.0)
            ok &= gap <= 3.0 * pooled
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    assert _report(
        "4 eps-fixed-beta-independence",
        ok,
        f"worst pairwise gap {worst:.2f} pooled SEs, {elapsed:.0f}s",
    )


def test_criterion_5_reference_table_at_desk_scale():
    t0 = time.perf_counter()
    outer, perms, master = 2000, 500, 505
    failures = []
    lines = []
    keys = [(panel, n_states) for panel in "ABCDE" for n_states in (20, 100)]
    cells = [
        (
            GroupedDGP(n_states=n_states, per_state=10, **PANEL_PARAMS[panel]),
            derive_seed(master, cell),
        )
        for cell, (panel, n_states) in enumerate(keys)
    ]
    rows = run_grouped_experiment(cells, outer, perms, alpha=0.05, workers=WORKERS)
    for (panel, n_states), r in zip(keys, rows):
        got = (r.size, r.pr_flag_y, r.pr_flag_eps)
        ses = (r.size_se, r.pr_flag_y_se, r.pr_flag_eps_se)
        names = ("size", "pr_y", "pr_eps")
        for name, g, e, s in zip(names, got, REFERENCE_TABLE[(panel, n_states)], ses):
            tol = max(0.03, 4.0 * s)
            if abs(g - e) > tol:
                failures.append(
                    f"{panel}/N={n_states}/{name}: got {g:.3f}, reference {e:.3f}, "
                    f"|diff| {abs(g - e):.3f} > tol {tol:.3f}"
                )
        lines.append(
            f"  {panel} N={n_states}: size {got[0]:.3f}/{REFERENCE_TABLE[(panel, n_states)][0]:.3f}"
            f"  pr_y {got[1]:.3f}/{REFERENCE_TABLE[(panel, n_states)][1]:.3f}"
            f"  pr_eps {got[2]:.3f}/{REFERENCE_TABLE[(panel, n_states)][2]:.3f}"
        )
    elapsed = time.perf_counter() - t0
    print(f"[acceptance] 5 reference-table at {outer}x{perms}, {elapsed:.0f}s:")
    for line in lines:
        print(line)
    ok = _report("5 reference-table", not failures, f"{len(failures)}/30 numbers outside tolerance")
    assert ok, (
        f"{len(failures)} of 30 reference numbers fall outside max(0.03, 4 SE) "
        f"at the {outer}x{perms} desk budget:\n  " + "\n  ".join(failures) + "\n"
        "The flag columns estimate Pr(rate >= 0.1) over a rejection rate counted from "
        f"{perms} permutations (flag rule: ssdiag.engines.flagged); the reference "
        "values are for 500 permutations and are comparable only at that budget."
    )


def test_criterion_6_null_calibration():
    t0 = time.perf_counter()
    n = 1000
    y = substream(2, 0).standard_normal(n)
    data = validate_dataset(y, np.eye(n))
    cfg = SimConfig(replications=10_000, seed=77)
    (report,) = run_y_fixed(data.y, share_design(data.shares), cfg, workers=WORKERS)
    count = report.rejections["robust-hc1"]
    lo = int(stats.binom.ppf(0.005, 10_000, 0.05))
    hi = int(stats.binom.ppf(0.995, 10_000, 0.05))
    ok = lo <= count <= hi and report.skipped_degenerate == 0
    elapsed = time.perf_counter() - t0
    assert _report(
        "6 null-calibration",
        ok,
        f"rate {report.rates['robust-hc1']:.4f}, count {count} in [{lo}, {hi}], {elapsed:.0f}s",
    )


def test_criterion_7_score_cluster_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    worst = 0.0
    ok = True
    for _ in range(500):
        f = 2 * int(rng.integers(2, 11))
        m = int(rng.integers(1, 5))
        design = contiguous_partition(f, m)
        shares = oracles.partition_to_shares(design)
        if rng.random() < 0.5:
            x = oracles.first_half_treated(design)
        else:
            x = shares @ rng.standard_normal(f)
        y = rng.standard_normal(design.n_units)
        fit = ols_simple(y, x)
        score = oracles.var_score_agg(fit, shares, fit.x_demeaned).value
        cr1 = var_cluster(fit, design.group_of).value
        n = design.n_units
        expected = cr1 * (n - 2) / (n - 1)
        rel = abs(score - expected) / max(1e-300, expected)
        worst = max(worst, rel)
        ok &= rel <= 1e-10
    elapsed = time.perf_counter() - t0
    assert _report(
        "7 score-cluster-equivalence", ok, f"500 datasets, worst rel gap {worst:.2e}, {elapsed:.0f}s"
    )


def test_criterion_8_command_determinism(tmp_path):
    t0 = time.perf_counter()
    # small fixture files shared by the file-driven commands
    n_regions, n_sectors = 12, 4
    rng = np.random.default_rng(808)
    header = "region_id," + ",".join(f"s_{j}" for j in range(1, n_sectors + 1))
    share_lines = [header]
    out_lines = ["region_id,y,cluster,x_realized"]
    for i in range(n_regions):
        w = rng.uniform(0.1, 1.0, n_sectors)
        share_lines.append(f"u{i}," + ",".join(repr(float(v)) for v in w))
        out_lines.append(f"u{i},{float(rng.standard_normal())!r},{i % 3},{float(rng.standard_normal())!r}")
    shares = tmp_path / "shares.csv"
    shares.write_text("\n".join(share_lines) + "\n")
    outcomes = tmp_path / "outcomes.csv"
    outcomes.write_text("\n".join(out_lines) + "\n")
    oracle_csv = tmp_path / "oracle.csv"
    oracle_csv.write_text("region_id,y\n" + "".join(f"r{i},{i}.5\n" for i in range(8)))

    def command(name, seed, out):
        if name == "diagnose":
            return ["diagnose", "--shares", str(shares), "--outcomes", str(outcomes),
                    "--seed", str(seed), "--perms", "40", "--out", out]
        if name == "mc-table":
            return ["mc-table", "--seed", str(seed), "--reps", "16", "--perms", "16",
                    "--states", "4,6", "--per-state", "2", "--out", out]
        if name == "flag-curve":
            return ["flag-curve", "--seed", str(seed), "--reps", "12", "--perms", "16",
                    "--gammas", "0,0.6", "--clusters", "5", "--sectors", "4", "--out", out]
        if name == "analytic":
            return ["analytic", "--beta", "0.5", "--sigma2", "1", "--rho", "0.2",
                    "--group-size", "3", "--out", out]
        return ["oracle", "--outcomes", str(oracle_csv), "--group-size", "1", "--out", out]

    ok = True
    for name in ("diagnose", "mc-table", "flag-curve", "analytic", "oracle"):
        for seed in (11, 22, 33):
            outputs = []
            for tag, workers in (("w1", 1), ("w4", 4), ("w8", 8), ("w4rerun", 4)):
                out = tmp_path / f"{name}-{seed}-{tag}"
                args = command(name, seed, str(out)) + ["--workers", str(workers)]
                assert main(args) == 0, f"{name} failed"
                outputs.append(out.read_bytes())
            ok &= all(blob == outputs[0] for blob in outputs[1:])
    elapsed = time.perf_counter() - t0
    assert _report(
        "8 command-determinism",
        ok,
        f"5 commands x 3 seeds x workers {{1,4,8}} + rerun byte-identical, {elapsed:.0f}s",
    )


def test_criterion_9_flagging_curve_sanity():
    t0 = time.perf_counter()
    shares, clusters = crossed_shares(25, 20)
    outer = 500
    points = run_flagging_curve(shares, clusters, [0.0, 1.0], outer, 200, 909, workers=WORKERS)
    base, top = points[0], points[-1]
    size_count = round(base.size * outer)
    lo = int(stats.binom.ppf(0.005, outer, 0.05))
    hi = int(stats.binom.ppf(0.995, outer, 0.05))
    ok = lo <= size_count <= hi
    pooled = math.hypot(base.pr_flag_y_se, top.pr_flag_y_se)
    lift = top.pr_flag_y - base.pr_flag_y
    ok &= lift >= 5.0 * pooled
    elapsed = time.perf_counter() - t0
    assert _report(
        "9 flagging-curve-sanity",
        ok,
        f"size {base.size:.3f} (count {size_count} in [{lo},{hi}]), "
        f"flag lift {base.pr_flag_y:.3f}->{top.pr_flag_y:.3f} = {lift / pooled if pooled else float('inf'):.0f} pooled SEs, "
        f"{elapsed:.0f}s",
    )
