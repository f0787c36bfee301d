"""Tests for the design-based simulation engines."""

import os
import platform
import subprocess
import sys
import threading
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import oracles
from ssdiag import (
    SimConfig,
    ValidationError,
    contiguous_partition,
    crossed_shares,
    ols_simple,
    run_outcome_fixed,
    run_partition_permutation,
    run_y_fixed,
    share_design,
    validate_dataset,
    var_cluster,
    var_robust,
)
from ssdiag import engines
from ssdiag.parallel import chunk_bounds, map_chunks
from ssdiag.rng import substream

# A fresh process warms up with one 512-permutation run at 100 groups of 10,
# then counts the minor page faults of 50 more runs (100 chunks of 256 rows).
_FAULTS_SCRIPT = """
import resource
import numpy as np
from ssdiag import SimConfig, contiguous_partition, run_partition_permutation
from ssdiag.parallel import keep_freed_memory

design = contiguous_partition(100, 10)
y = np.random.default_rng(0).standard_normal(design.n_units)

def run(seed):
    run_partition_permutation([y], design, SimConfig(replications=512, seed=seed))

run(0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for seed in range(1, 51):
    run(seed)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(*keep_freed_memory(), faults / 100)
"""

FULL_MENU = ("robust-hc1", "robust-hc3", "crve", "crve-hc3", "score-agg", "score-agg-null")


def _chunked_shocks(seed, replications, n):
    """Shock draws rebuilt from the layout: chunk c of 256 rows draws from substream(seed, c)."""
    return np.vstack(
        [
            substream(seed, c).standard_normal((min(256, replications - lo), n))
            for c, lo in enumerate(range(0, replications, 256))
        ]
    )


def _diagonal_shares(rng, n):
    """A positive diagonal shares matrix of powers of 2: region j is sector j, scaled exactly.

    Shocks map to regions without rounding, so unit-vector shocks give unit-vector
    regressors (a unit at leverage 1) and shocks 1/d give constant regressors.
    """
    return np.diag(2.0 ** rng.integers(-2, 3, n))


def _design(data):
    return share_design(data.shares, data.clusters)


def _dataset(seed=0, n=16, f=4, placebo=False):
    rng = np.random.default_rng(seed)
    shares = rng.uniform(0.05, 1.0, size=(n, f))
    y = rng.standard_normal(n)
    return validate_dataset(
        y,
        shares,
        clusters=np.arange(n) % 4,
        y_placebo=rng.standard_normal(n) if placebo else None,
    )


class TestDeterminism:
    def test_same_seed_same_report(self):
        data = _dataset()
        cfg = SimConfig(replications=300, seed=99, estimators=FULL_MENU)
        a, b = run_y_fixed(data.y, _design(data), cfg), run_y_fixed(data.y, _design(data), cfg)
        assert a == b

    def test_worker_count_invariance(self):
        data = _dataset(1)
        cfg = SimConfig(replications=700, seed=5, estimators=FULL_MENU)
        reports = [run_y_fixed(data.y, _design(data), cfg, workers=w) for w in (1, 2, 4)]
        assert reports[0] == reports[1] == reports[2]

    def test_eps_fixed_with_zero_beta_matches_y_fixed(self):
        data = _dataset(2)
        cfg = SimConfig(replications=250, seed=7, estimators=("robust-hc1", "crve"))
        x = data.shares @ np.ones(data.n_sectors)
        (y_report,) = run_y_fixed(data.y, _design(data), cfg)
        (eps_report,) = run_outcome_fixed([data.y - 0.0 * x], _design(data), cfg)
        assert eps_report.rejections == y_report.rejections

    def test_placebo_equals_y_fixed_when_identical(self):
        data = _dataset(3)
        twin = validate_dataset(data.y, data.shares, data.clusters, y_placebo=data.y)
        cfg = SimConfig(replications=250, seed=11, estimators=("robust-hc1",))
        (placebo,) = run_outcome_fixed([twin.y_placebo], _design(twin), cfg)
        assert placebo.rejections == run_y_fixed(twin.y, _design(twin), cfg)[0].rejections


class TestReportInvariants:
    def test_constant_outcome_never_rejects(self):
        data = validate_dataset(
            np.full(12, 4.0), np.random.default_rng(0).uniform(0.1, 1, (12, 3)),
            clusters=np.arange(12) % 3,
        )
        cfg = SimConfig(replications=150, seed=1, estimators=FULL_MENU)
        (report,) = run_y_fixed(data.y, _design(data), cfg)
        assert all(rate == 0.0 for rate in report.rates.values())

    def test_rates_are_count_ratios(self):
        data = _dataset(4)
        cfg = SimConfig(replications=173, seed=13, estimators=FULL_MENU)
        (report,) = run_y_fixed(data.y, _design(data), cfg)
        assert report.b_effective + report.skipped_degenerate == 173
        for est, rate in report.rates.items():
            assert 0.0 <= rate <= 1.0
            assert rate * report.b_effective == pytest.approx(report.rejections[est])

    def test_partition_balanced_binary_never_degenerate(self):
        design = contiguous_partition(6, 2)
        y = np.random.default_rng(0).standard_normal(12)
        cfg = SimConfig(replications=400, seed=3)
        (report,) = run_partition_permutation([y], design, cfg)
        assert report.skipped_degenerate == 0

    def test_constant_placebo(self):
        data = validate_dataset(
            np.random.default_rng(1).standard_normal(9),
            np.random.default_rng(2).uniform(0.1, 1, (9, 3)),
            y_placebo=np.zeros(9),
        )
        (report,) = run_outcome_fixed(
            [data.y_placebo], _design(data), SimConfig(replications=100, seed=2)
        )
        assert report.rates["robust-hc1"] == 0.0


class TestValidation:
    def test_crve_requires_clusters(self):
        data = validate_dataset(
            np.random.default_rng(0).standard_normal(8),
            np.random.default_rng(1).uniform(0.1, 1, (8, 2)),
        )
        cfg = SimConfig(replications=5, seed=1, estimators=("crve",))
        with pytest.raises(ValidationError, match="cluster labels"):
            run_y_fixed(data.y, _design(data), cfg)

    def test_cluster_labels_must_match_share_rows(self):
        # 10 labels for 12 share rows used to run and report no crve rejection at all
        with pytest.raises(ValidationError, match="cluster labels do not match shares"):
            share_design(np.ones((12, 3)), np.arange(10) % 3)

    @pytest.mark.parametrize("fault", ["length", "non-finite"])
    def test_outcomes_checked_against_the_design(self, fault):
        # an outcome of 10 values on 12 share rows ended in a numpy error, and a NaN
        # outcome rejected every draw
        rng = np.random.default_rng(0)
        design = share_design(rng.uniform(0.1, 1.0, (12, 3)), np.arange(12) % 3)
        y = rng.standard_normal(10 if fault == "length" else 12)
        message = "outcome length does not match the design"
        if fault == "non-finite":
            y[4], message = np.nan, "non-finite outcome"
        cfg = SimConfig(replications=5, seed=1, estimators=("crve",))
        with pytest.raises(ValidationError, match=message):
            run_outcome_fixed([rng.standard_normal(12), y], design, cfg)

    def test_two_unit_design_rejected(self):
        design = contiguous_partition(2, 1)
        with pytest.raises(ValidationError, match="at least 3 observations"):
            run_partition_permutation(
                [np.array([1.0, 2.0])], design, SimConfig(replications=5, seed=1)
            )

    def test_bad_config(self):
        with pytest.raises(ValidationError):
            SimConfig(replications=0, seed=1)
        with pytest.raises(ValidationError):
            SimConfig(replications=5, seed=1, alpha=1.5)
        with pytest.raises(ValidationError):
            SimConfig(replications=5, seed=1, estimators=())
        with pytest.raises(ValidationError):
            SimConfig(replications=5, seed=1, estimators=("nope",))

    @pytest.mark.parametrize("threshold", [-0.1, 1.5, float("nan")])
    def test_flag_threshold_outside_unit_interval(self, threshold):
        with pytest.raises(ValidationError, match=r"flag threshold must be in \[0, 1\]"):
            SimConfig(replications=5, seed=1, flag_threshold=threshold)

    @pytest.mark.parametrize("threshold", [0.0, 1.0])
    def test_flag_threshold_bounds_accepted(self, threshold):
        cfg = SimConfig(replications=5, seed=1, flag_threshold=threshold)
        assert cfg.flag_threshold == threshold


class TestAgainstScalarPath:
    """The vectorized kernel agrees, draw by draw, with the scalar estimators and p-value rule."""

    def _scalar_counts(self, y, data, cfg, draws):
        counts = dict.fromkeys(cfg.estimators, 0)
        for shocks in draws:
            x = data.shares @ shocks
            fit = ols_simple(y, x)
            for est in cfg.estimators:
                if est == "robust-hc1":
                    v = var_robust(fit)
                elif est == "robust-hc3":
                    v = oracles.var_hc3(fit)
                elif est == "crve":
                    v = var_cluster(fit, data.clusters)
                elif est == "crve-hc3":
                    v = oracles.var_cr3(fit, data.clusters)
                elif est == "score-agg":
                    v = oracles.var_score_agg(fit, data.shares, fit.x_demeaned)
                else:
                    v = oracles.var_score_agg(fit, data.shares, fit.x_demeaned, null_imposed=True)
                counts[est] += oracles.t_test_rejects(fit.slope, 0.0, v, cfg.alpha)
        return counts

    # the id names the law of the sector shocks the engine draws
    @pytest.mark.parametrize("law", ["iid-standard-normal"])
    def test_engine_matches_scalar_replications(self, law):
        data = _dataset(8, n=14, f=4)
        cfg = SimConfig(replications=300, seed=21, alpha=0.1, estimators=FULL_MENU)
        (report,) = run_y_fixed(data.y, _design(data), cfg)
        draws = _chunked_shocks(cfg.seed, cfg.replications, data.n_sectors)
        assert report.skipped_degenerate == 0
        assert report.rejections == self._scalar_counts(data.y, data, cfg, draws)

    def test_eps_fixed_matches_scalar(self):
        data = _dataset(9, n=12, f=4)
        rng = np.random.default_rng(3)
        x_realized = data.shares @ rng.standard_normal(data.n_sectors)
        beta_hat = ols_simple(data.y, x_realized).slope
        cfg = SimConfig(replications=300, seed=33, estimators=("robust-hc1", "crve"))
        ydot = data.y - beta_hat * x_realized
        (report,) = run_outcome_fixed([ydot], _design(data), cfg)
        draws = _chunked_shocks(cfg.seed, cfg.replications, data.n_sectors)
        assert report.rejections == self._scalar_counts(ydot, data, cfg, draws)


class TestCellKernel:
    """The cell-level kernel counts what the unit-level oracle kernel counts, draw by draw."""

    @staticmethod
    def _grouped_outcome(design, seed):
        rng = np.random.default_rng(seed)
        return rng.standard_normal(design.n_groups)[design.group_of] + rng.standard_normal(
            design.n_units
        )

    @pytest.mark.parametrize(
        "n_groups, group_size", [(2, 10), (4, 1), (4, 10), (20, 1), (20, 10), (100, 10)]
    )
    def test_partition_matches_unit_oracle(self, n_groups, group_size):
        design = contiguous_partition(n_groups, group_size)
        y = self._grouped_outcome(design, n_groups + group_size)
        cfg = SimConfig(replications=500, seed=41, alpha=0.2, estimators=FULL_MENU)
        (report,) = run_partition_permutation([y], design, cfg)
        X = np.vstack(
            [
                engines._partition_regressors(n_groups, cfg.seed, lo, hi)
                for lo, hi in chunk_bounds(500, 256)
            ]
        )
        counts, skipped = oracles.unit_kernel_counts(
            y, X[:, design.group_of], FULL_MENU, cfg.alpha,
            clusters=design.group_of, shares=oracles.partition_to_shares(design),
        )
        assert report.skipped_degenerate == skipped
        assert list(report.rejections.values()) == counts
        assert sum(counts) > 0

    def test_exhaustive_matches_unit_oracle(self):
        # every balanced assignment of 6 groups, tested once at group level
        design = contiguous_partition(6, 3)
        y = self._grouped_outcome(design, 5)
        X = np.array([np.isin(np.arange(6), t) for t in combinations(range(6), 3)], dtype=float)
        groups = engines._make_design(np.arange(6), None, cells=design.group_of)
        kernel = engines._make_kernel([y], [FULL_MENU], 0.3, groups)
        rejections, skipped = engines._kernel_counts(kernel, X)
        counts, want_skipped = oracles.unit_kernel_counts(
            y, X[:, design.group_of], FULL_MENU, 0.3,
            clusters=design.group_of, shares=oracles.partition_to_shares(design),
        )
        assert len(X) == 20 and skipped.tolist() == [want_skipped]
        assert rejections.tolist() == counts

    def test_shift_share_matches_unit_oracle(self):
        data = _dataset(10, n=30, f=6)
        cfg = SimConfig(replications=300, seed=8, alpha=0.2, estimators=FULL_MENU)
        (report,) = run_y_fixed(data.y, _design(data), cfg)
        X = _chunked_shocks(cfg.seed, cfg.replications, 6) @ data.shares.T
        counts, skipped = oracles.unit_kernel_counts(
            data.y, X, FULL_MENU, cfg.alpha, clusters=data.clusters, shares=data.shares
        )
        assert report.skipped_degenerate == skipped
        assert list(report.rejections.values()) == counts

    def test_outcomes_with_different_menus_in_one_call(self):
        # one outcome's menu takes the hc3 leverage guard and the other's does not,
        # so their skipped counts differ on draws that put a unit at leverage 1
        rng = np.random.default_rng(12)
        n, clusters = 18, np.arange(18) % 6
        shares = _diagonal_shares(rng, n)
        Z = np.vstack([rng.standard_normal((40, n)), np.eye(n)[:5], np.tile(1 / shares.diagonal(), (2, 1))])
        X = Z @ shares.T
        assert np.all(X[-2:] == 1.0)
        menus = [("robust-hc1", "crve", "score-agg"), ("robust-hc3", "crve-hc3", "score-agg-null")]
        ys = [rng.standard_normal(n), rng.standard_normal(n)]
        kernel = engines._make_kernel(ys, menus, 0.3, share_design(shares, clusters))
        counts, skipped = engines._kernel_counts(kernel, Z)
        want = [
            oracles.unit_kernel_counts(y, X, menu, 0.3, clusters=clusters, shares=shares)
            for y, menu in zip(ys, menus)
        ]
        assert list(zip(counts.reshape(2, 3).tolist(), skipped.tolist())) == want
        assert want[0][1] == 2 and want[1][1] == 7
        # gapped labels name the same 6 clusters
        gapped_design = share_design(shares, 2 * clusters + 1)
        gapped = engines._make_kernel([ys[0]], menus[:1], 0.3, gapped_design)
        assert engines._kernel_counts(gapped, Z)[0].tolist() == want[0][0]

    def test_design_and_conventions_built_once(self, monkeypatch):
        # three outcomes on two distinct menus: one cluster sort, each menu's factors once
        segments, conventions = [], []
        real_segments, real_small_sample = engines._cluster_segments, engines.small_sample
        monkeypatch.setattr(
            engines, "_cluster_segments", lambda c: segments.append(1) or real_segments(c)
        )
        monkeypatch.setattr(
            engines,
            "small_sample",
            lambda est, *args: conventions.append(est) or real_small_sample(est, *args),
        )
        rng = np.random.default_rng(15)
        clusters = np.arange(12) % 4
        ys = rng.standard_normal((3, 12))
        menus = [FULL_MENU, ("crve",), FULL_MENU]
        design = share_design(rng.uniform(0.1, 1.0, (12, 3)), clusters)
        kernel = engines._make_kernel(ys, menus, 0.05, design)
        assert segments == [1] and conventions == [*FULL_MENU, "crve"]
        assert [o.estimators for o in kernel.outcomes] == menus
        assert kernel.estimators == (*FULL_MENU, "crve", *FULL_MENU)
        assert kernel.outcomes[0].crits is kernel.outcomes[2].crits

    @pytest.mark.parametrize("workers", [1, 2])
    def test_menus_of_lengths_6_and_1_in_one_sim(self, workers):
        # unit-vector rows put a unit at leverage 1, which the full menu's hc3 guard
        # skips and crve does not; constant rows are degenerate for both
        data = _dataset(14, n=12, f=5)
        rng = np.random.default_rng(14)
        shares = _diagonal_shares(rng, 12)
        eye = np.eye(12)
        Z = np.vstack([
            eye[:3], rng.standard_normal((260, 12)), eye[3:5], np.tile(1 / shares.diagonal(), (2, 1)),
            rng.standard_normal((40, 12)),
        ])

        def draw(lo, hi):
            return Z[lo:hi]

        ydot = rng.standard_normal(12)
        cfg = SimConfig(replications=len(Z), seed=3, alpha=0.2, estimators=FULL_MENU)
        rest = (cfg, workers, draw, share_design(shares, data.clusters))
        both = engines._run_sim([data.y, ydot], [FULL_MENU, ("crve",)], *rest).reports
        (y_alone,) = engines._run_sim([data.y], [FULL_MENU], *rest).reports
        (crve_alone,) = engines._run_sim([ydot], [("crve",)], *rest).reports
        assert both == (y_alone, crve_alone)
        assert [r.skipped_degenerate for r in both] == [7, 2]
        assert list(crve_alone.rejections) == ["crve"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_y_fixed_with_crve_outcomes_matches_separate_runs(self, workers):
        data = _dataset(16, n=20, f=5, placebo=True)
        ydot = np.random.default_rng(16).standard_normal(20)
        cfg = SimConfig(replications=600, seed=19, estimators=FULL_MENU)
        crve_cfg = SimConfig(replications=600, seed=19, estimators=("crve",))
        (y_alone,) = run_y_fixed(data.y, _design(data), cfg, workers)
        crve_alone = run_outcome_fixed([ydot, data.y_placebo], _design(data), crve_cfg, workers)
        both = run_y_fixed(data.y, _design(data), cfg, workers, crve=[ydot, data.y_placebo])
        assert both == (y_alone, *crve_alone)

    def test_sub_blocks_match_unit_oracle(self, monkeypatch):
        # enough cells that a 256-row chunk is tested in several row sub-blocks
        n = 3 * engines._KERNEL_BYTES // (8 * 256) + 1
        rng = np.random.default_rng(13)
        data = validate_dataset(
            rng.standard_normal(n), rng.uniform(0.05, 1.0, (n, 6)), clusters=np.arange(n) % 7
        )
        blocks = []
        real = engines._block_counts
        monkeypatch.setattr(
            engines,
            "_block_counts",
            lambda kernel, X, Z: blocks.append(len(X)) or real(kernel, X, Z),
        )
        cfg = SimConfig(replications=300, seed=8, alpha=0.2, estimators=FULL_MENU)
        (report,) = run_y_fixed(data.y, _design(data), cfg)
        assert len(blocks) >= 4 and max(blocks) < 256 and sum(blocks) == 300
        X = _chunked_shocks(cfg.seed, cfg.replications, 6) @ data.shares.T
        counts, skipped = oracles.unit_kernel_counts(
            data.y, X, FULL_MENU, cfg.alpha, clusters=data.clusters, shares=data.shares
        )
        assert report.skipped_degenerate == skipped
        assert list(report.rejections.values()) == counts

    @pytest.mark.parametrize("seed", range(6))
    def test_null_scores_in_sector_space(self, seed):
        # the kernel's sector-space null scores Z @ H - xbar * (S @ shares) equal the
        # unit-level (Xc * S) @ shares, on share rows that do not sum to 1 and an
        # outcome whose mean is not zero
        rng = np.random.default_rng(seed)
        n, f = int(rng.integers(3, 300)), int(rng.integers(2, 60))
        shares = rng.uniform(0.0, 2.0, (n, f)) * (rng.random((n, f)) < 0.6)
        y = 5.0 + rng.standard_normal(n)
        kernel = engines._make_kernel([y], [("score-agg-null",)], 0.05, share_design(shares))
        (outcome,) = kernel.outcomes
        Z = rng.standard_normal((64, f))
        X = Z @ shares.T
        xbar = X.mean(axis=1)
        want = ((X - xbar[:, None]) * (y - y.mean())) @ shares
        H, s = outcome.null
        got = Z @ H - xbar[:, None] * s
        scale = np.abs(want).max(axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)

    def test_null_scores_match_unit_oracle_over_sub_blocks(self):
        # a score-agg-null menu alone, at enough regions that a block spans several row pieces
        n = 3 * engines._KERNEL_BYTES // (8 * 256) + 1
        rng = np.random.default_rng(17)
        shares = rng.uniform(0.0, 1.5, (n, 20)) * (rng.random((n, 20)) < 0.05)
        y = 2.0 + rng.standard_normal(n)
        kernel = engines._make_kernel([y], [("score-agg-null",)], 0.3, share_design(shares))
        Z = rng.standard_normal((300, 20))
        counts, skipped = engines._kernel_counts(kernel, Z)
        want = oracles.unit_kernel_counts(y, Z @ shares.T, ("score-agg-null",), 0.3, shares=shares)
        assert (counts.tolist(), int(skipped[0])) == want
        assert want[0][0] > 0

    @staticmethod
    def _gapped_clusters(rng, n, n_clusters):
        """Unsorted labels 3g + 2 naming every one of n_clusters clusters."""
        return 3 * rng.permutation(np.arange(n) % n_clusters) + 2

    @pytest.mark.parametrize("seed", range(6))
    def test_crve_scores_in_sector_space(self, seed):
        # the design's terms give xbar = z.ubar, ssq = z'Cz and B = C_g . (z_i z_j)_{i<=j},
        # and the kernel's give the slope z'(W~'S) / ssq and the scores z'Q~ - slope * B;
        # each equals its unit-level form, the scores the per-cell reduceat of
        # xc * (S - slope * xc) over the cells sorted by cluster, on share rows that do
        # not sum to 1 and an outcome whose mean is not 0
        rng = np.random.default_rng(seed)
        n, f = int(rng.integers(20, 400)), int(rng.integers(2, 10))
        g = int(rng.integers(2, n // f + 1))
        clusters = self._gapped_clusters(rng, n, g)
        shares = rng.uniform(0.0, 2.0, (n, f)) * (rng.random((n, f)) < 0.6)
        y = 5.0 + rng.standard_normal(n)
        design = share_design(shares, clusters)
        kernel = engines._make_kernel([y], [("crve",)], 0.05, design)
        (outcome,) = kernel.outcomes
        order, starts = design.order, design.starts
        assert order is not None and starts.size == g
        Z = rng.standard_normal((64, f))
        X = Z @ shares.T
        xbar = X.mean(axis=1)
        Xc = X - xbar[:, None]
        ssq = np.einsum("bn,bn->b", Xc, Xc)
        slope = (Xc @ outcome.S) / ssq
        want = np.add.reduceat((Xc * (outcome.S - slope[:, None] * Xc))[:, order], starts, axis=1)
        B = np.add.reduceat((Xc * Xc)[:, order], starts, axis=1)
        iu, ju = np.triu_indices(f)
        got_B = (Z[:, iu] * Z[:, ju]) @ design.cluster_grams.T
        got_ssq = np.einsum("bf,bf->b", Z @ design.gram, Z)
        got_slope = (Z @ kernel.slopes[0]) / got_ssq
        got = Z @ kernel.crve.T - got_slope[:, None] * got_B
        for got_terms, want_terms in ((Z @ design.ubar, xbar), (got_ssq, ssq), (got_slope, slope)):
            assert np.all(np.abs(got_terms - want_terms) <= 1e-12 * np.abs(want_terms).max())
        for got_terms, want_terms in ((got_B, B), (got, want)):
            scale = np.abs(want_terms).max(axis=1, keepdims=True)
            assert np.all(np.abs(got_terms - want_terms) <= 1e-12 * scale)

    # each case: (units, sectors, clusters) and one menu per outcome; F*G = N in all but
    # the last, whose F*G > N leaves its crve to the cell form
    SECTOR_CASES = {
        "crve-only": ((360, 8, 45), [("crve",), ("crve",)]),
        "crve-and-null": ((360, 8, 45), [("crve",), ("crve", "score-agg-null")]),
        "mixed": ((360, 8, 45), [("crve",), ("robust-hc1", "crve", "crve-hc3")]),
        "cell-form": ((360, 8, 46), [("crve",), ("crve",)]),
    }

    def _matches_unit_oracle_over_sub_blocks(self, case, monkeypatch):
        # each case over at least 4 row pieces, on unsorted gapped labels, share rows that
        # do not sum to 1 and outcomes whose mean is not 0: menus of crve and
        # score-agg-null alone run in sector space, any other menu on the cells
        (n, f, g), menus = self.SECTOR_CASES[case]
        rng = np.random.default_rng(18)
        clusters = self._gapped_clusters(rng, n, g)
        shares = rng.uniform(0.0, 1.5, (n, f)) * (rng.random((n, f)) < 0.5)
        ys = [3.0 + rng.standard_normal(n), -2.0 + rng.standard_normal(n)]
        design = share_design(shares, clusters)
        kernel = engines._make_kernel(ys, menus, 0.3, design)
        sector = case in ("crve-only", "crve-and-null")
        assert (kernel.slopes is not None) == sector
        assert (kernel.crve is not None) == (case != "cell-form")
        blocks = []
        real = engines._block_counts
        monkeypatch.setattr(
            engines,
            "_block_counts",
            lambda kernel, X, Z: blocks.append(X is None) or real(kernel, X, Z),
        )
        monkeypatch.setattr(engines, "_KERNEL_BYTES", 8 * 64 * (f * (f + 1) // 2 if sector else n))
        Z = rng.standard_normal((300, f))
        counts, skipped = engines._kernel_counts(kernel, Z)
        assert len(blocks) >= 4 and set(blocks) == {sector}
        want = [
            oracles.unit_kernel_counts(y, Z @ shares.T, menu, 0.3, clusters=clusters, shares=shares)
            for y, menu in zip(ys, menus)
        ]
        got = [counts[: len(menus[0])].tolist(), counts[len(menus[0]) :].tolist()]
        assert list(zip(got, skipped.tolist())) == want
        assert want[0][0][0] > 0

    def test_crve_sector_form_matches_unit_oracle_over_sub_blocks(self, monkeypatch):
        self._matches_unit_oracle_over_sub_blocks("mixed", monkeypatch)

    @pytest.mark.parametrize("case", ["crve-only", "crve-and-null", "cell-form"])
    def test_sector_menus_match_unit_oracle_over_sub_blocks(self, case, monkeypatch):
        self._matches_unit_oracle_over_sub_blocks(case, monkeypatch)

    def test_sector_space_skips_constant_regressors(self):
        # on flag-curve's crossed design equal shocks give every unit the same regressor,
        # a degenerate draw that sector space must skip as the unit-level oracle does
        shares, clusters = crossed_shares(25, 20)
        rng = np.random.default_rng(20)
        ys = [1.0 + rng.standard_normal(500), rng.standard_normal(500)]
        kernel = engines._make_kernel(ys, [("crve",)] * 2, 0.3, share_design(shares, clusters))
        assert kernel.slopes is not None
        Z = np.vstack([rng.standard_normal((50, 20)), np.outer([0.0, 1.0, -3.5], np.ones(20))])
        counts, skipped = engines._kernel_counts(kernel, Z)
        want = [
            oracles.unit_kernel_counts(y, Z @ shares.T, ("crve",), 0.3, clusters=clusters)
            for y in ys
        ]
        assert list(zip([[c] for c in counts.tolist()], skipped.tolist())) == want
        assert skipped.tolist() == [3, 3]

    def test_crve_sector_form_applies_where_sectors_times_clusters_fit(self):
        # F*G <= N gives the design its sector terms; each case below pins one side of
        # that rule
        rng = np.random.default_rng(19)

        def kernel(menu, design):
            y = rng.standard_normal(design.n)
            return engines._make_kernel([y], [menu], 0.05, design)

        shares, clusters = crossed_shares(25, 20)  # flag-curve's design, F*G = N = 500
        crossed = share_design(shares, clusters)
        crve_only = kernel(("crve",), crossed)
        assert crve_only.crve is not None and crve_only.slopes is not None
        # diagnose-large's shape, F*G = N = 10,000
        large = share_design(rng.uniform(0, 1, (10_000, 100)), np.arange(10_000) // 100)
        assert large.cluster_grams.shape == (100, 5050)
        assert kernel(("crve",), large).crve.shape == (100, 100)
        # a mixed menu keeps the cell path, with crve in sector form
        mixed = kernel(("robust-hc1", "crve"), crossed)
        assert mixed.crve is not None and mixed.slopes is None
        # singleton clusters: F*G = 3N
        assert share_design(rng.uniform(0, 1, (12, 3)), np.arange(12)).cluster_grams is None
        # a partition design has no shares
        design = contiguous_partition(6, 3)
        groups = engines._make_design(np.arange(6), None, design.group_of)
        assert groups.cluster_grams is None and kernel(("crve",), groups).crve is None
        assert kernel(("robust-hc1", "score-agg"), crossed).crve is None


class TestMemory:
    @staticmethod
    def _traced_peak(n):
        """Traced peak of a crve-only simulation (F = 10, G = 20, 512 draws) at n units,
        design build included, and the bytes of its inputs."""
        rng = np.random.default_rng(n)
        shares = rng.uniform(0.0, 1.0, (n, 10))
        clusters = np.arange(n) // (n // 20)
        ys = rng.standard_normal((2, n))
        cfg = SimConfig(replications=512, seed=3, estimators=("crve",))
        tracemalloc.start()
        try:
            run_outcome_fixed(ys, share_design(shares, clusters), cfg, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, shares.nbytes + clusters.nbytes + ys.nbytes

    def test_crve_only_peak_grows_no_more_than_the_inputs(self):
        # a (256, N) regressor block per chunk would add 60 MiB from 10,000 to 40,000
        # units, and an (N, F**2) temporary in the design build 23 MiB; the inputs add 3 MiB
        small, small_inputs = self._traced_peak(10_000)
        large, large_inputs = self._traced_peak(40_000)
        assert large - small <= large_inputs - small_inputs


class TestStreamLayout:
    @pytest.mark.parametrize("n_groups", [2, 4, 20, 100])
    def test_partition_rows_treat_half_the_groups(self, n_groups):
        X = engines._partition_regressors(n_groups, 3, 256, 512)
        assert X.shape == (256, n_groups)
        assert set(np.unique(X)) <= {0.0, 1.0}
        assert np.all(X.sum(axis=1) == n_groups // 2)

    def test_balanced_assignments_equally_likely(self):
        X = np.vstack(
            [engines._partition_regressors(4, 12, lo, hi) for lo, hi in chunk_bounds(6000, 256)]
        )
        codes = X @ np.array([1.0, 2.0, 4.0, 8.0])
        observed = np.array([np.count_nonzero(codes == c) for c in (3, 5, 6, 9, 10, 12)])
        assert observed.sum() == 6000
        assert stats.chisquare(observed).pvalue > 1e-3

    @pytest.mark.parametrize("engine", ["partition", "shift-share"])
    def test_first_chunk_independent_of_run_length(self, engine, monkeypatch):
        blocks = []
        real = engines._kernel_counts

        def recording(kernel, X):
            blocks.append(X.copy())
            return real(kernel, X)

        monkeypatch.setattr(engines, "_kernel_counts", recording)
        design = contiguous_partition(10, 2)
        y = np.random.default_rng(0).standard_normal(design.n_units)
        data = _dataset(11)
        firsts = []
        for replications in (300, 256):
            blocks.clear()
            cfg = SimConfig(replications=replications, seed=17)
            if engine == "partition":
                run_partition_permutation([y], design, cfg)
            else:
                run_y_fixed(data.y, _design(data), cfg)
            firsts.append(blocks[0])
        assert firsts[0].shape[0] == firsts[1].shape[0] == 256
        assert np.array_equal(firsts[0], firsts[1])


class TestPool:
    def test_tasks_do_not_pickle_the_chunk_function(self):
        lock = threading.Lock()  # unpicklable state the chunk function closes over

        def chunk(bounds):
            with lock:
                return bounds[1] - bounds[0]

        bounds = chunk_bounds(1000, 256)
        assert map_chunks(chunk, bounds, workers=2) == [256, 256, 256, 232]

    @pytest.mark.skipif(
        sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
        reason="the allocator setting is glibc's mallopt",
    )
    def test_chunks_reuse_heap_memory(self):
        # under glibc's default thresholds each chunk's temporaries are fresh
        # mmaps, about 218 minor faults per chunk at this size
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(engines.__file__).parents[1]), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-c", _FAULTS_SCRIPT],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        *mallopt_results, faults_per_chunk = proc.stdout.split()
        assert mallopt_results == ["1", "1"]
        assert float(faults_per_chunk) < 5


class TestPermutationEngine:
    def test_constant_outcome(self):
        design = contiguous_partition(4, 2)
        (report,) = run_partition_permutation(
            [np.full(8, 2.0)], design, SimConfig(replications=50, seed=9)
        )
        assert report.rates["robust-hc1"] == 0.0

    def test_eps_fixed_uses_unit_treatment(self):
        design = contiguous_partition(4, 2)
        beta = 1.7
        x = oracles.first_half_treated(design)
        y = beta * x  # pure effect, no noise
        cfg = SimConfig(replications=60, seed=2)
        # residualizing with the true slope leaves a constant outcome
        (report,) = run_partition_permutation([y - beta * x], design, cfg)
        assert report.rates["robust-hc1"] == 0.0

    def test_worker_invariance(self):
        design = contiguous_partition(8, 3)
        y = np.random.default_rng(7).standard_normal(24)
        cfg = SimConfig(replications=600, seed=77, estimators=("robust-hc1", "crve"))
        reports = [
            run_partition_permutation([y], design, cfg, workers=w) for w in (1, 3)
        ]
        assert reports[0] == reports[1]

    def test_outcomes_share_one_block(self):
        # each report of a two-outcome run equals a one-outcome run at the same seed
        design = contiguous_partition(8, 3)
        rng = np.random.default_rng(9)
        y = rng.standard_normal(24)
        ys = [y, y - 0.8 * rng.standard_normal(8)[design.group_of]]
        cfg = SimConfig(replications=600, seed=19, estimators=FULL_MENU)
        both = run_partition_permutation(ys, design, cfg)
        assert both == tuple(run_partition_permutation([o], design, cfg)[0] for o in ys)
        assert both[0] != both[1]

    def test_outcome_length_checked(self):
        design = contiguous_partition(4, 2)
        for outcomes in (np.zeros(8), [np.zeros(6)]):
            with pytest.raises(ValidationError, match="does not match the design"):
                run_partition_permutation(outcomes, design, SimConfig(replications=5, seed=1))
