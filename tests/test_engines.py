"""Tests for the design-based simulation engines."""

import os
import platform
import subprocess
import sys
import threading
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
    ols_simple,
    run_outcome_fixed,
    run_partition_permutation,
    run_y_fixed,
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


def _dataset(seed=0, n=16, f=4, placebo=False):
    rng = np.random.default_rng(seed)
    shares = rng.uniform(0.05, 1.0, size=(n, f))
    y = rng.standard_normal(n)
    return validate_dataset(
        None,
        y,
        shares,
        clusters=np.arange(n) % 4,
        y_placebo=rng.standard_normal(n) if placebo else None,
    )


class TestDeterminism:
    def test_same_seed_same_report(self):
        data = _dataset()
        cfg = SimConfig(replications=300, seed=99, estimators=FULL_MENU)
        a, b = run_y_fixed(data, cfg), run_y_fixed(data, cfg)
        assert a == b

    def test_worker_count_invariance(self):
        data = _dataset(1)
        cfg = SimConfig(replications=700, seed=5, estimators=FULL_MENU)
        reports = [run_y_fixed(data, cfg, workers=w) for w in (1, 2, 4)]
        assert reports[0] == reports[1] == reports[2]

    def test_eps_fixed_with_zero_beta_matches_y_fixed(self):
        data = _dataset(2)
        cfg = SimConfig(replications=250, seed=7, estimators=("robust-hc1", "crve"))
        x = data.shares @ np.ones(data.n_sectors)
        (y_report,) = run_y_fixed(data, cfg)
        (eps_report,) = run_outcome_fixed([data.y - 0.0 * x], data.shares, data.clusters, cfg)
        assert eps_report.rejections == y_report.rejections

    def test_placebo_equals_y_fixed_when_identical(self):
        data = _dataset(3)
        twin = validate_dataset(None, data.y, data.shares, data.clusters, y_placebo=data.y)
        cfg = SimConfig(replications=250, seed=11, estimators=("robust-hc1",))
        (placebo,) = run_outcome_fixed([twin.y_placebo], twin.shares, twin.clusters, cfg)
        assert placebo.rejections == run_y_fixed(twin, cfg)[0].rejections


class TestReportInvariants:
    def test_constant_outcome_never_rejects(self):
        data = validate_dataset(
            None, np.full(12, 4.0), np.random.default_rng(0).uniform(0.1, 1, (12, 3)),
            clusters=np.arange(12) % 3,
        )
        cfg = SimConfig(replications=150, seed=1, estimators=FULL_MENU)
        (report,) = run_y_fixed(data, cfg)
        assert all(rate == 0.0 for rate in report.rates.values())

    def test_rates_are_count_ratios(self):
        data = _dataset(4)
        cfg = SimConfig(replications=173, seed=13, estimators=FULL_MENU)
        (report,) = run_y_fixed(data, cfg)
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
            None,
            np.random.default_rng(1).standard_normal(9),
            np.random.default_rng(2).uniform(0.1, 1, (9, 3)),
            y_placebo=np.zeros(9),
        )
        (report,) = run_outcome_fixed(
            [data.y_placebo], data.shares, data.clusters, SimConfig(replications=100, seed=2)
        )
        assert report.rates["robust-hc1"] == 0.0


class TestValidation:
    def test_crve_requires_clusters(self):
        data = validate_dataset(
            None,
            np.random.default_rng(0).standard_normal(8),
            np.random.default_rng(1).uniform(0.1, 1, (8, 2)),
        )
        with pytest.raises(ValidationError, match="cluster labels"):
            run_y_fixed(data, SimConfig(replications=5, seed=1, estimators=("crve",)))

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
        (report,) = run_y_fixed(data, cfg)
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
        (report,) = run_outcome_fixed([ydot], data.shares, data.clusters, cfg)
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
        kernel = engines._make_kernel(
            [y], [FULL_MENU], 0.3, np.arange(6), None, cells=design.group_of
        )
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
        (report,) = run_y_fixed(data, cfg)
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
        shares = rng.uniform(0.05, 1.0, (n, 5))
        X = np.vstack([rng.standard_normal((40, n)), np.eye(n)[:5], np.ones((2, n))])
        menus = [("robust-hc1", "crve", "score-agg"), ("robust-hc3", "crve-hc3", "score-agg-null")]
        ys = [rng.standard_normal(n), rng.standard_normal(n)]
        kernel = engines._make_kernel(ys, menus, 0.3, clusters, shares)
        counts, skipped = engines._kernel_counts(kernel, X)
        want = [
            oracles.unit_kernel_counts(y, X, menu, 0.3, clusters=clusters, shares=shares)
            for y, menu in zip(ys, menus)
        ]
        assert list(zip(counts.reshape(2, 3).tolist(), skipped.tolist())) == want
        assert want[0][1] == 2 and want[1][1] == 7
        # gapped labels name the same 6 clusters
        gapped = engines._make_kernel([ys[0]], menus[:1], 0.3, 2 * clusters + 1, shares)
        assert engines._kernel_counts(gapped, X)[0].tolist() == want[0][0]

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
        kernel = engines._make_kernel(ys, menus, 0.05, clusters, rng.uniform(0.1, 1.0, (12, 3)))
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
        eye = np.eye(12)
        X = np.vstack([
            eye[:3], rng.standard_normal((260, 12)), eye[3:5], np.ones((2, 12)),
            rng.standard_normal((40, 12)),
        ])

        def draw(lo, hi):
            return X[lo:hi]

        ydot = rng.standard_normal(12)
        cfg = SimConfig(replications=len(X), seed=3, alpha=0.2, estimators=FULL_MENU)
        rest = (cfg, workers, draw, data.clusters, data.shares)
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
        (y_alone,) = run_y_fixed(data, cfg, workers)
        crve_alone = run_outcome_fixed(
            [ydot, data.y_placebo], data.shares, data.clusters, crve_cfg, workers
        )
        both = run_y_fixed(data, cfg, workers, crve=[ydot, data.y_placebo])
        assert both == (y_alone, *crve_alone)

    def test_sub_blocks_match_unit_oracle(self, monkeypatch):
        # enough cells that a 256-row chunk is tested in several row sub-blocks
        n = 3 * engines._KERNEL_BYTES // (8 * 256) + 1
        rng = np.random.default_rng(13)
        data = validate_dataset(
            None, rng.standard_normal(n), rng.uniform(0.05, 1.0, (n, 6)), clusters=np.arange(n) % 7
        )
        blocks = []
        real = engines._block_counts
        monkeypatch.setattr(
            engines, "_block_counts", lambda kernel, X: blocks.append(len(X)) or real(kernel, X)
        )
        cfg = SimConfig(replications=300, seed=8, alpha=0.2, estimators=FULL_MENU)
        (report,) = run_y_fixed(data, cfg)
        assert len(blocks) >= 4 and max(blocks) < 256 and sum(blocks) == 300
        X = _chunked_shocks(cfg.seed, cfg.replications, 6) @ data.shares.T
        counts, skipped = oracles.unit_kernel_counts(
            data.y, X, FULL_MENU, cfg.alpha, clusters=data.clusters, shares=data.shares
        )
        assert report.skipped_degenerate == skipped
        assert list(report.rejections.values()) == counts


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
                run_y_fixed(data, cfg)
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
