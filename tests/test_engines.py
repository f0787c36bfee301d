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
    DegeneracyError,
    SimConfig,
    ValidationError,
    contiguous_partition,
    crossed_shares,
    ols_simple,
    run_outcome_fixed,
    share_design,
    validate_dataset,
)
from ssdiag import engines, parallel
from ssdiag.estimators import var_cluster, var_robust
from ssdiag.parallel import chunk_bounds, map_chunks
from ssdiag.rng import substream

# A fresh process warms up with one 512-permutation run at 100 groups of 10,
# then counts the minor page faults of 50 more runs, per 256 of their 25,600 rows.
_FAULTS_SCRIPT = """
import resource
import numpy as np
from ssdiag import SimConfig, contiguous_partition, run_outcome_fixed
from ssdiag.parallel import keep_freed_memory

design = contiguous_partition(100, 10)
y = np.random.default_rng(0).standard_normal(design.n_units)

def run(seed):
    run_outcome_fixed([y], [("robust-hc1",)], design, SimConfig(replications=512, seed=seed))

run(0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for seed in range(1, 51):
    run(seed)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(*keep_freed_memory(), faults / 100)
"""

FULL_MENU = ("robust-hc1", "robust-hc3", "crve", "crve-hc3", "score-agg", "score-agg-null")
HC1 = ("robust-hc1",)


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


def _balanced_assignments(n_groups):
    """Every assignment treating half of ``n_groups`` groups, one 0/1 row each."""
    treated = combinations(range(n_groups), n_groups // 2)
    return np.array([np.isin(np.arange(n_groups), t) for t in treated], dtype=float)


def _realized_share_cases():
    """Shift-share designs of the realized-test cases: (name, shares, clusters, menus)."""
    rng = np.random.default_rng(44)
    crossed, crossed_clusters = crossed_shares(5, 4)
    # 8 clusters of 1 to 12 units, F*G = 24 <= 40 units: sector space on unequal pieces
    unequal = rng.permutation(np.repeat(np.arange(8), [1, 2, 3, 4, 5, 6, 7, 12]))
    sector_menus = [("crve",), ("crve", "score-agg-null")]
    return [
        ("crossed", crossed, crossed_clusters, sector_menus),
        ("crossed, full menu", crossed, crossed_clusters, [FULL_MENU]),
        ("per region", rng.uniform(0.05, 1.0, (24, 6)), np.arange(24) % 8, [FULL_MENU, ("crve",)]),
        ("unequal clusters", rng.uniform(0.05, 1.0, (40, 3)), unequal, sector_menus),
    ]


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
        cfg = SimConfig(replications=300, seed=99)
        a = run_outcome_fixed([data.y], [FULL_MENU], _design(data), cfg)
        assert a == run_outcome_fixed([data.y], [FULL_MENU], _design(data), cfg)

    def test_worker_count_invariance(self):
        data = _dataset(1)
        cfg = SimConfig(replications=700, seed=5)
        reports = [
            run_outcome_fixed([data.y], [FULL_MENU], _design(data), cfg, workers=w)
            for w in (1, 2, 4)
        ]
        assert reports[0] == reports[1] == reports[2]

    def test_eps_fixed_with_zero_beta_matches_y_fixed(self):
        data = _dataset(2)
        cfg, menus = SimConfig(replications=250, seed=7), [("robust-hc1", "crve")]
        x = data.shares @ np.ones(data.n_sectors)
        (y_report,) = run_outcome_fixed([data.y], menus, _design(data), cfg)
        (eps_report,) = run_outcome_fixed([data.y - 0.0 * x], menus, _design(data), cfg)
        assert eps_report.rejections == y_report.rejections

    def test_placebo_equals_y_fixed_when_identical(self):
        data = _dataset(3)
        twin = validate_dataset(data.y, data.shares, data.clusters, y_placebo=data.y)
        cfg = SimConfig(replications=250, seed=11)
        (placebo,) = run_outcome_fixed([twin.y_placebo], [HC1], _design(twin), cfg)
        (y_fixed,) = run_outcome_fixed([twin.y], [HC1], _design(twin), cfg)
        assert placebo.rejections == y_fixed.rejections


class TestReportInvariants:
    def test_constant_outcome_never_rejects(self):
        data = validate_dataset(
            np.full(12, 4.0), np.random.default_rng(0).uniform(0.1, 1, (12, 3)),
            clusters=np.arange(12) % 3,
        )
        cfg = SimConfig(replications=150, seed=1)
        (report,) = run_outcome_fixed([data.y], [FULL_MENU], _design(data), cfg)
        assert all(rate == 0.0 for rate in report.rates.values())

    def test_rates_are_count_ratios(self):
        data = _dataset(4)
        cfg = SimConfig(replications=173, seed=13)
        (report,) = run_outcome_fixed([data.y], [FULL_MENU], _design(data), cfg)
        assert report.b_effective + report.skipped_degenerate == 173
        for est, rate in report.rates.items():
            assert 0.0 <= rate <= 1.0
            assert rate * report.b_effective == pytest.approx(report.rejections[est])

    def test_partition_balanced_binary_never_degenerate(self):
        design = contiguous_partition(6, 2)
        y = np.random.default_rng(0).standard_normal(12)
        cfg = SimConfig(replications=400, seed=3)
        (report,) = run_outcome_fixed([y], [HC1], design, cfg)
        assert report.skipped_degenerate == 0

    def test_constant_placebo(self):
        data = validate_dataset(
            np.random.default_rng(1).standard_normal(9),
            np.random.default_rng(2).uniform(0.1, 1, (9, 3)),
            y_placebo=np.zeros(9),
        )
        (report,) = run_outcome_fixed(
            [data.y_placebo], [HC1], _design(data), SimConfig(replications=100, seed=2)
        )
        assert report.rates["robust-hc1"] == 0.0


class TestValidation:
    def test_crve_requires_clusters(self):
        data = validate_dataset(
            np.random.default_rng(0).standard_normal(8),
            np.random.default_rng(1).uniform(0.1, 1, (8, 2)),
        )
        cfg = SimConfig(replications=5, seed=1)
        with pytest.raises(ValidationError, match="cluster labels"):
            run_outcome_fixed([data.y], [("crve",)], _design(data), cfg)

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
        cfg = SimConfig(replications=5, seed=1)
        with pytest.raises(ValidationError, match=message):
            run_outcome_fixed([rng.standard_normal(12), y], [("crve",)] * 2, design, cfg)

    def test_two_unit_design_rejected(self):
        design = contiguous_partition(2, 1)
        with pytest.raises(ValidationError, match="at least 3 observations"):
            run_outcome_fixed(
                [np.array([1.0, 2.0])], [HC1], design, SimConfig(replications=5, seed=1)
            )
        # a share design is refused when built, before its mean share row is taken
        for n in (0, 2):
            with pytest.raises(ValidationError, match="at least 3 observations"):
                share_design(np.ones((n, 3)))

    @staticmethod
    def _no_simulation(monkeypatch):
        def simulated(*args, **kwargs):
            raise AssertionError("the simulation ran")

        monkeypatch.setattr(engines, "map_chunks", simulated)

    @staticmethod
    def _twelve_units(kind):
        """A design on 12 units: 6 groups of 2, or 3 sectors in 3 clusters."""
        if kind == "partition":
            return contiguous_partition(6, 2)
        rng = np.random.default_rng(0)
        return share_design(rng.uniform(0.1, 1.0, (12, 3)), np.arange(12) % 3)

    @pytest.mark.parametrize("kind", ["shift-share", "partition"])
    @pytest.mark.parametrize("n_menus", [0, 1, 3])
    def test_one_menu_per_outcome(self, monkeypatch, kind, n_menus):
        self._no_simulation(monkeypatch)
        design = self._twelve_units(kind)
        ys = np.random.default_rng(0).standard_normal((2, 12))
        with pytest.raises(ValidationError, match="need one estimator menu per outcome"):
            run_outcome_fixed(ys, [HC1] * n_menus, design, SimConfig(replications=5, seed=1))

    @pytest.mark.parametrize("kind", ["shift-share", "partition"])
    def test_no_outcomes_refused(self, monkeypatch, kind):
        # a partition design raised IndexError and a share design returned ()
        self._no_simulation(monkeypatch)
        with pytest.raises(ValidationError, match="need at least 1 outcome"):
            run_outcome_fixed([], [], self._twelve_units(kind), SimConfig(replications=5, seed=1))

    @pytest.mark.parametrize("kind", ["shift-share", "partition"])
    @pytest.mark.parametrize("count", [True, 2.5, 3.0, "5"])
    def test_replication_count_must_be_an_integer(self, monkeypatch, kind, count):
        # True ran one replication and reported "replications: True"; 2.5 ended in a TypeError
        self._no_simulation(monkeypatch)
        design = self._twelve_units(kind)
        y = np.random.default_rng(0).standard_normal(12)
        with pytest.raises(ValidationError, match=r"replications: could not parse .* as an integer"):
            run_outcome_fixed([y], [HC1], design, SimConfig(replications=count, seed=1))

    @pytest.mark.parametrize("kind", ["shift-share", "partition"])
    @pytest.mark.parametrize("count", [5, np.int64(5), np.int32(5)])
    def test_integer_replication_counts_accepted(self, kind, count):
        y = np.random.default_rng(0).standard_normal(12)
        (report,) = run_outcome_fixed(
            [y], [HC1], self._twelve_units(kind), SimConfig(replications=count, seed=1)
        )
        assert report.replications == 5 and report.b_effective == 5

    @pytest.mark.parametrize("kind", ["shift-share", "partition"])
    @pytest.mark.parametrize(
        "seed, message",
        [
            (True, r"seed: could not parse True as an integer"),
            (1.5, r"seed: could not parse 1.5 as an integer"),
            ("1", r"seed: could not parse '1' as an integer"),
            (-1, r"seed must be at least 0 \(got -1\)"),
            (np.int64(-3), r"seed must be at least 0 \(got -3\)"),
        ],
    )
    def test_seed_must_be_a_non_negative_integer(self, monkeypatch, kind, seed, message):
        # -1 and 1.5 failed inside map_chunks with a ValueError and a TypeError, and
        # True ran and reported "seed: True"
        self._no_simulation(monkeypatch)
        design = self._twelve_units(kind)
        y = np.random.default_rng(0).standard_normal(12)
        with pytest.raises(ValidationError, match=message):
            run_outcome_fixed([y], [HC1], design, SimConfig(replications=5, seed=seed))

    @pytest.mark.parametrize("kind", ["shift-share", "partition"])
    @pytest.mark.parametrize("seed", [0, np.int64(7), np.uint64(2**64 - 1), 2**70])
    def test_integer_seeds_accepted(self, kind, seed):
        y = np.random.default_rng(0).standard_normal(12)
        (report,) = run_outcome_fixed(
            [y], [HC1], self._twelve_units(kind), SimConfig(replications=5, seed=seed)
        )
        assert report.seed == seed and report.b_effective == 5

    # 3 sectors x 4 clusters <= 12 units: a crve menu runs in sector space, a mixed
    # menu on the per-unit path
    @pytest.mark.parametrize("menu", [("crve",), ("robust-hc1", "crve")], ids=["sector", "unit"])
    def test_non_finite_share_refused(self, monkeypatch, menu):
        # a NaN share skipped all draws as degenerate and reported rates of 0.0
        self._no_simulation(monkeypatch)
        rng = np.random.default_rng(0)
        shares = rng.uniform(0.1, 1.0, (12, 3))
        shares[4, 1] = np.nan
        y = rng.standard_normal(12)
        with pytest.raises(ValidationError, match="non-finite share"):
            design = share_design(shares, np.arange(12) % 4)
            run_outcome_fixed([y], [menu], design, SimConfig(replications=5, seed=1))

    @pytest.mark.parametrize("clusters", [None, np.arange(12) % 4], ids=["unclustered", "clustered"])
    def test_no_sectors_refused(self, monkeypatch, clusters):
        # an (N, 0) share matrix with clusters raised ZeroDivisionError
        self._no_simulation(monkeypatch)
        y = np.random.default_rng(0).standard_normal(12)
        with pytest.raises(ValidationError, match="need at least 1 sector"):
            design = share_design(np.empty((12, 0)), clusters)
            run_outcome_fixed([y], [HC1], design, SimConfig(replications=5, seed=1))

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize(
        "menu, message",
        [
            ((), "estimator menu is empty"),
            (("crve", "nope"), r"unknown estimators \['nope'\]"),
            (("crve", "robust-hc1", "crve"), r"repeated estimators \['crve'\]"),
        ],
    )
    def test_every_menu_checked_before_the_simulation(self, monkeypatch, position, menu, message):
        self._no_simulation(monkeypatch)
        rng = np.random.default_rng(1)
        design = share_design(rng.uniform(0.1, 1.0, (12, 3)), np.arange(12) % 3)
        menus = [("crve",), FULL_MENU, HC1]
        menus[position] = menu
        with pytest.raises(ValidationError, match=message):
            run_outcome_fixed(
                rng.standard_normal((3, 12)), menus, design, SimConfig(replications=5, seed=1)
            )

    def test_bad_config(self):
        with pytest.raises(ValidationError):
            SimConfig(replications=0, seed=1)
        with pytest.raises(ValidationError):
            SimConfig(replications=5, seed=1, alpha=1.5)
        with pytest.raises(ValidationError):
            engines.check_menu(())
        with pytest.raises(ValidationError):
            engines.check_menu(("nope",))

    @pytest.mark.parametrize("threshold", [-0.1, 1.5, float("nan")])
    def test_flag_threshold_outside_unit_interval(self, threshold):
        with pytest.raises(ValidationError, match=r"flag threshold must be in \[0, 1\]"):
            engines.check_threshold(threshold)

    @pytest.mark.parametrize("threshold", [0.0, 1.0])
    def test_flag_threshold_bounds_accepted(self, threshold):
        assert engines.check_threshold(threshold) == threshold


class TestAgainstScalarPath:
    """The vectorized kernel agrees, draw by draw, with the scalar estimators and p-value rule."""

    def _scalar_counts(self, y, menu, data, cfg, draws):
        counts = dict.fromkeys(menu, 0)
        for shocks in draws:
            x = data.shares @ shocks
            fit = ols_simple(y, x)
            for est in menu:
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
        cfg = SimConfig(replications=300, seed=21, alpha=0.1)
        (report,) = run_outcome_fixed([data.y], [FULL_MENU], _design(data), cfg)
        draws = _chunked_shocks(cfg.seed, cfg.replications, data.n_sectors)
        assert report.skipped_degenerate == 0
        assert report.rejections == self._scalar_counts(data.y, FULL_MENU, data, cfg, draws)

    def test_eps_fixed_matches_scalar(self):
        data = _dataset(9, n=12, f=4)
        rng = np.random.default_rng(3)
        x_realized = data.shares @ rng.standard_normal(data.n_sectors)
        beta_hat = ols_simple(data.y, x_realized).slope
        cfg, menu = SimConfig(replications=300, seed=33), ("robust-hc1", "crve")
        ydot = data.y - beta_hat * x_realized
        (report,) = run_outcome_fixed([ydot], [menu], _design(data), cfg)
        draws = _chunked_shocks(cfg.seed, cfg.replications, data.n_sectors)
        assert report.rejections == self._scalar_counts(ydot, menu, data, cfg, draws)


class TestCellKernel:
    """The test kernel counts what the dense unit-level oracle kernel counts, draw by draw."""

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
        cfg = SimConfig(replications=500, seed=41, alpha=0.2)
        (report,) = run_outcome_fixed([y], [FULL_MENU], design, cfg)
        X = np.vstack(
            [
                engines._partition_regressors(n_groups, cfg.seed, lo, hi)
                for lo, hi in chunk_bounds(500, engines._PARTITION_CHUNK)
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
        # every balanced assignment, tested once at group level, on outcomes that probe
        # the treated-sum threshold: 1.7 * (first half treated) has zero variance on two
        # assignments whose treated sum is not 0, which must reject; a constant outcome
        # has zero variance and a zero treated sum on all, which must not, also where its
        # mean does not round back to it (0.1); and centring 3 + 0.5 * (first half
        # treated) leaves rounding in the residuals
        for n_groups, group_size in [(4, 1), (4, 2), (6, 3)]:
            design = contiguous_partition(n_groups, group_size)
            first_half = oracles.first_half_treated(design)
            X = _balanced_assignments(n_groups)
            ys = {
                "grouped": self._grouped_outcome(design, 5),
                "pure effect": 1.7 * first_half,
                "constant": np.full(design.n_units, 2.0),
                "inexact constant": np.full(design.n_units, 0.1),
                "shifted effect": 3.0 + 0.5 * first_half,
            }
            for name, y in ys.items():
                kernel = engines._make_kernel([y], [FULL_MENU], 0.3, design)
                rejections, skipped = engines._kernel_counts(kernel, X)
                counts, want_skipped = oracles.unit_kernel_counts(
                    y, X[:, design.group_of], FULL_MENU, 0.3,
                    clusters=design.group_of, shares=oracles.partition_to_shares(design),
                )
                case = (n_groups, group_size, name)
                assert skipped.tolist() == [want_skipped] == [0], case
                assert rejections.tolist() == counts, case
                if name == "pure effect":
                    assert min(counts) >= 2, case
                if name.endswith("constant"):
                    assert max(counts) == 0, case

    def test_realized_tests_match_unit_oracle(self):
        # each balanced assignment as the one realized row of its own block, on the edge
        # outcomes of test_exhaustive_matches_unit_oracle: every test's rejection is the
        # unit kernel's on that row alone, and each slope is the least-squares slope
        for n_groups, group_size in [(4, 1), (4, 2), (6, 3)]:
            design = contiguous_partition(n_groups, group_size)
            first_half = oracles.first_half_treated(design)
            X = _balanced_assignments(n_groups)
            ys = {
                "pure effect": 1.7 * first_half,
                "constant": np.full(design.n_units, 2.0),
                "inexact constant": np.full(design.n_units, 0.1),
                "shifted effect": 3.0 + 0.5 * first_half,
            }
            for name, y in ys.items():
                rejected, slopes = engines.realized_tests(
                    [y] * len(X), [FULL_MENU], 0.3, design, X
                )
                case = (n_groups, group_size, name)
                want = [
                    oracles.unit_kernel_counts(
                        y, z[None, design.group_of], FULL_MENU, 0.3,
                        clusters=design.group_of, shares=oracles.partition_to_shares(design),
                    )
                    for z in X
                ]
                assert [skipped for _, skipped in want] == [0] * len(X), case
                assert rejected.astype(int).tolist() == [counts for counts, _ in want], case
                for z, slope in zip(X, slopes[:, 0]):
                    assert slope == pytest.approx(
                        oracles.lstsq_fit(y, z[design.group_of])[1], abs=1e-12
                    ), case
                if name == "pure effect":
                    assert rejected.sum(axis=0).min() >= 2, case
                if name.endswith("constant"):
                    assert not rejected.any(), case
        # shift-share designs, each block tested on its own row of sector shocks: sector
        # space (crossed, F*G = N), the unit path with crve's sector form, the per-region
        # path (F*G > N) and unequal clusters; block b's outcome k is noisy, has no
        # residual (3 + 1.7x) or is constant, by (b + k) % 3
        for name, shares, clusters, menus in _realized_share_cases():
            rng = np.random.default_rng(len(shares))
            Z = rng.standard_normal((12, shares.shape[1]))
            X = Z @ shares.T
            kinds = [
                lambda x: rng.standard_normal(x.size) + 0.5 * x, lambda x: 3.0 + 1.7 * x,
                lambda x: np.full(x.size, 2.0),
            ]
            ys = [kinds[(b + k) % 3](x) for b, x in enumerate(X) for k in range(len(menus))]
            design = share_design(shares, clusters)
            assert (design.pieces is None) == (name == "per region"), name
            rejected, slopes = engines.realized_tests(ys, menus, 0.3, design, Z)
            assert rejected.shape == (len(Z), sum(map(len, menus)))
            for b, x in enumerate(X):
                got = np.split(rejected[b].astype(int), np.cumsum([len(m) for m in menus])[:-1])
                for k, menu in enumerate(menus):
                    y = ys[b * len(menus) + k]
                    counts, skipped = oracles.unit_kernel_counts(
                        y, x[None], menu, 0.3, clusters=clusters, shares=shares
                    )
                    case = (name, b, k)
                    assert skipped == 0 and got[k].tolist() == counts, case
                    want_slope = oracles.lstsq_fit(y, x)[1]
                    assert slopes[b, k] == pytest.approx(want_slope, abs=1e-12), case
            assert 0 < rejected.sum() < rejected.size, name

    def test_realized_tests_raise_on_a_degenerate_draw(self):
        # a draw the simulations would skip ends a realized test: a constant regressor,
        # and a unit at leverage 1 where the menu holds an hc3 test
        rng = np.random.default_rng(45)
        shares = _diagonal_shares(rng, 8)
        design = share_design(shares, np.arange(8) % 4)
        y = rng.standard_normal(8)
        for z, menu in [
            (1 / shares.diagonal(), ("crve",)), (np.zeros(8), ("robust-hc1",)),
            (np.eye(8)[2], ("robust-hc3",)), (np.eye(8)[2], FULL_MENU),
        ]:
            Z = np.vstack([rng.standard_normal(8), z])
            with pytest.raises(DegeneracyError, match="degenerate regressor"):
                engines.realized_tests([y, y], [menu], 0.05, design, Z)
        # the unit at leverage 1 leaves the tests without hc3 usable
        menu = ("robust-hc1", "crve")
        rejected, _ = engines.realized_tests([y], [menu], 0.05, design, [np.eye(8)[2]])
        assert rejected.shape == (1, 2)

    def test_realized_tests_refuse_an_unbalanced_row(self):
        design = contiguous_partition(4, 2)
        y = np.arange(8.0)
        for Z, message in [
            ([[1.0, 1.0, 1.0, 0.0]], "treat 2 of 4 groups"),
            ([[1.0, 0.5, 0.5, 0.0]], "treat 2 of 4 groups"),
            ([[1.0, 0.0, 1.0]], "one row of group assignments per block"),
            ([1.0, 0.0, 1.0, 0.0], "one row of group assignments per block"),
        ]:
            with pytest.raises(ValidationError, match=message):
                engines.realized_tests([y], [("robust-hc1",)], 0.05, design, Z)

    def test_shift_share_matches_unit_oracle(self):
        data = _dataset(10, n=30, f=6)
        cfg = SimConfig(replications=300, seed=8, alpha=0.2)
        (report,) = run_outcome_fixed([data.y], [FULL_MENU], _design(data), cfg)
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

    # 60 units on 4 sectors: 15 clusters give the design sector terms (F*G = N), so crve
    # takes its sector form on the unit path, and 16 leave it to the cell form (F*G > N)
    @pytest.mark.parametrize("n_clusters", [15, 16])
    def test_chunk_wide_score_agg_matches_unit_oracle(self, n_clusters, monkeypatch):
        # score-agg's sector scores are formed once per chunk, for the two outcomes whose
        # menus hold it, from the squared centred regressors every sub-block leaves in X;
        # 5-row sub-blocks split the 256-row chunk and the 46-row tail each into whole
        # sub-blocks and a 1-row one, on unsorted gapped labels and outcomes whose mean is
        # not 0
        n, f = 60, 4
        rng = np.random.default_rng(27)
        clusters = self._gapped_clusters(rng, n, n_clusters)
        shares = rng.uniform(0.0, 1.5, (n, f)) * (rng.random((n, f)) < 0.7)
        ys = [3.0 + rng.standard_normal(n), rng.standard_normal(n), -1.0 + rng.standard_normal(n)]
        menus = [("score-agg", "crve"), FULL_MENU, ("robust-hc1", "crve-hc3")]
        monkeypatch.setattr(engines, "_KERNEL_BYTES", 8 * 5 * n)
        design = share_design(shares, clusters)
        assert (design.pieces is not None) == (n_clusters == 15)
        blocks = []
        real = engines._block_counts
        monkeypatch.setattr(
            engines,
            "_block_counts",
            lambda kernel, X, Z: blocks.append(len(X)) or real(kernel, X, Z),
        )
        cfg = SimConfig(replications=256 + 46, seed=28, alpha=0.3)
        reports = run_outcome_fixed(ys, menus, design, cfg)
        assert blocks.count(1) == 2 and set(blocks) == {1, 5} and sum(blocks) == 302
        X = _chunked_shocks(cfg.seed, cfg.replications, f) @ shares.T
        for y, menu, report in zip(ys, menus, reports):
            counts, skipped = oracles.unit_kernel_counts(
                y, X, menu, cfg.alpha, clusters=clusters, shares=shares
            )
            assert list(report.rejections.values()) == counts
            assert report.skipped_degenerate == skipped
            assert report.rejections.get("score-agg", 1) > 0

    @staticmethod
    def _near_one_leverage_block(rng, n=16):
        """Diagonal shares, 4 clusters, 30 random rows and 48 rows e_k + delta * r.

        Each row e_k + delta * r puts unit k at leverage 1 - O(delta**2), for
        delta from 1e-9 to 1e-3.25.
        """
        shares = _diagonal_shares(rng, n)
        clusters = np.arange(n) % 4
        deltas = np.repeat(10.0 ** np.arange(-9.0, -3.0, 0.25), 2)
        units = rng.integers(0, n, deltas.size)
        noise = deltas[:, None] * rng.standard_normal((deltas.size, n))
        near = np.eye(n)[units] / shares.diagonal() + noise
        return shares, clusters, np.vstack([rng.standard_normal((30, n)), near])

    def test_leverage_guard_at_near_one_leverage(self):
        # the hc3 guard skips the rows within 1e-12 of leverage 1 and keeps the others, by
        # the largest leverage of each row as by every unit's; the menu without an hc3
        # test skips none of them
        rng = np.random.default_rng(29)
        n = 16
        shares, clusters, Z = self._near_one_leverage_block(rng, n)
        X = Z @ shares.T
        menus = [("robust-hc3", "score-agg", "crve-hc3"), ("robust-hc1", "score-agg")]
        ys = [rng.standard_normal(n), 2.0 + rng.standard_normal(n)]
        kernel = engines._make_kernel(ys, menus, 0.3, share_design(shares, clusters))
        counts, skipped = engines._kernel_counts(kernel, Z)
        want = [
            oracles.unit_kernel_counts(y, X, menu, 0.3, clusters=clusters, shares=shares)
            for y, menu in zip(ys, menus)
        ]
        got = np.split(counts, [len(menus[0])])
        assert [(c.tolist(), s) for c, s in zip(got, skipped.tolist())] == want
        assert 0 < want[0][1] < 48 and want[1][1] == 0

    def test_two_per_region_outcomes_at_near_one_leverage(self):
        # the last per-region outcome writes its scores over the centred regressors and its
        # deflated scores over the hc3 divisor, so the first must read both intact: two
        # outcomes of one menu, whose hc3 deflation runs up to leverage 1 - 1e-12, match
        # the unit-level oracle outcome by outcome
        rng = np.random.default_rng(31)
        n = 16
        shares, clusters, Z = self._near_one_leverage_block(rng, n)
        menus = [("robust-hc1", "crve-hc3")] * 2
        ys = [rng.standard_normal(n), 3.0 + rng.standard_normal(n)]
        kernel = engines._make_kernel(ys, menus, 0.3, share_design(shares, clusters))
        assert not kernel.tests.sector_space and [i for i, _ in kernel.tests.scored] == [0, 1]
        counts, skipped = engines._kernel_counts(kernel, Z)
        want = [
            oracles.unit_kernel_counts(y, Z @ shares.T, menu, 0.3, clusters=clusters)
            for y, menu in zip(ys, menus)
        ]
        assert list(zip(counts.reshape(2, 2).tolist(), skipped.tolist())) == want
        assert 0 < want[0][1] < 48 and min(min(c) for c, _ in want) > 0

    def test_design_and_conventions_built_once(self, monkeypatch):
        # three outcomes on two distinct menus: one cluster sort, each menu's factors once,
        # in menu order; the menu terms are kept across kernels, so start from none
        engines._menu_terms.cache_clear()
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
        assert list(kernel.tests.menus) == menus
        assert kernel.estimators == (*FULL_MENU, "crve", *FULL_MENU)
        crits = kernel.tests.crits.ravel()
        assert crits[:6].tolist() == crits[7:].tolist()
        # a second kernel on the same menus and design size builds nothing again
        engines._make_kernel(ys[::-1], menus, 0.05, design)
        assert conventions == [*FULL_MENU, "crve"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_menus_of_lengths_6_and_1_in_one_sim(self, workers, monkeypatch):
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

        monkeypatch.setattr(engines, "_shares_regressors", lambda shares, seed, lo, hi: Z[lo:hi])
        ydot = rng.standard_normal(12)
        cfg = SimConfig(replications=len(Z), seed=3, alpha=0.2)
        rest = (cfg, workers, share_design(shares, data.clusters))
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
        cfg = SimConfig(replications=600, seed=19)
        crve_outcomes, crve_menus = [ydot, data.y_placebo], [("crve",)] * 2
        (y_alone,) = run_outcome_fixed([data.y], [FULL_MENU], _design(data), cfg, workers)
        crve_alone = run_outcome_fixed(crve_outcomes, crve_menus, _design(data), cfg, workers)
        both = run_outcome_fixed(
            [data.y, *crve_outcomes], [FULL_MENU, *crve_menus], _design(data), cfg, workers
        )
        assert both == (y_alone, *crve_alone)

    def test_sub_blocks_match_unit_oracle(self, monkeypatch):
        # enough units that a 256-row chunk is tested in several row sub-blocks
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
        cfg = SimConfig(replications=300, seed=8, alpha=0.2)
        (report,) = run_outcome_fixed([data.y], [FULL_MENU], _design(data), cfg)
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
        Z = rng.standard_normal((64, f))
        X = Z @ shares.T
        xbar = X.mean(axis=1)
        want = ((X - xbar[:, None]) * (y - y.mean())) @ shares
        ((H, s),) = kernel.null
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
        # each equals its unit-level form, the scores the reduceat of
        # xc * (S - slope * xc) over the units sorted by cluster, on share rows that do
        # not sum to 1 and an outcome whose mean is not 0
        rng = np.random.default_rng(seed)
        n, f = int(rng.integers(20, 400)), int(rng.integers(2, 10))
        g = int(rng.integers(2, n // f + 1))
        clusters = self._gapped_clusters(rng, n, g)
        shares = rng.uniform(0.0, 2.0, (n, f)) * (rng.random((n, f)) < 0.6)
        y = 5.0 + rng.standard_normal(n)
        design = share_design(shares, clusters)
        kernel = engines._make_kernel([y], [("crve",)], 0.05, design)
        (S,) = kernel.S
        order, starts = design.order, design.starts
        assert order is not None and starts.size == g
        Z = rng.standard_normal((64, f))
        X = Z @ shares.T
        xbar = X.mean(axis=1)
        Xc = X - xbar[:, None]
        ssq = np.einsum("bn,bn->b", Xc, Xc)
        slope = (Xc @ S) / ssq
        want = np.add.reduceat((Xc * (S - slope[:, None] * Xc))[:, order], starts, axis=1)
        B = np.add.reduceat((Xc * Xc)[:, order], starts, axis=1)
        cluster_grams, (iu, ju) = design.grams
        assert np.array_equal((iu, ju), np.triu_indices(f))
        got_B = (Z[:, iu] * Z[:, ju]) @ cluster_grams.T
        got_ssq = np.einsum("bf,bf->b", Z @ design.gram, Z)
        got_slope = (Z @ kernel.slopes[0]) / got_ssq
        got = Z @ kernel.crve.T - got_slope[:, None] * got_B
        for got_terms, want_terms in ((Z @ design.ubar, xbar), (got_ssq, ssq), (got_slope, slope)):
            assert np.all(np.abs(got_terms - want_terms) <= 1e-12 * np.abs(want_terms).max())
        for got_terms, want_terms in ((got_B, B), (got, want)):
            scale = np.abs(want_terms).max(axis=1, keepdims=True)
            assert np.all(np.abs(got_terms - want_terms) <= 1e-12 * scale)

    @pytest.mark.parametrize("clustered", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_regressor_terms_on_the_per_region_path(self, seed, clustered):
        # a design without sector terms, unclustered or at F*G > N, still gives
        # xbar = z.ubar, ssq = z'Cz and each outcome's slope z'(W~'S) / ssq, and each
        # equals its unit-level form, on share rows that do not sum to 1 and outcomes
        # whose mean is not 0
        rng = np.random.default_rng(100 + seed)
        n, f = int(rng.integers(20, 400)), int(rng.integers(2, 10))
        clusters = self._gapped_clusters(rng, n, n // f + 1) if clustered else None
        shares = rng.uniform(0.0, 2.0, (n, f)) * (rng.random((n, f)) < 0.6)
        ys = [5.0 + rng.standard_normal(n), -3.0 + rng.standard_normal(n)]
        design = share_design(shares, clusters)
        assert design.pieces is None and design.grams is None
        menus = [("robust-hc1", "crve-hc3" if clustered else "robust-hc3"), ("robust-hc1",)]
        kernel = engines._make_kernel(ys, menus, 0.05, design)
        assert not kernel.tests.sector_space
        Z = rng.standard_normal((64, f))
        X = Z @ shares.T
        xbar = X.mean(axis=1)
        Xc = X - xbar[:, None]
        ssq = np.einsum("bn,bn->b", Xc, Xc)
        got_ssq = np.einsum("bf,bf->b", Z @ design.gram, Z)
        for got_terms, want_terms in [
            (Z @ design.ubar, xbar),
            (got_ssq, ssq),
            *(((Z @ w) / got_ssq, (Xc @ S) / ssq) for w, S in zip(kernel.slopes, kernel.S)),
        ]:
            assert np.all(np.abs(got_terms - want_terms) <= 1e-12 * np.abs(want_terms).max())

    # each case: (units, sectors, clusters) and one menu per outcome; F*G = N in all but
    # the last, whose F*G > N leaves its crve to the unit path
    SECTOR_CASES = {
        "crve-only": ((360, 8, 45), [("crve",), ("crve",)]),
        "crve-and-null": ((360, 8, 45), [("crve",), ("crve", "score-agg-null")]),
        "mixed": ((360, 8, 45), [("crve",), ("robust-hc1", "crve", "crve-hc3")]),
        "cell-form": ((360, 8, 46), [("crve",), ("crve",)]),
    }

    def _matches_unit_oracle_over_sub_blocks(self, case, monkeypatch):
        # each case over at least 4 row pieces, on unsorted gapped labels, share rows that
        # do not sum to 1 and outcomes whose mean is not 0: menus of crve and
        # score-agg-null alone run in sector space, any other menu on the units
        (n, f, g), menus = self.SECTOR_CASES[case]
        rng = np.random.default_rng(18)
        clusters = self._gapped_clusters(rng, n, g)
        shares = rng.uniform(0.0, 1.5, (n, f)) * (rng.random((n, f)) < 0.5)
        ys = [3.0 + rng.standard_normal(n), -2.0 + rng.standard_normal(n)]
        design = share_design(shares, clusters)
        kernel = engines._make_kernel(ys, menus, 0.3, design)
        sector = case in ("crve-only", "crve-and-null")
        assert kernel.tests.sector_space == sector
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
        assert kernel.tests.sector_space
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
        assert crve_only.crve is not None and crve_only.tests.sector_space
        # diagnose-large's shape, F*G = N = 10,000
        large = share_design(rng.uniform(0, 1, (10_000, 100)), np.arange(10_000) // 100)
        assert large.grams[0].shape == (100, 5050)
        assert kernel(("crve",), large).crve.shape == (100, 100)
        # a mixed menu keeps the unit path, with crve in sector form
        mixed = kernel(("robust-hc1", "crve"), crossed)
        assert mixed.crve is not None and not mixed.tests.sector_space
        # singleton clusters: F*G = 3N
        assert share_design(rng.uniform(0, 1, (12, 3)), np.arange(12)).grams is None
        # a partition design is tested by one treated-sum threshold per test instead
        partition = engines._make_kernel(
            [rng.standard_normal(18)], [("crve",)], 0.05, contiguous_partition(6, 3)
        )
        assert partition.crve is None and partition.thresholds.shape == (1,)
        assert kernel(("robust-hc1", "score-agg"), crossed).crve is None


class TestDesignOnce:
    """What the design or the menus fix is built once; only the outcomes' terms per kernel."""

    @staticmethod
    def _three_size_design(rng, n_sectors=5):
        """Unsorted labels 3g + 2 of 10 clusters of 10, 14 and 20 units, one share each."""
        sizes = [10] * 4 + [14] * 3 + [20] * 3
        labels = rng.permutation(np.repeat(3 * np.arange(len(sizes)) + 2, sizes))
        shares = np.zeros((labels.size, n_sectors))
        shares[np.arange(labels.size), rng.integers(0, n_sectors, labels.size)] = 1.0
        shares += rng.uniform(0.0, 0.5, shares.shape) * (rng.random(shares.shape) < 0.3)
        return shares, labels

    def test_batched_cluster_sums_match_unit_oracle(self, monkeypatch):
        # Q~ is built in one product per piece of equal-size clusters; a budget of two
        # 20-unit clusters splits the 14- and 20-unit sizes, 5 pieces in all
        rng = np.random.default_rng(23)
        shares, labels = self._three_size_design(rng)
        monkeypatch.setattr(engines, "_KERNEL_BYTES", 8 * 20 * 5 * 2)
        design = share_design(shares, labels)
        assert design.order is not None
        assert [len(m) for m, _ in design.pieces] == [4, 2, 1, 2, 1]
        assert [u.shape[1] for _, u in design.pieces] == [10, 14, 14, 20, 20]
        products = []  # the rank of each np.matmul operand: 3 for a batched product
        real_matmul = np.matmul
        monkeypatch.setattr(
            np, "matmul", lambda a, b, **kw: products.append(np.ndim(a)) or real_matmul(a, b, **kw)
        )
        ys = [4.0 + rng.standard_normal(labels.size), rng.standard_normal(labels.size)]
        menus = [("crve",), ("robust-hc1", "crve")]
        for kernel_menus in (menus[:1] * 2, menus):  # sector space, then the unit path
            products.clear()
            kernel = engines._make_kernel(ys, kernel_menus, 0.3, design)
            assert products.count(3) == 5
            Z = rng.standard_normal((120, 5))
            counts, skipped = engines._kernel_counts(kernel, Z)
            want = [
                oracles.unit_kernel_counts(y, Z @ shares.T, menu, 0.3, clusters=labels)
                for y, menu in zip(ys, kernel_menus)
            ]
            got = np.split(counts, np.cumsum([len(m) for m in kernel_menus])[:-1])
            assert [(c.tolist(), s) for c, s in zip(got, skipped.tolist())] == want
            assert want[0][0][0] > 0

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_batched_cluster_sums_equal_per_cluster_products(self, shuffled):
        # on flag-curve's crossed design, bit for bit what one product per cluster gives:
        # over a slice of the units where clusters are sorted, else over their gather
        shares, clusters = crossed_shares(25, 20)
        rng = np.random.default_rng(24)
        if shuffled:
            units = rng.permutation(500)
            shares, clusters = shares[units], clusters[units]
        design = share_design(shares, clusters)
        ys = rng.standard_normal((8, 500)) + np.arange(8)[:, None]
        kernel = engines._make_kernel(ys, [("crve",)] * 8, 0.05, design)
        Q = kernel.crve.reshape(8, 25, 20)
        for g in range(25):
            segment = np.flatnonzero(clusters == g) if shuffled else slice(20 * g, 20 * g + 20)
            want = np.matmul(kernel.S[:, segment], shares[segment] - design.ubar)
            assert np.array_equal(Q[:, g], want), g

    @staticmethod
    def _edge_case_block():
        """16 units on 4 sectors, one share of 1.0 each, and sector 0 held by unit 0 alone.

        Dyadic data make every term exact.  The block holds random integer draws
        and, in that order, z0, whose regressor the first outcome equals up to a
        shift (a zero-variance draw with slope 1), the unit vector of sector 0
        (unit 0 at leverage 1) and two constant draws (degenerate).
        """
        rng = np.random.default_rng(25)
        sector = np.r_[0, 1 + np.arange(15) % 3]
        shares = np.eye(4)[sector]
        z0 = np.array([1.0, 2.0, -1.0, 3.0])
        ys = [shares @ z0 + 5.0, rng.integers(-4, 5, 16).astype(float)]
        Z = np.vstack([
            rng.integers(-3, 4, (30, 4)), z0, np.eye(4)[0], rng.integers(-3, 4, (20, 4)),
            np.full(4, 2.0), np.zeros(4),
        ]).astype(float)
        return shares, np.arange(16) % 4, ys, Z, 30

    @pytest.mark.parametrize(
        "menus, sector",
        [([FULL_MENU, ("crve",)], False), ([("crve",), ("crve", "score-agg-null")], True)],
    )
    def test_one_decision_step_keeps_the_edge_rules(self, menus, sector):
        shares, clusters, ys, Z, zero_variance = self._edge_case_block()
        X = Z @ shares.T
        xc = X[zero_variance] - X[zero_variance].mean()
        yc = ys[0] - ys[0].mean()
        assert np.all(yc - (xc @ yc) / (xc @ xc) * xc == 0.0)  # no residual: zero variance
        kernel = engines._make_kernel(ys, menus, 0.3, share_design(shares, clusters))
        assert kernel.tests.sector_space == sector
        counts, skipped = engines._kernel_counts(kernel, Z)
        want = [
            oracles.unit_kernel_counts(y, X, menu, 0.3, clusters=clusters, shares=shares)
            for y, menu in zip(ys, menus)
        ]
        got = np.split(counts, [len(menus[0])])
        assert [(c.tolist(), s) for c, s in zip(got, skipped.tolist())] == want
        # the zero-variance draw rejects with crve, its slope being 1
        row = Z[[zero_variance]]
        crve_at = menus[0].index("crve")
        assert engines._kernel_counts(kernel, row)[0][crve_at] == 1
        # the leverage-1 unit is skipped by the hc3 guard only
        lever = Z[[zero_variance + 1]]
        assert engines._kernel_counts(kernel, lever)[1].tolist() == [int(not sector), 0]
        assert skipped.tolist()[1] >= 2  # the constant draws

    def test_grams_built_where_sector_space_reads_them(self):
        # a mixed menu keeps the unit path, whose crve reads ubar and Q~ but no packed C_g
        data = _dataset(26, n=40, f=4, placebo=True)
        design = _design(data)
        cfg = SimConfig(replications=300, seed=26)
        run_outcome_fixed([data.y, data.y_placebo], [FULL_MENU, ("crve",)], design, cfg)
        assert design.pieces is not None and "grams" not in vars(design)
        run_outcome_fixed([data.y_placebo], [("crve",)], design, cfg)
        assert "grams" in vars(design)


class TestMemory:
    @staticmethod
    def _traced_peak(n):
        """Traced peak of a crve-only simulation (F = 10, G = 20, 512 draws) at n units,
        design build included, and the bytes of its inputs."""
        rng = np.random.default_rng(n)
        shares = rng.uniform(0.0, 1.0, (n, 10))
        clusters = np.arange(n) // (n // 20)
        ys = rng.standard_normal((2, n))
        cfg = SimConfig(replications=512, seed=3)
        tracemalloc.start()
        try:
            run_outcome_fixed(ys, [("crve",)] * 2, share_design(shares, clusters), cfg, workers=1)
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

    def test_default_menu_peak_within_the_regressor_block(self):
        # one 256-draw chunk of diagnose's default menu and its crve outcomes at
        # N = 10,000, F = 100, G = 100 holds one (256, N) regressor block, whose rows
        # the kernel reuses for the squared centred regressors; sub-block temporaries
        # and the kernel's terms stay within 8 MiB above it
        n = 10_000
        rng = np.random.default_rng(30)
        design = share_design(rng.uniform(0.0, 1.0, (n, 100)), np.arange(n) // 100)
        ys = rng.standard_normal((3, n))
        cfg = SimConfig(replications=256, seed=31)
        tracemalloc.start()
        try:
            run_outcome_fixed(ys, [FULL_MENU, ("crve",), ("crve",)], design, cfg, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 256 * n + 8 * 2**20


class TestStreamLayout:
    # 64, 66 and 128 groups fill one raw word, spill 2 bits into a second, and fill two
    @pytest.mark.parametrize("n_groups", [2, 4, 20, 64, 66, 100, 128])
    def test_partition_rows_treat_half_the_groups(self, n_groups):
        X = engines._partition_regressors(n_groups, 3, 256, 512)
        assert X.shape == (256, n_groups)
        assert set(np.unique(X)) <= {0.0, 1.0}
        assert np.all(X.sum(axis=1) == n_groups // 2)

    @pytest.mark.parametrize("n_groups", [20, 66])
    def test_partition_rows_independent_of_batch_size(self, n_groups, monkeypatch):
        X = engines._partition_regressors(n_groups, 5, 512, 700)
        words = -(-n_groups // 64)
        # 3 candidate rows a batch: about 360 batches at 20 groups and 640 at 66
        monkeypatch.setattr(engines, "_KERNEL_BYTES", 8 * words * 3)
        assert np.array_equal(engines._partition_regressors(n_groups, 5, 512, 700), X)

    def test_every_group_treated_in_half_the_rows(self):
        rows = 20_480
        X = np.vstack(
            [engines._partition_regressors(66, 8, lo, hi) for lo, hi in chunk_bounds(rows, 256)]
        )
        # each group is treated with probability 1/2 in every row, independently across rows;
        # the band holds all 66 counts together with probability at least 1 - 1e-4
        low, high = stats.binom.interval(1 - 1e-4 / 66, rows, 0.5)
        treated = X.sum(axis=0)
        assert np.all((low <= treated) & (treated <= high)), treated

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
        chunk = engines._PARTITION_CHUNK if engine == "partition" else engines._CHUNK
        firsts = []
        for replications in (chunk + 44, chunk):
            blocks.clear()
            cfg = SimConfig(replications=replications, seed=17)
            if engine == "partition":
                run_outcome_fixed([y], [HC1], design, cfg)
            else:
                run_outcome_fixed([data.y], [HC1], _design(data), cfg)
            firsts.append(blocks[0])
        assert firsts[0].shape[0] == firsts[1].shape[0] == chunk
        assert np.array_equal(firsts[0], firsts[1])


class TestPool:
    def test_tasks_do_not_pickle_the_chunk_function(self):
        lock = threading.Lock()  # unpicklable state the chunk function closes over

        def chunk(bounds):
            with lock:
                return bounds[1] - bounds[0]

        bounds = chunk_bounds(1000, 256)
        assert map_chunks(chunk, bounds, workers=2) == [256, 256, 256, 232]

    @pytest.mark.skipif(parallel.blas_threads() is None, reason="no OpenBLAS in numpy.libs")
    def test_pool_workers_run_one_blas_thread(self):
        set_threads, get_threads, _ = parallel.blas_threads()
        before = get_threads()
        set_threads(2)
        try:
            serial = get_threads()
            bounds = chunk_bounds(2, 1)
            assert map_chunks(lambda b: get_threads(), bounds, workers=2) == [1, 1]
            if os.path.isdir("/proc/self/task"):
                # and keeps no idle BLAS threads: a worker runs on its one thread alone
                def threads(bounds):
                    np.ones((300, 300)) @ np.ones((300, 300))
                    return len(os.listdir("/proc/self/task"))

                assert map_chunks(threads, bounds, workers=2) == [1, 1]
            # a serial run keeps the process's threads, and the pool leaves them alone
            assert map_chunks(lambda b: get_threads(), bounds, workers=1) == [serial] * 2
            assert get_threads() == serial
        finally:
            set_threads(before)

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
        (report,) = run_outcome_fixed(
            [np.full(8, 2.0)], [HC1], design, SimConfig(replications=50, seed=9)
        )
        assert report.rates["robust-hc1"] == 0.0

    def test_eps_fixed_uses_unit_treatment(self):
        design = contiguous_partition(4, 2)
        beta = 1.7
        x = oracles.first_half_treated(design)
        y = beta * x  # pure effect, no noise
        cfg = SimConfig(replications=60, seed=2)
        # residualizing with the true slope leaves a constant outcome
        (report,) = run_outcome_fixed([y - beta * x], [HC1], design, cfg)
        assert report.rates["robust-hc1"] == 0.0

    def test_worker_invariance(self):
        design = contiguous_partition(8, 3)
        y = np.random.default_rng(7).standard_normal(24)
        cfg, menus = SimConfig(replications=600, seed=77), [("robust-hc1", "crve")]
        reports = [
            run_outcome_fixed([y], menus, design, cfg, workers=w) for w in (1, 3)
        ]
        assert reports[0] == reports[1]

    def test_outcomes_share_one_block(self):
        # each report of a two-outcome run equals a one-outcome run at the same seed
        design = contiguous_partition(8, 3)
        rng = np.random.default_rng(9)
        y = rng.standard_normal(24)
        ys = [y, y - 0.8 * rng.standard_normal(8)[design.group_of]]
        cfg = SimConfig(replications=600, seed=19)
        both = run_outcome_fixed(ys, [FULL_MENU] * 2, design, cfg)
        assert both == tuple(run_outcome_fixed([o], [FULL_MENU], design, cfg)[0] for o in ys)
        assert both[0] != both[1]

    # The designs of the exact-rate test.  It makes one comparison per design and
    # estimator, and each band holds all but EXACT_FAMILY_TAIL / comparisons of its
    # mass, so a correct engine fails it on at most one seed in a thousand.
    EXACT_DESIGNS = [(6, 1), (6, 3), (10, 1), (10, 3), (16, 1), (16, 3)]
    EXACT_FAMILY_TAIL = 1e-3

    def test_rates_within_exact_binomial_bands(self):
        # each estimator's count over B draws lies in the binomial band of B at its
        # exact rate over all C(F, F/2) balanced assignments, which the dense unit-level
        # oracle computes without the engine: across 5 chunks, the draw is uniform over
        # the balanced assignments up to complement (an assignment and its complement
        # give every test the same verdict), for every test
        replications = 20_000
        tail = self.EXACT_FAMILY_TAIL / (len(self.EXACT_DESIGNS) * len(FULL_MENU))
        for n_groups, group_size in self.EXACT_DESIGNS:
            design = contiguous_partition(n_groups, group_size)
            rng = np.random.default_rng([n_groups, group_size])
            y = 0.7 * rng.standard_normal(n_groups)[design.group_of] + rng.standard_normal(
                design.n_units
            )
            X = _balanced_assignments(n_groups)
            exact, _ = oracles.unit_kernel_counts(
                y, X[:, design.group_of], FULL_MENU, 0.05,
                clusters=design.group_of, shares=oracles.partition_to_shares(design),
            )
            seed = n_groups + group_size
            cfg = SimConfig(replications=replications, seed=seed)
            (report,) = run_outcome_fixed([y], [FULL_MENU], design, cfg)
            assert report.b_effective == replications
            for est, count in zip(FULL_MENU, exact):
                rate = count / len(X)
                lo = stats.binom.ppf(tail / 2, replications, rate)
                hi = stats.binom.isf(tail / 2, replications, rate)
                got = report.rejections[est]
                assert lo <= got <= hi, (n_groups, group_size, est, got, rate * replications)

    def test_outcome_length_checked(self):
        design = contiguous_partition(4, 2)
        for outcomes in (np.zeros(8), [np.zeros(6)]):
            with pytest.raises(ValidationError, match="does not match the design"):
                cfg = SimConfig(replications=5, seed=1)
                run_outcome_fixed(outcomes, [HC1] * len(outcomes), design, cfg)


def _block_case(case):
    """A three-block run's design, menus, config and outcomes, and its rows rebuilt.

    The rows are the (draws, units) regressors of the whole stream, rebuilt from
    the layout; each case's blocks of R draws cross a chunk boundary.
    """
    rng = np.random.default_rng(5)
    if case == "partition":
        design = contiguous_partition(10, 3)
        menus, n = [FULL_MENU, HC1], design.n_units
        cfg = SimConfig(replications=engines._PARTITION_CHUNK // 2 + 100, seed=23, alpha=0.2)
        Z = np.vstack(
            [
                engines._partition_regressors(10, cfg.seed, lo, hi)
                for lo, hi in chunk_bounds(3 * cfg.replications, engines._PARTITION_CHUNK)
            ]
        )
        X = Z[:, design.group_of]
        oracle = dict(clusters=design.group_of, shares=oracles.partition_to_shares(design))
    else:
        data = _dataset(5)
        design, n = _design(data), data.n_regions
        # the unit path's second outcome has no crve test, so each block's crve outcomes
        # are a subset of its outcomes
        if case == "unit-path":
            menus = [FULL_MENU, HC1, ("crve",)]
        else:
            menus = [("crve",), ("crve", "score-agg-null")]
        cfg = SimConfig(replications=100, seed=23, alpha=0.2)
        X = _chunked_shocks(cfg.seed, 3 * cfg.replications, data.n_sectors) @ data.shares.T
        oracle = dict(clusters=data.clusters, shares=data.shares)
    ys = list(rng.standard_normal((3 * len(menus), n)))
    return design, menus, cfg, ys, X, oracle


class TestBlocks:
    """A B-block run tests block b on draws b*R..(b+1)*R-1 of the simulation's stream."""

    CASES = ["partition", "unit-path", "sector-space"]

    @pytest.mark.parametrize("case", CASES)
    def test_blocks_match_unit_oracle(self, case):
        design, menus, cfg, ys, X, oracle = _block_case(case)
        reports = run_outcome_fixed(ys, menus, design, cfg, blocks=3)
        assert len(reports) == len(ys)
        R = cfg.replications
        for i, (y, report) in enumerate(zip(ys, reports)):
            b, k = divmod(i, len(menus))
            counts, skipped = oracles.unit_kernel_counts(
                y, X[b * R : (b + 1) * R], menus[k], cfg.alpha, **oracle
            )
            assert list(report.rejections.values()) == counts, (b, k)
            assert report.skipped_degenerate == skipped
            assert report.replications == R

    @pytest.mark.parametrize("case", CASES)
    def test_block_0_is_a_one_block_run(self, case):
        design, menus, cfg, ys, _, _ = _block_case(case)
        reports = run_outcome_fixed(ys, menus, design, cfg, blocks=3)
        assert reports[: len(menus)] == run_outcome_fixed(ys[: len(menus)], menus, design, cfg)
        assert run_outcome_fixed(ys, menus, design, cfg, workers=2, blocks=3) == reports

    @pytest.mark.parametrize("kind", ["shift-share", "partition"])
    @pytest.mark.parametrize(
        "blocks, message",
        [
            (0, "need at least 1 block"),
            (-2, "need at least 1 block"),
            (1.0, "blocks: could not parse 1.0 as an integer"),
            (True, "blocks: could not parse True as an integer"),
            (3, "need one estimator menu per outcome"),  # 4 outcomes are not 3 blocks of 1
        ],
    )
    def test_bad_block_count_refused(self, monkeypatch, kind, blocks, message):
        TestValidation._no_simulation(monkeypatch)
        design = TestValidation._twelve_units(kind)
        ys = np.random.default_rng(0).standard_normal((4, 12))
        with pytest.raises(ValidationError, match=message):
            run_outcome_fixed(ys, [HC1], design, SimConfig(replications=5, seed=1), blocks=blocks)
