"""Tests for the OLS fit, the slope-variance estimator menu and the t test."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import oracles
from ssdiag import (
    DegeneracyError,
    VarianceEstimate,
    ols_simple,
    t_test,
    var_cluster,
    var_robust,
)
from ssdiag import engines
from ssdiag.data import contiguous_partition
from ssdiag.errors import ValidationError
from ssdiag.estimators import ols_fits, small_sample, t_crits


def _random_case(seed, n=12, n_clusters=3):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = 0.5 * x + rng.standard_normal(n)
    clusters = rng.integers(0, n_clusters, size=n)
    clusters[:n_clusters] = np.arange(n_clusters)  # every cluster nonempty
    return y, x, clusters


class TestOlsSimple:
    def test_perfect_fit(self):
        fit = ols_simple(np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 1.0, 2.0, 3.0]))
        assert fit.slope == pytest.approx(1.0)
        np.testing.assert_allclose(fit.residuals, 0.0, atol=1e-14)

    def test_constant_outcome(self):
        fit = ols_simple(np.full(5, 7.0), np.arange(5.0))
        assert fit.slope == pytest.approx(0.0)
        np.testing.assert_allclose(fit.residuals, 0.0, atol=1e-12)

    def test_hand_normal_equations(self):
        fit = ols_simple(np.array([1.0, 2.0, 3.0, 5.0]), np.array([0.0, 0.0, 1.0, 1.0]))
        assert fit.slope == pytest.approx(2.5, abs=1e-12)
        # intercept 1.5
        np.testing.assert_allclose(fit.residuals, [-0.5, 0.5, -1.0, 1.0], atol=1e-12)

    def test_degenerate_regressor(self):
        with pytest.raises(DegeneracyError, match="degenerate regressor"):
            ols_simple(np.array([1.0, 2.0, 3.0]), np.full(3, 4.0))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 40))
    def test_matches_matrix_least_squares(self, seed, n):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        fit = ols_simple(y, x)
        b0, b1, resid, lev = oracles.lstsq_fit(y, x)
        assert fit.slope == pytest.approx(b1, abs=1e-9)
        np.testing.assert_allclose(fit.residuals, resid, atol=1e-9)
        np.testing.assert_allclose(y - fit.slope * x - fit.residuals, b0, atol=1e-9)
        np.testing.assert_allclose(oracles.leverages(fit), lev, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_fit_invariants(self, seed):
        y, x, _ = _random_case(seed)
        fit = ols_simple(y, x)
        # fits of several outcomes on one regressor share its centred terms, bit for bit
        fits = ols_fits([y, 2.0 * y - 1.0], x)
        for got, want in zip(fits, [fit, ols_simple(2.0 * y - 1.0, x)]):
            assert got.slope == want.slope
            assert np.array_equal(got.residuals, want.residuals)
        scale = max(1.0, float(np.abs(y).max()))
        assert abs(fit.residuals.sum()) <= 1e-10 * y.size * scale
        assert abs(fit.residuals @ x) <= 1e-10 * y.size * scale * max(1.0, np.abs(x).max())
        h = oracles.leverages(fit)
        assert np.all(h >= 0.0) and np.all(h <= 1.0)
        assert h.sum() == pytest.approx(2.0, abs=1e-10)

    def test_binary_balanced_slope_is_mean_difference(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = np.zeros(10)
            x[rng.permutation(10)[:5]] = 1.0
            y = rng.standard_normal(10)
            fit = ols_simple(y, x)
            assert fit.slope == pytest.approx(
                y[x == 1].mean() - y[x == 0].mean(), abs=1e-10
            )


class TestVarRobust:
    def test_zero_residuals(self):
        fit = ols_simple(np.arange(4.0), np.arange(4.0))
        assert var_robust(fit).value == pytest.approx(0.0, abs=1e-28)

    def test_hand_hc1(self):
        fit = ols_simple(np.array([1.0, 2.0, 3.0, 5.0]), np.array([0.0, 0.0, 1.0, 1.0]))
        est = var_robust(fit)
        assert est.value == pytest.approx(1.25, abs=1e-12)
        assert est.dof == 2.0

    def test_hc3_at_least_hc1(self):
        # brute force over many random small datasets
        rng = np.random.default_rng(123)
        for _ in range(1000):
            n = int(rng.integers(4, 12))
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            fit = ols_simple(y, x)
            if np.any(oracles.leverages(fit) >= 1 - 1e-12):
                continue
            assert oracles.var_hc3(fit).value >= var_robust(fit).value

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_sandwich_oracle(self, seed):
        y, x, _ = _random_case(seed)
        fit = ols_simple(y, x)
        n = y.size
        hc1 = oracles.sandwich_slope_variance(x, fit.residuals, factor=n / (n - 2))
        assert var_robust(fit).value == pytest.approx(hc1, rel=1e-9)
        deflated = fit.residuals / (1 - oracles.leverages(fit))
        hc3 = oracles.sandwich_slope_variance(x, deflated, factor=n / (n - 2))
        assert oracles.var_hc3(fit).value == pytest.approx(hc3, rel=1e-9)


class TestVarCluster:
    def test_singleton_clusters_equal_hc1(self):
        y, x, _ = _random_case(7)
        fit = ols_simple(y, x)
        cr1 = var_cluster(fit, np.arange(y.size))
        # the CR1 and HC1 factors coincide when G = N
        assert cr1.value == pytest.approx(var_robust(fit).value, rel=1e-12)

    def test_zero_residuals(self):
        fit = ols_simple(np.arange(6.0), np.arange(6.0))
        assert var_cluster(fit, np.array([0, 0, 1, 1, 2, 2])).value == pytest.approx(
            0.0, abs=1e-28
        )

    def test_four_unit_example_against_oracle(self):
        y = np.array([1.0, 2.0, 3.0, 5.0])
        x = np.array([0.0, 0.0, 1.0, 1.0])
        clusters = np.array([0, 0, 1, 1])
        fit = ols_simple(y, x)
        expected = oracles.sandwich_slope_variance(
            x, fit.residuals, groups=clusters, factor=(2 / 1) * (3 / 2)
        )
        assert var_cluster(fit, clusters).value == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_sandwich_oracle(self, seed):
        y, x, clusters = _random_case(seed)
        fit = ols_simple(y, x)
        n, g = y.size, clusters.max() + 1
        factor = g / (g - 1) * (n - 1) / (n - 2)
        cr1 = oracles.sandwich_slope_variance(x, fit.residuals, groups=clusters, factor=factor)
        assert var_cluster(fit, clusters).value == pytest.approx(cr1, rel=1e-9)
        deflated = fit.residuals / (1 - oracles.leverages(fit))
        cr3 = oracles.sandwich_slope_variance(x, deflated, groups=clusters, factor=factor)
        assert oracles.var_cr3(fit, clusters).value == pytest.approx(cr3, rel=1e-9)

    def test_gapped_labels_count_distinct_clusters(self):
        # labels 0, 2, 4, 6 name the same 4 clusters as 0..3, not 7
        y, x, _ = _random_case(5)
        clusters = np.repeat(np.arange(4), 3)
        fit = ols_simple(y, x)
        contiguous = var_cluster(fit, clusters)
        assert var_cluster(fit, 2 * clusters) == contiguous
        assert var_cluster(fit, clusters, 4) == contiguous  # labels 0..3 with their count
        # a count that does not number the labels in use would change CR1's factor and dof
        wrong = [(clusters, 3), (clusters, 5), (2 * clusters, 4), (clusters - 1, 4)]
        for labels, count in [*wrong, (clusters.astype(float), 4)]:
            with pytest.raises(ValidationError, match="not 0.."):
                var_cluster(fit, labels, count)
        assert contiguous.dof == 3.0
        assert oracles.var_cr3(fit, 2 * clusters) == oracles.var_cr3(fit, clusters)

    def test_single_cluster_rejected(self):
        y, x, _ = _random_case(3)
        with pytest.raises(Exception, match="2 clusters"):
            var_cluster(ols_simple(y, x), np.zeros(y.size, dtype=int))


class TestSmallSample:
    @pytest.mark.parametrize("N, G, F", [(200, 20, 10), (7, 3, 2)])
    def test_readme_conventions(self, N, G, F):
        # README "Estimator conventions", written out
        hc1 = (N / (N - 2), N - 2)
        cr1 = (G / (G - 1) * (N - 1) / (N - 2), G - 1)
        agg = (F / (F - 1), F - 1)
        want = {
            "robust-hc1": hc1, "robust-hc3": hc1, "crve": cr1, "crve-hc3": cr1,
            "score-agg": agg, "score-agg-null": agg,
        }
        assert set(want) == set(engines.ESTIMATORS)
        for est, convention in want.items():
            assert small_sample(est, N, G, F) == convention

    @pytest.mark.parametrize(
        "est, G, F, message",
        [("crve", 1, 10, "need at least 2 clusters"),
         ("crve-hc3", 0, 10, "need at least 2 clusters"),
         ("score-agg", 20, 1, "need at least 2 sectors"),
         ("score-agg-null", 20, 1, "need at least 2 sectors")],
    )
    def test_too_few_clusters_or_sectors(self, est, G, F, message):
        with pytest.raises(ValidationError, match=message):
            small_sample(est, 200, G, F)

    @pytest.mark.parametrize(
        "menu, clusters, message",
        [(("score-agg", "crve"), None, "need at least 2 sectors"),
         (("crve", "score-agg"), None, "crve requires cluster labels"),
         (("score-agg", "crve"), np.zeros(6, dtype=int), "need at least 2 sectors"),
         (("crve", "score-agg"), np.zeros(6, dtype=int), "need at least 2 clusters")],
    )
    def test_kernel_checks_in_menu_order(self, menu, clusters, message):
        # one sector: the first estimator of the menu names the fault
        with pytest.raises(ValidationError, match=message):
            engines._make_kernel(
                [np.arange(6.0)], [menu], 0.05, engines.share_design(np.ones((6, 1)), clusters)
            )

    def test_kernel_and_realized_tests_read_it(self):
        y, x, clusters = _random_case(4, n=12, n_clusters=3)
        shares = np.random.default_rng(4).uniform(0.05, 1.0, (12, 4))
        design = engines.share_design(shares, clusters)
        kernel = engines._make_kernel([y], [engines.ESTIMATORS], 0.05, design)
        conventions = [small_sample(est, 12, 3, 4) for est in engines.ESTIMATORS]
        assert kernel.tests.factors.ravel().tolist() == [factor for factor, _ in conventions]
        crits = kernel.tests.crits.ravel().tolist()
        assert crits == list(t_crits(0.05, tuple(d for _, d in conventions)))
        fit = ols_simple(y, x)
        assert var_robust(fit).dof == 10 and var_cluster(fit, clusters).dof == 2


class TestVarScoreAgg:
    def test_partition_equivalence_scalar(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            f, m = int(rng.integers(2, 7)) * 2, int(rng.integers(1, 4))
            design = contiguous_partition(f, m)
            y = rng.standard_normal(design.n_units)
            x = oracles.first_half_treated(design) + 0.01 * rng.standard_normal(design.n_units)
            fit = ols_simple(y, x)
            shares = oracles.partition_to_shares(design)
            score = oracles.var_score_agg(fit, shares, fit.x_demeaned)
            cr1 = var_cluster(fit, design.group_of)
            n = design.n_units
            assert score.value == pytest.approx(
                cr1.value * (n - 2) / (n - 1), rel=1e-10
            )

    def test_zero_residuals(self):
        fit = ols_simple(np.arange(4.0), np.arange(4.0))
        assert oracles.var_score_agg(fit, np.eye(4), fit.x_demeaned).value == pytest.approx(
            0.0, abs=1e-28
        )

    def test_null_imposed_constant_outcome(self):
        fit = ols_simple(np.full(4, 3.0), np.array([0.0, 1.0, 2.0, 3.0]))
        est = oracles.var_score_agg(fit, np.eye(4), fit.x_demeaned, null_imposed=True)
        assert est.value == pytest.approx(0.0, abs=1e-28)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_weighted_score_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n, f = 10, 4
        shares = rng.uniform(0, 1, size=(n, f))
        x = shares @ rng.standard_normal(f)
        y = rng.standard_normal(n)
        fit = ols_simple(y, x)
        for null_imposed in (False, True):
            r = y - y.mean() if null_imposed else fit.residuals
            expected = oracles.weighted_score_slope_variance(
                x, r, shares, factor=f / (f - 1)
            )
            got = oracles.var_score_agg(fit, shares, fit.x_demeaned, null_imposed=null_imposed)
            assert got.value == pytest.approx(expected, rel=1e-9)


DOFS = [2, 5, 18, 198, 998]


class TestTTest:
    def test_slope_at_null(self):
        est = var_robust(ols_simple(*_random_case(1)[:2]))
        assert not t_test(0.3, 0.3, est)

    def test_huge_statistic(self):
        est = var_robust(ols_simple(*_random_case(2)[:2]))
        assert t_test(1e6, 0.0, est, level=1e-6)

    def test_zero_variance_degenerate(self):
        # a zero variance rejects a nonzero slope difference and no other
        fit = ols_simple(np.arange(4.0), np.arange(4.0))
        assert var_robust(fit).value == 0.0
        assert t_test(fit.slope, 0.0, var_robust(fit))
        assert not t_test(fit.slope, fit.slope, var_robust(fit))

    def test_pvalue_at_critical_value(self):
        for dof in DOFS:
            (crit,) = t_crits(0.05, (dof,))
            # the t tail from a high-precision implementation
            assert 2 * float(oracles.student_t_sf(crit, dof)) == pytest.approx(0.05, abs=1e-12)

    @pytest.mark.parametrize("side", [-1, 1])
    @pytest.mark.parametrize("dof", DOFS)
    def test_decision_matches_p_value_rule_at_critical_value(self, dof, side):
        t = stats.t.ppf(0.975, dof) * (1.0 + side * 1e-9)
        variance = VarianceEstimate(1.0, float(dof))
        expected = oracles.t_test_rejects(t, 0.0, variance, 0.05)
        assert expected == (side > 0)
        assert t_test(t, 0.0, variance) == expected
        assert t_test(-t, 0.0, variance) == expected


T_CRIT_DOFS = [1, 2, 3, 4, 5, 10, 19, 24, 99, 100, 198, 199, 998, 999, 1000, 9998, 10**6]


class TestTCrits:
    @pytest.mark.parametrize(
        "alpha, bound",
        [(0.001, 1e-13), (0.01, 1e-13), (0.05, 1e-13), (0.1, 1e-13), (0.5, 1e-13),
         (0.9, 1e-13), (1e-6, 1e-10)],
    )
    def test_matches_high_precision_quantile(self, alpha, bound):
        crits = t_crits(alpha, tuple(T_CRIT_DOFS))
        for dof, crit in zip(T_CRIT_DOFS, crits):
            exact = oracles.student_t_isf(alpha / 2, dof)
            assert float(abs(crit / exact - 1)) <= bound, (dof, crit, exact)

    @pytest.mark.parametrize("dof", [0.999, 0.5, 0.0, -3.0, math.nan])
    def test_dof_below_one_raises(self, dof):
        with pytest.raises(ValueError, match="dof must be at least 1"):
            t_crits(0.05, (dof,))


class TestSymmetries:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        a=st.floats(-10, 10),
        b=st.floats(0.1, 10),
    )
    def test_affine_equivariance(self, seed, a, b):
        y, x, clusters = _random_case(seed)
        shares = np.random.default_rng(seed + 1).uniform(0, 1, size=(y.size, 3))
        fit = ols_simple(y, x)
        fit2 = ols_simple(a + b * y, x)
        variances = lambda f: [
            var_robust(f),
            oracles.var_hc3(f),
            var_cluster(f, clusters),
            oracles.var_cr3(f, clusters),
            oracles.var_score_agg(f, shares, f.x_demeaned),
            oracles.var_score_agg(f, shares, f.x_demeaned, null_imposed=True),
        ]
        for v1, v2 in zip(variances(fit), variances(fit2)):
            assert v2.value == pytest.approx(b * b * v1.value, rel=1e-9)
            t1 = fit.slope / math.sqrt(v1.value)
            t2 = fit2.slope / math.sqrt(v2.value)
            assert t2 == pytest.approx(t1, rel=1e-9)
            assert t_test(fit2.slope, b * 0.0, v2) == t_test(fit.slope, 0.0, v1)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_unit_permutation_invariance(self, seed):
        y, x, clusters = _random_case(seed)
        shares = np.random.default_rng(seed + 1).uniform(0, 1, size=(y.size, 3))
        perm = np.random.default_rng(seed + 2).permutation(y.size)
        fit = ols_simple(y, x)
        pfit = ols_simple(y[perm], x[perm])
        assert pfit.slope == pytest.approx(fit.slope, rel=1e-10)
        pairs = [
            (var_robust(fit), var_robust(pfit)),
            (oracles.var_hc3(fit), oracles.var_hc3(pfit)),
            (var_cluster(fit, clusters), var_cluster(pfit, clusters[perm])),
            (
                oracles.var_score_agg(fit, shares, fit.x_demeaned),
                oracles.var_score_agg(pfit, shares[perm], pfit.x_demeaned),
            ),
        ]
        for v, pv in pairs:
            assert pv.value == pytest.approx(v.value, rel=1e-9)
