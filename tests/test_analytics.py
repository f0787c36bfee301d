"""Tests for closed-form ratio limits, exact variances, and the enumeration oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ssdiag import (
    BudgetError,
    StylizedParams,
    ValidationError,
    contiguous_partition,
    enumerate_assignment_variance,
    eps_fixed_variance_ratio_limit,
    randomization_variance_robust,
    randomization_variance_true,
    ratio_convergence_experiment,
    y_fixed_variance_ratio_limit,
)
from ssdiag import analytics


def _params(beta=0.0, sigma2=1.0, rho=0.0, m=1):
    return StylizedParams(beta=beta, sigma2=sigma2, rho=rho, group_size=m)


valid_params = st.builds(
    _params,
    beta=st.floats(-3, 3),
    sigma2=st.floats(0.1, 5),
    rho=st.floats(0, 0.09),  # below all sigma2 values above
    m=st.integers(1, 6),
)


class TestRatioLimits:
    def test_known_values(self):
        assert y_fixed_variance_ratio_limit(_params(beta=0, rho=0, m=3)) == 1.0
        assert y_fixed_variance_ratio_limit(_params(beta=2, rho=0.3, m=1)) == 1.0
        assert y_fixed_variance_ratio_limit(_params(beta=1, sigma2=1, rho=0, m=2)) == pytest.approx(5 / 6, abs=1e-15)
        assert y_fixed_variance_ratio_limit(_params(beta=0, sigma2=1, rho=0.5, m=2)) == pytest.approx(2 / 3, abs=1e-15)

    def test_eps_fixed_known_values(self):
        assert eps_fixed_variance_ratio_limit(_params(rho=0, m=4)) == 1.0
        assert eps_fixed_variance_ratio_limit(_params(rho=0.9, m=1)) == 1.0
        assert eps_fixed_variance_ratio_limit(_params(sigma2=1, rho=0.5, m=2)) == pytest.approx(2 / 3, abs=1e-15)

    def test_eps_fixed_ignores_beta_bitwise(self):
        values = {
            eps_fixed_variance_ratio_limit(_params(beta=b, sigma2=1.3, rho=0.2, m=3))
            for b in (0.0, 0.5, 2.0, -7.0)
        }
        assert len(values) == 1

    @settings(max_examples=200, deadline=None)
    @given(p=valid_params)
    def test_zero_effect_identity(self, p):
        zeroed = StylizedParams(beta=0.0, sigma2=p.sigma2, rho=p.rho, group_size=p.group_size)
        lhs = y_fixed_variance_ratio_limit(zeroed)
        rhs = eps_fixed_variance_ratio_limit(zeroed)
        assert lhs == pytest.approx(rhs, rel=1e-15, abs=1e-15)

    @pytest.mark.parametrize(
        "limit, p",
        [
            # beta**2 raises OverflowError
            (y_fixed_variance_ratio_limit, _params(beta=1e200, m=3)),
            # 4 sigma2 overflows in both terms: inf / inf
            (y_fixed_variance_ratio_limit, _params(sigma2=1e308, m=3)),
            # the denominator alone overflows: a finite number over inf
            (eps_fixed_variance_ratio_limit, _params(sigma2=1e308, rho=1e308, m=3)),
        ],
    )
    def test_overflowing_terms_refused(self, limit, p):
        with pytest.raises(ValidationError, match="overflow the closed-form limit"):
            limit(p)

    def test_invalid_params(self):
        with pytest.raises(ValidationError):
            _params(sigma2=0.0)
        with pytest.raises(ValidationError):
            _params(rho=1.5)  # above sigma2
        with pytest.raises(ValidationError):
            _params(rho=-0.6, m=3)  # indefinite covariance


class TestExactVariances:
    def test_hand_values(self):
        design = contiguous_partition(4, 1)
        y = np.array([1.0, 2.0, 3.0, 4.0])
        assert randomization_variance_true(y, design) == pytest.approx(2.5, abs=1e-12)
        assert randomization_variance_robust(y, design) == pytest.approx(2.5, abs=1e-12)

    def test_constant_outcome(self):
        design = contiguous_partition(4, 2)
        assert randomization_variance_true(np.full(8, 3.0), design) == 0.0
        assert randomization_variance_robust(np.full(8, 3.0), design) == 0.0

    def test_singleton_groups_coincide(self):
        rng = np.random.default_rng(0)
        design = contiguous_partition(8, 1)
        y = rng.standard_normal(8)
        assert randomization_variance_true(y, design) == pytest.approx(
            randomization_variance_robust(y, design), rel=1e-12
        )

    def test_two_groups_rejected(self):
        design = contiguous_partition(2, 2)
        with pytest.raises(ValidationError):
            randomization_variance_true(np.arange(4.0), design)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), c=st.floats(-10, 10), scale=st.floats(0.1, 7))
    def test_shift_and_scale(self, seed, c, scale):
        rng = np.random.default_rng(seed)
        design = contiguous_partition(6, 2)
        y = rng.standard_normal(12)
        base_true = randomization_variance_true(y, design)
        base_robust = randomization_variance_robust(y, design)
        assert randomization_variance_true(y + c, design) == pytest.approx(base_true, rel=1e-9, abs=1e-12)
        assert randomization_variance_true(scale * y, design) == pytest.approx(scale**2 * base_true, rel=1e-9)
        assert randomization_variance_robust(y + c, design) == pytest.approx(base_robust, rel=1e-9, abs=1e-12)
        assert randomization_variance_robust(scale * y, design) == pytest.approx(scale**2 * base_robust, rel=1e-9)


class TestEnumeration:
    def test_hand_enumeration(self):
        design = contiguous_partition(4, 1)
        result = enumerate_assignment_variance(np.array([1.0, 2.0, 3.0, 4.0]), design)
        slopes = oracles.balanced_assignment_slopes([1.0, 2.0, 3.0, 4.0], design.group_of, 4)
        assert sorted(slopes) == [-2.0, -1.0, 0.0, 0.0, 1.0, 2.0]
        assert result.mean == pytest.approx(0.0, abs=1e-15)
        assert result.variance == pytest.approx(10 / 6, abs=1e-12)
        assert result.n_assignments == 6

    def test_constant_outcome(self):
        design = contiguous_partition(4, 1)
        assert enumerate_assignment_variance(np.full(4, 5.0), design).variance == 0.0

    def test_finite_factor_relationship(self):
        rng = np.random.default_rng(42)
        for f in (4, 6, 8):
            design = contiguous_partition(f, 1)
            for _ in range(30):
                y = rng.standard_normal(f)
                enum = enumerate_assignment_variance(y, design)
                scale = max(1.0, float(np.abs(y).max()))
                assert abs(enum.mean) <= 1e-12 * scale
                formula = randomization_variance_true(y, design)
                assert formula * (f - 2) / (f - 1) == pytest.approx(enum.variance, abs=1e-10)

    def test_matches_oracle_for_grouped_design(self):
        rng = np.random.default_rng(9)
        design = contiguous_partition(6, 3)
        y = rng.standard_normal(18)
        enum = enumerate_assignment_variance(y, design)
        slopes = oracles.balanced_assignment_slopes(y, design.group_of, 6)
        assert enum.mean == pytest.approx(slopes.mean(), abs=1e-12)
        assert enum.variance == pytest.approx(slopes.var(), rel=1e-10)

    def test_budget_cap(self):
        design = contiguous_partition(30, 1)
        with pytest.raises(BudgetError, match="exceed the enumeration cap"):
            enumerate_assignment_variance(np.zeros(30), design)


class TestConvergenceExperiment:
    def test_singleton_groups_ratio_is_one(self):
        p = _params(beta=0.7, sigma2=2.0, rho=0.0, m=1)
        rows = ratio_convergence_experiment(p, [4, 10], replications=5, seed=1)
        for row in rows:
            assert row.mean_ratio == pytest.approx(1.0, abs=1e-12)
            assert row.se_ratio == pytest.approx(0.0, abs=1e-12)
            assert row.limit == 1.0

    def test_null_iid_ratio_near_one(self):
        p = _params(beta=0.0, sigma2=1.0, rho=0.0, m=2)
        (row,) = ratio_convergence_experiment(p, [400], replications=60, seed=2)
        assert row.limit == 1.0
        assert row.mean_ratio == pytest.approx(1.0, abs=0.05)

    def test_negative_rho_supported(self):
        p = _params(beta=0.0, sigma2=1.0, rho=-0.3, m=2)
        (row,) = ratio_convergence_experiment(p, [300], replications=40, seed=3)
        # limit above one: group means are less variable than iid
        assert row.limit == pytest.approx(1.0 / 0.7, rel=1e-12)
        assert row.mean_ratio == pytest.approx(row.limit, rel=0.08)

    def test_worker_invariance_and_determinism(self):
        p = _params(beta=0.5, sigma2=1.0, rho=0.2, m=2)
        runs = [
            ratio_convergence_experiment(p, [60], replications=150, seed=4, workers=w)
            for w in (1, 3)
        ]
        assert runs[0] == runs[1]

    def test_eps_fixed_mode_beta_invariance_coupled(self):
        rows = {}
        for beta in (0.0, 1.0):
            p = _params(beta=beta, sigma2=1.0, rho=0.3, m=2)
            (rows[beta],) = ratio_convergence_experiment(
                p, [200], replications=40, seed=5, mode="eps-fixed"
            )
        assert rows[0.0].limit == rows[1.0].limit
        # same seeds and residualized outcomes: estimates nearly coincide
        assert rows[0.0].mean_ratio == pytest.approx(rows[1.0].mean_ratio, rel=0.02)

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            ratio_convergence_experiment(_params(), [5], replications=10, seed=1)
        with pytest.raises(ValidationError):
            ratio_convergence_experiment(_params(), [10], replications=1, seed=1)
        with pytest.raises(ValidationError):
            ratio_convergence_experiment(_params(), [10], replications=10, seed=1, mode="x")
        with pytest.raises(ValidationError, match="seed must be at least 0"):
            ratio_convergence_experiment(_params(), [10], replications=10, seed=-1)

    @pytest.mark.parametrize(
        "grid, message",
        [([10, 7], "even group counts"), ([], "grid is empty")],
        ids=["odd-entry", "empty"],
    )
    def test_grid_checked_before_any_simulation(self, grid, message, monkeypatch):
        # a bad entry after a good one exits before the good one's simulation runs,
        # and an empty grid is refused as flag-curve's empty gamma grid is
        calls = []
        monkeypatch.setattr(analytics, "map_chunks", lambda *args: calls.append(args))
        with pytest.raises(ValidationError, match=message):
            ratio_convergence_experiment(_params(), grid, replications=10, seed=1)
        assert calls == []
