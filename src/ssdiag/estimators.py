"""Bivariate OLS and the menu of slope-variance estimators.

All variances target the slope of y = b0 + b1*x.  Small-sample factors:

* robust-hc1: N/(N-2) * sum(xt_i^2 e_i^2) / (sum xt_i^2)^2, dof N-2
* robust-hc3: same with e_i replaced by e_i/(1-h_ii)
* crve (CR1): G/(G-1) * (N-1)/(N-2) * sum_g S_g^2 / (sum xt_i^2)^2,
  S_g = sum_{i in g} xt_i e_i, dof G-1
* crve-hc3: CR1 with per-observation leverage deflation e_i/(1-h_ii)
  inside the cluster scores.  NOTE: this is NOT the full-block CR3
  inverse-projection correction; the per-observation form keeps O(N)
  cost and coincides with it only for singleton clusters.
* score-agg: sector-level aggregation R_f = sum_i w_if xt_i r_i with
  r_i = e_i, value F/(F-1) * sum_f R_f^2 / (sum xt_i^2)^2, dof F-1
* score-agg-null: same with r_i rebuilt under the null slope 0
  (r_i = y_i - ybar, i.e. intercept refit, slope forced to zero)

On a partition share matrix the sector scores equal group-level cluster
scores, so score-agg = crve(groups) * (N-2)/(N-1) exactly; the engines'
test suite pins that equivalence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DegeneracyError, ValidationError

ESTIMATORS = (
    "robust-hc1",
    "robust-hc3",
    "crve",
    "crve-hc3",
    "score-agg",
    "score-agg-null",
)


@dataclass(frozen=True)
class RegressionFit:
    intercept: float
    slope: float
    residuals: np.ndarray
    regressor_demeaned_ssq: float
    leverages: np.ndarray
    x_demeaned: np.ndarray

    @property
    def n_obs(self) -> int:
        return self.residuals.shape[0]


@dataclass(frozen=True)
class VarianceEstimate:
    estimator: str
    value: float
    dof: float


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    reject: bool
    degenerate: bool = False


def regressor_degenerate_tol(x: np.ndarray) -> float:
    """Threshold below which the demeaned sum of squares counts as zero.

    Scales with N times the mean square of the raw regressor (written as the
    raw sum of squares so the scalar and vectorized paths agree exactly).
    """
    x = np.asarray(x, dtype=float)
    return 1e-12 * float(x @ x)


def ols_simple(y, x) -> RegressionFit:
    """Least-squares fit of y on an intercept and a single regressor."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.shape != x.shape or y.ndim != 1:
        raise ValidationError("y and x must be vectors of equal length")
    n = y.shape[0]
    if n < 3:
        raise ValidationError("need at least 3 observations")
    xbar = x.mean()
    xt = x - xbar
    ssq = float(xt @ xt)
    if ssq <= regressor_degenerate_tol(x):
        raise DegeneracyError("degenerate regressor (no variation)")
    ybar = y.mean()
    slope = float(xt @ (y - ybar)) / ssq
    intercept = ybar - slope * xbar
    residuals = y - intercept - slope * x
    leverages = 1.0 / n + xt * xt / ssq
    return RegressionFit(
        intercept=intercept,
        slope=slope,
        residuals=residuals,
        regressor_demeaned_ssq=ssq,
        leverages=leverages,
        x_demeaned=xt,
    )


def _deflated_residuals(fit: RegressionFit) -> np.ndarray:
    if np.any(fit.leverages >= 1.0 - 1e-12):
        raise DegeneracyError("perfect-leverage point")
    return fit.residuals / (1.0 - fit.leverages)


def var_robust(fit: RegressionFit, flavor: str = "hc1") -> VarianceEstimate:
    """Heteroskedasticity-robust slope variance (hc1 or hc3)."""
    if flavor not in ("hc1", "hc3"):
        raise ValidationError(f"unknown robust flavor {flavor!r}")
    n = fit.n_obs
    e = fit.residuals if flavor == "hc1" else _deflated_residuals(fit)
    xt = fit.x_demeaned
    ssq = fit.regressor_demeaned_ssq
    value = n / (n - 2) * float(xt * xt @ (e * e)) / ssq**2
    return VarianceEstimate(
        estimator="robust-hc1" if flavor == "hc1" else "robust-hc3",
        value=value,
        dof=float(n - 2),
    )


def var_cluster(fit: RegressionFit, clusters, flavor: str = "cr1") -> VarianceEstimate:
    """Cluster-robust slope variance (cr1, or cr3 with leverage deflation)."""
    if flavor not in ("cr1", "cr3"):
        raise ValidationError(f"unknown cluster flavor {flavor!r}")
    clusters = np.asarray(clusters)
    n = fit.n_obs
    if clusters.shape != (n,):
        raise ValidationError("cluster labels do not match the fit")
    n_clusters = int(clusters.max()) + 1
    if n_clusters < 2:
        raise ValidationError("need at least 2 clusters")
    e = fit.residuals if flavor == "cr1" else _deflated_residuals(fit)
    scores = np.bincount(clusters, weights=fit.x_demeaned * e, minlength=n_clusters)
    factor = n_clusters / (n_clusters - 1) * (n - 1) / (n - 2)
    value = factor * float(scores @ scores) / fit.regressor_demeaned_ssq**2
    return VarianceEstimate(
        estimator="crve" if flavor == "cr1" else "crve-hc3",
        value=value,
        dof=float(n_clusters - 1),
    )


def var_score_agg(
    fit: RegressionFit,
    shares,
    x_tilde,
    null_imposed: bool = False,
) -> VarianceEstimate:
    """Sector-score-aggregation slope variance for shift-share regressors.

    Sector scores R_f = sum_i w_if * xt_i * r_i allow for cross-region error
    correlation induced by shared shocks.  With ``null_imposed`` the residual
    source is rebuilt with the slope forced to zero (r_i = y_i - ybar, which
    equals e_i + slope * xt_i).
    """
    shares = np.asarray(shares, dtype=float)
    x_tilde = np.asarray(x_tilde, dtype=float)
    n = fit.n_obs
    if shares.ndim != 2 or shares.shape[0] != n:
        raise ValidationError("shares do not match the fit")
    n_sectors = shares.shape[1]
    if n_sectors < 2:
        raise ValidationError("need at least 2 sectors")
    r = fit.residuals + fit.slope * x_tilde if null_imposed else fit.residuals
    scores = (x_tilde * r) @ shares
    value = n_sectors / (n_sectors - 1) * float(scores @ scores) / fit.regressor_demeaned_ssq**2
    return VarianceEstimate(
        estimator="score-agg-null" if null_imposed else "score-agg",
        value=value,
        dof=float(n_sectors - 1),
    )


def t_test(
    slope: float,
    null_value: float,
    variance: VarianceEstimate,
    level: float = 0.05,
) -> TestResult:
    """Two-sided t test of slope = null_value against a Student-t reference.

    A zero variance with a nonzero slope difference is reported as a
    degenerate rejection (p = 0), not an error.
    """
    if not 0.0 < level < 1.0:
        raise ValidationError("level must be in (0, 1)")
    diff = slope - null_value
    if variance.value > 0.0:
        statistic = diff / math.sqrt(variance.value)
        p_value = 2.0 * float(special.stdtr(variance.dof, -abs(statistic)))
        return TestResult(statistic=statistic, p_value=p_value, reject=p_value <= level)
    if diff == 0.0:
        return TestResult(statistic=0.0, p_value=1.0, reject=False)
    return TestResult(
        statistic=math.copysign(math.inf, diff),
        p_value=0.0,
        reject=True,
        degenerate=True,
    )
