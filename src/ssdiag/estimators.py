"""Bivariate OLS and the scalar tests of realized data.

The experiments test each realized sample once, with robust-hc1 or crve; the
simulations test their draws with the vectorized kernel of
:mod:`ssdiag.engines`, which documents the conventions of the estimator menu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DegeneracyError, ValidationError


@dataclass(frozen=True)
class RegressionFit:
    intercept: float
    slope: float
    residuals: np.ndarray
    regressor_demeaned_ssq: float
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
    return RegressionFit(
        intercept=intercept,
        slope=slope,
        residuals=residuals,
        regressor_demeaned_ssq=ssq,
        x_demeaned=xt,
    )


def var_robust(fit: RegressionFit) -> VarianceEstimate:
    """Heteroskedasticity-robust (HC1) slope variance."""
    n = fit.n_obs
    e = fit.residuals
    xt = fit.x_demeaned
    value = n / (n - 2) * float(xt * xt @ (e * e)) / fit.regressor_demeaned_ssq**2
    return VarianceEstimate(estimator="robust-hc1", value=value, dof=float(n - 2))


def var_cluster(fit: RegressionFit, clusters) -> VarianceEstimate:
    """Cluster-robust (CR1) slope variance."""
    clusters = np.asarray(clusters)
    n = fit.n_obs
    if clusters.shape != (n,):
        raise ValidationError("cluster labels do not match the fit")
    n_clusters = int(clusters.max()) + 1
    if n_clusters < 2:
        raise ValidationError("need at least 2 clusters")
    scores = np.bincount(clusters, weights=fit.x_demeaned * fit.residuals, minlength=n_clusters)
    factor = n_clusters / (n_clusters - 1) * (n - 1) / (n - 2)
    value = factor * float(scores @ scores) / fit.regressor_demeaned_ssq**2
    return VarianceEstimate(estimator="crve", value=value, dof=float(n_clusters - 1))


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
