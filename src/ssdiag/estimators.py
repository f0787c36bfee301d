"""Bivariate OLS and the two-sided t test.

The experiments test each realized sample once, with robust-hc1 or crve; the
simulations test their draws with the vectorized kernel of
:mod:`ssdiag.engines`.  Both take each estimator's finite-sample factor and
dof from :func:`small_sample` and decide with the one test defined here:
:func:`t_crits` gives the critical values and :func:`rejects` the rejection
rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .errors import DegeneracyError, ValidationError

# A regressor is degenerate when its demeaned sum of squares is at most this
# share of its raw sum of squares (N times its mean square), so ols_simple and
# the test kernel drop the same draws.
DEGENERATE_TOL = 1e-12


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
    value: float
    dof: float


def small_sample(estimator: str, n: int, n_clusters: int, n_sectors: int) -> tuple[float, int]:
    """The finite-sample factor and t dof of ``estimator`` on ``n`` units.

    robust-hc1 and robust-hc3 take N/(N-2) and dof N-2; crve and crve-hc3
    G/(G-1) * (N-1)/(N-2) and dof G-1, G clusters; score-agg and
    score-agg-null F/(F-1) and dof F-1, F sectors.  The one statement of
    these conventions, for the test kernel and the realized-sample tests.
    """
    if estimator in ("robust-hc1", "robust-hc3"):
        return n / (n - 2), n - 2
    if estimator in ("crve", "crve-hc3"):
        G = n_clusters
        if G < 2:
            raise ValidationError("need at least 2 clusters")
        return G / (G - 1) * (n - 1) / (n - 2), G - 1
    F = n_sectors  # score-agg family
    if F < 2:
        raise ValidationError("need at least 2 sectors")
    return F / (F - 1), F - 1


@lru_cache(maxsize=256)
def t_crits(alpha: float, dofs: tuple[float, ...]) -> tuple[float, ...]:
    """Two-sided Student-t critical values at level ``alpha``, one per dof."""
    return tuple(special.stdtrit(np.asarray(dofs, dtype=float), 1.0 - alpha / 2.0))


def rejects(diff, value, crit) -> np.ndarray:
    """The rejection rule: |diff| / sqrt(value) >= crit, elementwise.

    A zero variance rejects any nonzero ``diff``.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        tstat = diff / np.sqrt(value)
        return np.where(value > 0.0, np.abs(tstat) >= crit, diff != 0.0)


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
    if ssq <= DEGENERATE_TOL * float(x @ x):
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
    e = fit.residuals
    xt = fit.x_demeaned
    factor, dof = small_sample("robust-hc1", fit.n_obs, 0, 0)
    value = factor * float(xt * xt @ (e * e)) / fit.regressor_demeaned_ssq**2
    return VarianceEstimate(value=value, dof=float(dof))


def var_cluster(fit: RegressionFit, clusters) -> VarianceEstimate:
    """Cluster-robust (CR1) slope variance; the cluster count is the number of distinct labels."""
    clusters = np.asarray(clusters)
    n = fit.n_obs
    if clusters.shape != (n,):
        raise ValidationError("cluster labels do not match the fit")
    labels, index = np.unique(clusters, return_inverse=True)
    factor, dof = small_sample("crve", n, labels.size, 0)
    scores = np.bincount(index, weights=fit.x_demeaned * fit.residuals, minlength=labels.size)
    value = factor * float(scores @ scores) / fit.regressor_demeaned_ssq**2
    return VarianceEstimate(value=value, dof=float(dof))


def t_test(
    slope: float,
    null_value: float,
    variance: VarianceEstimate,
    level: float = 0.05,
) -> bool:
    """Whether the two-sided t test at ``level`` rejects slope = null_value."""
    if not 0.0 < level < 1.0:
        raise ValidationError("level must be in (0, 1)")
    (crit,) = t_crits(level, (variance.dof,))
    return bool(rejects(slope - null_value, variance.value, crit))
