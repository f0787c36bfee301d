"""Bivariate OLS and the two-sided t test.

Every test of a simulated or realized draw runs in the kernel of
:mod:`ssdiag.engines`, which takes each estimator's factor and dof from
:func:`small_sample`, the critical values from :func:`t_crits` and the rule
from :func:`rejects`.  :func:`ols_simple` gives diagnose's beta_hat; the
scalar variances and :func:`t_test` keep those conventions and are the
tests' reference for the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist

import numpy as np

from .errors import DegeneracyError, ValidationError

# A regressor is degenerate when its demeaned sum of squares is at most this
# share of its raw sum of squares (N times its mean square), so ols_simple and
# the test kernel drop the same draws.
DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class RegressionFit:
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
    """Two-sided Student-t critical values at level ``alpha``, one per dof.

    Each is the upper alpha/2 quantile of the t law, within 1e-13 (relative)
    of the exact value for alpha >= 0.001 and within 1e-10 down to 1e-6.
    """
    return tuple(_t_upper_quantile(alpha / 2.0, dof) for dof in dofs)


# At this many dof and above, the Cornish-Fisher expansion of the t quantile
# is within 1e-13 of it for alpha >= 0.001; below, Newton steps on the t
# tail refine it.
_CORNISH_FISHER_DOF = 1000.0


def _t_upper_quantile(q: float, dof: float) -> float:
    """The t such that P(T > t) = q, 0 < q < 1/2, for T ~ t(dof), dof >= 1."""
    if not dof >= 1.0:
        raise ValueError(f"t dof must be at least 1, got {dof}")
    # Cornish-Fisher around the normal quantile z (Abramowitz & Stegun 26.7.5)
    z = -NormalDist().inv_cdf(q)
    z2 = z * z
    g1 = (z2 + 1.0) * z / 4.0
    g2 = ((5.0 * z2 + 16.0) * z2 + 3.0) * z / 96.0
    g3 = (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) * z / 384.0
    g4 = ((((79.0 * z2 + 776.0) * z2 + 1482.0) * z2 - 1920.0) * z2 - 945.0) * z / 92160.0
    t = z + (g1 + (g2 + (g3 + g4 / dof) / dof) / dof) / dof
    if dof >= _CORNISH_FISHER_DOF:
        return t
    # Newton on ln P(T > t) against u = ln t, from the expansion.  With
    # s = t^2/dof and a = dof/2, P(T > t) = I_x(a, 1/2) / 2 for x = 1/(1+s),
    # and x^a (1-x)^(1/2) / B(a, 1/2) = t * pdf(t).
    a = dof / 2.0
    log_beta = _log_beta_half(a)
    log_q = math.log(q)
    u = math.log(t)
    for _ in range(100):
        s = math.exp(2.0 * u) / dof
        log_tpdf = u - 0.5 * math.log(dof) - (a + 0.5) * math.log1p(s) - log_beta
        if s * (dof + 2.0) > 3.0:  # x < (a+1)/(a+5/2): the fraction for I_x(a, 1/2)
            sf_over_tpdf = _beta_cf(1.0 / (1.0 + s), a, 0.5) / dof
            log_sf = log_tpdf + math.log(sf_over_tpdf)
        else:  # the fraction for I_(1-x)(1/2, a) = 1 - 2 P(T > t)
            sf = 0.5 - math.exp(log_tpdf) * _beta_cf(s / (1.0 + s), 0.5, a)
            sf_over_tpdf = sf * math.exp(-log_tpdf)
            log_sf = math.log(sf)
        step = (log_sf - log_q) * sf_over_tpdf
        u += step
        if abs(step) < 1e-11:  # Newton's next error is about step**2
            return math.exp(u)
    raise ArithmeticError(f"t quantile did not converge (q={q}, dof={dof})")


def _log_beta_half(a: float) -> float:
    """ln B(a, 1/2), from a gamma ratio or, for large a, its asymptotic series."""
    if a < 25.0:
        return math.log(math.sqrt(math.pi) * math.gamma(a) / math.gamma(a + 0.5))
    # ln G(a+1/2)/G(a) = ln(a)/2 - 1/(8a) + 1/(192a^3) - 1/(640a^5) + 17/(14336a^7) - ...
    r = 1.0 / (a * a)
    series = (-1.0 / 8.0 + r * (1.0 / 192.0 + r * (-1.0 / 640.0 + r * 17.0 / 14336.0))) / a
    return 0.5 * math.log(math.pi / a) - series


def _beta_cf(x: float, a: float, b: float) -> float:
    """The continued fraction of I_x(a, b), by the modified Lentz method.

    I_x(a, b) = x^a (1-x)^b / (a B(a, b)) times this fraction, which converges
    fast for x < (a+1)/(a+b+2) (Numerical Recipes, section 6.4).
    """
    c, d, h = math.inf, 1.0, 1.0  # the first term sets c = 1, d = h = 1/(1 + num)
    for k in range(1, 2000):
        m = k // 2
        if k % 2:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1.0 / (1.0 + num * d)
        c = 1.0 + num / c
        h *= c * d
        if abs(c * d - 1.0) <= 2.3e-16:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge (x={x}, a={a}, b={b})")


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
    if x.ndim != 1 or y.shape != x.shape:
        raise ValidationError("y and x must be vectors of equal length")
    if x.shape[0] < 3:
        raise ValidationError("need at least 3 observations")
    xbar = x.mean()
    xt = x - xbar
    ssq = float(xt @ xt)
    if ssq <= DEGENERATE_TOL * float(x @ x):
        raise DegeneracyError("degenerate regressor (no variation)")
    ybar = y.mean()
    slope = float(xt @ (y - ybar)) / ssq
    residuals = y - (ybar - slope * xbar) - slope * x
    return RegressionFit(slope, residuals, ssq, xt)


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
    labels, clusters = np.unique(clusters, return_inverse=True)
    factor, dof = small_sample("crve", n, labels.size, 0)
    scores = np.bincount(clusters, weights=fit.x_demeaned * fit.residuals, minlength=labels.size)
    value = factor * float(scores @ scores) / fit.regressor_demeaned_ssq**2
    return VarianceEstimate(value=value, dof=float(dof))


def t_test(
    slope: float, null_value: float, variance: VarianceEstimate, level: float = 0.05
) -> bool:
    """Whether the two-sided t test at ``level`` rejects slope = null_value."""
    if not 0.0 < level < 1.0:
        raise ValidationError("level must be in (0, 1)")
    (crit,) = t_crits(level, (variance.dof,))
    return bool(rejects(slope - null_value, variance.value, crit))
