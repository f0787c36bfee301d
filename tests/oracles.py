"""Independent reference implementations used to pin expected values.

Everything here is computed through a different route than the library:
matrix least squares, explicit sandwich algebra, high-precision special
functions, the p-value form of the two-sided t test, exhaustive enumeration,
the unit-level test kernel, and the scalar forms of the kernel's hc3,
crve-hc3 and score-agg estimators.  Tests compare library output against
these, never the other way around.
"""

from __future__ import annotations

import math
from itertools import combinations

import mpmath
import numpy as np
from scipy import stats

from ssdiag import (
    DegeneracyError,
    PartitionDesign,
    RegressionFit,
    ValidationError,
    VarianceEstimate,
)


def lstsq_fit(y, x):
    """Intercept, slope, residuals, leverages via matrix least squares."""
    X = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    residuals = y - X @ coef
    hat = X @ np.linalg.inv(X.T @ X) @ X.T
    return coef[0], coef[1], residuals, np.diag(hat)


def partition_to_shares(design: PartitionDesign) -> np.ndarray:
    """0/1 share matrix with one 1 per row, at each unit's group column."""
    out = np.zeros((design.n_units, design.n_groups))
    out[np.arange(design.n_units), design.group_of] = 1.0
    return out


def first_half_treated(design: PartitionDesign) -> np.ndarray:
    """Unit-level 0/1 regressor of the fixed assignment that treats groups 0..F/2-1."""
    return (design.group_of < design.n_groups // 2).astype(float)


# ---------------------------------------------------------------------------
# scalar forms of the kernel's hc3, crve-hc3 and score-agg estimators, from a
# library fit; engines.py documents the conventions


def leverages(fit: RegressionFit) -> np.ndarray:
    """Diagonal of the hat matrix of a bivariate fit."""
    xt = fit.x_demeaned
    return 1.0 / fit.n_obs + xt * xt / fit.regressor_demeaned_ssq


def deflated_residuals(fit: RegressionFit) -> np.ndarray:
    h = leverages(fit)
    if np.any(h >= 1.0 - 1e-12):
        raise DegeneracyError("perfect-leverage point")
    return fit.residuals / (1.0 - h)


def var_hc3(fit: RegressionFit) -> VarianceEstimate:
    """HC1 with each residual deflated by its leverage."""
    n = fit.n_obs
    e = deflated_residuals(fit)
    xt = fit.x_demeaned
    value = n / (n - 2) * float(xt * xt @ (e * e)) / fit.regressor_demeaned_ssq**2
    return VarianceEstimate(value=value, dof=float(n - 2))


def var_cr3(fit: RegressionFit, clusters) -> VarianceEstimate:
    """CR1 with each residual deflated by its leverage inside the cluster scores.

    The cluster count is the number of distinct labels.
    """
    labels, index = np.unique(clusters, return_inverse=True)
    n = fit.n_obs
    n_clusters = labels.size
    e = deflated_residuals(fit)
    scores = np.bincount(index, weights=fit.x_demeaned * e, minlength=n_clusters)
    factor = n_clusters / (n_clusters - 1) * (n - 1) / (n - 2)
    value = factor * float(scores @ scores) / fit.regressor_demeaned_ssq**2
    return VarianceEstimate(value=value, dof=float(n_clusters - 1))


def var_score_agg(
    fit: RegressionFit, shares, x_tilde, null_imposed: bool = False
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
    return VarianceEstimate(value=value, dof=float(n_sectors - 1))


def sandwich_slope_variance(x, residual_like, groups=None, factor=1.0):
    """Slope entry of factor * (X'X)^-1 (sum_g s_g s_g') (X'X)^-1.

    ``groups`` maps observations to score-aggregation units (identity when
    omitted); ``residual_like`` supplies the residual entering each score.
    """
    n = x.shape[0]
    X = np.column_stack([np.ones(n), x])
    if groups is None:
        groups = np.arange(n)
    bread = np.linalg.inv(X.T @ X)
    meat = np.zeros((2, 2))
    for g in np.unique(groups):
        idx = groups == g
        score = X[idx].T @ residual_like[idx]
        meat += np.outer(score, score)
    return factor * (bread @ meat @ bread)[1, 1]


def weighted_score_slope_variance(x, residual_like, weights, factor=1.0):
    """Like sandwich_slope_variance but with weighted score aggregation.

    ``weights`` is (N, F); score f sums w_if * x_row_i * r_i over i, with
    x_row the full design row.  Matches sector-level aggregation when the
    regressor is demeaned inside the scores, which the plain design-matrix
    form here reproduces only in the slope entry after bread multiplication.
    """
    n = x.shape[0]
    X = np.column_stack([np.ones(n), x])
    bread = np.linalg.inv(X.T @ X)
    meat = np.zeros((2, 2))
    for f in range(weights.shape[1]):
        score = X.T @ (weights[:, f] * residual_like)
        meat += np.outer(score, score)
    return factor * (bread @ meat @ bread)[1, 1]


def student_t_sf(value, dof):
    """High-precision Student-t survival function via incomplete beta."""
    value = mpmath.mpf(value)
    dof = mpmath.mpf(dof)
    z = dof / (dof + value**2)
    tail = mpmath.betainc(dof / 2, mpmath.mpf(1) / 2, 0, z, regularized=True) / 2
    return tail if value >= 0 else 1 - tail


def student_t_isf(q, dof):
    """The t whose high-precision survival function is ``q``, to 50 digits."""
    with mpmath.workdps(50):
        q = mpmath.mpf(q)
        start = mpmath.mpf(float(stats.t.isf(float(q), dof)))
        return mpmath.findroot(lambda t: student_t_sf(t, dof) - q, start)


def t_test_rejects(slope, null_value, variance: VarianceEstimate, level=0.05) -> bool:
    """The p-value form of the two-sided t test: reject when p <= level.

    p = 2 * sf(|t|) from the high-precision tail; a zero variance gives p = 0
    for a nonzero difference and p = 1 for a zero one.
    """
    diff = slope - null_value
    if variance.value > 0.0:
        statistic = abs(diff) / math.sqrt(variance.value)
        return bool(2 * student_t_sf(statistic, variance.dof) <= level)
    return diff != 0.0


def balanced_assignment_slopes(y, group_of, n_groups):
    """Difference of treated/control unit means for every balanced assignment."""
    y = np.asarray(y, dtype=float)
    out = []
    for treated in combinations(range(n_groups), n_groups // 2):
        mask = np.isin(group_of, treated)
        out.append(y[mask].mean() - y[~mask].mean())
    return np.array(out)


def unit_kernel_counts(y, X, estimators, alpha, clusters=None, shares=None):
    """Rejection counts per estimator and the skipped count, unit by unit.

    The (draws, units) form of the engines' test kernel: every residual,
    leverage and score is formed per unit and aggregated with dense
    cluster and share matrices.  ``clusters`` labels and ``shares`` rows
    are per unit; the cluster count is the number of distinct labels.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    n = y.shape[0]
    dofs = []
    for est in estimators:
        if est in ("robust-hc1", "robust-hc3"):
            dofs.append(n - 2)
        elif est in ("crve", "crve-hc3"):
            dofs.append(np.unique(clusters).size - 1)
        else:
            dofs.append(shares.shape[1] - 1)
    crits = stats.t.ppf(1.0 - alpha / 2.0, np.asarray(dofs, dtype=float))

    xbar = X.mean(axis=1)
    Xc = X - xbar[:, None]
    ssq = np.einsum("bn,bn->b", Xc, Xc)
    usable = ssq > 1e-12 * np.einsum("bn,bn->b", X, X)
    with np.errstate(divide="ignore", invalid="ignore"):
        yc = y - y.mean()
        slope = np.where(usable, (Xc @ yc) / ssq, 0.0)
        E = yc[None, :] - slope[:, None] * Xc
        H = 1.0 / n + Xc * Xc / ssq[:, None]
        D = E / (1.0 - H)
        leverage_ok = ~np.any(H >= 1.0 - 1e-12, axis=1)
        if any(e in ("robust-hc3", "crve-hc3") for e in estimators):
            usable &= leverage_ok

        counts = []
        ssq2 = ssq * ssq
        for est, crit in zip(estimators, crits):
            if est == "robust-hc1":
                value = n / (n - 2) * np.einsum("bn,bn->b", Xc * Xc, E * E) / ssq2
            elif est == "robust-hc3":
                value = n / (n - 2) * np.einsum("bn,bn->b", Xc * Xc, D * D) / ssq2
            elif est in ("crve", "crve-hc3"):
                onehot = (np.asarray(clusters)[:, None] == np.unique(clusters)).astype(float)
                res = E if est == "crve" else D
                scores = (Xc * res) @ onehot
                G = onehot.shape[1]
                factor = G / (G - 1) * (n - 1) / (n - 2)
                value = factor * np.einsum("bg,bg->b", scores, scores) / ssq2
            else:
                res = E + slope[:, None] * Xc if est == "score-agg-null" else E
                scores = (Xc * res) @ shares
                F = shares.shape[1]
                value = F / (F - 1) * np.einsum("bf,bf->b", scores, scores) / ssq2
            tstat = slope / np.sqrt(value)
            reject = np.where(value > 0.0, np.abs(tstat) >= crit, slope != 0.0)
            counts.append(int(np.count_nonzero(reject & usable)))
    return counts, int(np.count_nonzero(~usable))
