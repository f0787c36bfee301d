"""Closed-form randomization-variance ratios and exact enumeration oracles.

For the balanced partition benchmark (equal groups, balanced binary
assignment, equicorrelated within-group errors) the limit of the
unit-level-to-group-level randomization variance ratio has a closed form,
both for y-fixed and for eps-fixed simulations.  This module evaluates
those limits, the exact finite-F variance expressions, and a brute-force
enumeration of the assignment distribution.

Finite-sample note: the displayed variance expressions carry a 1/(F-2)
normalization while the exact enumeration variance carries 1/(F-1), so
formula / enumeration = (F-1)/(F-2) for every outcome vector.  The gap is
documented and tested rather than silently reconciled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import combinations

import numpy as np

from .data import PartitionDesign, contiguous_partition, draw_treatment
from .errors import BudgetError, ValidationError, check_integer
from .estimators import ols_simple
from .parallel import chunk_bounds, map_chunks
from .rng import check_seed, substream

ENUMERATION_CAP = 10**6

_CONVERGENCE_CHUNK = 64


@dataclass(frozen=True)
class StylizedParams:
    """Parameters of the balanced partition benchmark.

    ``rho`` is the within-group error covariance; feasibility requires the
    equicorrelated covariance matrix to be positive semidefinite.
    """

    beta: float
    sigma2: float
    rho: float
    group_size: int

    def __post_init__(self):
        check_integer("group_size", self.group_size)
        if not self.sigma2 > 0.0:
            raise ValidationError("sigma2 must be positive")
        if self.group_size < 1:
            raise ValidationError("group size must be at least 1")
        if self.rho > self.sigma2:
            raise ValidationError("rho cannot exceed sigma2")
        if self.group_size > 1 and self.rho < -self.sigma2 / (self.group_size - 1):
            raise ValidationError("rho makes the within-group covariance indefinite")


def _finite_ratio(num: float, denom: float) -> float:
    """num / denom, refused unless both are finite and denom is positive."""
    if not (math.isfinite(num) and math.isfinite(denom)):
        raise ValidationError("the parameters overflow the closed-form limit")
    if not denom > 0.0:
        raise ValidationError("nonpositive denominator")
    return num / denom


def y_fixed_variance_ratio_limit(p: StylizedParams) -> float:
    """Limit of the unit/group randomization-variance ratio, y-fixed case.

    (beta^2 + 4 sigma^2) / (m beta^2 + 4 sigma^2 + 4 (m-1) rho).  Below one
    whenever a real effect (beta != 0, m > 1) or positive rho is present,
    which is exactly when unit-level robust inference over-rejects in the
    simulations.
    """
    try:
        beta2 = p.beta**2
    except OverflowError:  # a float power raises where a product gives inf
        beta2 = math.inf
    return _finite_ratio(
        beta2 + 4.0 * p.sigma2,
        p.group_size * beta2 + 4.0 * p.sigma2 + 4.0 * (p.group_size - 1) * p.rho,
    )


def eps_fixed_variance_ratio_limit(p: StylizedParams) -> float:
    """Limit of the same ratio for eps-fixed simulations.

    sigma^2 / (sigma^2 + (m-1) rho); free of beta, which is the point of
    residualizing the outcome before simulating.
    """
    return _finite_ratio(p.sigma2, p.sigma2 + (p.group_size - 1) * p.rho)


def _group_means(y: np.ndarray, design: PartitionDesign) -> np.ndarray:
    return np.bincount(design.group_of, weights=y, minlength=design.n_groups) / design.group_size


def randomization_variance_true(y, design: PartitionDesign) -> float:
    """Exact-form variance of the group-assignment slope: 4/(F(F-2)) * sum_f (ybar_f - ybar)^2."""
    y = np.asarray(y, dtype=float)
    n_groups = design.n_groups
    if n_groups <= 2:
        raise ValidationError("need more than 2 groups")
    if y.shape[0] != design.n_units:
        raise ValidationError("outcome length does not match the design")
    dev = _group_means(y, design) - y.mean()
    return 4.0 / (n_groups * (n_groups - 2)) * float(dev @ dev)


def randomization_variance_robust(y, design: PartitionDesign) -> float:
    """Unit-level-assignment counterpart: 4/(N(N-2)) * sum_i (y_i - ybar)^2."""
    y = np.asarray(y, dtype=float)
    n = design.n_units
    if n <= 2:
        raise ValidationError("need more than 2 units")
    if y.shape[0] != n:
        raise ValidationError("outcome length does not match the design")
    dev = y - y.mean()
    return 4.0 / (n * (n - 2)) * float(dev @ dev)


@dataclass(frozen=True)
class EnumerationResult:
    mean: float
    variance: float
    n_assignments: int


def enumerate_assignment_variance(y, design: PartitionDesign) -> EnumerationResult:
    """Exact mean and variance of the slope over all balanced assignments.

    The slope of y on a balanced binary treatment equals the difference of
    treated and control unit means, so each assignment is evaluated from
    precomputed group sums.  Refuses (rather than samples) past
    ENUMERATION_CAP assignments, keeping oracle semantics exact.
    """
    y = np.asarray(y, dtype=float)
    n_groups = design.n_groups
    if y.shape[0] != design.n_units:
        raise ValidationError("outcome length does not match the design")
    n_assignments = math.comb(n_groups, n_groups // 2)
    if n_assignments > ENUMERATION_CAP:
        raise BudgetError(
            f"{n_assignments} assignments exceed the enumeration cap of {ENUMERATION_CAP}"
        )
    group_sums = np.bincount(design.group_of, weights=y, minlength=n_groups)
    total = group_sums.sum()
    half_units = design.group_size * n_groups / 2.0
    values = np.empty(n_assignments)
    for i, treated in enumerate(combinations(range(n_groups), n_groups // 2)):
        treated_sum = group_sums[list(treated)].sum()
        values[i] = (2.0 * treated_sum - total) / half_units
    return EnumerationResult(
        mean=float(values.mean()),
        variance=float(values.var()),
        n_assignments=n_assignments,
    )


# ---------------------------------------------------------------------------
# Monte Carlo convergence of the empirical ratio to its closed form


@dataclass(frozen=True)
class ConvergenceRow:
    n_groups: int
    mean_ratio: float
    se_ratio: float
    limit: float


def draw_equicorrelated_errors(
    rng: np.random.Generator, n_groups: int, p: StylizedParams
) -> np.ndarray:
    """Errors with variance sigma2 and within-group covariance rho.

    For rho >= 0 a shared group component plus idiosyncratic noise matches the
    moments; negative rho falls back to an eigenvalue factorization of the
    equicorrelated covariance (PSD by the StylizedParams invariant).
    """
    m = p.group_size
    if m == 1:
        return math.sqrt(p.sigma2) * rng.standard_normal(n_groups)
    if p.rho >= 0.0:
        shared = rng.standard_normal(n_groups)
        own = rng.standard_normal(n_groups * m)
        return math.sqrt(p.rho) * np.repeat(shared, m) + math.sqrt(p.sigma2 - p.rho) * own
    cov = np.full((m, m), p.rho)
    np.fill_diagonal(cov, p.sigma2)
    eigval, eigvec = np.linalg.eigh(cov)
    factor = eigvec * np.sqrt(np.clip(eigval, 0.0, None))
    return (rng.standard_normal((n_groups, m)) @ factor.T).ravel()


def _ratio_chunk(p, designs, replications, seed, mode, bounds) -> np.ndarray:
    # pair g is replication g % replications of grid point g // replications
    lo, hi = bounds
    out = np.empty(hi - lo)
    for g in range(lo, hi):
        f_index, rep = divmod(g, replications)
        design = designs[f_index]
        rng = substream(seed, f_index, rep)
        x = draw_treatment(design, rng)[design.group_of]
        errors = draw_equicorrelated_errors(rng, design.n_groups, p)
        y = p.beta * x + errors
        if mode == "eps-fixed":
            y = y - ols_simple(y, x).slope * x
        v_robust = randomization_variance_robust(y, design)
        out[g - lo] = v_robust / randomization_variance_true(y, design)
    return out


def ratio_convergence_experiment(
    p: StylizedParams,
    f_grid,
    replications: int,
    seed: int,
    mode: str = "y-fixed",
    workers: int = 1,
) -> list[ConvergenceRow]:
    """Empirical unit/group variance ratio along a growing-F sequence.

    For each F, draws balanced assignments and equicorrelated errors, builds
    the outcomes with the configured effect, evaluates both exact-form
    variances (on residualized outcomes in eps-fixed mode), and averages the
    ratio across replications next to the closed-form limit.  Every grid
    entry is checked before the first simulation runs, and every (grid
    point, replication) pair runs through one map_chunks call.
    """
    if mode not in ("y-fixed", "eps-fixed"):
        raise ValidationError(f"unknown mode {mode!r}")
    check_integer("replications", replications)
    if replications < 2:
        raise ValidationError("need at least 2 replications")
    check_integer("seed", seed)
    check_seed(seed)
    limit_fn = (
        y_fixed_variance_ratio_limit if mode == "y-fixed" else eps_fixed_variance_ratio_limit
    )
    limit = limit_fn(p)
    grid = list(f_grid)
    for n_groups in grid:
        check_integer("f_grid", n_groups)
    if not grid:
        raise ValidationError("group-count grid is empty")
    if any(n_groups % 2 or n_groups <= 2 for n_groups in grid):
        raise ValidationError("grid entries must be even group counts above 2")
    designs = [contiguous_partition(n_groups, p.group_size) for n_groups in grid]
    chunk = partial(_ratio_chunk, p, designs, replications, seed, mode)
    bounds = chunk_bounds(len(grid) * replications, _CONVERGENCE_CHUNK)
    ratios = np.concatenate(map_chunks(chunk, bounds, workers)).reshape(len(grid), -1)
    return [
        ConvergenceRow(
            n_groups=n_groups,
            mean_ratio=float(row.mean()),
            se_ratio=float(row.std(ddof=1) / math.sqrt(replications)),
            limit=limit,
        )
        for n_groups, row in zip(grid, ratios)
    ]
