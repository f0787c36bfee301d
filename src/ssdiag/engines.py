"""Design-based simulation engines.

Three outcome-fixed procedures for shift-share data (y-fixed, eps-fixed,
placebo) plus a treatment-permutation engine for partition designs.  Each
replication resamples the regressor, refits the bivariate OLS, and tests a
zero slope with every requested variance estimator; reports carry rejection
frequencies.

The test kernel works on cells, sets of units that share one regressor
value: a unit for shift-share data, a group for a partition design, so a
permutation draw costs O(groups) rather than O(units).

Determinism contract: replications are drawn in fixed chunks of 256, chunk c
draws from substream(seed, c) only, and rejection counts are integers, so
reports are identical for any worker count or execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations

import numpy as np
from scipy import stats

from .data import SHOCK_LAWS, Dataset, PartitionDesign, unit_treatment
from .errors import ValidationError
from .estimators import ESTIMATORS
from .parallel import chunk_bounds, map_chunks
from .rng import substream

_CHUNK = 256
_EXHAUSTIVE_MAX_GROUPS = 12


@dataclass(frozen=True)
class SimConfig:
    """Replication budget and test menu for one simulation run."""

    replications: int
    seed: int
    shock_law: str = "iid-standard-normal"
    alpha: float = 0.05
    estimators: tuple[str, ...] = ("robust-hc1",)
    flag_threshold: float = 0.1

    def __post_init__(self):
        if self.replications < 1:
            raise ValidationError("need at least 1 replication")
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError("alpha must be in (0, 1)")
        if self.shock_law not in SHOCK_LAWS:
            raise ValidationError(f"unknown shock law {self.shock_law!r}")
        if not self.estimators:
            raise ValidationError("estimator menu is empty")
        unknown = [e for e in self.estimators if e not in ESTIMATORS]
        if unknown:
            raise ValidationError(f"unknown estimators {unknown}")


def flagged(rate: float, threshold: float) -> bool:
    """The flag rule: a rejection rate flags a problem when it reaches the threshold."""
    return bool(rate >= threshold)


@dataclass(frozen=True)
class SimReport:
    """Per-estimator rejection tallies for one simulation run."""

    mode: str
    seed: int
    replications: int
    b_effective: int
    skipped_degenerate: int
    rejections: dict[str, int]
    rates: dict[str, float]


# ---------------------------------------------------------------------------
# regressor draws; bounds come from chunk_bounds(replications, _CHUNK), so
# lo // _CHUNK is the chunk index


def _draw_shocks(law: str, rows: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """A (rows, n) block of shock vectors under the named law (parity checked here)."""
    if law == "iid-standard-normal":
        return rng.standard_normal((rows, n))
    if law == "balanced-binary":
        if n % 2:
            raise ValidationError("balanced-binary shocks require an even sector count")
        return rng.permuted(np.tile(np.repeat([1.0, 0.0], n // 2), (rows, 1)), axis=1)
    raise ValidationError(f"unknown shock law {law!r}")


def _shares_regressors(shares, law, seed, lo, hi) -> np.ndarray:
    shocks = _draw_shocks(law, hi - lo, shares.shape[1], substream(seed, lo // _CHUNK))
    return shocks @ shares.T


def _partition_regressors(n_groups, seed, lo, hi) -> np.ndarray:
    """Group-level 0/1 treatment, exactly n_groups/2 treated groups per row."""
    return _draw_shocks("balanced-binary", hi - lo, n_groups, substream(seed, lo // _CHUNK))


def enumerate_balanced_assignments(n_groups: int) -> np.ndarray:
    """All C(F, F/2) balanced treated sets as a boolean matrix."""
    if n_groups % 2:
        raise ValidationError("balanced assignment requires an even group count")
    if n_groups > _EXHAUSTIVE_MAX_GROUPS:
        raise ValidationError(
            f"exhaustive mode supports at most {_EXHAUSTIVE_MAX_GROUPS} groups"
        )
    rows = np.zeros((math.comb(n_groups, n_groups // 2), n_groups), dtype=bool)
    for i, treated in enumerate(combinations(range(n_groups), n_groups // 2)):
        rows[i, list(treated)] = True
    return rows


# ---------------------------------------------------------------------------
# cell-level test kernel


@dataclass(frozen=True)
class _Kernel:
    """Per-cell statistics for testing a zero slope over a block of draws.

    A cell is a set of units that share one regressor value in every draw:
    a unit for shift-share data, a group for a partition design.  Cells nest
    in clusters, and every unit of a cell has the same shares.
    """

    n: int  # units
    m: np.ndarray  # (C,) cell sizes
    S: np.ndarray  # (C,) cell sums of the centred outcome
    W: np.ndarray  # (C,) within-cell sums of squares about the cell mean
    estimators: tuple[str, ...]
    crits: np.ndarray  # t critical value per estimator
    cluster_onehot: np.ndarray | None  # (C, G)
    shares: np.ndarray | None  # (C, F)


@lru_cache(maxsize=256)
def _t_crits(alpha: float, dofs: tuple[int, ...]) -> tuple[float, ...]:
    return tuple(stats.t.ppf(1.0 - alpha / 2.0, np.asarray(dofs, dtype=float)))


def _make_kernel(y, estimators, alpha, clusters, shares, cells=None) -> _Kernel:
    """Kernel for outcomes y over units grouped into cells.

    ``cells`` maps each unit to its cell (None: every unit is a cell);
    ``clusters`` labels and ``shares`` rows are given per cell.
    """
    n = y.shape[0]
    if n < 3:
        raise ValidationError("need at least 3 observations")
    yc = y - y.mean()
    if cells is None:
        m, S, W = np.ones(n), yc, np.zeros(n)
    else:
        m = np.bincount(cells).astype(float)
        S = np.bincount(cells, weights=yc)
        W = np.bincount(cells, weights=(yc - (S / m)[cells]) ** 2)
    n_cells = m.shape[0]
    cluster_onehot = None
    dofs = []
    for est in estimators:
        if est in ("robust-hc1", "robust-hc3"):
            dofs.append(n - 2)
        elif est in ("crve", "crve-hc3"):
            if clusters is None:
                raise ValidationError(f"{est} requires cluster labels")
            n_clusters = int(clusters.max()) + 1
            if n_clusters < 2:
                raise ValidationError("need at least 2 clusters")
            if cluster_onehot is None:
                cluster_onehot = np.zeros((n_cells, n_clusters))
                cluster_onehot[np.arange(n_cells), clusters] = 1.0
            dofs.append(n_clusters - 1)
        else:  # score-agg family
            if shares is None:
                raise ValidationError(f"{est} requires a share matrix")
            if shares.shape[1] < 2:
                raise ValidationError("need at least 2 sectors")
            dofs.append(shares.shape[1] - 1)
    return _Kernel(
        n=n,
        m=m,
        S=S,
        W=W,
        estimators=tuple(estimators),
        crits=np.array(_t_crits(alpha, tuple(dofs))),
        cluster_onehot=cluster_onehot,
        shares=shares,
    )


def _kernel_counts(kernel: _Kernel, X: np.ndarray) -> tuple[np.ndarray, int]:
    """Rejection counts per estimator plus the skipped-replication count.

    ``X`` is (draws, cells).  With xc a cell's centred regressor and
    e = S - slope*m*xc the sum of its residuals, a cell's residual sum of
    squares is W + e**2/m, its score is xc*e, and its leverage
    1/n + xc**2/ssq is shared by its units, so each draw costs O(cells).
    tests/oracles.py keeps the unit-level form, and the engine tests pin
    agreement with it and with the scalar path (ols_simple + var_* + t_test).
    """
    n, m, S, W = kernel.n, kernel.m, kernel.S, kernel.W
    Xc = X - ((X @ m) / n)[:, None]
    ssq = (Xc * Xc) @ m
    usable = ssq > 1e-12 * ((X * X) @ m)

    # (draws, cells) temporaries set peak memory at large N, hence the in-place updates
    need_leverage = any(e in ("robust-hc3", "crve-hc3") for e in kernel.estimators)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(usable, (Xc @ S) / ssq, 0.0)
        E = slope[:, None] * m  # becomes the cell residual sums S - slope*m*xc
        E *= Xc
        np.subtract(S, E, out=E)
        if need_leverage:
            deflate = Xc * Xc / ssq[:, None] + 1.0 / n  # becomes 1 / (1 - leverage)
            usable &= ~np.any(deflate >= 1.0 - 1e-12, axis=1)
            np.divide(1.0, 1.0 - deflate, out=deflate)

        counts = np.zeros(len(kernel.estimators), dtype=np.int64)
        ssq2 = ssq * ssq
        for k, est in enumerate(kernel.estimators):
            if est in ("robust-hc1", "robust-hc3"):
                terms = E * E / m + W  # residual sums of squares
                terms *= Xc
                terms *= Xc
                if est == "robust-hc3":
                    terms *= deflate
                    terms *= deflate
                value = n / (n - 2) * terms.sum(axis=1) / ssq2
            elif est in ("crve", "crve-hc3"):
                scores = Xc * E
                if est == "crve-hc3":
                    scores *= deflate
                scores = scores @ kernel.cluster_onehot
                G = kernel.cluster_onehot.shape[1]
                factor = G / (G - 1) * (n - 1) / (n - 2)
                value = factor * np.einsum("bg,bg->b", scores, scores) / ssq2
            else:  # score-agg / score-agg-null; null residuals sum to S per cell
                scores = (Xc * S if est == "score-agg-null" else Xc * E) @ kernel.shares
                F = kernel.shares.shape[1]
                value = F / (F - 1) * np.einsum("bf,bf->b", scores, scores) / ssq2
            tstat = slope / np.sqrt(value)
            reject = np.where(value > 0.0, np.abs(tstat) >= kernel.crits[k], slope != 0.0)
            counts[k] = int(np.count_nonzero(reject & usable))

    return counts, int(np.count_nonzero(~usable))


def _sim_chunk(kernel, draw, bounds) -> tuple[np.ndarray, int]:
    X = draw(*bounds)
    return _kernel_counts(kernel, X)


def _run_sim(
    y, mode, cfg, workers, draw, clusters, shares, regressors=None, cells=None
) -> SimReport:
    kernel = _make_kernel(
        np.asarray(y, dtype=float), cfg.estimators, cfg.alpha, clusters, shares, cells
    )
    if regressors is not None:
        n_reps = regressors.shape[0]
        results = [_kernel_counts(kernel, regressors)]
    else:
        n_reps = cfg.replications
        bounds = chunk_bounds(n_reps, _CHUNK)
        results = map_chunks(partial(_sim_chunk, kernel, draw), bounds, workers)
    counts = np.zeros(len(cfg.estimators), dtype=np.int64)
    skipped = 0
    for chunk_counts, chunk_skipped in results:
        counts += chunk_counts
        skipped += chunk_skipped
    b_effective = n_reps - skipped
    rejections = {est: int(c) for est, c in zip(cfg.estimators, counts)}
    rates = {
        est: (c / b_effective if b_effective else 0.0) for est, c in rejections.items()
    }
    return SimReport(
        mode=mode,
        seed=cfg.seed,
        replications=n_reps,
        b_effective=b_effective,
        skipped_degenerate=skipped,
        rejections=rejections,
        rates=rates,
    )


# ---------------------------------------------------------------------------
# public engines


def run_y_fixed(data: Dataset, cfg: SimConfig, workers: int = 1) -> SimReport:
    """Hold the realized outcomes fixed and resample sector shocks."""
    if cfg.shock_law == "balanced-binary" and data.n_sectors % 2:
        raise ValidationError("balanced-binary shocks require an even sector count")
    draw = partial(_shares_regressors, data.shares, cfg.shock_law, cfg.seed)
    return _run_sim(data.y, "y-fixed", cfg, workers, draw, data.clusters, data.shares)


def run_eps_fixed(
    data: Dataset,
    x_realized,
    beta_hat: float,
    cfg: SimConfig,
    workers: int = 1,
) -> SimReport:
    """Resample shocks holding the residualized outcome y - beta_hat*x fixed."""
    x_realized = np.asarray(x_realized, dtype=float)
    if x_realized.shape != data.y.shape:
        raise ValidationError("realized regressor does not match outcomes")
    if cfg.shock_law == "balanced-binary" and data.n_sectors % 2:
        raise ValidationError("balanced-binary shocks require an even sector count")
    ydot = data.y - beta_hat * x_realized
    draw = partial(_shares_regressors, data.shares, cfg.shock_law, cfg.seed)
    return _run_sim(ydot, "eps-fixed", cfg, workers, draw, data.clusters, data.shares)


def run_placebo(data: Dataset, cfg: SimConfig, workers: int = 1) -> SimReport:
    """y-fixed simulation on the pre-treatment outcome."""
    if data.y_placebo is None:
        raise ValidationError("placebo outcome missing")
    if cfg.shock_law == "balanced-binary" and data.n_sectors % 2:
        raise ValidationError("balanced-binary shocks require an even sector count")
    draw = partial(_shares_regressors, data.shares, cfg.shock_law, cfg.seed)
    return _run_sim(
        data.y_placebo, "placebo", cfg, workers, draw, data.clusters, data.shares
    )


def run_partition_permutation(
    y,
    design: PartitionDesign,
    mode: str,
    cfg: SimConfig,
    beta_hat: float | None = None,
    workers: int = 1,
    exhaustive: bool = False,
) -> SimReport:
    """Resample balanced group-level assignments for a partition design.

    ``mode`` selects the fixed outcome: the realized y, or the residualized
    y - beta_hat * treatment (``beta_hat`` required).  With ``exhaustive``
    every balanced assignment is evaluated exactly once (small designs only),
    replacing the replication budget.
    """
    y = np.asarray(y, dtype=float)
    if y.shape[0] != design.n_units:
        raise ValidationError("outcome length does not match the design")
    if mode not in ("y-fixed", "eps-fixed"):
        raise ValidationError(f"unknown mode {mode!r}")
    if mode == "eps-fixed":
        if beta_hat is None:
            raise ValidationError("eps-fixed mode requires beta_hat")
        y = y - beta_hat * unit_treatment(design)

    # cells are groups, which double as the clusters and as one-hot shares
    n_groups = design.n_groups
    clusters = np.arange(n_groups)
    needs_shares = any(e.startswith("score-agg") for e in cfg.estimators)
    shares = np.eye(n_groups) if needs_shares else None

    if exhaustive:
        regressors = enumerate_balanced_assignments(n_groups).astype(float)
        return _run_sim(
            y, mode, cfg, workers, None, clusters, shares,
            regressors=regressors, cells=design.group_of,
        )

    draw = partial(_partition_regressors, n_groups, cfg.seed)
    return _run_sim(y, mode, cfg, workers, draw, clusters, shares, cells=design.group_of)
