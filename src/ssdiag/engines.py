"""Design-based simulation engines.

Both engines hold K outcome vectors fixed and test every outcome, each with
its own estimator menu, against the same block of resampled regressors; the
caller forms the outcomes.  The outcome-fixed engine for shift-share data
resamples iid standard normal sector shocks: one block tests the realized y
(y-fixed) with the requested menu and the residualized y - beta_hat*x
(eps-fixed) and the pre-treatment outcome (placebo) with crve, and the
flagging experiment both modes at every confound strength.  The
treatment-permutation engine resamples the balanced assignment of a
partition design, for the grouped experiment's y-fixed and eps-fixed
outcomes.  Each replication refits the bivariate OLS and tests a zero slope
with every requested variance estimator; reports carry rejection
frequencies.

A draw is a (draws, sectors) block: sector shocks, or a partition design's
group-level assignments, whose groups are its sectors.  The test kernel maps
it to cells, sets of units that share one regressor value: a unit for
shift-share data, a group for a partition design, so a permutation draw
costs O(groups) rather than O(units).  It makes one pass per block of draws
for all K outcomes and forms each outcome's cell scores once for all its
estimators.  Cluster scores are sums over the cells sorted by cluster, or,
for crve on shift-share data with sectors * clusters <= cells, sector-space
products that skip the cell scores.  It walks a block in row sub-blocks of
bounded size, so beyond the block's (draws, cells) regressors its memory
stays bounded as the cell count grows.

Determinism contract: replications are drawn in fixed chunks of 256, chunk c
draws from substream(seed, c) only, and rejection counts are integers, so
reports are identical for any worker count or execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .data import Dataset, PartitionDesign
from .errors import ValidationError
from .estimators import DEGENERATE_TOL, rejects, small_sample, t_crits
from .parallel import chunk_bounds, map_chunks
from .rng import substream

_CHUNK = 256
# Byte budget of one (rows, cells) temporary of the test kernel: a whole chunk
# up to 512 cells, 13 rows at 10,000 cells.
_KERNEL_BYTES = 1 << 20


@dataclass(frozen=True)
class SimConfig:
    """Replication budget and test menu for one simulation run."""

    replications: int
    seed: int
    alpha: float = 0.05
    estimators: tuple[str, ...] = ("robust-hc1",)
    flag_threshold: float = 0.1

    def __post_init__(self):
        if self.replications < 1:
            raise ValidationError("need at least 1 replication")
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError("alpha must be in (0, 1)")
        if not 0.0 <= self.flag_threshold <= 1.0:
            raise ValidationError("flag threshold must be in [0, 1]")
        if not self.estimators:
            raise ValidationError("estimator menu is empty")
        unknown = [e for e in self.estimators if e not in ESTIMATORS]
        if unknown:
            raise ValidationError(f"unknown estimators {unknown}")
        repeated = sorted({e for e in self.estimators if self.estimators.count(e) > 1})
        if repeated:
            raise ValidationError(f"repeated estimators {repeated}")


def flagged(rate: float, threshold: float) -> bool:
    """The flag rule: a rejection rate flags a problem when it reaches the threshold."""
    return bool(rate >= threshold)


def mc_se(rate: float, n: int) -> float:
    """Monte Carlo standard error of a rate counted over ``n`` draws (0.0 when n is 0)."""
    return math.sqrt(rate * (1.0 - rate) / n) if n else 0.0


@dataclass(frozen=True)
class SimReport:
    """Per-estimator rejection tallies for one simulation run."""

    seed: int
    replications: int
    b_effective: int
    skipped_degenerate: int
    rejections: dict[str, int]
    rates: dict[str, float]


# ---------------------------------------------------------------------------
# regressor draws; bounds come from chunk_bounds(replications, _CHUNK), so
# lo // _CHUNK is the chunk index


def _shares_regressors(shares, seed, lo, hi) -> np.ndarray:
    """iid standard normal sector shocks, (draws, sectors); the kernel maps them to regions."""
    return substream(seed, lo // _CHUNK).standard_normal((hi - lo, shares.shape[1]))


def _partition_regressors(n_groups, seed, lo, hi) -> np.ndarray:
    """Group-level 0/1 treatment, exactly n_groups/2 treated groups per row (n_groups even)."""
    half = np.tile(np.repeat([1.0, 0.0], n_groups // 2), (hi - lo, 1))
    return substream(seed, lo // _CHUNK).permuted(half, axis=1)


# ---------------------------------------------------------------------------
# cell-level test kernel

# The estimator menu of the test kernel.  Every variance targets the slope of
# y = b0 + b1*x; estimators.small_sample gives each one's finite-sample factor
# and t dof.  crve-hc3 deflates each observation's residual by 1/(1-h_ii)
# inside the cluster scores: it is NOT the full-block CR3 inverse-projection
# correction, which it matches only for singleton clusters.  On a partition
# share matrix the sector scores equal group-level cluster scores, so
# score-agg = crve(groups) * (N-2)/(N-1) exactly; the test suite pins that
# equivalence.
ESTIMATORS = (
    "robust-hc1",
    "robust-hc3",
    "crve",
    "crve-hc3",
    "score-agg",
    "score-agg-null",
)


@dataclass(frozen=True)
class _Design:
    """Cell-level terms shared by every outcome tested on one design.

    A cell is a set of units that share one regressor value in every draw:
    a unit for shift-share data, a group for a partition design.  Cells nest
    in clusters, and every unit of a cell has the same shares.
    """

    n: int  # units
    m: np.ndarray  # (C,) cell sizes
    shares: np.ndarray | None  # (C, F); None: each cell is its own sector
    order: np.ndarray | None  # cells sorted by cluster; None: already sorted
    starts: np.ndarray | None  # (G,) first sorted cell of each cluster


@dataclass(frozen=True)
class _Outcome:
    """One fixed outcome: its cell terms, estimator menu, factors and critical values."""

    S: np.ndarray  # (C,) cell sums of the centred outcome
    W: np.ndarray | None  # (C,) within-cell sums of squares; None: one unit per cell
    estimators: tuple[str, ...]
    factors: tuple[float, ...]  # finite-sample factor per estimator
    crits: np.ndarray  # t critical value per estimator
    # score-agg-null in sector space: shares' diag(S) shares (F, F) and S @ shares (F,);
    # None unless the menu holds score-agg-null and the design has shares
    null: tuple[np.ndarray, np.ndarray] | None
    # crve in sector form: cluster sums of S * shares (F, G) and of S (G,); None unless
    # the menu holds crve and the design has shares with sectors * clusters <= cells
    crve: tuple[np.ndarray, np.ndarray] | None

    @property
    def cell_scores(self) -> bool:
        """Whether a test of the menu reads the (draws, cells) scores rather than sector terms."""
        sector = ("score-agg-null", "crve") if self.crve is not None else ("score-agg-null",)
        return any(est not in sector for est in self.estimators)


@dataclass(frozen=True)
class _Kernel:
    design: _Design
    outcomes: tuple[_Outcome, ...]

    @property
    def estimators(self) -> tuple[str, ...]:
        """The tests made on one draw, over all outcomes."""
        return tuple(est for outcome in self.outcomes for est in outcome.estimators)


_CLUSTERED = ("crve", "crve-hc3")
_DEFLATED = ("robust-hc3", "crve-hc3")


def _cluster_segments(clusters) -> tuple[np.ndarray | None, np.ndarray]:
    """Cells stably sorted by cluster label (None if already sorted), and segment starts."""
    order = np.argsort(clusters, kind="stable")
    ordered = clusters[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    if np.array_equal(order, np.arange(order.size)):
        order = None
    return order, starts


def _make_kernel(ys, menus, alpha, clusters, shares, cells=None) -> _Kernel:
    """Kernel testing each outcome in ``ys`` with its own menu in ``menus``.

    ``cells`` maps each unit to its cell (None: every unit is a cell);
    ``clusters`` labels and ``shares`` rows are given per cell.  The
    cluster count is the number of distinct labels.  The design is built
    once, and each distinct menu's factors and critical values once.  Each
    crve outcome gets its sector terms (Q, s) here when the design has
    shares and sectors * clusters <= cells (see _kernel_counts).
    """
    ys = np.asarray(ys, dtype=float)
    n = ys.shape[1]
    if n < 3:
        raise ValidationError("need at least 3 observations")
    m = np.ones(n) if cells is None else np.bincount(cells).astype(float)
    n_sectors = m.size if shares is None else shares.shape[1]
    menus = [tuple(menu) for menu in menus]
    order = starts = None
    tests = {}  # menu -> (factors, crits); menus checked in order, each in menu order
    for menu in menus:
        if menu in tests:
            continue
        conventions = []  # (factor, dof) per estimator
        for est in menu:
            if est in _CLUSTERED:
                if clusters is None:
                    raise ValidationError(f"{est} requires cluster labels")
                if starts is None:
                    order, starts = _cluster_segments(clusters)
            n_clusters = 0 if starts is None else starts.size
            conventions.append(small_sample(est, n, n_clusters, n_sectors))
        factors = tuple(factor for factor, _ in conventions)
        tests[menu] = factors, np.array(t_crits(alpha, tuple(dof for _, dof in conventions)))
    sums = []  # (S, W) per outcome
    for y in ys:
        yc = y - y.mean()
        if cells is None:
            sums.append((yc, None))
        else:
            S = np.bincount(cells, weights=yc)
            sums.append((S, np.bincount(cells, weights=(yc - (S / m)[cells]) ** 2)))
    # crve in sector form takes sectors * clusters multiply-adds per draw, the cell form
    # several passes over the cells, so the sector form serves designs with F*G <= N
    crve = [None] * len(menus)  # (Q, s) per outcome
    crve_rows = [i for i, menu in enumerate(menus) if "crve" in menu]
    if crve_rows and shares is not None and n_sectors * starts.size <= m.size:
        sorted_shares = shares if order is None else shares[order]
        # one reduceat over the cells sorted by cluster for as many crve outcomes as
        # keep its (cells, outcomes, sectors) product within _KERNEL_BYTES, at least one
        batch = max(1, _KERNEL_BYTES // (8 * shares.size))
        for lo in range(0, len(crve_rows), batch):
            rows = crve_rows[lo : lo + batch]
            S = np.array([sums[i][0] for i in rows])  # (K, C)
            if order is not None:
                S = S[:, order]
            Q = np.add.reduceat(S.T[:, :, None] * sorted_shares[:, None, :], starts, axis=0)
            Q = Q.transpose(1, 2, 0).copy()  # (K, F, G)
            s = np.add.reduceat(S, starts, axis=1)
            for k, i in enumerate(rows):
                crve[i] = Q[k], s[k]
    outcomes = []
    for (S, W), menu, crve_terms in zip(sums, menus, crve, strict=True):
        factors, crits = tests[menu]
        null = None
        if "score-agg-null" in menu and shares is not None:
            null = shares.T @ (S[:, None] * shares), S @ shares
        outcomes.append(
            _Outcome(
                S=S, W=W, estimators=menu, factors=factors, crits=crits, null=null, crve=crve_terms
            )
        )
    design = _Design(n=n, m=m, shares=shares, order=order, starts=starts)
    return _Kernel(design=design, outcomes=tuple(outcomes))


def _kernel_counts(kernel: _Kernel, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rejection counts per test in ``kernel.estimators``, and skipped draws per outcome.

    ``Z`` is (draws, sectors), mapped once to the (draws, cells) regressors
    X = Z @ shares.T; with no shares each cell is its own sector and Z is X.
    X is tested in row sub-blocks whose (rows, cells) temporaries stay within
    _KERNEL_BYTES.  With xc a cell's centred regressor and e = S - slope*m*xc
    the sum of its residuals, a cell's residual sum of squares is W + e**2/m,
    its score is xc*e, and its leverage 1/n + xc**2/ssq is shared by its
    units, so each draw costs O(cells).  The regressor terms of a sub-block
    are formed once for all outcomes, an outcome's scores once for all its
    estimators, and cluster scores are segment sums over the cells sorted by
    cluster.  score-agg-null's sector scores sum_c shares_cf*xc_c*S_c are
    (Z @ H)_f - xbar*(S @ shares)_f with H = shares' diag(S) shares, so they
    cost O(sectors**2) per draw, not O(cells*sectors).  Likewise crve's
    cluster score sum_{c in g} xc_c*(S_c - slope*m_c*xc_c) is
    (Z @ Q)_g - xbar*s_g - slope*B_g, with Q and s the cluster sums of
    S*shares and of S, and B_g = sum_{c in g} m_c*xc_c**2 formed once per
    sub-block for every outcome.  The kernel takes this form when sectors *
    clusters <= cells, so an outcome tested by crve and score-agg-null alone
    forms no cell scores.  tests/oracles.py keeps the unit-level form and the
    scalar forms of the menu, and the engine tests pin agreement with both.
    """
    shares = kernel.design.shares
    X = Z if shares is None else Z @ shares.T
    rows = max(1, _KERNEL_BYTES // (8 * X.shape[1]))
    blocks = [
        _block_counts(kernel, X[lo : lo + rows], Z[lo : lo + rows])
        for lo in range(0, X.shape[0], rows)
    ]
    return sum(c for c, _ in blocks), sum(s for _, s in blocks)


def _block_counts(kernel: _Kernel, X, Z) -> tuple[np.ndarray, np.ndarray]:
    d = kernel.design
    n, m = d.n, d.m
    xbar = (X @ m) / n
    Xc = X - xbar[:, None]
    X2 = Xc * Xc
    ssq = X2 @ m
    usable = ssq > DEGENERATE_TOL * ((X * X) @ m)
    ssq2 = ssq * ssq

    counts = np.zeros(len(kernel.estimators), dtype=np.int64)
    skipped = np.zeros(len(kernel.outcomes), dtype=np.int64)
    k = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        if any(est in _DEFLATED for est in kernel.estimators):
            deflate = X2 / ssq[:, None] + 1.0 / n  # becomes 1 / (1 - leverage)
            leverage_ok = ~np.any(deflate >= 1.0 - 1e-12, axis=1)
            np.divide(1.0, 1.0 - deflate, out=deflate)
        if any(outcome.crve is not None for outcome in kernel.outcomes):
            B = X2 if m.size == n else X2 * m  # B_g = sum_{c in g} m_c * xc_c**2
            if d.order is not None:
                B = B[:, d.order]
            B = np.add.reduceat(B, d.starts, axis=1)

        for i, outcome in enumerate(kernel.outcomes):
            slope = np.where(usable, (Xc @ outcome.S) / ssq, 0.0)
            P = None  # the (draws, cells) scores, formed only for a test that reads them
            if outcome.cell_scores:
                P = slope[:, None] * m  # becomes the cell scores xc * (S - slope*m*xc)
                P *= Xc
                np.subtract(outcome.S, P, out=P)
                P *= Xc
            ok = usable
            if any(est in _DEFLATED for est in outcome.estimators):
                ok = usable & leverage_ok
                P_deflated = P * deflate
            skipped[i] = np.count_nonzero(~ok)

            for est, factor, crit in zip(outcome.estimators, outcome.factors, outcome.crits):
                deflated = est in _DEFLATED
                scores = P_deflated if deflated else P
                if est in ("robust-hc1", "robust-hc3"):
                    # sum of xc**2 * (W + e**2/m), each unit deflated for hc3
                    value = (scores * scores) @ (1.0 / m)
                    if outcome.W is not None:
                        value += (X2 * deflate * deflate if deflated else X2) @ outcome.W
                elif est == "crve" and outcome.crve is not None:
                    Q, s = outcome.crve
                    scores = Z @ Q - xbar[:, None] * s - slope[:, None] * B
                    value = np.einsum("bg,bg->b", scores, scores)
                elif est in _CLUSTERED:
                    if d.order is not None:
                        scores = scores[:, d.order]
                    scores = np.add.reduceat(scores, d.starts, axis=1)
                    value = np.einsum("bg,bg->b", scores, scores)
                else:  # score-agg / score-agg-null; null residuals sum to S per cell
                    if est == "score-agg-null" and outcome.null is None:
                        scores = Xc * outcome.S  # each cell its own sector
                    elif est == "score-agg-null":
                        H, s = outcome.null
                        scores = Z @ H - xbar[:, None] * s
                    elif d.shares is not None:
                        scores = scores @ d.shares
                    value = np.einsum("bf,bf->b", scores, scores)
                value = factor * value / ssq2
                counts[k] = np.count_nonzero(rejects(slope, value, crit) & ok)
                k += 1
    return counts, skipped


def _sim_chunk(kernel, draw, bounds) -> tuple[np.ndarray, np.ndarray]:
    return _kernel_counts(kernel, draw(*bounds))


@dataclass(frozen=True)
class _Reports:
    """The reports of one simulation, one per fixed outcome."""

    reports: tuple[SimReport, ...]

    @property
    def skipped_degenerate(self) -> int:
        return sum(r.skipped_degenerate for r in self.reports)


def _run_sim(ys, menus, cfg, workers, draw, clusters, shares, cells=None) -> _Reports:
    """One report per outcome in ``ys``, each tested with its menu in ``menus``."""
    kernel = _make_kernel(ys, menus, cfg.alpha, clusters, shares, cells)
    n_reps = cfg.replications
    results = map_chunks(partial(_sim_chunk, kernel, draw), chunk_bounds(n_reps, _CHUNK), workers)
    counts = iter(sum(c for c, _ in results).tolist())  # outcome by outcome, menu order
    skipped = sum(s for _, s in results)
    reports = []
    for outcome, outcome_skipped in zip(kernel.outcomes, skipped):
        b_effective = n_reps - int(outcome_skipped)
        rejections = {est: next(counts) for est in outcome.estimators}
        rates = {
            est: (c / b_effective if b_effective else 0.0) for est, c in rejections.items()
        }
        reports.append(
            SimReport(
                seed=cfg.seed,
                replications=n_reps,
                b_effective=b_effective,
                skipped_degenerate=int(outcome_skipped),
                rejections=rejections,
                rates=rates,
            )
        )
    return _Reports(tuple(reports))


# ---------------------------------------------------------------------------
# public engines


def run_outcome_fixed(
    outcomes, shares, clusters, cfg: SimConfig, workers: int = 1
) -> tuple[SimReport, ...]:
    """Hold each outcome vector fixed and resample sector shocks.

    Every outcome is tested against the same shock draws, so each report
    equals that of a run on its outcome alone.
    """
    draw = partial(_shares_regressors, shares, cfg.seed)
    menus = [cfg.estimators] * len(outcomes)
    return _run_sim(outcomes, menus, cfg, workers, draw, clusters, shares).reports


def run_y_fixed(
    data: Dataset, cfg: SimConfig, workers: int = 1, crve=()
) -> tuple[SimReport, ...]:
    """Hold the realized outcomes fixed and resample sector shocks.

    Returns the report of ``data.y`` tested with the menu of ``cfg``, then
    one report per outcome in ``crve`` tested with crve alone.  Every
    outcome is tested against the same shock draws, so each report equals
    that of a run on its outcome alone; ``diagnose`` tests all its modes in
    this one call.  bench/child.py ends a ``diagnose`` command's set-up at
    this name, so it stays until ROADMAP item 2 re-pins the benchmark hooks.
    """
    ys = [data.y, *crve]
    menus = [cfg.estimators] + [("crve",)] * (len(ys) - 1)
    draw = partial(_shares_regressors, data.shares, cfg.seed)
    return _run_sim(ys, menus, cfg, workers, draw, data.clusters, data.shares).reports


def run_partition_permutation(
    outcomes, design: PartitionDesign, cfg: SimConfig, workers: int = 1
) -> tuple[SimReport, ...]:
    """Hold each outcome vector fixed and resample balanced group-level assignments.

    Every outcome is tested against the same draws, so each report equals
    that of a run on its outcome alone.  Each of the ``cfg.replications``
    draws treats a random half of the groups; the exact distribution over
    every balanced assignment is
    :func:`ssdiag.analytics.enumerate_assignment_variance`.
    """
    ys = np.asarray(outcomes, dtype=float)
    if ys.ndim != 2 or ys.shape[1] != design.n_units:
        raise ValidationError("outcome length does not match the design")
    # cells are groups, which double as the clusters and the sectors (shares None)
    draw = partial(_partition_regressors, design.n_groups, cfg.seed)
    groups = np.arange(design.n_groups)
    menus = [cfg.estimators] * len(ys)
    return _run_sim(ys, menus, cfg, workers, draw, groups, None, cells=design.group_of).reports
