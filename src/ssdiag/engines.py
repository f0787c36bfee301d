"""Design-based simulation engines.

Both engines hold K outcome vectors fixed and test every outcome, each with
its own estimator menu, against the same block of resampled regressors; the
caller forms the outcomes.  The outcome-fixed engine for shift-share data
resamples iid standard normal sector shocks on a ShareDesign, whose terms
are built once per experiment and shared by all its simulations: one block
tests the realized y (y-fixed) with the requested menu and the residualized
y - beta_hat*x (eps-fixed) and the pre-treatment outcome (placebo) with
crve, and the flagging experiment both modes at every confound strength.
The treatment-permutation engine resamples the balanced assignment of a
partition design, for the grouped experiment's y-fixed and eps-fixed
outcomes.  Each replication refits the bivariate OLS and tests a zero slope
with every requested variance estimator; reports carry rejection
frequencies.

A draw is a (draws, F) block: sector shocks, or a partition design's
group-level assignments.  On a partition design every test is one
threshold on the treated-minus-control contrast of the outcome, so a draw
costs one (draws, F) @ (F, K) product and a comparison.  On a shift-share
design with sectors * clusters <= units, crve and score-agg-null have sector
forms, and a simulation whose every test is one of them runs in sector
space on (draws, F) and (draws, F(F+1)/2) arrays and never forms the
regressors: all of flag-curve's simulations, and diagnose's with a
crve-only menu.  A menu with any other test keeps the unit path, which
forms the (draws, N) regressors once per block for all K outcomes.  Both
shift-share paths walk a block in row sub-blocks of bounded size.

Determinism contract: replications are drawn in fixed chunks of 256, chunk c
draws from substream(seed, c) only, and rejection counts are integers, so
reports are identical for any worker count or execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .data import PartitionDesign
from .errors import ValidationError
from .estimators import DEGENERATE_TOL, rejects, small_sample, t_crits
from .parallel import chunk_bounds, map_chunks
from .rng import substream

_CHUNK = 256
# Byte budget of one (rows, units) temporary of the shift-share kernel: a whole
# chunk up to 512 units, 13 rows at 10,000 units.
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
# test kernel

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
class ShareDesign:
    """The terms of a fixed share matrix that every simulation on it shares, built once.

    Units nest in clusters.  Where sectors * clusters <= units, the design
    also holds the test kernel's sector-space terms.  With w_i a share row,
    ubar the mean share row and w~_i = w_i - ubar, a draw z of sector shocks
    has mean regressor z.ubar, centred regressors xc_i = w~_i.z and
    ssq = z'Cz with the centred Gram C = sum_i w~_i w~_i', and crve's
    B_g = sum_{i in g} xc_i**2 = z'C_g z with C_g the same sum over the
    units of cluster g.  Construct through :func:`share_design`.
    """

    n: int  # units
    shares: np.ndarray  # (N, F)
    order: np.ndarray | None  # units sorted by cluster; None: already sorted
    starts: np.ndarray | None  # (G,) first sorted unit of each cluster; None: no clusters
    # the sector-space terms, None unless the design has clusters and F*G <= N:
    segments: tuple[slice | np.ndarray, ...] | None  # the units of each cluster
    ubar: np.ndarray | None  # (F,)
    gram: np.ndarray | None  # (F, F) C
    # (G, F(F+1)/2) upper triangles of the C_g, off-diagonal entries doubled, so that
    # B = cluster_grams @ (z_e z_f)_{e<=f}
    cluster_grams: np.ndarray | None


def share_design(shares, clusters=None) -> ShareDesign:
    """Validating constructor: the design terms of a fixed share matrix.

    ``clusters`` labels the share rows (None: no cluster-robust test); the
    cluster count is the number of distinct labels.  Build the design once
    and pass it to every simulation on the same shares.  The Grams take one
    F x F product per cluster, so no (units, F**2) temporary is formed; with
    G <= N/F their (G, F, F) stack holds at most as many numbers as the
    shares.
    """
    shares = np.asarray(shares, dtype=float)
    if shares.ndim != 2:
        raise ValidationError("shares must be a matrix")
    if clusters is not None and np.shape(clusters) != (shares.shape[0],):
        raise ValidationError("cluster labels do not match shares")
    n, n_sectors = shares.shape
    order = starts = segments = ubar = gram = cluster_grams = None
    if clusters is not None:
        order, starts = _cluster_segments(np.asarray(clusters))
    # the sector form costs F(F+1)/2 * G multiply-adds per draw for B, less than the
    # F * N of forming the regressors where F*G <= N
    if starts is not None and n_sectors * starts.size <= n:
        ends = [*starts[1:], n]
        segments = tuple(
            slice(a, b) if order is None else order[a:b] for a, b in zip(starts, ends)
        )
        ubar = shares.mean(axis=0)
        grams = np.empty((len(segments), n_sectors, n_sectors))
        for C_g, segment in zip(grams, segments):
            w = shares[segment] - ubar
            np.matmul(w.T, w, out=C_g)
        gram = grams.sum(axis=0)
        iu, ju = np.triu_indices(n_sectors)
        cluster_grams = grams[:, iu, ju] * np.where(iu == ju, 1.0, 2.0)
    return ShareDesign(
        n=n, shares=shares, order=order, starts=starts,
        segments=segments, ubar=ubar, gram=gram, cluster_grams=cluster_grams,
    )


@dataclass(frozen=True)
class _Outcome:
    """One fixed outcome: its centred terms, estimator menu, factors and critical values."""

    S: np.ndarray  # (N,) the centred outcome; on a partition design, (F,) its group sums
    estimators: tuple[str, ...]
    factors: tuple[float, ...]  # finite-sample factor per estimator
    crits: np.ndarray  # t critical value per estimator
    # score-agg-null in sector space: shares' diag(S) shares (F, F) and S @ shares (F,);
    # None unless the menu holds score-agg-null on a shift-share design
    null: tuple[np.ndarray, np.ndarray] | None
    unit_scores: bool  # whether a test of the menu reads the (draws, N) unit scores
    # on a partition design, the treated-sum threshold of each estimator; else None
    thresholds: np.ndarray | None


@dataclass(frozen=True)
class _Kernel:
    """One block's tests; a partition design reads only slopes and thresholds."""

    design: ShareDesign | PartitionDesign
    outcomes: tuple[_Outcome, ...]
    # crve in sector form: Q~, the cluster sums of w~_i * S_i, of each outcome whose menu
    # holds crve, in outcome order, (K_crve * G, F); None unless the design holds
    # cluster Grams
    crve: np.ndarray | None
    # (K, F) rows v: on a partition design each outcome's group sums S, slope = (z - 1/2).v / q;
    # on a shift-share design its W~'S, slope = z.v / ssq, None unless every test of every
    # outcome has a sector form, so that the kernel never forms the regressors
    slopes: np.ndarray | None

    @property
    def estimators(self) -> tuple[str, ...]:
        """The tests made on one draw, over all outcomes."""
        return tuple(est for outcome in self.outcomes for est in outcome.estimators)


_CLUSTERED = ("crve", "crve-hc3")
_DEFLATED = ("robust-hc3", "crve-hc3")


def _cluster_segments(clusters) -> tuple[np.ndarray | None, np.ndarray]:
    """Units stably sorted by cluster label (None if already sorted), and segment starts."""
    order = np.argsort(clusters, kind="stable")
    ordered = clusters[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    if np.array_equal(order, np.arange(order.size)):
        order = None
    return order, starts


def _make_kernel(ys, menus, alpha, design: ShareDesign | PartitionDesign) -> _Kernel:
    """Kernel testing each outcome in ``ys`` with its own menu in ``menus`` on ``design``.

    Outcomes are given per unit; a partition design's groups are both its
    clusters and its sectors.  Each distinct menu's factors and critical
    values are built once.  On a partition design each test gets its
    treated-sum threshold here.  Where a shift-share design holds sector
    terms, each crve outcome gets its Q~ here, in one product per cluster,
    and the kernel every outcome's W~'S if every test of every outcome has
    a sector form (see _kernel_counts).
    """
    ys = [np.asarray(y, dtype=float) for y in ys]
    partition = isinstance(design, PartitionDesign)
    if partition:
        n, n_sectors, n_clusters = design.n_units, design.n_groups, design.n_groups
    else:
        (n, n_sectors), shares = design.shares.shape, design.shares
        n_clusters = 0 if design.starts is None else design.starts.size
    if any(y.shape != (n,) for y in ys):
        raise ValidationError("outcome length does not match the design")
    yc = np.array(ys).reshape(len(ys), n)  # becomes the centred outcomes
    if not np.isfinite(yc).all():
        raise ValidationError("non-finite outcome")
    if n < 3:
        raise ValidationError("need at least 3 observations")
    menus = [tuple(menu) for menu in menus]
    tests = {}  # menu -> (factors, crits); menus checked in order, each in menu order
    for menu in menus:
        if menu in tests:
            continue
        conventions = []  # (factor, dof) per estimator
        for est in menu:
            if est in _CLUSTERED and not n_clusters:
                raise ValidationError(f"{est} requires cluster labels")
            conventions.append(small_sample(est, n, n_clusters, n_sectors))
        factors = tuple(factor for factor, _ in conventions)
        tests[menu] = factors, np.array(t_crits(alpha, tuple(dof for _, dof in conventions)))
    yc -= yc.mean(axis=1, keepdims=True)
    sums, crve, sector = yc, None, ("score-agg-null",)
    crve_rows = [i for i, menu in enumerate(menus) if "crve" in menu]
    if partition:
        q, m, deflation = n / 4, design.group_size, (1.0 - 2.0 / n) ** -2
        sums = np.array([np.bincount(design.group_of, weights=y, minlength=n_sectors) for y in yc])
    elif crve_rows and design.cluster_grams is not None:
        S = yc if len(crve_rows) == len(yc) else yc[crve_rows]
        crve = np.empty((n_clusters, len(crve_rows), n_sectors))
        for Q, segment in zip(crve, design.segments):
            np.matmul(S[:, segment], shares[segment] - design.ubar, out=Q)
        crve = crve.transpose(1, 0, 2).reshape(-1, n_sectors)
        sector = ("score-agg-null", "crve")
    outcomes = []
    for y, S, menu in zip(yc, sums, menus, strict=True):
        factors, crits = tests[menu]
        null = thresholds = None
        if partition:
            # Every draw z treats F/2 of the F groups of m units, so xbar = 1/2, every
            # centred regressor is +-1/2, ssq = n/4 =: q, every leverage is 2/n and no
            # draw is degenerate.  With S the group sums of the centred outcome,
            # A = sum yc**2 and T = (z - 1/2).S the treated-minus-control contrast,
            # the slope is T/q and each variance is factor * (a - b*T**2) / (4q**2),
            # (a, b) = (A, 1/q) for the robust pair, (sum S**2, m/q) for crve, crve-hc3
            # and score-agg and (sum S**2, 0) for score-agg-null, and hc3's deflation
            # multiplies both, and so k below, by (1 - 2/n)**-2.  So a test rejects
            # exactly when |T| >= c with c = sqrt(k*a / (1 + k*b)), k = crit**2 *
            # factor / 4.  A zero variance (c = 0) rejects iff T != 0, as
            # estimators.rejects does: c becomes the least positive float.  T is not the
            # treated sum z.S: rounding can leave sum S != 0 (say, a constant 0.1), and
            # then z.S rejects draws whose contrast, as the unit-level slope, is 0.
            thresholds = []
            for est, factor, crit in zip(menu, factors, crits):
                k = crit * crit * factor / 4 * (deflation if est in _DEFLATED else 1.0)
                a, b = (y @ y, 1.0 / q) if est.startswith("robust") else (S @ S, m / q)
                b = 0.0 if est == "score-agg-null" else b
                thresholds.append(max(math.sqrt(k * a / (1.0 + k * b)), math.ulp(0.0)))
            thresholds = np.array(thresholds)
        elif "score-agg-null" in menu:
            null = shares.T @ (S[:, None] * shares), S @ shares
        unit_scores = not partition and any(est not in sector for est in menu)
        outcomes.append(
            _Outcome(
                S=S, estimators=menu, factors=factors, crits=crits, null=null,
                unit_scores=unit_scores, thresholds=thresholds,
            )
        )
    slopes = sums if partition else None
    if not partition and design.gram is not None and not any(o.unit_scores for o in outcomes):
        slopes = yc @ shares - np.outer(yc.sum(axis=1), design.ubar)
    return _Kernel(design=design, outcomes=tuple(outcomes), crve=crve, slopes=slopes)


def _kernel_counts(kernel: _Kernel, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rejection counts per test in ``kernel.estimators``, and skipped draws per outcome.

    ``Z`` is (draws, F): a partition design's group assignments, or sector
    shocks.  On a partition design a test counts the draws whose contrast
    |(z - 1/2).S| reaches its threshold (see _make_kernel), and skips none.  On
    a shift-share design that holds sector terms (see ShareDesign), where
    every test is crve or score-agg-null, the kernel works in sector space.
    Per draw z: xbar = z.ubar and ssq = z'Cz; a draw is usable when
    ssq > tol * (ssq + n*xbar**2); every outcome's slope is z'(W~'S)/ssq;
    and every crve outcome's cluster scores
    sum_{i in g} xc_i*(S_i - slope*xc_i) are (z'Q~)_g - slope*B_g, with
    Q~_g = sum_{i in g} w~_i*S_i and B_g = (z_e z_f)_{e<=f} . C_g, each in
    one product for all outcomes.  A menu with any other test keeps the
    unit path: Z is mapped once to the (draws, N) regressors X = Z @
    shares.T; with xc a unit's centred regressor, its score is
    xc*(S - slope*xc) and its leverage 1/n + xc**2/ssq.  The regressor
    terms are formed once for all outcomes, an outcome's scores once for
    all its estimators, and cluster scores are segment sums over the units
    sorted by cluster, or, for crve where the design holds sector terms,
    z'Q~ less the slope times B_g summed from the units.  score-agg-null's
    sector scores sum_i shares_if*xc_i*S_i are (Z @ H)_f - xbar*(S @ shares)_f
    with H = shares' diag(S) shares on either path.  Both paths walk the
    block in row sub-blocks whose widest temporary stays within
    _KERNEL_BYTES.  tests/oracles.py keeps a dense unit-level form and the
    scalar forms of the menu, and the engine tests pin agreement with both.
    """
    d = kernel.design
    if isinstance(d, PartitionDesign):
        T = np.abs((Z - 0.5) @ kernel.slopes.T)  # (draws, K)
        counts = [
            np.count_nonzero(T[:, [i]] >= outcome.thresholds, axis=0)
            for i, outcome in enumerate(kernel.outcomes)
        ]
        return np.concatenate(counts), np.zeros(len(kernel.outcomes), dtype=np.int64)
    X = None
    if kernel.slopes is None:
        X = Z @ d.shares.T
        width = X.shape[1]
    elif kernel.crve is None:
        width = Z.shape[1]
    else:
        width = max(d.cluster_grams.shape[1], kernel.crve.shape[0])
    rows = max(1, _KERNEL_BYTES // (8 * width))
    blocks = [
        _block_counts(kernel, None if X is None else X[lo : lo + rows], Z[lo : lo + rows])
        for lo in range(0, Z.shape[0], rows)
    ]
    return sum(c for c, _ in blocks), sum(s for _, s in blocks)


def _block_counts(kernel: _Kernel, X, Z) -> tuple[np.ndarray, np.ndarray]:
    """Counts of one row sub-block of a shift-share design; X is None in sector space."""
    d = kernel.design
    n = d.n
    if X is None:
        xbar = Z @ d.ubar
        ssq = np.einsum("bf,bf->b", Z @ d.gram, Z)
        usable = ssq > DEGENERATE_TOL * (ssq + n * xbar * xbar)
    else:
        xbar = X.mean(axis=1)
        Xc = X - xbar[:, None]
        X2 = Xc * Xc
        ssq = X2.sum(axis=1)
        usable = ssq > DEGENERATE_TOL * np.einsum("bn,bn->b", X, X)
    ssq2 = ssq * ssq

    counts = np.zeros(len(kernel.estimators), dtype=np.int64)
    skipped = np.zeros(len(kernel.outcomes), dtype=np.int64)
    k = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        if X is None:
            slopes = kernel.slopes @ Z.T
        else:
            slopes = np.array([Xc @ outcome.S for outcome in kernel.outcomes])
        slopes = np.where(usable, slopes / ssq, 0.0)  # (outcomes, rows)
        if any(est in _DEFLATED for est in kernel.estimators):
            deflate = X2 / ssq[:, None] + 1.0 / n  # becomes 1 / (1 - leverage)
            leverage_ok = ~np.any(deflate >= 1.0 - 1e-12, axis=1)
            np.divide(1.0, 1.0 - deflate, out=deflate)
        if kernel.crve is not None:  # (G, draws) B, then (K_crve, G, draws) scores
            if X is None:
                Zt = np.ascontiguousarray(Z.T)
                iu, ju = np.triu_indices(Z.shape[1])
                B = d.cluster_grams @ (Zt[iu] * Zt[ju])
            else:
                B = X2 if d.order is None else X2[:, d.order]
                B = np.add.reduceat(B, d.starts, axis=1).T
            rows = [i for i, outcome in enumerate(kernel.outcomes) if "crve" in outcome.estimators]
            scores = (kernel.crve @ Z.T).reshape(len(rows), B.shape[0], -1)
            scores -= slopes[rows][:, None, :] * B
            crve_values = iter(np.einsum("kgb,kgb->kb", scores, scores))

        for i, outcome in enumerate(kernel.outcomes):
            slope = slopes[i]
            P = None  # the (draws, N) scores, formed only for a test that reads them
            if outcome.unit_scores:
                P = slope[:, None] * Xc  # becomes the unit scores xc * (S - slope*xc)
                np.subtract(outcome.S, P, out=P)
                P *= Xc
            ok = usable
            if any(est in _DEFLATED for est in outcome.estimators):
                ok = usable & leverage_ok
                P_deflated = P * deflate
            skipped[i] = np.count_nonzero(~ok)

            for est, factor, crit in zip(outcome.estimators, outcome.factors, outcome.crits):
                scores = P_deflated if est in _DEFLATED else P
                if est in ("robust-hc1", "robust-hc3"):
                    value = np.einsum("bn,bn->b", scores, scores)
                elif est == "crve" and kernel.crve is not None:
                    value = next(crve_values)
                elif est in _CLUSTERED:
                    if d.order is not None:
                        scores = scores[:, d.order]
                    scores = np.add.reduceat(scores, d.starts, axis=1)
                    value = np.einsum("bg,bg->b", scores, scores)
                else:  # score-agg / score-agg-null; null residuals are the outcome
                    if est == "score-agg-null":
                        H, s = outcome.null
                        scores = Z @ H - xbar[:, None] * s
                    else:
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


def _run_sim(ys, menus, cfg, workers, draw, design) -> _Reports:
    """One report per outcome in ``ys``, each tested on ``design`` with its menu in ``menus``."""
    kernel = _make_kernel(ys, menus, cfg.alpha, design)
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
    outcomes, design: ShareDesign, cfg: SimConfig, workers: int = 1
) -> tuple[SimReport, ...]:
    """Hold each outcome vector fixed and resample sector shocks on ``design``.

    Every outcome is tested against the same shock draws, so each report
    equals that of a run on its outcome alone.
    """
    draw = partial(_shares_regressors, design.shares, cfg.seed)
    menus = [cfg.estimators] * len(outcomes)
    return _run_sim(outcomes, menus, cfg, workers, draw, design).reports


def run_y_fixed(
    y, design: ShareDesign, cfg: SimConfig, workers: int = 1, crve=()
) -> tuple[SimReport, ...]:
    """Hold the realized outcome fixed and resample sector shocks on ``design``.

    Returns the report of ``y`` tested with the menu of ``cfg``, then one
    report per outcome in ``crve`` tested with crve alone.  Every outcome is
    tested against the same shock draws, so each report equals that of a
    run on its outcome alone; ``diagnose`` tests all its modes in this one
    call.  bench/child.py ends a ``diagnose`` command's set-up at this name,
    so it stays until ROADMAP item 2 re-pins the benchmark hooks.
    """
    ys = [y, *crve]
    menus = [cfg.estimators] + [("crve",)] * (len(ys) - 1)
    draw = partial(_shares_regressors, design.shares, cfg.seed)
    return _run_sim(ys, menus, cfg, workers, draw, design).reports


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
    draw = partial(_partition_regressors, design.n_groups, cfg.seed)
    menus = [cfg.estimators] * len(outcomes)
    return _run_sim(outcomes, menus, cfg, workers, draw, design).reports
