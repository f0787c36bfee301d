"""The design-based simulation engine.

One outcome-fixed engine, run_outcome_fixed, holds K outcome vectors fixed
and tests each outcome with its own estimator menu, one menu per outcome,
against the same block of resampled regressors; the caller forms the
outcomes and picks their menus.  One call can test B independent blocks of
K outcomes with the same menus, each on its own stretch of the stream, so
that many small simulations share one kernel build and one draw per chunk.
Its draw follows the design: iid standard normal sector shocks on a
ShareDesign, whose terms are built once per experiment and shared by all
its simulations, and balanced group-level assignments on a partition
design.  On shift-share data diagnose's one block tests the realized y
(y-fixed) with the requested menu and the residualized y - beta_hat*x
(eps-fixed) and the pre-treatment outcome (placebo) with crve, and the
flagging experiment's block tests both modes at every confound strength
with crve; on a partition design one call tests the y-fixed and eps-fixed
outcomes of up to 16 outer draws of the grouped experiment with
robust-hc1, one block per draw.  Each replication refits the bivariate OLS
and tests a zero slope with every requested variance estimator; reports
carry rejection frequencies.  On a partition design realized_tests tests
each block once, on its own realized assignment, with the kernel and the
threshold rule of the simulations: the grouped experiment's size tests and
realized slopes, for all the draws of a chunk at once.

A draw is a (draws, F) block: sector shocks, or a partition design's
group-level assignments.  The assignments are the candidate rows of F raw
stream bits that have exactly F/2 ones, in stream order, so each balanced
assignment is equally likely and no row depends on how many candidates a
call draws at once.  On a partition design every test is one threshold on
the treated-minus-control contrast of the outcome, so a draw costs one
(draws, F) @ (F, K) product and a comparison.  On a shift-share
design with sectors * clusters <= units, crve and score-agg-null have sector
forms, and a simulation whose every test is one of them runs in sector
space on (draws, F) and (draws, F(F+1)/2) arrays and never forms the
regressors: all of flag-curve's simulations, and diagnose's with a
crve-only menu.  A menu with any other test keeps the unit path, which
forms the (draws, N) regressors once per block for all K outcomes.  Both
shift-share paths take each draw's mean regressor, centred sum of squares
and slopes from (draws, F) products with the design's and the outcomes'
terms, so the unit path walks the regressors only for the unit scores.
Both walk a block in row sub-blocks of bounded size, then form the
score-agg tests' sector scores and decide every test once per block (see
_kernel_counts).

A simulation pays only for what its outcomes change.  What the share matrix
fixes is built once per experiment (ShareDesign; its per-cluster Grams on first
read, by sector space alone), and what a list of menus fixes at one level and design
size once per process (_menu_terms): each test's factor and critical value
and, on a partition design, its threshold constants.  A kernel then forms
its outcomes' terms, on a partition design every outcome's group sums in one
bincount and its sums of squares in one product, and every test of a block
is decided in one step:
over a (tests, draws) array of variances, or of contrasts on a partition
design.

Determinism contract: a call's B * R draws, R = cfg.replications, are drawn in
fixed chunks, of 256 rows on a shift-share design and _PARTITION_CHUNK on a
partition design; the chunk whose first row is lo draws from substream(seed,
lo // 256) only; block b is tested on draws b*R..(b+1)*R-1; and rejection
counts are integers.  So reports are identical for any worker count or
execution order, and block 0 is a one-block run at the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, partial

import numpy as np

from .data import PartitionDesign, _frozen_array
from .errors import ValidationError, check_integer
from .estimators import DEGENERATE_TOL, rejects, small_sample, t_crits
from .parallel import chunk_bounds, map_chunks
from .rng import check_seed, substream

_CHUNK = 256
# A partition design's chunk: its draw is (rows, F) bits, never a (rows, N) block,
# so a chunk of several blocks' rows pays its stream and batch set-up once.  For an
# engine call of 16 blocks of 500 rows (x86_64, 2 MiB of L2 per core), 1024 rows lost
# 10% to 2048 at 20 groups, 4096 and 8192 lost 5-9% at 100, where the (rows, F) float
# block outgrows L2, and 2048 ran whole mc-table commands fastest.
_PARTITION_CHUNK = 2048
# Byte budget of one (rows, units) temporary of the shift-share kernel: a whole
# chunk up to 512 units, 13 rows at 10,000 units.  It also bounds the centred
# share rows of each piece of clusters that builds Q~ (ShareDesign.pieces), and
# the raw candidate rows of one batch of a balanced-assignment draw.
_KERNEL_BYTES = 1 << 20


@dataclass(frozen=True)
class SimConfig:
    """Replication budget, seed and level of one simulation run."""

    replications: int
    seed: int
    alpha: float = 0.05

    def __post_init__(self):
        for key in ("replications", "seed"):
            check_integer(key, getattr(self, key))
        if self.replications < 1:
            raise ValidationError("need at least 1 replication")
        check_seed(self.seed)
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError("alpha must be in (0, 1)")


def check_menu(menu) -> None:
    """Refuse an estimator menu that is empty, names an unknown estimator or repeats one."""
    if not menu:
        raise ValidationError("estimator menu is empty")
    unknown = [e for e in menu if e not in ESTIMATORS]
    if unknown:
        raise ValidationError(f"unknown estimators {unknown}")
    repeated = sorted({e for e in menu if menu.count(e) > 1})
    if repeated:
        raise ValidationError(f"repeated estimators {repeated}")


def check_threshold(threshold: float) -> float:
    """``threshold``, refused unless it lies in [0, 1] (NaN does not)."""
    if not 0.0 <= threshold <= 1.0:
        raise ValidationError("flag threshold must be in [0, 1]")
    return threshold


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
    skipped_degenerate: int
    rejections: dict[str, int]

    @property
    def b_effective(self) -> int:
        """The draws every test counted: the replications less the skipped ones."""
        return self.replications - self.skipped_degenerate

    @property
    def rates(self) -> dict[str, float]:
        """Each estimator's rejections over ``b_effective`` (0.0 when no draw was usable)."""
        b = self.b_effective
        return {est: (c / b if b else 0.0) for est, c in self.rejections.items()}


# ---------------------------------------------------------------------------
# regressor draws; a chunk's rows lo..hi-1 come from substream(seed, lo // _CHUNK),
# keyed by the chunk index on a shift-share design (chunks of _CHUNK rows) and by
# _PARTITION_CHUNK // _CHUNK times it on a partition design


def _shares_regressors(shares, seed, lo, hi) -> np.ndarray:
    """iid standard normal sector shocks, (draws, sectors); the kernel maps them to regions."""
    return substream(seed, lo // _CHUNK).standard_normal((hi - lo, shares.shape[1]))


def _partition_regressors(n_groups, seed, lo, hi) -> np.ndarray:
    """Group-level 0/1 treatment, exactly n_groups/2 treated groups per row (n_groups even).

    Each candidate row is n_groups fair bits of the chunk's raw stream, and
    the rows kept are the first hi - lo candidates with n_groups/2 ones:
    uniform over the balanced assignments, and independent of the batch
    size, which only sets how many candidates one call draws.
    """
    words = -(-n_groups // 64)
    mask = np.uint64((1 << (n_groups - 64 * (words - 1))) - 1)
    accept = math.sqrt(2 / (math.pi * n_groups))  # about C(F, F/2) / 2**F, the share kept
    bits = substream(seed, lo // _CHUNK).bit_generator
    kept, need = [], hi - lo
    while need:
        # about 5% more candidates than the need takes on average; a short batch is topped
        # up by the next, and no row depends on the batch
        batch = max(1, min(_KERNEL_BYTES // (8 * words), int(1.05 * need / accept) + 64))
        rows = bits.random_raw(batch * words).reshape(batch, words)
        rows[:, -1] &= mask
        counts = np.bitwise_count(rows)  # (batch, words) uint8
        # a row's ones, by one add per word column: in uint8 while a row has under 256 bits
        ones = counts[:, 0] if n_groups < 256 else counts[:, 0].astype(np.intp)
        for w in range(1, words):
            ones = ones + counts[:, w]
        hits = rows[np.flatnonzero(ones == n_groups // 2)[:need]]
        kept.append(hits)
        need -= len(hits)
    block = kept[0] if len(kept) == 1 else np.concatenate(kept)
    block = block.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(block, axis=1, count=n_groups, bitorder="little").astype(float)


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

    Units nest in clusters.  With w_i a share row, ubar the mean share row
    and w~_i = w_i - ubar, a draw z of sector shocks has mean regressor
    xbar = z.ubar, centred regressors xc_i = w~_i.z and ssq = z'Cz with the
    centred Gram C = sum_i w~_i w~_i'; both kernel paths read xbar and ssq
    from these (F,) and (F, F) terms.  Where sectors * clusters <= units the
    design also holds the test kernel's sector-space terms: crve's
    B_g = sum_{i in g} xc_i**2 = z'C_g z, with C_g the sum over the units of
    cluster g, reads them.  Construct through :func:`share_design`.
    """

    n: int  # units
    shares: np.ndarray  # (N, F)
    order: np.ndarray | None  # units sorted by cluster; None: already sorted
    starts: np.ndarray | None  # (G,) first sorted unit of each cluster; None: no clusters
    ubar: np.ndarray  # (F,)
    gram: np.ndarray  # (F, F) C
    # the sector-space terms, None unless the design has clusters and F*G <= N: the
    # clusters of each size n_g, in order of size and in pieces whose centred share
    # rows fit in _KERNEL_BYTES, so that Q~ takes one batched product per piece: their
    # positions (b,) and their units (b, n_g)
    pieces: tuple[tuple[np.ndarray, np.ndarray], ...] | None

    @cached_property
    def grams(self) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]] | None:
        """The packed C_g and their pair indices; None without sector-space terms.

        The packed C_g are (G, F(F+1)/2): the upper triangles of the C_g at
        the pair indices (e, f), e <= f, off-diagonal entries doubled, so that
        B = packed @ (z_e z_f)_{e<=f}.  Only sector space reads them, so they
        are built on first read, once per process: one F x F product per
        cluster, and no (units, F**2) temporary.  With G <= N/F their
        (G, F, F) stack holds at most as many numbers as the shares.
        """
        if self.pieces is None:
            return None
        n_sectors = self.shares.shape[1]
        grams = np.empty((self.starts.size, n_sectors, n_sectors))
        for members, units in self.pieces:
            for g, cluster in zip(members, units):
                w = self.shares[cluster] - self.ubar
                np.matmul(w.T, w, out=grams[g])
        iu, ju = np.triu_indices(n_sectors)
        return grams[:, iu, ju] * np.where(iu == ju, 1.0, 2.0), (iu, ju)


def share_design(shares, clusters=None) -> ShareDesign:
    """Validating constructor: the design terms of a fixed share matrix.

    ``clusters`` labels the share rows (None: no cluster-robust test); the
    cluster count is the number of distinct labels.  Build the design once
    and pass it to every simulation on the same shares.
    """
    shares = np.asarray(shares, dtype=float)
    if shares.ndim != 2:
        raise ValidationError("shares must be a matrix")
    if shares.shape[1] == 0:
        raise ValidationError("need at least 1 sector")
    if shares.shape[0] < 3:
        raise ValidationError("need at least 3 observations")
    if not np.isfinite(shares).all():
        raise ValidationError("non-finite share")
    if clusters is not None and np.shape(clusters) != (shares.shape[0],):
        raise ValidationError("cluster labels do not match shares")
    n, n_sectors = shares.shape
    ubar = shares.mean(axis=0)
    gram = np.zeros((n_sectors, n_sectors))
    rows = max(1, _KERNEL_BYTES // (8 * n_sectors))
    for lo in range(0, n, rows):  # C from centred share rows piece by piece, no (N, F) copy
        w = shares[lo : lo + rows] - ubar
        gram += w.T @ w
    order = starts = pieces = None
    if clusters is not None:
        order, starts = _cluster_segments(np.asarray(clusters))
    # the sector form costs F(F+1)/2 * G multiply-adds per draw for B, less than the
    # F * N of forming the regressors where F*G <= N
    if starts is not None and n_sectors * starts.size <= n:
        sizes = np.diff(starts, append=n)
        sorted_units = np.arange(n) if order is None else order
        pieces = []
        for size in sorted(set(sizes.tolist())):  # np.unique would import numpy.ma
            of_size = np.flatnonzero(sizes == size)
            batch = max(1, _KERNEL_BYTES // (8 * size * n_sectors))
            for lo in range(0, of_size.size, batch):
                members = of_size[lo : lo + batch]
                pieces.append((members, sorted_units[starts[members, None] + np.arange(size)]))
        pieces = tuple(pieces)
    return ShareDesign(
        n=n, shares=shares, order=order, starts=starts, ubar=ubar, gram=gram, pieces=pieces
    )


_CLUSTERED = ("crve", "crve-hc3")
_DEFLATED = ("robust-hc3", "crve-hc3")


@dataclass(frozen=True)
class _Tests:
    """What a kernel's menus fix on a design of one kind and size, whatever its outcomes.

    The kernel's tests run outcome by outcome, each outcome's in menu order.
    """

    menus: tuple[tuple[str, ...], ...]  # one per outcome
    estimators: tuple[str, ...]  # every test
    outcome: np.ndarray  # (tests,) the outcome each test reads
    factors: np.ndarray  # (tests, 1) finite-sample factor
    crits: np.ndarray  # (tests, 1) t critical value
    # (outcomes, 1): whether the menu holds an hc3 test, whose leverage guard then skips
    # a draw for every test of the outcome; None if no menu does
    guarded: np.ndarray | None
    # the crve tests in sector form, one per outcome whose menu holds crve: their
    # positions and their outcomes; empty unless the design holds sector-space terms
    crve: np.ndarray
    crve_rows: np.ndarray
    # per outcome whose menu holds a test that reads the (draws, N) unit scores (robust,
    # crve-hc3, crve off the sector form): its position and those tests as (position,
    # estimator) pairs, whose variances _block_counts forms one by one
    scored: tuple[tuple[int, tuple[tuple[int, str], ...]], ...]
    # per outcome whose menu holds score-agg or score-agg-null: its position and the
    # positions of those two tests (None for one the menu lacks), whose variances
    # _kernel_counts forms once per chunk from sector scores
    aggregated: tuple[tuple[int, int | None, int | None], ...]
    sector_space: bool  # whether every test has a sector form (see _kernel_counts)
    # on a partition design, per test: k, b and whether a = sum yc**2 (see _make_kernel)
    k: np.ndarray | None
    b: np.ndarray | None
    robust: np.ndarray | None


@lru_cache(maxsize=64)
def _menu_terms(menus, alpha, n, n_clusters, n_sectors, partition, sector) -> _Tests:
    """The _Tests of ``menus`` at level ``alpha`` on a design of ``n`` units.

    ``partition`` names a partition design of ``n_clusters`` groups and
    ``sector`` a shift-share design that holds sector-space terms.  Built
    once per key and kept, so a kernel pays only for its outcomes and its
    menus are checked (check_menu) once per process.  Menus are checked in
    order, each in menu order, and each distinct menu's factors and critical
    values are built once.
    """
    conventions = {}  # menu -> ((factor, dof) per estimator, crits)
    for menu in menus:
        if menu in conventions:
            continue
        check_menu(menu)
        terms = []
        for est in menu:
            if est in _CLUSTERED and not n_clusters:
                raise ValidationError(f"{est} requires cluster labels")
            terms.append(small_sample(est, n, n_clusters, n_sectors))
        conventions[menu] = terms, t_crits(alpha, tuple(dof for _, dof in terms))
    estimators = tuple(est for menu in menus for est in menu)
    factors = [factor for menu in menus for factor, _ in conventions[menu][0]]
    crits = [crit for menu in menus for crit in conventions[menu][1]]
    guarded = [[any(est in _DEFLATED for est in menu)] for menu in menus]
    crve, crve_rows, scored, aggregated, position = [], [], [], [], 0
    for i, menu in enumerate(menus):
        rest, agg = [], {}
        for j, est in enumerate(menu, position):
            if est == "crve" and sector:
                crve.append(j)
                crve_rows.append(i)
            elif est in ("score-agg-null", "score-agg"):
                agg[est] = j
            else:
                rest.append((j, est))
        position += len(menu)
        if rest:
            scored.append((i, tuple(rest)))
        if agg:
            aggregated.append((i, agg.get("score-agg-null"), agg.get("score-agg")))
    k = b = robust = None
    if partition:  # see _make_kernel
        q, m, deflation = n / 4, n // n_clusters, (1.0 - 2.0 / n) ** -2
        k = _frozen_array([
            crit * crit * factor / 4 * (deflation if est in _DEFLATED else 1.0)
            for est, factor, crit in zip(estimators, factors, crits)
        ])
        robust = _frozen_array([est.startswith("robust") for est in estimators], bool)
        b = _frozen_array([
            1.0 / q if est.startswith("robust") else 0.0 if est == "score-agg-null" else m / q
            for est in estimators
        ])
    # every kernel on these menus shares the arrays, so they are read-only
    return _Tests(
        menus=menus,
        estimators=estimators,
        outcome=_frozen_array(
            np.repeat(np.arange(len(menus)), [len(menu) for menu in menus]), np.intp
        ),
        factors=_frozen_array(np.reshape(factors, (-1, 1))),
        crits=_frozen_array(np.reshape(crits, (-1, 1))),
        guarded=_frozen_array(guarded, bool) if any(g for g, in guarded) else None,
        crve=_frozen_array(crve, np.intp),
        crve_rows=_frozen_array(crve_rows, np.intp),
        scored=tuple(scored),
        aggregated=tuple(aggregated),
        sector_space=sector and set(estimators) <= {"crve", "score-agg-null"},
        k=k,
        b=b,
        robust=robust,
    )


@dataclass(frozen=True)
class _Kernel:
    """One block's tests: what the menus fix, and the terms of each outcome."""

    design: ShareDesign | PartitionDesign
    tests: _Tests
    # (K, N) the centred outcomes; on a partition design (K, F), their group sums
    S: np.ndarray
    # per outcome, the null scores in sector space: H = shares' diag(S) shares (F, F) and
    # S @ shares (F,); None unless the menu holds score-agg or score-agg-null on a
    # shift-share design
    null: tuple[tuple[np.ndarray, np.ndarray] | None, ...]
    # crve in sector form: Q~, the cluster sums of w~_i * S_i, of each outcome whose menu
    # holds crve, in outcome order, (K_crve * G, F); None unless the design holds
    # sector-space terms
    crve: np.ndarray | None
    # (K, F) each outcome's W~'S, slope = z.(W~'S) / ssq; None on a partition design
    slopes: np.ndarray | None
    thresholds: np.ndarray | None  # on a partition design, the contrast threshold per test

    @property
    def estimators(self) -> tuple[str, ...]:
        """The tests made on one draw, over all outcomes."""
        return self.tests.estimators


def _cluster_segments(clusters) -> tuple[np.ndarray | None, np.ndarray]:
    """Units stably sorted by cluster label (None if already sorted), and segment starts."""
    order = np.argsort(clusters, kind="stable")
    ordered = clusters[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    if np.array_equal(order, np.arange(order.size)):
        order = None
    return order, starts


def _make_kernel(ys, menus, alpha, design: ShareDesign | PartitionDesign, blocks=1) -> _Kernel:
    """Kernel testing ``blocks`` blocks of outcomes in ``ys``, each with ``menus`` on ``design``.

    Block b's outcomes are ys[b*K:(b+1)*K], K = len(menus), and outcome k of
    each block is tested with menus[k]; _kernel_blocks cuts the kernel into
    one per block.  Outcomes are given per unit; a partition design's groups
    are both its clusters and its sectors.  Only the outcomes' own terms are
    built here, for every block at once: what the menus fix comes from
    _menu_terms and what the shares fix from the ShareDesign, each built
    once.  On a partition design each test gets its contrast threshold.
    On a shift-share design every outcome gets its W~'S, and where the
    design holds sector terms each crve outcome its Q~, in one batched
    product per piece of equal-size clusters (ShareDesign.pieces).
    """
    ys = [np.asarray(y, dtype=float) for y in ys]
    menus = tuple(tuple(menu) for menu in menus)
    if not ys:
        raise ValidationError("need at least 1 outcome")
    if len(menus) * blocks != len(ys):
        raise ValidationError("need one estimator menu per outcome")
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
    sector = not partition and design.pieces is not None
    tests = _menu_terms(menus, alpha, n, n_clusters, n_sectors, partition, sector)
    yc -= yc.mean(axis=1, keepdims=True)
    null = [None] * len(ys)
    sums = yc
    crve = slopes = thresholds = None
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
        # every outcome's group sums in one bincount, outcome k's in bins k*F..k*F+F-1,
        # and each sum of squares as a stacked (1, n) @ (n, 1) product: each bin sums
        # its units in unit order and each product is the dot of y @ y, so the bits are
        # those of one bincount and one dot per outcome
        K = len(yc)
        bins = (np.arange(K)[:, None] * n_sectors + design.group_of).ravel()
        sums = np.bincount(bins, weights=yc.ravel(), minlength=K * n_sectors)
        sums = sums.reshape(K, n_sectors)
        a = np.concatenate([yc[:, None] @ yc[:, :, None], sums[:, None] @ sums[:, :, None]], 1)
        a = a.reshape(blocks, -1, 2)
        a = np.where(tests.robust, a[:, tests.outcome, 0], a[:, tests.outcome, 1])
        c = np.sqrt(tests.k * a / (1.0 + tests.k * tests.b))  # (blocks, tests)
        thresholds = np.maximum(c, math.ulp(0.0)).ravel()
    else:
        if tests.crve.size:
            S = yc  # each block's crve outcomes, block by block
            if tests.crve_rows.size < len(menus):
                S = yc.reshape(blocks, len(menus), n)[:, tests.crve_rows].reshape(-1, n)
            crve = np.empty((n_clusters, len(S), n_sectors))
            for members, units in design.pieces:
                # (clusters, K, n_g) @ (clusters, n_g, F); each cluster's outcome rows are
                # laid out as those of one product over its units would be, row-major in a
                # slice of sorted units, column-major in a gather, so its bits are that
                # product's
                S_piece = S[:, units].transpose(1, 0, 2)
                if design.order is None:
                    S_piece = np.ascontiguousarray(S_piece)
                rows = shares[units]  # becomes the centred rows w~_i, in place
                rows -= design.ubar
                crve[members] = np.matmul(S_piece, rows)
            crve = crve.transpose(1, 0, 2).reshape(-1, n_sectors)
        for i, (S, menu) in enumerate(zip(yc, menus * blocks)):
            if "score-agg-null" in menu or "score-agg" in menu:
                null[i] = shares.T @ (S[:, None] * shares), S @ shares
        slopes = yc @ shares - yc.sum(axis=1)[:, None] * design.ubar
        if tests.sector_space:
            design.grams  # built here, so that a kernel sent to the workers carries them
    return _Kernel(
        design=design, tests=tests, S=sums, null=tuple(null), crve=crve, slopes=slopes,
        thresholds=thresholds,
    )


def _kernel_blocks(kernel: _Kernel) -> list[_Kernel]:
    """One kernel per block of ``kernel``'s outcomes, each holding views of its block's terms."""
    n_blocks = len(kernel.S) // len(kernel.tests.menus)
    if n_blocks == 1:
        return [kernel]
    terms = {
        name: (value, len(value) // n_blocks)  # each term is laid out block by block
        for name in ("S", "null", "crve", "slopes", "thresholds")
        if (value := getattr(kernel, name)) is not None
    }
    return [
        replace(kernel, **{name: v[b * size : (b + 1) * size] for name, (v, size) in terms.items()})
        for b in range(n_blocks)
    ]


def _kernel_counts(kernel: _Kernel, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rejection counts per test in ``kernel.estimators``, and skipped draws per outcome.

    ``Z`` is (draws, F): a partition design's group assignments, or sector
    shocks.  On a partition design a test counts the draws whose contrast
    |(z - 1/2).S| reaches its threshold (see _make_kernel), and skips none.  On
    a shift-share design both paths read the regressor terms from the design
    (see ShareDesign) and the kernel, per draw z: xbar = z.ubar and
    ssq = z'Cz; a draw is usable when ssq > tol * (ssq + n*xbar**2); and
    every outcome's slope is z'(W~'S)/ssq, one product for all outcomes.
    Where the design holds sector terms and every test is crve or
    score-agg-null, the kernel works in sector space: every crve outcome's
    cluster scores sum_{i in g} xc_i*(S_i - slope*xc_i) are
    (z'Q~)_g - slope*B_g, with Q~_g = sum_{i in g} w~_i*S_i and
    B_g = (z_e z_f)_{e<=f} . C_g, each in one product for all outcomes.  A
    menu with any other test keeps the unit path: Z is mapped once to the
    (draws, N) regressors X = Z @ shares.T, whose only passes form the
    centred regressors xc and what the unit scores need; a unit's score is
    xc*(S - slope*xc) and its leverage 1/n + xc**2/ssq.  An outcome's
    scores are formed once for all its estimators, and cluster
    scores are segment sums over the units sorted by cluster, or, for crve
    where the design holds sector terms, z'Q~ less the slope times B_g
    summed from the units.  Neither score-agg test reads the unit scores:
    score-agg-null's sector scores sum_i shares_if*xc_i*S_i are the null
    scores (Z @ H)_f - xbar*(S @ shares)_f with H = shares' diag(S) shares,
    and score-agg's sum_i shares_if*xc_i*(S_i - slope*xc_i) are those less
    slope*(X2 @ shares)_f, X2 the squared centred regressors.  Both
    shift-share paths walk the block in row sub-blocks whose widest
    temporary stays within _KERNEL_BYTES (_block_counts), each leaving its
    X2 in its rows of X; the score-agg pair, the factors and every test's
    decision, over one (tests, draws) array, then run once per block, X2 @
    shares in one product for every score-agg outcome.  tests/oracles.py
    keeps a dense unit-level form and the scalar forms of the menu, and the
    engine tests pin agreement with both.
    """
    d, tests = kernel.design, kernel.tests
    if isinstance(d, PartitionDesign):
        T = np.abs((Z - 0.5) @ kernel.S.T)  # (draws, K)
        counts = (T[:, tests.outcome] >= kernel.thresholds).sum(axis=0)
        return counts, np.zeros(len(tests.menus), dtype=np.int64)
    X = None
    if not tests.sector_space:
        X = Z @ d.shares.T
        width = X.shape[1]
    elif kernel.crve is None:
        width = Z.shape[1]
    else:
        width = max(d.grams[0].shape[1], kernel.crve.shape[0])
    rows = max(1, _KERNEL_BYTES // (8 * width))
    parts = [
        _block_counts(kernel, None if X is None else X[lo : lo + rows], Z[lo : lo + rows])
        for lo in range(0, Z.shape[0], rows)
    ]
    values, slopes, xbar, ssq, usable, leverage_ok = parts[0] if len(parts) == 1 else [
        None if t[0] is None else np.concatenate(t, axis=-1) for t in zip(*parts)
    ]
    X2_shares = None  # X2 @ shares, formed once for every score-agg outcome
    for i, null_at, agg_at in tests.aggregated:
        H, s = kernel.null[i]
        scores = Z @ H - xbar[:, None] * s  # the null scores
        if null_at is not None:
            values[null_at] = np.einsum("bk,bk->b", scores, scores)
        if agg_at is not None:
            if X2_shares is None:
                X2_shares = X @ d.shares
            scores -= slopes[i][:, None] * X2_shares
            values[agg_at] = np.einsum("bk,bk->b", scores, scores)
    np.multiply(tests.factors, values, out=values)
    with np.errstate(divide="ignore", invalid="ignore"):
        values /= ssq * ssq
    reject = rejects(slopes[tests.outcome], values, tests.crits)
    ok = usable[None, :].repeat(len(tests.menus), axis=0)  # (outcomes, draws)
    if leverage_ok is not None:
        ok &= leverage_ok | ~tests.guarded
    reject &= ok[tests.outcome]
    return reject.sum(axis=1), (~ok).sum(axis=1)


def _block_counts(kernel: _Kernel, X, Z) -> tuple:
    """The terms of one row sub-block of a shift-share design; X is None in sector space.

    Returns, over the sub-block's rows: the (tests, rows) variances before
    their factors, one row per test, the score-agg pair's left for
    _kernel_counts; the (outcomes, rows) slopes, 0 on an unusable draw;
    and per row xbar, ssq, whether the draw is usable and whether every
    unit's leverage stays below 1 (None unless a menu holds an hc3 test).
    xbar, ssq and the slopes come from Z alone, in both paths.  On the unit
    path X is dead once centred, and its rows become the squared centred
    regressors X2; hc3's deflated scores are ssq * P / ((1 - 1/n)*ssq - X2),
    one pass for the divisor and one for the quotient, the ssq factor taken
    once per draw.
    """
    d, tests = kernel.design, kernel.tests
    n = d.n
    xbar = Z @ d.ubar
    ssq = np.einsum("bf,bf->b", Z @ d.gram, Z)
    usable = ssq > DEGENERATE_TOL * (ssq + n * xbar * xbar)

    values = np.empty((len(tests.estimators), Z.shape[0]))
    leverage_ok = None
    with np.errstate(divide="ignore", invalid="ignore"):
        slopes = np.where(usable, (kernel.slopes @ Z.T) / ssq, 0.0)  # (outcomes, rows)
        if X is not None:
            Xc = X - xbar[:, None]
            X2 = np.multiply(Xc, Xc, out=X)
        if tests.guarded is not None:
            # rounding is monotone, so the largest leverage decides as every unit's would
            leverage_ok = X2.max(axis=1) / ssq + 1.0 / n < 1.0 - 1e-12
            # ssq * (1 - leverage), leverage 1/n + xc**2/ssq: a deflated score is ssq times
            # P / D, and each deflated test's variance takes its ssq**2 once per draw
            D = np.subtract(((1.0 - 1.0 / n) * ssq)[:, None], X2)
        if kernel.crve is not None:  # (G, draws) B, then (K_crve, G, draws) scores
            if X is None:
                cluster_grams, (iu, ju) = d.grams
                Zt = np.ascontiguousarray(Z.T)
                B = cluster_grams @ (Zt[iu] * Zt[ju])
            else:
                B = X2 if d.order is None else X2[:, d.order]
                B = np.add.reduceat(B, d.starts, axis=1).T
            scores = (kernel.crve @ Z.T).reshape(tests.crve.size, B.shape[0], -1)
            scores -= slopes[tests.crve_rows][:, None, :] * B
            values[tests.crve] = np.einsum("kgb,kgb->kb", scores, scores)

        for i, rest in tests.scored:
            # the last outcome writes its scores over Xc and its deflated scores over D,
            # which nothing reads after it
            last = i == tests.scored[-1][0]
            P = slopes[i][:, None] * Xc  # becomes the unit scores xc * (S - slope*xc)
            np.subtract(kernel.S[i], P, out=P)
            P = np.multiply(Xc, P, out=Xc if last else P)
            if tests.guarded is not None and tests.guarded[i, 0]:
                P_deflated = np.divide(P, D, out=D if last else None)
            for j, est in rest:
                scores = P_deflated if est in _DEFLATED else P  # robust: the unit scores
                if est in _CLUSTERED:
                    if d.order is not None:
                        scores = scores[:, d.order]
                    scores = np.add.reduceat(scores, d.starts, axis=1)
                values[j] = np.einsum("bk,bk->b", scores, scores)
                if est in _DEFLATED:
                    values[j] *= ssq * ssq
    return values, slopes, xbar, ssq, usable, leverage_ok


def _sim_chunk(kernels, replications, draw, bounds) -> list[tuple[np.ndarray, np.ndarray]]:
    """Counts of the chunk's rows lo..hi-1, one pair per block they reach, in block order.

    Block b holds rows b*replications..(b+1)*replications-1 and is counted
    with kernels[b].
    """
    lo, hi = bounds
    Z = draw(lo, hi)
    return [
        _kernel_counts(kernels[b], Z[max(lo, b * replications) - lo : (b + 1) * replications - lo])
        for b in range(lo // replications, (hi - 1) // replications + 1)
    ]


@dataclass(frozen=True)
class _Reports:
    """The reports of one simulation, one per fixed outcome.

    bench/tracer.py reads its ``skipped_degenerate``.
    """

    reports: tuple[SimReport, ...]

    @property
    def skipped_degenerate(self) -> int:
        return sum(r.skipped_degenerate for r in self.reports)


def _run_sim(ys, menus, cfg, workers, design, blocks=1) -> _Reports:
    """One report per outcome in ``ys``: ``blocks`` blocks, each tested with ``menus`` on ``design``.

    Block b's outcomes are ys[b*K:(b+1)*K], K = len(menus), and it is tested
    on rows b*R..(b+1)*R-1 of the simulation's draws, R = cfg.replications.
    The draw follows the design: balanced group-level assignments on a
    PartitionDesign, in chunks of _PARTITION_CHUNK rows, and sector shocks on
    a ShareDesign, in chunks of _CHUNK rows.
    """
    check_integer("blocks", blocks)
    if blocks < 1:
        raise ValidationError("need at least 1 block")
    kernel = _make_kernel(ys, menus, cfg.alpha, design, blocks)
    if isinstance(design, PartitionDesign):
        draw, size = partial(_partition_regressors, design.n_groups, cfg.seed), _PARTITION_CHUNK
    else:
        draw, size = partial(_shares_regressors, design.shares, cfg.seed), _CHUNK
    bounds = chunk_bounds(blocks * cfg.replications, size)
    chunk = partial(_sim_chunk, _kernel_blocks(kernel), cfg.replications, draw)
    counts = np.zeros((blocks, len(kernel.estimators)), dtype=np.int64)
    skipped = np.zeros((blocks, len(kernel.tests.menus)), dtype=np.int64)
    for (lo, _), parts in zip(bounds, map_chunks(chunk, bounds, workers)):
        for b, (block_counts, block_skipped) in enumerate(parts, lo // cfg.replications):
            counts[b] += block_counts
            skipped[b] += block_skipped
    counts = iter(counts.ravel().tolist())  # block by block, outcome by outcome, menu order
    return _Reports(tuple(
        SimReport(cfg.seed, cfg.replications, s, {est: next(counts) for est in menu})
        for menu, s in zip(kernel.tests.menus * blocks, skipped.ravel().tolist())
    ))


# ---------------------------------------------------------------------------
# public engine


def run_outcome_fixed(
    outcomes, menus, design: ShareDesign | PartitionDesign, cfg: SimConfig, workers: int = 1,
    blocks: int = 1,
) -> tuple[SimReport, ...]:
    """Hold each outcome vector fixed, resample the draw of ``design`` and test it with its menu.

    ``menus`` holds one estimator menu per outcome of a block, and
    ``outcomes`` holds ``blocks`` blocks of len(menus) outcomes each, block
    after block; the reports follow the outcomes.  On a ShareDesign each of
    a block's ``cfg.replications`` draws is a vector of sector shocks.  On a
    PartitionDesign each treats a random half of the groups; the exact
    distribution over every balanced assignment is
    :func:`ssdiag.analytics.enumerate_assignment_variance`.  Every outcome
    of a block is tested against the same draws, so each report equals that
    of a run on its outcome alone; block b is tested on draws b*R..(b+1)*R-1
    of the stream, R = cfg.replications, so block 0 is a one-block run and
    blocks are independent simulations.
    """
    return _run_sim(outcomes, menus, cfg, workers, design, blocks).reports


def realized_tests(ys, menus, alpha, design: PartitionDesign, Z) -> tuple[np.ndarray, np.ndarray]:
    """Test each block of outcomes once, on its own realized assignment of ``design``.

    ``ys`` holds len(Z) blocks of len(menus) outcomes, as run_outcome_fixed
    takes them, and block b is tested on the balanced group assignment Z[b]
    alone: one kernel for every block, whose tests reject as the
    simulations' do, when |(Z[b] - 1/2).S| reaches the test's threshold (see
    _make_kernel).  Returns the (blocks, tests) rejections, tests in menu
    order outcome by outcome, and the (blocks, K) realized OLS slopes, each
    contrast over n/4.
    """
    Z = np.asarray(Z, dtype=float)
    half = design.n_groups // 2
    if Z.ndim != 2 or Z.shape[1] != design.n_groups:
        raise ValidationError("need one row of group assignments per block")
    if not (((Z == 0.0) | (Z == 1.0)).all() and (Z.sum(axis=1) == half).all()):
        raise ValidationError(f"each assignment must treat {half} of {design.n_groups} groups")
    kernel = _make_kernel(ys, menus, alpha, design, len(Z))
    S = kernel.S.reshape(len(Z), len(menus), -1)
    T = (S @ (Z - 0.5)[:, :, None])[..., 0]  # (blocks, K)
    rejected = np.abs(T[:, kernel.tests.outcome]) >= kernel.thresholds.reshape(len(Z), -1)
    return rejected, T / (design.n_units / 4)
