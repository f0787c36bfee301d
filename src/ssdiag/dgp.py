"""Monte Carlo experiment generators.

Two data-generating processes drive the experiments:

* a grouped DGP (states of equal size, balanced state-level treatment,
  optional state shocks and state-heterogeneous effects) used to study the
  distribution of the simulation diagnostics across repeated draws;
* a spatial-confound DGP over a fixed share matrix used to trace the
  probability of flagging a problem as the confound strength varies.

Each draws a chunk of up to rng.OUTER_CHUNK outer draws as blocks from one
stream, tests them with one kernel and resamples them with one engine call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .data import PartitionDesign, contiguous_partition
from .engines import (
    SimConfig, balanced_assignments, check_threshold, flagged, mc_se, realized_tests,
    run_outcome_fixed, share_design,
)
from .errors import ValidationError, check_integer
# both experiments test their realized draws in the kernel (engines.realized_tests)
# and read none of these four names, but bench/tracer.py wraps them in this module
# and raises AttributeError if one is missing
from .estimators import ols_simple, t_test, var_cluster, var_robust  # noqa: F401
from .parallel import chunk_bounds, map_chunks
from .rng import OUTER_CHUNK, derive_seed, substream

# scenario panels for the grouped experiment table
PANEL_PARAMS = {
    "A": {"beta": 0.5, "omega": 0.0, "het_loading": 0.0},
    "B": {"beta": 0.5, "omega": 0.3, "het_loading": 0.0},
    "C": {"beta": 0.0, "omega": 0.3, "het_loading": 0.0},
    "D": {"beta": 0.0, "omega": 0.0, "het_loading": 0.0},
    "E": {"beta": 0.0, "omega": 0.0, "het_loading": 0.4},
}


@dataclass(frozen=True)
class GroupedDGP:
    """States of ``per_state`` units each; half the states are treated.

    Untreated outcome: omega * state_shock + unit_noise (both standard
    normal).  Treated outcome adds beta plus het_loading * state_shock, so a
    nonzero het_loading yields state-heterogeneous effects with zero mean.
    """

    n_states: int
    per_state: int = 10
    omega: float = 0.0
    beta: float = 0.0
    het_loading: float = 0.0
    design: PartitionDesign = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_integer("n_states", self.n_states)
        check_integer("per_state", self.per_state)
        design = contiguous_partition(self.n_states, self.per_state)
        for key in ("omega", "beta", "het_loading"):
            if not math.isfinite(getattr(self, key)):
                raise ValidationError(f"{key} must be finite (got {getattr(self, key)!r})")
        if self.omega < 0 or self.het_loading < 0:
            raise ValidationError("loadings must be nonnegative")
        object.__setattr__(self, "design", design)


@dataclass(frozen=True)
class GroupedDraw:
    """Realized samples over ``GroupedDGP.design``, one row per sample."""

    y: np.ndarray  # (samples, units)
    x: np.ndarray  # (samples, units) the realized unit-level 0/1 treatment
    z: np.ndarray  # (samples, groups) the realized 0/1 group assignment


def draw_grouped(dgp: GroupedDGP, rng, draws: int) -> GroupedDraw:
    """``draws`` realized samples from ``rng``: their outcomes and treatment.

    ``rng`` draws the samples' (draws, groups) state shocks, then their
    (draws, units) unit noise, then their balanced assignments
    (engines.balanced_assignments), each as one block.
    """
    design = dgp.design
    shocks = rng.standard_normal((draws, design.n_groups))
    noise = rng.standard_normal((draws, design.n_units))
    z = balanced_assignments(rng, design.n_groups, draws)
    state_shock = shocks[:, design.group_of]
    x = z[:, design.group_of]
    effect = dgp.beta + dgp.het_loading * state_shock
    y = dgp.omega * state_shock + noise + x * effect
    return GroupedDraw(y=y, x=x, z=z)


@dataclass(frozen=True)
class ExperimentRow:
    """Size and flag rates of one experiment cell or gamma, each with its SE."""

    size: float
    size_se: float
    pr_flag_y: float
    pr_flag_y_se: float
    pr_flag_eps: float
    pr_flag_eps_se: float

    @classmethod
    def from_counts(cls, counts, outer_reps: int) -> ExperimentRow:
        """Rates from (size, y-fixed, eps-fixed) tallies over ``outer_reps`` draws."""
        size, pr_y, pr_eps = (float(c) / outer_reps for c in counts)
        return cls(
            size=size,
            size_se=mc_se(size, outer_reps),
            pr_flag_y=pr_y,
            pr_flag_y_se=mc_se(pr_y, outer_reps),
            pr_flag_eps=pr_eps,
            pr_flag_eps_se=mc_se(pr_eps, outer_reps),
        )


def _outer_draws(dgp: GroupedDGP, block: SimConfig, j0: int, j1: int) -> tuple[np.ndarray, ...]:
    """Draws j0..j1-1 of a cell: each one's size test, and its two fixed outcomes.

    Returns the (draws,) rejections of slope = beta by robust-hc1 at
    ``block.alpha`` and the (2 * draws, units) outcomes, draw j0 + b's y in
    row 2b (y-fixed) and its y - beta_hat * x in row 2b + 1 (eps-fixed),
    beta_hat its realized OLS slope, all drawn from substream(seed, j0, 0).
    One kernel tests every draw on its own realized assignment
    (engines.realized_tests), on y for beta_hat and on y - beta * x for the
    size test: testing slope = beta on y is testing a zero slope on
    y - beta * x, whose residuals are the same.
    """
    draw = draw_grouped(dgp, substream(block.seed, j0, 0), j1 - j0)
    n = dgp.design.n_units
    outcomes = np.stack([draw.y, draw.y - dgp.beta * draw.x], axis=1).reshape(-1, n)
    rejected, slopes = realized_tests(
        outcomes, [("robust-hc1",)] * 2, block.alpha, dgp.design, draw.z
    )
    ys = np.stack([draw.y, draw.y - slopes[:, :1] * draw.x], axis=1).reshape(-1, n)
    return rejected[:, 1], ys


def _grouped_chunk(cells, outer_reps, threshold, bounds) -> np.ndarray:
    """(cells, 3) tallies of the cell-draw pairs lo..hi-1, all of one cell.

    Pair g is draw g % outer_reps of cell g // outer_reps.  A cell is a
    (GroupedDGP, SimConfig) pair: the block configuration at the cell's seed.
    The chunk's draws are drawn and tested on their realized assignments
    at once (_outer_draws), and one engine call resamples all of them.
    """
    lo, hi = bounds
    k, j0 = divmod(lo, outer_reps)
    dgp, block = cells[k]
    # size column: the true effect tested on each realized draw with plain robust inference
    size, ys = _outer_draws(dgp, block, j0, j0 + hi - lo)
    # one engine call, keyed by the chunk's first draw, tests one assignment block per
    # draw: its y-fixed (column 1) and eps-fixed (column 2) outcomes with the size
    # column's estimator
    sims = replace(block, seed=derive_seed(block.seed, j0, 1))
    reports = run_outcome_fixed(ys, [("robust-hc1",)] * 2, dgp.design, sims, blocks=hi - lo)
    flags = [flagged(r.rates["robust-hc1"], threshold) for r in reports]
    counts = np.zeros((len(cells), 3), dtype=np.int64)
    counts[k] = size.sum(), *np.reshape(flags, (-1, 2)).sum(axis=0)
    return counts


def run_grouped_experiment(
    cells, outer_reps: int, perms: int, alpha=0.05, threshold=0.1, workers: int = 1
) -> list[ExperimentRow]:
    """Distribution of the simulation diagnostics across repeated samples.

    ``cells`` is a sequence of (GroupedDGP, seed) pairs, one row each.  Per
    cell and outer draw: (a) one realized-data test of the true effect with
    robust-hc1 at level ``alpha`` (size tally); (b) one permutation
    simulation of ``perms`` draws testing y-fixed and eps-fixed (y - beta_hat
    * treatment, beta_hat the realized OLS slope) on the same draws, so
    their contrast is paired; a mode flags when its robust-hc1 rejection
    rate reaches ``threshold``.  Every cell-draw pair runs through one
    map_chunks call, in chunks of at most OUTER_CHUNK draws of one cell.  A
    chunk whose first draw is j0 draws its draws as blocks from
    substream(seed, j0, 0), tests them on their realized assignments with
    one kernel, whose partition threshold rule decides the size tests and
    whose contrasts give each beta_hat, then makes one engine call keyed by
    derive_seed(seed, j0, 1), in which draw j0 + b is block b.  So a row
    does not depend on the other cells.
    """
    check_integer("outer_reps", outer_reps)
    cells = list(cells)
    if not cells:
        raise ValidationError("need at least 1 experiment cell")
    if outer_reps < 1:
        raise ValidationError("need at least 1 outer replication")
    check_threshold(threshold)
    blocks = [(dgp, SimConfig(perms, seed, alpha)) for dgp, seed in cells]
    bounds = [
        (k * outer_reps + lo, k * outer_reps + hi)
        for k in range(len(cells))
        for lo, hi in chunk_bounds(outer_reps, OUTER_CHUNK)
    ]
    parts = map_chunks(partial(_grouped_chunk, blocks, outer_reps, threshold), bounds, workers)
    return [ExperimentRow.from_counts(c, outer_reps) for c in np.sum(parts, axis=0)]


# ---------------------------------------------------------------------------
# spatial-confound (flagging) experiment


def crossed_shares(n_clusters: int, n_sectors: int) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic crossed design: unit (c, s) belongs to cluster c and sector s.

    Sectors cut across clusters (each cluster spans every sector), so a
    sector-level confound induces correlation that cluster-robust inference
    cannot absorb.  Clusters equal to sectors would make the confound purely
    within-cluster and leave nothing for the diagnostics to detect.
    """
    check_integer("n_clusters", n_clusters)
    check_integer("n_sectors", n_sectors)
    if n_clusters < 2 or n_sectors < 2:
        raise ValidationError("need at least 2 clusters and 2 sectors")
    n = n_clusters * n_sectors
    shares = np.zeros((n, n_sectors))
    shares[np.arange(n), np.tile(np.arange(n_sectors), n_clusters)] = 1.0
    return shares, np.repeat(np.arange(n_clusters), n_sectors)


@dataclass(frozen=True)
class FlaggingDraw:
    """The parts of spatial-confound draws, one per row, that do not depend on gamma.

    y_i(gamma) = z_i + gamma * sum_f w_if * u_f with z and the latent shocks u
    iid standard normal.  The regressor x uses an independent shock draw over
    the same shares, so the regression slope has mean zero while the errors
    inherit share-driven spatial correlation scaled by |gamma|.
    """

    z: np.ndarray  # (draws, units)
    confound: np.ndarray  # (draws, units), u @ shares.T
    x: np.ndarray  # (draws, units), shocks @ shares.T
    shocks: np.ndarray  # (draws, sectors)

    def outcome(self, gamma: float) -> np.ndarray:
        return self.z + gamma * self.confound


def draw_flagging(shares: np.ndarray, rng: np.random.Generator, draws: int) -> FlaggingDraw:
    """``draws`` draws' noise, confound and regressor blocks, drawn in that order from ``rng``."""
    n, n_sectors = shares.shape
    z = rng.standard_normal((draws, n))
    confound = rng.standard_normal((draws, n_sectors)) @ shares.T
    shocks = rng.standard_normal((draws, n_sectors))
    return FlaggingDraw(z=z, confound=confound, x=shocks @ shares.T, shocks=shocks)


def _flagging_chunk(design, gammas, block, threshold, bounds) -> np.ndarray:
    """(gammas, 3) tallies of the outer draws lo..hi-1; ``block`` is at the experiment's seed.

    The draws come from substream(seed, lo, 0) as one block (draw_flagging).  One
    kernel call tests every draw on its own shocks (the size tests and each beta_hat),
    and one engine call keyed by the chunk's first draw tests draw lo + b as block b:
    its K y-fixed outcomes, then its K eps-fixed ones y - beta_hat * x.
    """
    lo, hi = bounds
    k = len(gammas)
    draw = draw_flagging(design.shares, substream(block.seed, lo, 0), hi - lo)
    ys = np.stack([draw.outcome(gamma) for gamma in gammas], axis=1).reshape(k * (hi - lo), -1)
    rejected, slopes = realized_tests(ys, [("crve",)] * k, block.alpha, design, draw.shocks)
    ydots = ys - slopes.reshape(-1, 1) * np.repeat(draw.x, k, axis=0)
    outcomes = np.hstack([ys.reshape(hi - lo, -1), ydots.reshape(hi - lo, -1)])
    sims = replace(block, seed=derive_seed(block.seed, lo, 1))
    reports = run_outcome_fixed(
        outcomes.reshape(-1, ys.shape[1]), [("crve",)] * (2 * k), design, sims, blocks=hi - lo
    )
    flags = np.reshape([flagged(r.rates["crve"], threshold) for r in reports], (-1, 2, k))
    return np.column_stack([rejected.sum(axis=0), flags.sum(axis=0).T])


def check_flagging(gamma_grid, outer_reps: int) -> list[float]:
    """The confound strengths as floats, refused if there are none or outer_reps is not a count."""
    check_integer("outer_reps", outer_reps)
    gammas = [float(g) for g in gamma_grid]
    if not gammas:
        raise ValidationError("gamma grid is empty")
    if outer_reps < 1:
        raise ValidationError("need at least 1 outer replication")
    return gammas


def run_flagging_curve(
    shares, clusters, gamma_grid, outer_reps: int, perms: int, seed: int,
    alpha=0.05, threshold=0.1, workers: int = 1,
) -> list[ExperimentRow]:
    """Flagging probabilities and test size along a confound-strength grid.

    Per gamma and outer draw: test a zero slope with cluster-robust inference
    at level ``alpha`` (size tally) and test y-fixed and eps-fixed with crve
    over ``perms`` shock draws, flagging when the rejection rate reaches
    ``threshold``.  Draws are paired across gamma values and modes (every
    gamma reads each outer draw, and one shock block per outer draw tests
    every gamma in both modes), so curve differences and the y-versus-eps
    contrast are low-noise.  A chunk of at most OUTER_CHUNK outer draws
    whose first draw is j0 draws them from substream(seed, j0, 0) and makes
    one engine call, keyed by derive_seed(seed, j0, 1), in which draw j0 + b
    is block b.  Cluster labels count only the
    clusters they name (share_design), and the shares' design terms are
    built once per command.  Returns one row per gamma, in grid order.
    """
    gammas = check_flagging(gamma_grid, outer_reps)
    check_threshold(threshold)
    block = SimConfig(perms, seed, alpha)
    if clusters is None:
        raise ValidationError("cluster labels do not match shares")
    design = share_design(shares, clusters)
    chunk = partial(_flagging_chunk, design, gammas, block, threshold)
    parts = map_chunks(chunk, chunk_bounds(outer_reps, OUTER_CHUNK), workers)
    return [ExperimentRow.from_counts(c, outer_reps) for c in np.sum(parts, axis=0)]
