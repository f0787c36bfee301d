"""Monte Carlo experiment generators.

Two data-generating processes drive the experiments:

* a grouped DGP (states of equal size, balanced state-level treatment,
  optional state shocks and state-heterogeneous effects) used to study the
  distribution of the simulation diagnostics across repeated draws;
* a spatial-confound DGP over a fixed share matrix used to trace the
  probability of flagging a problem as the confound strength varies.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .data import PartitionDesign, contiguous_labels, contiguous_partition, draw_treatment
from .engines import SimConfig, check_threshold, flagged, mc_se, run_outcome_fixed, share_design
from .errors import ValidationError
from .estimators import ols_fits, ols_simple, t_test, var_cluster, var_robust
from .parallel import chunk_bounds, map_chunks
from .rng import derive_seed, substream

# outer draw j of a cell keys its own streams, so the chunk size changes no
# report; a chunk of 16 cell-draw pairs may span two cells
_OUTER_CHUNK = 16

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
        design = contiguous_partition(self.n_states, self.per_state)
        if self.omega < 0 or self.het_loading < 0:
            raise ValidationError("loadings must be nonnegative")
        object.__setattr__(self, "design", design)


@dataclass(frozen=True)
class GroupedDraw:
    """One realized sample over ``GroupedDGP.design``."""

    y: np.ndarray
    x: np.ndarray  # the realized unit-level 0/1 treatment
    sate: float


def draw_grouped(dgp: GroupedDGP, rng: np.random.Generator) -> GroupedDraw:
    """One realized sample: outcomes, treatment and the realized SATE.

    Draws the state shocks, the unit noise and the assignment, in that order.
    """
    design = dgp.design
    state_shock = rng.standard_normal(dgp.n_states)[design.group_of]
    noise = rng.standard_normal(design.n_units)
    x = draw_treatment(design, rng)
    effect = dgp.beta + dgp.het_loading * state_shock
    y = dgp.omega * state_shock + noise + x * effect
    return GroupedDraw(y=y, x=x, sate=float(effect.mean()))


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


def _grouped_chunk(cells, outer_reps, threshold, bounds) -> np.ndarray:
    """(cells, 3) tallies of the cell-draw pairs lo..hi-1.

    Pair g is draw g % outer_reps of cell g // outer_reps.  A cell is a
    (GroupedDGP, SimConfig) pair: the block configuration at the cell's seed.
    """
    lo, hi = bounds
    counts = np.zeros((len(cells), 3), dtype=np.int64)
    for g in range(lo, hi):
        k, j = divmod(g, outer_reps)
        dgp, block = cells[k]
        draw = draw_grouped(dgp, substream(block.seed, j, 0))
        fit = ols_simple(draw.y, draw.x)
        # size column: test the true effect with plain robust inference
        counts[k, 0] += t_test(fit.slope, dgp.beta, var_robust(fit), block.alpha)
        # one assignment block tests y-fixed (column 1) and eps-fixed (column 2)
        # with the size column's estimator
        ydot = draw.y - fit.slope * draw.x
        block_j = replace(block, seed=derive_seed(block.seed, j, 1))
        reports = run_outcome_fixed([draw.y, ydot], [("robust-hc1",)] * 2, dgp.design, block_j)
        counts[k, 1:] += [flagged(r.rates["robust-hc1"], threshold) for r in reports]
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
    map_chunks call, and draw j of a cell keys its own streams
    (substream(seed, j, 0), derive_seed(seed, j, 1)), so a row does not
    depend on the other cells.
    """
    cells = list(cells)
    if not cells:
        raise ValidationError("need at least 1 experiment cell")
    if outer_reps < 1:
        raise ValidationError("need at least 1 outer replication")
    check_threshold(threshold)
    blocks = [(dgp, SimConfig(perms, seed, alpha)) for dgp, seed in cells]
    parts = map_chunks(
        partial(_grouped_chunk, blocks, outer_reps, threshold),
        chunk_bounds(len(cells) * outer_reps, _OUTER_CHUNK),
        workers,
    )
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
    if n_clusters < 2 or n_sectors < 2:
        raise ValidationError("need at least 2 clusters and 2 sectors")
    n = n_clusters * n_sectors
    shares = np.zeros((n, n_sectors))
    shares[np.arange(n), np.tile(np.arange(n_sectors), n_clusters)] = 1.0
    return shares, np.repeat(np.arange(n_clusters), n_sectors)


@dataclass(frozen=True)
class FlaggingDraw:
    """The parts of one spatial-confound draw that do not depend on gamma.

    y_i(gamma) = z_i + gamma * sum_f w_if * u_f with z and the latent shocks u
    iid standard normal.  The regressor x uses an independent shock draw over
    the same shares, so the regression slope has mean zero while the errors
    inherit share-driven spatial correlation scaled by |gamma|.
    """

    z: np.ndarray
    confound: np.ndarray  # shares @ u
    x: np.ndarray

    def outcome(self, gamma: float) -> np.ndarray:
        return self.z + gamma * self.confound


def draw_flagging(shares: np.ndarray, rng: np.random.Generator) -> FlaggingDraw:
    """Noise, confound and regressor, drawn in that order from ``rng``."""
    n, n_sectors = shares.shape
    z = rng.standard_normal(n)
    confound = shares @ rng.standard_normal(n_sectors)
    x = shares @ rng.standard_normal(n_sectors)
    return FlaggingDraw(z=z, confound=confound, x=x)


def _flagging_chunk(design, clusters, gammas, block, threshold, bounds) -> np.ndarray:
    """(gammas, 3) tallies of the outer draws lo..hi-1; ``block`` is at the experiment's seed."""
    lo, hi = bounds
    counts = np.zeros((len(gammas), 3), dtype=np.int64)
    for j in range(lo, hi):
        draw = draw_flagging(design.shares, substream(block.seed, j, 0))
        ys = [draw.outcome(gamma) for gamma in gammas]
        fits = ols_fits(ys, draw.x)
        for gi, fit in enumerate(fits):
            variance = var_cluster(fit, clusters)
            counts[gi, 0] += t_test(fit.slope, 0.0, variance, block.alpha)
        ydots = [y_star - fit.slope * draw.x for y_star, fit in zip(ys, fits)]
        # one shock block, drawn from derive_seed(seed, j, 1), tests every gamma in
        # both modes: y-fixed fills column 1 and eps-fixed column 2
        block_j = replace(block, seed=derive_seed(block.seed, j, 1))
        reports = run_outcome_fixed(ys + ydots, [("crve",)] * (2 * len(gammas)), design, block_j)
        flags = [flagged(r.rates["crve"], threshold) for r in reports]
        counts[:, 1:] += np.reshape(flags, (2, -1)).T
    return counts


def run_flagging_curve(
    shares, clusters, gamma_grid, outer_reps: int, perms: int, seed: int,
    alpha=0.05, threshold=0.1, workers: int = 1,
) -> list[ExperimentRow]:
    """Flagging probabilities and test size along a confound-strength grid.

    Per gamma and outer draw: test a zero slope with cluster-robust inference
    at level ``alpha`` (size tally) and test y-fixed and eps-fixed with crve
    over ``perms`` shock draws, flagging when the rejection rate reaches
    ``threshold``.  Draws are paired across gamma values and modes (same
    substream per outer index, and one shock simulation per outer draw tests
    every gamma in both modes), so curve differences and the y-versus-eps
    contrast are low-noise.  Cluster labels count only the clusters they
    name: they are relabeled 0..G-1 in order of first appearance.  The
    shares' design terms are built once, for every simulation of the
    command.  Returns one row per gamma, in grid order.
    """
    gammas = [float(g) for g in gamma_grid]
    if not gammas:
        raise ValidationError("gamma grid is empty")
    if outer_reps < 1:
        raise ValidationError("need at least 1 outer replication")
    check_threshold(threshold)
    block = SimConfig(perms, seed, alpha)
    if clusters is None:
        raise ValidationError("cluster labels do not match shares")
    design = share_design(shares, clusters)
    clusters = contiguous_labels(clusters)
    parts = map_chunks(
        partial(_flagging_chunk, design, clusters, gammas, block, threshold),
        chunk_bounds(outer_reps, _OUTER_CHUNK),
        workers,
    )
    return [ExperimentRow.from_counts(c, outer_reps) for c in np.sum(parts, axis=0)]
