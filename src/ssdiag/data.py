"""Domain types: validated datasets and partition designs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

def _frozen_array(values, dtype=float) -> np.ndarray:
    """Copy into a read-only contiguous array (all domain types are immutable)."""
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Dataset:
    """One cross-section: outcomes, exposure shares, optional clusters, placebo and regressor.

    Rows are regions; :func:`ssdiag.cli.ingest` joins the files on their ids
    and keeps none.  Construct through :func:`validate_dataset`; the raw
    constructor performs no checks and is reserved for internal pre-validated
    inputs.
    """

    y: np.ndarray
    shares: np.ndarray  # (N, F), nonnegative, no all-zero row
    clusters: np.ndarray | None = None  # contiguous int labels 0..G-1
    y_placebo: np.ndarray | None = None
    x_realized: np.ndarray | None = None  # the realized regressor

    @property
    def n_regions(self) -> int:
        return self.y.shape[0]

    @property
    def n_sectors(self) -> int:
        return self.shares.shape[1]

    @property
    def n_clusters(self) -> int | None:
        if self.clusters is None:
            return None
        return int(self.clusters.max()) + 1


@dataclass(frozen=True)
class PartitionDesign:
    """Equal-size grouping of units: ``n_groups`` groups of ``group_size`` each.

    Units 0..m-1 form group 0, the next m group 1, and so on; the group count
    is even, so half the groups can be treated.  A realized assignment is a
    draw, not part of the design (:func:`draw_treatment`).  Construct through
    :func:`contiguous_partition`.
    """

    n_groups: int
    group_size: int
    group_of: np.ndarray  # (N,) int, values in 0..n_groups-1

    @property
    def n_units(self) -> int:
        return self.n_groups * self.group_size


def contiguous_labels(labels) -> np.ndarray:
    """Integer cluster labels relabeled 0..G-1 in order of first appearance."""
    labels = np.asarray(labels)
    if not np.issubdtype(labels.dtype, np.integer):
        if not np.all(labels == np.floor(labels)):
            raise ValidationError("cluster labels must be integers")
        labels = labels.astype(np.int64)
    _, first_index, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first_index))[inverse]


def validate_dataset(
    y,
    shares,
    clusters=None,
    y_placebo=None,
    x_realized=None,
) -> Dataset:
    """Check array shapes and invariants, returning an immutable Dataset.

    Region ids are not an input: ``ingest`` checks them.  Cluster labels are
    relabeled to contiguous 0..G-1 in order of first appearance so
    downstream accumulators can index arrays directly.
    Idempotent: validating the fields of a validated Dataset reproduces it.
    """
    y = _frozen_array(y)
    shares = _frozen_array(shares)
    if y.ndim != 1:
        raise ValidationError("outcome must be a vector")
    n = y.shape[0]
    if shares.ndim != 2:
        raise ValidationError("shares must be a matrix")
    if shares.shape[0] != n:
        raise ValidationError(
            f"shares rows ({shares.shape[0]}) do not match outcomes ({n})"
        )
    if n < 3:
        raise ValidationError("need at least 3 regions")
    if shares.shape[1] < 2:
        raise ValidationError("need at least 2 sectors")
    if not np.all(np.isfinite(y)):
        raise ValidationError("non-finite outcome")
    if not np.all(np.isfinite(shares)):
        raise ValidationError("non-finite share")
    if np.any(shares < 0):
        raise ValidationError("negative share")
    if np.any(~np.any(shares > 0, axis=1)):
        raise ValidationError("degenerate exposure row (all shares zero)")

    if clusters is not None:
        labels = np.asarray(clusters)
        if labels.shape != (n,):
            raise ValidationError(f"cluster labels ({labels.shape}) do not match outcomes ({n})")
        clusters = _frozen_array(contiguous_labels(labels), dtype=np.int64)

    if y_placebo is not None:
        y_placebo = _frozen_array(y_placebo)
        if y_placebo.shape != (n,):
            raise ValidationError(f"placebo outcome ({y_placebo.shape}) does not match outcomes ({n})")
        if not np.all(np.isfinite(y_placebo)):
            raise ValidationError("non-finite placebo outcome")

    if x_realized is not None:
        x_realized = _frozen_array(x_realized)
        if x_realized.shape != (n,):
            raise ValidationError(f"realized regressor ({x_realized.shape}) does not match outcomes ({n})")
        if not np.all(np.isfinite(x_realized)):
            raise ValidationError("non-finite realized regressor")

    return Dataset(
        y=y,
        shares=shares,
        clusters=clusters,
        y_placebo=y_placebo,
        x_realized=x_realized,
    )


def contiguous_partition(n_groups: int, group_size: int) -> PartitionDesign:
    """Validating constructor: ``n_groups`` contiguous groups of ``group_size`` units."""
    if n_groups < 2:
        raise ValidationError("need at least 2 groups")
    if n_groups % 2:
        raise ValidationError("balanced assignment requires an even group count")
    if group_size < 1:
        raise ValidationError("group size must be at least 1")
    group_of = _frozen_array(np.repeat(np.arange(n_groups), group_size), dtype=np.int64)
    return PartitionDesign(n_groups=n_groups, group_size=group_size, group_of=group_of)


def draw_treatment(design: PartitionDesign, rng: np.random.Generator) -> np.ndarray:
    """Unit-level 0/1 regressor of one balanced assignment, drawn from ``rng``.

    One permutation of the groups treats its first half.
    """
    treated = np.zeros(design.n_groups)
    treated[rng.permutation(design.n_groups)[: design.n_groups // 2]] = 1.0
    return treated[design.group_of]
