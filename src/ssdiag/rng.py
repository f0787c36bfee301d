"""Deterministic substreams for parallel Monte Carlo runs.

Each stream is a Philox generator keyed by ``(seed, *path)``: the chunk of
a simulation's draws whose first row is lo draws from
``substream(seed, lo // 256)``, outer draw j of an experiment its data from
``substream(seed, j, 0)``, and replication r of the convergence experiment
at grid point f from ``substream(seed, f, r)``.  A chunk of an
experiment's outer draws whose first draw is j0 keys the one inner
simulation of all its draws by ``derive_seed(seed, j0, 1)``.
Philox is counter-based, so streams for distinct keys are independent, and
since chunk boundaries never depend on the worker count, results do not
depend on execution order or workers.
"""

from __future__ import annotations

import numpy as np
# numpy loads numpy.random on first use; import it with the package instead,
# so the first substream of a command or of a forked worker does not pay it
from numpy.random import Generator, Philox, SeedSequence

from .errors import ValidationError


def check_seed(seed: int) -> None:
    """Refuse a negative seed before any work, as SeedSequence would refuse it mid-run."""
    if seed < 0:
        raise ValidationError(f"seed must be at least 0 (got {seed})")


def substream(seed: int, *path: int) -> Generator:
    """Generator for one chunk or outer draw, keyed by (seed, *path)."""
    return Generator(Philox(SeedSequence(seed, spawn_key=tuple(path))))


def derive_seed(seed: int, *path: int) -> int:
    """64-bit child seed for a nested simulation stage.

    Used when an outer replication launches its own inner simulation (which
    then keys its chunk substreams off the returned value).
    """
    ss = SeedSequence(seed, spawn_key=tuple(path))
    return int(ss.generate_state(1, np.uint64)[0])
