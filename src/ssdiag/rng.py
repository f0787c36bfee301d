"""Deterministic substreams for parallel Monte Carlo runs.

Each stream is a Philox generator keyed by ``(seed, *path)``: the chunk of
a simulation's draws whose first row is lo draws from
``substream(seed, lo // 256)``.  An experiment takes its outer draws in
chunks of at most OUTER_CHUNK: a chunk of an experiment's outer draws whose
first draw is j0 draws all their data from ``substream(seed, j0, 0)`` and
keys the one inner simulation of all its draws by ``derive_seed(seed, j0,
1)``, and a chunk of the convergence experiment's replications at grid
point f whose first replication is r0 draws from ``substream(seed, f, r0)``.
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

# outer draws (of one mc-table cell, of flag-curve, or of one convergence grid point)
# per chunk, all drawn from one stream: the chunk size is part of the stream layout
OUTER_CHUNK = 16


def check_seed(seed: int) -> None:
    """Refuse a negative seed before any work, as SeedSequence would refuse it mid-run."""
    if seed < 0:
        raise ValidationError(f"seed must be at least 0 (got {seed})")


def substream(seed: int, *path: int) -> Generator:
    """Generator for one chunk, keyed by (seed, *path)."""
    return Generator(Philox(SeedSequence(seed, spawn_key=tuple(path))))


def derive_seed(seed: int, *path: int) -> int:
    """64-bit child seed for a nested simulation stage.

    Used when an outer replication launches its own inner simulation (which
    then keys its chunk substreams off the returned value).
    """
    ss = SeedSequence(seed, spawn_key=tuple(path))
    return int(ss.generate_state(1, np.uint64)[0])
