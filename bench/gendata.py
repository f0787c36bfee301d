#!/usr/bin/env python3
"""Write the diagnose-large input CSVs (shares and outcomes) for one seed.

N regions and F sectors with dense Gamma(0.3) shares normalised per row,
contiguous clusters of equal size, a realized shift-share regressor
x = shares @ g with g iid standard normal, the outcome y = beta * x + noise
and an independent pure-noise placebo outcome.  The same seed always gives
the same bytes.

    python3 bench/gendata.py --seed 7 --out-dir bench/out/data-7
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_REGIONS = 10_000
N_SECTORS = 100
N_CLUSTERS = 100
SHARE_SHAPE = 0.3
BETA = 2.0


@dataclass(frozen=True)
class DiagnoseInputs:
    shares: np.ndarray  # (N, F)
    clusters: np.ndarray  # (N,)
    x_realized: np.ndarray
    y: np.ndarray
    y_placebo: np.ndarray


def make_inputs(seed: int) -> DiagnoseInputs:
    rng = np.random.default_rng([seed, N_REGIONS, N_SECTORS])
    shares = rng.gamma(SHARE_SHAPE, size=(N_REGIONS, N_SECTORS))
    shares /= shares.sum(axis=1, keepdims=True)
    x = shares @ rng.standard_normal(N_SECTORS)
    return DiagnoseInputs(
        shares=shares,
        clusters=np.repeat(np.arange(N_CLUSTERS), N_REGIONS // N_CLUSTERS),
        x_realized=x,
        y=BETA * x + rng.standard_normal(N_REGIONS),
        y_placebo=rng.standard_normal(N_REGIONS),
    )


def write_csvs(inputs: DiagnoseInputs, out_dir: Path) -> tuple[Path, Path]:
    """Write shares.csv and outcomes.csv; floats use repr, so they read back exactly."""
    out_dir.mkdir(parents=True, exist_ok=True)
    n, f = inputs.shares.shape
    shares_path = out_dir / "shares.csv"
    with open(shares_path, "w", encoding="utf-8") as handle:
        handle.write("region_id," + ",".join(f"s_{j}" for j in range(1, f + 1)) + "\n")
        for i, row in enumerate(inputs.shares.tolist()):
            handle.write(f"r{i}," + ",".join(map(repr, row)) + "\n")
    outcomes_path = out_dir / "outcomes.csv"
    with open(outcomes_path, "w", encoding="utf-8") as handle:
        handle.write("region_id,y,y_placebo,cluster,x_realized\n")
        for i, (y, yp, c, x) in enumerate(
            zip(
                inputs.y.tolist(),
                inputs.y_placebo.tolist(),
                inputs.clusters.tolist(),
                inputs.x_realized.tolist(),
            )
        ):
            handle.write(f"r{i},{y!r},{yp!r},{c},{x!r}\n")
    return shares_path, outcomes_path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args()
    paths = write_csvs(make_inputs(args.seed), args.out_dir)
    print(" ".join(str(p) for p in paths))


if __name__ == "__main__":
    main()
