#!/usr/bin/env python3
"""Write a small example dataset (shares + outcomes CSVs) for the CLI.

The data come from a grouped draw with a homogeneous effect, so the y-fixed
diagnostic should flag cluster-robust inference while the eps-fixed one
should not.  Bad settings print ``error: ...`` to stderr and exit 2, as
``ssdiag`` does.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ssdiag import GroupedDGP, ValidationError, draw_grouped
from ssdiag.rng import check_seed, substream


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("example_data"))
    parser.add_argument("--states", type=int, default=8)
    parser.add_argument("--per-state", type=int, default=5)
    parser.add_argument("--beta", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=4)
    args = parser.parse_args()

    check_seed(args.seed)
    dgp = GroupedDGP(n_states=args.states, per_state=args.per_state, beta=args.beta)
    draw = draw_grouped(dgp, substream(args.seed, 0))
    placebo = draw_grouped(
        GroupedDGP(n_states=args.states, per_state=args.per_state), substream(args.seed, 1)
    )
    n = dgp.design.n_units

    try:
        args.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot write {args.out_dir}: {exc}") from exc
    header = "region_id," + ",".join(f"s_{j}" for j in range(1, args.states + 1))
    lines = [header]
    for i in range(n):
        row = ["1" if g == dgp.design.group_of[i] else "0" for g in range(args.states)]
        lines.append(f"u{i}," + ",".join(row))
    (args.out_dir / "shares.csv").write_text("\n".join(lines) + "\n")

    lines = ["region_id,y,y_placebo,cluster,x_realized"]
    for i in range(n):
        lines.append(
            f"u{i},{float(draw.y[i])!r},{float(placebo.y[i])!r},"
            f"{dgp.design.group_of[i]},{float(draw.x[i])!r}"
        )
    (args.out_dir / "outcomes.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {args.out_dir}/shares.csv and {args.out_dir}/outcomes.csv ({n} regions)")


if __name__ == "__main__":
    try:
        main()
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
