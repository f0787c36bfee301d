#!/usr/bin/env python3
"""Grouped experiment table at the full reference budget (20,000 x 500).

Thin wrapper over `ssdiag mc-table`; pass --seed, --out, --workers, etc.
`--seed 7 --workers 2` took 31 s on a 2-core machine;
the desk-scale default (2,000 x 200) is what `ssdiag mc-table` runs without
overrides.

The report is written as `ssdiag mc-table` writes it.  Then stderr gets the
chi-square of the report's numbers against the 500-permutation reference
table of acceptance criterion 5, which tests/test_acceptance.py pins, and
the largest |z|.  Each z is (value - reference) / sqrt(ref * (1 - ref) / reps),
the binomial standard error of the reference at the run's outer draws, over
every (panel, states) cell the table holds.

`--record PATH` appends one JSON entry to the list in PATH (a new file
starts one): the resolved seed, reps, perms and workers, the numpy version,
the report's SHA-256, chi-square with and without the reference's rounding
variance 0.001**2 / 12 in each cell's variance, and per cell its value,
reference, SE and z.  Neither chi-square holds the reference table's own
Monte Carlo error, which is unknown.
"""

import argparse
import ast
import contextlib
import csv
import hashlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from ssdiag import cli

ACCEPTANCE = Path(__file__).resolve().parent.parent / "tests" / "test_acceptance.py"
COLUMNS = ("size", "pr_gamma_y", "pr_gamma_eps")
ROUNDING_VARIANCE = 0.001**2 / 12  # the reference's 3-decimal rounding, uniform
_OUT = argparse.ArgumentParser(add_help=False)
_OUT.add_argument("--out")
_RECORD = argparse.ArgumentParser(add_help=False)
_RECORD.add_argument("--record", type=Path)


def reference_table() -> dict:
    """REFERENCE_TABLE as tests/test_acceptance.py states it, read without importing the tests."""
    for node in ast.parse(ACCEPTANCE.read_text(encoding="utf-8")).body:
        names = [getattr(target, "id", None) for target in getattr(node, "targets", ())]
        if names == ["REFERENCE_TABLE"]:
            return ast.literal_eval(node.value)
    raise LookupError(f"no REFERENCE_TABLE in {ACCEPTANCE}")


def fit(report: str) -> list[dict]:
    """Per reference cell an mc-table report holds: its value, reference, SE and z."""
    comment, body = report.split("\n", 1)
    reps = int(dict(pair.split("=", 1) for pair in comment[2:].split())["reps"])
    table = reference_table()
    cells = []
    for row in csv.DictReader(io.StringIO(body)):
        reference = table.get((row["panel"], int(row["n_states"])), ())
        for column, ref in zip(COLUMNS, reference):
            value, se = float(row[column]), math.sqrt(ref * (1.0 - ref) / reps)
            cells.append({
                "cell": f"{row['panel']}/{row['n_states']} {column}",
                "value": value, "reference": ref, "se": se, "z": (value - ref) / se,
            })
    return cells


def fit_line(report: str) -> str:
    """The chi-square and largest |z| of an mc-table report against the reference table."""
    cells = fit(report)
    if not cells:
        return "no cell of the reference table in this report"
    worst = max(cells, key=lambda cell: abs(cell["z"]))
    chi2 = sum(cell["z"] ** 2 for cell in cells)
    return (
        f"chi2({len(cells)}) = {chi2:.1f} against the reference table; "
        f"largest |z| = {abs(worst['z']):.2f} ({worst['cell']})"
    )


def record(path: Path, report: bytes, settings: dict) -> None:
    """Append the entry of one run to the JSON list in ``path``."""
    cells = fit(report.decode("utf-8"))
    entry = {
        **{key: settings[key] for key in ("seed", "reps", "perms", "workers")},
        "numpy": np.__version__,
        "sha256": hashlib.sha256(report).hexdigest(),
        "df": len(cells),
        "chi2": sum(cell["z"] ** 2 for cell in cells),
        "chi2_with_rounding": sum(
            (cell["value"] - cell["reference"]) ** 2 / (cell["se"] ** 2 + ROUNDING_VARIANCE)
            for cell in cells
        ),
        "cells": cells,
    }
    entries = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    path.write_text(json.dumps([*entries, entry], indent=1) + "\n", encoding="utf-8")


def run(args: list[str]) -> int:
    options, args = _RECORD.parse_known_args(args)
    argv = ["mc-table", "--reps", "20000", "--perms", "500", *args]
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
    finally:  # --help, say, leaves main by SystemExit, and what it printed is output too
        sys.stdout.write(stdout.getvalue())
    out = _OUT.parse_known_args(args)[0].out
    report = Path(out).read_bytes() if code == 0 and out else stdout.getvalue().encode("utf-8")
    if code == 0 and report:
        print(fit_line(report.decode("utf-8")), file=sys.stderr)
        if options.record is not None:
            # the settings the command ran with, resolved as it resolved them
            record(options.record, report, cli._resolve(cli._build_parser().parse_args(argv)))
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
