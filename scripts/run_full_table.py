#!/usr/bin/env python3
"""Grouped experiment table at the full reference budget (20,000 x 500).

Thin wrapper over `ssdiag mc-table`; pass --seed, --out, --workers, etc.
`--seed 7 --workers 2` took 37 s on a 2-core machine;
the desk-scale default (2,000 x 200) is what `ssdiag mc-table` runs without
overrides.

The report is written as `ssdiag mc-table` writes it.  Then stderr gets the
chi-square of the report's numbers against the 500-permutation reference
table of acceptance criterion 5, which tests/test_acceptance.py pins, and
the largest |z|.  Each z is (value - reference) / sqrt(ref * (1 - ref) / reps),
the binomial standard error of the reference at the run's outer draws, over
every (panel, states) cell the table holds.
"""

import argparse
import ast
import contextlib
import csv
import io
import math
import sys
from pathlib import Path

from ssdiag.cli import main

ACCEPTANCE = Path(__file__).resolve().parent.parent / "tests" / "test_acceptance.py"
COLUMNS = ("size", "pr_gamma_y", "pr_gamma_eps")
_OUT = argparse.ArgumentParser(add_help=False)
_OUT.add_argument("--out")


def reference_table() -> dict:
    """REFERENCE_TABLE as tests/test_acceptance.py states it, read without importing the tests."""
    for node in ast.parse(ACCEPTANCE.read_text(encoding="utf-8")).body:
        names = [getattr(target, "id", None) for target in getattr(node, "targets", ())]
        if names == ["REFERENCE_TABLE"]:
            return ast.literal_eval(node.value)
    raise LookupError(f"no REFERENCE_TABLE in {ACCEPTANCE}")


def fit_line(report: str) -> str:
    """The chi-square and largest |z| of an mc-table report against the reference table."""
    comment, body = report.split("\n", 1)
    reps = int(dict(pair.split("=", 1) for pair in comment[2:].split())["reps"])
    table = reference_table()
    z = {}
    for row in csv.DictReader(io.StringIO(body)):
        reference = table.get((row["panel"], int(row["n_states"])), ())
        for column, ref in zip(COLUMNS, reference):
            name = f"{row['panel']}/{row['n_states']} {column}"
            z[name] = (float(row[column]) - ref) / math.sqrt(ref * (1.0 - ref) / reps)
    if not z:
        return "no cell of the reference table in this report"
    worst = max(z, key=lambda name: abs(z[name]))
    chi2 = sum(value * value for value in z.values())
    return (
        f"chi2({len(z)}) = {chi2:.1f} against the reference table; "
        f"largest |z| = {abs(z[worst]):.2f} ({worst})"
    )


def run(args: list[str]) -> int:
    argv = ["mc-table", "--reps", "20000", "--perms", "500", *args]
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
    finally:  # --help, say, leaves main by SystemExit, and what it printed is output too
        sys.stdout.write(stdout.getvalue())
    out = _OUT.parse_known_args(args)[0].out
    report = Path(out).read_text(encoding="utf-8") if code == 0 and out else stdout.getvalue()
    if code == 0 and report:
        print(fit_line(report), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
