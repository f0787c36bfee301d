#!/usr/bin/env python3
"""Grouped experiment table at the full reference budget (20,000 x 500).

Thin wrapper over `ssdiag mc-table`; pass --seed, --out, --workers, etc.
`--seed 7 --workers 2` took 122 s (about 2 minutes) on a 2-core machine;
the desk-scale default (2,000 x 200) is what `ssdiag mc-table` runs without
overrides.
"""

import sys

from ssdiag.cli import main

if __name__ == "__main__":
    sys.exit(main(["mc-table", "--reps", "20000", "--perms", "500", *sys.argv[1:]]))
