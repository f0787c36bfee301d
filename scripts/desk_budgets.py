#!/usr/bin/env python3
"""Wall and CPU time of the desk budgets, each command run in a fresh process.

    python scripts/desk_budgets.py --runs 5 --record DESK.json
    python scripts/desk_budgets.py --src ../parent/src --src src --runs 10

The desk budgets are the end-to-end list of ROADMAP north star item 1:
`diagnose` on the toy goldens, `mc-table` at 2000 x 200 and `flag-curve` at
500 x 200 on the crossed 25 x 20 design, each on 2 workers; `--tier1` adds
the Tier-1 suite (`pytest -q` in the source tree's root).  `--reps` and
`--perms` shrink the budgets for a quick check.

Each command runs `--runs` times through a small launcher that imports
ssdiag from the `--src` tree (default: this checkout's `src/`) and reports
the CPU time of its own process and of the pool workers it waited for.
With two or more `--src` trees every round runs each command once per tree,
and the tree that goes first turns with each round.  Wall time is measured
around the launcher, so it includes the interpreter's start-up.

Every run of a command must exit 0, and its report must have the same
SHA-256 on every run and every tree; otherwise the script exits 1 and
records nothing.  A table goes to stdout.  `--record PATH` appends one entry
per tree to the JSON list in PATH (a new file starts one): the tree's
commit (`git describe --always`, null outside git), the SHA-256 of its
`*.py` files, the core count, the numpy version, OPENBLAS_NUM_THREADS (null
when unset), the run count, and per command its argv, the minimum and median
wall time and CPU time (self and children) in seconds, and the report's
SHA-256 (null for the Tier-1 suite, which writes none).  `--record` refuses
a tree with uncommitted changes under it, so an entry's commit names the
code it timed.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# runs one command with ssdiag imported from sys.path[0]; prints its own CPU seconds and
# those of the children it waited for
_LAUNCHER = """
import json, resource, sys
if sys.argv[1] == "pytest":
    import pytest
    code = pytest.main(sys.argv[2:])
else:
    from ssdiag.cli import main
    code = main(sys.argv[2:])
usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
print(json.dumps([u.ru_utime + u.ru_stime for u in usage]))
sys.exit(code)
"""


def commands(reps: int | None, perms: int | None) -> dict:
    """The desk commands at their budgets, or at ``reps`` and ``perms`` where given.

    Paths are relative to the root of a source tree, where the commands run.
    """

    def budget(default_reps, default_perms):
        return ["--reps", str(reps or default_reps), "--perms", str(perms or default_perms)]

    common = ["--seed", "1", "--workers", "2"]
    return {
        "diagnose": [
            "diagnose", "--shares", "tests/golden/toy-shares.csv",
            "--outcomes", "tests/golden/toy-outcomes.csv", "--perms", str(perms or 2000),
            *common,
        ],
        "mc-table": ["mc-table", *budget(2000, 200), *common],
        "flag-curve": ["flag-curve", *budget(500, 200), *common],
    }


def run_once(src: Path, name: str, argv: list[str], work_dir: Path) -> dict:
    """One run of a command in a fresh process: wall and CPU seconds, and the report's digest."""
    env = dict(os.environ, PYTHONPATH=str(src))
    if name == "tier1":
        launch, report = ["pytest", *argv], None
    else:
        report = work_dir / "report"
        report.unlink(missing_ok=True)
        launch = ["ssdiag", *argv, "--out", str(report)]
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, *launch], cwd=src.parent, env=env, capture_output=True,
        text=True,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{name} on {src} exited {proc.returncode}: {proc.stderr[-2000:]}")
    cpu_self, cpu_children = json.loads(proc.stdout.splitlines()[-1])
    digest = None if report is None else hashlib.sha256(report.read_bytes()).hexdigest()
    return {"wall": wall, "cpu_self": cpu_self, "cpu_children": cpu_children, "sha256": digest}


def summary(argv: list[str], runs: list[dict]) -> dict:
    def stats(key):
        values = [run[key] for run in runs]
        return {"min": min(values), "median": statistics.median(values)}

    return {
        "argv": argv,
        "wall_s": stats("wall"),
        "cpu_self_s": stats("cpu_self"),
        "cpu_children_s": stats("cpu_children"),
        "sha256": runs[0]["sha256"],
    }


def uncommitted(src: Path) -> bool:
    """Whether git reports changed or untracked files under ``src``; False outside git."""
    status = subprocess.run(
        ["git", "status", "--porcelain", "--", "."], cwd=src, capture_output=True, text=True
    )
    return status.returncode == 0 and bool(status.stdout.strip())


def tree_facts(src: Path) -> dict:
    describe = subprocess.run(
        ["git", "describe", "--always", "--abbrev=12"], cwd=src, capture_output=True, text=True
    )
    source = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        source.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return {
        "commit": describe.stdout.strip() if describe.returncode == 0 else None,
        "src_sha256": source.hexdigest(),
    }


def main(args=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, action="append", help="source tree (repeatable)")
    parser.add_argument("--runs", type=int, default=5, help="runs per command and tree")
    parser.add_argument("--reps", type=int, help="outer draws of mc-table and flag-curve")
    parser.add_argument("--perms", type=int, help="simulation replications of every command")
    parser.add_argument("--tier1", action="store_true", help="also time the Tier-1 suite")
    parser.add_argument("--record", type=Path, help="append one entry per tree to this JSON list")
    options = parser.parse_args(args)
    if options.runs < 1:
        parser.error("--runs must be at least 1")
    trees = [src.resolve() for src in options.src or [ROOT / "src"]]
    if options.record is not None:
        for src in filter(uncommitted, trees):
            parser.error(f"--record needs committed trees; {src} has uncommitted changes")
    argv = commands(options.reps, options.perms)
    if options.tier1:
        argv["tier1"] = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    runs = [{name: [] for name in argv} for _ in trees]
    with tempfile.TemporaryDirectory() as work_dir:
        try:
            for round_ in range(options.runs):
                turn = round_ % len(trees)
                order = list(range(len(trees)))[turn:] + list(range(len(trees)))[:turn]
                for name in argv:
                    for k in order:
                        runs[k][name].append(run_once(trees[k], name, argv[name], Path(work_dir)))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    for name in argv:
        digests = {run["sha256"] for per_tree in runs for run in per_tree[name]}
        if len(digests) > 1:
            print(f"error: {name} wrote {len(digests)} different reports", file=sys.stderr)
            return 1
    entries = [
        {
            **tree_facts(src),
            "cores": os.cpu_count(),
            "numpy": np.__version__,
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "runs": options.runs,
            "commands": {name: summary(argv[name], per_tree[name]) for name in argv},
        }
        for src, per_tree in zip(trees, runs)
    ]
    print("tree  command     wall min / median (s)   cpu self + children median (s)")
    for k, entry in enumerate(entries):
        for name, result in entry["commands"].items():
            wall, cpu_self, cpu_children = (
                result[key] for key in ("wall_s", "cpu_self_s", "cpu_children_s")
            )
            print(
                f"{k:<5} {name:<11} {wall['min']:8.3f} / {wall['median']:8.3f}"
                f"   {cpu_self['median']:8.3f} + {cpu_children['median']:8.3f}"
            )
    if options.record is not None:
        path = options.record
        existing = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
        path.write_text(json.dumps([*existing, *entries], indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
