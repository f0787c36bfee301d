"""Command-line interface: ingestion, dispatch, and report serialization.

Commands: diagnose, mc-table, flag-curve, analytic, oracle.  Every command
is a pure function of (input files, config, seed); reports embed the
effective configuration (never the worker count, which must not affect
output bytes).  Exit codes: 0 success, 2 validation error, 3 numerical
degeneracy, 4 budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import (
    StylizedParams,
    enumerate_assignment_variance,
    eps_fixed_variance_ratio_limit,
    randomization_variance_robust,
    randomization_variance_true,
    y_fixed_variance_ratio_limit,
)
from .data import Dataset, contiguous_partition, validate_dataset
from .dgp import (
    ExperimentRow,
    GroupedDGP,
    PANEL_PARAMS,
    crossed_shares,
    run_flagging_curve,
    run_grouped_experiment,
)
from .engines import (
    SimConfig,
    SimReport,
    check_menu,
    check_threshold,
    flagged,
    mc_se,
    share_design,
)
# bench/child.py ends a diagnose command's set-up at this name; it stays until
# ROADMAP item 2 re-pins the benchmark hooks
from .engines import run_outcome_fixed as run_y_fixed
from .errors import BudgetError, DegeneracyError, ValidationError
from .estimators import ols_simple
from .parallel import resolve_workers
from .rng import derive_seed

_OUTCOME_OPTIONAL_COLUMNS = ("y_placebo", "cluster", "x_realized")


# ---------------------------------------------------------------------------
# ingestion


def _read_rows(path: Path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            table = [(lineno, row) for lineno, row in enumerate(reader, start=1) if row]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    if not table:
        raise ValidationError(f"{path}: empty file")
    (_, header), body = table[0], table[1:]
    return [h.strip() for h in header], body


def _parse_float(path: Path, lineno: int, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ValidationError(
            f"{path} line {lineno}: could not parse {value!r} as a number"
        ) from None


def _parse_int(path: Path, lineno: int, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValidationError(
            f"{path} line {lineno}: could not parse {value!r} as an integer"
        ) from None


def _keyed_rows(path: Path, header: list[str], body, parsers) -> tuple[list[str], list[list]]:
    """Region ids and the parsed fields after region_id of each row of a CSV, in file order.

    Checks, row by row, the field count, region id uniqueness and the numbers.
    """
    region_ids: list[str] = []
    rows: list[list] = []
    seen: set[str] = set()
    for lineno, row in body:
        if len(row) != len(header):
            raise ValidationError(
                f"{path} line {lineno}: expected {len(header)} fields, got {len(row)}"
            )
        region = row[0].strip()
        if region in seen:
            raise ValidationError(f"{path} line {lineno}: duplicate region id {region!r}")
        seen.add(region)
        region_ids.append(region)
        rows.append([parse(path, lineno, value) for parse, value in zip(parsers, row[1:])])
    return region_ids, rows


def _read_outcomes(path: Path) -> tuple[list[str], dict[str, list]]:
    """Region ids and the parsed columns of an outcomes CSV, in file order.

    Checks the header against the documented format, then the rows.
    """
    header, body = _read_rows(path)
    if len(header) < 2 or header[0] != "region_id" or header[1] != "y":
        raise ValidationError(
            f"{path}: header must start with region_id,y (got {','.join(header)})"
        )
    extras = header[2:]
    unknown = [c for c in extras if c not in _OUTCOME_OPTIONAL_COLUMNS]
    if unknown or len(set(extras)) != len(extras):
        raise ValidationError(
            f"{path}: optional columns must be among "
            f"{', '.join(_OUTCOME_OPTIONAL_COLUMNS)} (got {','.join(extras)})"
        )
    parsers = [_parse_int if name == "cluster" else _parse_float for name in header[1:]]
    region_ids, rows = _keyed_rows(path, header, body, parsers)
    return region_ids, {name: [row[k] for row in rows] for k, name in enumerate(header[1:])}


def _is_shares_header(header: list[str]) -> bool:
    return len(header) > 1 and header == ["region_id"] + [f"s_{j}" for j in range(1, len(header))]


# numpy's float parse strips these separators as spaces; float() refuses them
_NUMPY_ONLY_SPACES = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _loadtxt_shares(path: Path) -> tuple[list[str], np.ndarray] | None:
    """Region ids and shares of a shares CSV in one np.loadtxt parse, or None.

    None wherever the row-by-row parse might differ: a bad header, a quote, a
    field count other than the header's, a duplicate id, a number numpy does
    not take (``1_0``, full-width digits), no rows, or an unreadable file.
    numpy and float() give the same bits for every number both take.
    """
    region_ids: list[str] = []

    def region(field: str) -> float:
        if '"' in field:
            raise ValueError("quoted field")
        region_ids.append(field.strip())
        return 0.0

    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = [h.strip() for h in next((row for row in reader if row), [])]
            header_lines = reader.line_num  # blank lines before the header count
        if not _is_shares_header(header):
            return None
        # one read of the whole file, freed before the parse
        if any(map(path.read_bytes().__contains__, _NUMPY_ONLY_SPACES)):
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on a file without rows
            # every column is read, as usecols would drop an extra field without a word;
            # comments=None keeps a '#' in its field
            table = np.loadtxt(
                path, delimiter=",", comments=None, skiprows=header_lines,
                converters={0: region}, ndmin=2, encoding="utf-8",
            )
    except (OSError, ValueError, csv.Error):
        return None
    if not region_ids or table.shape != (len(region_ids), len(header)):
        return None
    return (region_ids, table[:, 1:]) if len(set(region_ids)) == len(region_ids) else None


def _read_shares(path: Path) -> tuple[list[str], np.ndarray]:
    """Region ids and the shares matrix of a shares CSV, in file order.

    The row-by-row parse runs only where the one-pass parse refuses the file;
    it gives every ``path line N: ...`` message.
    """
    fast = _loadtxt_shares(path)
    if fast is not None:
        return fast
    header, body = _read_rows(path)
    if not _is_shares_header(header):
        raise ValidationError(
            f"{path}: header must be region_id,s_1,...,s_F (got {','.join(header)})"
        )
    region_ids, rows = _keyed_rows(path, header, body, [_parse_float] * (len(header) - 1))
    return region_ids, np.array(rows, dtype=float)


def ingest(shares_path, outcomes_path) -> Dataset:
    """Load and join the shares and outcomes files into a validated Dataset.

    Row order follows the outcomes file.  Each id appears once in each file
    and every id joins.
    """
    shares_path, outcomes_path = Path(shares_path), Path(outcomes_path)
    share_ids, shares = _read_shares(shares_path)

    region_ids, columns = _read_outcomes(outcomes_path)
    position = {region: k for k, region in enumerate(share_ids)}
    for region in region_ids:
        if region not in position:
            raise ValidationError(
                f"region {region!r} present in outcomes but missing from shares"
            )
    orphans = position.keys() - set(region_ids)
    if orphans:
        raise ValidationError(
            f"region {sorted(orphans)[0]!r} present in shares but missing from outcomes"
        )

    return validate_dataset(
        columns["y"],
        shares[[position[r] for r in region_ids]],
        clusters=columns.get("cluster"),
        y_placebo=columns.get("y_placebo"),
        x_realized=columns.get("x_realized"),
    )


# ---------------------------------------------------------------------------
# output helpers


def _emit_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ValidationError(f"cannot write {out}: {exc}") from exc


def _emit_json(payload: dict, out: str | None) -> None:
    _emit_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


def _emit_csv(comment: str, columns: list[str], rows: list[list], out: str | None) -> None:
    lines = [f"# {comment}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(str(v) for v in row))
    _emit_text("\n".join(lines) + "\n", out)


def _echo(pairs: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in pairs.items())


def _report_block(report: SimReport, threshold: float) -> dict:
    estimators = {}
    for est, rate in report.rates.items():
        estimators[est] = {
            "rejections": report.rejections[est],
            "rate": rate,
            "mc_se": mc_se(rate, report.b_effective),
            "flag": flagged(rate, threshold),
        }
    return {
        "seed": report.seed,
        "replications": report.replications,
        "b_effective": report.b_effective,
        "skipped_degenerate": report.skipped_degenerate,
        "estimators": estimators,
    }


def _rate_columns(row: ExperimentRow) -> list:
    return [
        row.size,
        row.size_se,
        row.pr_flag_y,
        row.pr_flag_y_se,
        row.pr_flag_eps,
        row.pr_flag_eps_se,
    ]


# ---------------------------------------------------------------------------
# configuration plumbing


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"config file not found: {p}")
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {p}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{p}: invalid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise ValidationError(f"{p}: config must be a JSON object")
    return cfg


_KINDS = {int: "an integer", float: "a finite number", list: "a list"}


def _cast(key: str, value, cast):
    # int() truncates 2.7 and bool is an int to Python; a number setting takes
    # neither, and a float setting takes no nan or infinity
    truncated = cast is int and isinstance(value, float) and not value.is_integer()
    if not truncated and not (cast in (int, float) and isinstance(value, bool)):
        try:
            value = cast(value)
        except (TypeError, ValueError):
            pass
        else:
            if cast is not float or math.isfinite(value):
                return value
    raise ValidationError(f"{key}: could not parse {value!r} as {_KINDS[cast]}")


class _Settings:
    """Flag > command section > config top level > default."""

    def __init__(self, args: argparse.Namespace, command: str):
        self.args = args
        self.config = _load_config(args.config)
        self.section = self.config.get(command, {})
        if not isinstance(self.section, dict):
            raise ValidationError(f"config section {command!r} must be an object")

    def get(self, key: str, default=None, cast=None):
        value = getattr(self.args, key.replace("-", "_"), None)
        if value is None:
            value = self.section.get(key, self.config.get(key, default))
        if value is not None and cast is not None:
            value = _cast(key, value, cast)
        return value

    def get_list(self, key: str, default=None, cast=str, distinct=False):
        """A comma-separated flag or a config list, each item cast (and named once if distinct)."""
        value = self.get(key, default)
        if value is None:
            return None
        if isinstance(value, str):
            items = [v for v in value.split(",") if v.strip()]
        else:
            items = _cast(key, value, list)
        items = [_cast(key, v, cast) for v in items]
        repeated = sorted({v for v in items if items.count(v) > 1})
        if distinct and repeated:
            raise ValidationError(f"repeated {key} {repeated}")
        return items

    def require_seed(self) -> int:
        seed = self.get("seed", cast=int)
        if seed is None:
            raise ValidationError("--seed is required for simulation commands")
        return seed

    def workers(self) -> int:
        return resolve_workers(self.get("workers", cast=int))

    def out(self) -> str | None:
        """The --out path, checked before any simulation runs for a report it cannot write."""
        out = self.get("out")
        if out is not None:
            path = Path(out)
            if path.is_dir():
                raise ValidationError(f"cannot write {out}: is a directory")
            if not path.parent.is_dir():
                raise ValidationError(f"cannot write {out}: no directory {path.parent}")
        return out

    def require_path(self, key: str) -> Path:
        value = self.get(key)
        if value is None:
            raise ValidationError(f"--{key} is required")
        path = Path(value)
        if not path.exists():
            raise ValidationError(f"{key} file not found: {path}")
        return path


# ---------------------------------------------------------------------------
# commands


def cmd_diagnose(settings: _Settings) -> None:
    seed = settings.require_seed()
    alpha = settings.get("alpha", 0.05, float)
    threshold = check_threshold(settings.get("threshold", 0.1, float))
    perms = settings.get("perms", 2000, int)
    workers = settings.workers()
    out = settings.out()
    data = ingest(settings.require_path("shares"), settings.require_path("outcomes"))

    menu = settings.get_list("estimators")
    menu_given = menu is not None
    if menu is None:
        menu = ["robust-hc1", "robust-hc3", "score-agg", "score-agg-null"]
        if data.clusters is not None:
            menu[2:2] = ["crve", "crve-hc3"]
    cfg = SimConfig(replications=perms, seed=seed, alpha=alpha)
    check_menu(menu)

    modes = settings.get_list("modes", distinct=True)
    if modes is None:
        modes = ["y-fixed"]
        if data.x_realized is not None:
            modes.append("eps-fixed")
        if data.y_placebo is not None:
            modes.append("placebo")
    if not modes:
        raise ValidationError("need at least 1 mode")
    unknown_modes = [m for m in modes if m not in ("y-fixed", "eps-fixed", "placebo")]
    if unknown_modes:
        raise ValidationError(f"unknown modes {unknown_modes}")
    if menu_given and "y-fixed" not in modes:
        raise ValidationError("diagnose reads --estimators only with the y-fixed mode")

    # every mode's columns are checked before the simulation; one shock block
    # tests y-fixed with the menu and eps-fixed and placebo with crve
    outcomes, menus = [], []
    for mode in modes:
        if mode == "y-fixed":
            outcomes.append(data.y)
        elif mode == "eps-fixed":
            if data.x_realized is None:
                raise ValidationError("missing realized shocks (x_realized column)")
            if data.clusters is None:
                raise ValidationError("eps-fixed diagnosis assesses crve; cluster column required")
            beta_hat = ols_simple(data.y, data.x_realized).slope
            outcomes.append(data.y - beta_hat * data.x_realized)
        else:
            if data.y_placebo is None:
                raise ValidationError("placebo outcome missing (y_placebo column)")
            if data.clusters is None:
                raise ValidationError("placebo diagnosis assesses crve; cluster column required")
            outcomes.append(data.y_placebo)
        menus.append(tuple(menu) if mode == "y-fixed" else ("crve",))
    design = share_design(data.shares, data.clusters)
    reports = run_y_fixed(outcomes, menus, design, cfg, workers)
    blocks = {mode: _report_block(report, threshold) for mode, report in zip(modes, reports)}
    if "eps-fixed" in blocks:
        blocks["eps-fixed"]["beta_hat"] = beta_hat

    _emit_json(
        {
            "version": __version__,
            "command": "diagnose",
            "seed": seed,
            "config": {
                "alpha": alpha,
                "threshold": threshold,
                "perms": perms,
                "estimators": menu,
                "modes": modes,
            },
            "data": {
                "n_regions": data.n_regions,
                "n_sectors": data.n_sectors,
                "n_clusters": data.n_clusters,
                "has_placebo": data.y_placebo is not None,
                "has_x_realized": data.x_realized is not None,
            },
            "modes": blocks,
        },
        out,
    )


def cmd_mc_table(settings: _Settings) -> None:
    seed = settings.require_seed()
    alpha = settings.get("alpha", 0.05, float)
    threshold = settings.get("threshold", 0.1, float)
    outer_reps = settings.get("reps", 2000, int)
    perms = settings.get("perms", 200, int)
    per_state = settings.get("per_state", 10, int)
    states = settings.get_list("states", [20, 100], int, distinct=True)
    workers = settings.workers()
    out = settings.out()

    labels, cells = [], []
    for panel, params in PANEL_PARAMS.items():
        for n_states in states:
            dgp = GroupedDGP(n_states=n_states, per_state=per_state, **params)
            labels.append([panel, n_states])
            cells.append((dgp, derive_seed(seed, len(cells))))
    results = run_grouped_experiment(cells, outer_reps, perms, alpha, threshold, workers)

    comment = _echo(
        {
            "ssdiag": __version__,
            "command": "mc-table",
            "seed": seed,
            "reps": outer_reps,
            "perms": perms,
            "alpha": alpha,
            "threshold": threshold,
            "per_state": per_state,
        }
    )
    _emit_csv(
        comment,
        [
            "panel",
            "n_states",
            "size",
            "size_mc_se",
            "pr_gamma_y",
            "pr_gamma_y_mc_se",
            "pr_gamma_eps",
            "pr_gamma_eps_mc_se",
        ],
        [label + _rate_columns(r) for label, r in zip(labels, results)],
        out,
    )


def cmd_flag_curve(settings: _Settings) -> None:
    seed = settings.require_seed()
    alpha = settings.get("alpha", 0.05, float)
    threshold = settings.get("threshold", 0.1, float)
    outer_reps = settings.get("reps", 500, int)
    perms = settings.get("perms", 200, int)
    gammas = sorted(settings.get_list("gammas", [0.0, 0.25, 0.5, 1.0], float, distinct=True))
    workers = settings.workers()
    out = settings.out()

    shares_arg = settings.get("shares")
    if shares_arg is not None:
        data = ingest(settings.require_path("shares"), settings.require_path("outcomes"))
        if data.clusters is None:
            raise ValidationError("flag-curve on user shares requires a cluster column")
        shares, clusters = data.shares, data.clusters
        source = "user"
    elif settings.get("outcomes") is not None:
        raise ValidationError("flag-curve reads --outcomes only with --shares")
    else:
        n_clusters = settings.get("clusters", 25, int)
        n_sectors = settings.get("sectors", 20, int)
        shares, clusters = crossed_shares(n_clusters, n_sectors)
        source = f"synthetic-crossed:{n_clusters}x{n_sectors}"

    rows = run_flagging_curve(
        shares, clusters, gammas, outer_reps, perms, seed, alpha, threshold, workers
    )

    comment = _echo(
        {
            "ssdiag": __version__,
            "command": "flag-curve",
            "seed": seed,
            "reps": outer_reps,
            "perms": perms,
            "alpha": alpha,
            "threshold": threshold,
            "shares": source,
        }
    )
    _emit_csv(
        comment,
        [
            "gamma",
            "size",
            "size_mc_se",
            "pr_flag_y",
            "pr_flag_y_mc_se",
            "pr_flag_eps",
            "pr_flag_eps_mc_se",
        ],
        [[gamma] + _rate_columns(r) for gamma, r in zip(gammas, rows)],
        out,
    )


def cmd_analytic(settings: _Settings) -> None:
    out = settings.out()
    params = StylizedParams(
        beta=settings.get("beta", 0.0, float),
        sigma2=settings.get("sigma2", 1.0, float),
        rho=settings.get("rho", 0.0, float),
        group_size=settings.get("group_size", 1, int),
    )
    _emit_json(
        {
            "version": __version__,
            "command": "analytic",
            "params": {
                "beta": params.beta,
                "sigma2": params.sigma2,
                "rho": params.rho,
                "group_size": params.group_size,
            },
            "y_fixed_limit": y_fixed_variance_ratio_limit(params),
            "eps_fixed_limit": eps_fixed_variance_ratio_limit(params),
        },
        out,
    )


def cmd_oracle(settings: _Settings) -> None:
    out = settings.out()
    outcomes = settings.require_path("outcomes")
    group_size = settings.get("group_size", 1, int)
    _, columns = _read_outcomes(outcomes)
    y = np.array(columns["y"])
    if not np.all(np.isfinite(y)):
        raise ValidationError("non-finite outcome")
    n = y.shape[0]
    if group_size < 1 or n % group_size:
        raise ValidationError(f"{n} units do not split into groups of {group_size}")
    n_groups = n // group_size
    if n_groups % 2 or n_groups <= 2:
        raise ValidationError("oracle needs an even group count above 2")
    design = contiguous_partition(n_groups, group_size)
    enum = enumerate_assignment_variance(y, design)
    formula_true = randomization_variance_true(y, design)
    formula_robust = randomization_variance_robust(y, design)
    _emit_json(
        {
            "version": __version__,
            "command": "oracle",
            "config": {"group_size": group_size, "n_groups": n_groups, "n_units": n},
            "enumeration": {
                "mean": enum.mean,
                "variance": enum.variance,
                "n_assignments": enum.n_assignments,
            },
            "formula_true": formula_true,
            "formula_robust": formula_robust,
            "ratio_formula_to_enumeration": (
                formula_true / enum.variance if enum.variance > 0 else None
            ),
            "finite_sample_factor": (n_groups - 1) / (n_groups - 2),
        },
        out,
    )


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssdiag",
        description="Design-based simulation diagnostics for shift-share regressions.",
    )
    parser.add_argument("--version", action="version", version=f"ssdiag {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, simulation: bool = True):
        p.add_argument("--config", help="JSON config file; flags override its keys")
        p.add_argument("--out", help="output path (default: stdout)")
        if simulation:
            p.add_argument("--workers", type=int, help="worker processes (or SSDIAG_WORKERS)")
            p.add_argument("--seed", type=int, help="RNG seed (required)")
            p.add_argument("--alpha", type=float, help="test level (default 0.05)")
            p.add_argument("--threshold", type=float, help="flag a simulation whose rejection rate reaches this value (default 0.1)")
            p.add_argument("--perms", type=int, help="simulation replications per run")

    p = sub.add_parser("diagnose", help="run the simulation diagnostics on a dataset")
    common(p)
    p.add_argument("--shares", help="shares CSV (region_id,s_1,...,s_F)")
    p.add_argument("--outcomes", help="outcomes CSV (region_id,y[,y_placebo][,cluster][,x_realized])")
    p.add_argument("--estimators", help="comma-separated estimator menu for the y-fixed run")
    p.add_argument("--modes", help="comma-separated subset of y-fixed,eps-fixed,placebo")

    p = sub.add_parser("mc-table", help="grouped-scenario experiment table")
    common(p)
    p.add_argument("--reps", type=int, help="outer replications")
    p.add_argument("--states", help="comma-separated state counts (default 20,100)")
    p.add_argument("--per-state", type=int, dest="per_state", help="units per state (default 10)")

    p = sub.add_parser("flag-curve", help="flagging probability vs confound strength")
    common(p)
    p.add_argument("--reps", type=int, help="outer replications")
    p.add_argument("--gammas", help="comma-separated confound strengths")
    p.add_argument("--shares", help="optional user shares CSV")
    p.add_argument("--outcomes", help="outcomes CSV providing cluster labels (user shares)")
    p.add_argument("--clusters", type=int, help="synthetic crossed design: cluster count (default 25)")
    p.add_argument("--sectors", type=int, help="synthetic crossed design: sector count (default 20)")

    p = sub.add_parser("analytic", help="closed-form variance-ratio limits")
    common(p, simulation=False)
    p.add_argument("--beta", type=float, help="treatment effect (default 0)")
    p.add_argument("--sigma2", type=float, help="error variance (default 1)")
    p.add_argument("--rho", type=float, help="within-group covariance (default 0)")
    p.add_argument("--group-size", type=int, dest="group_size", help="group size m (default 1)")

    p = sub.add_parser("oracle", help="compare exact-form variance against enumeration")
    common(p, simulation=False)
    p.add_argument("--outcomes", help="outcomes CSV (region_id,y,...)")
    p.add_argument("--group-size", type=int, dest="group_size", help="group size m (default 1)")

    return parser


_DISPATCH = {
    "diagnose": cmd_diagnose,
    "mc-table": cmd_mc_table,
    "flag-curve": cmd_flag_curve,
    "analytic": cmd_analytic,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        settings = _Settings(args, args.command)
        _DISPATCH[args.command](settings)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegeneracyError as exc:
        print(f"degeneracy: {exc}", file=sys.stderr)
        return 3
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
