"""Command-line interface: ingestion, dispatch, and report serialization.

Commands: diagnose, mc-table, flag-curve, analytic, oracle, convergence.
Every command is a pure function of (input files, config, seed); reports
other than convergence's CSV embed the effective configuration (never the
worker count, which must not affect output bytes).  Exit codes: 0 success,
2 validation error, 3 numerical degeneracy, 4 budget exceeded.

``ingest`` parses each input CSV with np.loadtxt in pieces of about 4 MiB,
cut after line feeds; ``diagnose`` and ``flag-curve --shares`` hand the pieces
to their ``--workers`` processes.  A file that parse refuses is read row by
row, which gives every ``path line N: ...`` message, so the Dataset and
every error are the same for any worker count.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, astuple
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import (
    StylizedParams,
    enumerate_assignment_variance,
    eps_fixed_variance_ratio_limit,
    randomization_variance_robust,
    randomization_variance_true,
    ratio_convergence_experiment,
    y_fixed_variance_ratio_limit,
)
from .data import Dataset, contiguous_partition, validate_dataset
from .dgp import (
    GroupedDGP,
    PANEL_PARAMS,
    check_flagging,
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
from .parallel import map_chunks, resolve_workers
from .rng import check_seed, derive_seed

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


def _parse_number(path: Path, lineno: int, value: str, cast):
    try:
        return cast(value)
    except ValueError:
        kind = "an integer" if cast is int else "a number"
        raise ValidationError(
            f"{path} line {lineno}: could not parse {value!r} as {kind}"
        ) from None


def _keyed_rows(path: Path, header: list[str], body, casts) -> tuple[list[str], list[list]]:
    """Region ids and the fields after region_id of each row of a CSV, each cast, in file order.

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
        rows.append([_parse_number(path, lineno, v, cast) for cast, v in zip(casts, row[1:])])
    return region_ids, rows


def _outcome_casts(path: Path, header: list[str]) -> list:
    """The cast of each outcomes column after region_id; refuses a header off the format."""
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
    return [int if name == "cluster" else float for name in header[1:]]


def _shares_casts(path: Path, header: list[str]) -> list:
    """The cast of each shares column after region_id; refuses a header off the format."""
    if len(header) < 2 or header != ["region_id"] + [f"s_{j}" for j in range(1, len(header))]:
        raise ValidationError(
            f"{path}: header must be region_id,s_1,...,s_F (got {','.join(header)})"
        )
    return [float] * (len(header) - 1)


# numpy's float parse strips these separators as spaces; float() refuses them
_NUMPY_ONLY_SPACES = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")
# a CSV is parsed in pieces of this many bytes, each extended to the end of its last
# line.  On 2 workers of a 2-core x86_64 machine, ingesting a 21.5 MB shares file took a
# median 0.34 s in 1 MiB pieces, 0.31 s in 2 MiB, 0.35 s in 4 MiB and 0.49 s in 16 MiB,
# whose two pieces split the work 16:5 (14 alternated cold processes each)
_PIECE_BYTES = 4 << 20


def _exact_int(field: str) -> int:
    """int() as the row-by-row parse casts; refused past 2**53, where float64 rounds."""
    value = int(field)
    if abs(value) > 2**53:
        raise ValueError("integer past 2**53")
    return value


def _piece_bounds(path: Path) -> list[tuple[int, int]]:
    """Byte ranges that tile a file: each runs _PIECE_BYTES, then on through the next LF byte.

    A cut falls just after an LF, so every line, whether it ends in LF, CR LF
    or CR, lies in one piece; a file without an LF is one piece.
    """
    bounds = []
    with open(path, "rb") as handle:
        size = handle.seek(0, os.SEEK_END)
        lo = 0
        while lo < size:
            handle.seek(lo + _PIECE_BYTES - 1)
            handle.readline()
            hi = min(handle.tell(), size)
            bounds.append((lo, hi))
            lo = hi
    return bounds


def _loadtxt_piece(
    path: Path, skiprows: int, casts: list, max_line: int | None, bounds
) -> tuple[list[str], np.ndarray] | None:
    """Region ids and numbers of the lines in one byte range of a CSV, by np.loadtxt, or None.

    The piece at byte 0 skips the ``skiprows`` lines through the header.  None
    where the row-by-row parse might differ: a quote, a field count other
    than the header's, a number numpy does not take (``1_0``, full-width
    digits), a separator only numpy strips, an integer past 2**53, a line
    over ``max_line`` bytes, bytes that are not UTF-8, or an unreadable
    file.  numpy and float() give the same bits for every number both take.
    """
    lo, hi = bounds
    region_ids: list[str] = []

    def region(field: str) -> float:
        if '"' in field:
            raise ValueError("quoted field")
        region_ids.append(field.strip())
        return 0.0

    converters = {0: region}
    converters.update((k, _exact_int) for k, cast in enumerate(casts, start=1) if cast is int)
    try:
        with open(path, "rb") as handle:
            handle.seek(lo)
            data = handle.read(hi - lo)
        if any(map(data.__contains__, _NUMPY_ONLY_SPACES)):
            return None
        if max_line is not None and max(map(len, data.split(b"\n"))) > max_line:
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on a piece without rows
            # every column is read, as usecols would drop an extra field without a word;
            # comments=None keeps a '#' in its field; the wrapper reads '\r' and '\r\n' as
            # line ends, as loadtxt's own open of a path does
            table = np.loadtxt(
                io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), delimiter=",",
                comments=None, skiprows=skiprows if lo == 0 else 0, converters=converters,
                ndmin=2,
            )
    except (OSError, ValueError):
        return None
    if not region_ids:  # blank lines, or the header alone
        return (region_ids, np.empty((0, len(casts)))) if table.size == 0 else None
    if table.shape != (len(region_ids), len(casts) + 1):
        return None
    return region_ids, table[:, 1:]


def _loadtxt_csv(path: Path, header_casts, workers: int, max_line: int | None = None):
    """Header, region ids and numbers of a CSV, parsed piece by piece on ``workers``, or None.

    None where ``header_casts`` refuses the header, a piece refuses its lines
    (``_loadtxt_piece``), an id repeats, the file has no rows or cannot be
    read.  Pieces do not depend on the worker count, and the numbers are
    those of one np.loadtxt parse of the whole file.
    """
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = [h.strip() for h in next((row for row in reader if row), [])]
            header_lines = reader.line_num  # blank lines before the header count
        casts = header_casts(path, header)
        bounds = _piece_bounds(path)
    except (OSError, ValueError, csv.Error, ValidationError):
        return None
    task = functools.partial(_loadtxt_piece, path, header_lines, casts, max_line)
    # one worker or one piece parses here, without map_chunks' process-wide allocator setting
    if workers > 1 and len(bounds) > 1:
        pieces = map_chunks(task, bounds, workers)
    else:
        pieces = [task(b) for b in bounds]
    if None in pieces:
        return None
    region_ids = [region for ids, _ in pieces for region in ids]
    if not region_ids or len(set(region_ids)) != len(region_ids):
        return None
    return header, region_ids, np.concatenate([table for _, table in pieces])


def _read_outcomes(path: Path, workers: int = 1) -> tuple[list[str], dict]:
    """Region ids and the parsed columns of an outcomes CSV, in file order.

    Checks the header against the documented format, then the rows.  The
    row-by-row parse runs only where the one-pass parse refuses the file;
    it gives every ``path line N: ...`` message.  Cluster labels come as
    integers, the other columns as floats.
    """
    # a line within csv's field limit holds no field that the row-by-row parse refuses as
    # too long; the shares parse does not check, and takes such a field if its number parses
    fast = _loadtxt_csv(path, _outcome_casts, workers, csv.field_size_limit())
    if fast is not None:
        header, region_ids, table = fast
        columns = {name: table[:, k] for k, name in enumerate(header[1:])}
        if "cluster" in columns:
            columns["cluster"] = columns["cluster"].astype(np.int64)
        return region_ids, columns
    header, body = _read_rows(path)
    casts = _outcome_casts(path, header)
    region_ids, rows = _keyed_rows(path, header, body, casts)
    return region_ids, {name: [row[k] for row in rows] for k, name in enumerate(header[1:])}


def _read_shares(path: Path, workers: int = 1) -> tuple[list[str], np.ndarray]:
    """Region ids and the shares matrix of a shares CSV, in file order.

    The row-by-row parse runs only where the one-pass parse refuses the file;
    it gives every ``path line N: ...`` message.
    """
    fast = _loadtxt_csv(path, _shares_casts, workers)
    if fast is not None:
        return fast[1:]
    header, body = _read_rows(path)
    region_ids, rows = _keyed_rows(path, header, body, _shares_casts(path, header))
    return region_ids, np.array(rows, dtype=float)


def ingest(shares_path, outcomes_path, *, workers: int = 1) -> Dataset:
    """Load and join the shares and outcomes files into a validated Dataset.

    Row order follows the outcomes file.  Each id appears once in each file
    and every id joins.  ``workers`` processes parse a file's pieces; the
    Dataset and every error are the same for any count.
    """
    shares_path, outcomes_path = Path(shares_path), Path(outcomes_path)
    share_ids, shares = _read_shares(shares_path, workers)

    region_ids, columns = _read_outcomes(outcomes_path, workers)
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


def _echo_line(echo: dict) -> str:
    return "# " + " ".join(f"{k}={v}" for k, v in echo.items())


def _emit_csv(echo: dict, labels: list[str], prefix: str, rows, out: str | None) -> None:
    """Write an experiment CSV: a ``# k=v ...`` line echoing ``echo``, a header, one line per row.

    ``rows`` holds (label values, ExperimentRow) pairs.  The columns are the
    ``labels`` names, then size, ``{prefix}_y`` and ``{prefix}_eps``, each
    followed by its ``_mc_se``; a line is its label values, then the row's
    fields in that order.
    """
    rates = ["size", f"{prefix}_y", f"{prefix}_eps"]
    columns = labels + [name for rate in rates for name in (rate, f"{rate}_mc_se")]
    lines = [_echo_line(echo), ",".join(columns)]
    for label, row in rows:
        lines.append(",".join(str(v) for v in [*label, *astuple(row)]))
    _emit_text("\n".join(lines) + "\n", out)


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
    # a list setting [T] comes as a comma-separated string or a config list;
    # each item is cast to T and named once
    if isinstance(cast, list):
        if isinstance(value, str):
            items = [v for v in value.split(",") if v.strip()]
        else:
            items = _cast(key, value, list)
        items = [_cast(key, v, cast[0]) for v in items]
        repeated = sorted({v for v in items if items.count(v) > 1})
        if repeated:
            raise ValidationError(f"repeated {key} {repeated}")
        return items
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


def _resolve(args: argparse.Namespace) -> dict:
    """Every setting of the command, cast and checked before any input is read.

    A setting comes from its flag, else the config file's command section,
    else its top level, else the table's default.
    """
    config = _load_config(args.config)
    section = config.get(args.command, {})
    if not isinstance(section, dict):
        raise ValidationError(f"config section {args.command!r} must be an object")
    # a misspelt key would otherwise leave its setting at the default without a word;
    # top-level keys are shared by every command, so only a command's section is checked
    unknown = sorted(set(section) - set(_COMMANDS[args.command][2]))
    if unknown:
        raise ValidationError(f"config section {args.command!r} has unknown settings {unknown}")
    settings = {}
    for key, (kind, default, _) in _COMMANDS[args.command][2].items():
        value = getattr(args, key)
        if value is None:
            value = section.get(key, config.get(key, default))
        settings[key] = value if value is None and default is None else _cast(key, value, kind)
    if "seed" in settings:
        if settings["seed"] is None:
            raise ValidationError("--seed is required for simulation commands")
        check_seed(settings["seed"])
        if "perms" in settings:
            # refuses a budget below 1 and a level outside (0, 1)
            SimConfig(settings["perms"], settings["seed"], settings["alpha"])
            check_threshold(settings["threshold"])
        settings["workers"] = resolve_workers(settings["workers"])
    out = settings["out"]
    if out is not None:
        # a report that cannot be written is refused before the command spends its time
        path = Path(out)
        if path.is_dir():
            raise ValidationError(f"cannot write {out}: is a directory")
        if not path.parent.is_dir():
            raise ValidationError(f"cannot write {out}: no directory {path.parent}")
    return settings


def _path(settings: dict, key: str) -> Path:
    if settings[key] is None:
        raise ValidationError(f"--{key} is required")
    path = Path(settings[key])
    if not path.exists():
        raise ValidationError(f"{key} file not found: {path}")
    return path


# ---------------------------------------------------------------------------
# commands


def cmd_diagnose(settings: dict) -> None:
    # a given menu or mode list is checked before the input files are read
    menu = settings["estimators"]
    modes = settings["modes"]
    if menu is not None:
        check_menu(menu)
    if modes is not None:
        if not modes:
            raise ValidationError("need at least 1 mode")
        unknown_modes = [m for m in modes if m not in ("y-fixed", "eps-fixed", "placebo")]
        if unknown_modes:
            raise ValidationError(f"unknown modes {unknown_modes}")
        if menu is not None and "y-fixed" not in modes:
            raise ValidationError("diagnose reads --estimators only with the y-fixed mode")
    data = ingest(
        _path(settings, "shares"), _path(settings, "outcomes"), workers=settings["workers"]
    )
    if modes is None:
        modes = ["y-fixed"]
        if data.x_realized is not None:
            modes.append("eps-fixed")
        if data.y_placebo is not None:
            modes.append("placebo")
    if menu is None and "y-fixed" in modes:
        menu = ["robust-hc1", "robust-hc3", "score-agg", "score-agg-null"]
        if data.clusters is not None:
            menu[2:2] = ["crve", "crve-hc3"]
    cfg = SimConfig(replications=settings["perms"], seed=settings["seed"], alpha=settings["alpha"])

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
    reports = run_y_fixed(outcomes, menus, design, cfg, settings["workers"])
    threshold = settings["threshold"]
    blocks = {mode: _report_block(report, threshold) for mode, report in zip(modes, reports)}
    if "eps-fixed" in blocks:
        blocks["eps-fixed"]["beta_hat"] = beta_hat

    _emit_json(
        {
            "version": __version__,
            "command": "diagnose",
            "seed": settings["seed"],
            "config": {
                "alpha": settings["alpha"],
                "threshold": threshold,
                "perms": settings["perms"],
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
        settings["out"],
    )


def cmd_mc_table(settings: dict) -> None:
    labels, cells = [], []
    for panel, params in PANEL_PARAMS.items():
        for n_states in settings["states"]:
            dgp = GroupedDGP(n_states=n_states, per_state=settings["per_state"], **params)
            labels.append([panel, n_states])
            cells.append((dgp, derive_seed(settings["seed"], len(cells))))
    results = run_grouped_experiment(
        cells, settings["reps"], settings["perms"], settings["alpha"], settings["threshold"],
        settings["workers"],
    )

    _emit_csv(
        {
            "ssdiag": __version__,
            "command": "mc-table",
            "seed": settings["seed"],
            "reps": settings["reps"],
            "perms": settings["perms"],
            "alpha": settings["alpha"],
            "threshold": settings["threshold"],
            "per_state": settings["per_state"],
        },
        ["panel", "n_states"],
        "pr_gamma",
        zip(labels, results),
        settings["out"],
    )


def cmd_flag_curve(settings: dict) -> None:
    # the grid and the outer count are checked before the input files are read
    gammas = sorted(check_flagging(settings["gammas"], settings["reps"]))
    if settings["shares"] is not None:
        data = ingest(
            _path(settings, "shares"), _path(settings, "outcomes"), workers=settings["workers"]
        )
        if data.clusters is None:
            raise ValidationError("flag-curve on user shares requires a cluster column")
        shares, clusters = data.shares, data.clusters
        source = "user"
    elif settings["outcomes"] is not None:
        raise ValidationError("flag-curve reads --outcomes only with --shares")
    else:
        n_clusters = settings["clusters"]
        n_sectors = settings["sectors"]
        shares, clusters = crossed_shares(n_clusters, n_sectors)
        source = f"synthetic-crossed:{n_clusters}x{n_sectors}"

    rows = run_flagging_curve(
        shares, clusters, gammas, settings["reps"], settings["perms"], settings["seed"],
        settings["alpha"], settings["threshold"], settings["workers"],
    )

    _emit_csv(
        {
            "ssdiag": __version__,
            "command": "flag-curve",
            "seed": settings["seed"],
            "reps": settings["reps"],
            "perms": settings["perms"],
            "alpha": settings["alpha"],
            "threshold": settings["threshold"],
            "shares": source,
        },
        ["gamma"],
        "pr_flag",
        [([gamma], row) for gamma, row in zip(gammas, rows)],
        settings["out"],
    )


def cmd_analytic(settings: dict) -> None:
    params = StylizedParams(
        beta=settings["beta"],
        sigma2=settings["sigma2"],
        rho=settings["rho"],
        group_size=settings["group_size"],
    )
    _emit_json(
        {
            "version": __version__,
            "command": "analytic",
            "params": asdict(params),
            "y_fixed_limit": y_fixed_variance_ratio_limit(params),
            "eps_fixed_limit": eps_fixed_variance_ratio_limit(params),
        },
        settings["out"],
    )


def cmd_oracle(settings: dict) -> None:
    group_size = settings["group_size"]
    _, columns = _read_outcomes(_path(settings, "outcomes"))
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
            "enumeration": asdict(enum),
            "formula_true": formula_true,
            "formula_robust": formula_robust,
            "ratio_formula_to_enumeration": (
                formula_true / enum.variance if enum.variance > 0 else None
            ),
            "finite_sample_factor": (n_groups - 1) / (n_groups - 2),
        },
        settings["out"],
    )


def cmd_convergence(settings: dict) -> None:
    params = StylizedParams(
        beta=settings["beta"],
        sigma2=settings["sigma2"],
        rho=settings["rho"],
        group_size=settings["group_size"],
    )
    rows = ratio_convergence_experiment(
        params, settings["grid"], settings["reps"], settings["seed"], settings["mode"],
        settings["workers"],
    )
    echo = {"ssdiag": __version__, "command": "convergence", "seed": settings["seed"],
            "reps": settings["reps"], "mode": settings["mode"], **asdict(params)}
    lines = [_echo_line(echo), "n_groups,mean_ratio,se_ratio,limit"]
    lines += [f"{r.n_groups},{r.mean_ratio!r},{r.se_ratio!r},{r.limit!r}" for r in rows]
    _emit_text("\n".join(lines) + "\n", settings["out"])


# ---------------------------------------------------------------------------
# settings and argument parsing

# each setting is name -> (type, default, help); its flag is the name with '-'
# for '_', and a list type [T] takes comma-separated T items, as its default does
_FILES = {
    "config": (str, None, "JSON config file; flags override its keys"),
    "out": (str, None, "output path (default: stdout)"),
}
_SEEDED = {
    **_FILES,
    "workers": (int, None, "worker processes (or SSDIAG_WORKERS)"),
    "seed": (int, None, "RNG seed (required)"),
}
_SIMULATION = {
    **_SEEDED,
    "alpha": (float, 0.05, "test level"),
    "threshold": (float, 0.1, "flag a simulation whose rejection rate reaches this value"),
}

# command -> (handler, help line, settings)
_COMMANDS = {
    "diagnose": (cmd_diagnose, "run the simulation diagnostics on a dataset", {
        **_SIMULATION,
        "perms": (int, 2000, "simulation replications per run"),
        "shares": (str, None, "shares CSV (region_id,s_1,...,s_F)"),
        "outcomes": (str, None, "outcomes CSV (region_id,y[,y_placebo][,cluster][,x_realized])"),
        "estimators": ([str], None, "comma-separated estimator menu for the y-fixed run"),
        "modes": ([str], None, "comma-separated subset of y-fixed,eps-fixed,placebo"),
    }),
    "mc-table": (cmd_mc_table, "grouped-scenario experiment table", {
        **_SIMULATION,
        "perms": (int, 200, "simulation replications per run"),
        "reps": (int, 2000, "outer replications"),
        "states": ([int], "20,100", "comma-separated state counts"),
        "per_state": (int, 10, "units per state"),
    }),
    "flag-curve": (cmd_flag_curve, "flagging probability vs confound strength", {
        **_SIMULATION,
        "perms": (int, 200, "simulation replications per run"),
        "reps": (int, 500, "outer replications"),
        "gammas": ([float], "0.0,0.25,0.5,1.0", "comma-separated confound strengths"),
        "shares": (str, None, "optional user shares CSV"),
        "outcomes": (str, None, "outcomes CSV providing cluster labels (user shares)"),
        "clusters": (int, 25, "synthetic crossed design: cluster count"),
        "sectors": (int, 20, "synthetic crossed design: sector count"),
    }),
    "analytic": (cmd_analytic, "closed-form variance-ratio limits", {
        **_FILES,
        "beta": (float, 0.0, "treatment effect"),
        "sigma2": (float, 1.0, "error variance"),
        "rho": (float, 0.0, "within-group covariance"),
        "group_size": (int, 1, "group size m"),
    }),
    "oracle": (cmd_oracle, "compare exact-form variance against enumeration", {
        **_FILES,
        "outcomes": (str, None, "outcomes CSV (region_id,y,...)"),
        "group_size": (int, 1, "group size m"),
    }),
    "convergence": (cmd_convergence, "Monte Carlo convergence of the ratio to its limit", {
        **_SEEDED,
        "beta": (float, 0.5, "treatment effect"),
        "sigma2": (float, 1.0, "error variance"),
        "rho": (float, 0.0, "within-group covariance"),
        "group_size": (int, 2, "group size m"),
        "mode": (str, "y-fixed", "y-fixed or eps-fixed"),
        "grid": ([int], "10,50,200,1000,2000", "comma-separated even group counts above 2"),
        "reps": (int, 200, "replications per group count"),
    }),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssdiag",
        description="Design-based simulation diagnostics for shift-share regressions.",
    )
    parser.add_argument("--version", action="version", version=f"ssdiag {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, table) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for key, (kind, default, text) in table.items():
            if default is not None:
                text += f" (default {default})"
            # a list flag stays a string for _cast to split
            kind = None if isinstance(kind, list) else kind
            p.add_argument("--" + key.replace("_", "-"), type=kind, help=text)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command][0](_resolve(args))
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
