"""Tests for ingestion, the command-line dispatch, and report files."""

import json
import math
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from ssdiag import (
    GroupedDGP,
    SimConfig,
    dgp,
    draw_grouped,
    engines,
    run_outcome_fixed,
    share_design,
)
from ssdiag import analytics, cli, parallel
from ssdiag.cli import _report_block, ingest, main
from ssdiag.errors import ValidationError
from ssdiag.rng import substream
from test_golden import COMMANDS as GOLDEN_COMMANDS

GOLDEN = Path(__file__).resolve().parent / "golden"


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _toy_files(tmp_path, n=3, with_placebo=False, with_cluster=False, with_x=False):
    shares = _write(
        tmp_path / "shares.csv",
        "region_id,s_1,s_2\n" + "".join(f"r{i},{0.25 * (i + 1)},{1 - 0.25 * (i + 1)}\n" for i in range(n)),
    )
    cols = ["region_id", "y"]
    if with_placebo:
        cols.append("y_placebo")
    if with_cluster:
        cols.append("cluster")
    if with_x:
        cols.append("x_realized")
    lines = [",".join(cols)]
    for i in range(n):
        row = [f"r{i}", str(1.0 + i)]
        if with_placebo:
            row.append(str(2.0 - i))
        if with_cluster:
            row.append(str(i % 2))
        if with_x:
            row.append(str(0.5 * i))
        lines.append(",".join(row))
    outcomes = _write(tmp_path / "outcomes.csv", "\n".join(lines) + "\n")
    return shares, outcomes


class TestIngest:
    def test_toy_join(self, tmp_path):
        shares, outcomes = _toy_files(tmp_path, with_placebo=True, with_cluster=True, with_x=True)
        data = ingest(shares, outcomes)
        assert data.n_regions == 3 and data.n_sectors == 2
        np.testing.assert_allclose(data.y, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(data.y_placebo, [2.0, 1.0, 0.0])
        np.testing.assert_array_equal(data.clusters, [0, 1, 0])
        np.testing.assert_allclose(data.x_realized, [0.0, 0.5, 1.0])
        np.testing.assert_allclose(data.shares[:, 0], [0.25, 0.5, 0.75])

    def test_placebo_absent(self, tmp_path):
        data = ingest(*_toy_files(tmp_path))
        assert data.y_placebo is None and data.clusters is None and data.x_realized is None

    def test_missing_region_named(self, tmp_path):
        shares, _ = _toy_files(tmp_path)
        outcomes = _write(tmp_path / "o2.csv", "region_id,y\nr0,1\nr1,2\nr9,3\n")
        with pytest.raises(Exception, match="'r9'"):
            ingest(shares, outcomes)

    def test_orphan_share_region_named(self, tmp_path):
        shares, _ = _toy_files(tmp_path, n=3)
        outcomes = _write(tmp_path / "o3.csv", "region_id,y\nr0,1\nr1,2\n")
        with pytest.raises(Exception, match="'r2'.*missing from outcomes"):
            ingest(shares, outcomes)

    def test_duplicate_id(self, tmp_path):
        shares, _ = _toy_files(tmp_path)
        outcomes = _write(tmp_path / "o4.csv", "region_id,y\nr0,1\nr0,2\nr2,3\n")
        with pytest.raises(Exception, match="duplicate region id"):
            ingest(shares, outcomes)

    def test_parse_error_carries_line_number(self, tmp_path):
        shares, _ = _toy_files(tmp_path)
        outcomes = _write(tmp_path / "o5.csv", "region_id,y\nr0,1\nr1,abc\nr2,3\n")
        with pytest.raises(Exception, match="line 3.*'abc'"):
            ingest(shares, outcomes)

    def test_header_mismatch(self, tmp_path):
        bad = _write(tmp_path / "s2.csv", "region_id,w1,w2\nr0,1,0\n")
        _, outcomes = _toy_files(tmp_path)
        with pytest.raises(Exception, match="header"):
            ingest(bad, outcomes)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("r0,0.25,0.75\nr1,0.5,0.5,0.1\nr2,1,0", "line 3: expected 3 fields, got 4"),
            ("r0,0.25,0.75\nr1,0.5,0.5,\nr2,1,0", "line 3: expected 3 fields, got 4"),
            ("r0,0.25,0.75,1\nr1,0.5,0.5,1\nr2,1,0,1", "line 2: expected 3 fields, got 4"),
            ("r0,0.25,0.75\n   \nr2,1,0", "line 3: expected 3 fields, got 1"),
            ("r0,0.25,0.75\nr1,abc,0.5\nr2,1,0", "line 3: could not parse 'abc' as a number"),
            ("r0,0.25,0.75\nr1,0.5#x,0.5\nr2,1,0", "line 3: could not parse '0.5#x' as a number"),
            ("r0,0.25,0.75\nr1,0.5,0.5#x\nr2,1,0", "line 3: could not parse '0.5#x' as a number"),
            ("r0,0.25,0.75\nr1,\x1c0.5,0.5\nr2,1,0", "line 3: could not parse '\\x1c0.5' as a number"),
            ("r0,0.25,0.75\nr0,0.5,0.5\nr2,1,0", "line 3: duplicate region id 'r0'"),
        ],
    )
    def test_shares_row_errors(self, rows, message, tmp_path):
        shares = _write(tmp_path / "s.csv", f"region_id,s_1,s_2\n{rows}\n")
        _, outcomes = _toy_files(tmp_path)
        with pytest.raises(ValidationError) as exc:
            ingest(shares, outcomes)
        assert str(exc.value) == f"{shares} {message}"

    @pytest.mark.parametrize(
        "text, fast",
        [
            ("region_id,s_1,s_2\nr0,0.25,0.75\nr1,0.5,0.5\nr2,10,0\n", True),
            ("region_id,s_1,s_2\nr0,0.25,0.75\nr1,0.5,0.5\nr2,1_0,0\n", False),
            ('region_id,s_1,s_2\nr0,0.25,0.75\nr1,"0.5",0.5\nr2,10,0\n', False),
            ('region_id,s_1,s_2\n"r0",0.25,0.75\nr1,0.5,0.5\nr2,10,0\n', False),
            ("region_id,s_1,s_2\nr0,0.25,0.75\nr1,0.5,\uff10.5\nr2,10,0\n", False),
            ("\n\nregion_id,s_1,s_2\nr0,0.25,0.75\n\nr1,0.5,0.5\nr2,10,0", True),
            ("region_id,s_1,s_2\r\nr0,0.25,0.75\r\nr1,0.5,0.5\r\nr2,10,0\r\n", True),
            ("region_id,s_1,s_2\rr0,0.25,0.75\rr1,0.5,0.5\rr2,10,0\r", True),
            ("region_id, s_1 ,s_2\n r0 , 0.25,0.75 \nr1,\t0.5,0.5\nr2,1e1 ,0\n", True),
        ],
    )
    def test_shares_formats_read_alike(self, text, fast, tmp_path):
        shares = tmp_path / "s.csv"
        shares.write_bytes(text.encode("utf-8"))
        _, outcomes = _toy_files(tmp_path)
        data = ingest(shares, outcomes)
        np.testing.assert_allclose(data.y, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(data.shares, [[0.25, 0.75], [0.5, 0.5], [10.0, 0.0]])
        assert (cli._loadtxt_shares(shares) is not None) == fast

    def test_one_pass_parse_matches_row_by_row_bit_for_bit(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(12)
        n, f = 60, 7
        values = rng.gamma(0.3, size=(n, f)) * 10.0 ** rng.integers(-300, 300, size=(n, f))
        values[rng.random((n, f)) < 0.1] = -0.0
        values[:, 0] = np.maximum(values[:, 0], 5e-324)  # no all-zero row
        cells = [list(map(repr, row.tolist())) for row in values]
        cells[3][2], cells[5][4], cells[8][1] = "nan", "-inf", "Infinity"
        rows = [f"r{i}," + ",".join(c) for i, c in enumerate(cells)]
        header = "region_id," + ",".join(f"s_{j}" for j in range(1, f + 1))
        raw = _write(tmp_path / "raw.csv", "\n".join([header] + rows) + "\n")
        clean = _write(tmp_path / "clean.csv", "\n".join([header] + rows[10:]) + "\n")
        order = rng.permutation(range(10, n))
        outcomes = _write(
            tmp_path / "o.csv", "region_id,y\n" + "".join(f"r{i},{i}\n" for i in order)
        )

        fast_raw, fast = cli._read_shares(Path(raw)), ingest(clean, outcomes)
        assert cli._loadtxt_shares(Path(clean)) is not None
        monkeypatch.setattr(cli, "_loadtxt_shares", lambda path: None)
        slow_raw, slow = cli._read_shares(Path(raw)), ingest(clean, outcomes)
        assert fast_raw[0] == slow_raw[0] == [f"r{i}" for i in range(n)]
        assert fast_raw[1].shape == slow_raw[1].shape == (n, f)
        assert np.array_equal(fast_raw[1].view(np.uint64), slow_raw[1].view(np.uint64))
        # outcomes row k is region order[k], with y = order[k]
        np.testing.assert_array_equal(fast.y, order)
        np.testing.assert_array_equal(slow.y, order)
        assert np.array_equal(fast.shares.view(np.uint64), slow.shares.view(np.uint64))
        assert np.array_equal(fast.shares, values[order])

    _LONG = b"0" * 131072 + b"1"  # one character over csv's default field limit

    @pytest.mark.parametrize(
        "command, name, raw",
        [
            ("diagnose", "shares.csv", b"region_id,s_1,s_\xff2\nr0,0.25,0.75\nr1,0.5,0.5\nr2,1,0\n"),
            ("diagnose", "shares.csv", b"region_id,s_1,s_2\nr0,0.25,0.75\nr1,0.5,0.5\nr2\xff,1,0\n"),
            ("diagnose", "shares.csv", b'region_id,s_1,s_2\nr0,0.25,0.75\n"' + _LONG + b'",0.5,0.5\n'),
            ("diagnose", "outcomes.csv", b"region_id,y\nr0,1\nr1,2\nr2\xff,3\n"),
            ("diagnose", "outcomes.csv", b"region_id,y\nr0,1\nr1," + _LONG + b"\nr2,3\n"),
            ("oracle", "outcomes.csv", b"region_id,y\nr0,1\nr1," + _LONG + b"\nr2,3\nr3,4\n"),
        ],
    )
    def test_undecodable_byte_or_long_field_exits_2(self, command, name, raw, tmp_path, capsys):
        shares, outcomes = _toy_files(tmp_path)
        (tmp_path / name).write_bytes(raw)
        inputs = ["--outcomes", outcomes]
        if command == "diagnose":
            inputs += ["--shares", shares, "--seed", "1"]
        assert main([command, *inputs]) == 2
        assert f"error: cannot read {tmp_path / name}: " in capsys.readouterr().err


def _partition_fixture(tmp_path, beta=0.0, n_states=8, per_state=5, seed=4):
    """CSV pair from a grouped draw: one-hot state shares, clusters, x column."""
    dgp = GroupedDGP(n_states=n_states, per_state=per_state, beta=beta)
    draw = draw_grouped(dgp, [substream(seed, 0)])
    n = dgp.design.n_units
    header = "region_id," + ",".join(f"s_{j}" for j in range(1, n_states + 1))
    share_lines = [header]
    for i in range(n):
        row = ["1" if g == dgp.design.group_of[i] else "0" for g in range(n_states)]
        share_lines.append(f"u{i}," + ",".join(row))
    shares = _write(tmp_path / "p_shares.csv", "\n".join(share_lines) + "\n")
    out_lines = ["region_id,y,cluster,x_realized"]
    for i in range(n):
        out_lines.append(
            f"u{i},{float(draw.y[0, i])!r},{dgp.design.group_of[i]},{float(draw.x[0, i])!r}"
        )
    outcomes = _write(tmp_path / "p_outcomes.csv", "\n".join(out_lines) + "\n")
    return shares, outcomes


class TestDiagnose:
    def test_strong_effect_flags_y_fixed_but_not_eps_fixed(self, tmp_path):
        shares, outcomes = _partition_fixture(tmp_path, beta=2.0)
        out = tmp_path / "report.json"
        code = main([
            "diagnose", "--shares", shares, "--outcomes", outcomes,
            "--seed", "31", "--perms", "400", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["version"] and report["seed"] == 31
        # a pure homogeneous effect confounds the y-fixed check ...
        assert report["modes"]["y-fixed"]["estimators"]["crve"]["flag"] is True
        # ... but residualizing removes it
        assert report["modes"]["eps-fixed"]["estimators"]["crve"]["flag"] is False

    def test_flag_at_threshold_boundary(self, tmp_path):
        # a rejection rate flags when it reaches the threshold, not only above it
        shares, outcomes = _partition_fixture(tmp_path, beta=0.5)

        def run(threshold):
            out = tmp_path / f"t{threshold!r}.json"
            args = [
                "diagnose", "--shares", shares, "--outcomes", outcomes,
                "--seed", "5", "--perms", "40", "--modes", "y-fixed", "--out", str(out),
            ]
            if threshold is not None:
                args += ["--threshold", repr(threshold)]
            assert main(args) == 0
            return json.loads(out.read_text())["modes"]["y-fixed"]["estimators"]

        blocks = run(None)
        est, rate = next(
            (e, b["rate"]) for e, b in blocks.items() if 0.0 < b["rate"] < 1.0
        )
        assert run(rate)[est]["flag"] is True
        assert run(math.nextafter(rate, 1.0))[est]["flag"] is False

    def test_constant_outcome_no_flags(self, tmp_path):
        shares, _ = _toy_files(tmp_path, n=4)
        outcomes = _write(
            tmp_path / "const.csv", "region_id,y\n" + "".join(f"r{i},5.0\n" for i in range(4))
        )
        shares = _write(
            tmp_path / "s4.csv",
            "region_id,s_1,s_2\n" + "".join(f"r{i},0.5,0.5\n" for i in range(4)),
        )
        out = tmp_path / "r.json"
        code = main([
            "diagnose", "--shares", shares, "--outcomes", outcomes,
            "--seed", "1", "--perms", "50", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        blocks = report["modes"]["y-fixed"]["estimators"]
        assert all(block["rate"] == 0.0 and not block["flag"] for block in blocks.values())

    def test_eps_fixed_without_realized_regressor(self, tmp_path, capsys):
        shares, outcomes = _toy_files(tmp_path, with_cluster=True)
        code = main([
            "diagnose", "--shares", shares, "--outcomes", outcomes,
            "--seed", "1", "--perms", "20", "--modes", "y-fixed,eps-fixed",
        ])
        assert code == 2
        assert "missing realized shocks" in capsys.readouterr().err

    def test_constant_realized_regressor_is_degenerate(self, tmp_path, capsys):
        shares, _ = _toy_files(tmp_path)
        outcomes = _write(
            tmp_path / "o6.csv",
            "region_id,y,cluster,x_realized\nr0,1,0,2\nr1,2,1,2\nr2,3,0,2\n",
        )
        code = main([
            "diagnose", "--shares", shares, "--outcomes", outcomes,
            "--seed", "1", "--perms", "20", "--modes", "y-fixed,eps-fixed",
        ])
        assert code == 3

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_realized_regressor(self, value, tmp_path, capsys):
        lines = (GOLDEN / "outcomes.csv").read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + "," + value
        outcomes = _write(tmp_path / "outcomes.csv", "\n".join(lines) + "\n")
        code = main([
            "diagnose", "--shares", str(GOLDEN / "shares.csv"), "--outcomes", outcomes,
            "--seed", "7", "--perms", "30", "--modes", "eps-fixed",
        ])
        assert code == 2
        assert "non-finite realized regressor" in capsys.readouterr().err

    def test_placebo_missing(self, tmp_path, capsys):
        shares, outcomes = _toy_files(tmp_path, with_cluster=True)
        code = main([
            "diagnose", "--shares", shares, "--outcomes", outcomes,
            "--seed", "1", "--perms", "20", "--modes", "placebo",
        ])
        assert code == 2
        assert "placebo outcome missing" in capsys.readouterr().err

    def test_crve_modes_share_one_simulation(self, tmp_path, monkeypatch):
        # one shock block tests y-fixed on its menu and eps-fixed and placebo on
        # crve, and each block equals a run on its outcome alone
        calls = []
        real = engines._run_sim

        def counting(ys, menus, *args, **kwargs):
            calls.append((len(ys), [tuple(menu) for menu in menus]))
            return real(ys, menus, *args, **kwargs)

        monkeypatch.setattr(engines, "_run_sim", counting)
        out = tmp_path / "r.json"
        assert main([
            "diagnose", "--shares", str(GOLDEN / "shares.csv"), "--outcomes",
            str(GOLDEN / "outcomes.csv"), "--seed", "7", "--perms", "300", "--out", str(out),
        ]) == 0
        report = json.loads(out.read_text())
        assert calls == [(3, [tuple(report["config"]["estimators"]), ("crve",), ("crve",)])]

        data = ingest(GOLDEN / "shares.csv", GOLDEN / "outcomes.csv")
        cfg = SimConfig(replications=300, seed=7)
        blocks = report["modes"]
        beta_hat = blocks["eps-fixed"].pop("beta_hat")
        ydot = data.y - beta_hat * data.x_realized
        for mode, y in (("eps-fixed", ydot), ("placebo", data.y_placebo)):
            design = share_design(data.shares, data.clusters)
            (alone,) = run_outcome_fixed([y], [("crve",)], design, cfg)
            assert blocks[mode] == _report_block(alone, 0.1)

    @pytest.mark.parametrize(
        "modes, sims", [("y-fixed,eps-fixed,placebo", 1), ("eps-fixed,placebo", 1)]
    )
    def test_one_simulation_per_command(self, modes, sims, tmp_path, monkeypatch):
        # every requested mode is tested in one simulation: one engine call, one kernel,
        # one map_chunks call and so one pool at 2 workers; bench/child.py ends set-up
        # at the engine's name in cli, so every mode set calls it
        calls = {"run_y_fixed": 0, "_run_sim": 0, "_make_kernel": 0, "map_chunks": 0}
        for name in calls:
            module = cli if name == "run_y_fixed" else engines
            real = getattr(module, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        out = tmp_path / "r.json"
        assert main([
            "diagnose", "--shares", str(GOLDEN / "shares.csv"), "--outcomes",
            str(GOLDEN / "outcomes.csv"), "--seed", "7", "--perms", "300", "--modes", modes,
            "--workers", "2", "--out", str(out),
        ]) == 0
        assert calls == dict.fromkeys(calls, sims)
        assert sorted(json.loads(out.read_text())["modes"]) == sorted(modes.split(","))

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_each_mode_as_if_run_alone(self, workers, tmp_path):
        def blocks(*modes):
            out = tmp_path / f"{'-'.join(modes) or 'default'}.json"
            argv = [
                "diagnose", "--shares", str(GOLDEN / "shares.csv"), "--outcomes",
                str(GOLDEN / "outcomes.csv"), "--seed", "7", "--perms", "300",
                "--workers", workers, "--out", str(out),
            ]
            assert main(argv + (["--modes", ",".join(modes)] if modes else [])) == 0
            return json.loads(out.read_text())["modes"]

        every = blocks()
        assert sorted(every) == ["eps-fixed", "placebo", "y-fixed"]
        for mode in every:
            assert blocks(mode) == {mode: every[mode]}

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--modes", "y-fixed,placebo,y-fixed"], "repeated modes ['y-fixed']"),
            (["--estimators", "crve,robust-hc1,crve"], "repeated estimators ['crve']"),
            (["--modes", "y-fixed,eps-fixed"], "missing realized shocks"),
            (["--modes", ""], "need at least 1 mode"),
            (["--modes", ","], "need at least 1 mode"),
            ({"modes": ["y-fixed", "placebo", "y-fixed"]}, "repeated modes ['y-fixed']"),
            ({"estimators": ["crve", "robust-hc1", "crve"]}, "repeated estimators ['crve']"),
        ],
    )
    def test_repeats_exit_before_any_simulation(
        self, extra, message, tmp_path, monkeypatch, capsys
    ):
        # the golden outcomes without their last column, x_realized, which only the
        # eps-fixed case reads
        lines = (GOLDEN / "outcomes.csv").read_text().splitlines()
        outcomes = _write(
            tmp_path / "outcomes.csv", "".join(line.rsplit(",", 1)[0] + "\n" for line in lines)
        )
        if isinstance(extra, dict):  # config keys
            extra = ["--config", _write(tmp_path / "cfg.json", json.dumps({"diagnose": extra}))]
        calls = []
        monkeypatch.setattr(engines, "_run_sim", lambda *args, **kwargs: calls.append(args))
        assert main([
            "diagnose", "--shares", str(GOLDEN / "shares.csv"), "--outcomes", outcomes,
            "--seed", "7", "--perms", "30", *extra,
        ]) == 2
        assert message in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_menu_without_y_fixed_exits_before_any_simulation(
        self, source, tmp_path, monkeypatch, capsys
    ):
        # the menu tests y-fixed alone, so a menu given for eps-fixed and placebo,
        # which crve tests, used to be echoed in a report that never ran it
        argv = [
            "diagnose", "--shares", str(GOLDEN / "shares.csv"), "--outcomes",
            str(GOLDEN / "outcomes.csv"), "--seed", "7", "--perms", "30",
            "--modes", "eps-fixed,placebo",
        ]
        if source == "flag":
            argv += ["--estimators", "robust-hc1"]
        else:
            config = tmp_path / "c.json"
            config.write_text(json.dumps({"diagnose": {"estimators": ["robust-hc1"]}}))
            argv += ["--config", str(config)]
        calls = []
        monkeypatch.setattr(engines, "_run_sim", lambda *args, **kwargs: calls.append(args))
        assert main(argv) == 2
        assert "diagnose reads --estimators only with the y-fixed mode" in capsys.readouterr().err
        assert calls == []

    def test_missing_file(self, tmp_path):
        assert main(["diagnose", "--shares", "nope.csv", "--outcomes", "nope.csv", "--seed", "1"]) == 2

    def test_seed_required(self, tmp_path):
        shares, outcomes = _toy_files(tmp_path)
        assert main(["diagnose", "--shares", shares, "--outcomes", outcomes]) == 2


class TestAnalytic:
    def test_known_ratios(self, tmp_path):
        out = tmp_path / "a.json"
        code = main([
            "analytic", "--beta", "1", "--sigma2", "1", "--rho", "0",
            "--group-size", "2", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["y_fixed_limit"] == pytest.approx(5 / 6, abs=1e-15)
        assert report["eps_fixed_limit"] == pytest.approx(1.0, abs=1e-15)

    def test_second_known_case(self, tmp_path):
        out = tmp_path / "b.json"
        assert main([
            "analytic", "--beta", "0", "--sigma2", "1", "--rho", "0.5",
            "--group-size", "2", "--out", str(out),
        ]) == 0
        report = json.loads(out.read_text())
        assert report["y_fixed_limit"] == pytest.approx(2 / 3, abs=1e-15)
        assert report["eps_fixed_limit"] == pytest.approx(2 / 3, abs=1e-15)

    @pytest.mark.parametrize("kind", ["missing-directory", "directory"])
    def test_unwritable_out_exits_2(self, kind, tmp_path, monkeypatch, capsys):
        calls = []
        real = cli.y_fixed_variance_ratio_limit
        monkeypatch.setattr(
            cli, "y_fixed_variance_ratio_limit", lambda p: calls.append(p) or real(p)
        )
        out = tmp_path / "missing" / "a.json" if kind == "missing-directory" else tmp_path
        assert main([
            "analytic", "--beta", "0", "--sigma2", "1", "--rho", "0",
            "--group-size", "2", "--out", str(out),
        ]) == 2
        assert f"error: cannot write {out}: " in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("flag", [["--beta", "1e200"], ["--sigma2", "1e308"]])
    def test_overflowing_limit_exits_2(self, flag, tmp_path, capsys):
        # the report would hold NaN, which is not JSON, or not be written at all
        out = tmp_path / "a.json"
        assert main(["analytic", *flag, "--group-size", "3", "--out", str(out)]) == 2
        assert "error: the parameters overflow the closed-form limit" in capsys.readouterr().err
        assert not out.exists()


class TestConvergence:
    """`ssdiag convergence` runs the Monte Carlo convergence experiment of ssdiag.analytics."""

    @pytest.mark.parametrize(
        "name, chunks", [("convergence-y-fixed.csv", 3), ("convergence-eps-fixed.csv", 1)]
    )
    def test_golden_at_two_workers_in_one_map_chunks_call(
        self, name, chunks, tmp_path, monkeypatch
    ):
        # every (grid point, replication) pair goes through one map_chunks call, so
        # one pool, and the report bytes do not depend on the worker count; the
        # y-fixed golden's 150 pairs make 3 chunks of at most 64, so a chunk
        # spans two grid points
        calls = []
        real = analytics.map_chunks
        monkeypatch.setattr(
            analytics, "map_chunks", lambda *a: calls.append(len(a[1])) or real(*a)
        )
        out = tmp_path / name
        assert main([*GOLDEN_COMMANDS[name], "--workers", "2", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / name).read_bytes()
        assert calls == [chunks]

    def test_config_file_supplies_settings(self, tmp_path):
        # a list setting comes from the config as a JSON list
        path = _write(tmp_path / "cfg.json", json.dumps({
            "seed": 7, "rho": 0.3, "convergence": {"grid": [4, 8, 20], "reps": 50},
        }))
        out = tmp_path / "c.csv"
        assert main(["convergence", "--config", path, "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "convergence-y-fixed.csv").read_bytes()

    @pytest.mark.parametrize(
        "args, env, message",
        [
            (["--reps", "1"], None, "need at least 2 replications"),
            (["--seed", "-1"], None, "seed must be at least 0 (got -1)"),
            (["--workers", "0"], None, "workers must be at least 1 (got 0)"),
            ([], "0", "workers must be at least 1 (got 0)"),
            (["--grid", "3"], None, "grid entries must be even group counts above 2"),
            (["--grid", ""], None, "group-count grid is empty"),
            (["--beta", "nan"], None, "beta: could not parse nan as a finite number"),
            (["--rho", "2"], None, "rho cannot exceed sigma2"),
            (["--grid", "10,10"], None, "repeated grid [10]"),
            (["--mode", "placebo"], None, "unknown mode 'placebo'"),
            (["--beta", "1e200"], None, "the parameters overflow the closed-form limit"),
        ],
    )
    def test_bad_input_exits_2_before_any_simulation(
        self, args, env, message, tmp_path, monkeypatch, capsys
    ):
        # every setting is checked before the first simulation, as for every command
        def refused(*a, **kw):
            raise AssertionError("simulation run before the settings were checked")

        monkeypatch.setattr(analytics, "map_chunks", refused)
        monkeypatch.setenv("SSDIAG_WORKERS", env or "")
        out = tmp_path / "c.csv"
        assert main(["convergence", "--seed", "1", *args, "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestOracle:
    def _outcomes(self, tmp_path, values):
        return _write(
            tmp_path / "oracle.csv",
            "region_id,y\n" + "".join(f"r{i},{v}\n" for i, v in enumerate(values)),
        )

    def test_hand_case(self, tmp_path):
        outcomes = self._outcomes(tmp_path, [1.0, 2.0, 3.0, 4.0])
        out = tmp_path / "o.json"
        assert main(["oracle", "--outcomes", outcomes, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["enumeration"]["mean"] == pytest.approx(0.0, abs=1e-15)
        assert report["enumeration"]["variance"] == pytest.approx(10 / 6, abs=1e-12)
        assert report["formula_true"] == pytest.approx(2.5, abs=1e-12)
        assert report["ratio_formula_to_enumeration"] == pytest.approx(1.5, abs=1e-12)

    def test_constant_outcome(self, tmp_path):
        outcomes = self._outcomes(tmp_path, [2.0] * 4)
        out = tmp_path / "o2.json"
        assert main(["oracle", "--outcomes", outcomes, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["enumeration"]["variance"] == 0.0
        assert report["ratio_formula_to_enumeration"] is None

    def test_twenty_regions_within_budget(self, tmp_path):
        outcomes = self._outcomes(tmp_path, [float(i) for i in range(20)])
        out = tmp_path / "o3.json"
        assert main(["oracle", "--outcomes", outcomes, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["enumeration"]["n_assignments"] == 184756

    def test_budget_exceeded_exit_code(self, tmp_path):
        outcomes = self._outcomes(tmp_path, [float(i) for i in range(30)])
        assert main(["oracle", "--outcomes", outcomes]) == 4

    def test_non_finite_outcome_rejected(self, tmp_path, capsys):
        outcomes = self._outcomes(tmp_path, [1.0, float("nan"), 3.0, 4.0])
        assert main(["oracle", "--outcomes", outcomes]) == 2
        assert "non-finite outcome" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["missing-directory", "directory"])
    def test_unwritable_out_exits_before_enumerating(self, kind, tmp_path, monkeypatch, capsys):
        calls = []
        real = cli.enumerate_assignment_variance
        monkeypatch.setattr(
            cli, "enumerate_assignment_variance", lambda *a: calls.append(a) or real(*a)
        )
        outcomes = self._outcomes(tmp_path, [1.0, 2.0, 3.0, 4.0])
        out = tmp_path / "missing" / "o.json" if kind == "missing-directory" else tmp_path
        assert main(["oracle", "--outcomes", outcomes, "--out", str(out)]) == 2
        assert f"error: cannot write {out}: " in capsys.readouterr().err
        assert calls == []

    def test_duplicate_region_rejected(self, tmp_path, capsys):
        outcomes = _write(tmp_path / "dup.csv", "region_id,y\nr0,1\nr1,2\nr0,3\nr3,4\n")
        assert main(["oracle", "--outcomes", outcomes]) == 2
        assert "line 4: duplicate region id 'r0'" in capsys.readouterr().err

    def test_unknown_column_rejected(self, tmp_path, capsys):
        outcomes = _write(
            tmp_path / "extra.csv", "region_id,y,weight\n" + "".join(f"r{i},{i},1\n" for i in range(4))
        )
        assert main(["oracle", "--outcomes", outcomes]) == 2
        assert "optional columns must be among" in capsys.readouterr().err


class TestTableAndCurve:
    def test_mc_table_shape(self, tmp_path):
        out = tmp_path / "table.csv"
        code = main([
            "mc-table", "--seed", "5", "--reps", "24", "--perms", "20",
            "--states", "4,6", "--per-state", "2", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("#")
        assert lines[1].split(",")[:3] == ["panel", "n_states", "size"]
        assert len(lines) == 2 + 10  # comment + header + 5 panels x 2 sizes

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_mc_table_repeated_states_exit_before_any_simulation(
        self, source, tmp_path, monkeypatch, capsys
    ):
        # a repeated size wrote two rows per panel under one label, with different numbers
        calls = []
        monkeypatch.setattr(engines, "_run_sim", lambda *args, **kwargs: calls.append(args))
        out = tmp_path / "table.csv"
        argv = ["mc-table", "--seed", "1", "--reps", "4", "--perms", "10", "--per-state", "2",
                "--out", str(out)]
        if source == "flag":
            argv += ["--states", "4,4"]
        else:
            cfg = _write(tmp_path / "cfg.json", json.dumps({"mc-table": {"states": [4, 4]}}))
            argv += ["--config", cfg]
        assert main(argv) == 2
        assert "repeated states [4]" in capsys.readouterr().err
        assert calls == [] and not out.exists()

    def test_mc_table_splits_small_budgets_across_workers(self, tmp_path, monkeypatch):
        # every cell-draw pair of a command goes through one map_chunks call, so
        # a second worker has work to do; 21 draws per cell make a chunk of 16
        # pairs span two cells
        chunk_counts = []
        real = dgp.map_chunks

        def counting(fn, bounds, workers):
            chunk_counts.append(len(bounds))
            return real(fn, bounds, workers)

        monkeypatch.setattr(dgp, "map_chunks", counting)
        for reps, states in (("32", "4"), ("21", "4,6")):
            outs = []
            for workers in ("1", "2"):
                chunk_counts.clear()
                out = tmp_path / f"table-{reps}-{workers}.csv"
                assert main([
                    "mc-table", "--seed", "5", "--reps", reps, "--perms", "20", "--states",
                    states, "--per-state", "2", "--workers", workers, "--out", str(out),
                ]) == 0
                outs.append(out.read_bytes())
                assert len(chunk_counts) == 1 and chunk_counts[0] > 1
            assert outs[0] == outs[1]

    def test_flag_curve_sorted_and_deterministic(self, tmp_path):
        args = [
            "flag-curve", "--seed", "6", "--reps", "12", "--perms", "20",
            "--gammas", "1.0,0.0,0.5", "--clusters", "4", "--sectors", "4",
        ]
        out1, out2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = [line.split(",") for line in out1.read_text().strip().splitlines()[2:]]
        assert [float(r[0]) for r in rows] == [0.0, 0.5, 1.0]

    def test_flag_curve_builds_its_design_once(self, tmp_path, monkeypatch):
        # 17 outer draws make two outer chunks and 17 simulations, which share one
        # design: its clusters are sorted once per command, in this process even at
        # 2 workers, where the pool runs the simulations
        calls = []
        real = engines._cluster_segments
        monkeypatch.setattr(
            engines, "_cluster_segments", lambda labels: calls.append(1) or real(labels)
        )
        reports = []
        for workers in ("1", "2"):
            out = tmp_path / f"curve-{workers}.csv"
            assert main([
                "flag-curve", "--seed", "4", "--reps", "17", "--perms", "30",
                "--clusters", "5", "--sectors", "4", "--workers", workers, "--out", str(out),
            ]) == 0
            reports.append(out.read_bytes())
            assert len(calls) == 1
            calls.clear()
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_flag_curve_repeated_gammas_exit_before_any_simulation(
        self, source, tmp_path, monkeypatch, capsys
    ):
        # a repeated gamma used to be dropped without a word
        calls = []
        monkeypatch.setattr(engines, "_run_sim", lambda *args, **kwargs: calls.append(args))
        out = tmp_path / "curve.csv"
        argv = ["flag-curve", "--seed", "1", "--reps", "2", "--perms", "10", "--out", str(out)]
        if source == "flag":
            argv += ["--gammas", "0,0.5,0.0"]
        else:
            cfg = _write(tmp_path / "cfg.json", json.dumps({"flag-curve": {"gammas": [0, 0.5, 0.0]}}))
            argv += ["--config", cfg]
        assert main(argv) == 2
        assert "repeated gammas [0.0]" in capsys.readouterr().err
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_flag_curve_outcomes_without_shares_exit_2(
        self, source, tmp_path, monkeypatch, capsys
    ):
        # the synthetic design reads no outcomes file, so naming one is a mistake
        calls = []
        monkeypatch.setattr(engines, "_run_sim", lambda *args, **kwargs: calls.append(args))
        _, outcomes = _toy_files(tmp_path, with_cluster=True)
        argv = ["flag-curve", "--seed", "1", "--reps", "2", "--perms", "10"]
        if source == "flag":
            argv += ["--outcomes", outcomes]
        else:
            cfg = _write(tmp_path / "cfg.json", json.dumps({"flag-curve": {"outcomes": outcomes}}))
            argv += ["--config", cfg]
        assert main(argv) == 2
        assert "--shares" in capsys.readouterr().err
        assert calls == []

    def test_flag_curve_on_equal_share_rows_exits_3(self, tmp_path, capsys):
        # every region has the same shares, so each draw's regressor shares @ v is
        # constant and its realized test has nothing to fit
        shares = _write(
            tmp_path / "shares.csv",
            "region_id,s_1,s_2\n" + "".join(f"r{i},0.3,0.7\n" for i in range(6)),
        )
        outcomes = _write(
            tmp_path / "outcomes.csv",
            "region_id,y,cluster\n" + "".join(f"r{i},{i * 0.5},{i % 3}\n" for i in range(6)),
        )
        out = tmp_path / "curve.csv"
        code = main([
            "flag-curve", "--seed", "1", "--reps", "3", "--perms", "10", "--shares", shares,
            "--outcomes", outcomes, "--out", str(out),
        ])
        assert code == 3
        assert "degeneracy: degenerate regressor (no variation)" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_supplies_settings(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 9,
            "mc-table": {"reps": 12, "perms": 10, "states": [4], "per_state": 2},
        }))
        out = tmp_path / "t.csv"
        assert main(["mc-table", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2 + 5
        assert "seed=9" in lines[0]

    @pytest.mark.parametrize("kind", ["undecodable", "directory"])
    def test_unreadable_config_exits_2(self, kind, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'\xff{"beta": 1.0}')
        assert main(["analytic", "--config", str(path)]) == 2
        assert f"error: cannot read {path}: " in capsys.readouterr().err

    def test_flag_override_beats_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 9, "analytic": {"beta": 1.0, "group_size": 2}}))
        out = tmp_path / "a.json"
        assert main(["analytic", "--config", str(cfg), "--beta", "0", "--sigma2", "1",
                     "--rho", "0", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["params"]["beta"] == 0.0
        assert report["y_fixed_limit"] == 1.0


class TestFlags:
    def test_alpha_and_threshold_change_report(self, tmp_path):
        shares, outcomes = _partition_fixture(tmp_path, beta=2.0)
        reports = {}
        for tag, extra in {
            "base": [],
            "wide": ["--alpha", "0.5"],
            "lax": ["--threshold", "0.99"],
        }.items():
            out = tmp_path / f"{tag}.json"
            code = main([
                "diagnose", "--shares", shares, "--outcomes", outcomes,
                "--seed", "3", "--perms", "200", "--out", str(out), *extra,
            ])
            assert code == 0
            reports[tag] = json.loads(out.read_text())
        base = reports["base"]["modes"]["y-fixed"]["estimators"]["crve"]
        wide = reports["wide"]["modes"]["y-fixed"]["estimators"]["crve"]
        lax = reports["lax"]["modes"]["y-fixed"]["estimators"]["crve"]
        assert wide["rate"] > base["rate"]  # a 50%-level test rejects more often
        assert base["flag"] is True and lax["flag"] is False
        assert reports["lax"]["config"]["threshold"] == 0.99

    def test_workers_env_fallback(self, monkeypatch):
        from ssdiag.parallel import resolve_workers

        monkeypatch.delenv("SSDIAG_WORKERS", raising=False)
        assert resolve_workers(None) == 1
        monkeypatch.setenv("SSDIAG_WORKERS", "6")
        assert resolve_workers(None) == 6
        assert resolve_workers(2) == 2  # explicit setting wins

    def test_env_workers_leave_output_unchanged(self, tmp_path, monkeypatch):
        shares, outcomes = _toy_files(tmp_path, with_cluster=True)
        outs = []
        for tag, env in (("a", "1"), ("b", "3")):
            monkeypatch.setenv("SSDIAG_WORKERS", env)
            out = tmp_path / f"env-{tag}.json"
            assert main([
                "diagnose", "--shares", shares, "--outcomes", outcomes,
                "--seed", "5", "--perms", "64", "--out", str(out),
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestUnreadFlags:
    """A command has no flag it does not read: argparse exits 2 on one."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["diagnose", "--shares", "{golden}/shares.csv", "--outcomes",
             "{golden}/outcomes.csv", "--seed", "7", "--perms", "30", "--reps", "5"],
            ["analytic", "--seed", "1"],
            ["oracle", "--outcomes", "{golden}/oracle.csv", "--seed", "1"],
            ["analytic", "--beta", "1", "--workers", "2"],
            ["convergence", "--seed", "1", "--perms", "5"],
            ["oracle", "--outcomes", "{golden}/oracle.csv", "--workers", "2"],
        ],
    )
    def test_exits_2(self, argv, tmp_path, capsys):
        argv = [arg.format(golden=GOLDEN) for arg in argv] + ["--out", str(tmp_path / "r")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestBadNumbers:
    """A number that does not parse, or is out of range, exits 2 and names its key."""

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["flag-curve", "--seed", "1", "--gammas", "0,x"], "gammas"),
            (["mc-table", "--seed", "1", "--states", "4,x"], "states"),
        ],
    )
    def test_list_item(self, argv, key, capsys):
        assert main(argv) == 2
        assert f"{key}: could not parse 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"perms": "abc"}, "perms"),
            ({"seed": "abc"}, "seed"),
            ({"diagnose": {"workers": "two"}}, "workers"),
            ({"diagnose": {"modes": 5}}, "modes"),
            ({"perms": 2.7}, "perms"),
            ({"perms": True}, "perms"),
            ({"diagnose": {"workers": 1.5}}, "workers"),
            ({"alpha": True}, "alpha"),
            ({"alpha": float("nan")}, "alpha"),
            ({"diagnose": {"threshold": float("inf")}}, "threshold"),
        ],
    )
    def test_config_value(self, config, key, tmp_path, capsys):
        shares, outcomes = _toy_files(tmp_path, with_cluster=True)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 1, **config}))
        code = main([
            "diagnose", "--config", str(path), "--shares", shares, "--outcomes", outcomes,
        ])
        assert code == 2
        assert f"error: {key}: could not parse" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["diagnose", "--shares", "{golden}/shares.csv", "--outcomes",
                 "{golden}/outcomes.csv", "--seed", "1", "--perms", "10", "--threshold", "nan"],
                "threshold: could not parse nan as a finite number",
            ),
            (
                ["flag-curve", "--seed", "1", "--reps", "2", "--perms", "10", "--clusters", "3",
                 "--sectors", "2", "--gammas", "nan,1"],
                "gammas: could not parse nan as a finite number",
            ),
            (["analytic", "--beta", "inf"], "beta: could not parse inf as a finite number"),
            (
                ["flag-curve", "--seed", "1", "--reps", "2", "--perms", "10", "--clusters", "3",
                 "--sectors", "2", "--threshold", "7"],
                "flag threshold must be in [0, 1]",
            ),
            (
                ["diagnose", "--shares", "{golden}/shares.csv", "--outcomes",
                 "{golden}/outcomes.csv", "--seed", "1", "--perms", "10", "--threshold", "1.5"],
                "flag threshold must be in [0, 1]",
            ),
            (
                ["mc-table", "--seed", "1", "--reps", "2", "--perms", "10", "--states", "4",
                 "--per-state", "2", "--threshold", "-0.1"],
                "flag threshold must be in [0, 1]",
            ),
        ],
        ids=["diagnose-threshold-nan", "flag-curve-gamma-nan", "analytic-beta-inf",
             "flag-curve-threshold-7", "diagnose-threshold-1.5", "mc-table-threshold--0.1"],
    )
    def test_non_finite_or_out_of_range(self, argv, message, tmp_path, capsys):
        # each wrote a report and exited 0 before the check
        out = tmp_path / "report"
        assert main([a.format(golden=GOLDEN) for a in argv] + ["--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("perms", [3, 3.0, "3"])
    def test_integral_values_are_accepted(self, perms, tmp_path):
        shares, outcomes = _toy_files(tmp_path, with_cluster=True)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 1, "perms": perms}))
        out = tmp_path / "r.json"
        assert main([
            "diagnose", "--config", str(path), "--shares", shares, "--outcomes", outcomes,
            "--out", str(out),
        ]) == 0
        report = json.loads(out.read_text())
        assert report["config"]["perms"] == 3
        assert report["modes"]["y-fixed"]["replications"] == 3

    def test_workers_env(self, monkeypatch, capsys):
        monkeypatch.setenv("SSDIAG_WORKERS", "abc")
        assert main(["mc-table", "--seed", "1", "--reps", "2", "--states", "4"]) == 2
        assert "SSDIAG_WORKERS: could not parse 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, env", [("0", None), ("-3", None), (None, "0")])
    @pytest.mark.parametrize("command", ["diagnose", "mc-table", "flag-curve"])
    def test_workers_below_one(self, command, flag, env, tmp_path, monkeypatch, capsys):
        # exits before any input is read: the shares file does not exist
        argv = [command, "--seed", "1", "--shares", str(tmp_path / "missing.csv")]
        if command == "mc-table":
            argv = argv[:3]
        if flag is not None:
            argv += ["--workers", flag]
        monkeypatch.setenv("SSDIAG_WORKERS", env or "")
        assert main(argv) == 2
        assert "error: workers must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["missing-directory", "directory", "writable"])
    @pytest.mark.parametrize("command", ["diagnose", "mc-table", "flag-curve"])
    def test_unwritable_out_exits_before_simulating(
        self, command, kind, tmp_path, monkeypatch, capsys
    ):
        # a report that cannot be written is refused before the simulation spends its time
        calls = []
        real = engines._run_sim
        monkeypatch.setattr(
            engines, "_run_sim", lambda *a, **kw: calls.append(a) or real(*a, **kw)
        )
        argv = {
            "diagnose": ["--shares", str(GOLDEN / "shares.csv"), "--outcomes",
                         str(GOLDEN / "outcomes.csv")],
            "mc-table": ["--reps", "2", "--states", "4", "--per-state", "2"],
            "flag-curve": ["--reps", "2", "--clusters", "3", "--sectors", "2"],
        }[command]
        out = {
            "missing-directory": tmp_path / "missing" / "report",
            "directory": tmp_path,
            "writable": tmp_path / "report",
        }[kind]
        code = main([command, *argv, "--seed", "1", "--perms", "20", "--workers", "1",
                     "--out", str(out)])
        if kind == "writable":
            assert code == 0 and calls and out.is_file()
        else:
            assert code == 2 and calls == []
            assert f"error: cannot write {out}: " in capsys.readouterr().err


class TestSettingsCheckedFirst:
    """Every setting of every command is cast and checked before any input is read."""

    @pytest.fixture(autouse=True)
    def _no_input_or_simulation(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("input read or simulation run before the settings were checked")

        monkeypatch.setattr(cli, "ingest", refused)
        monkeypatch.setattr(cli, "_read_outcomes", refused)
        for module in (parallel, engines, dgp, analytics):
            monkeypatch.setattr(module, "map_chunks", refused)

    @pytest.mark.parametrize(
        "command, key",
        [(command, key) for command, (_, _, table) in cli._COMMANDS.items() for key in table],
    )
    def test_bad_config_value_exits_2(self, command, key, tmp_path, capsys):
        # the top level makes every other setting good; the command's section makes
        # `key` bad: a number that does not parse, a list that is not one, a file
        # that does not exist, an --out in a missing directory or an unknown mode
        kind = cli._COMMANDS[command][2][key][0]
        missing = str(tmp_path / "missing" / "file")
        bad, message = {
            int: ("x", f"{key}: could not parse 'x' as an integer"),
            float: ("x", f"{key}: could not parse 'x' as a finite number"),
            str: (missing, f"{key} file not found: {missing}"),
            list: (5, f"{key}: could not parse 5 as a list"),
        }[list if isinstance(kind, list) else kind]
        if key == "out":
            message = f"cannot write {missing}: no directory"
        if key == "mode":
            message = f"unknown mode {missing!r}"
        config = {
            "seed": 1,
            "shares": str(GOLDEN / "shares.csv"),
            "outcomes": str(GOLDEN / "outcomes.csv"),
            command: {key: bad},
        }
        path = _write(tmp_path / "cfg.json", json.dumps(config))
        if key == "config":
            path, message = missing, f"config file not found: {missing}"
        assert main([command, "--config", path]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["diagnose", "mc-table", "flag-curve", "convergence"])
    def test_negative_seed_exits_2(self, command, source, tmp_path, capsys):
        # each ended in numpy's "expected non-negative integer" traceback, diagnose
        # after it had read both files
        argv = [command, "--shares", str(GOLDEN / "shares.csv"), "--outcomes",
                str(GOLDEN / "outcomes.csv")]
        if command in ("mc-table", "convergence"):
            argv = argv[:1]
        if source == "flag":
            argv += ["--seed", "-1"]
        else:
            argv += ["--config", _write(tmp_path / "cfg.json", json.dumps({"seed": -1}))]
        assert main(argv) == 2
        assert "error: seed must be at least 0 (got -1)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad, message",
        [(["--reps", "0"], "need at least 1 outer replication"),
         (["--gammas", ""], "gamma grid is empty")],
    )
    def test_flag_curve_checks_its_grid_before_the_files(self, bad, message, capsys):
        # these files do not join: read first, they hid the fault behind a join error
        argv = ["flag-curve", "--seed", "1", "--shares", str(GOLDEN / "toy-shares.csv"),
                "--outcomes", str(GOLDEN / "oracle.csv"), *bad]
        assert main(argv) == 2
        assert f"error: {message}" in capsys.readouterr().err


class TestConsoleEntryPoint:
    def test_subprocess_smoke(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ssdiag.cli", "analytic", "--beta", "0", "--sigma2", "1",
             "--rho", "0", "--group-size", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["y_fixed_limit"] == 1.0

    def test_start_up_imports_numpy_alone(self, tmp_path):
        # importing scipy took about 0.3 s of start-up; estimators.t_crits computes the
        # t quantiles itself, and rng imports numpy.random with the package, not on first use
        script = textwrap.dedent("""
            import json, sys
            before = set(sys.modules)
            import ssdiag.cli
            random_at_import = "numpy.random" in sys.modules
            code = ssdiag.cli.main([
                "mc-table", "--seed", "1", "--reps", "4", "--perms", "10", "--states", "4",
                "--per-state", "2", "--workers", "1", "--out", sys.argv[1],
            ])
            # a package has a file; Cython's runtime modules and the __mp_main__ alias do not
            added = {name.partition(".")[0] for name in set(sys.modules) - before}
            packages = {name for name in added if getattr(sys.modules.get(name), "__file__", None)}
            print(json.dumps({
                "code": code,
                "random_at_import": random_at_import,
                "scipy": sorted(name for name in sys.modules if name.startswith("scipy")),
                "third_party": sorted(packages - set(sys.stdlib_module_names) - {"ssdiag"}),
            }))
        """)
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "table.csv")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout)
        assert loaded["code"] == 0
        assert loaded["scipy"] == []
        assert loaded["random_at_import"]
        assert loaded["third_party"] == ["numpy"]
