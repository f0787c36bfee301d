"""Tests for the Monte Carlo experiment generators."""

import re

import numpy as np
import pytest

import oracles
from ssdiag import (
    GroupedDGP,
    PANEL_PARAMS,
    SimConfig,
    ValidationError,
    crossed_shares,
    dgp as dgp_module,
    draw_flagging,
    draw_grouped,
    engines,
    ols_simple,
    run_flagging_curve,
    run_grouped_experiment,
    run_outcome_fixed,
    share_design,
)
from ssdiag.cli import main
from ssdiag.data import contiguous_partition
from ssdiag.estimators import t_test, var_cluster, var_robust
from ssdiag.parallel import chunk_bounds
from ssdiag.rng import OUTER_CHUNK, derive_seed, substream


def _replayed_effects(dgp, rng, draws):
    """The samples' untreated outcomes, unit effects and assignments, replayed from ``rng``.

    draw_grouped draws the samples' state shocks, unit noise and assignments,
    in that order, each as one (draws, ...) block; the replay makes the same
    three calls.  The effect is beta + het_loading * state_shock, and a
    sample's SATE its mean.
    """
    design = dgp.design
    state_shock = rng.standard_normal((draws, design.n_groups))[:, design.group_of]
    noise = rng.standard_normal((draws, design.n_units))
    z = engines.balanced_assignments(rng, design.n_groups, draws)
    return dgp.omega * state_shock + noise, dgp.beta + dgp.het_loading * state_shock, z


class TestDrawGrouped:
    def test_null_model_is_iid_standard_normal(self):
        dgp = GroupedDGP(n_states=20, per_state=10)
        pooled = draw_grouped(dgp, np.random.default_rng(0), 200).y.ravel()
        assert pooled.mean() == pytest.approx(0.0, abs=0.02)
        assert pooled.std() == pytest.approx(1.0, abs=0.02)

    def test_homogeneous_effect_sate(self):
        dgp = GroupedDGP(n_states=6, per_state=4, beta=0.5)
        draw = draw_grouped(dgp, np.random.default_rng(1), 1)
        untreated, effects, z = _replayed_effects(dgp, np.random.default_rng(1), 1)
        assert np.array_equal(draw.z, z)
        assert np.array_equal(draw.y, untreated + draw.x * effects)
        assert effects.mean(axis=1).tolist() == pytest.approx([0.5], abs=1e-12)

    def test_balanced_treatment(self):
        dgp = GroupedDGP(n_states=10, per_state=3)
        draw = draw_grouped(dgp, np.random.default_rng(2), 1)
        # 5 of the 10 states treated, every unit of a state alike
        treated_units = np.bincount(dgp.design.group_of, weights=draw.x[0])
        assert draw.z.tolist() == [(treated_units > 0).tolist()]
        assert sorted(treated_units) == [0.0] * 5 + [3.0] * 5
        assert dgp.design.group_size == 3

    def test_within_state_correlation(self):
        # analytic moment: corr = omega^2 / (omega^2 + 1) among untreated units
        omega = 0.3
        dgp = GroupedDGP(n_states=2, per_state=2, omega=omega)
        draw = draw_grouped(dgp, np.random.default_rng(3), 40000)
        pairs = draw.y[draw.x == 0.0].reshape(-1, 2)  # the control units of each draw
        corr = np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1]
        assert corr == pytest.approx(omega**2 / (omega**2 + 1), abs=0.02)

    def test_heterogeneous_effects_average_zero(self):
        dgp = GroupedDGP(n_states=50, per_state=2, het_loading=0.4)
        draw = draw_grouped(dgp, np.random.default_rng(4), 3000)
        untreated, effects, z = _replayed_effects(dgp, np.random.default_rng(4), 3000)
        assert np.array_equal(draw.z, z)
        assert np.array_equal(draw.y, untreated + draw.x * effects)
        sates = effects.mean(axis=1)
        assert np.std(sates) > 0.01  # the effects do vary by state
        assert np.mean(sates) == pytest.approx(0.0, abs=0.01)

    def test_deterministic_given_stream(self):
        dgp = GroupedDGP(n_states=8, per_state=2, omega=0.2, beta=0.1)
        a = draw_grouped(dgp, substream(7, 0, 0), 3)
        b = draw_grouped(dgp, substream(7, 0, 0), 3)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.x, b.x)

    def test_validation(self):
        with pytest.raises(ValidationError):
            GroupedDGP(n_states=5)
        with pytest.raises(ValidationError):
            GroupedDGP(n_states=4, per_state=0)
        with pytest.raises(ValidationError):
            GroupedDGP(n_states=4, omega=-0.1)

    @pytest.mark.parametrize(
        "key, value", [("n_states", 4.0), ("n_states", True), ("per_state", 2.5),
                       ("per_state", True)],
    )
    def test_non_integer_count_refused(self, key, value):
        # a float ended in numpy's TypeError mid-run, and True ran as 1
        settings = {"n_states": 4, "per_state": 2, key: value}
        message = re.escape(f"{key}: could not parse {value!r} as an integer")
        with pytest.raises(ValidationError, match=message):
            GroupedDGP(**settings)

    @pytest.mark.parametrize("key", ["beta", "omega", "het_loading"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_parameter_refused(self, key, value):
        # NaN passed the nonnegative-loading check, and a NaN beta made every outcome NaN
        with pytest.raises(ValidationError, match=f"{key} must be finite"):
            GroupedDGP(n_states=4, **{key: value})


class TestGroupedExperiment:
    @pytest.mark.parametrize("alpha", [0.05, 0.3])
    def test_realized_tests_match_the_scalar_tests(self, alpha, monkeypatch):
        # every panel cell, 40 draws in chunks of 16, 16 and 8: each chunk's one kernel
        # decides every draw's size test as t_test(var_robust) does, its outcomes are
        # the draw's y and y - beta_hat * x with beta_hat the OLS slope, and the size
        # tally counts those tests
        cells = [
            GroupedDGP(n_states=n_states, per_state=10, **params)
            for params in PANEL_PARAMS.values()
            for n_states in (20, 100)
        ]
        rejections = 0
        for seed, dgp in enumerate(cells, 310):
            block = SimConfig(replications=2, seed=seed, alpha=alpha)
            want = []
            for j0, j1 in chunk_bounds(40, OUTER_CHUNK):
                size, ys = dgp_module._outer_draws(dgp, block, j0, j1)
                assert size.shape == (j1 - j0,) and ys.shape == (2 * (j1 - j0), dgp.design.n_units)
                draw = draw_grouped(dgp, substream(seed, j0, 0), j1 - j0)
                for b, j in enumerate(range(j0, j1)):
                    y, x = draw.y[b], draw.x[b]
                    fit = ols_simple(y, x)
                    want.append(t_test(fit.slope, dgp.beta, var_robust(fit), alpha))
                    assert size[b] == want[-1], (seed, j)
                    np.testing.assert_allclose(ys[2 * b], y, rtol=0, atol=1e-12)
                    np.testing.assert_allclose(ys[2 * b + 1], y - fit.slope * x, rtol=0, atol=1e-12)
            (row,) = run_grouped_experiment([(dgp, seed)], 40, 2, alpha)
            assert row.size == sum(want) / 40, seed
            rejections += sum(want)
        assert 0 < rejections < 40 * len(cells)
        # flag-curve's chunks, tested by one kernel on each draw's own shocks, decide as
        # t_test(var_cluster) does and give each beta_hat, on the crossed design (sector
        # space, F*G = N), a per-region design (F*G > N) and unequal clusters; each
        # chunk's one simulation tests every draw's y and y - beta_hat * x as a block
        rng = np.random.default_rng(46)
        unequal = rng.permutation(np.repeat(np.arange(8), [1, 2, 3, 4, 5, 6, 7, 12]))
        designs = [
            crossed_shares(5, 4),
            (rng.uniform(0.05, 1.0, (24, 6)), np.arange(24) % 8),
            (rng.uniform(0.05, 1.0, (40, 3)), unequal),
        ]
        gammas = [0.0, 1.0, 2.0]
        simulated = []
        real = dgp_module.run_outcome_fixed
        monkeypatch.setattr(
            dgp_module,
            "run_outcome_fixed",
            lambda ys, *a, **kw: simulated.append((ys, kw["blocks"])) or real(ys, *a, **kw),
        )
        for seed, (shares, clusters) in enumerate(designs, 330):
            design = share_design(shares, clusters)
            want, ydots = [], []
            for j0, j1 in chunk_bounds(40, OUTER_CHUNK):
                draw = draw_flagging(shares, substream(seed, j0, 0), j1 - j0)
                ys = [draw.outcome(gamma)[b] for b in range(j1 - j0) for gamma in gammas]
                rejected, slopes = engines.realized_tests(
                    ys, [("crve",)] * 3, alpha, design, draw.shocks
                )
                for b, x in enumerate(draw.x):
                    for k, y in enumerate(ys[3 * b : 3 * b + 3]):
                        fit = ols_simple(y, x)
                        want.append(t_test(fit.slope, 0.0, var_cluster(fit, clusters), alpha))
                        assert rejected[b, k] == want[-1], (seed, j0 + b, k)
                        assert slopes[b, k] == pytest.approx(fit.slope, abs=1e-12)
                        ydots.append(y - fit.slope * x)
            simulated.clear()
            rows = run_flagging_curve(shares, clusters, gammas, 40, 2, seed, alpha)
            assert [row.size for row in rows] == np.reshape(want, (40, 3)).mean(axis=0).tolist()
            assert [blocks for _, blocks in simulated] == [16, 16, 8]
            # each block's last 3 outcomes are its draw's eps-fixed ones
            got = np.concatenate(
                [np.reshape(ys, (blocks, 6, -1))[:, 3:] for ys, blocks in simulated]
            )
            np.testing.assert_allclose(got.reshape(120, -1), ydots, rtol=0, atol=1e-12)
            rejections += sum(want)
        assert 0 < rejections < 40 * (len(cells) + 3 * len(designs))

    def test_report_shape_and_determinism(self):
        dgp = GroupedDGP(n_states=8, per_state=3, beta=0.5)
        results = [run_grouped_experiment([(dgp, 11)], 96, 40, workers=w) for w in (1, 2)]
        assert results[0] == results[1]
        (r,) = results[0]
        for value in (r.size, r.pr_flag_y, r.pr_flag_eps):
            assert 0.0 <= value <= 1.0

    def test_zero_threshold_flags_every_draw(self):
        # every rejection rate reaches a zero threshold, a zero rate included
        dgp = GroupedDGP(n_states=4, per_state=2)
        (r,) = run_grouped_experiment([(dgp, 5)], 32, 8, threshold=0.0)
        assert r.pr_flag_y == 1.0 and r.pr_flag_eps == 1.0

    def test_cell_row_independent_of_other_cells(self):
        # 21 draws per cell, so chunks of 16 cell-draw pairs span two cells
        cells = [
            (GroupedDGP(n_states=n, per_state=2, omega=0.3), seed)
            for n, seed in ((4, 1), (6, 2), (4, 3))
        ]
        batched = run_grouped_experiment(cells, 21, 20, workers=2)
        assert batched == [run_grouped_experiment([cell], 21, 20)[0] for cell in cells]

    @pytest.mark.parametrize("seed, outer_reps", [(21, 1), (22, 1), (23, 4), (24, 19)])
    def test_one_block_tests_both_modes(self, seed, outer_reps):
        # the chunk whose first draw is j0 draws its data from substream(seed, j0, 0),
        # and draw j is block j - j0 of the chunk's one engine call, keyed by
        # derive_seed(seed, j0, 1); that block tests y-fixed and eps-fixed.  The last
        # draw is not first in its chunk unless outer_reps is 1, and at 19 draws
        # it is in the second chunk
        dgp = GroupedDGP(n_states=20, per_state=3, beta=0.5, omega=0.6)
        rates = []
        for j0, hi in chunk_bounds(outer_reps, OUTER_CHUNK):
            ys = []
            draw = draw_grouped(dgp, substream(seed, j0, 0), hi - j0)
            for y, x in zip(draw.y, draw.x):
                ys += [y, y - ols_simple(y, x).slope * x]
            reports = run_outcome_fixed(
                ys, [("robust-hc1",)] * 2, dgp.design,
                SimConfig(replications=400, seed=derive_seed(seed, j0, 1)), blocks=hi - j0,
            )
            rates += [r.rates["robust-hc1"] for r in reports]
        # a threshold at the last block's eps-fixed rate: another block flags only
        # when its rate is at least as high
        threshold = rates[-1]
        (row,) = run_grouped_experiment([(dgp, seed)], outer_reps, 400, threshold=threshold)
        flags = np.reshape([rate >= threshold for rate in rates], (outer_reps, 2)).mean(axis=0)
        assert (row.pr_flag_y, row.pr_flag_eps) == tuple(flags)
        assert flags[1] > 0.0

    def test_one_outer_stream_per_chunk(self, tmp_path, monkeypatch):
        # mc-table at 2000 draws over its 10 cells keys one outer stream per chunk of
        # 16 draws, 10 x 125 = 1,250, where one per draw made 20,000
        keys = []
        real = dgp_module.substream
        monkeypatch.setattr(dgp_module, "substream", lambda *a: keys.append(a) or real(*a))
        out = tmp_path / "table.csv"
        argv = ["mc-table", "--seed", "1", "--reps", "2000", "--perms", "2", "--states", "4,6",
                "--per-state", "2", "--out", str(out)]
        assert main(argv) == 0
        assert len(out.read_text().splitlines()) == 2 + 10
        assert len(keys) == len(set(keys)) == 1250
        assert {j0 for _, j0, _ in keys} == set(range(0, 2000, OUTER_CHUNK))

    def test_validation(self):
        with pytest.raises(ValidationError, match="experiment cell"):
            run_grouped_experiment([], 10, 5)
        with pytest.raises(ValidationError, match="outer replication"):
            run_grouped_experiment([(GroupedDGP(n_states=4), 1)], 0, 5)

    def test_panel_params_table(self):
        assert set(PANEL_PARAMS) == {"A", "B", "C", "D", "E"}
        assert PANEL_PARAMS["B"] == {"beta": 0.5, "omega": 0.3, "het_loading": 0.0}
        assert PANEL_PARAMS["E"]["het_loading"] == 0.4


class TestDrawFlagging:
    @staticmethod
    def _shares():
        return oracles.partition_to_shares(contiguous_partition(4, 3))

    def test_zero_confound_outcome_is_pure_noise(self):
        shares = self._shares()
        draw = draw_flagging(shares, np.random.default_rng(0), 3)
        # replay the stream: the outcomes must equal the first 3 x N normals exactly
        replay = np.random.default_rng(0).standard_normal((3, shares.shape[0]))
        np.testing.assert_array_equal(draw.outcome(0.0), replay)

    def test_identity_shares_structure(self):
        draw = draw_flagging(np.eye(6), np.random.default_rng(1), 4)
        replay_rng = np.random.default_rng(1)
        z = replay_rng.standard_normal((4, 6))
        latent = replay_rng.standard_normal((4, 6))
        observed = replay_rng.standard_normal((4, 6))
        np.testing.assert_allclose(draw.outcome(2.0), z + 2.0 * latent)
        np.testing.assert_allclose(draw.x, observed)
        np.testing.assert_array_equal(draw.shocks, observed)

    def test_seed_round_trip(self):
        shares = self._shares()
        a = draw_flagging(shares, substream(5, 16, 0), 2)
        b = draw_flagging(shares, substream(5, 16, 0), 2)
        np.testing.assert_array_equal(a.outcome(0.7), b.outcome(0.7))
        np.testing.assert_array_equal(a.x, b.x)

class TestFlaggingCurve:
    def test_points_and_determinism(self):
        design = contiguous_partition(8, 4)
        shares = oracles.partition_to_shares(design)
        runs = [
            run_flagging_curve(shares, design.group_of, [0.0, 1.0], 64, 30, 3, workers=w)
            for w in (1, 2)
        ]
        assert runs[0] == runs[1]
        assert len(runs[0]) == 2  # one row per gamma, in grid order
        for p in runs[0]:
            assert 0.0 <= p.size <= 1.0
            assert 0.0 <= p.pr_flag_y <= 1.0

    def test_confound_raises_flagging(self):
        # sector confounds cut across clusters in the crossed design, so a
        # strong one must push the size and both flag probabilities up
        shares, clusters = crossed_shares(10, 8)
        points = run_flagging_curve(shares, clusters, [0.0, 2.0], 80, 100, 13)
        assert points[1].pr_flag_y > points[0].pr_flag_y
        assert points[1].size > points[0].size

    def test_zero_threshold_flags_every_draw(self):
        shares, clusters = crossed_shares(3, 4)
        (point,) = run_flagging_curve(shares, clusters, [0.0], 32, 8, 7, threshold=0.0)
        assert point.pr_flag_y == 1.0 and point.pr_flag_eps == 1.0

    def test_gamma_row_independent_of_grid(self):
        shares, clusters = crossed_shares(5, 4)
        (alone,) = run_flagging_curve(shares, clusters, [0.5], 20, 60, 9)
        batched = run_flagging_curve(shares, clusters, [0.0, 0.5, 1.0], 20, 60, 9)
        assert batched[1] == alone

    def test_gapped_cluster_labels(self):
        # labels 0, 2, ..., 10 name the same 6 clusters as 0..5, not 11
        shares, clusters = crossed_shares(6, 4)
        contiguous = run_flagging_curve(shares, clusters, [0.0, 1.0], 40, 200, 3)
        gapped = run_flagging_curve(shares, 2 * clusters, [0.0, 1.0], 40, 200, 3)
        assert gapped == contiguous

    def test_one_simulation_per_chunk(self, monkeypatch):
        # both modes of every gamma of every outer draw of a chunk share one shock
        # simulation: 3 gammas x 2 modes x 7 draws, then x 16 and x 4 at 20 draws
        calls = []
        real = engines._run_sim

        def counting(ys, *args, **kwargs):
            calls.append(len(ys))
            return real(ys, *args, **kwargs)

        monkeypatch.setattr(engines, "_run_sim", counting)
        shares, clusters = crossed_shares(4, 3)
        run_flagging_curve(shares, clusters, [0.0, 0.5, 1.0], 7, 20, 5)
        assert calls == [42]
        calls.clear()
        run_flagging_curve(shares, clusters, [0.0, 0.5, 1.0], 20, 20, 5)
        assert calls == [96, 24]
        calls.clear()
        # the grouped experiment makes one per chunk of outer draws: 2 modes x 5 draws,
        # then 2 x 16 and 2 x 4 at 20 draws
        run_grouped_experiment([(GroupedDGP(n_states=4, per_state=2), 5)], 5, 20)
        assert calls == [10]
        calls.clear()
        run_grouped_experiment([(GroupedDGP(n_states=4, per_state=2), 5)], 20, 20)
        assert calls == [32, 8]

    def test_menu_terms_built_once_per_experiment(self, monkeypatch):
        # every simulation of an experiment tests one menu, so its factors and critical
        # values are built once per design size, not once per outer draw; the menu terms
        # are kept across experiments, so start from none
        engines._menu_terms.cache_clear()
        calls = []
        for name in ("small_sample", "t_crits"):
            real = getattr(engines, name)
            monkeypatch.setattr(
                engines, name, lambda *a, _name=name, _real=real: calls.append(_name) or _real(*a)
            )
        shares, clusters = crossed_shares(5, 4)
        run_flagging_curve(shares, clusters, [0.0, 0.5, 1.0], 20, 30, 5)
        assert calls == ["small_sample", "t_crits"]
        calls.clear()
        # 3 cells on two partition designs of 12 units: 4 groups of 3 and 6 of 2
        cells = [
            (GroupedDGP(n_states=4, per_state=3), 5),
            (GroupedDGP(n_states=6, per_state=2, beta=0.5), 5),
            (GroupedDGP(n_states=4, per_state=3, omega=0.3), 5),
        ]
        run_grouped_experiment(cells, 20, 30)
        assert calls == ["small_sample", "t_crits"] * 2

    def test_crossed_shares_shape(self):
        shares, clusters = crossed_shares(3, 4)
        assert shares.shape == (12, 4)
        np.testing.assert_array_equal(shares.sum(axis=1), 1.0)
        np.testing.assert_array_equal(np.bincount(clusters), [4, 4, 4])
        # every cluster spans every sector
        for c in range(3):
            np.testing.assert_array_equal(shares[clusters == c].sum(axis=0), 1.0)

    def test_validation(self):
        design = contiguous_partition(4, 2)
        shares = oracles.partition_to_shares(design)
        with pytest.raises(ValidationError):
            run_flagging_curve(shares, design.group_of, [], 10, 5, 1)
        with pytest.raises(ValidationError):
            run_flagging_curve(shares, design.group_of, [0.0], 0, 5, 1)
        with pytest.raises(ValidationError, match="do not match shares"):
            run_flagging_curve(shares, design.group_of[:-1], [0.0], 10, 5, 1)
        # a float or bool design size ended in numpy's "TypeError: 'float' object cannot
        # be interpreted as an integer"; numpy integers pass
        for sizes, message in (
            ((2.0, 3), "n_clusters: could not parse 2.0"),
            ((3, 2.5), "n_sectors: could not parse 2.5"),
            ((True, 3), "n_clusters: could not parse True"),
        ):
            with pytest.raises(ValidationError, match=message):
                crossed_shares(*sizes)
        with pytest.raises(ValidationError, match="at least 2 clusters and 2 sectors"):
            crossed_shares(1, 3)
        shares, clusters = crossed_shares(np.int64(3), np.int32(2))
        assert shares.shape == (6, 2) and clusters.tolist() == [0, 0, 1, 1, 2, 2]

    @pytest.mark.parametrize("seed, outer_reps", [(31, 1), (32, 4), (33, 19)])
    def test_one_block_tests_both_modes(self, seed, outer_reps):
        # the chunk whose first draw is j0 draws its data from substream(seed, j0, 0),
        # and draw j is block j - j0 of the chunk's one crve shock simulation, keyed
        # by derive_seed(seed, j0, 1); that block tests y-fixed and eps-fixed.  The
        # last draw is not first in its chunk unless outer_reps is 1, and at 19 draws
        # it is in the second chunk
        shares, clusters = crossed_shares(6, 4)
        design = share_design(shares, clusters)
        rates = []
        for j0, hi in chunk_bounds(outer_reps, OUTER_CHUNK):
            ys = []
            draw = draw_flagging(shares, substream(seed, j0, 0), hi - j0)
            for y, x in zip(draw.outcome(1.0), draw.x):
                ys += [y, y - ols_simple(y, x).slope * x]
            reports = run_outcome_fixed(
                ys, [("crve",)] * 2, design,
                SimConfig(replications=400, seed=derive_seed(seed, j0, 1)), blocks=hi - j0,
            )
            rates += [r.rates["crve"] for r in reports]
        # thresholds at the last block's eps-fixed crve rate and just above it: a block
        # flags at both only if its rate is that rate exactly
        for threshold in (rates[-1], np.nextafter(rates[-1], 1.0)):
            (row,) = run_flagging_curve(
                shares, clusters, [1.0], outer_reps, 400, seed, threshold=threshold
            )
            flags = np.reshape([rate >= threshold for rate in rates], (outer_reps, 2))
            assert (row.pr_flag_y, row.pr_flag_eps) == tuple(flags.mean(axis=0))


@pytest.mark.parametrize("experiment", ["grouped", "flagging"])
@pytest.mark.parametrize("outer_reps", [2.5, 4.0, True])
def test_non_integer_outer_reps_refused_before_any_draw(experiment, outer_reps, monkeypatch):
    # 2.5 and 4.0 ended in "TypeError: 'float' object cannot be interpreted as an
    # integer", and True ran as 1 draw
    def no_draws(*args, **kwargs):
        raise AssertionError("a draw ran")

    monkeypatch.setattr(dgp_module, "map_chunks", no_draws)
    monkeypatch.setattr(dgp_module, "substream", no_draws)
    message = re.escape(f"outer_reps: could not parse {outer_reps!r} as an integer")
    with pytest.raises(ValidationError, match=message):
        if experiment == "grouped":
            run_grouped_experiment([(GroupedDGP(n_states=4, per_state=2), 1)], outer_reps, 5)
        else:
            shares, clusters = crossed_shares(3, 2)
            run_flagging_curve(shares, clusters, [0.0], outer_reps, 5, 1)


def _grouped(perms, alpha, threshold):
    cells = [(GroupedDGP(n_states=4, per_state=2), 1)]
    return run_grouped_experiment(cells, 4, perms, alpha, threshold)


def _flagging(perms, alpha, threshold):
    shares, clusters = crossed_shares(3, 2)
    return run_flagging_curve(shares, clusters, [0.0], 4, perms, 1, alpha, threshold)


@pytest.mark.parametrize("run", [_grouped, _flagging], ids=["grouped", "flagging"])
@pytest.mark.parametrize(
    "perms, alpha, threshold, message",
    [
        (0, 0.05, 0.1, "at least 1 replication"),
        (5, 0.0, 0.1, r"alpha must be in \(0, 1\)"),
        (5, 1.0, 0.1, r"alpha must be in \(0, 1\)"),
        (5, float("nan"), 0.1, r"alpha must be in \(0, 1\)"),
        (5, 0.05, -0.1, r"flag threshold must be in \[0, 1\]"),
        (5, 0.05, 1.5, r"flag threshold must be in \[0, 1\]"),
        (5, 0.05, float("nan"), r"flag threshold must be in \[0, 1\]"),
    ],
)
def test_experiment_settings_checked_before_any_draw(
    run, perms, alpha, threshold, message, monkeypatch
):
    def no_draws(*args, **kwargs):
        raise AssertionError("map_chunks ran")

    monkeypatch.setattr(dgp_module, "map_chunks", no_draws)
    with pytest.raises(ValidationError, match=message):
        run(perms, alpha, threshold)

