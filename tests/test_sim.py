"""Rollout drivers, controllers, and the law-comparison metrics.

The statistical checks here run at fixed seeds that were picked once and
recorded next to the assertion; the margins quoted in comments are the
measured values at those seeds, so a failure means behavior changed, not
that the dice came up wrong.
"""

import json

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from avgflow import (
    DeterministicExactController,
    FeedforwardController,
    GainController,
    MetricsReport,
    PosteriorExactController,
    RecurrentController,
    TimeGrid,
    TrainConfig,
    VolterraExactController,
    bridge_ensemble,
    build_kernel_table,
    build_theta_ensemble,
    compare_laws,
    energy_distance,
    energy_distance_null,
    export_metrics,
    flatten_endpoint_dataset,
    point_mass,
    product_pairs,
    rollout_deterministic,
    rollout_stochastic,
    sample,
    single_gaussian,
    sliced_w2,
    train_feedforward,
    train_gain,
    train_recurrent,
    write_manifest,
)
from avgflow.sim import _CDIST_BLOCK

TARGET = np.array([1.0, 1.0])


def straight_line(x0, xf, times):
    return x0[None, :] * (1.0 - times)[:, None] + xf[None, :] * times[:, None]


@pytest.fixture(scope="module")
def lstm(ou2d_table):
    """An untrained sequence model: wiring tests only need the forward pass."""
    rng = np.random.default_rng(np.random.Philox(key=[60, 0]))
    n = ou2d_table.n_steps
    feats = rng.standard_normal((4, n, 5))
    targets = rng.standard_normal((4, n, 2))
    model, _ = train_recurrent(feats, targets, TrainConfig(epochs=0, seed=8))
    return model


@pytest.fixture(scope="module")
def controlled(ou2d_table):
    x0s = np.tile([1.0, 0.0], (2000, 1))
    return rollout_stochastic(
        ou2d_table, VolterraExactController(TARGET), x0s, 0.5, seed=93
    )


class TestDeterministicRollouts:
    def test_constant_family_straight_line(self, const_table):
        """With A = 0 the exact steering is a constant push along the chord."""
        x0s = np.array([[1.0, 0.0], [-0.5, 2.0]])
        result = rollout_deterministic(
            const_table, DeterministicExactController(TARGET), x0s
        )
        times = const_table.grid.times
        for p in range(2):
            expected = straight_line(x0s[p], TARGET, times)
            np.testing.assert_allclose(result.states[p], expected, atol=1e-12)
            np.testing.assert_allclose(
                result.controls[p], np.tile(TARGET - x0s[p], (len(times), 1)),
                atol=1e-12,
            )

    def test_terminal_property_is_last_row(self, const_table):
        x0s = np.array([[0.3, -0.2]])
        result = rollout_deterministic(
            const_table, DeterministicExactController(TARGET), x0s
        )
        np.testing.assert_array_equal(result.terminal, result.states[:, -1])
        np.testing.assert_allclose(result.terminal[0], TARGET, atol=1e-12)

    def test_gain_controller_zero_residual_zero_control(self, ou2d_table):
        """Targets equal to the free-flow terminal leave nothing to steer."""
        model, _ = train_gain(ou2d_table, TrainConfig(epochs=0, seed=1))
        x0s = np.array([[1.0, 0.0], [0.2, 0.4]])
        free_terminal = x0s @ ou2d_table.m_avg[ou2d_table.n_steps].T
        controls = GainController(model, free_terminal).open_loop(ou2d_table, x0s)
        np.testing.assert_allclose(controls, 0.0, atol=1e-12)

    def test_gain_controller_broadcasts_single_target(self, ou2d_table):
        model, _ = train_gain(ou2d_table, TrainConfig(epochs=0, seed=1))
        x0s = np.array([[1.0, 0.0], [0.2, 0.4]])
        single = GainController(model, TARGET).open_loop(ou2d_table, x0s)
        stacked = GainController(model, np.tile(TARGET, (2, 1))).open_loop(
            ou2d_table, x0s
        )
        np.testing.assert_array_equal(single, stacked)
        assert single.shape == (2, ou2d_table.n_steps + 1, 2)

    def test_mismatched_targets_rejected(self, ou2d_table):
        ctrl = DeterministicExactController(np.tile(TARGET, (3, 1)))
        with pytest.raises(ValueError, match="pair up one to one"):
            rollout_deterministic(ou2d_table, ctrl, np.zeros((2, 2)))


class TestStochasticRollouts:
    def test_zero_noise_constant_family_hits_target(self, const_table):
        """At epsilon = 0 the driver is a quadrature; for the constant family
        the left-point sum of a constant control is exact."""
        x0s = np.array([[1.0, 0.0], [-2.0, 0.5], [0.0, 0.0]])
        result = rollout_stochastic(
            const_table, DeterministicExactController(TARGET), x0s, 0.0, seed=0
        )
        np.testing.assert_allclose(
            result.terminal, np.tile(TARGET, (3, 1)), atol=1e-9
        )
        det = rollout_deterministic(
            const_table, DeterministicExactController(TARGET), x0s
        )
        np.testing.assert_allclose(result.states, det.states, atol=1e-12)

    def test_terminal_control_row_is_nan(self, const_table):
        result = rollout_stochastic(
            const_table,
            DeterministicExactController(TARGET),
            np.array([[1.0, 0.0]]),
            0.5,
            seed=3,
        )
        assert np.isnan(result.controls[:, -1]).all()
        assert np.isfinite(result.controls[:, :-1]).all()

    def test_volterra_controller_reduces_at_zero_noise(self, ou2d_table):
        """The noise-correction term vanishes with the noise, leaving the
        open-loop steering controls."""
        x0s = np.array([[1.0, 0.0], [0.5, -0.5]])
        sto = rollout_stochastic(
            ou2d_table, VolterraExactController(TARGET), x0s, 0.0, seed=0
        )
        ref = rollout_stochastic(
            ou2d_table, DeterministicExactController(TARGET), x0s, 0.0, seed=0
        )
        np.testing.assert_array_equal(sto.states, ref.states)

    def test_volterra_terminal_mean_matches_target(self, ou2d_table):
        """Noise corrections are mean-zero, so 2000 noisy paths should land
        on the target in expectation (measured 0.37 / 0.62 standard errors
        at this seed)."""
        x0s = np.tile([1.0, 0.0], (2000, 1))
        result = rollout_stochastic(
            ou2d_table, VolterraExactController(TARGET), x0s, 1.0, seed=191
        )
        term = result.terminal
        gap = np.abs(term.mean(axis=0) - TARGET)
        se = term.std(axis=0, ddof=1) / np.sqrt(len(term))
        assert (gap <= 3.0 * se).all()

    def test_same_seed_reproduces_bitwise(self, ou2d_table):
        x0s = np.tile([1.0, 0.0], (8, 1))
        a = rollout_stochastic(
            ou2d_table, VolterraExactController(TARGET), x0s, 0.5, seed=11
        )
        b = rollout_stochastic(
            ou2d_table, VolterraExactController(TARGET), x0s, 0.5, seed=11
        )
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(
            a.controls[:, :-1], b.controls[:, :-1]
        )
        c = rollout_stochastic(
            ou2d_table, VolterraExactController(TARGET), x0s, 0.5, seed=12
        )
        assert np.abs(a.states - c.states).max() > 1e-3

    def test_thread_count_does_not_change_states(self, ou2d_table):
        """Per-path targets over uneven path chunks: 7 paths on 3 threads."""
        x0s = np.column_stack([np.linspace(0.5, 1.5, 7), np.zeros(7)])
        targets = np.column_stack([np.ones(7), np.linspace(0.5, 1.5, 7)])
        one = rollout_stochastic(
            ou2d_table, VolterraExactController(targets), x0s, 0.5, seed=11, threads=1
        )
        three = rollout_stochastic(
            ou2d_table, VolterraExactController(targets), x0s, 0.5, seed=11, threads=3
        )
        np.testing.assert_array_equal(one.states, three.states)
        np.testing.assert_array_equal(one.controls, three.controls)

    def test_negative_epsilon_rejected(self, ou2d_table):
        with pytest.raises(ValueError):
            rollout_stochastic(
                ou2d_table,
                DeterministicExactController(TARGET),
                np.array([[1.0, 0.0]]),
                -0.1,
                seed=0,
            )

    def test_unusable_controller_rejected(self, ou2d_table):
        class Inert:
            tag = "inert"

        with pytest.raises(ValueError, match="fits neither rollout driver"):
            rollout_stochastic(ou2d_table, Inert(), np.array([[1.0, 0.0]]), 0.5, seed=0)

    def test_bad_control_shape_reported(self, ou2d_table):
        class Wrong:
            tag = "wrong-shape"

            def stochastic_controls(self, table, x0s, epsilon, noise_data):
                return np.zeros((x0s.shape[0], 3, 2))

        with pytest.raises(ValueError, match="expected"):
            rollout_stochastic(ou2d_table, Wrong(), np.array([[1.0, 0.0]]), 0.5, seed=0)


class TestRecurrentControllerWiring:
    def test_noise_enters_only_through_sqrt_epsilon_product(self, ou2d_table, lstm):
        """Scaling epsilon by 4 and halving the noise features must cancel."""
        rng = np.random.default_rng(np.random.Philox(key=[61, 0]))
        noise = rng.standard_normal((3, ou2d_table.n_steps + 1, 2))
        x0s = rng.standard_normal((3, 2))
        ctrl = RecurrentController(lstm)
        a = ctrl.stochastic_controls(ou2d_table, x0s, 4.0, {"noise": noise})
        b = ctrl.stochastic_controls(ou2d_table, x0s, 1.0, {"noise": 2.0 * noise})
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)

    def test_batch_size_does_not_change_controls(self, ou2d_table, lstm):
        rng = np.random.default_rng(np.random.Philox(key=[62, 0]))
        noise = rng.standard_normal((7, ou2d_table.n_steps + 1, 2))
        x0s = rng.standard_normal((7, 2))
        big = RecurrentController(lstm, batch_size=512).stochastic_controls(
            ou2d_table, x0s, 0.5, {"noise": noise}
        )
        small = RecurrentController(lstm, batch_size=3).stochastic_controls(
            ou2d_table, x0s, 0.5, {"noise": noise}
        )
        np.testing.assert_allclose(big, small, rtol=1e-12, atol=1e-14)

    def test_zero_noise_paths_with_same_start_coincide(self, ou2d_table, lstm):
        x0s = np.tile([0.4, -0.3], (3, 1))
        result = rollout_stochastic(
            ou2d_table, RecurrentController(lstm), x0s, 0.0, seed=5
        )
        np.testing.assert_array_equal(result.states[0], result.states[1])
        np.testing.assert_array_equal(result.states[0], result.states[2])


class TestSequentialDriver:
    def test_point_mass_posterior_reduces_to_exact_steering(self, const_table):
        """Point-mass endpoints and zero noise leave no inference to do."""
        x0 = np.array([1.0, 0.0])
        ctrl = PosteriorExactController(point_mass(x0), point_mass(TARGET))
        result = rollout_stochastic(
            const_table, ctrl, x0[None, :], 0.0, seed=0
        )
        expected = straight_line(x0, TARGET, const_table.grid.times)
        np.testing.assert_allclose(result.states[0], expected, atol=1e-9)

    def test_posterior_terminal_mean_tracks_target(self, ou2d_table):
        """1500 noisy paths under posterior steering land on the target mean
        (measured 0.11 / 0.95 standard errors at these seeds)."""
        mu0 = single_gaussian([1.0, 0.0], 0.01 * np.eye(2))
        muf = single_gaussian(TARGET, 0.04 * np.eye(2))
        x0s = sample(mu0, 1500, seed=94)
        result = rollout_stochastic(
            ou2d_table, PosteriorExactController(mu0, muf), x0s, 0.5, seed=95
        )
        term = result.terminal
        gap = np.abs(term.mean(axis=0) - TARGET)
        se = term.std(axis=0, ddof=1) / np.sqrt(len(term))
        assert (gap <= 3.0 * se).all()

    @pytest.mark.xfail(
        reason="terminal spread of pinned paths stays near the bridge noise "
        "floor rather than the target covariance at this noise scale",
        strict=True,
    )
    def test_posterior_terminal_spread_matches_target_cov(self, ou2d_table):
        mu0 = single_gaussian([1.0, 0.0], 0.01 * np.eye(2))
        muf = single_gaussian(TARGET, 0.04 * np.eye(2))
        x0s = sample(mu0, 1500, seed=94)
        result = rollout_stochastic(
            ou2d_table, PosteriorExactController(mu0, muf), x0s, 0.5, seed=95
        )
        cov = np.cov(result.terminal.T)
        target_cov = 0.04 * np.eye(2)
        rel = np.linalg.norm(cov - target_cov) / np.linalg.norm(target_cov)
        assert rel <= 0.10

    def test_controller_failure_names_grid_index(self, ou2d_table):
        class Fragile:
            tag = "fragile"

            def control_step(self, table, t_index, states, x0s, d_hist, epsilon,
                             mean_r):
                if t_index == 3:
                    raise RuntimeError("boom")
                return np.zeros_like(states)

        with pytest.raises(RuntimeError, match="boom") as excinfo:
            rollout_stochastic(
                ou2d_table, Fragile(), np.array([[1.0, 0.0]]), 0.5, seed=0
            )
        rendered = str(excinfo.value) + "".join(
            getattr(excinfo.value, "__notes__", []) or []
        )
        assert "grid index 3" in rendered and "fragile" in rendered


class TestLawComparison:
    def test_identical_ensembles_report_zero(self, controlled):
        report = compare_laws(controlled, controlled)
        assert report.energy_distance == 0.0
        assert report.sliced_w2 == 0.0
        np.testing.assert_allclose(report.terminal_mean, report.target_mean)
        for stats in report.checkpoints.values():
            assert stats["mean_gap_se"] == 0.0
            assert stats["cov_rel_gap"] == 0.0
        assert report.n_paths == (2000, 2000)

    def test_bridge_and_controlled_rollout_agree(self, ou2d_table, controlled):
        """Conditioned paths and steered paths share checkpoint means
        (measured at most 1.5 standard errors at these seeds)."""
        x0s = np.tile([1.0, 0.0], (2000, 1))
        xfs = np.tile(TARGET, (2000, 1))
        bridges = bridge_ensemble(ou2d_table, x0s, xfs, 0.5, seed=92, threads=4)
        report = compare_laws(bridges, controlled)
        for frac, stats in report.checkpoints.items():
            assert stats["mean_gap_se"] <= 3.0, (frac, stats)

    def test_mean_shift_detected_against_permutation_null(self):
        """A unit mean shift at n = 10**4 sits far above the null (measured
        roughly 160 times the 95th percentile)."""
        rng = np.random.default_rng(np.random.Philox(key=[0, 5150]))
        a = rng.standard_normal((10_000, 2))
        b = rng.standard_normal((10_000, 2)) + np.array([1.0, 0.0])
        observed, null = energy_distance(a, b), energy_distance_null(a, b, seed=17)
        assert observed >= 5.0 * np.quantile(null, 0.95)

    def test_identical_law_within_null(self):
        rng = np.random.default_rng(np.random.Philox(key=[1, 5150]))
        a = rng.standard_normal((2000, 2))
        b = a.copy()
        observed, null = energy_distance(a, b), energy_distance_null(a, b, seed=17)
        assert observed <= np.quantile(null, 0.95)

    @pytest.mark.parametrize("max_pooled", [6000, 50])
    def test_null_matches_direct_submatrix_sums(self, max_pooled):
        """The blocked matrix-product null equals the per-permutation sums
        over the pooled distance matrix, across a block boundary and after
        subsampling."""
        rng = np.random.default_rng(np.random.Philox(key=[4, 5150]))
        a = rng.standard_normal((40, 2))
        b = rng.standard_normal((30, 2)) + np.array([0.3, 0.0])
        null = energy_distance_null(
            a, b, n_permutations=300, seed=5, max_pooled=max_pooled
        )

        rng = np.random.Generator(np.random.Philox(key=np.array([5, 914], dtype=np.uint64)))
        if a.shape[0] + b.shape[0] > max_pooled:
            keep_a = int(round(max_pooled * a.shape[0] / (a.shape[0] + b.shape[0])))
            a = a[rng.choice(a.shape[0], size=keep_a, replace=False)]
            b = b[rng.choice(b.shape[0], size=max_pooled - keep_a, replace=False)]
        na, nb = a.shape[0], b.shape[0]
        dist = cdist(np.concatenate([a, b]), np.concatenate([a, b]))
        expected = np.empty(300)
        for r in range(300):
            idx = rng.permutation(na + nb)
            ia, ib = idx[:na], idx[na:]
            s_a = dist[np.ix_(ia, ia)].sum()
            s_b = dist[np.ix_(ib, ib)].sum()
            s_ab = dist[np.ix_(ia, ib)].sum()
            expected[r] = 2.0 * s_ab / (na * nb) - s_a / na**2 - s_b / nb**2
        np.testing.assert_allclose(null, np.maximum(expected, 0.0), rtol=1e-12, atol=1e-15)

    def test_energy_distance_basics(self):
        rng = np.random.default_rng(np.random.Philox(key=[2, 5150]))
        a = rng.standard_normal((300, 2))
        b = rng.standard_normal((300, 2)) + 5.0
        assert energy_distance(a, a.copy()) == 0.0
        assert energy_distance(a, b) > 1.0
        np.testing.assert_allclose(
            energy_distance(a, b), energy_distance(b, a), rtol=1e-12
        )

    def test_blocked_sums_match_direct_means(self):
        # Both clouds span more than one cdist block.
        rng = np.random.default_rng(np.random.Philox(key=[7, 5150]))
        a = rng.standard_normal((_CDIST_BLOCK + 1476, 2))
        b = rng.standard_normal((_CDIST_BLOCK + 476, 2)) + 0.3
        direct = 2.0 * cdist(a, b).mean() - cdist(a, a).mean() - cdist(b, b).mean()
        np.testing.assert_allclose(energy_distance(a, b), direct, rtol=1e-12, atol=0)
        assert energy_distance(a, a.copy()) == 0.0

    def test_sliced_w2_translation_grows(self):
        rng = np.random.default_rng(np.random.Philox(key=[3, 5150]))
        a = rng.standard_normal((500, 2))
        assert sliced_w2(a, a.copy()) == pytest.approx(0.0, abs=1e-12)
        near = sliced_w2(a, a + np.array([0.1, 0.0]))
        far = sliced_w2(a, a + np.array([1.0, 0.0]))
        assert 0.0 < near < far

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError, match="cannot compare empty"):
            compare_laws(np.zeros((0, 5, 2)), np.zeros((4, 5, 2)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="state dimensions differ"):
            compare_laws(np.zeros((4, 5, 2)), np.zeros((4, 5, 3)))


class TestSchemeConsistency:
    def test_halving_the_step_halves_the_driver_gap(self, ou2d_table):
        """The two deterministic quadratures (left-point vs trapezoid) differ
        by a first-order term, so doubling the resolution should halve the
        gap; the measured ratio here is 2.0005."""
        coarse = build_kernel_table(
            build_theta_ensemble("ou2d", 64), TimeGrid(1.0, 100)
        )
        x0s = np.array([[1.0, 0.0], [0.5, -0.5], [-1.0, 2.0]])
        gaps = {}
        for label, table in (("coarse", coarse), ("fine", ou2d_table)):
            ctrl = DeterministicExactController(TARGET)
            sto = rollout_stochastic(table, ctrl, x0s, 0.0, seed=1)
            det = rollout_deterministic(table, ctrl, x0s)
            gaps[label] = np.abs(sto.states - det.states).max()
        ratio = gaps["coarse"] / gaps["fine"]
        assert 1.5 <= ratio <= 3.0, gaps


class TestMeanCollapseReproduction:
    def test_product_trained_rollout_tracks_mean_target(self):
        """A regressor fit on independently paired endpoints should steer
        like a controller aiming at the target mean, with the terminal
        spread collapsed well below the target spread."""
        table = build_kernel_table(
            build_theta_ensemble("ou2d", 64), TimeGrid(1.0, 50)
        )
        mu0 = single_gaussian([1.0, 0.0], 0.0025 * np.eye(2))
        muf = single_gaussian(TARGET, 0.04 * np.eye(2))
        pairs = product_pairs(mu0, muf, 600, seed=42)
        controls = DeterministicExactController(pairs.xfs).open_loop(table, pairs.x0s)
        inputs, targets = flatten_endpoint_dataset(
            pairs.x0s, controls, table.grid.times
        )
        model, _ = train_feedforward(
            inputs, targets, TrainConfig(epochs=80, late_learning_rate=2e-4, seed=3)
        )

        rng = np.random.default_rng(np.random.Philox(key=[43, 0]))
        test_x0s = mu0.mean[None] + 0.05 * rng.standard_normal((200, 2))
        learned = rollout_deterministic(table, FeedforwardController(model), test_x0s)
        mean_aim = rollout_deterministic(
            table, DeterministicExactController(muf.mean), test_x0s
        )
        dev = np.abs(learned.terminal - mean_aim.terminal)
        assert dev.mean() <= 0.05
        assert dev.max() <= 0.25
        target_spread = np.sqrt(np.diag(muf.covs[0]))
        assert (learned.terminal.std(axis=0) <= 0.25 * target_spread).all()


class TestMetricsExport:
    @pytest.fixture()
    def report(self):
        return MetricsReport(
            terminal_mean=np.array([1.0, 2.0]),
            terminal_cov=np.array([[0.5, 0.1], [0.1, 0.4]]),
            target_mean=np.array([1.5, 2.5]),
            target_cov=np.eye(2),
            energy_distance=0.125,
            sliced_w2=0.0625,
            checkpoints={0.5: {"mean_gap_se": 1.25, "cov_rel_gap": 0.75}},
            n_paths=(100, 200),
        )

    def test_flat_items_cover_every_field(self, report):
        items = dict(report.flat_items())
        assert items["terminal_mean_1"] == 1.0
        assert items["terminal_cov_12"] == 0.1
        assert items["target_cov_22"] == 1.0
        assert items["energy_distance"] == 0.125
        assert items["checkpoint_0.5_mean_gap_se"] == 1.25
        assert items["checkpoint_0.5_cov_rel_gap"] == 0.75
        assert items["n_paths_left"] == 100
        assert items["n_paths_right"] == 200

    def test_export_text_and_csv_agree(self, report, tmp_path):
        txt_path, csv_path = export_metrics(report, tmp_path, stem="run")
        txt_lines = open(txt_path).read().splitlines()
        assert txt_lines[0] == "terminal_mean_1 = 1"
        csv_lines = open(csv_path).read().splitlines()
        assert csv_lines[0] == "key,value"
        parsed = dict(line.split(",") for line in csv_lines[1:])
        for key, value in report.flat_items():
            assert float(parsed[key]) == float(value)

    def test_manifest_is_sorted_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        entries = {"zeta": 1, "alpha": {"n": 2}, "seed": 7}
        write_manifest(path, entries)
        raw = open(path).read()
        assert raw.endswith("\n")
        assert json.loads(raw) == entries
        assert raw.index('"alpha"') < raw.index('"seed"') < raw.index('"zeta"')
