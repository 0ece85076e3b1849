"""Deterministic steering and the noisy pinned bridge."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from avgflow import (
    DeterministicExactController,
    EndpointPair,
    TimeGrid,
    VolterraExactController,
    bridge_ensemble,
    build_kernel_table,
    build_theta_ensemble,
    export_trajectory_csv,
    sample_increments,
    volterra_noise_terms,
)
from avgflow.cli import _load_trajectory_csv

PAIR = EndpointPair(np.array([1.0, 0.0]), np.array([1.0, 1.0]))


class TestEndpointPair:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            EndpointPair([1.0, np.inf], [0.0, 0.0])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            EndpointPair([1.0], [0.0, 0.0])


def reference_bridge(table, x0, xf, dw, epsilon):
    """Single-path oracle: D by one dense solve per step, the noise and memory
    terms by direct sums, then the closed-form state and control."""
    n, dt = table.n_steps, table.grid.dt
    phi = table.phi_lag
    d_hist = np.zeros((n + 1, table.dim_state))
    for k in range(n):
        d_hist[k + 1] = d_hist[k] + np.linalg.solve(table.g_bwd[k], phi[n - k] @ dw[k])
    noise = np.zeros_like(d_hist)
    memory = np.zeros_like(d_hist)
    for j in range(n + 1):
        for k in range(j):
            noise[j] += phi[j - k] @ dw[k]
        for k in range(j + 1):
            memory[j] += dt * phi[j - k] @ (phi[n - k].T @ d_hist[k])
    residual = xf - table.m_avg[n] @ x0
    steer = np.linalg.solve(table.g_fwd[n], residual)
    root = np.sqrt(epsilon)
    states = table.m_avg @ x0 + table.s_cross @ steer + root * (noise - memory)
    controls = np.stack([phi[n - j].T @ (steer - root * d_hist[j]) for j in range(n + 1)])
    return states, controls


def steer(table, pair):
    """The deterministic steering path of one pair: a bridge without noise."""
    ens = bridge_ensemble(table, pair.x0, pair.xf, 0.0, seed=0)
    return ens.states[0], ens.controls[0]


def unit_increments(table, index, dw):
    """Increments that are zero except ``dw`` at step ``index``."""
    out = np.zeros((table.n_steps, table.dim_control))
    out[index] = dw
    return out


class TestBrownianStreams:
    def test_reproducible_per_path(self):
        grid = TimeGrid(1.0, 100)
        a = sample_increments(grid, 2, 5, 4)
        b = sample_increments(grid, 2, 5, 6)
        np.testing.assert_array_equal(a, b[:4])

    def test_distinct_paths_differ(self):
        grid = TimeGrid(1.0, 100)
        dw = sample_increments(grid, 2, 5, 2)
        assert np.any(dw[0] != dw[1])

    def test_increment_variance_scales_with_dt(self):
        grid = TimeGrid(1.0, 400)
        dw = sample_increments(grid, 1, 9, 200)
        var = dw.var()
        se = np.sqrt(2.0 / dw.size) * grid.dt
        assert abs(var - grid.dt) < 4 * se


class TestDeterministicSteering:
    def test_constant_family_straight_line(self, const_table):
        states, controls = steer(const_table, PAIR)
        times = const_table.grid.times
        expected = np.stack([np.ones_like(times), times], axis=1)
        np.testing.assert_allclose(states, expected, atol=1e-12)
        np.testing.assert_allclose(
            controls, np.broadcast_to([0.0, 1.0], controls.shape), atol=1e-12
        )

    def test_zero_residual_means_zero_control(self, ou2d_table):
        n = ou2d_table.n_steps
        x0 = np.array([0.7, -0.4])
        _, controls = steer(ou2d_table, EndpointPair(x0, ou2d_table.m_avg[n] @ x0))
        for j in (0, n // 2, n):
            np.testing.assert_allclose(controls[j], 0.0, atol=1e-14)

    def test_initial_control_closed_form(self, ou2d_fine):
        # Everything in u(0) = Phi(1,0)^T G^{-1} (xf - M(1) x0) has a closed
        # form for this family: Phi(1,0) = M(1) and G = 0.9727707 I.
        m1 = np.array(
            [[np.sin(1.0), np.cos(1.0) - 1.0], [1.0 - np.cos(1.0), np.sin(1.0)]]
        )
        residual = np.array([1.0, 1.0]) - m1 @ np.array([1.0, 0.0])
        np.testing.assert_allclose(residual, [0.158529, 0.540302], atol=1e-6)
        expected = m1.T @ residual / 0.9727707
        _, controls = steer(ou2d_fine, PAIR)
        np.testing.assert_allclose(controls[0], expected, atol=1e-5)

    def test_pinning_random_endpoints(self, ou2d_fine, anti_fine):
        rng = np.random.Generator(np.random.Philox(key=[11, 0]))
        for table in (ou2d_fine, anti_fine):
            x0s, xfs = rng.uniform(-2.0, 2.0, size=(2, 5, 2))
            ens = bridge_ensemble(table, x0s, xfs, 0.0, seed=0)
            assert np.abs(ens.terminal - xfs).max() <= 1e-6
            np.testing.assert_allclose(ens.states[:, 0], x0s, atol=1e-12)


class TestVolterraState:
    """The running correction D(t_j) of ``volterra_noise_terms``."""

    def test_zero_increment_keeps_zero(self, const_table):
        terms = volterra_noise_terms(const_table, unit_increments(const_table, 0, 0.0))
        np.testing.assert_array_equal(terms["d_hist"], 0.0)

    def test_unit_window_inverse(self, const_table):
        dw = np.array([0.3, -0.8])
        terms = volterra_noise_terms(const_table, unit_increments(const_table, 0, dw))
        np.testing.assert_allclose(terms["d_hist"][1], dw, atol=1e-12)

    def test_half_window_inverse(self, const_table):
        n = const_table.n_steps
        dw = np.array([0.5, 0.25])
        terms = volterra_noise_terms(const_table, unit_increments(const_table, n // 2, dw))
        np.testing.assert_array_equal(terms["d_hist"][: n // 2 + 1], 0.0)
        np.testing.assert_allclose(terms["d_hist"][n // 2 + 1], 2.0 * dw, atol=1e-12)


class TestVolterraControl:
    """The volterra-exact controller's bridge control law."""

    def noise_data(self, table, dw):
        return {k: v[None] for k, v in volterra_noise_terms(table, dw).items()}

    def test_epsilon_zero_is_deterministic(self, ou2d_table):
        dw = sample_increments(ou2d_table.grid, 2, 1, 1)[0]
        got = VolterraExactController(PAIR.xf).stochastic_controls(
            ou2d_table, PAIR.x0[None], 0.0, self.noise_data(ou2d_table, dw)
        )
        want = DeterministicExactController(PAIR.xf).open_loop(ou2d_table, PAIR.x0[None])
        np.testing.assert_array_equal(got, want[:, : ou2d_table.n_steps])

    def test_zero_noise_is_deterministic(self, ou2d_table):
        got = VolterraExactController(PAIR.xf).stochastic_controls(
            ou2d_table, PAIR.x0[None], 1.0,
            self.noise_data(ou2d_table, unit_increments(ou2d_table, 0, 0.0)),
        )
        want = DeterministicExactController(PAIR.xf).open_loop(ou2d_table, PAIR.x0[None])
        np.testing.assert_allclose(got, want[:, : ou2d_table.n_steps], atol=1e-12)

    def test_single_increment_hand_value(self, const_table):
        # A = 0, B = I: after one increment at t = 0 the correction is
        # D = G_{1,0}^{-1} dW = dW, so u(t_j) = (xf - x0) - sqrt(eps) * dW.
        dw = np.array([0.2, -0.4])
        got = VolterraExactController(PAIR.xf).stochastic_controls(
            const_table, PAIR.x0[None], 1.0,
            self.noise_data(const_table, unit_increments(const_table, 0, dw)),
        )
        expected = (PAIR.xf - PAIR.x0) - dw
        np.testing.assert_allclose(got[0, 1], expected, atol=1e-12)


class TestVolterraTrajectory:
    def test_epsilon_zero_reduces_to_deterministic(self, ou2d_table):
        x0s = np.tile(PAIR.x0, (3, 1))
        xfs = np.tile(PAIR.xf, (3, 1))
        one = bridge_ensemble(ou2d_table, x0s, xfs, 0.0, seed=1)
        two = bridge_ensemble(ou2d_table, x0s, xfs, 0.0, seed=2)
        np.testing.assert_array_equal(one.states, two.states)
        for p in (1, 2):
            np.testing.assert_array_equal(one.states[p], one.states[0])
        np.testing.assert_array_equal(one.noise, 0.0)
        np.testing.assert_array_equal(one.memory, 0.0)

    def test_terminal_controls_undefined(self, ou2d_table):
        ens = bridge_ensemble(ou2d_table, PAIR.x0, PAIR.xf, 0.5, seed=1)
        assert np.all(np.isnan(ens.controls[:, -1]))
        assert np.all(np.isfinite(ens.controls[:, :-1]))

    def test_matches_bridge_recursion(self, scalar_table):
        # Independent route: for A = 0, B = 1 the construction collapses to
        # the classical pinned bridge with the decay factor integrated
        # exactly, x_j = x0 (1 - t_j) + xf t_j + sqrt(eps) (1 - t_j) D_j
        # where D_j accumulates dW_k / (1 - t_k).
        pair = EndpointPair(np.array([0.5]), np.array([-1.0]))
        eps = 0.5
        ens = bridge_ensemble(scalar_table, pair.x0, pair.xf, eps, seed=7)
        times = scalar_table.grid.times
        d = np.concatenate(
            [[0.0], np.cumsum(ens.increments[0, :, 0] / (1.0 - times[:-1]))]
        )
        expected = (
            pair.x0[0] * (1 - times)
            + pair.xf[0] * times
            + np.sqrt(eps) * (1 - times) * d
        )
        np.testing.assert_allclose(ens.states[0, :, 0], expected, atol=1e-12)
        assert ens.states[0, -1, 0] == pytest.approx(pair.xf[0], abs=1e-12)

    def test_refinement_shrinks_terminal_error(self):
        medians = []
        for n in (250, 500, 1000):
            ens = build_theta_ensemble("ou2d", 64)
            table = build_kernel_table(ens, TimeGrid(1.0, n))
            bridges = bridge_ensemble(
                table, np.tile(PAIR.x0, (100, 1)), np.tile(PAIR.xf, (100, 1)),
                1.0, seed=17,
            )
            errs = np.linalg.norm(bridges.terminal - PAIR.xf, axis=1)
            medians.append(np.median(errs))
        assert medians[0] > medians[1] > medians[2]


class TestBridgeEnsemble:
    def test_matches_single_path_construction(self, ou2d_table):
        rng = np.random.Generator(np.random.Philox(key=[23, 0]))
        x0s = rng.normal(size=(4, 2))
        xfs = rng.normal(size=(4, 2)) + 1.0
        ens = bridge_ensemble(ou2d_table, x0s, xfs, 0.5, seed=23)
        n = ou2d_table.n_steps
        for p in range(4):
            states, controls = reference_bridge(
                ou2d_table, x0s[p], xfs[p], ens.increments[p], 0.5
            )
            np.testing.assert_allclose(ens.states[p], states, atol=1e-12)
            np.testing.assert_allclose(ens.controls[p, :n], controls[:n], atol=1e-12)

    def test_noise_and_memory_recompose_states(self, ou2d_table):
        rng = np.random.Generator(np.random.Philox(key=[29, 0]))
        x0s = rng.normal(size=(6, 2))
        xfs = rng.normal(size=(6, 2))
        ens = bridge_ensemble(ou2d_table, x0s, xfs, 0.5, seed=3)
        n = ou2d_table.n_steps
        residual = xfs - x0s @ ou2d_table.m_avg[n].T
        det = np.einsum("jab,pb->pja", ou2d_table.m_avg, x0s)
        det += np.einsum(
            "jab,pb->pja",
            ou2d_table.s_cross,
            np.linalg.solve(ou2d_table.g_fwd[n], residual.T).T,
        )
        np.testing.assert_allclose(
            ens.states, det + ens.noise + ens.memory, atol=1e-10
        )

    def test_thread_count_does_not_change_results(self, ou2d_table):
        x0s = np.tile(PAIR.x0, (7, 1))
        xfs = np.tile(PAIR.xf, (7, 1))
        one = bridge_ensemble(ou2d_table, x0s, xfs, 1.0, seed=4, threads=1)
        four = bridge_ensemble(ou2d_table, x0s, xfs, 1.0, seed=4, threads=4)
        np.testing.assert_array_equal(one.states, four.states)
        np.testing.assert_array_equal(one.controls, four.controls)

    def test_terminal_property(self, ou2d_table):
        ens = bridge_ensemble(
            ou2d_table, np.tile(PAIR.x0, (3, 1)), np.tile(PAIR.xf, (3, 1)),
            0.5, seed=2,
        )
        np.testing.assert_array_equal(ens.terminal, ens.states[:, -1])

    def test_epsilon_validation(self, ou2d_table):
        with pytest.raises(ValueError, match="epsilon"):
            bridge_ensemble(
                ou2d_table, PAIR.x0[None], PAIR.xf[None], -0.5, seed=0
            )


class TestNoiseTerms:
    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_noise_term_is_causal_ito_sum(self, const_table, draw):
        rng = np.random.Generator(np.random.Philox(key=[draw, 5]))
        n = const_table.n_steps
        dw = rng.normal(size=(n, 2)) * np.sqrt(const_table.grid.dt)
        terms = volterra_noise_terms(const_table, dw)
        # Phi = I makes the left-point sum a plain cumulative sum.
        expected = np.vstack([np.zeros(2), np.cumsum(dw, axis=0)])
        np.testing.assert_allclose(terms["noise"], expected, atol=1e-12)

    def test_batched_equals_single(self, ou2d_table):
        rng = np.random.Generator(np.random.Philox(key=[31, 0]))
        dw = rng.normal(size=(3, ou2d_table.n_steps, 2)) * 0.07
        batch = volterra_noise_terms(ou2d_table, dw)
        for p in range(3):
            single = volterra_noise_terms(ou2d_table, dw[p])
            for key in ("d_hist", "noise", "memory"):
                np.testing.assert_allclose(batch[key][p], single[key], atol=1e-12)


def reference_trajectory_csv(path, grid, states=None, controls=None):
    """Byte oracle: the trajectory writer as one formatting call per cell."""
    cols, blocks = ["path_id", "t"], []
    for prefix, arr in (("x", states), ("u", controls)):
        if arr is not None:
            arr = np.asarray(arr)
            arr = arr[None] if arr.ndim == 2 else arr
            cols += [f"{prefix}{i + 1}" for i in range(arr.shape[2])]
            blocks.append(arr)
    values = np.concatenate(blocks, axis=2)
    times = grid.times
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for p in range(values.shape[0]):
            for j in range(values.shape[1]):
                row = [str(p), f"{times[j]:.17g}"]
                row += [f"{v:.17g}" for v in values[p, j]]
                fh.write(",".join(row) + "\n")


class TestTrajectoryCsv:
    def test_roundtrip_preserves_values(self, const_table, tmp_path):
        states, controls = steer(const_table, PAIR)
        out = tmp_path / "traj.csv"
        export_trajectory_csv(str(out), const_table.grid, states, controls)
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "path_id,t,x1,x2,u1,u2"
        data = np.array([r.split(",") for r in rows[1:]], dtype=float)
        assert data.shape[0] == const_table.n_steps + 1
        np.testing.assert_array_equal(data[:, 2:4], states)
        np.testing.assert_array_equal(data[:, 4:6], controls)

    @pytest.fixture(scope="class")
    def blocks(self, const_table):
        """Random states and controls with every special value the format
        must carry: a NaN last control row, -0.0, +-inf and subnormals."""
        rng = np.random.Generator(np.random.Philox(key=[61, 0]))
        steps = const_table.n_steps + 1
        scales = 10.0 ** rng.integers(-300, 300, (3, steps, 2))
        states = rng.normal(size=(3, steps, 2)) * scales
        controls = rng.normal(size=(3, steps, 2))
        controls[:, -1] = np.nan
        states[0, :4, 0] = [-0.0, np.inf, -np.inf, 5e-324]
        controls[1, 2] = [2.2250738585072009e-308, -1e-310]
        return states, controls

    @pytest.mark.parametrize("layout", ["3d", "2d", "states", "controls"])
    def test_bytes_match_the_per_cell_writer(self, const_table, blocks, layout, tmp_path):
        states, controls = blocks
        args = {"3d": (states, controls), "2d": (states[0], controls[0]),
                "states": (states, None), "controls": (None, controls)}[layout]
        export_trajectory_csv(str(tmp_path / "got.csv"), const_table.grid, *args)
        reference_trajectory_csv(str(tmp_path / "want.csv"), const_table.grid, *args)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_shuffled_rows_read_back_bitwise(self, const_table, blocks, tmp_path):
        states, controls = blocks
        grid = const_table.grid
        export_trajectory_csv(str(tmp_path / "sorted.csv"), grid, states, controls)
        header, *rows = (tmp_path / "sorted.csv").read_text().splitlines()
        # Grid-major with the paths reversed: every path is spread over the
        # file, but its own rows stay in grid order.
        steps = const_table.n_steps + 1
        shuffled = [rows[p * steps + j] for j in range(steps) for p in (2, 1, 0)]
        (tmp_path / "shuffled.csv").write_text("\n".join([header, *shuffled]) + "\n")
        got = _load_trajectory_csv(str(tmp_path / "shuffled.csv"))
        want = _load_trajectory_csv(str(tmp_path / "sorted.csv"))
        assert got.tobytes() == want.tobytes() == states.tobytes()

    @given(
        arrays(np.float64,
               st.tuples(st.integers(1, 5), st.integers(3, 12), st.integers(1, 3))),
        st.integers(0, 3),
        st.floats(1e-3, 1e3),
    )
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_floats_roundtrip(self, tmp_path_factory, states, m, t_f):
        """Any float64 ensemble is written byte for byte like the per-cell
        writer and reads back bitwise (every NaN reads back as the plain NaN)."""
        grid = TimeGrid(t_f, states.shape[1] - 1)
        controls = states[:, :, :1].repeat(m, axis=2) if m else None
        out = tmp_path_factory.mktemp("prop")
        export_trajectory_csv(str(out / "got.csv"), grid, states, controls)
        reference_trajectory_csv(str(out / "want.csv"), grid, states, controls)
        assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()
        expected = np.where(np.isnan(states), np.nan, states)
        got = _load_trajectory_csv(str(out / "got.csv"))
        assert got.shape == states.shape
        assert got.tobytes() == expected.tobytes()
