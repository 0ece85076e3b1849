"""Kernel-table construction against closed forms and reduction oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from avgflow import (
    NotAveragedControllableError,
    TimeGrid,
    build_kernel_table,
    build_theta_ensemble,
    causal_convolve,
    load_theta_table,
    volterra_noise_terms,
)


def _series_expm(a, t, terms=40):
    """Plain truncated power series, the independent oracle for small ||At||."""
    a = np.asarray(a, dtype=float) * t
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    return out


def constant_transition(a, grid):
    """M(t_j) of the constant family, which the table accumulates as exp(A t_j)."""
    a = np.asarray(a, dtype=float)
    ens = build_theta_ensemble("constant", 2, a=a, b=np.eye(a.shape[0]))
    return build_kernel_table(ens, grid).m_avg


class TestMatrixExponential:
    """The constant family's averaged transition is the matrix exponential."""

    ROTATION = np.array([[0.0, -1.0], [1.0, 0.0]])

    def test_zero_matrix(self):
        m = constant_transition(np.zeros((2, 2)), TimeGrid(1.0, 10))
        np.testing.assert_array_equal(m, np.broadcast_to(np.eye(2), m.shape))

    def test_quarter_rotation(self):
        m = constant_transition(self.ROTATION, TimeGrid(np.pi / 2, 100))
        np.testing.assert_allclose(m[-1], self.ROTATION, atol=1e-12)

    def test_unit_rotation_matches_series(self):
        got = constant_transition(self.ROTATION, TimeGrid(1.0, 100))[-1]
        expected = np.array(
            [[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]]
        )
        np.testing.assert_allclose(got, expected, rtol=1e-12)
        np.testing.assert_allclose(got, _series_expm(self.ROTATION, 1.0), rtol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            build_theta_ensemble(
                "constant", 2, a=[[np.nan, 0.0], [0.0, 0.0]], b=np.eye(2)
            )

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_one_parameter_group_property(self, draw):
        rng = np.random.Generator(np.random.Philox(key=[draw, 0]))
        a = rng.normal(scale=0.8, size=(3, 3))
        grid = TimeGrid(3.0, 60)
        m = constant_transition(a, grid)
        j1, j2 = rng.integers(2, 31, size=2)
        np.testing.assert_allclose(m[j1 + j2], m[j1] @ m[j2], atol=1e-10, rtol=1e-10)
        np.testing.assert_allclose(
            m[j1], expm(a * grid.times[j1]), atol=1e-10, rtol=1e-10
        )


class TestThetaEnsemble:
    def test_ou2d_node_matrices(self):
        ens = build_theta_ensemble("ou2d", 16)
        for th, a, b in zip(ens.thetas, ens.a_nodes, ens.b_nodes):
            np.testing.assert_array_equal(a, [[0.0, -th], [th, 0.0]])
            np.testing.assert_array_equal(b, np.eye(2))

    def test_antidamped_node_matrices(self):
        ens = build_theta_ensemble("antidamped2d", 16)
        for th, a, b in zip(ens.thetas, ens.a_nodes, ens.b_nodes):
            np.testing.assert_allclose(
                a, [[np.sin(th), np.cos(th)], [-np.cos(th), np.sin(th)]]
            )
            np.testing.assert_array_equal(b, [[0.0, -th], [th, 0.0]])

    def test_constant_family(self):
        ens = build_theta_ensemble("constant", 8, a=np.zeros((2, 2)), b=np.eye(2))
        assert np.all(ens.a_nodes == 0.0)
        assert np.all(ens.b_nodes == np.eye(2))

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown system family"):
            build_theta_ensemble("cubic")

    def test_weights_sum_to_one(self):
        ens = build_theta_ensemble("ou2d", 64)
        assert abs(ens.weights.sum() - 1.0) < 1e-12

    def test_user_table_roundtrip(self, tmp_path):
        path = tmp_path / "nodes.json"
        path.write_text(
            '{"nodes": ['
            '{"theta": 0.0, "A": [[0.0]], "B": [[1.0]]},'
            '{"theta": 0.5, "A": [[-0.5]], "B": [[1.0]]},'
            '{"theta": 1.0, "A": [[-1.0]], "B": [[1.0]]}]}'
        )
        ens = load_theta_table(str(path))
        assert ens.n_theta == 3
        np.testing.assert_allclose(ens.weights, [0.25, 0.5, 0.25])
        np.testing.assert_array_equal(ens.a_nodes[:, 0, 0], [0.0, -0.5, -1.0])


class TestConstantFamilyClosedForms:
    def test_phi_is_identity(self, const_table):
        assert np.max(np.abs(const_table.phi_lag - np.eye(2))) <= 1e-12

    def test_transition_is_identity(self, const_table):
        assert np.max(np.abs(const_table.m_avg - np.eye(2))) <= 1e-12

    def test_backward_gramian_linear(self, const_table):
        times = const_table.grid.times
        expected = (1.0 - times)[:, None, None] * np.eye(2)
        assert np.max(np.abs(const_table.g_bwd - expected)) <= 1e-12

    def test_gain_is_identity(self, const_table):
        assert np.max(np.abs(const_table.k_gain - np.eye(2))) <= 1e-12


class TestOu2dOracles:
    def test_averaged_transition_closed_form(self, ou2d_table):
        times = ou2d_table.grid.times[1:]
        m = ou2d_table.m_avg[1:]
        diag = np.sin(times) / times
        off = (1.0 - np.cos(times)) / times
        np.testing.assert_allclose(m[:, 0, 0], diag, atol=1e-12)
        np.testing.assert_allclose(m[:, 1, 1], diag, atol=1e-12)
        np.testing.assert_allclose(m[:, 1, 0], off, atol=1e-12)
        np.testing.assert_allclose(m[:, 0, 1], -off, atol=1e-12)

    def test_quadrature_convergence_in_theta(self):
        grid = TimeGrid(1.0, 50)
        for family in ("ou2d", "antidamped2d"):
            t64 = build_kernel_table(build_theta_ensemble(family, 64), grid)
            t128 = build_kernel_table(build_theta_ensemble(family, 128), grid)
            assert np.max(np.abs(t64.phi_lag - t128.phi_lag)) <= 1e-9

    def test_gramian_semidefinite(self, ou2d_table):
        for arr in (ou2d_table.g_fwd, ou2d_table.g_bwd):
            smallest = min(np.linalg.eigvalsh(g)[0] for g in arr)
            assert smallest >= -1e-10

    def test_cross_gram_terminal_consistency(self, ou2d_fine):
        n = ou2d_fine.n_steps
        gap = np.max(np.abs(ou2d_fine.s_cross[n] - ou2d_fine.g_fwd[n]))
        assert gap <= 1e-8


class TestReductionToClassicalGramian:
    """constant(A, B) collapses the averaging, so classical formulas apply."""

    def setup_method(self):
        self.a = np.array([[0.0, 1.0], [-0.3, -0.2]])
        self.b = np.array([[0.0], [1.0]])
        ens = build_theta_ensemble("constant", 8, a=self.a, b=self.b)
        self.table = build_kernel_table(ens, TimeGrid(1.0, 400))

    def test_kernel_is_matrix_exponential_times_b(self):
        for lag_index in (0, 57, 200, 400):
            lag = lag_index * self.table.grid.dt
            expected = expm(self.a * lag) @ self.b
            np.testing.assert_allclose(
                self.table.phi_lag[lag_index], expected, atol=1e-12
            )

    def test_forward_gramian_matches_direct_quadrature(self):
        # Independent route: fine midpoint rule on e^{A(t-s)} B B^T e^{A(t-s)}^T.
        t = 0.7
        j = 280
        s = np.linspace(0.0, t, 4001)
        mid = 0.5 * (s[1:] + s[:-1])
        acc = np.zeros((2, 2))
        for sm in mid:
            phi = expm(self.a * (t - sm)) @ self.b
            acc += phi @ phi.T
        acc *= (s[1] - s[0])
        np.testing.assert_allclose(self.table.g_fwd[j], acc, atol=5e-6)


class TestSolveGramian:
    """The backward Gramians and the factors that D's recursion solves with."""

    def test_scalar_inverse_halfway(self, const_table):
        n = const_table.n_steps
        x = np.linalg.solve(const_table.g_bwd[n // 2], [1.0, 0.0])
        np.testing.assert_allclose(x, [2.0, 0.0], atol=1e-12)

    def test_full_span_reciprocal(self, ou2d_fine):
        x = np.linalg.solve(ou2d_fine.g_bwd[0], [1.0, 1.0])
        np.testing.assert_allclose(x, [1.027994, 1.027994], atol=2e-5)

    def test_residual_bound(self, ou2d_table):
        # One increment at step 50 moves D by G_{t_f,t_50}^{-1} Phi(t_f,t_50) dW.
        n = ou2d_table.n_steps
        dw = np.zeros((n, 2))
        dw[50] = [0.3, -1.2]
        rhs = ou2d_table.phi_lag[n - 50] @ dw[50]
        x = volterra_noise_terms(ou2d_table, dw)["d_hist"][51]
        res = ou2d_table.g_bwd[50] @ x - rhs
        assert np.linalg.norm(res) <= 1e-8 * np.linalg.norm(rhs)

    def test_terminal_backward_gramian_is_singular(self, ou2d_table):
        np.testing.assert_array_equal(ou2d_table.g_bwd[ou2d_table.n_steps], 0.0)


class TestControllabilityGuard:
    def test_dead_input_raises(self):
        ens = build_theta_ensemble("constant", 4, a=np.zeros((2, 2)), b=np.zeros((2, 2)))
        with pytest.raises(NotAveragedControllableError):
            build_kernel_table(ens, TimeGrid(1.0, 50))


class TestCausalConvolve:
    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_matches_direct_sum(self, draw):
        rng = np.random.Generator(np.random.Philox(key=[draw, 1]))
        n, d, m, paths = 7, 2, 3, 2
        kernel = rng.normal(size=(n + 1, d, m))
        seq = rng.normal(size=(paths, n + 1, m))
        got = causal_convolve(kernel, seq)
        expected = np.zeros((paths, n + 1, d))
        for j in range(n + 1):
            for k in range(j + 1):
                expected[:, j] += seq[:, k] @ kernel[j - k].T
        np.testing.assert_allclose(got, expected, atol=1e-12)
