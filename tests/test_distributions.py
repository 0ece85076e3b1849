"""Endpoint mixtures and the conditional terminal-state posterior."""

import numpy as np
import pytest

from avgflow import (
    DeterministicExactController,
    GaussianMixture,
    PosteriorContext,
    PosteriorExactController,
    bridge_ensemble,
    point_mass,
    posterior_mean,
    product_pairs,
    ring_mixture,
    sample,
    sample_increments,
    single_gaussian,
    volterra_noise_terms,
)

ZERO_R = np.zeros(2)


def recompute_mean_r(table, d_hist, t_index, epsilon):
    """Direct-sum oracle for the memory term of the observation model,

        -sqrt(eps) * dt * sum_{k<=j} Phi(t_j,t_k) Phi(t_f,t_k)^T D(t_k),

    at O(j) products per call; the library reads the same quantity off
    ``-sqrt(eps) * volterra_noise_terms(...)["memory"][j]``.
    ``d_hist`` may be (n+1, d) for one path or (paths, n+1, d).
    """
    n = table.n_steps
    d_hist = np.asarray(d_hist, dtype=float)
    squeeze = d_hist.ndim == 2
    if squeeze:
        d_hist = d_hist[None]
    j = t_index
    if j == 0:
        out = np.zeros((d_hist.shape[0], table.dim_state))
    else:
        phi = table.phi_lag
        v = np.einsum("kab,pka->pkb", phi[n - j : n + 1][::-1], d_hist[:, : j + 1])
        out = -np.sqrt(epsilon) * table.grid.dt * np.einsum(
            "kab,pkb->pa", phi[: j + 1][::-1], v
        )
    return out[0] if squeeze else out


def two_point_mixture(separation=0.4, sigma2=0.02):
    means = np.array([[1.0 - separation / 2, 1.0], [1.0 + separation / 2, 1.0]])
    covs = np.broadcast_to(sigma2 * np.eye(2), (2, 2, 2)).copy()
    return GaussianMixture([0.5, 0.5], means, covs)


class TestMixtureValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            GaussianMixture([0.5, 0.6], np.zeros((2, 1)), np.ones((2, 1, 1)))

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            GaussianMixture([1.5, -0.5], np.zeros((2, 1)), np.ones((2, 1, 1)))

    def test_covariance_must_be_symmetric(self):
        cov = np.array([[1.0, 0.5], [-0.5, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            GaussianMixture([1.0], np.zeros((1, 2)), cov)

    def test_covariance_must_be_psd(self):
        with pytest.raises(ValueError, match="PSD"):
            GaussianMixture([1.0], np.zeros((1, 2)), -np.eye(2))

    def test_mixture_mean(self):
        mix = GaussianMixture(
            [0.3, 0.7], np.array([[0.0], [10.0]]), np.ones((2, 1, 1))
        )
        assert mix.mean == pytest.approx(7.0)

    def test_ring_geometry(self):
        mix = ring_mixture(8, radius=0.5, sigma2=0.004, center=(1.0, 1.0))
        assert mix.n_components == 8
        radii = np.linalg.norm(mix.means - [1.0, 1.0], axis=1)
        np.testing.assert_allclose(radii, 0.5, atol=1e-12)
        np.testing.assert_allclose(mix.mean, [1.0, 1.0], atol=1e-12)

    def test_ring_needs_a_component(self):
        with pytest.raises(ValueError):
            ring_mixture(0, 1.0, 0.1)


class TestSampling:
    def test_point_mass_draws_are_exact(self):
        x = np.array([2.0, -3.0])
        draws = sample(point_mass(x), 50, seed=0)
        np.testing.assert_array_equal(draws, np.tile(x, (50, 1)))

    def test_single_gaussian_moments(self):
        mix = single_gaussian([1.0, -2.0], 0.25 * np.eye(2))
        draws = sample(mix, 20_000, seed=1)
        se = 0.5 / np.sqrt(20_000)
        np.testing.assert_allclose(draws.mean(axis=0), [1.0, -2.0], atol=3 * se)
        cov_se = 0.25 * np.sqrt(2.0 / 20_000)
        np.testing.assert_allclose(
            np.cov(draws.T), 0.25 * np.eye(2), atol=4 * cov_se
        )

    def test_unequal_weights_shift_the_mean(self):
        mix = GaussianMixture(
            [0.3, 0.7], np.array([[0.0], [10.0]]), 0.01 * np.ones((2, 1, 1))
        )
        draws = sample(mix, 40_000, seed=2)
        se = draws.std(ddof=1) / np.sqrt(40_000)
        assert abs(draws.mean() - 7.0) < 3 * se

    def test_symmetric_mixture_centers_at_origin(self):
        mix = two_point_mixture()
        draws = sample(mix, 40_000, seed=3) - [1.0, 1.0]
        se = draws.std(axis=0, ddof=1) / np.sqrt(40_000)
        assert np.all(np.abs(draws.mean(axis=0)) < 3 * se)

    def test_stream_isolation(self):
        mix = single_gaussian([0.0], np.eye(1))
        a = sample(mix, 10, seed=4, stream=0)
        b = sample(mix, 10, seed=4, stream=0)
        c = sample(mix, 10, seed=4, stream=1)
        np.testing.assert_array_equal(a, b)
        assert np.any(a != c)


class TestProductPairs:
    def test_endpoints_are_uncorrelated(self):
        mu0 = single_gaussian([0.0, 0.0], np.eye(2))
        muf = single_gaussian([5.0, 5.0], np.eye(2))
        pairs = product_pairs(mu0, muf, 20_000, seed=6)
        x = pairs.x0s - pairs.x0s.mean(axis=0)
        y = pairs.xfs - pairs.xfs.mean(axis=0)
        corr = (x * y).mean(axis=0) / (x.std(axis=0) * y.std(axis=0))
        assert np.all(np.abs(corr) < 3.0 / np.sqrt(20_000))

    def test_single_pair(self):
        mu0 = single_gaussian([0.0], np.eye(1))
        pairs = product_pairs(mu0, mu0, 1, seed=7)
        assert pairs.x0s.shape == (1, 1) and pairs.xfs.shape == (1, 1)
        assert pairs.x0s[0, 0] != pairs.xfs[0, 0]

    def test_determinism(self):
        mu0 = single_gaussian([0.0, 0.0], np.eye(2))
        a = product_pairs(mu0, mu0, 5, seed=8)
        b = product_pairs(mu0, mu0, 5, seed=8)
        np.testing.assert_array_equal(a.x0s, b.x0s)
        np.testing.assert_array_equal(a.xfs, b.xfs)


class TestPosteriorContext:
    def test_initial_law_must_be_single_component(self):
        mix = two_point_mixture()
        with pytest.raises(ValueError, match="single Gaussian"):
            PosteriorContext(mix, mix, 0.5)

    def test_epsilon_must_be_nonnegative(self):
        mu = single_gaussian([0.0, 0.0], np.eye(2))
        with pytest.raises(ValueError, match="epsilon"):
            PosteriorContext(mu, mu, -1.0)


class TestPosteriorMean:
    def test_at_time_zero_returns_prior_mean(self, ou2d_table):
        mu0 = single_gaussian([1.0, 0.0], 0.01 * np.eye(2))
        muf = two_point_mixture()
        ctx = PosteriorContext(mu0, muf, 0.5)
        states = np.array([[1.0, 0.0], [1.4, -0.3]])
        got = posterior_mean(ctx, ou2d_table, 0, states, ZERO_R)
        np.testing.assert_allclose(got, np.tile(muf.mean, (2, 1)), atol=1e-9)

    def test_symmetric_mixture_antisymmetry(self, ou2d_table):
        # Reflecting the observed state through the model's central state
        # negates the posterior deviation from the prior mean when the two
        # components are mirror images with equal covariances.
        mu0 = single_gaussian([1.0, 1.0], 0.01 * np.eye(2))
        muf = two_point_mixture(separation=0.6)
        ctx = PosteriorContext(mu0, muf, 0.5)
        j = 120
        n = ou2d_table.n_steps
        base = (
            ou2d_table.y_coef[j] @ mu0.means[0]
            + ou2d_table.z_coef[j] @ muf.mean
        )
        probe = np.array([0.2, 0.0])
        left, right = posterior_mean(
            ctx, ou2d_table, j, np.stack([base - probe, base + probe]), ZERO_R
        )
        np.testing.assert_allclose(
            left - muf.mean, -(right - muf.mean), atol=1e-9
        )

    def test_single_component_matches_gaussian_regression(self, ou2d_table):
        # Independent route: assemble the joint covariance of (x_t, xf) in
        # block form under x_t = Y x0 + Z xf + R and regress with solve().
        mu0 = single_gaussian([1.0, 0.0], 0.01 * np.eye(2))
        muf = single_gaussian([1.0, 1.0], 0.04 * np.eye(2))
        eps = 0.5
        ctx = PosteriorContext(mu0, muf, eps)
        rng = np.random.Generator(np.random.Philox(key=[51, 0]))
        for j in (17, 60, 141, 199):
            y = ou2d_table.y_coef[j]
            z = ou2d_table.z_coef[j]
            cov_xx = (
                y @ mu0.covs[0] @ y.T
                + z @ muf.covs[0] @ z.T
                + eps * ou2d_table.g_fwd[j]
            )
            cov_fx = muf.covs[0] @ z.T
            mean_x = y @ mu0.means[0] + z @ muf.means[0]
            states = mean_x + rng.normal(size=(8, 2)) * 0.2
            expected = muf.means[0] + (
                np.linalg.solve(cov_xx, (states - mean_x).T).T @ cov_fx.T
            )
            got = posterior_mean(ctx, ou2d_table, j, states, ZERO_R)
            np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_identical_components_collapse(self, ou2d_table):
        mu0 = single_gaussian([1.0, 0.0], 0.01 * np.eye(2))
        mean = np.array([1.0, 1.0])
        cov = 0.04 * np.eye(2)
        merged = GaussianMixture(
            [0.2, 0.3, 0.5], np.tile(mean, (3, 1)), np.tile(cov, (3, 1, 1))
        )
        ctx3 = PosteriorContext(mu0, merged, 0.5)
        ctx1 = PosteriorContext(mu0, single_gaussian(mean, cov), 0.5)
        rng = np.random.Generator(np.random.Philox(key=[52, 0]))
        states = rng.normal(size=(6, 2))
        for j in (0, 50, 150):
            np.testing.assert_allclose(
                posterior_mean(ctx3, ou2d_table, j, states, ZERO_R),
                posterior_mean(ctx1, ou2d_table, j, states, ZERO_R),
                atol=1e-12,
            )

    def test_far_states_stay_finite(self, ou2d_table):
        # Ten standard deviations out, the log-space weight normalization
        # must not underflow to NaN.
        mu0 = single_gaussian([1.0, 0.0], 0.01 * np.eye(2))
        muf = two_point_mixture(sigma2=0.01)
        ctx = PosteriorContext(mu0, muf, 0.5)
        sigma = 0.1
        far = muf.means[1] + np.array([10 * sigma, 0.0])
        got = posterior_mean(ctx, ou2d_table, 100, far[None], ZERO_R)
        assert np.all(np.isfinite(got))


class TestMemoryTerm:
    def test_zero_history_gives_zero(self, ou2d_table):
        d_hist = np.zeros((ou2d_table.n_steps + 1, 2))
        np.testing.assert_array_equal(
            recompute_mean_r(ou2d_table, d_hist, 80, 0.5), 0.0
        )

    def test_epsilon_zero_gives_zero(self, ou2d_table):
        rng = np.random.Generator(np.random.Philox(key=[53, 0]))
        d_hist = rng.normal(size=(ou2d_table.n_steps + 1, 2))
        np.testing.assert_array_equal(
            recompute_mean_r(ou2d_table, d_hist, 80, 0.0), 0.0
        )

    def test_single_increment_hand_value(self, const_table):
        # Phi = I, so after one increment the sum has a single nonzero term:
        # mean_R(t_1) = -sqrt(eps) * dt * D(t_1) with D(t_1) = dW_0.
        dw0 = np.array([0.3, -0.2])
        d_hist = np.zeros((const_table.n_steps + 1, 2))
        d_hist[1:] = dw0
        got = recompute_mean_r(const_table, d_hist, 1, 0.25)
        np.testing.assert_allclose(
            got, -0.5 * const_table.grid.dt * dw0, atol=1e-14
        )

    def test_advance_matches_recompute(self, ou2d_table):
        # D advanced one dense solve per step, against the vectorized D.
        dw = sample_increments(ou2d_table.grid, 2, 54, 1)[0]
        n, j = ou2d_table.n_steps, 60
        d_hist = np.zeros((n + 1, 2))
        for k in range(j):
            d_hist[k + 1] = d_hist[k] + np.linalg.solve(
                ou2d_table.g_bwd[k], ou2d_table.phi_lag[n - k] @ dw[k]
            )
        terms = volterra_noise_terms(ou2d_table, dw)
        np.testing.assert_allclose(
            recompute_mean_r(ou2d_table, d_hist, j, 0.5),
            recompute_mean_r(ou2d_table, terms["d_hist"], j, 0.5),
            atol=1e-12,
        )

    def test_vectorized_memory_matches_direct_sum(self, ou2d_table):
        # The sequential posterior driver reads the memory term off the
        # vectorized convolution; the direct sum agrees at every index.
        rng = np.random.Generator(np.random.Philox(key=[55, 0]))
        dw = rng.normal(scale=np.sqrt(ou2d_table.grid.dt),
                        size=(3, ou2d_table.n_steps, 2))
        terms = volterra_noise_terms(ou2d_table, dw)
        eps = 0.5
        for j in range(ou2d_table.n_steps + 1):
            np.testing.assert_allclose(
                -np.sqrt(eps) * terms["memory"][:, j],
                recompute_mean_r(ou2d_table, terms["d_hist"], j, eps),
                rtol=0, atol=1e-13, err_msg=f"index {j}",
            )


class TestPosteriorControl:
    """The posterior-exact controller's control law at one grid index."""

    def control(self, ctx, table, j, states, x0s, epsilon):
        paths = states.shape[0]
        d_hist = np.zeros((paths, table.n_steps + 1, 2))
        return PosteriorExactController(ctx.mu0, ctx.muf).control_step(
            table, j, states, x0s, d_hist, epsilon, np.zeros((paths, 2))
        )

    def test_point_mass_endpoints_reduce_to_deterministic(self, ou2d_table):
        x0 = np.array([1.0, 0.0])
        xf = np.array([1.0, 1.0])
        ctx = PosteriorContext(point_mass(x0), point_mass(xf), 0.0)
        exact = DeterministicExactController(xf).open_loop(ou2d_table, x0[None])
        n = ou2d_table.n_steps
        for j in (0, 70, n - 1):
            state = (
                ou2d_table.y_coef[j] @ x0 + ou2d_table.z_coef[j] @ xf
            )
            np.testing.assert_allclose(
                self.control(ctx, ou2d_table, j, state[None], x0[None], 0.0),
                exact[:, j],
                atol=1e-9,
            )

    def test_initial_control_targets_prior_mean(self, ou2d_table):
        mu0 = single_gaussian([1.0, 0.0], 0.01 * np.eye(2))
        muf = two_point_mixture()
        ctx = PosteriorContext(mu0, muf, 0.5)
        x0 = np.array([0.9, 0.1])
        n = ou2d_table.n_steps
        expected = ou2d_table.k_gain[0] @ (
            muf.mean - ou2d_table.m_avg[n] @ x0
        )
        got = self.control(ctx, ou2d_table, 0, x0[None], x0[None], 0.5)
        np.testing.assert_allclose(got[0], expected, atol=1e-9)


class TestPosteriorMartingale:
    def test_checkpoint_average_matches_prior_mean(self, ou2d_table):
        # Tower property: averaging the conditional terminal mean over
        # bridge paths recovers the prior terminal mean.
        mu0 = single_gaussian([1.0, 0.0], 0.01 * np.eye(2))
        muf = two_point_mixture()
        eps = 0.5
        n_paths = 5000
        pairs = product_pairs(mu0, muf, n_paths, seed=141)
        ens = bridge_ensemble(
            ou2d_table, pairs.x0s, pairs.xfs, eps, seed=142, threads=4
        )
        ctx = PosteriorContext(mu0, muf, eps)
        for j in (50, 100, 150):
            # ens.memory is the observation model's -sqrt(eps) * memory term.
            post = posterior_mean(ctx, ou2d_table, j, ens.states[:, j], ens.memory[:, j])
            gap = np.abs(post.mean(axis=0) - muf.mean)
            se = post.std(axis=0, ddof=1) / np.sqrt(n_paths)
            assert np.all(gap <= 3 * se), f"index {j}: gap {gap}, se {se}"
