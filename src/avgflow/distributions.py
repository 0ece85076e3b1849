"""Endpoint distributions and the Gaussian-mixture endpoint posterior.

The steering pipelines draw initial and terminal conditions from Gaussian
mixtures.  During a noisy rollout the terminal condition is unknown, and the
controller replaces it by a conditional mean computed from the rearranged
bridge representation

    x(t) = Y(t) x0 + Z(t) xf + R(t),

where R(t) splits into a memory part (a known functional of the observed
increments, see :func:`avgflow.bridge.volterra_noise_terms`) and a pure-noise
part treated as Gaussian with covariance eps * G_{t,0}.  Conditioning the
mixture on the current state under that observation model gives reweighted
components

    w~_i  ~ w_i N(x; chi_i(t), C_i(t)),
    chi_i = Y m0 + Z m_i + mean_R,
    C_i   = Y S0 Y^T + Z S_i Z^T + eps G_{t,0},

and posterior mean  sum_i w~_i (m_i + Gamma_i (x - chi_i)) with
Gamma_i = S_i Z^T C_i^{-1}.  Weights are normalized in log space and include
the full Gaussian normalization constants (determinant terms), which cancel
only for equal C_i.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import DegeneratePosteriorError
from .kernel import JITTER_SCALE


@dataclass
class GaussianMixture:
    """Finite Gaussian mixture with weights, means and covariances."""

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray

    def __post_init__(self):
        self.weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        self.means = np.atleast_2d(np.asarray(self.means, dtype=float))
        self.covs = np.asarray(self.covs, dtype=float)
        if self.covs.ndim == 2:
            self.covs = self.covs[None]
        L, d = self.means.shape
        if self.weights.shape != (L,) or self.covs.shape != (L, d, d):
            raise ValueError("mixture weights/means/covs shapes are inconsistent")
        if not (np.all(np.isfinite(self.means)) and np.all(np.isfinite(self.covs))):
            raise ValueError("mixture means and covariances must be finite")
        if np.any(self.weights <= 0):
            raise ValueError("mixture weights must be positive")
        if abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("mixture weights must sum to 1")
        scale = max(float(np.trace(self.covs.sum(axis=0))), 1.0)
        for i, cov in enumerate(self.covs):
            if not np.allclose(cov, cov.T, atol=1e-10 * scale):
                raise ValueError(f"component {i} covariance is not symmetric")
            if np.linalg.eigvalsh(cov)[0] < -1e-10 * scale:
                raise ValueError(f"component {i} covariance is not PSD")
        self.covs = 0.5 * (self.covs + self.covs.transpose(0, 2, 1))

    @property
    def n_components(self):
        return self.weights.shape[0]

    @property
    def dim(self):
        return self.means.shape[1]

    @property
    def mean(self):
        """Overall mixture mean sum_i w_i m_i."""
        return self.weights @ self.means


def single_gaussian(mean, cov):
    """One-component mixture; covariance may be singular (point masses)."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    return GaussianMixture(np.array([1.0]), mean[None], np.asarray(cov, float))


def point_mass(x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return single_gaussian(x, np.zeros((x.shape[0], x.shape[0])))


def ring_mixture(n_components, radius, sigma2, center=(0.0, 0.0)):
    """Equally weighted isotropic components spaced on a circle."""
    if n_components < 1:
        raise ValueError("need at least one component")
    angles = 2.0 * np.pi * np.arange(n_components) / n_components
    center = np.asarray(center, dtype=float)
    means = center + radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    covs = np.broadcast_to(sigma2 * np.eye(2), (n_components, 2, 2)).copy()
    weights = np.full(n_components, 1.0 / n_components)
    return GaussianMixture(weights, means, covs)


def _cov_roots(covs):
    """Symmetric square roots, tolerant of singular components."""
    roots = np.empty_like(covs)
    for i, cov in enumerate(covs):
        lam, vec = np.linalg.eigh(cov)
        roots[i] = (vec * np.sqrt(np.clip(lam, 0.0, None))) @ vec.T
    return roots


def sample(mixture, n, seed, stream=0):
    """Draw n points; reproducible via a counter-based (seed, stream) key."""
    rng = np.random.Generator(
        np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
    )
    comp = rng.choice(mixture.n_components, size=n, p=mixture.weights)
    normals = rng.standard_normal((n, mixture.dim))
    roots = _cov_roots(mixture.covs)
    return mixture.means[comp] + np.einsum("nab,nb->na", roots[comp], normals)


@dataclass
class SamplePairSet:
    """Independent endpoint draws (x0_i, xf_i) under the product coupling."""

    x0s: np.ndarray
    xfs: np.ndarray


def product_pairs(mu0, muf, n, seed):
    """Sample n pairs from mu0 x muf with independent sub-streams."""
    return SamplePairSet(
        x0s=sample(mu0, n, seed, stream=1),
        xfs=sample(muf, n, seed, stream=2),
    )


@dataclass
class PosteriorContext:
    """Everything the endpoint posterior needs besides the kernel table and
    the observed paths."""

    mu0: GaussianMixture
    muf: GaussianMixture
    epsilon: float

    def __post_init__(self):
        if self.mu0.n_components != 1:
            raise ValueError("the initial law must be a single Gaussian")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")


def _posterior_pieces(ctx, table, t_index):
    """Per-component factorizations at one grid index (path independent)."""
    j = t_index
    y = table.y_coef[j]
    z = table.z_coef[j]
    s0 = ctx.mu0.covs[0]
    base = y @ s0 @ y.T + ctx.epsilon * table.g_fwd[j]
    d = table.dim_state
    factors = []
    logdets = []
    for cov in ctx.muf.covs:
        c = base + z @ cov @ z.T
        c = 0.5 * (c + c.T)
        lam = JITTER_SCALE * max(np.trace(c) / d, 1e-2)
        try:
            factor = cho_factor(c, lower=True)
        except np.linalg.LinAlgError:
            factor = cho_factor(c + lam * np.eye(d), lower=True)
        factors.append(factor)
        logdets.append(2.0 * np.sum(np.log(np.diag(factor[0]))))
    return y, z, factors, np.array(logdets)


def posterior_mean(ctx, table, t_index, states, mean_r):
    """Conditional terminal mean for a batch of states.

    :param states: (paths, d) current states.
    :param mean_r: (paths, d) memory terms of the observation model at
        t_index, ``-sqrt(eps) * volterra_noise_terms(...)["memory"][:, j]``,
        or one (d,) term shared by every path.
    :returns: (paths, d) posterior means.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    mean_r = np.asarray(mean_r, dtype=float)
    if mean_r.ndim == 1:
        mean_r = np.broadcast_to(mean_r, states.shape)
    y, z, factors, logdets = _posterior_pieces(ctx, table, t_index)
    m0 = ctx.mu0.means[0]
    L = ctx.muf.n_components
    paths = states.shape[0]
    log_w = np.empty((L, paths))
    comp_means = np.empty((L, paths, table.dim_state))
    for i in range(L):
        chi = y @ m0 + z @ ctx.muf.means[i] + mean_r
        delta = states - chi
        alpha = cho_solve(factors[i], delta.T).T
        quad = np.einsum("pa,pa->p", delta, alpha)
        log_w[i] = np.log(ctx.muf.weights[i]) - 0.5 * quad - 0.5 * logdets[i]
        # Gamma_i delta = S_i Z^T C_i^{-1} delta = ((delta C_i^{-1}) Z) S_i.
        comp_means[i] = ctx.muf.means[i] + alpha @ z @ ctx.muf.covs[i]
    if not np.all(np.isfinite(log_w)):
        bad = np.where(~np.all(np.isfinite(log_w), axis=0))[0]
        shown = ", ".join(str(p) for p in bad[:5])
        raise DegeneratePosteriorError(
            f"posterior component weights are not finite at index {t_index} "
            f"for path(s) {shown}; the conditioning is degenerate"
        )
    shift = log_w.max(axis=0)
    w = np.exp(log_w - shift)
    w /= w.sum(axis=0)
    return np.einsum("ip,ipa->pa", w, comp_means)
