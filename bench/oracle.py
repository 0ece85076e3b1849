"""Closed-form oracle for the ``ou2d`` family, independent of ``avgflow``.

For A(theta) = [[0, -theta], [theta, 0]] and B = I, the theta-average of the
rotation exp(A(theta) t) over theta in [0, 1] is known in closed form:

    M(t) = Phi(t) = [[sin t / t, -(1 - cos t) / t],
                     [(1 - cos t) / t, sin t / t]],     M(0) = I.

Everything else (the Gramian G_{t,0}, the cross Gramian S(t), the minimum-energy
path and the bridge covariance) is a composite-trapezoid sum on the uniform
grid, so the oracle follows the same quadrature as the program but shares no
code with it.  Run this file to self-test the oracle.
"""

import math

import numpy as np
from scipy.spatial.distance import cdist


def m_closed(t):
    """M(t) for an array of lags t, shape (len(t), 2, 2)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    safe = np.where(t == 0.0, 1.0, t)
    diag = np.where(t == 0.0, 1.0, np.sin(safe) / safe)
    off = np.where(t == 0.0, 0.0, (1.0 - np.cos(safe)) / safe)
    out = np.empty((t.shape[0], 2, 2))
    out[:, 0, 0] = diag
    out[:, 1, 1] = diag
    out[:, 0, 1] = -off
    out[:, 1, 0] = off
    return out


class Ou2dOracle:
    """Grid quantities of the ou2d ensemble on [0, t_f] with n_steps steps."""

    def __init__(self, n_steps, t_f=1.0):
        n = int(n_steps)
        self.n = n
        self.dt = t_f / n
        self.times = np.linspace(0.0, t_f, n + 1)
        self.phi = m_closed(self.times)  # Phi(lag t_j) = M(t_j)
        h = np.einsum("jab,jcb->jac", self.phi, self.phi)
        csum = np.cumsum(h, axis=0)
        self.g_fwd = self.dt * (csum - 0.5 * h - 0.5 * h[0])
        self.g_fwd[0] = 0.0
        self.s_cross = np.zeros((n + 1, 2, 2))
        for j in range(1, n + 1):
            tw = np.full(j + 1, self.dt)
            tw[0] = tw[-1] = self.dt / 2.0
            self.s_cross[j] = np.einsum(
                "k,kab,kcb->ac", tw, self.phi[: j + 1], self.phi[n - j:]
            )
        self.g_inv = np.linalg.inv(self.g_fwd[n])
        # K(t_j) = Phi(t_f - t_j)^T G^{-1}
        self.k_gain = np.einsum("jba,bc->jac", self.phi[::-1], self.g_inv)

    def mean_path(self, x0, xf):
        """Minimum-energy path M(t) x0 + S(t) G^{-1} (xf - M(t_f) x0), (n+1, 2)."""
        x0 = np.asarray(x0, dtype=float)
        steer = self.g_inv @ (np.asarray(xf, dtype=float) - self.phi[self.n] @ x0)
        return self.phi @ x0 + self.s_cross @ steer

    def bridge_cov(self, epsilon):
        """eps (G_{t,0} - S(t) G^{-1} S(t)^T) on the grid, (n+1, 2, 2)."""
        sgs = np.einsum("jab,bc,jdc->jad", self.s_cross, self.g_inv, self.s_cross)
        return epsilon * (self.g_fwd - sgs)

    def teacher_controls(self, x0s, targets):
        """Minimum-energy controls K(t_j)(y_i - M(t_f) x0_i), (N, n+1, 2)."""
        residual = targets - x0s @ self.phi[self.n].T
        return np.einsum("jab,pb->pja", self.k_gain, residual)

    def integrate(self, x0s, controls):
        """Trapezoid state path x(t_j) = M(t_j) x0 + dt sum_k w_k Phi(t_j-t_k) u_k.

        Weights are halved at k = 0 and k = j. (N, n+1, 2) from (N, n+1, 2).
        """
        n, dt = self.n, self.dt
        states = np.einsum("jab,pb->pja", self.phi, x0s)
        # conv[:, j] = sum_{k<=j} Phi(t_j - t_k) u_k, by direct summation.
        conv = np.zeros_like(states)
        for j in range(1, n + 1):
            conv[:, j] = np.einsum(
                "kab,pkb->pa", self.phi[j::-1], controls[:, : j + 1]
            )
            conv[:, j] -= 0.5 * controls[:, 0] @ self.phi[j].T
            conv[:, j] -= 0.5 * controls[:, j] @ self.phi[0].T
        return states + dt * conv


def energy_distance(a, b):
    """V-statistic energy distance 2E|A-B| - E|A-A'| - E|B-B'|."""
    return 2.0 * cdist(a, b).mean() - cdist(a, a).mean() - cdist(b, b).mean()


def _theta_average_expm(t, nodes=200):
    """M(t) by Gauss-Legendre quadrature of the explicit rotation."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    thetas, weights = (x + 1.0) / 2.0, w / 2.0
    c, s = np.cos(thetas * t), np.sin(thetas * t)
    rot = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    return np.einsum("i,iab->ab", weights, rot)


def self_test():
    """Check M(1) and the alternating series for diag G(1); return the errors."""
    m_err = float(np.abs(m_closed([1.0])[0] - _theta_average_expm(1.0)).max())
    oracle = Ou2dOracle(1000)
    series = sum(
        (-1) ** (k + 1) * 2.0 / (math.factorial(2 * k) * (2 * k - 1))
        for k in range(1, 12)
    )
    g = oracle.g_fwd[oracle.n]
    g_err = float(np.abs(np.diag(g) - series).max())
    off = float(np.abs(g[0, 1]) + np.abs(g[1, 0]))
    if m_err > 1e-13 or g_err > 1e-5 or off > 1e-12:
        raise AssertionError(
            f"oracle self-test failed: M(1) err {m_err:.1e}, "
            f"diag G err {g_err:.1e}, off-diagonal {off:.1e}"
        )
    return m_err, g_err


if __name__ == "__main__":
    m_err, g_err = self_test()
    print(f"oracle self-test ok: M(1) err {m_err:.1e}, diag G(1) err {g_err:.1e}")
