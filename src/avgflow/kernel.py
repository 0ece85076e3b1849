"""Averaged transition kernels for parameterized linear ensembles.

An ensemble of linear systems

    dx/dt = A(theta) x + B(theta) u,      theta in [0, 1],

averaged over theta, is no longer Markovian: the averaged state obeys a
Volterra convolution equation rather than a semigroup.  Everything downstream
(bridges, posterior steering, flow matching) is built from three averaged
objects on a uniform time grid:

* the averaged transition  M(t)  = int_0^1 exp(A(theta) t) dtheta,
* the input kernel         Phi(t, tau) = int_0^1 exp(A(theta)(t - tau)) B(theta) dtheta,
* controllability Gramians G_{t,s} = int_s^t Phi(t, tau) Phi(t, tau)^T dtau.

Because A(theta) is constant in time, Phi(t, tau) depends on its arguments
only through the lag t - tau, so on a uniform grid the whole kernel is a
one-dimensional table indexed by lag.  It still is not a semigroup: no
factorization Phi(t, s) Phi(s, tau) = Phi(t, tau) holds, and Gramians must be
accumulated by quadrature.

The theta integral uses Gauss-Legendre nodes; time integrals use composite
trapezoid sums on the grid.
"""

from dataclasses import dataclass, field
import json

import numpy as np
from scipy.linalg import cho_solve, expm

from .errors import ConfigError, NotAveragedControllableError

# Condition-number limit beyond which the averaged ensemble is declared not
# controllable over the horizon.
COND_LIMIT = 1e12

# Relative jitter added to a Gramian whose Cholesky factorization fails.
JITTER_SCALE = 1e-10


@dataclass
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_n = t_f."""

    t_f: float = 1.0
    n_steps: int = 1000

    def __post_init__(self):
        if not (np.isfinite(self.t_f) and self.t_f > 0):
            raise ValueError(f"t_f must be positive and finite, got {self.t_f}")
        if int(self.n_steps) != self.n_steps or self.n_steps < 2:
            raise ValueError(f"n_steps must be an integer >= 2, got {self.n_steps}")
        self.n_steps = int(self.n_steps)

    @property
    def dt(self):
        return self.t_f / self.n_steps

    @property
    def times(self):
        return np.linspace(0.0, self.t_f, self.n_steps + 1)


@dataclass
class ThetaEnsemble:
    """Quadrature discretization of a theta-parameterized system family.

    ``a_nodes[i]``, ``b_nodes[i]`` are A(theta_i), B(theta_i) at quadrature
    node theta_i with weight ``weights[i]``; the weights sum to one so that
    weighted sums approximate integrals over theta in [0, 1].
    """

    thetas: np.ndarray
    weights: np.ndarray
    a_nodes: np.ndarray
    b_nodes: np.ndarray
    family: str = "user"

    def __post_init__(self):
        self.thetas = np.asarray(self.thetas, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        self.a_nodes = np.asarray(self.a_nodes, dtype=float)
        self.b_nodes = np.asarray(self.b_nodes, dtype=float)
        n = self.thetas.shape[0]
        if self.weights.shape != (n,):
            raise ValueError("weights and thetas must have matching length")
        if self.a_nodes.shape[:1] != (n,) or self.b_nodes.shape[:1] != (n,):
            raise ValueError("node matrices must be stacked along axis 0")
        d = self.a_nodes.shape[1]
        if self.a_nodes.shape[1:] != (d, d):
            raise ValueError("A nodes must be square")
        if self.b_nodes.shape[1] != d:
            raise ValueError("B nodes must have the same state dimension as A")
        for name, arr in (("A", self.a_nodes), ("B", self.b_nodes),
                          ("weights", self.weights), ("thetas", self.thetas)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite entries in {name} nodes")
        if abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("quadrature weights must sum to 1")

    @property
    def dim_state(self):
        return self.a_nodes.shape[1]

    @property
    def dim_control(self):
        return self.b_nodes.shape[2]

    @property
    def n_theta(self):
        return self.thetas.shape[0]

    @property
    def b_average(self):
        """int_0^1 B(theta) dtheta, the zero-lag kernel value."""
        return np.einsum("i,iab->ab", self.weights, self.b_nodes)


def _gauss_legendre_01(n):
    """Gauss-Legendre nodes and weights mapped from [-1, 1] to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def build_theta_ensemble(family, n_theta=64, a=None, b=None):
    """Discretize a named system family on Gauss-Legendre theta nodes.

    Families:

    * ``"ou2d"``: planar rotation A(theta) = [[0, -theta], [theta, 0]] with
      identity input matrix.
    * ``"antidamped2d"``: A(theta) = [[sin theta, cos theta],
      [-cos theta, sin theta]], B(theta) = [[0, -theta], [theta, 0]].
    * ``"constant"``: theta-independent matrices ``a`` and ``b`` (the averaged
      dynamics then collapse back to an ordinary linear system, which is used
      as a reduction oracle in the tests).

    :param n_theta: number of quadrature nodes.
    :returns: ThetaEnsemble.
    """
    if int(n_theta) != n_theta or n_theta < 2:
        raise ValueError(f"n_theta must be an integer >= 2, got {n_theta}")
    n_theta = int(n_theta)
    thetas, weights = _gauss_legendre_01(n_theta)

    if family == "ou2d":
        a_nodes = np.array([[[0.0, -th], [th, 0.0]] for th in thetas])
        b_nodes = np.broadcast_to(np.eye(2), (n_theta, 2, 2)).copy()
    elif family == "antidamped2d":
        a_nodes = np.array(
            [[[np.sin(th), np.cos(th)], [-np.cos(th), np.sin(th)]] for th in thetas]
        )
        b_nodes = np.array([[[0.0, -th], [th, 0.0]] for th in thetas])
    elif family == "constant":
        if a is None or b is None:
            raise ValueError("constant family requires explicit a and b matrices")
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("a must be square")
        if b.ndim != 2 or b.shape[0] != a.shape[0]:
            raise ValueError("b must have the same number of rows as a")
        a_nodes = np.broadcast_to(a, (n_theta,) + a.shape).copy()
        b_nodes = np.broadcast_to(b, (n_theta,) + b.shape).copy()
    else:
        raise ValueError(f"unknown system family {family!r}")
    return ThetaEnsemble(thetas, weights, a_nodes, b_nodes, family=family)


def load_theta_table(path):
    """Read a user-defined family from a JSON node table.

    The file holds a list of theta nodes, each with row-major A and B
    matrices::

        {"nodes": [{"theta": 0.0, "A": [[...]], "B": [[...]]}, ...],
         "weights": [...]}          # optional

    When no explicit weights are given, composite trapezoid weights over the
    (sorted) theta nodes are used and normalized to sum to one.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read theta table {path!r}: {exc}") from exc
    nodes = doc.get("nodes")
    if not isinstance(nodes, list) or len(nodes) < 2:
        raise ConfigError("theta table needs a 'nodes' list with >= 2 entries")
    try:
        thetas = np.array([float(nd["theta"]) for nd in nodes])
        a_nodes = np.array([nd["A"] for nd in nodes], dtype=float)
        b_nodes = np.array([nd["B"] for nd in nodes], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed theta table entry: {exc}") from exc
    order = np.argsort(thetas)
    thetas, a_nodes, b_nodes = thetas[order], a_nodes[order], b_nodes[order]
    if "weights" in doc:
        weights = np.asarray(doc["weights"], dtype=float)[order]
    else:
        # Composite trapezoid on the provided nodes.
        weights = np.zeros_like(thetas)
        gaps = np.diff(thetas)
        if np.any(gaps <= 0):
            raise ConfigError("theta nodes must be distinct")
        weights[:-1] += gaps / 2.0
        weights[1:] += gaps / 2.0
        weights /= weights.sum()
    try:
        return ThetaEnsemble(thetas, weights, a_nodes, b_nodes, family="table")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass
class KernelTable:
    """Precomputed averaged kernel quantities on a uniform grid.

    Because the lag structure makes Phi one-dimensional in time, ``phi_lag[l]``
    stores Phi(t_j, t_k) for every pair with j - k = l.  All Gramian-derived
    arrays are indexed by grid index j:

    * ``m_avg[j]``   M(t_j), averaged transition, (d, d)
    * ``g_fwd[j]``   G_{t_j, 0}, forward Gramian, (d, d)
    * ``g_bwd[j]``   G_{t_f, t_j}, backward Gramian, (d, d)
    * ``s_cross[j]`` S(t_j) = int_0^{t_j} Phi(t_j,tau) Phi(t_f,tau)^T dtau
    * ``y_coef[j]``  Y(t_j) = M(t_j) - S(t_j) G_{t_f,0}^{-1} M(t_f)
    * ``z_coef[j]``  Z(t_j) = S(t_j) G_{t_f,0}^{-1}
    * ``k_gain[j]``  K(t_j) = Phi(t_f, t_j)^T G_{t_f,0}^{-1}, (m, d)

    The table is immutable after construction and safe to share across
    threads; Cholesky factors of the backward Gramians are precomputed.
    """

    grid: TimeGrid
    ensemble: ThetaEnsemble
    phi_lag: np.ndarray
    m_avg: np.ndarray
    g_fwd: np.ndarray
    g_bwd: np.ndarray
    s_cross: np.ndarray
    y_coef: np.ndarray
    z_coef: np.ndarray
    k_gain: np.ndarray
    cond_full: float
    jitter_events: list = field(default_factory=list)
    _chol_bwd: np.ndarray = None
    _chol_full: tuple = None

    @property
    def dim_state(self):
        return self.ensemble.dim_state

    @property
    def dim_control(self):
        return self.ensemble.dim_control

    @property
    def n_steps(self):
        return self.grid.n_steps


def _chol_psd(mat, events, tag):
    """Lower Cholesky factor with recorded jitter fallback."""
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        lam = JITTER_SCALE * max(np.trace(mat) / mat.shape[0], 1e-2 * JITTER_SCALE)
        try:
            factor = np.linalg.cholesky(mat + lam * np.eye(mat.shape[0]))
        except np.linalg.LinAlgError:
            raise NotAveragedControllableError(
                f"Gramian {tag} is not positive definite even after jitter "
                f"{lam:.3e}",
                smallest_eigenvalue=float(np.linalg.eigvalsh(mat)[0]),
            ) from None
        events.append({"matrix": tag, "jitter": float(lam)})
        return factor


def build_kernel_table(ensemble, grid):
    """Assemble the full kernel table for one ensemble and grid.

    Transition factors per node are accumulated as repeated products of
    exp(A(theta_i) dt), which keeps every grid time at matrix-exponential
    accuracy without n_steps separate Pade evaluations. Time integrals use
    composite trapezoid weights throughout, so discrete identities such as
    S(t_f) = G_{t_f, 0} hold to rounding.

    :raises NotAveragedControllableError: when the full-horizon Gramian has
        condition number above ``COND_LIMIT``.
    """
    if not isinstance(ensemble, ThetaEnsemble):
        raise ValueError("ensemble must be a ThetaEnsemble")
    if not isinstance(grid, TimeGrid):
        raise ValueError("grid must be a TimeGrid")
    n = grid.n_steps
    dt = grid.dt
    d, m = ensemble.dim_state, ensemble.dim_control
    w = ensemble.weights

    # exp(A(theta_i) t_j) for all nodes and grid times.
    step = np.stack([expm(a * dt) for a in ensemble.a_nodes])
    trans = np.empty((n + 1, ensemble.n_theta, d, d))
    trans[0] = np.eye(d)
    for j in range(1, n + 1):
        trans[j] = trans[j - 1] @ step
    m_avg = np.einsum("i,jiab->jab", w, trans)
    phi_lag = np.einsum("i,jiab,ibc->jac", w, trans, ensemble.b_nodes)

    # Forward Gramian by cumulative trapezoid of H(s) = Phi(s) Phi(s)^T.
    integrand = np.einsum("jab,jcb->jac", phi_lag, phi_lag)
    csum = np.cumsum(integrand, axis=0)
    g_fwd = dt * (csum - 0.5 * integrand - 0.5 * integrand[0])
    g_fwd[0] = 0.0
    g_bwd = g_fwd[::-1].copy()

    # Cross Gramian S(t_j) = int_0^{t_j} Phi(s) Phi(t_f - t_j + s)^T ds.
    s_cross = np.zeros((n + 1, d, d))
    for j in range(1, n + 1):
        tw = np.full(j + 1, dt)
        tw[0] = tw[-1] = dt / 2.0
        s_cross[j] = np.einsum(
            "k,kab,kcb->ac", tw, phi_lag[: j + 1], phi_lag[n - j :]
        )

    g_full = g_fwd[n]
    eigs = np.linalg.eigvalsh(g_full)
    cond = float(eigs[-1] / eigs[0]) if eigs[0] > 0 else np.inf
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise NotAveragedControllableError(
            f"averaged Gramian over [0, {grid.t_f}] has condition {cond:.3e} "
            f"(limit {COND_LIMIT:.0e}); the ensemble is not averaged-controllable",
            smallest_eigenvalue=float(eigs[0]),
        )

    events = []
    chol_full = _chol_psd(g_full, events, "G(t_f,0)")
    ginv_mn = cho_solve((chol_full, True), m_avg[n])
    y_coef = m_avg - s_cross @ ginv_mn
    flat = s_cross.transpose(0, 2, 1).reshape(-1, d).T
    z_coef = cho_solve((chol_full, True), flat).T.reshape(n + 1, d, d).transpose(0, 2, 1)
    phi_rev = phi_lag[::-1]
    sol = cho_solve((chol_full, True), phi_rev.transpose(1, 0, 2).reshape(d, -1))
    k_gain = sol.reshape(d, n + 1, m).transpose(1, 2, 0)

    # Backward Gramian factors for indices 0 .. n-1 (index n is singular).
    try:
        chol_bwd = np.linalg.cholesky(g_bwd[:n])
    except np.linalg.LinAlgError:
        chol_bwd = np.empty((n, d, d))
        for j in range(n):
            chol_bwd[j] = _chol_psd(g_bwd[j], events, f"G(t_f,t_{j})")

    return KernelTable(
        grid=grid,
        ensemble=ensemble,
        phi_lag=phi_lag,
        m_avg=m_avg,
        g_fwd=g_fwd,
        g_bwd=g_bwd,
        s_cross=s_cross,
        y_coef=y_coef,
        z_coef=z_coef,
        k_gain=k_gain,
        cond_full=cond,
        jitter_events=events,
        _chol_bwd=chol_bwd,
        _chol_full=(chol_full, True),
    )


def causal_convolve(kernel, seq):
    """Discrete causal convolution sum_{k<=j} kernel[j-k] @ seq[..., k, :].

    :param kernel: (n+1, d, m) lag-indexed kernel table.
    :param seq: (..., n+1, m) sequences.
    :returns: (..., n+1, d) convolved sequences.

    FFT-based; both inputs are zero-padded to a common power-of-two length so
    the circular convolution is exact up to rounding.
    """
    n1 = kernel.shape[0]
    if seq.shape[-2] != n1:
        raise ValueError("kernel and sequence grid lengths differ")
    size = 1
    while size < 2 * n1 - 1:
        size *= 2
    fk = np.fft.rfft(kernel, size, axis=0)
    fs = np.fft.rfft(seq, size, axis=-2)
    prod = np.einsum("lab,...lb->...la", fk, fs)
    out = np.fft.irfft(prod, size, axis=-2)[..., :n1, :]
    return out


def export_kernel_csv(table, outdir):
    """Write the kernel table as a CSV bundle, one file per array.

    Every file has columns ``j,k,row,col,value`` where (j, k) are the two
    time indices of the entry.  Phi rows are written at (lag, 0); by the lag
    structure Phi(t_j, t_k) equals the row at (j - k, 0).  A ``summary.json``
    records grid, family, indexing conventions and the controllability
    verdict.
    """
    import os

    os.makedirs(outdir, exist_ok=True)
    n = table.n_steps

    def write(name, arr, jk):
        path = os.path.join(outdir, f"{name}.csv")
        with open(path, "w") as fh:
            fh.write("j,k,row,col,value\n")
            for idx in range(arr.shape[0]):
                j, k = jk(idx)
                mat = arr[idx]
                for r in range(mat.shape[0]):
                    for c in range(mat.shape[1]):
                        fh.write(f"{j},{k},{r},{c},{mat[r, c]:.17g}\n")

    write("Phi", table.phi_lag, lambda i: (i, 0))
    write("M", table.m_avg, lambda i: (i, 0))
    write("G_fwd", table.g_fwd, lambda i: (i, 0))
    write("G_bwd", table.g_bwd, lambda i: (n, i))
    write("S", table.s_cross, lambda i: (i, 0))
    write("Y", table.y_coef, lambda i: (i, 0))
    write("Z", table.z_coef, lambda i: (i, 0))
    write("K", table.k_gain, lambda i: (i, 0))

    summary = {
        "family": table.ensemble.family,
        "n_theta": int(table.ensemble.n_theta),
        "dim_state": int(table.dim_state),
        "dim_control": int(table.dim_control),
        "t_f": table.grid.t_f,
        "n_steps": n,
        "condition_number": table.cond_full,
        "averaged_controllable": True,
        "gramian_full_diagonal": np.diag(table.g_fwd[n]).tolist(),
        "jitter_events": table.jitter_events,
        "indexing": {
            "Phi": "row (l, 0) holds Phi(t_j, t_k) for every pair with j - k = l",
            "M": "(j, 0) -> M(t_j)",
            "G_fwd": "(j, 0) -> G_{t_j, 0}",
            "G_bwd": "(n_steps, k) -> G_{t_f, t_k}",
            "S": "(j, 0) -> S(t_j)",
            "Y": "(j, 0) -> Y(t_j)",
            "Z": "(j, 0) -> Z(t_j)",
            "K": "(j, 0) -> K(t_j)",
        },
    }
    with open(os.path.join(outdir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
