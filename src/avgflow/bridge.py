"""Minimum-energy endpoint steering for the averaged ensemble.

Deterministic side: the open-loop control

    u(t) = Phi(t_f, t)^T G_{t_f,0}^{-1} (x_f - M(t_f) x_0)

drives the averaged state exactly from x_0 to x_f, with trajectory
x(t) = M(t) x_0 + S(t) G_{t_f,0}^{-1} (x_f - M(t_f) x_0).

Stochastic side: with driving noise of strength sqrt(eps), the pinned
(bridge) construction adds a running correction

    D(t) = int_0^t G_{t_f,tau}^{-1} Phi(t_f, tau) dW(tau),

and the control u(t) = -sqrt(eps) Phi(t_f,t)^T D(t) + K(t)(x_f - M(t_f)x_0)
keeps the endpoint pinned for almost every noise realization.  The resulting
state is a Gaussian process with memory: its noise part never factors into a
Markov recursion, so each evaluation re-convolves the history.

Discretization conventions, chosen so that discrete identities mirror the
continuous ones:

* stochastic integrals (D and the pure-noise term) are left-point Ito sums;
* the time integral of the memory term uses right-endpoint evaluation, which
  makes the discrete bridge agree exactly with the discretized closed-form
  solution (and pin exactly for constant families);
* Brownian increments come from one counter-based stream per path index, so
  ensembles are reproducible and order-independent.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from .errors import NearTerminalSingularityError
from .kernel import causal_convolve


@dataclass
class EndpointPair:
    """A steering task: start x0, terminal target xf."""

    x0: np.ndarray
    xf: np.ndarray

    def __post_init__(self):
        self.x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        self.xf = np.atleast_1d(np.asarray(self.xf, dtype=float))
        if self.x0.shape != self.xf.shape or self.x0.ndim != 1:
            raise ValueError("x0 and xf must be vectors of equal dimension")
        if not (np.all(np.isfinite(self.x0)) and np.all(np.isfinite(self.xf))):
            raise ValueError("endpoints must be finite")


@dataclass
class BrownianPath:
    """Increments dW on a grid, drawn from a per-path counter-based stream."""

    increments: np.ndarray  # (n_steps, m)
    seed: int
    path_id: int = 0


@dataclass
class BridgePath:
    """States and controls of one steering trajectory on the grid.

    ``states`` has n_steps + 1 rows.  ``controls`` too, but for eps > 0 the
    final row is NaN: the Volterra control needs the inverse of a zero-width
    Gramian at t_f and is only evaluated at indices 0 .. n_steps - 1.
    """

    states: np.ndarray
    controls: np.ndarray
    epsilon: float
    pair: EndpointPair
    path: BrownianPath = None


@dataclass
class VolterraState:
    """Running correction D(t_j) plus the histories the memory term needs.

    ``d_hist[k]`` is D(t_k) for k = 0 .. t_index; ``dw_hist[k]`` the consumed
    increment at step k < t_index.
    """

    d_hist: np.ndarray
    dw_hist: np.ndarray
    t_index: int = 0

    @property
    def d_current(self):
        return self.d_hist[self.t_index]


def sample_brownian_path(grid, dim_control, seed, path_id=0):
    """Draw one path's increments from a Philox counter-based stream.

    Stream identity is the (seed, path_id) key, so any subset of paths can be
    generated in any order, serially or in parallel, with identical results.
    """
    rng = np.random.Generator(
        np.random.Philox(key=np.array([seed, path_id], dtype=np.uint64))
    )
    dw = rng.standard_normal((grid.n_steps, dim_control)) * np.sqrt(grid.dt)
    return BrownianPath(increments=dw, seed=seed, path_id=path_id)


def sample_increments(grid, m, seed, paths):
    """(paths, n_steps, m) increments, path p from its own (seed, p) stream."""
    dw = np.empty((paths, grid.n_steps, m))
    for p in range(paths):
        dw[p] = sample_brownian_path(grid, m, seed, p).increments
    return dw


def init_volterra_state(table):
    n = table.n_steps
    return VolterraState(
        d_hist=np.zeros((n + 1, table.dim_state)),
        dw_hist=np.zeros((n, table.dim_control)),
        t_index=0,
    )


def advance_volterra(state, table, t_index, dw):
    """Consume the increment at grid step t_index and update D.

    D(t_{k+1}) = D(t_k) + G_{t_f, t_k}^{-1} Phi(t_f, t_k) dW_k.
    """
    n = table.n_steps
    if t_index != state.t_index:
        raise ValueError(
            f"out-of-order advance: state at {state.t_index}, got {t_index}"
        )
    if t_index >= n:
        raise NearTerminalSingularityError(
            "cannot advance the Volterra correction past the final grid index"
        )
    dw = np.asarray(dw, dtype=float)
    rhs = table.phi_lag[n - t_index] @ dw
    incr = cho_solve((table._chol_bwd[t_index], True), rhs)
    state.d_hist[t_index + 1] = state.d_hist[t_index] + incr
    state.dw_hist[t_index] = dw
    state.t_index = t_index + 1
    return state


def deterministic_control(table, pair, t_index):
    """Minimum-energy open-loop control K(t_j) (xf - M(t_f) x0)."""
    n = table.n_steps
    if not 0 <= t_index <= n:
        raise ValueError(f"t_index out of range [0, {n}]")
    residual = pair.xf - table.m_avg[n] @ pair.x0
    return table.k_gain[t_index] @ residual


def deterministic_trajectory(table, pair):
    """Noise-free steering path; exact pinning at t_f up to rounding."""
    n = table.n_steps
    residual = pair.xf - table.m_avg[n] @ pair.x0
    steer = cho_solve(table._chol_full, residual)
    states = table.m_avg @ pair.x0 + table.s_cross @ steer
    controls = table.k_gain @ residual
    return BridgePath(
        states=states, controls=controls, epsilon=0.0, pair=pair, path=None
    )


def volterra_control(table, pair, state, t_index, epsilon):
    """Noisy bridge control at one grid index.

    u(t_j) = -sqrt(eps) Phi(t_f, t_j)^T D(t_j) + K(t_j)(xf - M(t_f) x0).
    Only defined for t_index < n_steps when eps > 0.
    """
    n = table.n_steps
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    if epsilon == 0:
        return deterministic_control(table, pair, t_index)
    if t_index >= n:
        raise NearTerminalSingularityError(
            "Volterra control is undefined at the final grid index"
        )
    if state.t_index < t_index:
        raise ValueError(
            f"Volterra state only advanced to {state.t_index}, need {t_index}"
        )
    residual = pair.xf - table.m_avg[n] @ pair.x0
    correction = table.phi_lag[n - t_index].T @ state.d_hist[t_index]
    return -np.sqrt(epsilon) * correction + table.k_gain[t_index] @ residual


def volterra_noise_terms(table, increments):
    """Noise functionals of one or many increment arrays.

    :param increments: (n, m) or (paths, n, m) Brownian increments.
    :returns: dict with

        * ``d_hist``: D(t_j), shape (..., n+1, d)
        * ``noise``: int_0^{t_j} Phi(t_j, tau) dW(tau), left-point Ito sum,
          shape (..., n+1, d); multiplied by sqrt(eps) this is the "pure
          noise" part of the bridge and the noise feature fed to sequence
          models;
        * ``memory``: int_0^{t_j} Phi(t_j,tau) Phi(t_f,tau)^T D(tau) dtau,
          right-endpoint sum, shape (..., n+1, d); the bridge's memory term
          is -sqrt(eps) * memory.
    """
    n = table.n_steps
    dt = table.grid.dt
    dw = np.asarray(increments, dtype=float)
    squeeze = dw.ndim == 2
    if squeeze:
        dw = dw[None]
    if dw.shape[-2:] != (n, table.dim_control):
        raise ValueError(
            f"increments must have shape (..., {n}, {table.dim_control})"
        )
    phi = table.phi_lag
    phi_rev = phi[::-1]

    # D(t_{k+1}) = D(t_k) + G_bwd[k]^{-1} Phi(t_f,t_k) dW_k, vectorized:
    # q[k] = G_bwd[k]^{-1} Phi(t_f, t_k) is path-independent.
    q = np.empty((n, table.dim_state, table.dim_control))
    for k in range(n):
        q[k] = cho_solve((table._chol_bwd[k], True), phi_rev[k])
    steps = np.einsum("kab,pkb->pka", q, dw)
    d_hist = np.concatenate(
        [np.zeros((dw.shape[0], 1, table.dim_state)), np.cumsum(steps, axis=1)],
        axis=1,
    )

    # Pure-noise term: left-point sum over l < j of Phi(t_j - t_l) dW_l.
    dw_pad = np.concatenate(
        [dw, np.zeros((dw.shape[0], 1, table.dim_control))], axis=1
    )
    noise = causal_convolve(phi, dw_pad)
    noise -= np.einsum("ab,pjb->pja", phi[0], dw_pad)

    # Memory term: sum over k <= j of Phi(t_j - t_k) Phi(t_f - t_k)^T D(t_k) dt.
    # The k = 0 term vanishes because D(0) = 0, so the full causal convolution
    # realizes the right-endpoint rule.
    v = np.einsum("kab,pka->pkb", phi_rev, d_hist)
    memory = dt * causal_convolve(phi, v)

    if squeeze:
        return {"d_hist": d_hist[0], "noise": noise[0], "memory": memory[0]}
    return {"d_hist": d_hist, "noise": noise, "memory": memory}


def volterra_trajectory(table, pair, path, epsilon):
    """Full pinned trajectory for one noise realization.

    The state is assembled from the closed form

        x(t) = M(t) x0 + S(t) G^{-1} (xf - M(t_f) x0)
               - sqrt(eps) * memory(t) + sqrt(eps) * noise(t),

    recomputing convolutions over the whole history (no Markov shortcut).
    With eps = 0 this reduces exactly to :func:`deterministic_trajectory`.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    if epsilon == 0:
        return deterministic_trajectory(table, pair)
    n = table.n_steps
    terms = volterra_noise_terms(table, path.increments)
    residual = pair.xf - table.m_avg[n] @ pair.x0
    steer = cho_solve(table._chol_full, residual)
    root = np.sqrt(epsilon)
    states = (
        table.m_avg @ pair.x0
        + table.s_cross @ steer
        + root * (terms["noise"] - terms["memory"])
    )
    controls = np.einsum("jab,b->ja", table.k_gain, residual)
    controls -= root * np.einsum("jab,ja->jb", table.phi_lag[::-1], terms["d_hist"])
    controls[n] = np.nan
    return BridgePath(
        states=states, controls=controls, epsilon=epsilon, pair=pair, path=path
    )


@dataclass
class BridgeEnsemble:
    """Stacked bridge paths sharing a kernel table and noise seed."""

    states: np.ndarray      # (paths, n+1, d)
    controls: np.ndarray    # (paths, n+1, m), last row NaN when eps > 0
    increments: np.ndarray  # (paths, n, m)
    noise: np.ndarray       # (paths, n+1, d) pure-noise term incl. sqrt(eps)
    memory: np.ndarray      # (paths, n+1, d) memory term incl. -sqrt(eps)
    x0s: np.ndarray         # (paths, d)
    xfs: np.ndarray         # (paths, d)
    epsilon: float
    seed: int

    @property
    def terminal(self):
        return self.states[:, -1]


def _bridge_chunk(table, x0s, xfs, dw, epsilon):
    n = table.n_steps
    root = np.sqrt(epsilon)
    terms = volterra_noise_terms(table, dw)
    residual = xfs - x0s @ table.m_avg[n].T
    steer = cho_solve(table._chol_full, residual.T).T
    states = (
        np.einsum("jab,pb->pja", table.m_avg, x0s)
        + np.einsum("jab,pb->pja", table.s_cross, steer)
        + root * (terms["noise"] - terms["memory"])
    )
    controls = np.einsum("jab,pb->pja", table.k_gain, residual)
    controls -= root * np.einsum("jab,pja->pjb", table.phi_lag[::-1], terms["d_hist"])
    if epsilon > 0:
        controls[:, n] = np.nan
    return states, controls, root * terms["noise"], -root * terms["memory"]


def bridge_ensemble(table, x0s, xfs, epsilon, seed, threads=1):
    """Simulate pinned paths for every (x0, xf) pair.

    Path p uses the counter-based stream keyed by (seed, p); results are
    bitwise independent of chunking or thread count.

    :param threads: worker threads; path chunks are processed concurrently
        (numpy releases the GIL inside the heavy kernels).
    """
    x0s = np.atleast_2d(np.asarray(x0s, dtype=float))
    xfs = np.atleast_2d(np.asarray(xfs, dtype=float))
    if x0s.shape != xfs.shape:
        raise ValueError("x0s and xfs must have matching shapes")
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    paths = x0s.shape[0]
    dw = sample_increments(table.grid, table.dim_control, seed, paths)

    def run(sl):
        return _bridge_chunk(table, x0s[sl], xfs[sl], dw[sl], epsilon)

    slices = _path_slices(paths, threads)
    results = _run_chunks(run, slices, threads)
    states = np.concatenate([r[0] for r in results])
    controls = np.concatenate([r[1] for r in results])
    noise = np.concatenate([r[2] for r in results])
    memory = np.concatenate([r[3] for r in results])
    return BridgeEnsemble(
        states=states,
        controls=controls,
        increments=dw,
        noise=noise,
        memory=memory,
        x0s=x0s,
        xfs=xfs,
        epsilon=epsilon,
        seed=seed,
    )


def _path_slices(paths, threads):
    chunks = max(1, min(int(threads), paths))
    bounds = np.linspace(0, paths, chunks + 1).astype(int)
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def _run_chunks(fn, slices, threads):
    if threads <= 1 or len(slices) == 1:
        return [fn(sl) for sl in slices]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, slices))


def export_trajectory_csv(path, grid, states=None, controls=None):
    """Write trajectories as CSV rows path_id, t, x1..xd, u1..um.

    Either block may be omitted; the columns of a missing block are left out.
    A 2-D block is one path.  The bytes are fixed: every value is written as
    ``f"{v:.17g}"`` (so ``-0``, ``inf`` and ``nan`` appear as such), rows
    are path-major with paths in id order 0, 1, ... and one row per grid
    index in grid order.  Each grid index has a %-template with its time
    column baked in, so a row costs one formatting call.  Rows, not whole
    paths, are formatted at a time: path-sized strings left the heap about
    1 MB larger on the benchmark's flow workloads.
    """
    cols, blocks = ["path_id", "t"], []
    for prefix, arr in (("x", states), ("u", controls)):
        if arr is not None:
            arr = np.asarray(arr)
            arr = arr[None] if arr.ndim == 2 else arr
            cols += [f"{prefix}{i + 1}" for i in range(arr.shape[2])]
            blocks.append(arr)
    values = np.concatenate(blocks, axis=2)
    cells = ",%.17g" * values.shape[2]
    lines = [f"%s,{t:.17g}{cells}\n" for t in grid.times[: values.shape[1]]]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for p in range(values.shape[0]):
            for line, row in zip(lines, values[p].tolist()):
                fh.write(line % (p, *row))
