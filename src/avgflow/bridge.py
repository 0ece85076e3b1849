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
* Brownian increments come from one sampler, :func:`sample_increments`,
  which draws path p from its own counter-based stream keyed by (seed, p),
  so ensembles are reproducible and independent of order and chunking.

Every function works on whole ensembles.  :func:`bridge_ensemble` pins many
(x0, xf) pairs at once, and at eps = 0 its paths are the deterministic
steering paths, with no noise terms formed.  :func:`bridge_controls` is the
one assembly of the steering law: the bridge, the exact deterministic and the
volterra-exact rollout controllers all take their controls from it.
:class:`PathEnsemble` is the one record of paths on a grid: the bridges here
and the rollouts of :mod:`avgflow.sim` return it.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

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


def sample_increments(grid, m, seed, paths):
    """(paths, n_steps, m) Brownian increments, path p from its own stream.

    Stream identity is the Philox key (seed, p), so any subset of paths can be
    generated in any order, serially or in parallel, with identical results.
    """
    dw = np.empty((paths, grid.n_steps, m))
    for p in range(paths):
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed, p], dtype=np.uint64))
        )
        dw[p] = rng.standard_normal((grid.n_steps, m)) * np.sqrt(grid.dt)
    return dw


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


@dataclass
class PathEnsemble:
    """Paths on one grid, from a bridge ensemble or a rollout.

    ``controls`` row n is NaN under noise, where the bridge-style control is
    undefined; deterministic paths fill it.  ``noise`` is a bridge's pure-noise
    term sqrt(eps) int_0^t Phi(t, tau) dW(tau), the feature of the recurrent
    trainer; rollouts leave it None.
    """

    states: np.ndarray          # (paths, n+1, d)
    controls: np.ndarray        # (paths, n+1, m)
    noise: np.ndarray = None    # (paths, n+1, d)

    @property
    def terminal(self):
        return self.states[:, -1]


def steering_residual(table, x0s, xfs):
    """(paths, d) residuals xf - M(t_f) x0 that the steering gain acts on."""
    return xfs - x0s @ table.m_avg[table.n_steps].T


def bridge_controls(table, residual, d_hist=None, epsilon=0.0):
    """Bridge controls of every path at every grid index,

        u(t_j) = K(t_j) (xf - M(t_f) x0) - sqrt(eps) Phi(t_f, t_j)^T D(t_j).

    At eps = 0 this is the exact deterministic steering law, and the
    correction is not formed (``d_hist`` may be None).

    :param residual: (paths, d) steering residuals xf - M(t_f) x0.
    :param d_hist: (paths, n+1, d) running corrections D(t_j).
    :returns: (paths, n+1, m).  Row n is finite here; with eps > 0 the bridge
        control is undefined there, and callers drop or blank it.
    """
    controls = np.einsum("jab,pb->pja", table.k_gain, residual)
    if epsilon > 0:
        controls -= np.sqrt(epsilon) * np.einsum(
            "jab,pja->pjb", table.phi_lag[::-1], d_hist
        )
    return controls


def _bridge_chunk(table, x0s, xfs, dw, epsilon):
    n = table.n_steps
    # The noise terms come first, so that their peak memory is not stacked on
    # the states.  At eps = 0 they vanish and are not formed.
    terms = volterra_noise_terms(table, dw) if epsilon > 0 else None
    residual = steering_residual(table, x0s, xfs)
    steer = cho_solve(table._chol_full, residual.T).T
    states = np.einsum("jab,pb->pja", table.m_avg, x0s) + np.einsum(
        "jab,pb->pja", table.s_cross, steer
    )
    if terms is None:
        return states, bridge_controls(table, residual), np.zeros_like(states)
    root = np.sqrt(epsilon)
    noise = terms["noise"]
    states += root * (noise - terms["memory"])
    noise *= root
    controls = bridge_controls(table, residual, terms["d_hist"], epsilon)
    controls[:, n] = np.nan
    return states, controls, noise


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
    states, controls, noise = (np.concatenate(block) for block in zip(*results))
    return PathEnsemble(states, controls, noise)


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
