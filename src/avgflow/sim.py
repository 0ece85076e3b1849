"""Closed-loop rollouts and two-sample evaluation.

The averaged process has no Markov generator, so every rollout recomputes the
state from stored histories (convolution form):

    x(t_j) = M(t_j) x0 + sum_{k<j} Phi(t_j, t_k) (u_k dt + sqrt(eps) dW_k)

for the stochastic scheme (left-point), and the trapezoid-weighted control
convolution for the noise-free scheme.  Controllers fall into three kinds:

* open loop in (x0, t): exact deterministic steering, the feedforward and
  gain models; usable in both rollout drivers;
* noise feedback: precomputable from the per-path noise histories (exact
  Volterra bridge control, the recurrent model);
* state feedback: the posterior-steered control, which needs the realized
  state at each index and therefore runs sequentially.

Both drivers return :class:`avgflow.bridge.PathEnsemble`, the record that
bridge ensembles use too, so either kind of path feeds the same metrics.

Metrics: energy distance (the primary two-sample statistic, V-form so that
identical clouds give exactly zero), a seeded sliced 2-Wasserstein estimate,
and checkpoint mean/covariance gaps at quarter points of the horizon.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .bridge import (
    PathEnsemble,
    _path_slices,
    _run_chunks,
    bridge_controls,
    sample_increments,
    steering_residual,
    volterra_noise_terms,
)
from .distributions import PosteriorContext, posterior_mean
from .kernel import causal_convolve
from .learn import endpoint_features, sequence_features

CHECKPOINT_FRACTIONS = (0.25, 0.5, 0.75, 1.0)
SLICED_W2_PROJECTIONS = 128

# Permutations per matrix product in energy_distance_null.
_NULL_BLOCK = 256

# Rows of one cdist block in energy_distance.
_CDIST_BLOCK = 1024


def _open_loop_table(controller, table, x0s):
    controls = np.asarray(controller.open_loop(table, x0s), dtype=float)
    n = table.n_steps
    expect = (x0s.shape[0], n + 1, table.dim_control)
    if controls.shape != expect:
        raise ValueError(
            f"controller '{controller.tag}' returned shape {controls.shape}, expected {expect}"
        )
    return controls


class DeterministicExactController:
    """Exact open-loop steering toward a fixed target per path."""

    tag = "deterministic-exact"

    def __init__(self, targets):
        self.targets = np.atleast_2d(np.asarray(targets, dtype=float))

    def _residual(self, table, x0s):
        targets = self.targets
        if targets.shape[0] == 1 and x0s.shape[0] > 1:
            targets = np.broadcast_to(targets, x0s.shape)
        if targets.shape != x0s.shape:
            raise ValueError("targets and x0s must pair up one to one")
        return steering_residual(table, x0s, targets)

    def open_loop(self, table, x0s):
        return bridge_controls(table, self._residual(table, x0s))


class VolterraExactController(DeterministicExactController):
    """Exact pinned-bridge control: adds the stochastic memory correction."""

    tag = "volterra-exact"

    def stochastic_controls(self, table, x0s, epsilon, noise_data):
        controls = bridge_controls(
            table, self._residual(table, x0s), noise_data["d_hist"], epsilon
        )
        return controls[:, : table.n_steps]


class FeedforwardController:
    """Evaluates a trained (x0, t) -> u model on the whole grid."""

    tag = "learned-ffn"

    def __init__(self, model):
        self.model = model

    def open_loop(self, table, x0s):
        out = self.model.forward(endpoint_features(x0s, table.grid.times))
        return out.reshape(x0s.shape[0], table.grid.times.shape[0], -1)


class GainController(DeterministicExactController):
    """Learned gain trace applied to the exact steering residual."""

    tag = "gain-model"

    def __init__(self, model, targets):
        super().__init__(targets)
        self.model = model

    def open_loop(self, table, x0s):
        gains = self.model.gain_trace(table.grid.times)
        return np.einsum("jab,pb->pja", gains, self._residual(table, x0s))


class RecurrentController:
    """Trained sequence model driven by the realized noise features."""

    tag = "learned-rnn"

    def __init__(self, model, batch_size=512):
        self.model = model
        self.batch_size = batch_size

    def stochastic_controls(self, table, x0s, epsilon, noise_data):
        scaled = np.sqrt(epsilon) * noise_data["noise"]
        feats = sequence_features(x0s, scaled, table.grid.times)
        out = np.empty((x0s.shape[0], table.n_steps, self.model.output_size))
        for lo in range(0, feats.shape[0], self.batch_size):
            out[lo : lo + self.batch_size] = self.model.forward(
                feats[lo : lo + self.batch_size]
            )
        return out


class PosteriorExactController:
    """Closed-loop steering toward the running conditional terminal mean.

    State feedback: the control at index j depends on the realized state
    x(t_j), so rollouts advance one grid index at a time.
    """

    tag = "posterior-exact"

    def __init__(self, mu0, muf):
        self.mu0 = mu0
        self.muf = muf
        self._ctx = None

    def _context(self, epsilon):
        if self._ctx is None or self._ctx.epsilon != epsilon:
            self._ctx = PosteriorContext(self.mu0, self.muf, epsilon)
        return self._ctx

    def control_step(self, table, t_index, states, x0s, d_hist, epsilon, mean_r):
        ctx = self._context(epsilon)
        post = posterior_mean(ctx, table, t_index, states, mean_r)
        residual = steering_residual(table, x0s, post)
        controls = np.einsum("ab,pb->pa", table.k_gain[t_index], residual)
        if epsilon > 0:
            controls = controls - np.sqrt(epsilon) * np.einsum(
                "ab,pa->pb", table.phi_lag[table.n_steps - t_index], d_hist[:, t_index]
            )
        return controls


def rollout_deterministic(table, controller, x0s, threads=1):
    """Trapezoid rollout of an (x0, t) open-loop controller.

    The control convolution uses half weights at both ends, matching the
    kernel table's Gramian quadrature, so exact controllers pin exactly.
    """
    if not hasattr(controller, "open_loop"):
        raise ValueError(
            f"controller '{getattr(controller, 'tag', '?')}' is not open loop in (x0, t)"
        )
    x0s = np.atleast_2d(np.asarray(x0s, dtype=float))
    dt = table.grid.dt
    # Controllers may carry per-path data (one target per x0), so the control
    # table is built in one call; only the convolution is split across threads.
    controls = _open_loop_table(controller, table, x0s)

    def run(sl):
        chunk = controls[sl]
        conv = causal_convolve(table.phi_lag, chunk)
        conv -= 0.5 * np.einsum("jab,pb->pja", table.phi_lag, chunk[:, 0, :])
        conv -= 0.5 * np.einsum("ab,pjb->pja", table.phi_lag[0], chunk)
        return np.einsum("jab,pb->pja", table.m_avg, x0s[sl]) + dt * conv

    results = _run_chunks(run, _path_slices(x0s.shape[0], threads), threads)
    return PathEnsemble(np.concatenate(results), controls)


def _zero_noise_data(paths, table):
    n, d = table.n_steps, table.dim_state
    zero = np.zeros((paths, n + 1, d))
    return {"d_hist": zero, "noise": zero, "memory": zero}


def _annotate(exc, tag, t_index):
    note = f"controller '{tag}' failed at grid index {t_index}"
    if hasattr(exc, "add_note"):
        exc.add_note(note)
    else:
        exc.args = exc.args + (note,)
    return exc


def rollout_stochastic(table, controller, x0s, epsilon, seed, threads=1):
    """Left-point rollout of the controlled noisy process.

    State at t_j is recomputed as M(t_j) x0 + sum_{k<j} Phi(t_j,t_k)
    (u_k dt + sqrt(eps) dW_k); increments come from per-path counter-based
    streams keyed by (seed, path index), so results do not depend on chunking
    or thread count.  State-feedback controllers force the sequential driver,
    which stays single-threaded; everything else precomputes its control
    table and uses the convolution fast path, whose final convolution is
    split across ``threads`` path chunks.
    """
    x0s = np.atleast_2d(np.asarray(x0s, dtype=float))
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    paths = x0s.shape[0]
    n, m, d = table.n_steps, table.dim_control, table.dim_state
    dt = table.grid.dt
    root = np.sqrt(epsilon)
    dw = sample_increments(table.grid, m, seed, paths)
    if epsilon > 0:
        noise_data = volterra_noise_terms(table, dw)
    else:
        noise_data = _zero_noise_data(paths, table)

    if hasattr(controller, "control_step"):
        states, controls = _rollout_sequential(
            table, controller, x0s, epsilon, dw, noise_data
        )
    else:
        if hasattr(controller, "stochastic_controls"):
            u = np.asarray(
                controller.stochastic_controls(table, x0s, epsilon, noise_data),
                dtype=float,
            )
            if u.shape != (paths, n, m):
                raise ValueError(
                    f"controller '{controller.tag}' returned shape {u.shape}, "
                    f"expected {(paths, n, m)}"
                )
        elif hasattr(controller, "open_loop"):
            u = _open_loop_table(controller, table, x0s)[:, :n, :]
        else:
            raise ValueError(
                f"controller '{getattr(controller, 'tag', '?')}' fits neither rollout driver"
            )
        v = u * dt + root * dw
        states = np.einsum("jab,pb->pja", table.m_avg, x0s)

        def run(sl):
            states[sl, 1:, :] += causal_convolve(table.phi_lag[1:], v[sl])

        _run_chunks(run, _path_slices(paths, threads), threads)
        controls = np.full((paths, n + 1, m), np.nan)
        controls[:, :n, :] = u
    return PathEnsemble(states, controls)


def _rollout_sequential(table, controller, x0s, epsilon, dw, noise_data):
    """One-index-at-a-time driver for state-feedback controllers, O(n^2)."""
    paths = x0s.shape[0]
    n, m = table.n_steps, table.dim_control
    dt = table.grid.dt
    root = np.sqrt(epsilon)
    d_hist, mean_r = noise_data["d_hist"], noise_data["memory"]
    if epsilon > 0:
        # The posterior's memory term is -sqrt(eps) * memory; scaled in place.
        mean_r *= -root
    states = np.einsum("jab,pb->pja", table.m_avg, x0s)
    controls = np.full((paths, n + 1, m), np.nan)
    for j in range(n):
        try:
            u_j = controller.control_step(
                table, j, states[:, j, :], x0s, d_hist, epsilon, mean_r[:, j]
            )
        except Exception as exc:
            raise _annotate(exc, controller.tag, j)
        controls[:, j, :] = u_j
        v_j = u_j * dt + root * dw[:, j, :]
        states[:, j + 1 :, :] += np.einsum(
            "jab,pb->pja", table.phi_lag[1 : n + 1 - j], v_j
        )
    return states, controls


# ---------------------------------------------------------------------------
# Two-sample metrics


def energy_distance(a, b):
    """V-statistic energy distance: 2 E|A-B| - E|A-A'| - E|B-B'|.

    Diagonal (zero) distances are included, so two identical clouds give
    exactly zero rather than a small negative number.  Each mean sums cdist
    over blocks of at most ``_CDIST_BLOCK`` rows, so memory grows linearly
    with the cloud sizes; clouds of at most ``_CDIST_BLOCK`` points give the
    bits of the direct ``cdist(a, b).mean()`` form.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    cross = _mean_distance(a, b)
    within_a = _mean_distance(a, a)
    within_b = _mean_distance(b, b)
    return max(2.0 * cross - within_a - within_b, 0.0)


def _mean_distance(a, b):
    total = 0.0
    for lo in range(0, a.shape[0], _CDIST_BLOCK):
        total += cdist(a[lo : lo + _CDIST_BLOCK], b).sum()
    return total / (a.shape[0] * b.shape[0])


def energy_distance_null(a, b, n_permutations=200, seed=0, max_pooled=6000):
    """Permutation null sample for the energy distance of ``a`` and ``b``.

    Pools both clouds, reshuffles labels, recomputes the statistic from the
    cached pooled distance matrix, one block of permutations per product.
    Above ``max_pooled`` total points the pool is subsampled
    (deterministically); the null level of a smaller sample is larger, so
    thresholds derived from it are conservative.  The observed statistic is
    :func:`energy_distance` of the clouds, which this does not recompute.

    :returns: the null sample, of length n_permutations.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    rng = np.random.Generator(
        np.random.Philox(key=np.array([seed, 914], dtype=np.uint64))
    )
    if a.shape[0] + b.shape[0] > max_pooled:
        keep_a = max(1, int(round(max_pooled * a.shape[0] / (a.shape[0] + b.shape[0]))))
        keep_b = max(1, max_pooled - keep_a)
        a = a[rng.choice(a.shape[0], size=min(keep_a, a.shape[0]), replace=False)]
        b = b[rng.choice(b.shape[0], size=min(keep_b, b.shape[0]), replace=False)]
    na, nb = a.shape[0], b.shape[0]
    pooled = np.concatenate([a, b], axis=0)
    dist = cdist(pooled, pooled)
    total = dist.sum()
    null = np.empty(n_permutations)
    for lo in range(0, n_permutations, _NULL_BLOCK):
        cols = min(_NULL_BLOCK, n_permutations - lo)
        # Column r flags the points that permutation r labels A, so one
        # matrix product yields the within-label sums of a whole block.
        in_a = np.zeros((na + nb, cols))
        for r in range(cols):
            in_a[rng.permutation(na + nb)[:na], r] = 1.0
        in_b = 1.0 - in_a
        s_a = np.einsum("ir,ir->r", in_a, dist @ in_a)
        s_b = np.einsum("ir,ir->r", in_b, dist @ in_b)
        s_ab = 0.5 * (total - s_a - s_b)
        null[lo : lo + cols] = np.maximum(
            2.0 * s_ab / (na * nb) - s_a / (na * na) - s_b / (nb * nb), 0.0
        )
    return null


def sliced_w2(a, b, n_projections=SLICED_W2_PROJECTIONS, seed=0):
    """Sliced 2-Wasserstein estimate over seeded random unit projections."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise ValueError("dimension mismatch")
    rng = np.random.Generator(
        np.random.Philox(key=np.array([seed, 333], dtype=np.uint64))
    )
    dirs = rng.standard_normal((a.shape[1], n_projections))
    dirs /= np.linalg.norm(dirs, axis=0, keepdims=True)
    pa = np.sort(a @ dirs, axis=0)
    pb = np.sort(b @ dirs, axis=0)
    if pa.shape[0] != pb.shape[0]:
        # unequal sizes: compare interpolated quantile functions
        grid = (np.arange(max(pa.shape[0], pb.shape[0])) + 0.5) / max(
            pa.shape[0], pb.shape[0]
        )
        pa = np.quantile(pa, grid, axis=0)
        pb = np.quantile(pb, grid, axis=0)
    w2sq = np.mean((pa - pb) ** 2, axis=0)
    return float(np.sqrt(np.mean(w2sq)))


@dataclass
class MetricsReport:
    """Distribution comparison: terminal statistics plus checkpoint gaps."""

    terminal_mean: np.ndarray
    terminal_cov: np.ndarray
    target_mean: np.ndarray
    target_cov: np.ndarray
    energy_distance: float
    sliced_w2: float
    checkpoints: dict = field(default_factory=dict)
    n_paths: tuple = (0, 0)

    def flat_items(self):
        """Key/value pairs for the text and CSV exports."""
        items = []
        d = self.terminal_mean.shape[0]
        for i in range(d):
            items.append((f"terminal_mean_{i + 1}", self.terminal_mean[i]))
        for i in range(d):
            for k in range(d):
                items.append((f"terminal_cov_{i + 1}{k + 1}", self.terminal_cov[i, k]))
        for i in range(d):
            items.append((f"target_mean_{i + 1}", self.target_mean[i]))
        for i in range(d):
            for k in range(d):
                items.append((f"target_cov_{i + 1}{k + 1}", self.target_cov[i, k]))
        items.append(("energy_distance", self.energy_distance))
        items.append(("sliced_w2", self.sliced_w2))
        for frac in sorted(self.checkpoints):
            stats = self.checkpoints[frac]
            items.append((f"checkpoint_{frac}_mean_gap_se", stats["mean_gap_se"]))
            items.append((f"checkpoint_{frac}_cov_rel_gap", stats["cov_rel_gap"]))
        items.append(("n_paths_left", self.n_paths[0]))
        items.append(("n_paths_right", self.n_paths[1]))
        return items


def _states_array(obj):
    """Normalize ensembles, stacked path arrays and terminal clouds.

    Accepts anything with a ``states`` attribute, a raw (paths, steps, dim)
    array, or an (n, dim) cloud, returned as (paths, steps, dim); clouds get a
    single step so only their terminal row is meaningful.
    """
    states = getattr(obj, "states", None)
    if states is None and isinstance(obj, np.ndarray) and obj.ndim == 3:
        states = obj
    if states is not None:
        states = np.asarray(states, dtype=float)
        if states.ndim != 3:
            raise ValueError("ensemble states must be (paths, steps, dim)")
        return states if states.size else None
    cloud = np.atleast_2d(np.asarray(obj, dtype=float))
    if cloud.ndim != 2:
        raise ValueError("comparison target must be an ensemble or an (n, d) cloud")
    return None if cloud.size == 0 else cloud[:, None, :]


def _checkpoint_index(n_rows, fraction):
    return int(round(fraction * (n_rows - 1)))


def _mean_gap_se(xa, xb):
    ma, mb = xa.mean(axis=0), xb.mean(axis=0)
    va, vb = xa.var(axis=0, ddof=1), xb.var(axis=0, ddof=1)
    se = np.sqrt(va / xa.shape[0] + vb / xb.shape[0])
    gap = np.abs(ma - mb)
    units = np.zeros_like(gap)
    nonzero = gap > 0
    with np.errstate(divide="ignore"):
        units[nonzero] = gap[nonzero] / se[nonzero]
    return float(np.max(units))


def _cov_rel_gap(xa, xb):
    ca = np.cov(xa, rowvar=False)
    cb = np.cov(xb, rowvar=False)
    denom = np.linalg.norm(cb)
    if denom == 0.0:
        return 0.0 if np.linalg.norm(ca) == 0.0 else np.inf
    return float(np.linalg.norm(ca - cb) / denom)


def compare_laws(left, right, checkpoints=CHECKPOINT_FRACTIONS,
                 metric_seed=0, n_projections=SLICED_W2_PROJECTIONS):
    """Compare two path ensembles, or an ensemble against a target cloud.

    Checkpoint statistics need grids on both sides; when the right side is a
    bare sample cloud only the terminal comparison is reported.
    """
    sa = _states_array(left)
    sb = _states_array(right)
    if sa is None or sa.shape[0] == 0 or sb is None or sb.shape[0] == 0:
        raise ValueError("cannot compare empty ensembles")
    if sa.shape[2] != sb.shape[2]:
        raise ValueError("state dimensions differ")
    ta, tb = sa[:, -1, :], sb[:, -1, :]
    report = MetricsReport(
        terminal_mean=ta.mean(axis=0),
        terminal_cov=np.cov(ta, rowvar=False).reshape(ta.shape[1], ta.shape[1]),
        target_mean=tb.mean(axis=0),
        target_cov=np.cov(tb, rowvar=False).reshape(tb.shape[1], tb.shape[1]),
        energy_distance=energy_distance(ta, tb),
        sliced_w2=sliced_w2(ta, tb, n_projections=n_projections, seed=metric_seed),
        n_paths=(sa.shape[0], sb.shape[0]),
    )
    if sa.shape[1] > 1 and sb.shape[1] > 1:
        for frac in checkpoints:
            ja = _checkpoint_index(sa.shape[1], frac)
            jb = _checkpoint_index(sb.shape[1], frac)
            xa, xb = sa[:, ja, :], sb[:, jb, :]
            report.checkpoints[frac] = {
                "mean_gap_se": _mean_gap_se(xa, xb),
                "cov_rel_gap": _cov_rel_gap(xa, xb),
            }
    return report


def export_metrics(report, out_dir, stem="metrics"):
    """Write the report as a flat key-value text file and a CSV."""
    os.makedirs(out_dir, exist_ok=True)
    items = report.flat_items()
    txt_path = os.path.join(out_dir, f"{stem}.txt")
    with open(txt_path, "w") as fh:
        for key, value in items:
            fh.write(f"{key} = {value:.17g}\n")
    csv_path = os.path.join(out_dir, f"{stem}.csv")
    with open(csv_path, "w", newline="") as fh:
        fh.write("key,value\n")
        for key, value in items:
            fh.write(f"{key},{value:.17g}\n")
    return txt_path, csv_path


def write_manifest(path, entries):
    """Run manifest: plain JSON, stable key order."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(entries, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
