"""Output checks: each takes arrays read from a run's files and raises
``CheckFailed`` with a one-line reason when the program's output is wrong.

The checks compare against ``oracle.Ou2dOracle`` (closed form, no shared
code with the program) or against properties the method must have.
"""

import numpy as np
from scipy.spatial.distance import cdist

from oracle import energy_distance

CHECKPOINTS = (0.25, 0.5, 0.75)
MAX_SE = 5.0
# Agreement expected of two computations of the same quantity in float64.
ROUNDING = 1e-9


class CheckFailed(AssertionError):
    """An output disagrees with the oracle or with a property of the method."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _checkpoint_rows(n_steps):
    return [int(round(f * n_steps)) for f in CHECKPOINTS]


# --------------------------------------------------------------------------
# det-transport


def teacher_terminals(oracle, x0s, controls):
    """Integrate per-pair teacher controls with the oracle; terminal cloud."""
    return oracle.integrate(x0s, controls)[:, -1, :]


def check_same_cloud(a, b):
    """Two terminal clouds hold the same points, in any order."""
    _require(a.shape == b.shape, f"cloud shapes differ: {a.shape} vs {b.shape}")
    sa = a[np.lexsort(a.T[::-1])]
    sb = b[np.lexsort(b.T[::-1])]
    gap = float(np.abs(sa - sb).max())
    _require(gap <= ROUNDING, f"teacher clouds are not one point set (gap {gap:.1e})")


def check_bimodal_law(cloud, means, var):
    """Cloud matches the equal-weight two-mode law with isotropic variance."""
    means = np.asarray(means, dtype=float)
    n = cloud.shape[0]
    label = np.argmin(cdist(cloud, means), axis=1)
    share = float(np.mean(label == 0))
    _require(abs(share - 0.5) <= MAX_SE * np.sqrt(0.25 / n),
             f"mode share {share:.3f} is not 1/2 for {n} points")
    for k in range(means.shape[0]):
        pts = cloud[label == k]
        se = np.sqrt(var / pts.shape[0])
        gap = float(np.abs(pts.mean(axis=0) - means[k]).max() / se)
        _require(gap <= MAX_SE, f"mode {k} mean is {gap:.1f} SE off")
        rel = float(np.abs(pts.var(axis=0, ddof=1) / var - 1.0).max())
        _require(rel <= 0.35, f"mode {k} variance off by {100 * rel:.0f}%")


def check_no_improving_swap(x0s, targets):
    """No pair (i, k) lowers the squared cost by exchanging its targets."""
    cost = cdist(x0s, targets, metric="sqeuclidean")
    own = np.diag(cost)
    gain = own[:, None] + own[None, :] - cost - cost.T
    best = float(gain.max())
    _require(best <= ROUNDING, f"a 2-swap lowers the pairing cost by {best:.2e}")


def check_plan(plan, x0s, targets, kind):
    """coupling_plan.csv rows (i, pi_i, cost_i) agree with the oracle pairing."""
    n = x0s.shape[0]
    _require(plan.shape == (n, 3), f"plan has shape {plan.shape}, expected ({n}, 3)")
    _require(np.array_equal(plan[:, 0], np.arange(n)), "plan rows are not 0..N-1")
    perm = plan[:, 1].astype(int)
    _require(np.array_equal(np.sort(perm), np.arange(n)), "plan is not a bijection")
    if kind == "product":
        _require(np.array_equal(perm, np.arange(n)), "product plan is not the identity")
        return
    sq = np.sum((x0s - targets) ** 2, axis=1)
    gap = float(np.abs(plan[:, 2] - sq).max())
    _require(gap <= ROUNDING, f"plan costs differ from squared distances by {gap:.1e}")


def check_reintegration(oracle, x0s, states, controls):
    """Rollout states equal the oracle integral of their own controls."""
    again = oracle.integrate(x0s, controls)
    gap = float(np.abs(again - states).max())
    _require(gap <= ROUNDING, f"re-integrated rollout differs by {gap:.1e}")


def check_dichotomy(terminal_ot, terminal_product, reference):
    """Product coupling collapses: its energy distance is >= 10x the OT one."""
    ed_ot = energy_distance(terminal_ot, reference)
    ed_product = energy_distance(terminal_product, reference)
    _require(ed_product >= 10.0 * ed_ot,
             f"energy distance product {ed_product:.3g} < 10 x OT {ed_ot:.3g}")
    return ed_product / ed_ot


# --------------------------------------------------------------------------
# bridge-io


def check_path(states, expected):
    """Every stored path equals the expected (n+1, d) path."""
    gap = float(np.abs(states - expected[None]).max())
    _require(gap <= ROUNDING, f"path differs from the oracle by {gap:.1e}")


def check_noise_scaling(det, eps_a, eps_b, a, b):
    """Shared increments: (x_b - det) = sqrt(b/a) (x_a - det) to rounding."""
    factor = np.sqrt(b / a)
    gap = float(np.abs((eps_b - det) - factor * (eps_a - det)).max())
    _require(gap <= ROUNDING,
             f"eps={b:g} noise is not sqrt({b:g}/{a:g}) x eps={a:g} noise (gap {gap:.1e})")


def check_bridge_law(oracle, states, epsilon, mean_path):
    """Checkpoint means within MAX_SE of the oracle path, covariances near
    eps (G - S G^-1 S^T).

    The covariance tolerance is MAX_SE sampling errors of a covariance
    estimate, plus 5% for the program's left-point noise sums against the
    oracle's trapezoid Gramians.
    """
    paths = states.shape[0]
    cov = oracle.bridge_cov(epsilon)
    cov_tol = 0.05 + MAX_SE * np.sqrt(2.0 / paths)
    for j in _checkpoint_rows(oracle.n):
        se = np.sqrt(np.diag(cov[j]) / paths)
        gap = float(np.max(np.abs(states[:, j].mean(axis=0) - mean_path[j]) / se))
        _require(gap <= MAX_SE, f"eps={epsilon:g} mean at row {j} is {gap:.1f} SE off")
        sample = np.cov(states[:, j].T)
        rel = float(np.linalg.norm(sample - cov[j]) / np.linalg.norm(cov[j]))
        _require(rel <= cov_tol,
                 f"eps={epsilon:g} covariance at row {j} off by {100 * rel:.0f}%")


def check_metrics_file(metrics, left, right):
    """metrics.csv: energy distance equals ours, interior cov_rel_gap = 1/2.

    ``left`` and ``right`` are the eps=0.5 and eps=1 ensembles; their noise
    parts differ by sqrt(2) exactly, so ||C_l - C_r|| / ||C_r|| = 1/2.
    """
    ours = energy_distance(left[:, -1], right[:, -1])
    theirs = metrics["energy_distance"]
    _require(abs(theirs - ours) <= ROUNDING + 1e-6 * abs(ours),
             f"metrics energy_distance {theirs:.6g} vs {ours:.6g}")
    for frac in CHECKPOINTS:
        gap = metrics[f"checkpoint_{frac}_cov_rel_gap"]
        _require(abs(gap - 0.5) <= ROUNDING, f"cov_rel_gap at {frac} is {gap:.12g}, not 0.5")


# --------------------------------------------------------------------------
# sto-steer


def check_law_means(oracle, states, mean_path):
    """Checkpoint means of a rollout within MAX_SE of the oracle law mean."""
    n = states.shape[0]
    for j in _checkpoint_rows(oracle.n):
        pts = states[:, j]
        se = pts.std(axis=0, ddof=1) / np.sqrt(n)
        gap = float(np.max(np.abs(pts.mean(axis=0) - mean_path[j]) / se))
        _require(gap <= MAX_SE, f"rollout mean at row {j} is {gap:.1f} SE off")


def check_loss_decreased(report):
    """train_report.csv: final training loss below the initial one."""
    first, last = report[0, 1], report[-1, 1]
    _require(last < first, f"training loss did not fall ({first:.4g} -> {last:.4g})")


def check_stochastic_controls(controls):
    """Controls finite before the last grid index and NaN at it."""
    _require(bool(np.all(np.isfinite(controls[:, :-1]))), "non-finite control before t_f")
    _require(bool(np.all(np.isnan(controls[:, -1]))), "terminal control is not NaN")


def terminal_cov_gap(states, target_cov):
    """Relative Frobenius gap of the terminal covariance to the target's."""
    sample = np.cov(states[:, -1].T)
    return float(np.linalg.norm(sample - target_cov) / np.linalg.norm(target_cov))
