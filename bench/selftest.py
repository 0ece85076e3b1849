"""Quick tests of the benchmark itself: every check accepts a correct output
and rejects a corrupted one.

    python3 -m pytest -q bench/selftest.py
"""

import types

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

import checks
from checks import CheckFailed
from oracle import Ou2dOracle, self_test
from spans import Tracer
from workloads import MODE_VAR, MODES, read_trajectory

ORACLE = Ou2dOracle(40)


def rng(key):
    return np.random.default_rng(key)


def bimodal(n, key):
    r = rng(key)
    return np.asarray(MODES)[r.integers(0, 2, n)] + np.sqrt(MODE_VAR) * r.standard_normal((n, 2))


def ot_pairing(n=60):
    x0s = np.array([1.0, 0.0]) + 0.05 * rng(1).standard_normal((n, 2))
    ys = bimodal(n, 2)
    _, perm = linear_sum_assignment(cdist(x0s, ys, metric="sqeuclidean"))
    return x0s, ys[perm]


def gaussian_paths(mean_path, cov, n, key):
    """Independent Gaussian draws per grid row with the oracle's moments."""
    r = rng(key)
    out = np.empty((n,) + mean_path.shape)
    for j in range(mean_path.shape[0]):
        lam, vec = np.linalg.eigh(cov[j])
        root = vec * np.sqrt(np.clip(lam, 0.0, None))
        out[:, j] = mean_path[j] + r.standard_normal((n, 2)) @ root.T
    return out


def test_oracle_self_test():
    m_err, g_err = self_test()
    assert m_err < 1e-13 and g_err < 1e-5


def test_swapped_pair_breaks_optimality():
    x0s, ys = ot_pairing()
    checks.check_no_improving_swap(x0s, ys)
    ys[[3, 40]] = ys[[40, 3]]
    with pytest.raises(CheckFailed):
        checks.check_no_improving_swap(x0s, ys)


def test_plan_costs_and_bijection():
    x0s, ys = ot_pairing()
    n = x0s.shape[0]
    plan = np.column_stack([np.arange(n), np.arange(n), np.sum((x0s - ys) ** 2, axis=1)])
    checks.check_plan(plan, x0s, ys, "ot")
    bad = plan.copy()
    bad[5, 2] *= 1.001
    with pytest.raises(CheckFailed):
        checks.check_plan(bad, x0s, ys, "ot")
    bad = plan.copy()
    bad[5, 1] = 6
    with pytest.raises(CheckFailed):
        checks.check_plan(bad, x0s, ys, "ot")


def test_shifted_terminal_breaks_reintegration():
    x0s, ys = ot_pairing(8)
    controls = ORACLE.teacher_controls(x0s, ys)
    states = ORACLE.integrate(x0s, controls)
    assert np.abs(states[:, -1] - ys).max() < 1e-12
    checks.check_reintegration(ORACLE, x0s, states, controls)
    states[2, -1, 0] += 1e-3
    with pytest.raises(CheckFailed):
        checks.check_reintegration(ORACLE, x0s, states, controls)


def test_teacher_cloud_law_and_set():
    cloud = bimodal(2000, 5)
    checks.check_bimodal_law(cloud, MODES, MODE_VAR)
    checks.check_same_cloud(cloud, cloud[::-1])
    with pytest.raises(CheckFailed):
        checks.check_same_cloud(cloud, cloud + 1e-6)
    with pytest.raises(CheckFailed):
        checks.check_bimodal_law(cloud + [0.02, 0.0], MODES, MODE_VAR)
    with pytest.raises(CheckFailed):
        checks.check_bimodal_law(1.0 + 2.0 * (cloud - 1.0), MODES, MODE_VAR)


def test_dichotomy_needs_a_collapse():
    ref, good = bimodal(500, 6), bimodal(500, 7)
    collapsed = np.tile(np.mean(MODES, axis=0), (500, 1)) + 0.01 * rng(8).standard_normal((500, 2))
    assert checks.check_dichotomy(good, collapsed, ref) >= 10.0
    with pytest.raises(CheckFailed):
        checks.check_dichotomy(good, bimodal(500, 9), ref)


def test_shifted_eps0_path_fails():
    x0, xf = [1.0, 0.0], [1.0, 1.0]
    path = ORACLE.mean_path(x0, xf)
    assert np.abs(path[-1] - xf).max() < 1e-12
    checks.check_path(path[None], path)
    shifted = path.copy()
    shifted[-1] += 1e-3
    with pytest.raises(CheckFailed):
        checks.check_path(shifted[None], path)


def test_rescaled_eps_file_fails():
    det = ORACLE.mean_path([1.0, 0.0], [1.0, 1.0])[None]
    noise = 0.3 * rng(3).standard_normal((20,) + det.shape[1:])
    half, one = det + np.sqrt(0.5) * noise, det + noise
    checks.check_noise_scaling(det, half, one, 0.5, 1.0)
    with pytest.raises(CheckFailed):
        checks.check_noise_scaling(det, half, det + 1.01 * noise, 0.5, 1.0)


def test_bridge_law_moments():
    mean_path = ORACLE.mean_path([1.0, 0.0], [1.0, 1.0])
    cov = ORACLE.bridge_cov(0.5)
    paths = gaussian_paths(mean_path, cov, 2000, 4)
    checks.check_bridge_law(ORACLE, paths, 0.5, mean_path)
    with pytest.raises(CheckFailed):
        checks.check_bridge_law(ORACLE, paths + 0.05, 0.5, mean_path)
    wide = mean_path + 1.5 * (paths - mean_path)
    with pytest.raises(CheckFailed):
        checks.check_bridge_law(ORACLE, wide, 0.5, mean_path)
    checks.check_law_means(ORACLE, paths, mean_path)
    with pytest.raises(CheckFailed):
        checks.check_law_means(ORACLE, paths + 0.05, mean_path)


def test_metrics_file():
    det = ORACLE.mean_path([1.0, 0.0], [1.0, 1.0])
    noise = 0.3 * rng(3).standard_normal((50,) + det.shape)
    noise[:, -1] = 0.0
    half, one = det + np.sqrt(0.5) * noise, det + noise
    good = {"energy_distance": 0.0}
    good.update({f"checkpoint_{f}_cov_rel_gap": 0.5 for f in checks.CHECKPOINTS})
    checks.check_metrics_file(good, half, one)
    with pytest.raises(CheckFailed):
        checks.check_metrics_file(dict(good, energy_distance=1e-3), half, one)
    with pytest.raises(CheckFailed):
        checks.check_metrics_file(dict(good, **{"checkpoint_0.5_cov_rel_gap": 0.49}), half, one)


def test_training_and_controls():
    checks.check_loss_decreased(np.array([[0, 2.0], [1, 1.0]]))
    with pytest.raises(CheckFailed):
        checks.check_loss_decreased(np.array([[0, 1.0], [1, 1.5]]))
    controls = np.ones((3, 5, 2))
    controls[:, -1] = np.nan
    checks.check_stochastic_controls(controls)
    bad = controls.copy()
    bad[1, 2, 0] = np.nan
    with pytest.raises(CheckFailed):
        checks.check_stochastic_controls(bad)
    bad = controls.copy()
    bad[0, -1] = 0.0
    with pytest.raises(CheckFailed):
        checks.check_stochastic_controls(bad)


def test_terminal_cov_gap():
    pts = np.sqrt(0.04) * rng(11).standard_normal((4000, 1, 2))
    assert checks.terminal_cov_gap(pts, 0.04 * np.eye(2)) < 0.1
    assert checks.terminal_cov_gap(0.4 * pts, 0.04 * np.eye(2)) > 0.5


def test_read_trajectory(tmp_path):
    path = tmp_path / "t.csv"
    rows = ["path_id,t,x1,x2,u1,u2"]
    for pid in range(2):
        for j in range(3):
            u = "nan,nan" if j == 2 else f"{pid},{j}"
            rows.append(f"{pid},{j / 2},{10 * pid + j},{-j},{u}")
    path.write_text("\n".join(rows) + "\n")
    states, controls = read_trajectory(str(path))
    assert states.shape == (2, 3, 2) and controls.shape == (2, 3, 2)
    assert states[1, 2, 0] == 12 and np.isnan(controls[0, 2]).all()


def test_tracer_self_time_and_missing_names():
    def outer(x0s, table):
        sim.recompute_mean_r(table, None, 0, 0.5)
        return x0s

    def inner(table, d_hist, t_index, epsilon):
        return None

    cli = types.SimpleNamespace(rollout_stochastic=outer)
    sim = types.SimpleNamespace(recompute_mean_r=inner)
    tracer = Tracer()
    tracer.install({"cli": cli, "sim": sim})
    tracer.begin_op("op")
    table = types.SimpleNamespace(n_steps=10)
    cli.rollout_stochastic(np.zeros((3, 2)), table)
    sim.recompute_mean_r(table, None, 1, 0.5)
    tracer.uninstall()
    assert cli.rollout_stochastic is outer
    values = tracer.layer_metrics(["op"], 1.0, 0.0)
    assert values["sim.rollout_stochastic.path_steps"] == 30
    assert values["distributions.recompute_mean_r.calls"] == 2
    assert values["kernel.build_kernel_table.calls"] == 0
    spans = {s["name"]: s for s in tracer.spans}
    total = spans["sim.rollout_stochastic"]["end"] - spans["sim.rollout_stochastic"]["start"]
    assert values["sim.rollout_stochastic.s"] < total
    assert 0.0 < values["cli.self.s"] <= 1.0
