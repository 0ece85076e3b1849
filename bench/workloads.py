"""The three benchmark workloads: the CLI commands of one pass, and the
checks that their outputs must pass.

An operation is one ``avgflow`` command.  Every workload runs on ``ou2d``,
whose closed-form oracle lives in ``oracle.py``; its inputs (the sampled
clouds and every stream of noise) all follow from the workload seed.
"""

import os

import numpy as np

import checks
from oracle import Ou2dOracle

MU0_DET = {"type": "gaussian", "mean": [1.0, 0.0], "cov": 0.0025}
MODES = [[0.85, 1.0], [1.15, 1.0]]
MODE_VAR = 0.004
MUF_BIMODAL = {"type": "mixture", "weights": [0.5, 0.5], "means": MODES,
               "covs": [MODE_VAR, MODE_VAR]}
MU0_STO = {"type": "gaussian", "mean": [1.0, 0.0], "cov": 0.01}
MUF_STO = {"type": "gaussian", "mean": [1.0, 1.0], "cov": 0.04}
# A terminal covariance further than this (relative Frobenius gap) from
# cov(mu_f) counts the posterior-exact operation as failed.
TERMINAL_COV_TOL = 0.5


class Op:
    """One CLI command: ``config(seed, run_dirs)`` builds its JSON config
    from the seed and the run directories of the operations before it."""

    def __init__(self, label, command, config):
        self.label = label
        self.command = command
        self.config = config


def read_csv(path):
    """(header, rows) of a numeric CSV file; 'nan' cells read as NaN."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def read_trajectory(path):
    """States and controls of a trajectory CSV as (paths, steps, dim) arrays."""
    header, data = read_csv(path)
    ids = data[:, 0].astype(int)
    paths = np.unique(ids).size
    data = data[np.lexsort((data[:, 1], ids))].reshape(paths, -1, data.shape[1])
    xs = [i for i, name in enumerate(header) if name.startswith("x")]
    us = [i for i, name in enumerate(header) if name.startswith("u")]
    return (data[:, :, xs] if xs else None), (data[:, :, us] if us else None)


def read_key_values(path):
    with open(path) as fh:
        next(fh)
        return {k: float(v) for k, v in (line.strip().split(",") for line in fh)}


class DetTransport:
    """Deterministic regime: learned-ffn flows under OT and product coupling."""

    name = "det-transport"
    n_steps = 50
    n_samples = 1000
    epochs = 4

    def ops(self):
        def config(coupling):
            def build(seed, run_dirs):
                return {
                    "family": "ou2d", "n_steps": self.n_steps,
                    "n_samples": self.n_samples, "seed": seed,
                    "mu0": MU0_DET, "muf": MUF_BIMODAL,
                    "controller": "learned-ffn", "coupling": coupling,
                    "train": {"epochs": self.epochs, "batch_size": 1024,
                              "learning_rate": 2e-3, "late_learning_rate": 2e-4},
                }
            return build

        # No --strict: its permutation-null gate rejects an exact transport on
        # about one seed in twenty, so the failure count would follow the seed.
        return [Op("flow-ot", "flow", config("ot")),
                Op("flow-product", "flow", config("product"))]

    def verify(self, seed, run_dirs):
        oracle = Ou2dOracle(self.n_steps)
        terminals, x0s, teachers = {}, {}, {}
        for kind in ("ot", "product"):
            run = run_dirs[f"flow-{kind}"]
            states, controls = read_trajectory(os.path.join(run, "rollout.csv"))
            x0s[kind] = states[:, 0]
            checks.check_reintegration(oracle, x0s[kind], states, controls)
            terminals[kind] = states[:, -1]
            _, taught = read_trajectory(os.path.join(run, "teacher_controls.csv"))
            teachers[kind] = checks.teacher_terminals(oracle, x0s[kind], taught)
            _, plan = read_csv(os.path.join(run, "coupling_plan.csv"))
            checks.check_plan(plan, x0s[kind], teachers[kind], kind)
        checks.check_same_cloud(teachers["ot"], teachers["product"])
        checks.check_bimodal_law(teachers["ot"], MODES, MODE_VAR)
        checks.check_no_improving_swap(x0s["ot"], teachers["ot"])
        rng = np.random.default_rng([seed, 77])
        comp = rng.integers(0, 2, size=4000)
        reference = (np.asarray(MODES)[comp]
                     + np.sqrt(MODE_VAR) * rng.standard_normal((4000, 2)))
        checks.check_dichotomy(terminals["ot"], terminals["product"], reference)
        return set()


class StoSteer:
    """Stochastic regime: posterior-exact and learned-rnn flows at eps=0.5."""

    name = "sto-steer"
    n_steps = 100
    epsilon = 0.5
    posterior_samples = 1000
    rnn_samples = 128
    rnn_epochs = 4

    def ops(self):
        def config(controller, n_samples, train):
            def build(seed, run_dirs):
                return {
                    "family": "ou2d", "n_steps": self.n_steps,
                    "epsilon": self.epsilon, "n_samples": n_samples,
                    "seed": seed, "mu0": MU0_STO, "muf": MUF_STO,
                    "coupling": "ot", "controller": controller, "train": train,
                }
            return build

        return [
            Op("posterior-exact", "flow",
               config("posterior-exact", self.posterior_samples, {})),
            Op("learned-rnn", "flow",
               config("learned-rnn", self.rnn_samples, {"epochs": self.rnn_epochs})),
        ]

    def verify(self, seed, run_dirs):
        oracle = Ou2dOracle(self.n_steps)
        mean_path = oracle.mean_path(MU0_STO["mean"], MUF_STO["mean"])
        post = run_dirs["posterior-exact"]
        states, controls = read_trajectory(os.path.join(post, "rollout.csv"))
        checks.check_law_means(oracle, states, mean_path)
        checks.check_stochastic_controls(controls)
        rnn = run_dirs["learned-rnn"]
        _, rnn_controls = read_trajectory(os.path.join(rnn, "rollout.csv"))
        checks.check_stochastic_controls(rnn_controls)
        _, report = read_csv(os.path.join(rnn, "train_report.csv"))
        checks.check_loss_decreased(report)
        # Known defect: the posterior-exact terminal covariance collapses
        # below cov(mu_f).  The operation is counted as failed while it does.
        gap = checks.terminal_cov_gap(states, MUF_STO["cov"] * np.eye(2))
        return {"posterior-exact"} if gap > TERMINAL_COV_TOL else set()


class BridgeIO:
    """Trajectory output and input: a bridge run, then metrics reading it back."""

    name = "bridge-io"
    n_steps = 250
    bridge_paths = 400
    epsilons = [0.0, 0.5, 1.0]
    x0 = [1.0, 0.0]
    xf = [1.0, 1.0]

    def ops(self):
        def bridge(seed, run_dirs):
            return {"family": "ou2d", "n_steps": self.n_steps,
                    "epsilons": self.epsilons, "bridge_paths": self.bridge_paths,
                    "x0": self.x0, "xf": self.xf, "seed": seed}

        def metrics(seed, run_dirs):
            run = run_dirs["bridge"]
            return {"family": "ou2d", "n_steps": self.n_steps, "seed": seed,
                    "left": os.path.join(run, "trajectory_eps0.5.csv"),
                    "right": os.path.join(run, "trajectory_eps1.csv")}

        return [Op("bridge", "bridge", bridge), Op("metrics", "metrics", metrics)]

    def verify(self, seed, run_dirs):
        oracle = Ou2dOracle(self.n_steps)
        mean_path = oracle.mean_path(self.x0, self.xf)
        run = run_dirs["bridge"]
        ens = {eps: read_trajectory(os.path.join(run, f"trajectory_eps{eps:g}.csv"))[0]
               for eps in self.epsilons}
        checks.check_path(ens[0.0], mean_path)
        checks.check_noise_scaling(ens[0.0], ens[0.5], ens[1.0], 0.5, 1.0)
        for eps in (0.5, 1.0):
            checks.check_bridge_law(oracle, ens[eps], eps, mean_path)
        metrics = read_key_values(os.path.join(run_dirs["metrics"], "metrics.csv"))
        checks.check_metrics_file(metrics, ens[0.5], ens[1.0])
        return set()


WORKLOADS = {w.name: w for w in (DetTransport(), StoSteer(), BridgeIO())}
