"""Command-line pipeline driver.

Subcommands wire configs to the library: ``kernel`` precomputes and exports
the convolution-kernel tables, ``bridge`` writes endpoint-steering
trajectories, ``flow`` runs a full distribution-steering pipeline (couple,
train if needed, roll out, measure), ``train`` stops after the training
stage, ``simulate`` rolls out a configured controller, and ``metrics``
compares saved ensembles.

``flow``, ``train`` and ``simulate`` share one controller registry,
``_CONTROLLERS``, and the config's ``controller`` is their one selector: each
name maps to its regime (the deterministic or the stochastic rollout driver),
the model kind it trains or loads, and a builder.  ``flow`` trains a learned
controller's model and rolls it out, ``train`` only fits it, and ``simulate``
loads it from ``checkpoint``; ``train`` of a controller without a model
(an exact one) is a configuration error.
``teacher`` names the same controller as ``deterministic-exact``: the exact
open-loop steering of the coupled pairs, whose controls are also the
regression targets of the feed-forward model.
All three commands draw their endpoint samples through one lazy pairing, so
sampling, coupling and teacher bridges run only when a builder, trainer or
rollout reads them.  ``--threads`` splits path chunks of the bridge
ensembles, the deterministic rollout's convolution, and the stochastic
rollout's final convolution; the sequential driver of the state-feedback
controller (posterior-exact) stays single-threaded.

Every run writes into a stamped directory: the stamp is a hash of the fully
resolved config and command, so identical inputs land in identical places
with byte-identical files, and nothing depends on wall-clock time.  Failures
leave an ``error.json`` record (in the base output directory when the config
itself fails to load) and map to stable exit codes:

    0  success
    2  configuration problem (also used by argparse itself)
    3  ensemble not averaged-controllable / Gramian singular
    4  training divergence
    5  metric gate failed under --strict
    1  anything else
"""

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import warnings
from collections import namedtuple
from functools import cached_property

import numpy as np

from .bridge import EndpointPair, bridge_ensemble, export_trajectory_csv
from .coupling import export_plan_csv, ot_assignment, product_plan
from .distributions import (
    GaussianMixture,
    point_mass,
    product_pairs,
    ring_mixture,
    sample,
    single_gaussian,
)
from .errors import ConfigError, NotAveragedControllableError, TrainingDivergenceError
from .kernel import (
    TimeGrid,
    build_kernel_table,
    build_theta_ensemble,
    export_kernel_csv,
    load_theta_table,
)
from .learn import (
    TrainConfig,
    flatten_endpoint_dataset,
    load_model,
    save_model,
    sequence_dataset,
    train_feedforward,
    train_gain,
    train_recurrent,
)
from .sim import (
    DeterministicExactController,
    FeedforwardController,
    GainController,
    PosteriorExactController,
    RecurrentController,
    VolterraExactController,
    compare_laws,
    energy_distance_null,
    export_metrics,
    rollout_deterministic,
    rollout_stochastic,
    write_manifest,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONTROLLABILITY = 3
EXIT_DIVERGENCE = 4
EXIT_METRIC_GATE = 5

_FAMILIES = ("ou2d", "antidamped2d", "constant")


class MetricGateError(RuntimeError):
    """Raised when --strict metric checks fail; maps to exit code 5."""


# Every TrainConfig field; a train seed of None means "use the run seed".
_TRAIN_DEFAULTS = {f.name: f.default for f in dataclasses.fields(TrainConfig)}
_TRAIN_DEFAULTS["seed"] = None

_METRIC_DEFAULTS = {
    "n_permutations": 200,
    "n_projections": 128,
    "max_energy_distance": None,
}

_DEFAULTS = {
    "family": "ou2d",
    "theta_table": None,
    "n_theta": 64,
    "a": None,
    "b": None,
    "t_f": 1.0,
    "n_steps": 1000,
    "epsilon": 0.5,
    "epsilons": [0.0, 0.5, 1.0],
    "x0": [1.0, 0.0],
    "xf": [1.0, 1.0],
    "bridge_paths": 8,
    "mu0": {"type": "gaussian", "mean": [1.0, 0.0], "cov": 0.01},
    "muf": {"type": "gaussian", "mean": [1.0, 1.0], "cov": 0.04},
    "coupling": "ot",
    "controller": "posterior-exact",
    "n_samples": 256,
    "checkpoint": None,
    "left": None,
    "right": None,
    "train": _TRAIN_DEFAULTS,
    "metric": _METRIC_DEFAULTS,
    "seed": 0,
    "out_dir": None,
}

_PRESETS = {
    "desk": {"n_steps": 200, "n_samples": 256, "train": {"epochs": 40}},
    "paper": {"n_steps": 1000, "n_samples": 1000, "train": {"epochs": 100}},
}


def _deep_merge(base, override):
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _float(value):
    """float(value), with an integer too large for a float mapped to +-inf."""
    try:
        return float(value)
    except OverflowError:
        return np.inf if value > 0 else -np.inf


def _as_float(cfg, key, minimum=None):
    value = cfg[key]
    _require(_is_number(value), f"'{key}' must be a number")
    value = _float(value)
    _require(np.isfinite(value), f"'{key}' must be finite")
    if minimum is not None:
        _require(value >= minimum, f"'{key}' must be >= {minimum}")
    cfg[key] = value


def _as_int(cfg, key, minimum):
    value = cfg[key]
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"'{key}' must be an integer")
    _require(value >= minimum, f"'{key}' must be >= {minimum}")


def _as_matrix(cfg, key):
    rows = cfg[key]
    _require(isinstance(rows, list) and all(
        isinstance(row, list) and all(_is_number(v) and np.isfinite(_float(v)) for v in row)
        for row in rows), f"'{key}' must be a list of rows of finite numbers")


def _validate_config(cfg):
    unknown = set(cfg) - set(_DEFAULTS)
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    if cfg["theta_table"] is None:
        _require(cfg["family"] in _FAMILIES,
                 f"unknown system family {cfg['family']!r}; choose from {_FAMILIES} "
                 "or provide 'theta_table'")
        if cfg["family"] == "constant":
            _require(cfg["a"] is not None and cfg["b"] is not None,
                     "the constant family needs explicit 'a' and 'b' matrices")
    for key in ("a", "b"):
        if cfg[key] is not None:
            _as_matrix(cfg, key)
    _as_int(cfg, "n_theta", 1)
    _as_int(cfg, "n_steps", 2)
    _as_int(cfg, "n_samples", 1)
    _as_int(cfg, "bridge_paths", 1)
    _as_int(cfg, "seed", 0)
    _as_float(cfg, "t_f", minimum=1e-12)
    _as_float(cfg, "epsilon", minimum=0.0)
    _require(isinstance(cfg["epsilons"], list)
             and all(_is_number(e) and 0 <= _float(e) < np.inf for e in cfg["epsilons"]),
             "'epsilons' must be a list of finite nonnegative numbers")
    cfg["epsilons"] = [float(e) for e in cfg["epsilons"]]
    names = [f"trajectory_eps{e:g}.csv" for e in cfg["epsilons"]]
    _require(len(set(names)) == len(names),
             f"'epsilons' entries must name distinct files; they give {names}")
    _require(cfg["coupling"] in ("ot", "product"),
             "'coupling' must be 'ot' or 'product'")
    _require(cfg["controller"] in _CONTROLLERS,
             f"unknown controller {cfg['controller']!r}")
    _require(cfg["out_dir"] is None or isinstance(cfg["out_dir"], str),
             "'out_dir' must be a path string")
    for key in ("x0", "xf"):
        _require(isinstance(cfg[key], list) and len(cfg[key]) >= 1
                 and all(_is_number(v) and np.isfinite(_float(v)) for v in cfg[key]),
                 f"'{key}' must be a list of finite numbers")
        cfg[key] = [float(v) for v in cfg[key]]
    train = _deep_merge(_TRAIN_DEFAULTS, cfg["train"] or {})
    unknown = set(train) - set(_TRAIN_DEFAULTS)
    _require(not unknown, f"unknown train keys: {sorted(unknown)}")
    for key, minimum in (("epochs", 0), ("batch_size", 1), ("hidden_size", 1)):
        _as_int(train, key, minimum)
    _as_float(train, "learning_rate")
    _as_float(train, "val_fraction")
    if train["late_learning_rate"] is not None:
        _as_float(train, "late_learning_rate")
    if train["seed"] is not None:
        _as_int(train, "seed", 0)
    cfg["train"] = train
    metric = _deep_merge(_METRIC_DEFAULTS, cfg["metric"] or {})
    unknown = set(metric) - set(_METRIC_DEFAULTS)
    _require(not unknown, f"unknown metric keys: {sorted(unknown)}")
    _as_int(metric, "n_permutations", 1)
    _as_int(metric, "n_projections", 1)
    if metric["max_energy_distance"] is not None:
        _as_float(metric, "max_energy_distance")
    cfg["metric"] = metric
    return cfg


def _load_config(args):
    cfg = dict(_DEFAULTS)
    if getattr(args, "preset", None):
        _require(args.preset in _PRESETS, f"unknown preset {args.preset!r}")
        cfg = _deep_merge(cfg, _PRESETS[args.preset])
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
        _require(isinstance(raw, dict), "config file must hold a JSON object")
        cfg = _deep_merge(cfg, raw)
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "x0", None) is not None:
        cfg["x0"] = args.x0
    if getattr(args, "xf", None) is not None:
        cfg["xf"] = args.xf
    return _validate_config(cfg)


def _mixture(spec, what):
    _require(isinstance(spec, dict) and "type" in spec,
             f"'{what}' must be an object with a 'type' field")
    kind = spec["type"]
    try:
        if kind == "gaussian":
            mean = np.asarray(spec["mean"], dtype=float)
            return single_gaussian(mean, _cov_entry(spec["cov"], mean.shape[0]))
        if kind == "point":
            return point_mass(np.asarray(spec["x"], dtype=float))
        if kind == "ring":
            n_components = spec.get("n_components", 8)
            radius = spec.get("radius", 1.0)
            _require(isinstance(n_components, int) and not isinstance(n_components, bool)
                     and n_components >= 1,
                     f"bad '{what}' spec: ring 'n_components' must be an integer >= 1")
            _require(_is_number(radius) and 0 < _float(radius) < np.inf,
                     f"bad '{what}' spec: ring 'radius' must be a finite positive number")
            return ring_mixture(
                n_components,
                float(radius),
                float(spec.get("sigma2", 0.01)),
                center=spec.get("center", (0.0, 0.0)),
            )
        if kind == "mixture":
            means = np.asarray(spec["means"], dtype=float)
            covs = np.stack(
                [_cov_entry(c, means.shape[1]) for c in spec["covs"]]
            )
            return GaussianMixture(
                np.asarray(spec["weights"], dtype=float), means, covs
            )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad '{what}' spec: {exc}") from exc
    raise ConfigError(f"unknown mixture type {kind!r} in '{what}'")


def _cov_entry(value, dim):
    if isinstance(value, (int, float)):
        return float(value) * np.eye(dim)
    return np.asarray(value, dtype=float)


def _build_table(cfg):
    grid = TimeGrid(t_f=cfg["t_f"], n_steps=cfg["n_steps"])
    if cfg["theta_table"]:
        ensemble = load_theta_table(cfg["theta_table"])
    else:
        try:
            a = None if cfg["a"] is None else np.asarray(cfg["a"], dtype=float)
            b = None if cfg["b"] is None else np.asarray(cfg["b"], dtype=float)
            ensemble = build_theta_ensemble(cfg["family"], cfg["n_theta"], a=a, b=b)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return ensemble, grid, build_kernel_table(ensemble, grid)


def _stamp(cfg, command):
    stamped = {k: v for k, v in cfg.items() if k != "out_dir"}
    blob = json.dumps({"command": command, "config": stamped}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _base_dir(cfg):
    return os.environ.get("AVGFLOW_OUT") or cfg.get("out_dir") or "runs"


def _run_dir(cfg, command):
    stamp = _stamp(cfg, command)
    run_dir = os.path.join(_base_dir(cfg), f"{command}-{stamp}")
    os.makedirs(run_dir, exist_ok=True)
    return run_dir, stamp


def _train_config(cfg):
    train = dict(cfg["train"])
    if train.get("seed") is None:
        train["seed"] = cfg["seed"]
    return TrainConfig(**train)


def _manifest(run_dir, cfg, command, stamp, extra=None):
    grid_dt = cfg["t_f"] / cfg["n_steps"]
    entries = {
        "command": command,
        "stamp": stamp,
        "family": cfg["theta_table"] or cfg["family"],
        "epsilon": cfg["epsilon"],
        "t_f": cfg["t_f"],
        "n_steps": cfg["n_steps"],
        "dt": grid_dt,
        "n_samples": cfg["n_samples"],
        "seed": cfg["seed"],
        "controller": cfg["controller"],
        "checkpoint": cfg["checkpoint"],
    }
    if extra:
        entries.update(extra)
    return write_manifest(os.path.join(run_dir, "manifest.json"), entries)


def _load_trajectory_csv(path):
    """Read a trajectory CSV back into (paths, steps, d) state arrays.

    Reads what :func:`avgflow.bridge.export_trajectory_csv` writes (a header
    that starts ``path_id,t`` and names at least one ``x`` column, ``.17g``
    values, rows path-major with paths in id order) and returns its states
    bitwise.  Paths come back in id order and rows keep their file order
    within a path, so a file whose paths are interleaved reads the same as
    the path-major one.  Only the id and state columns are parsed.
    """
    try:
        with open(path) as fh:
            header = fh.readline().rstrip("\n").split(",")
            state_cols = [i for i, name in enumerate(header) if name.startswith("x")]
            _require(header[:2] == ["path_id", "t"] and state_cols,
                     f"{path!r} is not a trajectory CSV")
            with warnings.catch_warnings():
                # An empty body is reported below as an error.
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None,
                                  usecols=[0] + state_cols)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read trajectory file {path!r}: {exc}") from exc
    _require(data.shape[0] > 0, f"{path!r} holds no trajectory rows")
    ids = data[:, 0].astype(int)
    _, counts = np.unique(ids, return_counts=True)
    _require(np.all(counts == counts[0]), f"{path!r} has ragged path lengths")
    order = np.argsort(ids, kind="stable")
    return data[order, 1:].reshape(counts.size, counts[0], len(state_cols))


def _write_error(cfg, run_dir, exc, code):
    record = {
        "error": type(exc).__name__,
        "message": str(exc),
        "exit_code": code,
    }
    target = run_dir if run_dir and os.path.isdir(run_dir) else _base_dir(cfg)
    try:
        os.makedirs(target, exist_ok=True)
        with open(os.path.join(target, "error.json"), "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError:
        pass


# ---------------------------------------------------------------------------
# Commands


def cmd_kernel(cfg, run_dir, stamp, args):
    _, _, table = _build_table(cfg)
    export_kernel_csv(table, run_dir)
    _manifest(run_dir, cfg, "kernel", stamp, extra={
        "condition_number": table.cond_full,
        "outputs": ["Phi.csv", "M.csv", "G_fwd.csv", "G_bwd.csv", "S.csv",
                    "Y.csv", "Z.csv", "K.csv", "summary.json"],
    })
    print(f"kernel table exported to {run_dir}")
    return EXIT_OK


def cmd_bridge(cfg, run_dir, stamp, args):
    _, grid, table = _build_table(cfg)
    try:
        pair = EndpointPair(np.asarray(cfg["x0"]), np.asarray(cfg["xf"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _require(pair.x0.shape[0] == table.dim_state,
             f"x0 has dimension {pair.x0.shape[0]}, system expects {table.dim_state}")
    outputs = []
    eps_list = list(cfg["epsilons"])
    if 0.0 not in eps_list:
        eps_list.insert(0, 0.0)
    for eps in eps_list:
        # Without noise every path is the same deterministic one.
        paths = cfg["bridge_paths"] if eps > 0 else 1
        ens = bridge_ensemble(table, np.tile(pair.x0, (paths, 1)),
                              np.tile(pair.xf, (paths, 1)), eps, cfg["seed"],
                              threads=args.threads)
        name = f"trajectory_eps{eps:g}.csv"
        export_trajectory_csv(os.path.join(run_dir, name), grid, ens.states, ens.controls)
        outputs.append(name)
    _manifest(run_dir, cfg, "bridge", stamp, extra={
        "epsilons": eps_list, "x0": cfg["x0"], "xf": cfg["xf"],
        "outputs": outputs,
    })
    print(f"bridge trajectories written to {run_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Controller registry


class _Pairs:
    """The run's endpoint samples, coupled and turned into teachers on first use.

    Nothing is sampled, coupled or simulated until a builder, trainer or
    rollout reads it, so a controller that never reads the coupled targets
    never pays for the coupling.
    """

    def __init__(self, cfg, table, threads):
        self.cfg = cfg
        self.table = table
        self.threads = threads
        # Both laws are checked up front, even for a trainer that reads neither.
        self.mu0 = _mixture(cfg["mu0"], "mu0")
        self.muf = _mixture(cfg["muf"], "muf")

    @cached_property
    def samples(self):
        return product_pairs(self.mu0, self.muf, self.cfg["n_samples"], self.cfg["seed"])

    @property
    def x0s(self):
        return self.samples.x0s

    @cached_property
    def plan(self):
        if self.cfg["coupling"] == "ot":
            return ot_assignment(self.samples.x0s, self.samples.xfs)
        return product_plan(self.cfg["n_samples"])

    @cached_property
    def targets(self):
        """The coupled terminal point of each start."""
        return self.samples.xfs[self.plan.permutation]

    @cached_property
    def teacher(self):
        """Exact open-loop controls of the coupled pairs, (paths, n+1, m)."""
        return DeterministicExactController(self.targets).open_loop(self.table, self.x0s)

    @cached_property
    def bridges(self):
        """Pinned bridges between the coupled pairs at the run's epsilon."""
        return bridge_ensemble(self.table, self.x0s, self.targets, self.cfg["epsilon"],
                               self.cfg["seed"], threads=self.threads)


def _single_gaussian(mixture):
    _require(mixture.n_components == 1,
             "posterior-exact steering needs a single-Gaussian mu0")
    return mixture


_DET, _STO = "deterministic", "stochastic"
# regime: _DET or _STO, the rollout driver; model: the kind flow and train fit
# and simulate loads, or None; build: (pairs, model) -> controller.
_Entry = namedtuple("_Entry", "regime model build")

_EXACT = _Entry(_DET, None, lambda p, m: DeterministicExactController(p.targets))

_CONTROLLERS = {
    "teacher": _EXACT,
    "learned-ffn": _Entry(_DET, "feedforward", lambda p, m: FeedforwardController(m)),
    "gain-model": _Entry(_DET, "gain", lambda p, m: GainController(m, p.targets)),
    "deterministic-exact": _EXACT,
    "posterior-exact": _Entry(
        _STO, None, lambda p, m: PosteriorExactController(_single_gaussian(p.mu0), p.muf)),
    "learned-rnn": _Entry(_STO, "recurrent", lambda p, m: RecurrentController(m)),
    "volterra-exact": _Entry(_STO, None, lambda p, m: VolterraExactController(p.targets)),
}

_TRAINERS = {
    "feedforward": lambda p, config: train_feedforward(
        *flatten_endpoint_dataset(p.x0s, p.teacher, p.table.grid.times), config),
    "recurrent": lambda p, config: train_recurrent(
        *sequence_dataset(p.x0s, p.bridges.noise, p.bridges.controls, p.table.grid.times),
        config),
    "gain": lambda p, config: train_gain(p.table, config),
}


def _fit(cfg, run_dir, kind, pairs):
    """Train a model of ``kind``; save its checkpoint and training report."""
    model, report = _TRAINERS[kind](pairs, _train_config(cfg))
    checkpoint = os.path.join(run_dir, "model.json")
    save_model(model, checkpoint)
    report.to_csv(os.path.join(run_dir, "train_report.csv"))
    return model, checkpoint


def _controller(cfg, pairs, run_dir=None):
    """(controller, checkpoint written or None).  The model is trained into
    ``run_dir``, or without one loaded from the configured checkpoint."""
    name = cfg["controller"]
    entry = _CONTROLLERS[name]
    model = checkpoint = None
    if entry.model and run_dir:
        model, checkpoint = _fit(cfg, run_dir, entry.model, pairs)
    elif entry.model:
        _require(cfg["checkpoint"], f"controller {name!r} needs a 'checkpoint' path")
        model = load_model(cfg["checkpoint"])
        _require(model.kind == entry.model,
                 f"controller {name!r} needs a {entry.model} checkpoint; "
                 f"{cfg['checkpoint']!r} holds a {model.kind} model")
    return entry.build(pairs, model), checkpoint


def _record_coupling(run_dir, entry, pairs):
    """Keep the plan and teacher controls of a deterministic run that coupled."""
    if entry.regime == _DET and "plan" in vars(pairs):
        export_plan_csv(os.path.join(run_dir, "coupling_plan.csv"), pairs.plan)
        export_trajectory_csv(os.path.join(run_dir, "teacher_controls.csv"),
                              pairs.table.grid, controls=pairs.teacher)


def _rollout(cfg, entry, controller, pairs, held_out=False):
    """Roll out on the regime's driver from the paired starts.

    With ``held_out``, a stochastic controller that carries no per-path
    targets starts instead from fresh samples of mu0 under fresh noise, so a
    learned one is not measured on the starts and noise it was trained on.
    """
    table, seed, threads = pairs.table, cfg["seed"], pairs.threads
    if entry.regime == _DET:
        return rollout_deterministic(table, controller, pairs.x0s, threads=threads)
    x0s = pairs.x0s
    if held_out and not hasattr(controller, "targets"):
        x0s, seed = sample(pairs.mu0, cfg["n_samples"], seed, stream=5), seed + 1
    return rollout_stochastic(table, controller, x0s, cfg["epsilon"], seed,
                              threads=threads)


def _reference(cfg, entry, pairs):
    """What a flow rollout is measured against: samples of mu_f, or under
    noise a bridge ensemble between fresh pairs."""
    n, seed = cfg["n_samples"], cfg["seed"]
    if entry.regime == _DET:
        return sample(pairs.muf, n, seed, stream=3)
    fresh = product_pairs(pairs.mu0, pairs.muf, n, seed + 2)
    return bridge_ensemble(pairs.table, fresh.x0s, fresh.xfs, cfg["epsilon"], seed + 3,
                           threads=pairs.threads)


def _apply_metric_gate(cfg, args, observed, left_cloud, right_cloud):
    if not args.strict:
        return
    metric = cfg["metric"]
    null = energy_distance_null(
        left_cloud, right_cloud,
        n_permutations=metric["n_permutations"],
        seed=cfg["seed"],
    )
    level = float(np.quantile(null, 0.95))
    cap = metric["max_energy_distance"]
    if observed > level:
        raise MetricGateError(
            f"terminal energy distance {observed:.6g} exceeds the 95th "
            f"percentile of its permutation null ({level:.6g})"
        )
    if cap is not None and observed > cap:
        raise MetricGateError(
            f"terminal energy distance {observed:.6g} exceeds the configured "
            f"cap {cap:.6g}"
        )


def cmd_flow(cfg, run_dir, stamp, args):
    _, grid, table = _build_table(cfg)
    entry = _CONTROLLERS[cfg["controller"]]
    pairs = _Pairs(cfg, table, args.threads)
    controller, checkpoint = _controller(cfg, pairs, run_dir)
    rollout = _rollout(cfg, entry, controller, pairs, held_out=True)
    if entry is _EXACT:
        # The exact controller rolls out from the paired starts, so its
        # control table is the teacher table: keep it instead of a rebuild.
        pairs.teacher = rollout.controls
    _record_coupling(run_dir, entry, pairs)
    export_trajectory_csv(os.path.join(run_dir, "rollout.csv"), grid,
                          rollout.states, rollout.controls)
    reference = _reference(cfg, entry, pairs)
    report = compare_laws(rollout, reference, metric_seed=cfg["seed"],
                          n_projections=cfg["metric"]["n_projections"])
    export_metrics(report, run_dir)
    _manifest(run_dir, cfg, "flow", stamp, extra={
        "checkpoint": checkpoint,
        "terminal_energy_distance": report.energy_distance,
        "outputs": sorted(os.listdir(run_dir)),
    })
    _apply_metric_gate(cfg, args, report.energy_distance, rollout.terminal,
                       getattr(reference, "terminal", reference))
    print(f"flow pipeline outputs in {run_dir} "
          f"(terminal energy distance {report.energy_distance:.6g})")
    return EXIT_OK


def cmd_train(cfg, run_dir, stamp, args):
    entry = _CONTROLLERS[cfg["controller"]]
    _require(entry.model, "the train command needs a learned 'controller': "
             f"{' | '.join(n for n, e in _CONTROLLERS.items() if e.model)}; "
             f"{cfg['controller']!r} has no model")
    _, _, table = _build_table(cfg)
    pairs = _Pairs(cfg, table, args.threads)
    _, checkpoint = _fit(cfg, run_dir, entry.model, pairs)
    _record_coupling(run_dir, entry, pairs)
    _manifest(run_dir, cfg, "train", stamp, extra={
        "checkpoint": checkpoint,
        "model": entry.model,
        "outputs": sorted(os.listdir(run_dir)),
    })
    print(f"model checkpoint written to {checkpoint}")
    return EXIT_OK


def cmd_simulate(cfg, run_dir, stamp, args):
    _, grid, table = _build_table(cfg)
    entry = _CONTROLLERS[cfg["controller"]]
    pairs = _Pairs(cfg, table, args.threads)
    controller, _ = _controller(cfg, pairs)
    rollout = _rollout(cfg, entry, controller, pairs)
    export_trajectory_csv(os.path.join(run_dir, "rollout.csv"), grid,
                          rollout.states, rollout.controls)
    _manifest(run_dir, cfg, "simulate", stamp, extra={
        "outputs": ["rollout.csv", "manifest.json"],
    })
    print(f"rollout written to {run_dir}")
    return EXIT_OK


def cmd_metrics(cfg, run_dir, stamp, args):
    _require(cfg["left"], "the metrics command needs 'left': a trajectory CSV path")
    left = _load_trajectory_csv(cfg["left"])
    if cfg["right"]:
        right = _load_trajectory_csv(cfg["right"])
        right_cloud = right[:, -1, :]
    else:
        muf = _mixture(cfg["muf"], "muf")
        right = sample(muf, cfg["n_samples"], cfg["seed"], stream=7)
        right_cloud = right
    report = compare_laws(left, right, metric_seed=cfg["seed"],
                          n_projections=cfg["metric"]["n_projections"])
    export_metrics(report, run_dir)
    _manifest(run_dir, cfg, "metrics", stamp, extra={
        "left": cfg["left"],
        "right": cfg["right"],
        "terminal_energy_distance": report.energy_distance,
        "outputs": ["metrics.txt", "metrics.csv", "manifest.json"],
    })
    _apply_metric_gate(cfg, args, report.energy_distance,
                       left[:, -1, :], right_cloud)
    print(f"metrics written to {run_dir} "
          f"(terminal energy distance {report.energy_distance:.6g})")
    return EXIT_OK


_COMMANDS = {
    "kernel": cmd_kernel,
    "bridge": cmd_bridge,
    "flow": cmd_flow,
    "train": cmd_train,
    "simulate": cmd_simulate,
    "metrics": cmd_metrics,
}


def _comma_floats(text):
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats: {text!r}") from exc


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="avgflow",
        description="Averaged-ensemble bridges, couplings and flow matching.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("kernel", "precompute and export the convolution-kernel tables"),
        ("bridge", "write endpoint-steering trajectories"),
        ("flow", "run a full distribution-steering pipeline"),
        ("train", "train a model and save its checkpoint"),
        ("simulate", "roll out a configured controller"),
        ("metrics", "compare saved ensembles"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON run config")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--threads", type=int, default=1,
                       help="worker thread cap for path-parallel stages")
        p.add_argument("--strict", action="store_true",
                       help="fail (exit 5) when metric gates are not met")
        p.add_argument("--preset", choices=sorted(_PRESETS),
                       help="scale preset applied before the config file")
        if name == "bridge":
            p.add_argument("--x0", type=_comma_floats,
                           help="start point, comma separated")
            p.add_argument("--xf", type=_comma_floats,
                           help="target point, comma separated")
    return parser


def _exit_code_for(exc):
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG
    if isinstance(exc, NotAveragedControllableError):
        return EXIT_CONTROLLABILITY
    if isinstance(exc, TrainingDivergenceError):
        return EXIT_DIVERGENCE
    if isinstance(exc, MetricGateError):
        return EXIT_METRIC_GATE
    return 1


def main(argv=None):
    args = _build_parser().parse_args(argv)
    cfg = {}  # until the config loads, errors go to the base directory
    run_dir = None
    try:
        cfg = _load_config(args)
        run_dir, stamp = _run_dir(cfg, args.command)
        return _COMMANDS[args.command](cfg, run_dir, stamp, args)
    except Exception as exc:
        code = _exit_code_for(exc)
        print(f"error: {exc}", file=sys.stderr)
        _write_error(cfg, run_dir, exc, code)
        return code


if __name__ == "__main__":
    sys.exit(main())
