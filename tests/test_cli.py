"""End-to-end coverage of the command-line pipeline at small scale.

Each test invokes ``main`` in-process with AVGFLOW_OUT pointing at a tmp
directory, so exit codes come back as return values and no subprocesses are
involved.  Configs keep n_steps small: the kernel quantities are already
accurate to ~1e-5 at 200 steps and the commands stay fast.
"""

import csv
import json

import numpy as np
import pytest

from avgflow.bridge import bridge_controls
from avgflow.cli import _CONTROLLERS, main
from avgflow.learn import load_model

OU_GAIN_DIAG = 0.9727707

# The learned controller that fits each model kind.
LEARNED = {"feedforward": "learned-ffn", "recurrent": "learned-rnn", "gain": "gain-model"}


def invoke(monkeypatch, out_root, command, config=None, extra=()):
    """Run one CLI command with AVGFLOW_OUT redirected to out_root."""
    out_root.mkdir(parents=True, exist_ok=True)
    monkeypatch.setenv("AVGFLOW_OUT", str(out_root))
    argv = [command]
    if config is not None:
        cfg_path = out_root / "config.json"
        cfg_path.write_text(json.dumps(config))
        argv += ["--config", str(cfg_path)]
    argv += list(extra)
    return main(argv)


def run_dirs(out_root, command):
    return sorted(p for p in out_root.iterdir() if p.name.startswith(f"{command}-"))


def only_run_dir(out_root, command):
    dirs = run_dirs(out_root, command)
    assert len(dirs) == 1, dirs
    return dirs[0]


def read_terminals(path):
    """Terminal state per path from a trajectory CSV."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader if row]
    state_cols = [i for i, name in enumerate(header) if name.startswith("x")]
    terminals = {}
    for row in rows:
        terminals[int(row[0])] = [float(row[i]) for i in state_cols]
    return np.array([terminals[pid] for pid in sorted(terminals)])


class TestKernelCommand:
    def test_summary_reports_gain_gramian_diagonal(self, tmp_path, monkeypatch):
        code = invoke(monkeypatch, tmp_path, "kernel", extra=["--preset", "desk"])
        assert code == 0
        run_dir = only_run_dir(tmp_path, "kernel")
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["averaged_controllable"] is True
        np.testing.assert_allclose(
            summary["gramian_full_diagonal"], OU_GAIN_DIAG, atol=1e-5
        )
        manifest = json.loads((run_dir / "manifest.json").read_text())
        for name in manifest["outputs"]:
            assert (run_dir / name).exists(), name

    def test_zero_actuation_exits_3_with_error_record(self, tmp_path, monkeypatch):
        config = {
            "family": "constant",
            "a": [[0.0, 0.0], [0.0, 0.0]],
            "b": [[0.0, 0.0], [0.0, 0.0]],
            "n_steps": 50,
        }
        code = invoke(monkeypatch, tmp_path, "kernel", config)
        assert code == 3
        run_dir = only_run_dir(tmp_path, "kernel")
        record = json.loads((run_dir / "error.json").read_text())
        assert record["exit_code"] == 3
        assert record["error"] == "NotAveragedControllableError"

    def test_unknown_family_exits_2(self, tmp_path, monkeypatch, capsys):
        code = invoke(monkeypatch, tmp_path, "kernel", {"family": "nope"})
        assert code == 2
        assert "unknown system family" in capsys.readouterr().err

    def test_single_step_grid_exits_2(self, tmp_path, monkeypatch, capsys):
        code = invoke(monkeypatch, tmp_path, "kernel", {"n_steps": 1})
        assert code == 2
        assert "n_steps" in capsys.readouterr().err

    NODES = [{"theta": 0.0, "A": [[0.0]], "B": [[1.0]]},
             {"theta": 1.0, "A": [[-1.0]], "B": [[1.0]]}]

    @pytest.mark.parametrize("table, message", [
        (NODES, "needs a 'nodes' list"),
        ({"nodes": NODES, "weights": [1.0]}, "one weight per node"),
        ({"nodes": NODES, "weights": ["half", "half"]}, "malformed theta table weights"),
    ], ids=["json-list", "short-weights", "text-weights"])
    def test_malformed_theta_table_exits_2(
            self, table, message, tmp_path, monkeypatch, capsys):
        path = tmp_path / "nodes.json"
        path.write_text(json.dumps(table))
        code = invoke(monkeypatch, tmp_path, "kernel",
                      {"n_steps": 20, "theta_table": str(path)})
        assert code == 2
        assert message in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, monkeypatch, capsys):
        code = invoke(monkeypatch, tmp_path, "kernel", {"frobnicate": 1})
        assert code == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_config_error_leaves_an_error_record(self, tmp_path, monkeypatch):
        assert invoke(monkeypatch, tmp_path, "kernel", {"frobnicate": 1}) == 2
        record = json.loads((tmp_path / "error.json").read_text())
        assert record["exit_code"] == 2
        assert record["error"] == "ConfigError"
        assert not run_dirs(tmp_path, "kernel")

    def test_missing_config_file_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("AVGFLOW_OUT", str(tmp_path))
        code = main(["kernel", "--config", str(tmp_path / "absent.json")])
        assert code == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        monkeypatch.setenv("AVGFLOW_OUT", str(tmp_path))
        assert main(["kernel", "--config", str(bad)]) == 2

    def test_unknown_subcommand_is_argparse_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["bogus"])
        assert excinfo.value.code == 2


class TestBridgeCommand:
    CONFIG = {
        "n_steps": 200,
        "epsilons": [0.0, 0.5, 1.0],
        "bridge_paths": 4,
        "seed": 5,
    }

    def test_writes_one_file_per_epsilon(self, tmp_path, monkeypatch):
        code = invoke(monkeypatch, tmp_path, "bridge", self.CONFIG)
        assert code == 0
        run_dir = only_run_dir(tmp_path, "bridge")
        names = [f"trajectory_eps{e:g}.csv" for e in (0.0, 0.5, 1.0)]
        for name in names:
            assert (run_dir / name).exists(), name
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["outputs"] == names

    def test_deterministic_file_pins_the_endpoint(self, tmp_path, monkeypatch):
        invoke(monkeypatch, tmp_path, "bridge", self.CONFIG)
        run_dir = only_run_dir(tmp_path, "bridge")
        terminal = read_terminals(run_dir / "trajectory_eps0.csv")
        np.testing.assert_allclose(terminal, [[1.0, 1.0]], atol=1e-6)

    def test_empty_epsilon_list_still_writes_deterministic(self, tmp_path, monkeypatch):
        config = dict(self.CONFIG, epsilons=[])
        code = invoke(monkeypatch, tmp_path, "bridge", config)
        assert code == 0
        run_dir = only_run_dir(tmp_path, "bridge")
        assert (run_dir / "trajectory_eps0.csv").exists()
        assert not (run_dir / "trajectory_eps0.5.csv").exists()

    def test_endpoint_flags_override_config(self, tmp_path, monkeypatch):
        config = dict(self.CONFIG, epsilons=[])
        code = invoke(
            monkeypatch, tmp_path, "bridge", config,
            extra=["--x0", "0,0", "--xf", "2,1"],
        )
        assert code == 0
        run_dir = only_run_dir(tmp_path, "bridge")
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["x0"] == [0.0, 0.0] and manifest["xf"] == [2.0, 1.0]
        terminal = read_terminals(run_dir / "trajectory_eps0.csv")
        np.testing.assert_allclose(terminal, [[2.0, 1.0]], atol=1e-6)

    def test_epsilons_sharing_a_file_name_exit_2(self, tmp_path, monkeypatch, capsys):
        # 0.50000001 prints as 0.5 under :g, so all three would write one file.
        config = dict(self.CONFIG, epsilons=[0.5, 0.5, 0.50000001])
        assert invoke(monkeypatch, tmp_path, "bridge", config) == 2
        assert "distinct files" in capsys.readouterr().err
        assert not run_dirs(tmp_path, "bridge")
        assert json.loads((tmp_path / "error.json").read_text())["exit_code"] == 2

    def test_wrong_endpoint_dimension_exits_2(self, tmp_path, monkeypatch, capsys):
        config = dict(self.CONFIG, x0=[1.0, 0.0, 0.0], xf=[1.0, 1.0, 1.0])
        code = invoke(monkeypatch, tmp_path, "bridge", config)
        assert code == 2
        assert "dimension" in capsys.readouterr().err

    def test_ragged_endpoints_exit_2(self, tmp_path, monkeypatch, capsys):
        config = dict(self.CONFIG, x0=[1.0, 0.0, 0.0])
        code = invoke(monkeypatch, tmp_path, "bridge", config)
        assert code == 2
        assert "equal dimension" in capsys.readouterr().err

    def test_identical_configs_are_byte_stable(self, tmp_path, monkeypatch):
        invoke(monkeypatch, tmp_path / "one", "bridge", self.CONFIG)
        invoke(monkeypatch, tmp_path / "two", "bridge", self.CONFIG)
        dir_one = only_run_dir(tmp_path / "one", "bridge")
        dir_two = only_run_dir(tmp_path / "two", "bridge")
        assert dir_one.name == dir_two.name
        for path in sorted(dir_one.iterdir()):
            assert path.read_bytes() == (dir_two / path.name).read_bytes(), path.name

    def test_seed_flag_changes_the_stamp(self, tmp_path, monkeypatch):
        invoke(monkeypatch, tmp_path, "bridge", self.CONFIG, extra=["--seed", "6"])
        invoke(monkeypatch, tmp_path, "bridge", self.CONFIG, extra=["--seed", "7"])
        assert len(run_dirs(tmp_path, "bridge")) == 2


class TestFlowCommand:
    def test_teacher_pipeline_writes_full_bundle(self, tmp_path, monkeypatch):
        config = {
            "n_steps": 50,
            "n_samples": 16,
            "controller": "teacher",
            "seed": 3,
        }
        code = invoke(monkeypatch, tmp_path, "flow", config)
        assert code == 0
        run_dir = only_run_dir(tmp_path, "flow")
        for name in ("coupling_plan.csv", "teacher_controls.csv", "rollout.csv",
                     "metrics.txt", "metrics.csv", "manifest.json"):
            assert (run_dir / name).exists(), name
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert np.isfinite(manifest["terminal_energy_distance"])
        assert read_terminals(run_dir / "rollout.csv").shape == (16, 2)

    def test_posterior_pipeline_runs_stochastic(self, tmp_path, monkeypatch):
        config = {
            "n_steps": 50,
            "n_samples": 32,
            "controller": "posterior-exact",
            "epsilon": 0.5,
            "seed": 3,
        }
        code = invoke(monkeypatch, tmp_path, "flow", config)
        assert code == 0
        run_dir = only_run_dir(tmp_path, "flow")
        assert (run_dir / "metrics.csv").exists()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["checkpoint"] is None

    def test_posterior_needs_single_gaussian_start(self, tmp_path, monkeypatch, capsys):
        config = {
            "n_steps": 50,
            "controller": "posterior-exact",
            "mu0": {
                "type": "mixture",
                "weights": [0.5, 0.5],
                "means": [[0.0, 0.0], [1.0, 1.0]],
                "covs": [0.01, 0.01],
            },
        }
        code = invoke(monkeypatch, tmp_path, "flow", config)
        assert code == 2
        assert "single-Gaussian" in capsys.readouterr().err


class TestTrainCommand:
    def test_gain_checkpoint_roundtrips(self, tmp_path, monkeypatch):
        config = {
            "n_steps": 50,
            "controller": "gain-model",
            "train": {"epochs": 5},
            "seed": 2,
        }
        code = invoke(monkeypatch, tmp_path, "train", config)
        assert code == 0
        run_dir = only_run_dir(tmp_path, "train")
        assert (run_dir / "train_report.csv").exists()
        model = load_model(run_dir / "model.json")
        assert model.gain_trace(np.linspace(0.0, 1.0, 51)).shape == (51, 2, 2)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert (manifest["controller"], manifest["model"]) == ("gain-model", "gain")

    def test_learned_controller_is_required(self, tmp_path, monkeypatch, capsys):
        """The default controller, posterior-exact, has no model to train."""
        code = invoke(monkeypatch, tmp_path, "train", {"n_steps": 50})
        assert code == 2
        assert "needs a learned 'controller'" in capsys.readouterr().err

    def test_model_key_is_unknown(self, tmp_path, monkeypatch, capsys):
        config = {"n_steps": 50, "controller": "gain-model", "model": "gain"}
        assert invoke(monkeypatch, tmp_path, "train", config) == 2
        assert "unknown config keys: ['model']" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_divergence_exits_4_with_error_record(self, tmp_path, monkeypatch):
        config = {
            "n_steps": 20,
            "n_samples": 16,
            "controller": "learned-ffn",
            "train": {"epochs": 3, "learning_rate": 1e200},
            "seed": 2,
        }
        code = invoke(monkeypatch, tmp_path, "train", config)
        assert code == 4
        run_dir = only_run_dir(tmp_path, "train")
        record = json.loads((run_dir / "error.json").read_text())
        assert record["exit_code"] == 4
        assert record["error"] == "TrainingDivergenceError"


class TestConfigTypes:
    @pytest.mark.parametrize("command, section, field, value", [
        ("train", "train", "epochs", 2.5),
        ("train", "train", "epochs", "3"),
        ("train", "train", "batch_size", True),
        ("train", "train", "hidden_size", 8.0),
        ("train", "train", "learning_rate", "0.1"),
        ("train", "train", "late_learning_rate", [0.1]),
        ("train", "train", "val_fraction", None),
        ("train", "train", "seed", 1.5),
        ("flow", "metric", "n_permutations", "abc"),
        ("flow", "metric", "n_projections", 2.5),
        ("flow", "metric", "max_energy_distance", "big"),
        pytest.param("bridge", None, "epsilons", [float("inf")], id="epsilons-inf"),
        pytest.param("bridge", None, "epsilons", [True], id="epsilons-true"),
        pytest.param("bridge", None, "x0", [True, 0.0], id="x0-true"),
        pytest.param("bridge", None, "xf", [1.0, False], id="xf-false"),
        pytest.param("bridge", None, "epsilons", [10**400], id="epsilons-huge"),
        pytest.param("bridge", None, "x0", [10**400, 0.0], id="x0-huge"),
        pytest.param("bridge", None, "t_f", 10**400, id="t_f-huge"),
        pytest.param("kernel", None, "a", [[0, 0], [0, "x"]], id="a-string"),
        pytest.param("kernel", None, "b", [[1.0, True], [0, 1]], id="b-true"),
        pytest.param("kernel", None, "a", [[0, 10**400], [0, 0]], id="a-huge"),
    ])
    def test_mistyped_field_exits_2(
        self, command, section, field, value, tmp_path, monkeypatch, capsys
    ):
        config = {"n_steps": 20, "n_samples": 8}
        if section is None:
            config[field] = value
        else:
            config[section] = {field: value}
        if command == "train":
            config["controller"] = "gain-model"
        code = invoke(monkeypatch, tmp_path, command, config, extra=["--strict"])
        assert code == 2
        assert f"'{field}' must be" in capsys.readouterr().err

    def test_law_too_large_for_a_float_exits_2(self, tmp_path, monkeypatch, capsys):
        config = {"n_steps": 20, "n_samples": 8, "controller": "volterra-exact",
                  "mu0": {"type": "gaussian", "mean": [10**400, 0.0], "cov": 0.01}}
        assert invoke(monkeypatch, tmp_path, "flow", config) == 2
        assert "bad 'mu0' spec" in capsys.readouterr().err


    @pytest.mark.parametrize("ring", [
        pytest.param({"n_components": 2.5}, id="n_components-fraction"),
        pytest.param({"n_components": 0}, id="n_components-zero"),
        pytest.param({"n_components": True}, id="n_components-true"),
        pytest.param({"radius": float("inf")}, id="radius-inf"),
        pytest.param({"radius": 0.0}, id="radius-zero"),
        pytest.param({"radius": -1.0}, id="radius-negative"),
        pytest.param({"radius": "1"}, id="radius-string"),
    ])
    def test_bad_ring_spec_exits_2(self, ring, tmp_path, monkeypatch, capsys):
        config = {"n_steps": 20, "n_samples": 8, "controller": "volterra-exact",
                  "muf": dict(ring, type="ring")}
        assert invoke(monkeypatch, tmp_path, "flow", config) == 2
        assert "bad 'muf' spec: ring" in capsys.readouterr().err


class TestSimulateCommand:
    def test_learned_rnn_roundtrip_through_checkpoint(self, tmp_path, monkeypatch):
        train_config = {
            "n_steps": 20,
            "n_samples": 8,
            "controller": "learned-rnn",
            "train": {"epochs": 1, "hidden_size": 8},
            "seed": 2,
        }
        assert invoke(monkeypatch, tmp_path / "t", "train", train_config) == 0
        checkpoint = only_run_dir(tmp_path / "t", "train") / "model.json"
        sim_config = {
            "n_steps": 20,
            "n_samples": 8,
            "controller": "learned-rnn",
            "checkpoint": str(checkpoint),
            "epsilon": 0.5,
            "seed": 2,
        }
        assert invoke(monkeypatch, tmp_path / "s", "simulate", sim_config) == 0
        run_dir = only_run_dir(tmp_path / "s", "simulate")
        assert read_terminals(run_dir / "rollout.csv").shape == (8, 2)

    def test_learned_controller_requires_checkpoint(self, tmp_path, monkeypatch, capsys):
        config = {"n_steps": 20, "controller": "learned-ffn"}
        code = invoke(monkeypatch, tmp_path, "simulate", config)
        assert code == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_exact_controller_needs_no_checkpoint(self, tmp_path, monkeypatch):
        config = {
            "n_steps": 50,
            "n_samples": 8,
            "controller": "deterministic-exact",
            "seed": 4,
        }
        assert invoke(monkeypatch, tmp_path, "simulate", config) == 0


class TestControllerRegistry:
    BASE = {
        "n_steps": 20,
        "n_samples": 8,
        "epsilon": 0.5,
        "train": {"epochs": 1, "hidden_size": 8},
        "seed": 2,
    }
    MIXTURE = {
        "type": "mixture",
        "weights": [0.5, 0.5],
        "means": [[0.0, 0.0], [1.0, 1.0]],
        "covs": [0.01, 0.01],
    }

    @pytest.fixture(scope="class")
    def checkpoints(self, tmp_path_factory):
        """One trained checkpoint per model kind."""
        root = tmp_path_factory.mktemp("checkpoints")
        paths = {}
        with pytest.MonkeyPatch.context() as mp:
            for kind in ("feedforward", "recurrent", "gain"):
                config = dict(self.BASE, controller=LEARNED[kind])
                assert invoke(mp, root / kind, "train", config) == 0
                paths[kind] = str(only_run_dir(root / kind, "train") / "model.json")
        return paths

    def config(self, name, checkpoints):
        return dict(self.BASE, controller=name,
                    checkpoint=checkpoints.get(_CONTROLLERS[name].model))

    @pytest.mark.parametrize("name", sorted(_CONTROLLERS))
    def test_flow_and_simulate_run_every_controller(
            self, name, checkpoints, tmp_path, monkeypatch):
        config = self.config(name, checkpoints)
        assert invoke(monkeypatch, tmp_path / "f", "flow", config) == 0
        assert invoke(monkeypatch, tmp_path / "s", "simulate", config) == 0
        for root, command in ((tmp_path / "f", "flow"), (tmp_path / "s", "simulate")):
            rollout = only_run_dir(root, command) / "rollout.csv"
            assert read_terminals(rollout).shape == (8, 2)

    @pytest.mark.parametrize("command, name", [
        ("flow", "posterior-exact"),
        ("simulate", "posterior-exact"),
        ("simulate", "learned-ffn"),
        ("simulate", "learned-rnn"),
    ])
    def test_controllers_without_targets_skip_the_coupling(
            self, command, name, checkpoints, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ot_assignment called")

        monkeypatch.setattr("avgflow.cli.ot_assignment", refuse)
        config = dict(self.config(name, checkpoints), coupling="ot")
        assert invoke(monkeypatch, tmp_path, command, config) == 0

    def test_teacher_and_deterministic_exact_flows_agree(self, tmp_path, monkeypatch):
        dirs = {}
        for name in ("teacher", "deterministic-exact"):
            root = tmp_path / name
            assert invoke(monkeypatch, root, "flow", dict(self.BASE, controller=name)) == 0
            dirs[name] = only_run_dir(root, "flow")
        for file in ("rollout.csv", "teacher_controls.csv", "coupling_plan.csv",
                     "metrics.csv"):
            assert (dirs["teacher"] / file).read_bytes() == (
                dirs["deterministic-exact"] / file).read_bytes(), file

    @pytest.mark.parametrize("name", ["teacher", "deterministic-exact", "learned-ffn"])
    def test_flow_builds_the_exact_control_table_once(self, name, tmp_path, monkeypatch):
        calls = []

        def counting(table, residual, *args, **kwargs):
            calls.append(residual.shape)
            return bridge_controls(table, residual, *args, **kwargs)

        monkeypatch.setattr("avgflow.sim.bridge_controls", counting)
        assert invoke(monkeypatch, tmp_path, "flow", dict(self.BASE, controller=name)) == 0
        assert calls == [(8, 2)]

    def test_simulate_posterior_needs_single_gaussian_start(
            self, tmp_path, monkeypatch, capsys):
        config = dict(self.BASE, controller="posterior-exact", mu0=self.MIXTURE)
        assert invoke(monkeypatch, tmp_path, "simulate", config) == 2
        assert "single-Gaussian" in capsys.readouterr().err

    @pytest.mark.parametrize("law", ["mu0", "muf"])
    @pytest.mark.parametrize("kind", ["feedforward", "recurrent", "gain"])
    def test_train_rejects_a_malformed_law(self, kind, law, tmp_path, monkeypatch, capsys):
        config = dict(self.BASE, controller=LEARNED[kind], **{law: {"type": "weird"}})
        assert invoke(monkeypatch, tmp_path, "train", config) == 2
        assert "unknown mixture type" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["learned-ffn", "learned-rnn"])
    def test_checkpoint_of_another_kind_exits_2(
            self, name, checkpoints, tmp_path, monkeypatch, capsys):
        config = dict(self.BASE, controller=name, checkpoint=checkpoints["gain"])
        assert invoke(monkeypatch, tmp_path, "simulate", config) == 2
        assert "gain model" in capsys.readouterr().err

    @pytest.mark.parametrize("fault, message", [
        ("no-sizes", "lacks the field 'sizes'"),
        ("misshapen-weight", "has shape"),
    ])
    def test_malformed_checkpoint_exits_2(
            self, fault, message, checkpoints, tmp_path, monkeypatch, capsys):
        with open(checkpoints["feedforward"]) as fh:
            payload = json.load(fh)
        if fault == "no-sizes":
            del payload["sizes"]
        else:
            payload["weights"][0] = [[0.5]]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(payload))
        config = dict(self.BASE, controller="learned-ffn", checkpoint=str(broken))
        assert invoke(monkeypatch, tmp_path / "s", "simulate", config) == 2
        assert message in capsys.readouterr().err


class TestMetricsCommand:
    @pytest.fixture()
    def left_csv(self, tmp_path, monkeypatch):
        config = {
            "n_steps": 50,
            "epsilons": [0.5],
            "bridge_paths": 16,
            "seed": 5,
        }
        invoke(monkeypatch, tmp_path / "traj", "bridge", config)
        run_dir = only_run_dir(tmp_path / "traj", "bridge")
        return str(run_dir / "trajectory_eps0.5.csv")

    def test_against_sampled_target(self, tmp_path, monkeypatch, left_csv):
        config = {
            "n_steps": 50,
            "left": left_csv,
            "muf": {"type": "gaussian", "mean": [1.0, 1.0], "cov": 0.01},
            "n_samples": 64,
        }
        code = invoke(monkeypatch, tmp_path / "m", "metrics", config)
        assert code == 0
        run_dir = only_run_dir(tmp_path / "m", "metrics")
        assert (run_dir / "metrics.txt").exists()
        assert (run_dir / "metrics.csv").exists()

    def test_identical_files_pass_the_strict_gate(self, tmp_path, monkeypatch, left_csv):
        config = {"n_steps": 50, "left": left_csv, "right": left_csv}
        code = invoke(
            monkeypatch, tmp_path / "m", "metrics", config, extra=["--strict"]
        )
        assert code == 0

    def test_shifted_target_fails_the_strict_gate(self, tmp_path, monkeypatch, left_csv):
        config = {
            "n_steps": 50,
            "left": left_csv,
            "muf": {"type": "gaussian", "mean": [9.0, 9.0], "cov": 0.01},
            "n_samples": 64,
        }
        code = invoke(
            monkeypatch, tmp_path / "m", "metrics", config, extra=["--strict"]
        )
        assert code == 5
        run_dir = only_run_dir(tmp_path / "m", "metrics")
        record = json.loads((run_dir / "error.json").read_text())
        assert record["exit_code"] == 5
        assert record["error"] == "MetricGateError"

    @pytest.mark.parametrize("command", ["metrics", "flow"])
    def test_n_projections_reaches_sliced_w2(self, command, tmp_path, monkeypatch, left_csv):
        config = {"n_steps": 50, "left": left_csv, "n_samples": 64}
        if command == "flow":
            config = {"n_steps": 20, "n_samples": 16, "controller": "deterministic-exact"}
        values = []
        for projections in (3, 128):
            config["metric"] = {"n_projections": projections}
            out = tmp_path / f"{command}{projections}"
            assert invoke(monkeypatch, out, command, config) == 0
            lines = (only_run_dir(out, command) / "metrics.csv").read_text().splitlines()
            values.append(dict(line.split(",") for line in lines)["sliced_w2"])
        assert values[0] != values[1]

    def test_left_is_required(self, tmp_path, monkeypatch, capsys):
        code = invoke(monkeypatch, tmp_path, "metrics", {"n_steps": 50})
        assert code == 2
        assert "'left'" in capsys.readouterr().err

    def test_non_trajectory_file_exits_2(self, tmp_path, monkeypatch, capsys):
        rogue = tmp_path / "rogue.csv"
        rogue.write_text("a,b\n1,2\n")
        config = {"n_steps": 50, "left": str(rogue)}
        code = invoke(monkeypatch, tmp_path, "metrics", config)
        assert code == 2
        assert "not a trajectory CSV" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("path_id,t,x1\n0,0,1\n0,1,2\n1,0,3\n", "ragged path lengths"),
        ("path_id,t,u1\n0,0,1\n0,1,2\n", "not a trajectory CSV"),
        ("path_id,t,x1,x2\n0,0,1,2\n0,1,oops,4\n", "cannot read trajectory file"),
        ("path_id,t,x1\n", "no trajectory rows"),
    ], ids=["ragged", "no-state-columns", "non-numeric", "no-rows"])
    def test_malformed_trajectory_exits_2(
            self, tmp_path, monkeypatch, capsys, text, message):
        rogue = tmp_path / "rogue.csv"
        rogue.write_text(text)
        config = {"n_steps": 50, "left": str(rogue)}
        assert invoke(monkeypatch, tmp_path, "metrics", config) == 2
        assert message in capsys.readouterr().err

    def test_missing_trajectory_file_exits_2(self, tmp_path, monkeypatch, capsys):
        config = {"n_steps": 50, "left": str(tmp_path / "absent.csv")}
        assert invoke(monkeypatch, tmp_path, "metrics", config) == 2
        assert "cannot read trajectory file" in capsys.readouterr().err


class TestOutputDirectoryPrecedence:
    def test_config_out_dir_used_without_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("AVGFLOW_OUT", raising=False)
        target = tmp_path / "from-config"
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"n_steps": 50, "out_dir": str(target)}))
        assert main(["kernel", "--config", str(cfg_path)]) == 0
        assert run_dirs(target, "kernel")

    def test_non_string_out_dir_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("AVGFLOW_OUT", raising=False)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "config.json").write_text(json.dumps({"n_steps": 50, "out_dir": 5}))
        assert main(["kernel", "--config", "config.json"]) == 2
        assert "'out_dir'" in capsys.readouterr().err
        record = json.loads((tmp_path / "runs" / "error.json").read_text())
        assert record["exit_code"] == 2 and record["error"] == "ConfigError"

    def test_env_overrides_config_out_dir(self, tmp_path, monkeypatch):
        env_target = tmp_path / "from-env"
        monkeypatch.setenv("AVGFLOW_OUT", str(env_target))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(
            json.dumps({"n_steps": 50, "out_dir": str(tmp_path / "ignored")})
        )
        assert main(["kernel", "--config", str(cfg_path)]) == 0
        assert run_dirs(env_target, "kernel")
        assert not (tmp_path / "ignored").exists()
