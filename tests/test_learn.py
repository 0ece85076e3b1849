"""Trainers: feedforward and recurrent control regression, gain regression."""

import numpy as np
import pytest

from avgflow import (
    ConfigError,
    DeterministicExactController,
    FeedforwardModel,
    GainModel,
    RecurrentModel,
    TimeGrid,
    TrainConfig,
    TrainReport,
    TrainingDivergenceError,
    bridge_ensemble,
    build_kernel_table,
    build_theta_ensemble,
    flatten_endpoint_dataset,
    load_model,
    ot_assignment,
    product_pairs,
    save_model,
    sequence_dataset,
    single_gaussian,
    train_feedforward,
    train_gain,
    train_recurrent,
)
from avgflow.learn import lstm_loss_and_grads, mlp_loss_and_grads


def constant_target_dataset(n_paths, n_steps, key, x_range=1.0):
    """Endpoint rows whose target is [0, 1] at every input."""
    rng = np.random.Generator(np.random.Philox(key=[key, 0]))
    x0s = rng.uniform(-x_range, x_range, size=(n_paths, 2))
    grid = TimeGrid(1.0, n_steps)
    controls = np.broadcast_to([0.0, 1.0], (n_paths, n_steps + 1, 2)).copy()
    inputs, targets = flatten_endpoint_dataset(x0s, controls, grid.times)
    return inputs, targets, rng


class TestDatasets:
    def test_flatten_is_path_major(self):
        x0s = np.array([[1.0, 2.0], [3.0, 4.0]])
        controls = np.arange(2 * 3 * 2, dtype=float).reshape(2, 3, 2)
        times = np.array([0.0, 0.5, 1.0])
        inputs, targets = flatten_endpoint_dataset(x0s, controls, times)
        assert inputs.shape == (6, 3) and targets.shape == (6, 2)
        np.testing.assert_array_equal(inputs[0], [1.0, 2.0, 0.0])
        np.testing.assert_array_equal(inputs[2], [1.0, 2.0, 1.0])
        np.testing.assert_array_equal(inputs[4], [3.0, 4.0, 0.5])
        np.testing.assert_array_equal(targets[4], controls[1, 1])

    def test_sequence_dataset_drops_terminal_index(self):
        paths, steps = 3, 4
        x0s = np.arange(paths * 2, dtype=float).reshape(paths, 2)
        noise = np.random.default_rng(0).normal(size=(paths, steps + 1, 2))
        controls = np.random.default_rng(1).normal(size=(paths, steps + 1, 2))
        times = np.linspace(0.0, 1.0, steps + 1)
        feats, targets = sequence_dataset(x0s, noise, controls, times)
        assert feats.shape == (paths, steps, 5)
        assert targets.shape == (paths, steps, 2)
        np.testing.assert_array_equal(feats[1, 2, :2], x0s[1])
        assert feats[1, 2, 2] == times[2]
        np.testing.assert_array_equal(feats[1, 2, 3:], noise[1, 2])
        np.testing.assert_array_equal(targets[:, -1], controls[:, steps - 1])


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": -1},
            {"batch_size": 0},
            {"learning_rate": 0.0},
            {"late_learning_rate": -1e-3},
            {"val_fraction": 1.0},
            {"hidden_size": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)

    def test_zero_epochs_allowed(self):
        assert TrainConfig(epochs=0).epochs == 0


class TestTrainReport:
    def test_losses_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            TrainReport([1.0, -0.5], [1.0, 1.0], [1e-3, 1e-3], 0, 1)

    def test_csv_roundtrip(self, tmp_path):
        report = TrainReport([2.0, 1.0], [2.5, 1.5], [1e-3, 1e-4], 3, 1)
        out = tmp_path / "report.csv"
        report.to_csv(str(out))
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "epoch,train_loss,val_loss,lr"
        assert rows[1].split(",") == ["0", "2", "2.5", "0.001"]
        assert rows[2].split(",")[0] == "1"


class TestFeedforward:
    def test_constant_map_fit(self):
        inputs, targets, rng = constant_target_dataset(200, 20, key=71)
        config = TrainConfig(
            epochs=1500, hidden_size=16, late_learning_rate=1e-5, seed=1
        )
        model, report = train_feedforward(inputs, targets, config)
        held_out = np.column_stack(
            [rng.uniform(-1, 1, size=(300, 2)), rng.uniform(0, 1, 300)]
        )
        dev = np.max(np.abs(model.forward(held_out) - [0.0, 1.0]))
        assert dev <= 1e-3
        assert report.train_loss[-1] < report.train_loss[0]

    def test_ot_coupled_validation_loss_drops_tenfold(self, ou2d_fine):
        mu0 = single_gaussian([1.0, 0.0], 0.0025 * np.eye(2))
        muf = single_gaussian([1.0, 1.0], 0.04 * np.eye(2))
        pairs = product_pairs(mu0, muf, 1000, seed=72)
        plan = ot_assignment(pairs.x0s, pairs.xfs)
        controls = DeterministicExactController(
            pairs.xfs[plan.permutation]
        ).open_loop(ou2d_fine, pairs.x0s)
        inputs, targets = flatten_endpoint_dataset(
            pairs.x0s, controls, ou2d_fine.grid.times
        )
        model, report = train_feedforward(
            inputs, targets, TrainConfig(epochs=3, seed=5)
        )
        assert report.val_loss[-1] <= report.val_loss[0] / 10.0

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_divergence_reports_batch(self):
        inputs, targets, _ = constant_target_dataset(20, 5, key=78)
        with pytest.raises(TrainingDivergenceError, match="non-finite loss") as info:
            train_feedforward(
                inputs, targets,
                TrainConfig(epochs=12, learning_rate=1e200, seed=0),
            )
        assert info.value.epoch is not None
        assert info.value.batch_index is not None

    def test_training_is_deterministic(self):
        inputs, targets, _ = constant_target_dataset(50, 10, key=79)
        config = TrainConfig(epochs=5, seed=2)
        model_a, report_a = train_feedforward(inputs, targets, config)
        model_b, report_b = train_feedforward(inputs, targets, config)
        assert report_a.train_loss == report_b.train_loss
        assert report_a.val_loss == report_b.val_loss
        for wa, wb in zip(model_a.params, model_b.params):
            np.testing.assert_array_equal(wa, wb)


class TestMeanCollapse:
    def test_product_coupling_learns_the_conditional_mean(self):
        # Independent endpoints: the best square-error predictor of
        # u = xf - x0 given x0 is E[xf] - x0, and the residual variance is
        # the target-noise floor.
        rng = np.random.Generator(np.random.Philox(key=[73, 0]))
        n = 2000
        grid = TimeGrid(1.0, 10)
        x0s = rng.uniform(-1, 1, size=(n, 2))
        xfs = np.array([2.0, 1.0]) + 0.3 * rng.normal(size=(n, 2))
        controls = np.broadcast_to(
            (xfs - x0s)[:, None, :], (n, 11, 2)
        ).copy()
        inputs, targets = flatten_endpoint_dataset(x0s, controls, grid.times)
        model, report = train_feedforward(
            inputs, targets,
            TrainConfig(epochs=120, late_learning_rate=1e-4, seed=6),
        )
        floor = np.mean((xfs - xfs.mean(axis=0)) ** 2)
        assert abs(report.train_loss[-1] / floor - 1.0) <= 0.1

        pred = model.forward(inputs)
        analytic = np.repeat(xfs.mean(axis=0) - x0s, 11, axis=0)
        mse_analytic = np.mean((pred - analytic) ** 2)
        # No single teacher trajectory explains the fitted map as well as
        # the analytic conditional-mean map does.
        singles = controls[:50, 0, :]
        mse_singles = np.mean(
            (pred[None, :, :] - singles[:, None, :]) ** 2, axis=(1, 2)
        )
        assert mse_analytic < mse_singles.min()
        assert mse_analytic < 0.05 * floor


class TestRecurrent:
    def test_memoryless_targets_match_feedforward_quality(self):
        # With zero noise features the targets are constant per path, and
        # the sequence model should do about as well as the plain regressor.
        rng = np.random.Generator(np.random.Philox(key=[74, 0]))
        n_paths, n_steps = 128, 20
        grid = TimeGrid(1.0, n_steps)
        x0s = rng.uniform(-0.5, 0.5, size=(n_paths, 2))
        xfs = np.array([2.0, 1.0]) + 0.1 * rng.normal(size=(n_paths, 2))
        controls = np.broadcast_to(
            (xfs - x0s)[:, None, :], (n_paths, n_steps + 1, 2)
        ).copy()
        noise = np.zeros((n_paths, n_steps + 1, 2))
        feats, seq_targets = sequence_dataset(x0s, noise, controls, grid.times)
        _, rnn_report = train_recurrent(
            feats, seq_targets,
            TrainConfig(epochs=500, batch_size=32, hidden_size=32, seed=7),
        )
        inputs, targets = flatten_endpoint_dataset(
            x0s, controls[:, :n_steps], grid.times[:n_steps]
        )
        _, ffn_report = train_feedforward(
            inputs, targets,
            TrainConfig(epochs=500, late_learning_rate=1e-4, seed=7),
        )
        assert rnn_report.train_loss[-1] <= 2.0 * ffn_report.train_loss[-1]

    def test_shuffled_noise_features_hurt(self):
        # Decoupling the noise features from their paths removes the signal
        # the memory term carries, so the fit plateaus strictly higher.
        table = build_kernel_table(
            build_theta_ensemble("ou2d", 64), TimeGrid(1.0, 50)
        )
        mu0 = single_gaussian([1.0, 0.0], 0.01 * np.eye(2))
        muf = single_gaussian([1.0, 1.0], 0.04 * np.eye(2))
        pairs = product_pairs(mu0, muf, 128, seed=75)
        ens = bridge_ensemble(table, pairs.x0s, pairs.xfs, 0.5, seed=76)
        feats, targets = sequence_dataset(
            pairs.x0s, ens.noise, ens.controls, table.grid.times
        )
        perm = np.random.Generator(
            np.random.Philox(key=[77, 0])
        ).permutation(128)
        feats_shuffled, _ = sequence_dataset(
            pairs.x0s, ens.noise[perm], ens.controls, table.grid.times
        )
        config = TrainConfig(epochs=120, batch_size=32, hidden_size=32, seed=9)
        _, paired = train_recurrent(feats, targets, config)
        _, shuffled = train_recurrent(feats_shuffled, targets, config)
        assert shuffled.train_loss[-1] > 1.5 * paired.train_loss[-1]

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="aligned"):
            train_recurrent(
                np.zeros((3, 5, 4)), np.zeros((2, 5, 2)), TrainConfig(epochs=1)
            )


class TestGain:
    def test_constant_family_gain_is_identity(self, const_table):
        config = TrainConfig(
            epochs=12_000, hidden_size=32, learning_rate=1e-2, seed=10
        )
        model, report = train_gain(const_table, config)
        trace = model.gain_trace(const_table.grid.times)
        sup = np.max(np.abs(trace - np.broadcast_to(np.eye(2), trace.shape)))
        assert sup <= 1e-3
        assert report.train_loss[-1] < report.train_loss[0]

    def test_ou2d_gain_tracks_the_table(self, ou2d_table):
        config = TrainConfig(epochs=4000, hidden_size=64, seed=10)
        model, _ = train_gain(ou2d_table, config)
        trace = model.gain_trace(ou2d_table.grid.times)
        assert np.max(np.abs(trace - ou2d_table.k_gain)) <= 1e-2

    def test_zero_epochs_leave_the_model_untouched(self, const_table):
        config = TrainConfig(epochs=0, hidden_size=32, seed=10)
        model, report = train_gain(const_table, config)
        assert len(report.train_loss) == 1
        assert report.train_loss[0] == report.train_loss[-1]
        fresh = GainModel(
            const_table.dim_control, const_table.dim_state,
            hidden_size=32, seed=10,
            input_mean=model.net.input_mean, input_std=model.net.input_std,
        )
        np.testing.assert_array_equal(
            model.gain_trace(const_table.grid.times),
            fresh.gain_trace(const_table.grid.times),
        )

    def test_gain_shape(self, ou2d_table):
        model = GainModel(2, 2, hidden_size=8, seed=0)
        assert model.gain_trace(np.array([0.3]))[0].shape == (2, 2)
        assert model.gain_trace(np.array([0.0, 0.5])).shape == (2, 2, 2)


class TestSchedules:
    """``report.learning_rates`` follows the legs documented on TrainConfig:
    halves for the feedforward (when a late rate is set) and recurrent
    trainers, thirds for the gain trainer."""

    HALVES = {5: [0, 0, 0, 1, 1, 1], 7: [0, 0, 0, 0, 1, 1, 1, 1]}
    THIRDS = {5: [0, 0, 1, 1, 2, 2], 7: [0, 0, 0, 1, 1, 2, 2, 2]}

    @staticmethod
    def config(epochs, late):
        return TrainConfig(epochs=epochs, batch_size=8, hidden_size=4,
                           learning_rate=1e-2, late_learning_rate=late, seed=3)

    @pytest.mark.parametrize("epochs", [5, 7])
    @pytest.mark.parametrize("late", [None, 3e-3])
    def test_feedforward(self, epochs, late):
        rng = np.random.default_rng(0)
        _, report = train_feedforward(
            rng.normal(size=(20, 3)), rng.normal(size=(20, 2)), self.config(epochs, late)
        )
        if late is None:
            assert report.learning_rates == [1e-2] * (epochs + 1)
        else:
            assert report.learning_rates == [[1e-2, late][i] for i in self.HALVES[epochs]]

    @pytest.mark.parametrize("epochs", [5, 7])
    @pytest.mark.parametrize("late", [None, 3e-3])
    def test_recurrent(self, epochs, late):
        rng = np.random.default_rng(1)
        _, report = train_recurrent(
            rng.normal(size=(6, 3, 2)), rng.normal(size=(6, 3, 1)), self.config(epochs, late)
        )
        legs = [1e-2, 1e-2 / 10.0 if late is None else late]
        assert report.learning_rates == [legs[i] for i in self.HALVES[epochs]]

    @pytest.mark.parametrize("epochs", [5, 7])
    @pytest.mark.parametrize("late", [None, 3e-3])
    def test_gain(self, epochs, late, const_table):
        _, report = train_gain(const_table, self.config(epochs, late))
        second = 1e-2 / 10.0 if late is None else late
        legs = [1e-2, second, second / 10.0]
        assert report.learning_rates == [legs[i] for i in self.THIRDS[epochs]]


def finite_difference_worst_error(model, loss_fn, args, key, n_per_layer=5):
    """Max relative gap between analytic and central-difference gradients."""
    rng = np.random.Generator(np.random.Philox(key=[key, 0]))
    h = 1e-5
    _, grads = loss_fn(model, *args)
    worst = 0.0
    for param, grad in zip(model.params, grads):
        for _ in range(n_per_layer):
            idx = int(rng.integers(param.size))
            orig = param.flat[idx]
            param.flat[idx] = orig + h
            up, _ = loss_fn(model, *args)
            param.flat[idx] = orig - h
            down, _ = loss_fn(model, *args)
            param.flat[idx] = orig
            fd = (up - down) / (2 * h)
            denom = max(abs(fd), abs(grad.flat[idx]), 1e-12)
            worst = max(worst, abs(fd - grad.flat[idx]) / denom)
    return worst


class TestGradients:
    def test_feedforward_gradients_match_finite_differences(self):
        rng = np.random.Generator(np.random.Philox(key=[80, 0]))
        model = FeedforwardModel((3, 16, 16, 2), seed=0)
        x = rng.normal(size=(40, 3))
        y = rng.normal(size=(40, 2))
        assert finite_difference_worst_error(
            model, mlp_loss_and_grads, (x, y), key=81
        ) <= 1e-4

    def test_recurrent_gradients_match_finite_differences(self):
        rng = np.random.Generator(np.random.Philox(key=[82, 0]))
        model = RecurrentModel(5, 12, 2, seed=0)
        feats = rng.normal(size=(8, 15, 5))
        targets = rng.normal(size=(8, 15, 2))
        assert finite_difference_worst_error(
            model, lstm_loss_and_grads, (feats, targets), key=83
        ) <= 1e-4


def reference_mlp(model, x, targets):
    """The plain MLP pass and its reverse sweep, one fresh array per step."""
    z = (x - model.input_mean) / model.input_std
    hiddens = [z]
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = np.tanh(z @ w + b)
        hiddens.append(z)
    out = z @ model.weights[-1] + model.biases[-1]
    diff = out - targets
    dz = ((2.0 / diff.size) * diff) @ model.weights[-1].T
    grads = [hiddens[-1].T @ ((2.0 / diff.size) * diff), ((2.0 / diff.size) * diff).sum(axis=0)]
    for layer in range(len(model.weights) - 2, -1, -1):
        h = hiddens[layer + 1]
        da = dz * (1.0 - h * h)
        grads[:0] = [hiddens[layer].T @ da, da.sum(axis=0)]
        dz = da @ model.weights[layer].T
    return out, float(np.mean(diff * diff)), grads


class TestInPlacePasses:
    """The in-place forward and reverse passes compute bit for bit what the
    plain formulas compute."""

    def test_forward_matches_plain_pass_across_chunks(self):
        from avgflow.learn import _EVAL_CHUNK

        rng = np.random.Generator(np.random.Philox(key=[84, 0]))
        model = FeedforwardModel(
            (3, 16, 16, 2), seed=5,
            input_mean=rng.normal(size=3), input_std=rng.uniform(0.5, 2.0, size=3),
        )
        model.biases = [rng.normal(size=b.shape) for b in model.biases]
        x = rng.normal(size=(_EVAL_CHUNK + 100, 3))
        expected = np.concatenate([
            reference_mlp(model, x[lo : lo + _EVAL_CHUNK], 0.0)[0]
            for lo in range(0, x.shape[0], _EVAL_CHUNK)
        ])
        np.testing.assert_array_equal(model.forward(x), expected)
        np.testing.assert_array_equal(model.forward(x[:7]), reference_mlp(model, x[:7], 0.0)[0])

    def test_loss_and_grads_match_plain_sweep(self):
        rng = np.random.Generator(np.random.Philox(key=[85, 0]))
        model = FeedforwardModel((3, 16, 16, 2), seed=6)
        model.biases = [rng.normal(size=b.shape) for b in model.biases]
        x = rng.normal(size=(300, 3))
        y = rng.normal(size=(300, 2))
        _, loss, grads = reference_mlp(model, x, y)
        got_loss, got_grads = mlp_loss_and_grads(model, x, y)
        assert got_loss == loss
        for got, want in zip(got_grads, grads):
            np.testing.assert_array_equal(got, want)


class TestCheckpoints:
    def test_feedforward_roundtrip(self, tmp_path):
        model = FeedforwardModel(
            (3, 8, 8, 2), seed=4,
            input_mean=np.array([0.1, 0.2, 0.3]),
            input_std=np.array([1.0, 2.0, 3.0]),
        )
        path = tmp_path / "ffn.json"
        save_model(model, str(path))
        loaded = load_model(str(path))
        probe = np.random.default_rng(5).normal(size=(6, 3))
        np.testing.assert_array_equal(loaded.forward(probe), model.forward(probe))

    def test_recurrent_roundtrip(self, tmp_path):
        model = RecurrentModel(5, 6, 2, seed=4)
        path = tmp_path / "rnn.json"
        save_model(model, str(path))
        loaded = load_model(str(path))
        probe = np.random.default_rng(6).normal(size=(3, 7, 5))
        np.testing.assert_array_equal(loaded.forward(probe), model.forward(probe))

    def test_gain_roundtrip(self, tmp_path):
        model = GainModel(2, 2, hidden_size=8, seed=4)
        path = tmp_path / "gain.json"
        save_model(model, str(path))
        loaded = load_model(str(path))
        times = np.linspace(0.0, 1.0, 7)
        np.testing.assert_array_equal(
            loaded.gain_trace(times), model.gain_trace(times)
        )

    # Checkpoint format v1, byte for byte: header, shape fields, then arrays,
    # in this key order.
    V1 = {
        "feedforward": (
            '{"format": "avgflow-model", "version": 1, "kind": "feedforward", '
            '"activation": "tanh", "sizes": [1, 2, 1], '
            '"weights": [[[0.5, -0.25]], [[0.5], [-0.25]]], '
            '"biases": [[0.0, 0.125], [-1.0]], "input_mean": [0.5], "input_std": [2.0]}'
        ),
        "recurrent": (
            '{"format": "avgflow-model", "version": 1, "kind": "recurrent", '
            '"activation": "tanh", "input_size": 1, "hidden_size": 1, "output_size": 1, '
            '"weights": {"wx": [[0.5, -0.25, 0.5, -0.25]], "wh": [[-0.25, 0.5, -0.25, 0.5]], '
            '"b": [0.0, 1.0, 0.0, 0.0], "wo": [[0.5]], "bo": [-0.25]}, '
            '"input_mean": [0.25], "input_std": [1.0]}'
        ),
        "gain": (
            '{"format": "avgflow-model", "version": 1, "kind": "gain", '
            '"activation": "tanh", "sizes": [1, 1, 1, 1], "output_shape": [1, 1], '
            '"weights": [[[0.5]], [[-0.25]], [[0.5]]], '
            '"biases": [[0.0], [0.125], [-0.25]], "input_mean": [0.5], "input_std": [0.25]}'
        ),
    }

    @staticmethod
    def tiny_model(kind):
        if kind == "feedforward":
            model = FeedforwardModel((1, 2, 1), input_mean=[0.5], input_std=[2.0])
            model.weights = [np.array([[0.5, -0.25]]), np.array([[0.5], [-0.25]])]
            model.biases = [np.array([0.0, 0.125]), np.array([-1.0])]
        elif kind == "recurrent":
            model = RecurrentModel(1, 1, 1, input_mean=[0.25], input_std=[1.0])
            model.wx = np.array([[0.5, -0.25, 0.5, -0.25]])
            model.wh = np.array([[-0.25, 0.5, -0.25, 0.5]])
            model.b = np.array([0.0, 1.0, 0.0, 0.0])
            model.wo = np.array([[0.5]])
            model.bo = np.array([-0.25])
        else:
            model = GainModel(1, 1, hidden_size=1, input_mean=[0.5], input_std=[0.25])
            model.net.weights = [np.array([[0.5]]), np.array([[-0.25]]), np.array([[0.5]])]
            model.net.biases = [np.array([0.0]), np.array([0.125]), np.array([-0.25])]
        return model

    @pytest.mark.parametrize("kind", ["feedforward", "recurrent", "gain"])
    def test_format_v1_bytes(self, kind, tmp_path):
        path = tmp_path / "model.json"
        save_model(self.tiny_model(kind), str(path))
        assert path.read_text() == self.V1[kind]
        again = tmp_path / "again.json"
        save_model(load_model(str(path)), str(again))
        assert again.read_text() == self.V1[kind]

    @pytest.mark.parametrize("kind, old, new, message", [
        ("feedforward", '"sizes": [1, 2, 1], ', "", "lacks the field 'sizes'"),
        ("feedforward", "[[[0.5, -0.25]]", "[[[0.5, -0.25, 0.5]]",
         r"'weights\[0\]' has shape \(1, 3\), expected \(1, 2\)"),
        ("feedforward", "[[0.5], [-0.25]]", '[["oops"], [-0.25]]', "could not convert"),
        ("feedforward", "[[0.0, 0.125], [-1.0]]", "[[0.0, 0.125]]",
         "'biases' must be a list of 2 arrays"),
        ("feedforward", '"input_std": [2.0]', '"input_std": [null]', "non-finite"),
        ("recurrent", '"wh": [[-0.25, 0.5, -0.25, 0.5]], ', "", "lacks the field 'wh'"),
    ], ids=["no-sizes", "misshapen-weight", "non-numeric-cell", "short-list", "null-cell",
            "no-gate-matrix"])
    def test_malformed_checkpoint_rejected(self, kind, old, new, message, tmp_path):
        assert old in self.V1[kind]
        path = tmp_path / "model.json"
        path.write_text(self.V1[kind].replace(old, new))
        with pytest.raises(ConfigError, match=message):
            load_model(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_model(str(tmp_path / "nope.json"))

    def test_foreign_json_rejected(self, tmp_path):
        path = tmp_path / "foreign.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ConfigError, match="not a model checkpoint"):
            load_model(str(path))

    def test_future_version_rejected(self, tmp_path):
        model = FeedforwardModel((2, 4, 4, 1), seed=0)
        path = tmp_path / "model.json"
        save_model(model, str(path))
        import json

        payload = json.loads(path.read_text())
        payload["version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="version"):
            load_model(str(path))

    def test_unknown_kind_rejected_on_save(self, tmp_path):
        class Weird:
            kind = "weird"

        with pytest.raises(ValueError, match="unknown model kind"):
            save_model(Weird(), str(tmp_path / "weird.json"))
