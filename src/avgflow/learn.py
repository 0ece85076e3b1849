"""Control-law regression.

Three model families cover the pipelines: a feedforward net u(x0, t) for the
deterministic coupled flow, a gated recurrent net consuming the per-path noise
feature sequence for the stochastic flow, and a small net in the single input
t that regresses the feedback gain matrix.  Gradients are reverse-mode,
computed in this module (no autodiff dependency), so they can be verified
against finite differences.  All training is Adam on mean squared error.

Training is deterministic: parameter init and batch shuffling derive from a
counter-based generator keyed by the config seed, and gradient reductions run
in a fixed order.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .errors import ConfigError, TrainingDivergenceError

CHECKPOINT_FORMAT = "avgflow-model"
CHECKPOINT_VERSION = 1

_EVAL_CHUNK = 65536


def _rng(seed, stream=0):
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def _uniform_fan_in(rng, fan_in, shape):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


@dataclass
class TrainConfig:
    """Hyperparameters shared by the three trainers.

    Each trainer splits its epochs into equal legs of constant learning rate;
    epoch ``e`` of ``epochs`` with ``L`` legs runs on leg ``(e * L - 1) //
    epochs``.  The legs, with ``late`` the ``late_learning_rate``:

    - feedforward: ``[learning_rate]``, or ``[learning_rate, late]`` when
      ``late_learning_rate`` is set;
    - recurrent: ``[learning_rate, late]``;
    - gain: ``[learning_rate, late, late / 10]``.

    For the recurrent and gain trainers an unset ``late_learning_rate`` means
    one tenth of ``learning_rate``.
    """

    epochs: int = 40
    batch_size: int = 256
    learning_rate: float = 1e-3
    late_learning_rate: float = None
    hidden_size: int = 64
    val_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError("epochs must be nonnegative")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        if not (self.learning_rate > 0):
            raise ConfigError("learning_rate must be positive")
        if self.late_learning_rate is not None and not (self.late_learning_rate > 0):
            raise ConfigError("late_learning_rate must be positive")
        if not (0 <= self.val_fraction < 1):
            raise ConfigError("val_fraction must lie in [0, 1)")
        if self.hidden_size < 1:
            raise ConfigError("hidden_size must be positive")


@dataclass
class TrainReport:
    """Loss traces, one entry per epoch plus the pre-training entry 0."""

    train_loss: list
    val_loss: list
    learning_rates: list
    seed: int
    epochs: int

    def __post_init__(self):
        for name in ("train_loss", "val_loss"):
            values = getattr(self, name)
            if any(not np.isfinite(v) or v < 0 for v in values):
                raise ValueError(f"{name} entries must be finite and nonnegative")

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.write("epoch,train_loss,val_loss,lr\n")
            for e, (tr, va, lr) in enumerate(
                zip(self.train_loss, self.val_loss, self.learning_rates)
            ):
                fh.write(f"{e},{tr:.17g},{va:.17g},{lr:.17g}\n")


class FeedforwardModel:
    """Tanh MLP.  Default shape: input -> 64 -> 64 -> output, linear readout.

    Inputs are normalized with stored per-feature mean/std before the first
    layer, so checkpoints are self-contained.
    """

    kind = "feedforward"

    def __init__(self, sizes, seed=0, input_mean=None, input_std=None):
        sizes = tuple(int(s) for s in sizes)
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.sizes = sizes
        rng = _rng(seed, stream=101)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            self.weights.append(_uniform_fan_in(rng, fan_in, (fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))
        din = sizes[0]
        self.input_mean = np.zeros(din) if input_mean is None else np.asarray(input_mean, float)
        self.input_std = np.ones(din) if input_std is None else np.asarray(input_std, float)

    @classmethod
    def from_spec(cls, spec):
        return cls(spec["sizes"])

    @property
    def spec(self):
        return {"sizes": list(self.sizes)}

    @property
    def arrays(self):
        return {"weights": self.weights, "biases": self.biases,
                "input_mean": self.input_mean, "input_std": self.input_std}

    @property
    def params(self):
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def _normalize(self, x):
        return (x - self.input_mean) / self.input_std

    def forward(self, x):
        """Plain prediction in chunks of ``_EVAL_CHUNK`` rows.

        Every chunk reuses one activation buffer per hidden layer, so large
        grids neither blow up memory nor fault in fresh pages per chunk.
        """
        x = np.atleast_2d(np.asarray(x, float))
        out = np.empty((x.shape[0], self.sizes[-1]))
        rows = min(x.shape[0], _EVAL_CHUNK)
        buffers = [np.empty((rows, n)) for n in self.sizes[1:-1]]
        for lo in range(0, x.shape[0], _EVAL_CHUNK):
            z = self._normalize(x[lo : lo + _EVAL_CHUNK])
            n = z.shape[0]
            for w, b, buf in zip(self.weights[:-1], self.biases[:-1], buffers):
                z = _tanh_layer(z, w, b, buf[:n])
            np.matmul(z, self.weights[-1], out=out[lo : lo + n])
            out[lo : lo + n] += self.biases[-1]
        return out

    __call__ = forward


def _tanh_layer(z, w, b, out=None):
    """tanh(z @ w + b), with the bias and the activation applied in place."""
    a = np.matmul(z, w, out=out)
    a += b
    return np.tanh(a, out=a)


def _mlp_forward_cached(model, x):
    z = model._normalize(x)
    hiddens = [z]
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = _tanh_layer(z, w, b)
        hiddens.append(z)
    out = z @ model.weights[-1]
    out += model.biases[-1]
    return out, hiddens


def mlp_loss_and_grads(model, inputs, targets):
    """Mean squared error and gradients in ``model.params`` order."""
    out, hiddens = _mlp_forward_cached(model, inputs)
    diff = out - targets
    loss = float(np.mean(diff * diff))
    dout = diff
    dout *= 2.0 / diff.size
    n_layers = len(model.weights)
    grads_w = [None] * n_layers
    grads_b = [None] * n_layers
    grads_w[-1] = hiddens[-1].T @ dout
    grads_b[-1] = dout.sum(axis=0)
    dz = dout @ model.weights[-1].T
    for layer in range(n_layers - 2, -1, -1):
        # The activations of this layer are dead after this point, so the
        # tanh derivative 1 - h^2 overwrites them.
        da = hiddens[layer + 1]
        da *= da
        np.subtract(1.0, da, out=da)
        da *= dz
        grads_w[layer] = hiddens[layer].T @ da
        grads_b[layer] = da.sum(axis=0)
        if layer:
            dz = da @ model.weights[layer].T
    grads = []
    for gw, gb in zip(grads_w, grads_b):
        grads.append(gw)
        grads.append(gb)
    return loss, grads


class RecurrentModel:
    """Single-layer gated recurrent cell (LSTM gates) with a linear readout.

    The hidden and cell states start at zero for every sequence.  Gate order
    in the packed weight matrices is input, forget, candidate, output; the
    forget-gate bias starts at one so early training does not wash out the
    memory path.
    """

    kind = "recurrent"

    def __init__(self, input_size, hidden_size, output_size, seed=0, input_mean=None, input_std=None):
        self.input_size = int(input_size)
        self.hidden_size = int(hidden_size)
        self.output_size = int(output_size)
        rng = _rng(seed, stream=202)
        h = self.hidden_size
        self.wx = _uniform_fan_in(rng, self.input_size, (self.input_size, 4 * h))
        self.wh = _uniform_fan_in(rng, h, (h, 4 * h))
        self.b = np.zeros(4 * h)
        self.b[h : 2 * h] = 1.0
        self.wo = _uniform_fan_in(rng, h, (h, self.output_size))
        self.bo = np.zeros(self.output_size)
        din = self.input_size
        self.input_mean = np.zeros(din) if input_mean is None else np.asarray(input_mean, float)
        self.input_std = np.ones(din) if input_std is None else np.asarray(input_std, float)

    @classmethod
    def from_spec(cls, spec):
        return cls(spec["input_size"], spec["hidden_size"], spec["output_size"])

    @property
    def spec(self):
        return {"input_size": self.input_size, "hidden_size": self.hidden_size,
                "output_size": self.output_size}

    @property
    def arrays(self):
        weights = {"wx": self.wx, "wh": self.wh, "b": self.b, "wo": self.wo, "bo": self.bo}
        return {"weights": weights, "input_mean": self.input_mean, "input_std": self.input_std}

    @property
    def params(self):
        return [self.wx, self.wh, self.b, self.wo, self.bo]

    def _normalize(self, feats):
        return (feats - self.input_mean) / self.input_std

    def forward(self, feats):
        """feats (batch, steps, input_size) -> outputs (batch, steps, output_size)."""
        out, _ = _lstm_forward_cached(self, np.asarray(feats, float), keep_cache=False)
        return out

    __call__ = forward


def _lstm_forward_cached(model, feats, keep_cache=True):
    feats = model._normalize(feats)
    batch, steps, _ = feats.shape
    h_size = model.hidden_size
    h = np.zeros((batch, h_size))
    c = np.zeros((batch, h_size))
    outputs = np.empty((batch, steps, model.output_size))
    cache = [] if keep_cache else None
    for t in range(steps):
        x_t = feats[:, t, :]
        z = x_t @ model.wx + h @ model.wh + model.b
        gi = expit(z[:, :h_size])
        gf = expit(z[:, h_size : 2 * h_size])
        gg = np.tanh(z[:, 2 * h_size : 3 * h_size])
        go = expit(z[:, 3 * h_size :])
        c_new = gf * c + gi * gg
        tc = np.tanh(c_new)
        h_new = go * tc
        outputs[:, t, :] = h_new @ model.wo + model.bo
        if keep_cache:
            cache.append((x_t, h, c, gi, gf, gg, go, tc))
        h, c = h_new, c_new
    return outputs, cache


def lstm_loss_and_grads(model, feats, targets):
    """MSE over (batch, steps, outputs) with full backpropagation through time."""
    feats = np.asarray(feats, float)
    out, cache = _lstm_forward_cached(model, feats)
    diff = out - targets
    loss = float(np.mean(diff * diff))
    dout = (2.0 / diff.size) * diff

    h_size = model.hidden_size
    d_wx = np.zeros_like(model.wx)
    d_wh = np.zeros_like(model.wh)
    d_b = np.zeros_like(model.b)
    d_wo = np.zeros_like(model.wo)
    d_bo = np.zeros_like(model.bo)
    dh_next = np.zeros((feats.shape[0], h_size))
    dc_next = np.zeros((feats.shape[0], h_size))
    for t in range(feats.shape[1] - 1, -1, -1):
        x_t, h_prev, c_prev, gi, gf, gg, go, tc = cache[t]
        dy = dout[:, t, :]
        h_t = go * tc
        d_wo += h_t.T @ dy
        d_bo += dy.sum(axis=0)
        dh = dy @ model.wo.T + dh_next
        d_go = dh * tc
        dc = dc_next + dh * go * (1.0 - tc * tc)
        d_gf = dc * c_prev
        d_gi = dc * gg
        d_gg = dc * gi
        dz = np.concatenate(
            [
                d_gi * gi * (1.0 - gi),
                d_gf * gf * (1.0 - gf),
                d_gg * (1.0 - gg * gg),
                d_go * go * (1.0 - go),
            ],
            axis=1,
        )
        d_wx += x_t.T @ dz
        d_wh += h_prev.T @ dz
        d_b += dz.sum(axis=0)
        dh_next = dz @ model.wh.T
        dc_next = dc * gf
    return loss, [d_wx, d_wh, d_b, d_wo, d_bo]


class GainModel:
    """Time-to-gain regressor: t maps to an (m, d) feedback matrix."""

    kind = "gain"

    def __init__(self, dim_control, dim_state, hidden_size=64, seed=0, input_mean=None, input_std=None):
        self.dim_control = int(dim_control)
        self.dim_state = int(dim_state)
        self.net = FeedforwardModel(
            (1, hidden_size, hidden_size, self.dim_control * self.dim_state),
            seed=seed,
            input_mean=input_mean,
            input_std=input_std,
        )

    @classmethod
    def from_spec(cls, spec):
        m, d = spec["output_shape"]
        return cls(m, d, hidden_size=spec["sizes"][1])

    @property
    def spec(self):
        return {"sizes": list(self.net.sizes), "output_shape": [self.dim_control, self.dim_state]}

    @property
    def arrays(self):
        return self.net.arrays

    @property
    def params(self):
        return self.net.params

    def gain_trace(self, times):
        flat = self.net.forward(np.asarray(times, float).reshape(-1, 1))
        return flat.reshape(-1, self.dim_control, self.dim_state)


class Adam:
    def __init__(self, params, learning_rate=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads):
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p -= self.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def _check_finite(loss, epoch, batch_index):
    if not np.isfinite(loss):
        raise TrainingDivergenceError(
            f"non-finite loss at epoch {epoch}, batch {batch_index}",
            epoch=epoch,
            batch_index=batch_index,
        )


def _normalization(x):
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return mean, std


def _split(data, val_fraction, rng):
    """(train, val) row subsets of the arrays in ``data``; val is None when
    the fraction rounds to no rows."""
    n = data[0].shape[0]
    order = rng.permutation(n)
    n_val = min(int(round(n * val_fraction)), n - 1)
    train = tuple(a[order[n_val:]] for a in data)
    return train, (tuple(a[order[:n_val]] for a in data) if n_val else None)


def endpoint_features(x0s, times):
    """(x0, t) inputs of every path at every time, (N*T, d+1), path-major."""
    x0s = np.asarray(x0s, float)
    times = np.asarray(times, float)
    rep_x0 = np.repeat(x0s, times.shape[0], axis=0)
    rep_t = np.tile(times, x0s.shape[0])[:, None]
    return np.concatenate([rep_x0, rep_t], axis=1)


def flatten_endpoint_dataset(x0s, controls, times):
    """Stack per-path control tables into ((x0, t), u) regression rows.

    x0s (N, d), controls (N, T, m), times (T,) -> inputs (N*T, d+1),
    targets (N*T, m), path-major order.
    """
    controls = np.asarray(controls, float)
    n, t_count = controls.shape[0], controls.shape[1]
    return endpoint_features(x0s, times), controls.reshape(n * t_count, -1)


def sequence_features(x0s, noise, times):
    """Per-path feature sequences (x0, t_j, noise_j), (paths, n, d+1+d_noise).

    ``noise`` (paths, n+1, d_noise) is the accumulated stochastic convolution
    term, scale included.  The terminal grid index is dropped: the bridge
    control is undefined there.
    """
    x0s = np.asarray(x0s, float)
    noise = np.asarray(noise, float)
    times = np.asarray(times, float)
    paths, t_count = noise.shape[0], noise.shape[1] - 1
    feats = np.empty((paths, t_count, x0s.shape[1] + 1 + noise.shape[2]))
    feats[:, :, : x0s.shape[1]] = x0s[:, None, :]
    feats[:, :, x0s.shape[1]] = times[None, :t_count]
    feats[:, :, x0s.shape[1] + 1 :] = noise[:, :t_count, :]
    return feats


def sequence_dataset(x0s, noise, controls, times):
    """Per-path feature/target sequences for the recurrent trainer: the
    :func:`sequence_features` and the controls without their terminal row."""
    controls = np.asarray(controls, float)
    return sequence_features(x0s, noise, times), controls[:, :-1, :]


def _eval_loss(model, inputs, targets, chunk):
    """Mean squared error of ``model.forward``, run ``chunk`` rows at a time."""
    total = 0.0
    for lo in range(0, inputs.shape[0], chunk):
        diff = model.forward(inputs[lo : lo + chunk])
        diff -= targets[lo : lo + chunk]
        diff *= diff
        total += float(np.sum(diff))
    return total / targets.size


def _fit(model, loss_and_grads, train, val, rates, config, rng, eval_chunk):
    """Minibatch Adam on mean squared error.  Returns the TrainReport.

    ``train`` and ``val`` are (inputs, targets) pairs; without validation
    rows (``val`` None) the validation trace repeats the training loss.  The
    ``rates`` split the epochs into equal legs (see :class:`TrainConfig`).
    """
    x, y = train
    epochs = config.epochs
    opt = Adam(model.params, learning_rate=rates[0])
    train_trace, val_trace, lr_trace = [], [], [rates[0]]

    def record_losses():
        train_trace.append(_eval_loss(model, x, y, eval_chunk))
        val_trace.append(train_trace[-1] if val is None else _eval_loss(model, *val, eval_chunk))

    record_losses()
    for epoch in range(1, epochs + 1):
        opt.learning_rate = rates[(epoch * len(rates) - 1) // epochs]
        order = rng.permutation(x.shape[0])
        for bidx, lo in enumerate(range(0, x.shape[0], config.batch_size)):
            rows = order[lo : lo + config.batch_size]
            loss, grads = loss_and_grads(model, x[rows], y[rows])
            _check_finite(loss, epoch, bidx)
            opt.step(model.params, grads)
        record_losses()
        lr_trace.append(opt.learning_rate)
        _check_finite(train_trace[-1], epoch, -1)
    return TrainReport(train_trace, val_trace, lr_trace, config.seed, epochs)


def train_feedforward(inputs, targets, config):
    """Fit u(x0, t) by minibatch Adam on MSE.  Returns (model, report).

    The step size is ``learning_rate`` throughout unless
    ``late_learning_rate`` is set, in which case training switches to it for
    the second half of the epochs (useful when the targets are noisy and the
    fit has to settle onto a conditional mean).
    """
    inputs = np.atleast_2d(np.asarray(inputs, float))
    targets = np.atleast_2d(np.asarray(targets, float))
    if inputs.shape[0] != targets.shape[0] or inputs.shape[0] == 0:
        raise ValueError("inputs and targets must be nonempty and aligned")
    rng = _rng(config.seed, stream=11)
    train, val = _split((inputs, targets), config.val_fraction, rng)
    mean, std = _normalization(train[0])
    model = FeedforwardModel(
        (inputs.shape[1], config.hidden_size, config.hidden_size, targets.shape[1]),
        seed=config.seed,
        input_mean=mean,
        input_std=std,
    )
    rates = [config.learning_rate]
    if config.late_learning_rate is not None:
        rates.append(config.late_learning_rate)
    return model, _fit(model, mlp_loss_and_grads, train, val, rates, config, rng, _EVAL_CHUNK)


def train_recurrent(features, targets, config):
    """Fit the stochastic control sequence model by BPTT over full sequences.

    The learning rate follows the piecewise schedule: ``learning_rate`` for
    the first half of the epochs, ``late_learning_rate`` (default a tenth)
    after.  Batches are whole paths.
    """
    features = np.asarray(features, float)
    targets = np.asarray(targets, float)
    if features.ndim != 3 or targets.ndim != 3 or features.shape[0] != targets.shape[0]:
        raise ValueError("features and targets must be (paths, steps, dim) and aligned")
    if features.shape[0] == 0:
        raise ValueError("empty sequence dataset")
    rng = _rng(config.seed, stream=22)
    train, val = _split((features, targets), config.val_fraction, rng)
    mean, std = _normalization(train[0].reshape(-1, features.shape[2]))
    model = RecurrentModel(
        features.shape[2],
        config.hidden_size,
        targets.shape[2],
        seed=config.seed,
        input_mean=mean,
        input_std=std,
    )
    late = config.late_learning_rate or config.learning_rate / 10.0
    rates = [config.learning_rate, late]
    return model, _fit(model, lstm_loss_and_grads, train, val, rates, config, rng,
                       config.batch_size)


def train_gain(table, config):
    """Regress the kernel-table gain trace K(t) as a function of t alone.

    Adam with a three-stage learning-rate decay; the target grid is the
    kernel table's own and has no validation rows, so success is measured by
    the sup gap against ``table.k_gain``.
    """
    times = table.grid.times.reshape(-1, 1)
    m, d = table.dim_control, table.dim_state
    targets = table.k_gain.reshape(-1, m * d)
    rng = _rng(config.seed, stream=33)
    mean, std = _normalization(times)
    model = GainModel(m, d, hidden_size=config.hidden_size, seed=config.seed,
                      input_mean=mean, input_std=std)
    late = config.late_learning_rate or config.learning_rate / 10.0
    rates = [config.learning_rate, late, late / 10.0]
    report = _fit(model.net, mlp_loss_and_grads, (times, targets), None, rates, config, rng,
                  _EVAL_CHUNK)
    return model, report


_MODELS = {cls.kind: cls for cls in (FeedforwardModel, RecurrentModel, GainModel)}


def save_model(model, path):
    """Write a versioned JSON checkpoint, normalization constants included.

    The payload is the header, then the model's ``spec`` (the shape fields
    its ``from_spec`` rebuilds it from), then its named ``arrays``.
    """
    if model.kind not in _MODELS:
        raise ValueError(f"unknown model kind {model.kind!r}")
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "kind": model.kind,
        "activation": "tanh",
        **model.spec,
        **model.arrays,
    }
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, default=np.ndarray.tolist))


def _copy_arrays(fresh, saved, name):
    """Copy the JSON lists ``saved`` into the arrays ``fresh`` in place."""
    if isinstance(fresh, np.ndarray):
        values = np.asarray(saved, dtype=float)
        if values.shape != fresh.shape:
            raise ValueError(f"{name!r} has shape {values.shape}, expected {fresh.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name!r} holds non-finite values")
        fresh[...] = values
    elif isinstance(fresh, dict):
        for key, value in fresh.items():
            _copy_arrays(value, saved[key], f"{name}.{key}" if name else key)
    else:
        if not isinstance(saved, list) or len(saved) != len(fresh):
            raise ValueError(f"{name!r} must be a list of {len(fresh)} arrays")
        for i, (value, entry) in enumerate(zip(fresh, saved)):
            _copy_arrays(value, entry, f"{name}[{i}]")


def load_model(path):
    """Read a :func:`save_model` checkpoint.  Any fault in the file raises
    ConfigError: unreadable, foreign, another version, an unknown kind, a
    missing field, a misshapen array or a non-numeric or non-finite cell."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read model checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ConfigError(f"{path} is not a model checkpoint")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {payload.get('version')!r}")
    kind = payload.get("kind")
    if not isinstance(kind, str) or kind not in _MODELS:
        raise ConfigError(f"unknown model kind {kind!r} in {path}")
    try:
        model = _MODELS[kind].from_spec(payload)
        _copy_arrays(model.arrays, payload, "")
    except KeyError as exc:
        raise ConfigError(f"model checkpoint {path} lacks the field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed model checkpoint {path}: {exc}") from exc
    return model
