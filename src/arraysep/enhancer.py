"""Bidirectional recurrent mask enhancement.

A compact LSTM implemented directly on numpy arrays in double precision
with full backpropagation through time. Double precision is deliberate: it
keeps the analytic gradients checkable against central differences, which
is the correctness anchor for this module.

Per frame the network consumes normalized dB features concatenated with the
log-odds of the spatial-clustering mask (input dimension 2 * n_freq) and
emits one mask row (n_freq values through a sigmoid or hard sigmoid). One
shared model serves every channel.
"""

from __future__ import annotations

import csv
import json
import struct
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import expit

from .errors import DataError, NumericalError
from .signal import FeatureStats, MaskGrid, logit_mask, to_log_features
from .targets import TargetKind, loss_with_grad

MERGE_MODES = ("sum", "multiply", "average", "concatenate")
OUTPUT_ACTIVATIONS = ("sigmoid", "hard_sigmoid")
MODEL_MAGIC = b"ASENH001"

# Gate order inside every stacked weight matrix and bias:
# input, forget, cell candidate, output.
_GATES = 4


@dataclass(frozen=True)
class EnhancerConfig:
    """Network shape: one or two bidirectional layers plus an output map."""

    layer_sizes: tuple = (64,)
    merge_mode: str = "average"
    output_activation: str = "sigmoid"
    target_kind: TargetKind = TargetKind.IA

    def __post_init__(self):
        object.__setattr__(self, "layer_sizes", tuple(int(w) for w in self.layer_sizes))
        if not 1 <= len(self.layer_sizes) <= 2:
            raise DataError("one or two recurrent layers are supported")
        if any(w < 1 for w in self.layer_sizes):
            raise DataError("layer widths must be positive")
        if self.merge_mode not in MERGE_MODES:
            raise DataError(f"merge_mode must be one of {MERGE_MODES}")
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise DataError(f"output_activation must be one of {OUTPUT_ACTIVATIONS}")
        if isinstance(self.target_kind, str):
            object.__setattr__(self, "target_kind", TargetKind.parse(self.target_kind))


@dataclass
class EnhancerModel:
    """Trainable parameters plus the input-normalization statistics."""

    config: EnhancerConfig
    n_freq: int
    params: dict
    feature_stats: FeatureStats

    @property
    def input_dim(self) -> int:
        return 2 * self.n_freq

    def copy_params(self) -> dict:
        return {k: v.copy() for k, v in self.params.items()}


def _merged_dim(config: EnhancerConfig, layer: int) -> int:
    width = config.layer_sizes[layer]
    return 2 * width if config.merge_mode == "concatenate" else width


def tensor_order(config: EnhancerConfig, n_freq: int) -> list:
    """Canonical (name, shape) list defining serialization order."""
    order = []
    dim = 2 * n_freq
    for layer, width in enumerate(config.layer_sizes):
        for direction in ("f", "b"):
            prefix = f"l{layer}.{direction}"
            order.append((f"{prefix}.w_x", (_GATES * width, dim)))
            order.append((f"{prefix}.w_h", (_GATES * width, width)))
            order.append((f"{prefix}.b", (_GATES * width,)))
        dim = _merged_dim(config, layer)
    order.append(("out.w", (n_freq, dim)))
    order.append(("out.b", (n_freq,)))
    return order


def init_model(
    config: EnhancerConfig,
    n_freq: int,
    feature_stats: FeatureStats,
    seed: int = 0,
) -> EnhancerModel:
    """Uniform +-1/sqrt(fan_in) weights; forget-gate bias one, others zero."""
    if feature_stats.mean.shape[0] != n_freq:
        raise DataError("feature stats do not match n_freq")
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in tensor_order(config, n_freq):
        if name.endswith(".b"):
            bias = np.zeros(shape)
            if not name.startswith("out."):
                width = shape[0] // _GATES
                bias[width:2 * width] = 1.0
            params[name] = bias
        else:
            bound = 1.0 / np.sqrt(shape[-1])
            params[name] = rng.uniform(-bound, bound, size=shape)
    return EnhancerModel(
        config=config, n_freq=n_freq, params=params, feature_stats=feature_stats
    )


def hard_sigmoid(x: np.ndarray) -> np.ndarray:
    """Piecewise-linear sigmoid approximation clamp(0.2 x + 0.5, 0, 1)."""
    return np.clip(0.2 * x + 0.5, 0.0, 1.0)


def _lstm_forward(w_x, w_h, b, x):
    """Run one direction over a (T, D) sequence; returns (T, H) and a cache."""
    steps = x.shape[0]
    width = w_h.shape[1]
    zx = x @ w_x.T + b
    i = np.empty((steps, width))
    f = np.empty((steps, width))
    g = np.empty((steps, width))
    o = np.empty((steps, width))
    c = np.empty((steps, width))
    tanh_c = np.empty((steps, width))
    h = np.empty((steps, width))
    h_prev = np.zeros(width)
    c_prev = np.zeros(width)
    for t in range(steps):
        z = zx[t] + h_prev @ w_h.T
        i[t] = expit(z[:width])
        f[t] = expit(z[width:2 * width])
        g[t] = np.tanh(z[2 * width:3 * width])
        o[t] = expit(z[3 * width:])
        c[t] = f[t] * c_prev + i[t] * g[t]
        tanh_c[t] = np.tanh(c[t])
        h[t] = o[t] * tanh_c[t]
        h_prev = h[t]
        c_prev = c[t]
    cache = {"x": x, "i": i, "f": f, "g": g, "o": o, "c": c, "tanh_c": tanh_c, "h": h}
    return h, cache


def _lstm_backward(w_x, w_h, dh_seq, cache):
    """Backpropagate through time; returns parameter grads and dL/dx."""
    x = cache["x"]
    i, f, g, o = cache["i"], cache["f"], cache["g"], cache["o"]
    c, tanh_c, h = cache["c"], cache["tanh_c"], cache["h"]
    steps, width = h.shape
    dz = np.empty((steps, _GATES * width))
    dh_next = np.zeros(width)
    dc_next = np.zeros(width)
    for t in range(steps - 1, -1, -1):
        dh = dh_seq[t] + dh_next
        do = dh * tanh_c[t]
        dc = dc_next + dh * o[t] * (1.0 - tanh_c[t] ** 2)
        c_prev = c[t - 1] if t > 0 else 0.0
        di = dc * g[t]
        df = dc * c_prev
        dg = dc * i[t]
        dc_next = dc * f[t]
        dz[t, :width] = di * i[t] * (1.0 - i[t])
        dz[t, width:2 * width] = df * f[t] * (1.0 - f[t])
        dz[t, 2 * width:3 * width] = dg * (1.0 - g[t] ** 2)
        dz[t, 3 * width:] = do * o[t] * (1.0 - o[t])
        dh_next = dz[t] @ w_h
    grads = {
        "w_x": dz.T @ x,
        "w_h": dz[1:].T @ h[:-1] if steps > 1 else np.zeros_like(w_h),
        "b": dz.sum(axis=0),
    }
    dx = dz @ w_x
    return grads, dx


def _merge(h_fwd, h_bwd, mode):
    if mode == "sum":
        return h_fwd + h_bwd
    if mode == "multiply":
        return h_fwd * h_bwd
    if mode == "average":
        return 0.5 * (h_fwd + h_bwd)
    return np.concatenate([h_fwd, h_bwd], axis=1)


def _unmerge(d_merged, h_fwd, h_bwd, mode):
    if mode == "sum":
        return d_merged, d_merged
    if mode == "multiply":
        return d_merged * h_bwd, d_merged * h_fwd
    if mode == "average":
        return 0.5 * d_merged, 0.5 * d_merged
    width = h_fwd.shape[1]
    return d_merged[:, :width], d_merged[:, width:]


def _forward_pass(model: EnhancerModel, x: np.ndarray):
    params = model.params
    mode = model.config.merge_mode
    layer_io = []
    inp = x
    for layer in range(len(model.config.layer_sizes)):
        hf, cache_f = _lstm_forward(
            params[f"l{layer}.f.w_x"], params[f"l{layer}.f.w_h"],
            params[f"l{layer}.f.b"], inp,
        )
        hb_rev, cache_b = _lstm_forward(
            params[f"l{layer}.b.w_x"], params[f"l{layer}.b.w_h"],
            params[f"l{layer}.b.b"], inp[::-1],
        )
        hb = hb_rev[::-1]
        layer_io.append({"cache_f": cache_f, "cache_b": cache_b, "hf": hf, "hb": hb})
        inp = _merge(hf, hb, mode)
    logits = inp @ params["out.w"].T + params["out.b"]
    if model.config.output_activation == "sigmoid":
        pred = expit(logits)
    else:
        pred = hard_sigmoid(logits)
    cache = {"layers": layer_io, "merged": inp, "logits": logits}
    return pred, cache


def forward(model: EnhancerModel, inputs: np.ndarray) -> MaskGrid:
    """Map a (n_frames, 2 * n_freq) input sequence to a mask grid."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != model.input_dim:
        raise DataError(
            f"input shape {inputs.shape} does not match model input "
            f"dimension {model.input_dim}"
        )
    pred, _ = _forward_pass(model, inputs)
    return MaskGrid(values=pred.T)


@dataclass
class TrainBatch:
    """One training sequence: inputs (T, 2F), target rows (T, F), and the
    noisy magnitude rows (T, F) required by spectrum-approximation losses."""

    inputs: np.ndarray
    target: np.ndarray
    noisy_mag: np.ndarray | None = None


def build_batch(
    noisy_spec, messl_mask: MaskGrid, clean_spec, stats: FeatureStats,
    kind: TargetKind,
) -> TrainBatch:
    """Assemble one sequence from spectrograms and the clustering mask."""
    from .targets import TargetContext, compute_target

    feats = to_log_features(noisy_spec, stats)
    logits = logit_mask(messl_mask)
    if logits.shape != feats.shape:
        raise DataError("mask and spectrogram shapes do not match")
    inputs = np.concatenate([feats.T, logits.T], axis=1)
    ctx = TargetContext.from_spectrograms(clean_spec, noisy_spec)
    target = compute_target(ctx, kind).values.T
    mag = None if kind.is_mask else np.abs(noisy_spec.bins).T
    return TrainBatch(inputs=inputs, target=target, noisy_mag=mag)


def _batch_loss_and_grads(model: EnhancerModel, batch: TrainBatch):
    pred, cache = _forward_pass(model, batch.inputs)
    kind = model.config.target_kind
    value, d_pred = loss_with_grad(pred, kind, batch.target, batch.noisy_mag)

    if model.config.output_activation == "sigmoid":
        d_logits = d_pred * pred * (1.0 - pred)
    else:
        logits = cache["logits"]
        inside = (logits > -2.5) & (logits < 2.5)
        d_logits = d_pred * 0.2 * inside

    params = model.params
    grads = {}
    grads["out.w"] = d_logits.T @ cache["merged"]
    grads["out.b"] = d_logits.sum(axis=0)
    d_merged = d_logits @ params["out.w"]
    mode = model.config.merge_mode
    for layer in range(len(model.config.layer_sizes) - 1, -1, -1):
        io = cache["layers"][layer]
        d_hf, d_hb = _unmerge(d_merged, io["hf"], io["hb"], mode)
        g_f, dx_f = _lstm_backward(
            params[f"l{layer}.f.w_x"], params[f"l{layer}.f.w_h"], d_hf, io["cache_f"]
        )
        g_b, dx_b_rev = _lstm_backward(
            params[f"l{layer}.b.w_x"], params[f"l{layer}.b.w_h"],
            d_hb[::-1], io["cache_b"],
        )
        for key, grad in (("w_x", g_f["w_x"]), ("w_h", g_f["w_h"]), ("b", g_f["b"])):
            grads[f"l{layer}.f.{key}"] = grad
        for key, grad in (("w_x", g_b["w_x"]), ("w_h", g_b["w_h"]), ("b", g_b["b"])):
            grads[f"l{layer}.b.{key}"] = grad
        d_merged = dx_f + dx_b_rev[::-1]
    return value, grads


def batch_loss(model: EnhancerModel, batch: TrainBatch) -> float:
    """Loss of one sequence without gradient bookkeeping."""
    pred, _ = _forward_pass(model, batch.inputs)
    value, _ = loss_with_grad(
        pred, model.config.target_kind, batch.target, batch.noisy_mag
    )
    return value


# Adam moment decay rates and denominator guard, and the global gradient
# norm above which each step's gradients are scaled down to it.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
CLIP_NORM = 10.0


@dataclass
class TrainSettings:
    """Adaptive-moment step size, stopping rule, and seed."""

    learning_rate: float = 1e-3
    max_epochs: int = 100
    patience: int = 5
    seed: int = 0


class _Adam:
    def __init__(self, params: dict, learning_rate: float):
        self.learning_rate = learning_rate
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params: dict, grads: dict) -> None:
        self.t += 1
        bias1 = 1.0 - ADAM_BETA1 ** self.t
        bias2 = 1.0 - ADAM_BETA2 ** self.t
        for key, grad in grads.items():
            self.m[key] = ADAM_BETA1 * self.m[key] + (1.0 - ADAM_BETA1) * grad
            self.v[key] = ADAM_BETA2 * self.v[key] + (1.0 - ADAM_BETA2) * grad * grad
            m_hat = self.m[key] / bias1
            v_hat = self.v[key] / bias2
            params[key] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)


def _clip_grads(grads: dict) -> None:
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > CLIP_NORM:
        scale = CLIP_NORM / total
        for key in grads:
            grads[key] *= scale


def train(
    model: EnhancerModel,
    train_batches,
    val_batches,
    settings: TrainSettings = TrainSettings(),
):
    """Full-sequence gradient training with early stopping.

    Batches are visited in their given order each epoch, so the run is
    deterministic under a fixed seed. The model is left holding the
    parameters of the best validation epoch; the history records one row
    of train and validation loss per epoch.
    """
    train_batches = list(train_batches)
    val_batches = list(val_batches)
    if not train_batches or not val_batches:
        raise DataError("need nonempty training and validation sets")
    optimizer = _Adam(model.params, settings.learning_rate)
    history = []
    best_val = np.inf
    best_params = model.copy_params()
    since_best = 0
    for epoch in range(settings.max_epochs):
        total = 0.0
        for index, batch in enumerate(train_batches):
            value, grads = _batch_loss_and_grads(model, batch)
            if not np.isfinite(value):
                raise NumericalError(
                    f"training diverged at epoch {epoch}, batch {index}"
                )
            _clip_grads(grads)
            optimizer.step(model.params, grads)
            total += value
        val = float(np.mean([batch_loss(model, b) for b in val_batches]))
        if not np.isfinite(val):
            raise NumericalError(f"validation loss diverged at epoch {epoch}")
        history.append(
            {"epoch": epoch, "train_loss": total / len(train_batches), "val_loss": val}
        )
        if val < best_val:
            best_val = val
            best_params = model.copy_params()
            since_best = 0
        else:
            since_best += 1
            if since_best >= settings.patience:
                break
    model.params = best_params
    return model, history


def save_history(history, path) -> None:
    """Write the per-epoch loss history as CSV."""
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=["epoch", "train_loss", "val_loss"])
        writer.writeheader()
        for row in history:
            writer.writerow(row)


def enhance_channels(model: EnhancerModel, specs, messl_mask: MaskGrid) -> list:
    """Run the shared model on every channel against one clustering mask."""
    logits = logit_mask(messl_mask)
    out = []
    for spec in specs:
        feats = to_log_features(spec, model.feature_stats)
        if feats.shape != logits.shape:
            raise DataError("mask and spectrogram shapes do not match")
        inputs = np.concatenate([feats.T, logits.T], axis=1)
        out.append(forward(model, inputs))
    return out


def save_model(model: EnhancerModel, path) -> None:
    """Single binary file: JSON header, then little-endian float32 tensors
    in canonical order."""
    order = tensor_order(model.config, model.n_freq)
    header = {
        "format": 1,
        "config": {
            "layer_sizes": list(model.config.layer_sizes),
            "merge_mode": model.config.merge_mode,
            "output_activation": model.config.output_activation,
            "target_kind": model.config.target_kind.value,
        },
        "n_freq": model.n_freq,
        "input_dim": model.input_dim,
        "stats": {
            "mean": model.feature_stats.mean.tolist(),
            "std": model.feature_stats.std.tolist(),
        },
        "tensors": [{"name": name, "shape": list(shape)} for name, shape in order],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(MODEL_MAGIC)
        handle.write(struct.pack("<I", len(blob)))
        handle.write(blob)
        for name, shape in order:
            tensor = model.params[name]
            if tensor.shape != shape:
                raise DataError(f"tensor {name} has shape {tensor.shape}, want {shape}")
            handle.write(tensor.astype("<f4").tobytes())


def load_model(path) -> EnhancerModel:
    """Read a model written by save_model; a malformed file raises DataError."""
    with open(path, "rb") as handle:
        magic = handle.read(len(MODEL_MAGIC))
        if magic != MODEL_MAGIC:
            raise DataError(f"{path} is not a model file")
        try:
            (header_len,) = struct.unpack("<I", handle.read(4))
            header = json.loads(handle.read(header_len).decode("utf-8"))
            config = EnhancerConfig(
                layer_sizes=tuple(header["config"]["layer_sizes"]),
                merge_mode=header["config"]["merge_mode"],
                output_activation=header["config"]["output_activation"],
                target_kind=TargetKind.parse(header["config"]["target_kind"]),
            )
            stats = FeatureStats(
                mean=np.array(header["stats"]["mean"], dtype=np.float64),
                std=np.array(header["stats"]["std"], dtype=np.float64),
            )
            n_freq = int(header["n_freq"])
            shapes = [
                (str(entry["name"]), tuple(int(n) for n in entry["shape"]))
                for entry in header["tensors"]
            ]
        except DataError:
            raise
        except (struct.error, ValueError, KeyError, TypeError, AttributeError) as exc:
            raise DataError(f"model file {path} has a malformed header: {exc!r}") from exc
        if n_freq < 1 or dict(shapes) != dict(tensor_order(config, n_freq)):
            raise DataError(f"model file {path} has unexpected tensor set")
        params = {}
        for name, shape in shapes:
            count = int(np.prod(shape))
            raw = handle.read(4 * count)
            if len(raw) != 4 * count:
                raise DataError(f"model file {path} is truncated")
            params[name] = (
                np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(shape)
            )
    return EnhancerModel(
        config=config, n_freq=n_freq, params=params, feature_stats=stats
    )
