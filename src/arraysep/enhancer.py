"""Bidirectional recurrent mask enhancement.

A compact LSTM implemented directly on numpy arrays in double precision
with full backpropagation through time. Double precision is deliberate: it
keeps the analytic gradients checkable against central differences, which
is the correctness anchor for this module.

Per frame the network consumes normalized dB features concatenated with the
log-odds of the spatial-clustering mask (input dimension 2 * n_freq) and
emits one mask row (n_freq values through a sigmoid or hard sigmoid). One
shared model serves every channel.

Every channel of a scene reads the same clustering mask, so at inference
enhance_channels splits the first layer's input weights into their feature
and mask columns. It projects the mask half, bias included, once per scene
and direction; each channel's forward call adds its own feature product.
The backward direction reads that forward-time sum reversed, so no reversed
copy of the input is multiplied. Training keeps one product of the full
input rows per direction, so its gradients are those of the plain network.
Each epoch's validation sequences share the recurrent step loops of one
batch_loss call, with the losses they get scored one at a time.
"""

from __future__ import annotations

import csv
import json
import struct
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import expit

from .errors import DataError, NumericalError
from .signal import (
    FeatureStats,
    MaskGrid,
    _feature_stats,
    _mask_grid,
    _spectrogram,
    logit_mask,
    to_log_features,
)
from .targets import TargetContext, TargetKind, _kind, compute_target, loss_with_grad
from .util import (
    _array,
    _at_least,
    _checked,
    _fields,
    _located,
    _nonnegative,
    _one_of,
    _parsed,
    _seed,
    _tuple_of,
    as_plain_data,
)

MERGE_MODES = ("sum", "multiply", "average", "concatenate")
OUTPUT_ACTIVATIONS = ("sigmoid", "hard_sigmoid")
MODEL_MAGIC = b"ASENH001"

# Gate order inside every stacked weight matrix and bias:
# input, forget, cell candidate, output.
_GATES = 4
# Parameter-name letter of each recurrent direction, forward first.
_DIRECTIONS = "fb"
# Bytes of recurrent step buffers that one group of batch_loss's
# sequences may take; the group shares each layer's step loop.
GROUP_BYTES = 1 << 24


@dataclass(frozen=True)
class EnhancerConfig:
    """Network shape: one or two bidirectional layers plus an output map."""

    layer_sizes: tuple = (64,)
    merge_mode: str = "average"
    output_activation: str = "sigmoid"
    target_kind: TargetKind = TargetKind.IA

    _converters = dict(
        layer_sizes=_tuple_of(_at_least(1)), merge_mode=_one_of(*MERGE_MODES),
        output_activation=_one_of(*OUTPUT_ACTIVATIONS),
        target_kind=_parsed(TargetKind),
    )

    def __post_init__(self):
        _fields(self, **self._converters)
        if not 1 <= len(self.layer_sizes) <= 2:
            raise DataError("one or two recurrent layers are supported")


@dataclass
class EnhancerModel:
    """Trainable parameters plus the input-normalization statistics."""

    config: EnhancerConfig
    n_freq: int
    params: dict
    feature_stats: FeatureStats

    def __post_init__(self):
        if self.feature_stats.mean.shape != (self.n_freq,):
            stats = self.feature_stats.mean.shape[0]
            raise DataError(f"feature stats have {stats} bins, the model {self.n_freq}")

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
        for direction in _DIRECTIONS:
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


def _lstm_forward(params, layer, x, zx=None):
    """Run both directions of ``layer`` over a (T, D) sequence as one
    recurrence: step t advances the forward direction at frame t and the
    backward direction at frame T - 1 - t. ``zx``, when given, replaces
    each direction's x @ w_x.T + b: (T, 2, 4H), row [t, d] at direction d's
    step t. The cache then holds an x that zx was not formed from, so only
    inference passes it.

    Returns h as (2, T, H) in forward time, and the cache for
    _lstm_backward. The cached arrays are (T, 2, 1, .) in each direction's
    own time: step t is one contiguous block, and the unit axis makes each
    direction's state a one-row matrix for the batched recurrent product.
    Row [t, d, 0] of ``gates`` holds direction d's i, f, g, o at step t.

    ``x`` may also be a list of B sequences of unequal length T_b. They
    share the step loop on a direction axis of 2B rows, direction-major:
    row d * B + b is sequence b in direction d, padded with zero input
    products after its own T_b steps, so the backward row reads its
    sequence reversed within its own length. Each row keeps its own copy
    of the transposed recurrent weights, so its product, and every bit of
    its outputs, is what the sequence gets alone. The list form returns
    the list of each sequence's h and no cache.

    A step takes its views from one pass over the time-major arrays and
    writes every product and sum into buffers allocated once per call;
    the last argument of each ufunc and matmul call is its output.
    """
    names = [f"l{layer}.{d}." for d in _DIRECTIONS]
    seqs = [x] if isinstance(x, np.ndarray) else x
    lengths = [len(s) for s in seqs]
    rows = 2 * len(seqs)
    w_x = [params[p + "w_x"] for p in names]
    w_h = np.stack([params[p + "w_h"] for p in names])
    # A contiguous copy of w_h.T would change the product's bits.
    w_h_t = np.swapaxes(np.repeat(w_h, len(seqs), axis=0), 1, 2)
    steps, width = max(lengths), w_h.shape[2]
    if zx is None:
        zx = np.zeros((steps, rows, _GATES * width))
        for b, s in enumerate(seqs):
            for d, (part, w, p) in enumerate(zip((s, s[::-1]), w_x, names)):
                zx[:len(s), d * len(seqs) + b] = part @ w.T + params[p + "b"]
    zx = zx[:, :, None]
    gates = np.empty((steps, rows, 1, _GATES * width))
    i, f, g, o = np.split(gates, _GATES, axis=3)
    c, tanh_c, h = (np.empty((steps, rows, 1, width)) for _ in range(3))
    z, zh = np.empty((2, rows, 1, _GATES * width))
    z_g = z[..., 2 * width:3 * width]
    fc, ig = np.empty((2, rows, 1, width))
    h_prev = c_prev = np.zeros((rows, 1, width))
    for zx_t, gates_t, i_t, f_t, g_t, o_t, c_t, tanh_c_t, h_t in zip(
            zx, gates, i, f, g, o, c, tanh_c, h):
        np.matmul(h_prev, w_h_t, zh)
        np.add(zx_t, zh, z)
        expit(z, gates_t)
        np.tanh(z_g, g_t)
        np.multiply(f_t, c_prev, fc)
        np.multiply(i_t, g_t, ig)
        np.add(fc, ig, c_t)
        np.tanh(c_t, tanh_c_t)
        np.multiply(o_t, tanh_c_t, h_t)
        h_prev = h_t
        c_prev = c_t
    outputs = [np.stack([h[:n, b, 0], h[:n][::-1, len(seqs) + b, 0]])
               for b, n in enumerate(lengths)]
    if seqs is x:
        return outputs, None
    return outputs[0], (names, (x, x[::-1]), w_x, w_h, gates, c, tanh_c, h)


def _lstm_backward(dh, cache, need_dx=True):
    """Backpropagate through time over both directions of one layer.

    ``dh`` is dL/dh as (2, T, H) in forward time. Returns the layer's
    parameter grads, forward direction first, and dL/dx summed over both
    directions, or None for dL/dx when ``need_dx`` is false. Each gate's
    dL/dz is ((carrier * partner) * first) * second, the carrier being
    dL/dc for i, f, g and dL/dh for o. Only carriers recur, so the other
    factors are stacked once. Keep the product order: it sets the bits.

    The step loop runs over the reversed time-major arrays and writes
    every product and sum into buffers allocated once per call; the last
    argument of each ufunc and matmul call is its output.
    """
    names, xs, w_x, w_h, gates, c, tanh_c, h = cache
    steps, _, _, width = h.shape
    dh_seq = np.stack([dh[0], dh[1][::-1]], axis=1)[:, :, None]
    i, f, g, o = np.split(gates, _GATES, axis=3)
    c_prev = np.concatenate([np.zeros_like(c[:1]), c[:-1]])
    partner = np.concatenate([g, c_prev, i, tanh_c], axis=2)
    first = np.concatenate([i, f, 1.0 - g ** 2, o], axis=2)
    second = np.concatenate([1.0 - i, 1.0 - f, np.ones_like(g), 1.0 - o], axis=2)
    dtanh = 1.0 - tanh_c ** 2
    # A ufunc reads a contiguous step block faster than a gate slice.
    o, f = np.ascontiguousarray(o), np.ascontiguousarray(f)
    dz = np.empty((steps, 2, _GATES, width))
    dz_rows = dz.reshape(steps, 2, 1, _GATES * width)
    carrier, product = np.empty((2, 2, _GATES, width))
    carrier_c, carrier_h = carrier[:, :3], carrier[:, 3:]
    dh_t, dc, dc_h, dh_next, dc_next = np.zeros((5, 2, 1, width))
    for dh_s, o_t, dtanh_t, partner_t, first_t, second_t, f_t, dz_t, dz_row in zip(
            dh_seq[::-1], o[::-1], dtanh[::-1], partner[::-1], first[::-1],
            second[::-1], f[::-1], dz[::-1], dz_rows[::-1]):
        np.add(dh_s, dh_next, dh_t)
        np.multiply(dh_t, o_t, dc_h)
        np.multiply(dc_h, dtanh_t, dc_h)
        np.add(dc_next, dc_h, dc)
        carrier_c[...] = dc
        carrier_h[...] = dh_t
        np.multiply(carrier, partner_t, product)
        np.multiply(product, first_t, product)
        np.multiply(product, second_t, dz_t)
        np.multiply(dc, f_t, dc_next)
        np.matmul(dz_row, w_h, dh_next)
    # Contiguous (T, .) rows per direction: a BLAS product's bits can
    # depend on the strides of its operands.
    dz = np.ascontiguousarray(dz.reshape(steps, 2, -1).swapaxes(0, 1))
    h = np.ascontiguousarray(h[:, :, 0].swapaxes(0, 1))
    grads = {}
    for p, x, dz_d, h_d in zip(names, xs, dz, h):
        grads.update({p + "w_x": dz_d.T @ x, p + "w_h": dz_d[1:].T @ h_d[:-1],
                      p + "b": dz_d.sum(axis=0)})
    if not need_dx:
        return grads, None
    dx_f, dx_b = (dz_d @ w for dz_d, w in zip(dz, w_x))
    return grads, dx_f + dx_b[::-1]


def _merge(h, mode):
    """One layer's output from its (2, T, H) direction outputs."""
    if mode == "sum":
        return h[0] + h[1]
    if mode == "multiply":
        return h[0] * h[1]
    if mode == "average":
        return 0.5 * (h[0] + h[1])
    return np.concatenate(h, axis=1)


def _unmerge(d_merged, h, mode):
    """dL/dh per direction, (2, T, H), from dL/d(merged output)."""
    if mode == "sum":
        return d_merged, d_merged
    if mode == "multiply":
        return d_merged * h[::-1]
    if mode == "average":
        return 0.5 * d_merged, 0.5 * d_merged
    return np.split(d_merged, 2, axis=1)


def _forward_pass(model: EnhancerModel, x: np.ndarray, zx=None):
    """The mask rows and the cache (layers, merged, logits). Each entry of
    ``layers`` holds a layer's (h, lstm cache) pair, h being both
    directions' outputs as (2, T, H) in forward time. ``zx`` is handed to
    the first layer's _lstm_forward."""
    layers = []
    inp = x
    for layer in range(len(model.config.layer_sizes)):
        h, cache = _lstm_forward(model.params, layer, inp, zx if layer == 0 else None)
        layers.append((h, cache))
        inp = _merge(h, model.config.merge_mode)
    pred, logits = _output(model, inp)
    return pred, (layers, inp, logits)


def _output(model: EnhancerModel, merged: np.ndarray):
    """The mask rows of one sequence's last merged layer output, and their
    logits."""
    logits = merged @ model.params["out.w"].T + model.params["out.b"]
    if model.config.output_activation == "sigmoid":
        return expit(logits), logits
    return hard_sigmoid(logits), logits


def _mask_products(model: EnhancerModel, logits: np.ndarray) -> np.ndarray:
    """The mask half of the first layer's input products, bias included:
    logits.T @ w_x[:, n_freq:].T + b per direction, as (2, T, 4H) in
    forward time. ``logits`` is the (n_freq, n_frames) clustering mask's
    log-odds, which every channel of a scene shares."""
    rows = np.ascontiguousarray(logits.T)
    return np.stack([
        rows @ model.params[f"l0.{d}.w_x"][:, model.n_freq:].T + model.params[f"l0.{d}.b"]
        for d in _DIRECTIONS
    ])


def forward(model: EnhancerModel, inputs: np.ndarray, mask_products=None) -> MaskGrid:
    """Map a (n_frames, 2 * n_freq) input sequence to a mask grid.

    With ``mask_products`` from _mask_products, ``inputs`` holds only the
    (n_frames, n_freq) feature half of the rows. The first layer then adds
    each direction's feature product to the shared mask half, and the
    backward direction reads that sum reversed in time.
    """
    inputs = _checked("inputs", inputs, _array(2))
    dim = model.input_dim if mask_products is None else model.n_freq
    if inputs.shape[1] != dim:
        raise DataError(
            f"input shape {inputs.shape} does not match model input "
            f"dimension {dim}"
        )
    zx = None
    if mask_products is not None:
        if mask_products.shape[1] != inputs.shape[0]:
            raise DataError(f"mask products have {mask_products.shape[1]} frames, "
                            f"the inputs {inputs.shape[0]}")
        z = [inputs @ model.params[f"l0.{d}.w_x"][:, :model.n_freq].T + shared
             for d, shared in zip(_DIRECTIONS, mask_products)]
        zx = np.stack([z[0], z[1][::-1]], axis=1)
    pred, _ = _forward_pass(model, inputs, zx)
    return MaskGrid(values=pred.T)


def _feature_rows(spec, logits: np.ndarray, stats: FeatureStats) -> np.ndarray:
    """Normalized dB feature rows (n_frames, n_freq) of one channel, checked
    against the shape of the clustering mask's log-odds ``logits``. The rows
    are C-contiguous; a transpose of the (n_freq, n_frames) grids is not,
    and the per-frame recurrences and their matrix products read rows."""
    feats = to_log_features(spec, stats)
    if feats.shape != logits.shape:
        raise DataError("mask and spectrogram shapes do not match")
    return np.ascontiguousarray(feats.T)


def _inputs(spec, logits: np.ndarray, stats: FeatureStats) -> np.ndarray:
    """Network input rows (n_frames, 2 * n_freq) of one channel: normalized
    dB features, then the clustering mask's log-odds ``logits``."""
    return np.concatenate([_feature_rows(spec, logits, stats), logits.T], axis=1)


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
    noisy_spec = _checked("noisy_spec", noisy_spec, _spectrogram)
    messl_mask = _checked("messl_mask", messl_mask, _mask_grid)
    clean_spec = _checked("clean_spec", clean_spec, _spectrogram)
    stats = _checked("stats", stats, _feature_stats)
    kind = _checked("kind", kind, _kind)
    inputs = _inputs(noisy_spec, logit_mask(messl_mask), stats)
    ctx = TargetContext.from_spectrograms(clean_spec, noisy_spec)
    target = np.ascontiguousarray(compute_target(ctx, kind).values.T)
    mag = None if kind.is_mask else np.ascontiguousarray(np.abs(noisy_spec.bins).T)
    return TrainBatch(inputs=inputs, target=target, noisy_mag=mag)


def _batch_loss_and_grads(model: EnhancerModel, batch: TrainBatch):
    pred, (layers, merged, logits) = _forward_pass(model, batch.inputs)
    kind = model.config.target_kind
    value, d_pred = loss_with_grad(pred, kind, batch.target, batch.noisy_mag)

    if model.config.output_activation == "sigmoid":
        d_logits = d_pred * pred * (1.0 - pred)
    else:
        inside = (logits > -2.5) & (logits < 2.5)
        d_logits = d_pred * 0.2 * inside

    grads = {"out.w": d_logits.T @ merged, "out.b": d_logits.sum(axis=0)}
    d_merged = d_logits @ model.params["out.w"]
    mode = model.config.merge_mode
    # Nothing reads dL/dx of the first layer, the network input.
    for layer in reversed(range(len(layers))):
        h, cache = layers[layer]
        g, d_merged = _lstm_backward(_unmerge(d_merged, h, mode), cache,
                                     need_dx=layer > 0)
        grads.update(g)
    return value, grads


def _groups(model: EnhancerModel, batches) -> list:
    """``batches`` split, in order, into runs whose step buffers in
    _lstm_forward, at the widest layer and padded to the run's longest
    sequence, take at most GROUP_BYTES; each run holds at least one."""
    frame_bytes = 2 * (2 * _GATES + 3) * max(model.config.layer_sizes) * 8
    groups, steps = [], 0
    for batch in batches:
        steps = max(steps, len(batch.inputs))
        if groups and (len(groups[-1]) + 1) * steps * frame_bytes <= GROUP_BYTES:
            groups[-1].append(batch)
        else:
            groups.append([batch])
            steps = len(batch.inputs)
    return groups


def batch_loss(model: EnhancerModel, batch):
    """The loss of one sequence, or for a list of them the list of each
    one's loss. A sequence's mask rows go through loss_with_grad, as in
    training, and the gradient it returns is dropped.

    A list runs through the recurrent layers in groups (_groups): each
    layer's step loop advances every sequence of a group at once. Each
    sequence then gets its own output layer and loss call, so every loss
    is bit for bit that of the sequence scored alone.
    """
    batches = [batch] if isinstance(batch, TrainBatch) else batch
    values = []
    for group in _groups(model, batches):
        merged = [b.inputs for b in group]
        for layer in range(len(model.config.layer_sizes)):
            h, _ = _lstm_forward(model.params, layer, merged)
            merged = [_merge(h_b, model.config.merge_mode) for h_b in h]
        for b, rows in zip(group, merged):
            pred, _ = _output(model, rows)
            value, _ = loss_with_grad(pred, model.config.target_kind, b.target, b.noisy_mag)
            values.append(value)
    return values if batches is batch else values[0]


# Adam moment decay rates and denominator guard, and the global gradient
# norm above which each step's gradients are scaled down to it.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
CLIP_NORM = 10.0


@dataclass(frozen=True)
class TrainSettings:
    """Adaptive-moment step size, stopping rule, and seed.

    train() draws no random numbers and never reads ``seed``; it is the
    seed that ``cli.cmd_train`` hands to init_model.
    """

    learning_rate: float = 1e-3
    max_epochs: int = 30
    patience: int = 5
    seed: int = 0

    # A learning rate of 0 is kept: it evaluates without updating.
    _converters = dict(
        learning_rate=_nonnegative, max_epochs=_at_least(1),
        patience=_at_least(1), seed=_seed,
    )

    def __post_init__(self):
        _fields(self, **self._converters)


class _Adam:
    def __init__(self, params: dict, learning_rate: float):
        self.learning_rate = learning_rate
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params: dict, grads: dict) -> None:
        """One update of every tensor in ``grads``. The moments are updated
        in place, with the association of m = b1 m + (1 - b1) g and
        v = b2 v + ((1 - b2) g) g, and the update is formed in one step
        buffer beside its denominator; ``grads`` are only read."""
        self.t += 1
        bias1 = 1.0 - ADAM_BETA1 ** self.t
        bias2 = 1.0 - ADAM_BETA2 ** self.t
        for key, grad in grads.items():
            m, v = self.m[key], self.v[key]
            step = np.multiply(grad, 1.0 - ADAM_BETA1)
            m *= ADAM_BETA1
            m += step
            np.multiply(grad, 1.0 - ADAM_BETA2, out=step)
            step *= grad
            v *= ADAM_BETA2
            v += step
            # lr (m / bias1) / (sqrt(v / bias2) + epsilon)
            denom = np.divide(v, bias2)
            np.sqrt(denom, out=denom)
            denom += ADAM_EPSILON
            np.divide(m, bias1, out=step)
            step *= self.learning_rate
            step /= denom
            params[key] -= step


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

    Batches are visited in their given order each epoch and no random
    numbers are drawn, so the run is deterministic for given batches and
    model (settings.seed is not read). The model is left holding the
    parameters of the best validation epoch; the history records one row
    of train and validation loss per epoch.
    """
    train_batches = list(train_batches)
    val_batches = list(val_batches)
    if not train_batches or not val_batches:
        raise DataError("need nonempty training and validation sets")
    for name, batches in (("training", train_batches), ("validation", val_batches)):
        for index, batch in enumerate(batches):
            shape = np.shape(batch.inputs)
            if len(shape) != 2 or not shape[0] or shape[1] != model.input_dim:
                raise DataError(f"{name} batch {index} has inputs of shape {shape}, "
                                f"not (frames > 0, {model.input_dim})")
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
        val = float(np.mean(batch_loss(model, val_batches)))
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
    """Run the shared model on every channel against one clustering mask:
    one forward call per channel, the mask half of the first layer's input
    products formed once for all of them."""
    logits = logit_mask(messl_mask)
    rows = [_feature_rows(spec, logits, model.feature_stats) for spec in specs]
    shared = _mask_products(model, logits) if rows else None
    return [forward(model, feats, shared) for feats in rows]


def save_model(model: EnhancerModel, path) -> None:
    """Single binary file: JSON header, then little-endian float32 tensors
    in canonical order. A tensor of the wrong shape raises DataError, and
    one with a value that is not finite in float32 raises NumericalError;
    either way no file is written."""
    order = tensor_order(model.config, model.n_freq)
    tensors = []
    for name, shape in order:
        tensor = model.params[name]
        if tensor.shape != shape:
            raise DataError(f"tensor {name} has shape {tensor.shape}, want {shape}")
        with np.errstate(over="ignore"):      # reported below
            tensor = tensor.astype("<f4")
        if not np.isfinite(tensor).all():
            raise NumericalError(f"tensor {name} is not finite in float32")
        tensors.append(tensor)
    header = {
        "format": 1,
        "config": as_plain_data(model.config),
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
        for tensor in tensors:
            handle.write(tensor.tobytes())


def load_model(path) -> EnhancerModel:
    """Read a model written by save_model; a malformed file raises DataError
    naming it."""
    with open(path, "rb") as handle, _located(f"model file {path}"):
        if handle.read(len(MODEL_MAGIC)) != MODEL_MAGIC:
            raise DataError("not a model file")
        with _located("malformed header"):
            (header_len,) = struct.unpack("<I", handle.read(4))
            header = json.loads(handle.read(header_len).decode("utf-8"))
            if set(header["config"]) != {f.name for f in fields(EnhancerConfig)}:
                raise DataError(f"config keys are {sorted(header['config'])}")
            config = EnhancerConfig(**header["config"])
            stats = FeatureStats(header["stats"]["mean"], header["stats"]["std"])
            n_freq = int(header["n_freq"])
            shapes = [
                (str(entry["name"]), tuple(int(n) for n in entry["shape"]))
                for entry in header["tensors"]
            ]
        if n_freq < 1 or dict(shapes) != dict(tensor_order(config, n_freq)):
            raise DataError("unexpected tensor set")
        params = {}
        for name, shape in shapes:
            count = int(np.prod(shape))
            raw = handle.read(4 * count)
            if len(raw) != 4 * count:
                raise DataError("truncated")
            params[name] = (
                np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(shape)
            )
        return EnhancerModel(
            config=config, n_freq=n_freq, params=params, feature_stats=stats
        )
