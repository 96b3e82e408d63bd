"""Recurrent mask enhancer: forward math, gradients, training, files."""

import copy
import json
import os
import struct
import tempfile

import numpy as np
import pytest

from arraysep import (
    DataError,
    FeatureStats,
    MaskGrid,
    NumericalError,
    StftConfig,
    TargetKind,
    TrainBatch,
    TrainSettings,
    build_batch,
    enhance_channels,
    forward,
    init_model,
    load_model,
    save_model,
    stft,
    train,
)
from arraysep.enhancer import (
    MODEL_MAGIC,
    EnhancerConfig,
    _batch_loss_and_grads,
    batch_loss,
    hard_sigmoid,
    tensor_order,
)
from waveforms import make_noise


def _stats(n_freq):
    return FeatureStats(mean=np.zeros(n_freq), std=np.ones(n_freq))


def _random_model(config, n_freq, seed=0, scale=0.4):
    model = init_model(config, n_freq, _stats(n_freq), seed=seed)
    gen = np.random.default_rng(seed + 1)
    for name in model.params:
        model.params[name] = scale * gen.standard_normal(model.params[name].shape)
    return model


def _random_batch(config, n_freq, n_frames=6, seed=0):
    gen = np.random.default_rng(seed)
    inputs = gen.standard_normal((n_frames, 2 * n_freq))
    if config.target_kind.is_mask:
        target = gen.uniform(0.0, 1.0, size=(n_frames, n_freq))
        mag = None
    else:
        target = gen.uniform(0.0, 2.0, size=(n_frames, n_freq))
        mag = gen.uniform(0.5, 2.0, size=(n_frames, n_freq))
    return TrainBatch(inputs=inputs, target=target, noisy_mag=mag)


# ----------------------------------------------------------------- forward

def test_zero_weights_give_half_mask():
    config = EnhancerConfig(layer_sizes=(4,))
    model = init_model(config, n_freq=5, feature_stats=_stats(5), seed=0)
    for name in model.params:
        model.params[name] = np.zeros_like(model.params[name])
    out = forward(model, np.random.default_rng(0).standard_normal((7, 10)))
    np.testing.assert_array_equal(out.values, 0.5)
    assert out.values.shape == (5, 7)


def test_hard_sigmoid_values():
    x = np.array([-10.0, -2.5, 0.0, 1.0, 2.5, 10.0])
    np.testing.assert_allclose(hard_sigmoid(x), [0.0, 0.0, 0.5, 0.7, 1.0, 1.0])


def test_forward_output_in_unit_interval():
    config = EnhancerConfig(layer_sizes=(6,), output_activation="sigmoid")
    model = _random_model(config, n_freq=4, seed=3, scale=1.5)
    out = forward(model, np.random.default_rng(4).standard_normal((9, 8)))
    assert out.values.min() > 0.0 and out.values.max() < 1.0


def test_forward_rejects_wrong_width():
    config = EnhancerConfig(layer_sizes=(4,))
    model = init_model(config, n_freq=5, feature_stats=_stats(5))
    with pytest.raises(DataError, match="input dimension"):
        forward(model, np.zeros((7, 9)))


def test_time_reversal_symmetry():
    """Swapping the two directions' weights and reversing the input must
    exactly reverse the output for symmetric merge modes."""
    for mode in ("sum", "average", "multiply"):
        config = EnhancerConfig(layer_sizes=(5,), merge_mode=mode)
        model = _random_model(config, n_freq=4, seed=7)
        swapped = copy.deepcopy(model)
        for key in ("w_x", "w_h", "b"):
            swapped.params[f"l0.f.{key}"] = model.params[f"l0.b.{key}"].copy()
            swapped.params[f"l0.b.{key}"] = model.params[f"l0.f.{key}"].copy()
        x = np.random.default_rng(8).standard_normal((11, 8))
        straight = forward(model, x).values
        reversed_out = forward(swapped, x[::-1]).values
        np.testing.assert_array_equal(reversed_out[:, ::-1], straight)


def test_merge_modes_are_distinct():
    masks = {}
    for mode in ("sum", "multiply", "average", "concatenate"):
        config = EnhancerConfig(layer_sizes=(5,), merge_mode=mode)
        model = _random_model(config, n_freq=4, seed=9)
        x = np.random.default_rng(10).standard_normal((6, 8))
        masks[mode] = forward(model, x).values
    assert not np.allclose(masks["sum"], masks["multiply"])
    assert not np.allclose(masks["sum"], masks["concatenate"])
    assert masks["average"].shape == masks["concatenate"].shape


def test_two_layer_stack_runs():
    config = EnhancerConfig(layer_sizes=(6, 4), merge_mode="concatenate")
    model = _random_model(config, n_freq=3, seed=11)
    out = forward(model, np.random.default_rng(12).standard_normal((8, 6)))
    assert out.values.shape == (3, 8)


# --------------------------------------------------------------- gradients

def _numeric_grads(model, batch, keys):
    """Central differences on every coordinate of the chosen tensors."""
    out = {}
    for key in keys:
        ref = model.params[key]
        grad = np.zeros_like(ref)
        it = np.nditer(ref, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            step = 1e-6 * max(1.0, abs(ref[idx]))
            orig = ref[idx]
            ref[idx] = orig + step
            hi = batch_loss(model, batch)
            ref[idx] = orig - step
            lo = batch_loss(model, batch)
            ref[idx] = orig
            grad[idx] = (hi - lo) / (2.0 * step)
        out[key] = grad
    return out


def _check_grads(config, n_freq=4, n_frames=6, seed=0):
    model = _random_model(config, n_freq, seed=seed)
    batch = _random_batch(config, n_freq, n_frames, seed=seed + 100)
    _, analytic = _batch_loss_and_grads(model, batch)
    numeric = _numeric_grads(model, batch, analytic.keys())
    worst = 0.0
    for key in analytic:
        a, n = analytic[key], numeric[key]
        denom = np.maximum(np.abs(a) + np.abs(n), 1e-8)
        rel = np.max(np.abs(a - n) / denom)
        worst = max(worst, rel)
    assert worst < 1e-4, f"{config.target_kind}: worst relative error {worst:.2e}"


def test_gradients_amplitude_mask():
    _check_grads(EnhancerConfig(layer_sizes=(3,), merge_mode="average",
                                target_kind=TargetKind.IA), seed=1)


def test_gradients_phase_sensitive_two_layers():
    _check_grads(EnhancerConfig(layer_sizes=(3, 3), merge_mode="concatenate",
                                target_kind=TargetKind.PS), seed=2)


def test_gradients_magnitude_sum_merge():
    _check_grads(EnhancerConfig(layer_sizes=(3,), merge_mode="sum",
                                target_kind=TargetKind.MA), seed=3)


def test_gradients_phase_adjusted_multiply_merge():
    _check_grads(EnhancerConfig(layer_sizes=(3,), merge_mode="multiply",
                                target_kind=TargetKind.PA), seed=4)


def test_hard_sigmoid_gradient_is_descent_direction():
    config = EnhancerConfig(layer_sizes=(4,), output_activation="hard_sigmoid")
    model = _random_model(config, n_freq=4, seed=5)
    batch = _random_batch(config, 4, seed=6)
    value, grads = _batch_loss_and_grads(model, batch)
    for key, grad in grads.items():
        model.params[key] -= 1e-3 * grad
    assert batch_loss(model, batch) < value


# ---------------------------------------------------------------- training

def test_overfit_single_batch():
    # Binary targets that are an exact function of the inputs, so the
    # achievable cross entropy is near zero and overfitting must reach it.
    config = EnhancerConfig(layer_sizes=(8,), target_kind=TargetKind.IA)
    model = init_model(config, n_freq=6, feature_stats=_stats(6), seed=0)
    gen = np.random.default_rng(1)
    inputs = gen.standard_normal((10, 12))
    target = (inputs[:, :6] > 0).astype(np.float64)
    batch = TrainBatch(inputs=inputs, target=target)
    settings = TrainSettings(learning_rate=3e-2, max_epochs=400,
                             patience=400, seed=0)
    model, history = train(model, [batch], [batch], settings)
    assert min(h["val_loss"] for h in history) < 0.05


def test_zero_learning_rate_keeps_params():
    config = EnhancerConfig(layer_sizes=(4,))
    model = init_model(config, n_freq=4, feature_stats=_stats(4), seed=2)
    before = model.copy_params()
    batch = _random_batch(config, 4, seed=3)
    settings = TrainSettings(learning_rate=0.0, max_epochs=3, patience=10)
    model, history = train(model, [batch], [batch], settings)
    for key in before:
        np.testing.assert_array_equal(model.params[key], before[key])
    losses = [h["train_loss"] for h in history]
    assert losses[0] == losses[1] == losses[2]


def test_training_deterministic():
    def run():
        config = EnhancerConfig(layer_sizes=(5,))
        model = init_model(config, n_freq=4, feature_stats=_stats(4), seed=4)
        batches = [_random_batch(config, 4, seed=s) for s in (10, 11, 12)]
        settings = TrainSettings(learning_rate=5e-3, max_epochs=6, patience=6)
        return train(model, batches[:2], batches[2:], settings)

    model_a, hist_a = run()
    model_b, hist_b = run()
    assert hist_a == hist_b
    for key in model_a.params:
        np.testing.assert_array_equal(model_a.params[key], model_b.params[key])


def test_returned_model_holds_best_validation_params():
    config = EnhancerConfig(layer_sizes=(6,))
    model = init_model(config, n_freq=4, feature_stats=_stats(4), seed=5)
    train_batch = _random_batch(config, 4, seed=20)
    val_batch = _random_batch(config, 4, seed=21)  # unrelated: will overfit
    settings = TrainSettings(learning_rate=2e-2, max_epochs=40, patience=8)
    model, history = train(model, [train_batch], [val_batch], settings)
    best = min(h["val_loss"] for h in history)
    assert batch_loss(model, val_batch) == pytest.approx(best, abs=1e-12)


def test_early_stopping_bounds_epochs():
    config = EnhancerConfig(layer_sizes=(4,))
    model = init_model(config, n_freq=4, feature_stats=_stats(4), seed=6)
    train_batch = _random_batch(config, 4, seed=30)
    val_batch = _random_batch(config, 4, seed=31)
    settings = TrainSettings(learning_rate=5e-2, max_epochs=200, patience=3)
    _, history = train(model, [train_batch], [val_batch], settings)
    assert len(history) < 200
    best_epoch = int(np.argmin([h["val_loss"] for h in history]))
    assert len(history) <= best_epoch + 1 + settings.patience


def test_train_requires_batches():
    config = EnhancerConfig(layer_sizes=(4,))
    model = init_model(config, n_freq=4, feature_stats=_stats(4))
    with pytest.raises(DataError, match="nonempty"):
        train(model, [], [_random_batch(config, 4)], TrainSettings())


# ------------------------------------------------------------------- setup

def test_init_model_bias_layout():
    config = EnhancerConfig(layer_sizes=(5,))
    model = init_model(config, n_freq=4, feature_stats=_stats(4), seed=7)
    bias = model.params["l0.f.b"]
    np.testing.assert_array_equal(bias[:5], 0.0)        # input gate
    np.testing.assert_array_equal(bias[5:10], 1.0)      # forget gate
    np.testing.assert_array_equal(bias[10:], 0.0)       # candidate, output
    np.testing.assert_array_equal(model.params["out.b"], 0.0)


def test_init_model_weight_bounds():
    config = EnhancerConfig(layer_sizes=(5,))
    model = init_model(config, n_freq=4, feature_stats=_stats(4), seed=8)
    w_x = model.params["l0.f.w_x"]
    bound = 1.0 / np.sqrt(w_x.shape[-1])
    assert np.abs(w_x).max() <= bound
    a = init_model(config, 4, _stats(4), seed=9).params["l0.f.w_x"]
    b = init_model(config, 4, _stats(4), seed=9).params["l0.f.w_x"]
    np.testing.assert_array_equal(a, b)


def test_config_validation():
    with pytest.raises(DataError, match="one or two"):
        EnhancerConfig(layer_sizes=(4, 4, 4))
    with pytest.raises(DataError, match="merge_mode"):
        EnhancerConfig(merge_mode="median")
    with pytest.raises(DataError, match="output_activation"):
        EnhancerConfig(output_activation="relu")
    assert EnhancerConfig(target_kind="ps").target_kind is TargetKind.PS


# ----------------------------------------------------------------- batches

def test_build_batch_shapes(small_cfg):
    noisy = stft(make_noise(600, seed=40), small_cfg)
    clean = stft(make_noise(600, seed=41, scale=0.1), small_cfg)
    mask = MaskGrid(values=np.full(noisy.bins.shape, 0.5))
    stats = FeatureStats.from_spectrograms([noisy])
    batch = build_batch(noisy, mask, clean, stats, TargetKind.IA)
    n_frames, n_freq = noisy.n_frames, noisy.n_freq
    assert batch.inputs.shape == (n_frames, 2 * n_freq)
    assert batch.target.shape == (n_frames, n_freq)
    assert batch.noisy_mag is None
    batch_ma = build_batch(noisy, mask, clean, stats, TargetKind.MA)
    assert batch_ma.noisy_mag.shape == (n_frames, n_freq)


def test_enhance_channels_runs_per_channel(small_cfg, two_channel_render):
    specs = [stft(two_channel_render.mixture.channel(c), small_cfg)
             for c in range(2)]
    stats = FeatureStats.from_spectrograms(specs)
    config = EnhancerConfig(layer_sizes=(4,))
    model = init_model(config, small_cfg.n_freq, stats, seed=10)
    mask = MaskGrid(values=np.full(specs[0].bins.shape, 0.5))
    masks = enhance_channels(model, specs, mask)
    assert len(masks) == 2
    for m in masks:
        assert m.values.shape == specs[0].bins.shape
        assert m.values.min() >= 0.0 and m.values.max() <= 1.0
    assert not np.array_equal(masks[0].values, masks[1].values)


# ------------------------------------------------------------------- files

def test_model_round_trip(tmp_path):
    config = EnhancerConfig(layer_sizes=(5, 3), merge_mode="concatenate",
                            output_activation="hard_sigmoid",
                            target_kind=TargetKind.PS)
    stats = FeatureStats(mean=np.arange(4.0), std=np.ones(4) * 2.0)
    model = init_model(config, n_freq=4, feature_stats=stats, seed=11)
    path = tmp_path / "model.bin"
    save_model(model, path)
    back = load_model(path)
    assert back.config == config
    assert back.n_freq == 4
    np.testing.assert_allclose(back.feature_stats.mean, stats.mean)

    # Weights pass through a float32 payload; saving again is idempotent.
    path2 = tmp_path / "model2.bin"
    save_model(back, path2)
    assert path.read_bytes() == path2.read_bytes()

    x = np.random.default_rng(12).standard_normal((6, 8))
    np.testing.assert_allclose(forward(back, x).values,
                               forward(model, x).values, atol=1e-5)


def test_model_file_truncated(tmp_path):
    config = EnhancerConfig(layer_sizes=(4,))
    model = init_model(config, n_freq=4, feature_stats=_stats(4))
    path = tmp_path / "model.bin"
    save_model(model, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(DataError, match="truncated"):
        load_model(path)


def test_model_file_wrong_magic(tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(b"NOTMODEL" + b"\x00" * 64)
    with pytest.raises(DataError, match="not a model file"):
        load_model(path)


def _tiny_model_bytes(tmp_dir) -> bytes:
    model = init_model(EnhancerConfig(layer_sizes=(1,)), n_freq=1,
                       feature_stats=_stats(1), seed=0)
    path = os.path.join(tmp_dir, "tiny.model")
    save_model(model, path)
    with open(path, "rb") as handle:
        return handle.read()


with tempfile.TemporaryDirectory() as _dir:
    _TINY_MODEL = _tiny_model_bytes(_dir)


@pytest.mark.parametrize("cut", range(len(_TINY_MODEL)))
def test_model_file_every_prefix_is_data_error(tmp_path, cut):
    path = tmp_path / "model.bin"
    path.write_bytes(_TINY_MODEL[:cut])
    with pytest.raises(DataError):
        load_model(path)


def _with_header(header: bytes) -> bytes:
    return MODEL_MAGIC + struct.pack("<I", len(header)) + header


@pytest.mark.parametrize("blob", [
    _with_header(b"\xff\xfe not utf-8"),
    _with_header(b"{not json"),
    _with_header(b"[1, 2, 3]"),
    _with_header(b'{"config": {}}'),
    _with_header(json.dumps({
        "config": {"layer_sizes": [1], "merge_mode": "average",
                   "output_activation": "sigmoid", "target_kind": 7},
        "n_freq": 1, "stats": {"mean": [0.0], "std": [1.0]}, "tensors": [],
    }).encode()),
    _with_header(json.dumps({
        "config": {"layer_sizes": [1], "merge_mode": "average",
                   "output_activation": "sigmoid", "target_kind": "ia"},
        "n_freq": -3, "stats": {"mean": [0.0], "std": [1.0]},
        "tensors": [{"name": "out.b", "shape": [-3]}],
    }).encode()),
], ids=["utf8", "json", "list", "missing-key", "kind-type", "bad-shape"])
def test_model_file_bad_header_is_data_error(tmp_path, blob):
    path = tmp_path / "model.bin"
    path.write_bytes(blob)
    with pytest.raises(DataError):
        load_model(path)


def test_tensor_order_dimensions():
    config = EnhancerConfig(layer_sizes=(6, 4), merge_mode="concatenate")
    order = dict(tensor_order(config, n_freq=5))
    assert order["l0.f.w_x"] == (24, 10)
    assert order["l0.f.w_h"] == (24, 6)
    assert order["l1.f.w_x"] == (16, 12)   # concatenated first layer: 2 * 6
    assert order["out.w"] == (5, 8)        # concatenated second layer: 2 * 4
    single = dict(tensor_order(EnhancerConfig(layer_sizes=(6,)), n_freq=5))
    assert single["out.w"] == (5, 6)       # averaged merge keeps the width
