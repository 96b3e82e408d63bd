"""Recurrent mask enhancer: forward math, gradients, training, files."""

import copy
import dataclasses
import json
import os
import struct
import tempfile

import numpy as np
import pytest
from scipy.special import expit

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
from arraysep import enhancer as enhancer_module
from arraysep.enhancer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    MERGE_MODES,
    MODEL_MAGIC,
    OUTPUT_ACTIVATIONS,
    EnhancerConfig,
    _Adam,
    _batch_loss_and_grads,
    _inputs,
    _lstm_backward,
    _lstm_forward,
    batch_loss,
    hard_sigmoid,
    tensor_order,
)
from arraysep.signal import logit_mask
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


def _reference_lstm_forward(w_x, w_h, b, x):
    """One array per gate, each activation computed on its own slice."""
    steps = x.shape[0]
    width = w_h.shape[1]
    zx = x @ w_x.T + b
    i, f, g, o, c, tanh_c, h = (np.empty((steps, width)) for _ in range(7))
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
    return h, (x, i, f, g, o, c, tanh_c, h)


def _reference_lstm_backward(w_x, w_h, dh_seq, cache):
    """Each gate's derivative worked out per step from the forward values."""
    x, i, f, g, o, c, tanh_c, h = cache
    steps, width = h.shape
    dz = np.empty((steps, 4 * width))
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
    return grads, dz @ w_x


@pytest.mark.parametrize("steps", [1, 2, 40, 147])
@pytest.mark.parametrize("width", [1, 3, 32])
def test_lstm_matches_per_gate_reference_bit_for_bit(steps, width):
    # Both directions step together; each must equal the one-direction
    # reference run on its own time order, the backward one on x reversed.
    gen = np.random.default_rng(steps * 100 + width)
    dim = 10
    params = {}
    for d in "fb":
        params[f"l0.{d}.w_x"] = 0.5 * gen.standard_normal((4 * width, dim))
        params[f"l0.{d}.w_h"] = 0.5 * gen.standard_normal((4 * width, width))
        params[f"l0.{d}.b"] = gen.standard_normal(4 * width)
    x = 2.0 * gen.standard_normal((steps, dim))
    dh = gen.standard_normal((2, steps, width))
    h, cache = _lstm_forward(params, 0, x)
    grads, dx = _lstm_backward(dh, cache)
    grads_ref, dx_ref = {}, []
    for row, (d, step) in enumerate((("f", 1), ("b", -1))):
        w_x, w_h, b = (params[f"l0.{d}.{p}"] for p in ("w_x", "w_h", "b"))
        h_ref, cache_ref = _reference_lstm_forward(w_x, w_h, b, x[::step])
        assert np.array_equal(h[row], h_ref[::step]), d
        g, dx_d = _reference_lstm_backward(w_x, w_h, dh[row][::step], cache_ref)
        grads_ref.update((f"l0.{d}.{key}", grad) for key, grad in g.items())
        dx_ref.append(dx_d[::step])
    assert list(grads) == list(grads_ref)
    for key in grads_ref:
        assert np.array_equal(grads[key], grads_ref[key]), key
    assert np.array_equal(dx, dx_ref[0] + dx_ref[1])


def _lstm_params(gen, width, dim):
    params = {}
    for d in "fb":
        params[f"l0.{d}.w_x"] = 0.5 * gen.standard_normal((4 * width, dim))
        params[f"l0.{d}.w_h"] = 0.5 * gen.standard_normal((4 * width, width))
        params[f"l0.{d}.b"] = gen.standard_normal(4 * width)
    return params


def test_lstm_forward_buffers_stay_out_of_results():
    # The step buffers are per call: a second call on other inputs must
    # not write into the first call's outputs or cache.
    gen = np.random.default_rng(50)
    params = _lstm_params(gen, width=3, dim=5)
    x1, x2 = 2.0 * gen.standard_normal((2, 9, 5))
    h1, cache1 = _lstm_forward(params, 0, x1)
    kept = [a.copy() for a in (h1, *cache1[4:])]    # h, gates, c, tanh_c, h
    h2, _ = _lstm_forward(params, 0, x2)
    for before, after in zip(kept, (h1, *cache1[4:])):
        assert np.array_equal(before, after)
    assert not np.array_equal(h1, h2)


def test_lstm_backward_repeats_on_one_cache():
    gen = np.random.default_rng(51)
    params = _lstm_params(gen, width=4, dim=6)
    x = gen.standard_normal((8, 6))
    dh = gen.standard_normal((2, 8, 4))
    _, cache = _lstm_forward(params, 0, x)
    kept = [a.copy() for a in cache[4:]]
    grads_a, dx_a = _lstm_backward(dh, cache)
    grads_b, dx_b = _lstm_backward(dh, cache)
    assert list(grads_a) == list(grads_b)
    for key in grads_a:
        assert np.array_equal(grads_a[key], grads_b[key]), key
        assert not np.shares_memory(grads_a[key], grads_b[key]), key
    assert np.array_equal(dx_a, dx_b) and not np.shares_memory(dx_a, dx_b)
    for before, after in zip(kept, cache[4:]):
        assert np.array_equal(before, after)


def test_lstm_runs_one_step_with_and_without_input_products():
    gen = np.random.default_rng(52)
    params = _lstm_params(gen, width=3, dim=4)
    x = gen.standard_normal((1, 4))
    zx = np.stack([x @ params[f"l0.{d}.w_x"].T + params[f"l0.{d}.b"] for d in "fb"],
                  axis=1)
    h, _ = _lstm_forward(params, 0, x)
    h_zx, _ = _lstm_forward(params, 0, x, zx)
    assert h.shape == (2, 1, 3)
    assert np.array_equal(h, h_zx)


def test_gradient_order_is_output_then_layers_last_first():
    # _clip_grads sums the squared norms in this order, so it fixes the bits.
    config = EnhancerConfig(layer_sizes=(3, 2), merge_mode="concatenate")
    _, grads = _batch_loss_and_grads(_random_model(config, 4), _random_batch(config, 4))
    lstm = [f"l{layer}.{d}.{p}" for layer in (1, 0) for d in "fb"
            for p in ("w_x", "w_h", "b")]
    assert list(grads) == ["out.w", "out.b", *lstm]


# ---------------------------------------------------------------- training

@pytest.mark.parametrize("learning_rate", [1e-3, 5e-2])
def test_adam_matches_the_textbook_update_bit_for_bit(learning_rate):
    gen = np.random.default_rng(53)
    shapes = {"w": (6, 5), "b": (7,), "s": (1,), "t": (2, 3, 4)}
    params = {k: gen.standard_normal(shape) for k, shape in shapes.items()}
    want = {k: p.copy() for k, p in params.items()}
    m = {k: np.zeros(shape) for k, shape in shapes.items()}
    v = {k: np.zeros(shape) for k, shape in shapes.items()}
    optimizer = _Adam(params, learning_rate)
    for t in range(1, 5):
        grads = {k: gen.standard_normal(shape) for k, shape in shapes.items()}
        kept = {k: g.copy() for k, g in grads.items()}
        optimizer.step(params, grads)
        for k, g in kept.items():
            m[k] = ADAM_BETA1 * m[k] + (1.0 - ADAM_BETA1) * g
            v[k] = ADAM_BETA2 * v[k] + (1.0 - ADAM_BETA2) * g * g
            m_hat = m[k] / (1.0 - ADAM_BETA1 ** t)
            v_hat = v[k] / (1.0 - ADAM_BETA2 ** t)
            want[k] = want[k] - learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
            assert np.array_equal(grads[k], g), k
            assert np.array_equal(optimizer.m[k], m[k]), k
            assert np.array_equal(optimizer.v[k], v[k]), k
            assert np.array_equal(params[k], want[k]), k
    arrays = [params, grads, optimizer.m, optimizer.v]
    for k in shapes:
        for a in range(len(arrays)):
            for b in range(a):
                assert not np.shares_memory(arrays[a][k], arrays[b][k]), k


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
    # train draws no random numbers, so settings.seed changes nothing.
    def run(seed):
        config = EnhancerConfig(layer_sizes=(5,))
        model = init_model(config, n_freq=4, feature_stats=_stats(4), seed=4)
        batches = [_random_batch(config, 4, seed=s) for s in (10, 11, 12)]
        settings = TrainSettings(learning_rate=5e-3, max_epochs=6, patience=6, seed=seed)
        return train(model, batches[:2], batches[2:], settings)

    model_a, hist_a = run(0)
    for seed in (0, 7):
        model_b, hist_b = run(seed)
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


def test_train_settings_need_an_epoch():
    assert TrainSettings().max_epochs == 30
    for epochs in (0, -2):
        with pytest.raises(DataError, match="max_epochs"):
            TrainSettings(max_epochs=epochs)


def test_train_settings_need_a_usable_rate_and_patience():
    for rate in (-0.5, -1e-12, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(DataError, match="learning_rate"):
            TrainSettings(learning_rate=rate)
    for patience in (0, -4):
        with pytest.raises(DataError, match="patience"):
            TrainSettings(patience=patience)
    assert TrainSettings(learning_rate=0.0, patience=1).patience == 1


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
    for sizes in ((8.5,), (2.0000001,), (4, None), 4):
        with pytest.raises(DataError, match="layer_sizes"):
            EnhancerConfig(layer_sizes=sizes)
    assert EnhancerConfig(layer_sizes=(8.0, np.int64(3))).layer_sizes == (8, 3)
    with pytest.raises(DataError, match="merge_mode"):
        EnhancerConfig(merge_mode="median")
    with pytest.raises(DataError, match="output_activation"):
        EnhancerConfig(output_activation="relu")
    assert EnhancerConfig(target_kind="ps").target_kind is TargetKind.PS
    with pytest.raises(DataError, match="target kind"):
        EnhancerConfig(target_kind=5)
    with pytest.raises(DataError, match="seed"):
        TrainSettings(seed=-1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        TrainSettings().seed = 3


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


def _channel_specs(cfg, n_channels, n=900):
    return [stft(make_noise(n, seed=50 + c, scale=0.1 * (c + 1)), cfg)
            for c in range(n_channels)]


@pytest.mark.parametrize("activation", OUTPUT_ACTIVATIONS)
@pytest.mark.parametrize("mode", MERGE_MODES)
@pytest.mark.parametrize("sizes", [(5,), (6, 4)])
def test_enhance_channels_matches_the_full_input_product(small_cfg, sizes, mode,
                                                         activation):
    # The mask half of the first layer's products is formed once per scene;
    # each channel must still get the mask of its full (T, 2F) input rows.
    specs = _channel_specs(small_cfg, 3)
    stats = FeatureStats.from_spectrograms(specs)
    config = EnhancerConfig(layer_sizes=sizes, merge_mode=mode,
                            output_activation=activation)
    model = init_model(config, small_cfg.n_freq, stats, seed=13)
    gen = np.random.default_rng(14)
    for name in model.params:
        model.params[name] += 0.1 * gen.standard_normal(model.params[name].shape)
    mask = MaskGrid(values=gen.uniform(0.0, 1.0, specs[0].bins.shape))
    full = [forward(model, _inputs(spec, logit_mask(mask), stats)).values
            for spec in specs]
    split = enhance_channels(model, specs, mask)
    assert len(split) == len(full)
    for got, want in zip(split, full):
        np.testing.assert_allclose(got.values, want, rtol=1e-12, atol=0.0)


def test_enhance_channels_rejects_a_mask_of_another_shape(small_cfg):
    specs = _channel_specs(small_cfg, 2)
    model = init_model(EnhancerConfig(layer_sizes=(4,)), small_cfg.n_freq,
                       FeatureStats.from_spectrograms(specs))
    n_freq, n_frames = specs[0].bins.shape
    for shape in ((n_freq, n_frames - 1), (n_freq - 1, n_frames)):
        with pytest.raises(DataError, match="shapes do not match"):
            enhance_channels(model, specs, MaskGrid(values=np.full(shape, 0.5)))


def test_enhance_channels_calls_forward_once_per_channel(small_cfg, monkeypatch):
    # The benchmark times enhancer.forward per channel and counts the frames
    # of the grid each call returns.
    specs = _channel_specs(small_cfg, 3)
    model = init_model(EnhancerConfig(layer_sizes=(4,)), small_cfg.n_freq,
                       FeatureStats.from_spectrograms(specs))
    shapes = []

    def counted(*args, **kwargs):
        grid = original(*args, **kwargs)
        shapes.append(grid.values.shape)
        return grid

    original = enhancer_module.forward
    monkeypatch.setattr(enhancer_module, "forward", counted)
    enhance_channels(model, specs, MaskGrid(values=np.full(specs[0].bins.shape, 0.5)))
    assert shapes == [specs[0].bins.shape] * len(specs)


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


def test_save_model_refuses_weights_that_overflow_float32(tmp_path):
    # A huge rate trains to finite float64 weights past the float32 range.
    config = EnhancerConfig(layer_sizes=(4,))
    model = init_model(config, n_freq=4, feature_stats=_stats(4), seed=2)
    batch = _random_batch(config, 4, seed=3)
    settings = TrainSettings(learning_rate=1e39, max_epochs=3, patience=3)
    model, history = train(model, [batch], [batch], settings)
    assert len(history) == 3
    assert all(np.isfinite(t).all() for t in model.params.values())
    path = tmp_path / "model.bin"
    with pytest.raises(NumericalError, match=r"tensor l0\.f\.w_x is not finite"):
        save_model(model, path)
    assert not path.exists()


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
    _with_header(json.dumps({
        "config": {"layer_sizes": [1], "merge_mode": "average", "target_kind": "ia"},
        "n_freq": 1, "stats": {"mean": [0.0], "std": [1.0]}, "tensors": [],
    }).encode()),
], ids=["utf8", "json", "list", "missing-key", "kind-type", "bad-shape",
        "config-key"])
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
