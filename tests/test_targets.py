"""Target definitions and loss algebra, checked against hand-worked values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arraysep import MaskGrid, Spectrogram, StftConfig, TargetContext, TargetKind, compute_target, loss
from arraysep.signal import AMP_FLOOR
from arraysep.targets import bce_with_grad, loss_with_grad, signal_mse_with_grad


def _ctx_from_bins(clean_bins, noisy_bins, cfg=None):
    cfg = cfg or StftConfig(window_size=16, hop_size=4)
    clean = Spectrogram(bins=clean_bins, config=cfg, sample_rate=16000)
    noisy = Spectrogram(bins=noisy_bins, config=cfg, sample_rate=16000)
    return TargetContext.from_spectrograms(clean, noisy)


def _single_bin_ctx(s: complex, y: complex):
    """A 9x1 grid whose first bin carries the case under test."""
    clean = np.zeros((9, 1), dtype=complex)
    noisy = np.zeros((9, 1), dtype=complex)
    clean[0, 0] = s
    noisy[0, 0] = y
    return _ctx_from_bins(clean, noisy)


# --------------------------------------------------------------- hand cases

def test_amplitude_mask_half():
    # |s| = 1, |y| = 2, aligned phase: the amplitude ratio is exactly 0.5.
    ctx = _single_bin_ctx(1.0 + 0.0j, 2.0 + 0.0j)
    assert compute_target(ctx, TargetKind.IA).values[0, 0] == pytest.approx(0.5)


def test_phase_sensitive_mask_quarter():
    # |s| = 1, |y| = 2, theta = pi/3: cos scales the ratio to 0.25.
    s = np.exp(1j * np.pi / 3.0)
    ctx = _single_bin_ctx(s, 2.0 + 0.0j)
    assert compute_target(ctx, TargetKind.PS).values[0, 0] == pytest.approx(
        0.25, abs=1e-12
    )


def test_magnitude_target_is_clean_magnitude():
    ctx = _single_bin_ctx(3.0 - 4.0j, 1.0 + 0.0j)
    assert compute_target(ctx, TargetKind.MA).values[0, 0] == pytest.approx(5.0)


def test_phase_adjusted_magnitude():
    # theta = pi/3 scales |s| = 2 down to 1; opposite phase clips to zero.
    s = 2.0 * np.exp(1j * np.pi / 3.0)
    ctx = _single_bin_ctx(s, 1.0 + 0.0j)
    assert compute_target(ctx, TargetKind.PA).values[0, 0] == pytest.approx(
        1.0, abs=1e-12
    )
    ctx = _single_bin_ctx(-1.0 + 0.0j, 1.0 + 0.0j)
    assert compute_target(ctx, TargetKind.PA).values[0, 0] == 0.0


def test_amplitude_mask_clips_at_one():
    ctx = _single_bin_ctx(3.0 + 0.0j, 1.0 + 0.0j)
    assert compute_target(ctx, TargetKind.IA).values[0, 0] == 1.0


def test_phase_sensitive_clips_below_at_zero():
    ctx = _single_bin_ctx(-2.0 + 0.0j, 1.0 + 0.0j)
    assert compute_target(ctx, TargetKind.PS).values[0, 0] == 0.0


def test_amplitude_mask_unit_when_clean_equals_mixture():
    gen = np.random.default_rng(0)
    bins = gen.standard_normal((9, 6)) + 1j * gen.standard_normal((9, 6))
    ctx = _ctx_from_bins(bins, bins.copy())
    ia = compute_target(ctx, TargetKind.IA).values
    above_floor = np.abs(bins) > AMP_FLOOR
    assert np.all(ia[above_floor] == 1.0)


def test_bce_at_half_is_log_two():
    vals = np.full((3, 3), 0.5)
    value, _ = bce_with_grad(vals, vals)
    assert value == pytest.approx(np.log(2.0), abs=1e-12)


def test_bce_perfect_prediction_is_small():
    target = np.array([[0.0, 1.0]])
    value, _ = bce_with_grad(target.copy(), target)
    # Predictions are clamped at MASK_EPS, so the floor is -log(1 - eps).
    assert value == pytest.approx(-np.log(1.0 - 1e-3), abs=1e-12)


def test_mse_exact_value():
    pred = np.array([[0.5]])
    noisy = np.array([[2.0]])
    target = np.array([[3.0]])
    value, grad = signal_mse_with_grad(pred, noisy, target)
    # (0.5 * 2 - 3)^2 = 4; gradient 2 * 2 * (1 - 3) = -8.
    assert value == pytest.approx(4.0)
    assert grad[0, 0] == pytest.approx(-8.0)


# ---------------------------------------------------------------- gradients

def _central_diff(fn, x, h=1e-6):
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        step = h * max(1.0, abs(x[idx]))
        xp = x.copy()
        xp[idx] += step
        xm = x.copy()
        xm[idx] -= step
        grad[idx] = (fn(xp) - fn(xm)) / (2.0 * step)
    return grad


def test_bce_gradient_matches_central_difference():
    gen = np.random.default_rng(1)
    pred = gen.uniform(0.05, 0.95, size=(4, 5))
    target = gen.uniform(0.0, 1.0, size=(4, 5))
    _, grad = bce_with_grad(pred, target)
    numeric = _central_diff(lambda p: bce_with_grad(p, target)[0], pred)
    np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-9)


def test_bce_gradient_zero_in_clamped_region():
    pred = np.array([[1e-4, 0.9999, 0.5]])
    target = np.array([[1.0, 0.0, 0.5]])
    _, grad = bce_with_grad(pred, target)
    assert grad[0, 0] == 0.0
    assert grad[0, 1] == 0.0
    assert grad[0, 2] == 0.0  # p == t has zero slope


def test_mse_gradient_matches_central_difference():
    gen = np.random.default_rng(2)
    pred = gen.uniform(0.0, 1.0, size=(4, 5))
    noisy = gen.uniform(0.5, 2.0, size=(4, 5))
    target = gen.uniform(0.0, 2.0, size=(4, 5))
    _, grad = signal_mse_with_grad(pred, noisy, target)
    numeric = _central_diff(
        lambda p: signal_mse_with_grad(p, noisy, target)[0], pred
    )
    np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-9)


def test_loss_with_grad_dispatch():
    gen = np.random.default_rng(3)
    pred = gen.uniform(0.1, 0.9, size=(3, 4))
    target = gen.uniform(0.0, 1.0, size=(3, 4))
    noisy = gen.uniform(0.5, 1.5, size=(3, 4))
    for kind in (TargetKind.IA, TargetKind.PS):
        assert loss_with_grad(pred, kind, target)[0] == bce_with_grad(pred, target)[0]
    for kind in (TargetKind.MA, TargetKind.PA):
        expect = signal_mse_with_grad(pred, noisy, target)[0]
        assert loss_with_grad(pred, kind, target, noisy_mag=noisy)[0] == expect
    with pytest.raises(Exception, match="noisy magnitude"):
        loss_with_grad(pred, TargetKind.MA, target)


# --------------------------------------------------------------- properties

@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_mask_targets_in_unit_interval(seed):
    gen = np.random.default_rng(seed)
    shape = (9, 4)
    clean = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    noisy = clean + 0.5 * (gen.standard_normal(shape) + 1j * gen.standard_normal(shape))
    ctx = _ctx_from_bins(clean, noisy)
    for kind in (TargetKind.IA, TargetKind.PS):
        vals = compute_target(ctx, kind).values
        assert vals.min() >= 0.0 and vals.max() <= 1.0
    for kind in (TargetKind.MA, TargetKind.PA):
        assert compute_target(ctx, kind).values.min() >= 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_phase_sensitive_below_amplitude(seed):
    # cos(theta) <= 1 pointwise, so the phase-sensitive mask never exceeds
    # the amplitude mask.
    gen = np.random.default_rng(seed)
    shape = (9, 4)
    clean = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    noisy = clean + gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    ctx = _ctx_from_bins(clean, noisy)
    ia = compute_target(ctx, TargetKind.IA).values
    ps = compute_target(ctx, TargetKind.PS).values
    assert np.all(ps <= ia + 1e-12)


def test_loss_kind_mapping():
    # Mask targets are scored with cross entropy, spectra with masked MSE.
    assert TargetKind.IA.is_mask and TargetKind.PS.is_mask
    assert not TargetKind.MA.is_mask and not TargetKind.PA.is_mask
    assert TargetKind.parse(" PS ") is TargetKind.PS
    with pytest.raises(Exception, match="unknown target kind"):
        TargetKind.parse("irm")


def test_loss_convenience_checks_range():
    gen = np.random.default_rng(4)
    shape = (9, 3)
    clean = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    ctx = _ctx_from_bins(clean, clean + 0.1)
    bad = MaskGrid(values=np.full(shape, 1.2))
    with pytest.raises(Exception, match="must lie in"):
        loss(bad, ctx, TargetKind.IA)
    ok = MaskGrid(values=np.full(shape, 0.5))
    assert np.isfinite(loss(ok, ctx, TargetKind.IA))
    assert np.isfinite(loss(bad, ctx, TargetKind.MA))  # MSE has no range limit


def test_shape_mismatch_rejected():
    gen = np.random.default_rng(5)
    a = gen.standard_normal((9, 3)) + 0j
    b = gen.standard_normal((9, 4)) + 0j
    cfg = StftConfig(window_size=16, hop_size=4)
    with pytest.raises(Exception, match="does not match"):
        TargetContext.from_spectrograms(
            Spectrogram(bins=a, config=cfg, sample_rate=16000),
            Spectrogram(bins=b, config=cfg, sample_rate=16000),
        )
