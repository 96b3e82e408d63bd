"""Training targets for mask estimation and their losses.

Four target kinds are supported. Two are ratio masks scored with binary
cross entropy: the ideal amplitude mask |s|/|y| and its phase-sensitive
variant cos(theta) |s|/|y|, both clipped to [0, 1]. Two are magnitude
spectra scored with a signal-approximation squared error, where the
prediction is applied to the noisy magnitude before comparison: the clean
magnitude |s| and the phase-adjusted magnitude cos(theta) |s| clipped below
at zero. theta is the clean-minus-noisy phase at each bin.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .signal import AMP_FLOOR, MASK_EPS, MaskGrid, Spectrogram, _mask_grid
from .util import _checked, _expect, _member


class TargetKind(enum.Enum):
    IA = "ia"
    PS = "ps"
    MA = "ma"
    PA = "pa"

    @property
    def is_mask(self) -> bool:
        """Ratio masks (scored with cross entropy), not magnitude spectra."""
        return self in (TargetKind.IA, TargetKind.PS)

    parse = classmethod(_member)  # the member a name gives, else DataError


@dataclass
class TargetContext:
    """Aligned clean and noisy spectrograms plus their phase difference."""

    clean: Spectrogram
    noisy: Spectrogram
    phase_diff: np.ndarray

    @classmethod
    def from_spectrograms(cls, clean: Spectrogram, noisy: Spectrogram) -> "TargetContext":
        if clean.bins.shape != noisy.bins.shape:
            raise DataError(
                f"clean shape {clean.bins.shape} does not match noisy "
                f"shape {noisy.bins.shape}"
            )
        # angle(s * conj(y)) is the wrapped clean-minus-noisy phase in (-pi, pi].
        theta = np.angle(clean.bins * np.conj(noisy.bins))
        return cls(clean=clean, noisy=noisy, phase_diff=theta)


_context = _expect(TargetContext, "a TargetContext")
_kind = _expect(TargetKind, "a TargetKind")


def compute_target(ctx: TargetContext, kind: TargetKind) -> MaskGrid:
    """Evaluate one target kind over the context's time-frequency grid."""
    ctx = _checked("ctx", ctx, _context)
    kind = _checked("kind", kind, _kind)
    clean_mag = np.abs(ctx.clean.bins)
    noisy_mag = np.maximum(np.abs(ctx.noisy.bins), AMP_FLOOR)
    cos_theta = np.cos(ctx.phase_diff)
    if kind is TargetKind.IA:
        values = np.clip(clean_mag / noisy_mag, 0.0, 1.0)
    elif kind is TargetKind.PS:
        values = np.clip(cos_theta * clean_mag / noisy_mag, 0.0, 1.0)
    elif kind is TargetKind.MA:
        values = clean_mag
    else:
        values = np.maximum(cos_theta * clean_mag, 0.0)
    return MaskGrid(values=values)


def bce_with_grad(pred: np.ndarray, target: np.ndarray):
    """Mean binary cross entropy and its gradient in the prediction.

    Predictions are clamped to [MASK_EPS, 1 - MASK_EPS] before the logs;
    the gradient is zero where the clamp is active.
    """
    if pred.shape != target.shape:
        raise DataError(f"prediction shape {pred.shape} != target shape {target.shape}")
    p = np.clip(pred, MASK_EPS, 1.0 - MASK_EPS)
    loss = float(np.mean(-(target * np.log(p) + (1.0 - target) * np.log(1.0 - p))))
    interior = (pred > MASK_EPS) & (pred < 1.0 - MASK_EPS)
    grad = np.where(interior, (p - target) / (p * (1.0 - p)), 0.0) / pred.size
    return loss, grad


def signal_mse_with_grad(pred: np.ndarray, noisy_mag: np.ndarray, target: np.ndarray):
    """Mean squared error of the masked noisy magnitude against the target."""
    if pred.shape != target.shape or pred.shape != noisy_mag.shape:
        raise DataError("prediction, noisy magnitude, and target shapes must match")
    resid = pred * noisy_mag - target
    loss = float(np.mean(resid ** 2))
    grad = 2.0 * noisy_mag * resid / pred.size
    return loss, grad


def loss(prediction: MaskGrid, ctx: TargetContext, kind: TargetKind) -> float:
    """Score a prediction grid against one target kind."""
    pred = _checked("prediction", prediction, _mask_grid).values
    ctx = _checked("ctx", ctx, _context)
    kind = _checked("kind", kind, _kind)
    if pred.shape != ctx.noisy.bins.shape:
        raise DataError(
            f"prediction shape {pred.shape} does not match context "
            f"shape {ctx.noisy.bins.shape}"
        )
    if kind.is_mask and (pred.min() < 0.0 or pred.max() > 1.0):
        raise DataError("mask predictions must lie in [0, 1] for cross entropy")
    target = compute_target(ctx, kind).values
    return loss_with_grad(pred, kind, target, np.abs(ctx.noisy.bins))[0]


def loss_with_grad(
    pred: np.ndarray,
    kind: TargetKind,
    target: np.ndarray,
    noisy_mag: np.ndarray | None = None,
):
    """Array-level loss and gradient used by the trainer."""
    if kind.is_mask:
        return bce_with_grad(pred, target)
    if noisy_mag is None:
        raise DataError(f"target kind {kind.value} needs the noisy magnitude")
    return signal_mse_with_grad(pred, noisy_mag, target)
