"""Mask-driven spatial covariance estimation and MVDR beamforming.

Speech and noise covariance matrices are mask-weighted outer-product
averages per frequency, built for all frequencies in one batched matrix
product. The distortionless-response weights come from one batched
linear solve of every usable noise covariance against its steering
vector (the principal eigenvector of the speech covariance); no matrix
is ever explicitly inverted. A batched Cholesky factorization serves as
the positive-definiteness test; only when it fails are the covariances
factored one frequency at a time, to find the ones that are not. Those
frequencies, and those whose covariances are degenerate or not finite,
fall back to a reference-channel selector and are flagged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .signal import AMP_FLOOR, MaskGrid, Spectrogram, check_channels, check_ratio_mask

LOAD_FACTOR = 1e-6     # diagonal loading relative to mean eigenvalue
WEIGHT_FLOOR = 1e-3    # minimum mask weight (in frames) per frequency


@dataclass
class CovarianceField:
    """Per-frequency speech and noise covariances with degeneracy flags."""

    speech: np.ndarray
    noise: np.ndarray
    degenerate_speech: np.ndarray
    degenerate_noise: np.ndarray

    @property
    def n_freq(self) -> int:
        return self.speech.shape[0]

    @property
    def n_channels(self) -> int:
        return self.speech.shape[1]


@dataclass
class BeamformerWeights:
    """Complex weights and steering vectors per frequency.

    passthrough marks frequencies where the solve was degenerate and the
    weights select the reference channel instead.
    """

    weights: np.ndarray
    steering: np.ndarray
    passthrough: np.ndarray
    reference_channel: int


def _weighted_covariances(bins: np.ndarray, adjoint: np.ndarray, weights: np.ndarray):
    """Mask-weighted outer-product average per frequency.

    bins: (n_freq, n_channels, n_frames) complex; adjoint: its conjugate
    transpose per frequency, (n_freq, n_frames, n_channels). weights:
    (n_freq, n_frames) in [0, 1]. Returns (covariances, degenerate flags).
    """
    n_channels = bins.shape[1]
    weight_sum = weights.sum(axis=1)
    degenerate = weight_sum < WEIGHT_FLOOR
    cov = (bins * weights[:, None, :]) @ adjoint
    safe = np.where(degenerate, 1.0, weight_sum)
    cov /= safe[:, None, None]
    if degenerate.any():
        # Identity scaled by the mean per-channel power keeps the field usable.
        power = np.mean(np.abs(bins[degenerate]) ** 2, axis=(1, 2))
        cov[degenerate] = np.maximum(power, AMP_FLOOR ** 2)[:, None, None] * np.eye(
            n_channels
        )
    # Diagonal loading and exact Hermitian symmetry.
    trace = np.real(np.trace(cov, axis1=1, axis2=2))
    load = LOAD_FACTOR * trace / n_channels
    cov += load[:, None, None] * np.eye(n_channels)
    cov = 0.5 * (cov + np.conj(np.swapaxes(cov, 1, 2)))
    return cov, degenerate


def estimate_covariances(specs, mask: MaskGrid) -> CovarianceField:
    """Speech covariances weighted by the mask, noise by its complement."""
    specs = check_channels(specs)
    shape = specs[0].bins.shape
    m = check_ratio_mask(mask)
    if m.shape != shape:
        raise DataError(
            f"mask shape {m.shape} does not match spectrogram shape {shape}"
        )
    bins = np.stack([s.bins for s in specs], axis=1)
    adjoint = np.swapaxes(np.conj(bins), 1, 2)
    speech, deg_s = _weighted_covariances(bins, adjoint, m)
    noise, deg_n = _weighted_covariances(bins, adjoint, 1.0 - m)
    return CovarianceField(
        speech=speech, noise=noise, degenerate_speech=deg_s, degenerate_noise=deg_n
    )


def _positive_definite(matrices: np.ndarray) -> np.ndarray:
    """Flags, per matrix of a (k, m, m) stack, whose Cholesky factorization
    succeeds. The stack is factored at once; only if that fails is each
    matrix factored alone, to locate the ones that are not positive
    definite."""
    try:
        np.linalg.cholesky(matrices)
        return np.ones(len(matrices), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    flags = np.ones(len(matrices), dtype=bool)
    for k, matrix in enumerate(matrices):
        try:
            np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError:
            flags[k] = False
    return flags


def mvdr_weights(cov: CovarianceField, reference_channel: int = 0) -> BeamformerWeights:
    """Minimum-variance distortionless-response weights per frequency.

    The steering vector is the principal eigenvector of the speech
    covariance, scaled to norm sqrt(n_channels) with a real positive
    reference entry. Valid frequencies satisfy weights^H steering = 1;
    degenerate ones pass the reference channel through unchanged.
    """
    n_freq, n_channels = cov.n_freq, cov.n_channels
    if not 0 <= reference_channel < n_channels:
        raise DataError(f"reference channel {reference_channel} out of range")
    selector = np.zeros(n_channels, dtype=np.complex128)
    selector[reference_channel] = 1.0

    weights = np.tile(selector, (n_freq, 1))
    steering = np.tile(selector, (n_freq, 1))
    passthrough = np.ones(n_freq, dtype=bool)

    _, eigvecs = np.linalg.eigh(cov.speech)
    principal = eigvecs[:, :, -1]
    ref = principal[:, reference_channel]
    magnitude = np.abs(ref)
    rotate = magnitude > 1e-12
    phase = np.ones(n_freq, dtype=np.complex128)
    phase[rotate] = np.conj(ref[rotate]) / magnitude[rotate]
    d = principal * phase[:, None] * np.sqrt(n_channels)

    usable = ~(cov.degenerate_speech | cov.degenerate_noise)
    usable &= np.all(np.isfinite(cov.noise), axis=(1, 2))
    usable &= np.all(np.isfinite(d), axis=1)
    idx = np.flatnonzero(usable)
    idx = idx[_positive_definite(cov.noise[idx])]
    solved = np.linalg.solve(cov.noise[idx], d[idx][:, :, None])[:, :, 0]
    denom = np.real(np.sum(np.conj(d[idx]) * solved, axis=1))
    valid = np.isfinite(denom) & (denom > 0)
    w = solved / np.where(valid, denom, 1.0)[:, None]
    valid &= np.all(np.isfinite(w), axis=1)
    idx, w = idx[valid], w[valid]
    weights[idx] = w
    steering[idx] = d[idx]
    passthrough[idx] = False
    return BeamformerWeights(
        weights=weights,
        steering=steering,
        passthrough=passthrough,
        reference_channel=reference_channel,
    )


def beamform(specs, bw: BeamformerWeights) -> Spectrogram:
    """Apply weights: output bin = weights^H observations."""
    specs = check_channels(specs)
    if len(specs) != bw.weights.shape[1]:
        raise DataError(
            f"{len(specs)} channels but weights expect {bw.weights.shape[1]}"
        )
    if specs[0].n_freq != bw.weights.shape[0]:
        raise DataError("weights frequency axis does not match spectrograms")
    bins = np.stack([s.bins for s in specs])
    out = np.einsum("fm,mft->ft", np.conj(bw.weights), bins)
    return Spectrogram(bins=out, config=specs[0].config, sample_rate=specs[0].sample_rate)

