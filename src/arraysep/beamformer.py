"""Mask-driven spatial covariance estimation and MVDR beamforming.

Speech and noise covariance matrices are mask-weighted outer-product
averages per frequency. They are built, and the beamformer output is
formed, one block of frequencies at a time: a block stacks every
channel's bins for at most BLOCK_BYTES (and at least one frequency), and
its results are written into arrays allocated once for all frequencies.
Every frequency's product is its own matrix product and every
normalization is per frequency, so the block size changes no bit of the
result; it only bounds the working memory to a few blocks. The
distortionless-response weights come from one batched linear solve of
every usable noise covariance against its steering vector (the principal
eigenvector of the speech covariance); no matrix is ever explicitly
inverted. A batched Cholesky factorization serves as the
positive-definiteness test; only when it fails are the covariances
factored one frequency at a time, to find the ones that are not. Those
frequencies, and those whose covariances are degenerate or not finite,
fall back to a reference-channel selector and are flagged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .signal import AMP_FLOOR, MaskGrid, Spectrogram, check_channels, check_ratio_mask

LOAD_FACTOR = 1e-6     # diagonal loading relative to mean eigenvalue
WEIGHT_FLOOR = 1e-3    # minimum mask weight (in frames) per frequency
BLOCK_BYTES = 1 << 20  # stacked bins per frequency block, all channels


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


def _frequency_blocks(n_freq: int, n_channels: int, n_frames: int):
    """Slices of the frequency axis whose stacked complex bins, all
    channels and frames, take at most BLOCK_BYTES; each holds at least one
    frequency (all of them when there are no frames)."""
    step = max(1, BLOCK_BYTES // max(1, n_channels * n_frames * 16))
    return [slice(f, min(f + step, n_freq)) for f in range(0, n_freq, step)]


def _stacked_blocks(specs):
    """Every channel's bins, one frequency block at a time.

    Yields (block, bins), bins of shape (block length, n_channels,
    n_frames). All blocks are written into one buffer; a leading slice of
    it is C-contiguous, so a short last block has the strides of a full
    one.
    """
    n_freq, n_frames = specs[0].bins.shape
    blocks = _frequency_blocks(n_freq, len(specs), n_frames)
    buffer = np.empty(
        (blocks[0].stop - blocks[0].start, len(specs), n_frames), dtype=np.complex128
    )
    for block in blocks:
        bins = buffer[: block.stop - block.start]
        for c, s in enumerate(specs):
            bins[:, c] = s.bins[block]
        yield block, bins


def estimate_covariances(specs, mask: MaskGrid) -> CovarianceField:
    """Speech covariances weighted by the mask, noise by its complement."""
    specs = check_channels(specs)
    shape = specs[0].bins.shape
    # In C order each frequency's weight sum is a pairwise sum along its
    # row, whatever the block size and the memory order of the mask given.
    m = np.ascontiguousarray(check_ratio_mask(mask))
    if m.shape != shape:
        raise DataError(
            f"mask shape {m.shape} does not match spectrogram shape {shape}"
        )
    n_channels = len(specs)
    speech = np.empty((shape[0], n_channels, n_channels), dtype=np.complex128)
    noise = np.empty_like(speech)
    deg_s = np.empty(shape[0], dtype=bool)
    deg_n = np.empty(shape[0], dtype=bool)
    # Bins above about 1e154 overflow the products: that fails here, and not
    # as a beamformer that passes those frequencies through.
    with np.errstate(over="ignore", invalid="ignore"):
        for block, bins in _stacked_blocks(specs):
            adjoint = np.swapaxes(np.conj(bins), 1, 2)
            weights = m[block]
            speech[block], deg_s[block] = _weighted_covariances(bins, adjoint, weights)
            noise[block], deg_n[block] = _weighted_covariances(bins, adjoint, 1.0 - weights)
    if not (np.isfinite(speech).all() and np.isfinite(noise).all()):
        raise NumericalError("covariances overflow float64: input level too high")
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

    usable = ~(cov.degenerate_speech | cov.degenerate_noise)
    usable &= np.all(np.isfinite(cov.speech), axis=(1, 2))
    usable &= np.all(np.isfinite(cov.noise), axis=(1, 2))
    idx = np.flatnonzero(usable)
    # eigh works per matrix, so only the usable frequencies are decomposed;
    # a non-finite one would make it raise (NaN) or return garbage (inf).
    _, eigvecs = np.linalg.eigh(cov.speech[idx])
    principal = eigvecs[:, :, -1]
    ref = principal[:, reference_channel]
    magnitude = np.abs(ref)
    rotate = magnitude > 1e-12
    phase = np.ones(len(idx), dtype=np.complex128)
    phase[rotate] = np.conj(ref[rotate]) / magnitude[rotate]
    d = principal * phase[:, None] * np.sqrt(n_channels)
    definite = _positive_definite(cov.noise[idx])
    idx, d = idx[definite], d[definite]
    solved = np.linalg.solve(cov.noise[idx], d[:, :, None])[:, :, 0]
    denom = np.real(np.sum(np.conj(d) * solved, axis=1))
    valid = np.isfinite(denom) & (denom > 0)
    w = solved / np.where(valid, denom, 1.0)[:, None]
    valid &= np.all(np.isfinite(w), axis=1)
    idx = idx[valid]
    weights[idx] = w[valid]
    steering[idx] = d[valid]
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
    conj_weights = np.conj(bw.weights)
    out = np.empty(specs[0].bins.shape, dtype=np.complex128)
    for block, bins in _stacked_blocks(specs):
        out[block] = np.einsum("fm,fmt->ft", conj_weights[block], bins)
    return Spectrogram(bins=out, config=specs[0].config, sample_rate=specs[0].sample_rate)
