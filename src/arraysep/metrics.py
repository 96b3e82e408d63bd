"""Objective separation scoring.

The estimate is decomposed by least-squares projection onto shifted copies
of the references: projection onto the speech reference's shifts gives the
target component, extending the basis with the noise references' shifts
gives the interference component, and the remainder is artifacts. The
three components sum to the estimate exactly by construction.

The normal equations of the projection need only the references' lagged
cross-correlations. With p references and ``taps`` shifts each, ordered
tap-major, the Gram matrix of all shifts is block Toeplitz with p x p
blocks, and for an even number of taps also with 2p x 2p blocks of two
taps each. Multichannel Levinson recursion (Whittle 1963) factors it as
L G L^T = blockdiag(E), L unit block-lower triangular: over taps / 2
sequential orders with (taps / 2, 2p, 2p) error blocks E when taps is
even, over taps orders with (taps, p, p) blocks when it is odd. Either
way that is O(taps^2 p^3) work, twice as much on two-tap blocks but in
half as many orders of a few small products each; each solve then costs
O((p taps)^2). The speech-only Gram block is scalar Toeplitz and is
solved by Levinson-Durbin in O(taps^2). A ProjectionBasis holds the
factorization with the references' rFFTs, so scoring several estimates
against one reference set factors once; each estimate then costs one
rFFT, the solves, and the projections as products with the stored
rFFTs. Their length is the smallest 5-smooth one of at least n + taps,
so no lag or projection wraps. The Gram matrix is singular by
construction when there are more shifts than padded samples
(p taps > n + taps - 1), and numerically singular when an error block of
the recursion is not positive definite (collinear references); then, and
only then, the matrix of all shifted references itself is built,
(n + taps - 1) x p taps, and each estimate is projected by least squares
on it. Least squares on the normal equations would square its singular
values and drop directions that the matrix itself still resolves. Ratios
are reported in dB, clamped to +-100. A segmental SNR over fixed frames
is provided as a perceptual proxy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.linalg
from scipy.linalg.blas import dtrmv
from scipy.linalg.lapack import dgesv

from .errors import DataError
from .signal import Waveform

FILTER_TAPS = 512
SEG_FRAME = 256
DB_CLAMP = 100.0
SEG_SNR_MIN = -10.0
SEG_SNR_MAX = 35.0


@dataclass
class EvalScores:
    """Separation quality in dB; seg_snr is filled by the pipeline."""

    sdr: float
    sir: float
    sar: float
    seg_snr: float = float("nan")


def _safe_db(num: float, den: float) -> float:
    if den == 0.0:
        return DB_CLAMP if num > 0 else 0.0
    if num == 0.0:
        return -DB_CLAMP
    return float(np.clip(10.0 * np.log10(num / den), -DB_CLAMP, DB_CLAMP))


def _check_references(refs, n: int, sample_rate: int) -> None:
    for ref in refs:
        if len(ref) != n:
            raise DataError("references must match the estimate length")
        if ref.sample_rate != sample_rate:
            raise DataError("references must match the estimate sample rate")
        if float(np.sum(ref.samples ** 2)) == 0.0:
            raise DataError("zero-energy reference")


def _lags(spectra: np.ndarray, nfft: int, taps: int) -> np.ndarray:
    """(taps, p, p) lag blocks R(k)[i, j] = sum_t r_i[t] r_j[t + k] of the
    references whose rFFTs are ``spectra``; nfft >= n + taps, so no lag
    wraps. Block (a, b) of the tap-major Gram matrix is R(a - b), with
    R(-k) = R(k)^T."""
    corr = np.fft.irfft(np.conj(spectra)[:, None] * spectra[None], nfft)
    return np.ascontiguousarray(corr[..., :taps].transpose(2, 0, 1))


def _shift_matrix(signals, taps: int) -> np.ndarray:
    """All reference shifts on the padded domain, reference-major: column
    i taps + a holds reference i delayed by a samples, (n + taps - 1) rows."""
    pad, first_row = np.zeros(taps - 1), np.zeros(taps)
    return np.hstack([scipy.linalg.toeplitz(np.concatenate((sig, pad)), first_row)
                      for sig in signals])


def _super_lags(lags: np.ndarray) -> np.ndarray:
    """(taps / 2, 2p, 2p) lag blocks of the same tap-major Gram matrix read
    two taps at a time: R'(K)[u, v] = R(2K + u - v), with R(-1) = R(1)^T,
    for an even number of taps."""
    taps, p, _ = lags.shape
    extended = np.concatenate((lags[1:2].transpose(0, 2, 1), lags))  # R(-1), R(0), ...
    phase = np.arange(2)
    index = 2 * np.arange(taps // 2)[:, None, None] + phase[:, None] - phase + 1
    return extended[index].transpose(0, 1, 3, 2, 4).reshape(taps // 2, 2 * p, 2 * p)


def _block_levinson(lags: np.ndarray):
    """Factor the tap-major block Toeplitz Gram matrix of ``lags`` as
    L G L^T = blockdiag(E) by Whittle's recursion.

    Row block m of the unit block-lower L is the order-m backward
    predictor, E[m] its error. The forward and backward predictors are
    kept as (p, taps p) row blocks, so each order is a few 2-D GEMMs
    written into buffers allocated once. Returns (L, E), or None when an
    error block is not positive definite or is singular.
    """
    taps, p, _ = lags.shape
    size = taps * p
    col = lags.reshape(size, p)            # R(0), R(1), ... stacked
    lower = np.zeros((size, size))
    lower[:p, :p] = np.eye(p)
    forward = np.zeros((p, size))
    forward[:, :p] = np.eye(p)
    errors = np.empty((taps, p, p))
    errors[0] = lags[0]
    forward_error = lags[0].copy()
    backward_error = lags[0].copy()
    delta = np.empty((p, p))
    step = np.empty((p, p))
    product = np.empty(p * size)           # a gain times a predictor
    for m in range(1, taps):
        width = m * p
        back = lower[width - p:width, :width]
        # D_b = sum_a B[a] R(a + 1) and D_f = D_b^T correlate each
        # order-(m - 1) error with the shift it does not yet cover.
        np.matmul(back, col[p:width + p], out=delta)
        # Gains K_f = D_f E_b^-1 and K_b = D_b E_f^-1 come transposed
        # from the LU solves E_b K_f^T = D_b and E_f K_b^T = D_f (E is
        # symmetric); then A = [A, 0] - K_f [0, B] and
        # B = [0, B] - K_b [A, 0]. Solving, not multiplying by E^-1, keeps
        # the two-tap recursion as accurate as the p x p one on low-pass
        # references, whose adjacent taps make a two-tap E nearly singular.
        *_, forward_gain_t, info_b = dgesv(backward_error, delta)
        *_, backward_gain_t, info_f = dgesv(forward_error, delta.T)
        if info_b or info_f:           # an exactly singular error block
            return None
        forward_error -= np.matmul(forward_gain_t.T, delta, out=step)
        backward_error -= np.matmul(backward_gain_t.T, delta.T, out=step)
        new = lower[width:width + p, :width + p]
        new[:, p:] = back
        row = product[:width * p].reshape(p, width)
        np.matmul(backward_gain_t.T, forward[:, :width], out=row)
        new[:, :width] -= row
        np.matmul(forward_gain_t.T, back, out=row)
        forward[:, p:width + p] -= row
        errors[m] = backward_error
    if not np.isfinite(errors).all():
        return None
    # Every E must be positive definite, and nonsingular to the LU
    # factorization that np.linalg.solve applies to it in _solve.
    try:
        np.linalg.cholesky(errors)
        np.linalg.inv(errors)
    except np.linalg.LinAlgError:
        return None
    return lower, errors


@dataclass(eq=False)
class ProjectionBasis:
    """The shifted-reference basis of one reference set, factored once.

    ``spectra`` holds the references' rFFTs (speech first) and ``lags``
    their (taps, p, p) lag blocks; the speech-only projection solves the
    scalar Toeplitz system of ``lags[:, 0, 0]``. With noise references,
    ``lower`` and ``errors`` are the block Levinson factorization
    L G L^T = blockdiag(E) of the tap-major Gram matrix G of all shifts:
    L is (p taps, p taps) and E is (taps / 2, 2p, 2p) when taps is even,
    (taps, p, p) when it is odd.
    When G is singular by construction or an error block is not positive
    definite they are None, and ``shifts`` holds the reference-major
    matrix of all shifts (_shift_matrix) for a least-squares solve on it;
    no other basis builds it.
    """

    signals: tuple
    sample_rate: int
    taps: int
    nfft: int
    spectra: np.ndarray
    lags: np.ndarray
    lower: np.ndarray | None
    errors: np.ndarray | None
    shifts: np.ndarray | None

    def matches(self, refs, taps: int) -> bool:
        return (
            taps == self.taps
            and len(refs) == len(self.signals)
            and all(
                ref.sample_rate == self.sample_rate
                and np.array_equal(ref.samples, sig)
                for ref, sig in zip(refs, self.signals)
            )
        )


def _solve(basis: ProjectionBasis, rhs: np.ndarray) -> np.ndarray:
    """Reference-major coefficients of the projection onto all reference
    shifts, from the (p, taps) correlations ``rhs`` of each shift with the
    estimate: x = L^T E^-1 L rhs in tap-major order."""
    p, taps = rhs.shape
    # L is unit lower triangular: BLAS reads its triangle only, from the
    # F-contiguous view L^T, which f2py passes without a copy.
    upper = basis.lower.T
    half = dtrmv(upper, rhs.T.ravel(), lower=0, trans=1, diag=1)
    half = half.reshape(len(basis.errors), -1, 1)
    half = np.linalg.solve(basis.errors, half)
    return dtrmv(upper, half.ravel(), lower=0, trans=0, diag=1).reshape(taps, p).T


def projection_basis(
    speech_ref: Waveform, noise_refs, filters_len: int = FILTER_TAPS
) -> ProjectionBasis:
    """Build and factor the projection basis of one reference set.

    Pass it to decompose() or bss_eval() to score several estimates
    against the same references with one factorization.
    """
    refs = [speech_ref] + list(noise_refs)
    n = len(speech_ref)
    _check_references(refs, n, speech_ref.sample_rate)
    taps = int(filters_len)
    if taps < 1:
        raise DataError("filters_len must be positive")

    nfft = scipy.fft.next_fast_len(n + taps, real=True)
    signals = tuple(ref.samples for ref in refs)
    spectra = np.fft.rfft(np.stack(signals), nfft)
    lags = _lags(spectra, nfft, taps)
    n_refs = len(signals)
    factored = shifts = None
    if n_refs > 1:
        # More shifts than padded samples leave G singular by construction.
        if n_refs * taps <= n + taps - 1:
            # An even number of taps is factored over two-tap super-blocks:
            # half the sequential orders, on 2p x 2p blocks. Four-tap
            # blocks double the work per order again for about 5 %.
            factored = _block_levinson(_super_lags(lags) if taps % 2 == 0 else lags)
        if factored is None:
            shifts = _shift_matrix(signals, taps)
    lower, errors = factored or (None, None)
    return ProjectionBasis(
        signals=signals, sample_rate=speech_ref.sample_rate, taps=taps,
        nfft=nfft, spectra=spectra, lags=lags, lower=lower, errors=errors,
        shifts=shifts,
    )


def _project(basis: ProjectionBasis, coeffs: np.ndarray, length: int) -> np.ndarray:
    """Sum of each reference filtered by its taps, on the padded domain.

    nfft >= length + 1, so the circular convolution does not wrap.
    """
    filters = np.fft.rfft(coeffs.reshape(-1, basis.taps), basis.nfft)
    spectrum = np.sum(basis.spectra[:len(filters)] * filters, axis=0)
    return np.fft.irfft(spectrum, basis.nfft)[:length]


def decompose(
    estimate: Waveform,
    speech_ref: Waveform,
    noise_refs,
    filters_len: int = FILTER_TAPS,
    basis: ProjectionBasis | None = None,
):
    """Split an estimate into target, interference, and artifact components.

    All three returned arrays live on the zero-padded domain of length
    len(estimate) + filters_len - 1 and sum to the padded estimate exactly.
    ``basis``, when given, must come from projection_basis() on the same
    references and filter length; otherwise one is built here.
    """
    refs = [speech_ref] + list(noise_refs)
    n = len(estimate)
    _check_references(refs, n, estimate.sample_rate)
    if basis is None:
        basis = projection_basis(speech_ref, refs[1:], filters_len)
    elif not basis.matches(refs, int(filters_len)):
        raise DataError("projection basis was built from other references")
    taps = basis.taps

    length = n + taps - 1
    est = np.zeros(length)
    est[:n] = estimate.samples
    est_spectrum = np.fft.rfft(estimate.samples, basis.nfft)
    rhs = np.fft.irfft(np.conj(basis.spectra) * est_spectrum, basis.nfft)
    rhs = rhs[:, :taps]

    speech_coeffs = scipy.linalg.solve_toeplitz(
        basis.lags[:, 0, 0], rhs[0], check_finite=False
    )
    s_target = _project(basis, speech_coeffs, length)
    if basis.shifts is not None:
        coeffs = np.linalg.lstsq(basis.shifts, est, rcond=None)[0]
        full_proj = _project(basis, coeffs, length)
    elif len(basis.signals) > 1:
        full_proj = _project(basis, _solve(basis, rhs), length)
    else:
        full_proj = s_target
    e_interf = full_proj - s_target
    e_artif = est - full_proj
    return s_target, e_interf, e_artif


def bss_eval(
    estimate: Waveform,
    speech_ref: Waveform,
    noise_refs,
    filters_len: int = FILTER_TAPS,
    basis: ProjectionBasis | None = None,
) -> EvalScores:
    """Projection-based SDR, SIR, and SAR of an estimate.

    Pass a ``basis`` from projection_basis() to score several estimates
    against the same references without refactoring the Gram matrix.
    """
    s_target, e_interf, e_artif = decompose(
        estimate, speech_ref, noise_refs, filters_len, basis
    )
    target_energy = float(np.sum(s_target ** 2))
    interf_energy = float(np.sum(e_interf ** 2))
    artif_energy = float(np.sum(e_artif ** 2))
    distortion = float(np.sum((e_interf + e_artif) ** 2))
    return EvalScores(
        sdr=_safe_db(target_energy, distortion),
        sir=_safe_db(target_energy, interf_energy),
        sar=_safe_db(target_energy + interf_energy, artif_energy),
    )


def seg_snr(
    estimate: Waveform,
    reference: Waveform,
    frame_len: int = SEG_FRAME,
) -> float:
    """Mean per-frame SNR in dB, each frame clamped to [-10, 35].

    Frames are non-overlapping; frames where the reference is silent are
    skipped. An all-silent reference is an error.
    """
    if len(estimate) != len(reference):
        raise DataError("estimate and reference lengths differ")
    if frame_len < 1:
        raise DataError("frame length must be positive")
    n_frames = len(reference) // frame_len
    if n_frames == 0:
        raise DataError("signal shorter than one frame")
    ref = reference.samples[:n_frames * frame_len].reshape(n_frames, frame_len)
    est = estimate.samples[:n_frames * frame_len].reshape(n_frames, frame_len)
    ref_energy = np.sum(ref ** 2, axis=1)
    err_energy = np.sum((ref - est) ** 2, axis=1)
    keep = ref_energy > 0.0
    if not keep.any():
        raise DataError("reference is silent in every frame")
    values = np.full(n_frames, SEG_SNR_MAX)
    nonzero = keep & (err_energy > 0.0)
    values[nonzero] = np.clip(
        10.0 * np.log10(ref_energy[nonzero] / err_energy[nonzero]),
        SEG_SNR_MIN,
        SEG_SNR_MAX,
    )
    return float(np.mean(values[keep]))
