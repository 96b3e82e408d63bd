"""Objective separation scoring.

The estimate is decomposed by least-squares projection onto shifted copies
of the references: projection onto the speech reference's shifts gives the
target component, extending the basis with the noise references' shifts
gives the interference component, and the remainder is artifacts. The
three components sum to the estimate exactly by construction.

The normal equations of the projection need only the references' lagged
cross-correlations, one irFFT per pair of references. With p references
and ``taps`` shifts each, ordered tap-major, the Gram matrix of all shifts
is block Toeplitz with p x p blocks, and for an even number of taps also
with 2p x 2p blocks of two taps each. Multichannel Levinson recursion
(Whittle 1963) factors it as L G L^T = blockdiag(E), L unit block-lower
triangular: over taps / 2 sequential orders with 2p x 2p error blocks E
when taps is even, over taps orders with p x p blocks when it is odd.
Either way that is O(taps^2 p^3) work, twice as much on two-tap blocks
but in half as many orders of a few small products each. Row block m of
L is the order-m backward predictor B_m, so the recursion solves the
normal equations while it factors them: each order adds
B_m^T E_m^-1 B_m rhs to the solution, L is never stored, and each
estimate adds O(taps^2 p^2) work and O(taps p) memory. The speech-only
Gram block is scalar Toeplitz and is solved by Levinson-Durbin in
O(taps^2).

Several estimates of one length and sample rate are scored in one call:
the references are transformed and the recursion runs once for all of
them. Each estimate's products are matrix-vector products of its own, so
its scores are the same, bit for bit, as when it is scored alone. The
rFFT length is the smallest 5-smooth one of at least n + taps, so no lag
or projection wraps. The Gram matrix is singular by construction when
there are more shifts than padded samples (p taps > n + taps - 1), and
numerically singular when an error block of the recursion is not
positive definite (collinear references); then, and only then, the
matrix of all shifted references itself is built, (n + taps - 1) x
p taps, and each estimate is projected by least squares on it. Least
squares on the normal equations would square its singular values and
drop directions that the matrix itself still resolves. Ratios are
reported in dB, clamped to +-100. A segmental SNR over fixed frames is
provided as a perceptual proxy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.linalg
from scipy.linalg.lapack import dgesv

from .errors import DataError
from .signal import Waveform, _waveform
from .util import _checked, _tuple_of

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
    R(-k) = R(k)^T. Each pair i <= j is correlated once: the irFFT of
    conj(S_i) S_j holds R(k)[i, j] at k and R(k)[j, i] at nfft - k."""
    p = len(spectra)
    first, second = np.triu_indices(p)
    corr = np.fft.irfft(np.conj(spectra[first]) * spectra[second], nfft)
    lags = np.empty((taps, p, p))
    lags[:, second, first] = corr[:, -np.arange(taps) % nfft].T
    # The heads last: R(0) is exactly symmetric and the diagonal is each
    # autocorrelation's head.
    lags[:, first, second] = corr[:, :taps].T
    return lags


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


def _block_levinson(lags: np.ndarray, rhs: np.ndarray):
    """Solve G x = rhs for the tap-major block Toeplitz Gram matrix G of
    ``lags``, one right-hand side per row of the (R, size) ``rhs``, by
    Whittle's recursion.

    The recursion factors L G L^T = blockdiag(E); row block m of the unit
    block-lower L is the order-m backward predictor B_m, E[m] its error,
    so x = L^T E^-1 L rhs. L is never stored: the backward predictors of
    the last 8 orders are kept as a strip of L, (8p, size), and each full
    strip S adds S^T E_S^-1 S rhs to x; 8 orders per strip cost about a
    quarter of the calls of one order at a time. The forward predictor is
    one (p, size) row block, and each order is a few 2-D GEMMs written
    into buffers allocated once. Every right-hand side gets
    matrix-vector products and solves of its own, so its x has the same
    bits in any batch. Returns x as (R, size, 1), or None when an error
    block is not positive definite or is singular.
    """
    taps, p, _ = lags.shape
    size = taps * p
    col = lags.reshape(size, p)            # R(0), R(1), ... stacked
    forward = np.zeros((p, size))
    forward[:, :p] = np.eye(p)
    strip_orders = 8
    strip = np.zeros((strip_orders, p, size))  # B_m is strip[m % strip_orders]
    strip[0, :, :p] = np.eye(p)
    errors = np.empty((taps, p, p))
    errors[0] = lags[0]
    forward_error = lags[0].copy()
    backward_error = lags[0].copy()
    delta = np.empty((p, p))
    step = np.empty((p, p))
    product = np.empty(p * size)           # a gain times a predictor
    columns = np.ascontiguousarray(rhs).reshape(len(rhs), size, 1)
    x = np.zeros_like(columns)

    def accumulate(last):
        """Add the strip that ends at order ``last``. Past its own width
        each row block is zero, as in L."""
        first, width = last - last % strip_orders, (last + 1) * p
        rows = strip[:last - first + 1, :, :width].reshape(-1, width)
        y = np.linalg.solve(errors[first:last + 1],
                            (rows @ columns[:, :width]).reshape(len(x), -1, p, 1))
        x[:, :width] += rows.T @ y.reshape(len(x), -1, 1)

    try:
        for m in range(1, taps):
            width = m * p
            back = strip[(m - 1) % strip_orders, :, :width]
            # D_b = sum_a B[a] R(a + 1) and D_f = D_b^T correlate each
            # order-(m - 1) error with the shift it does not yet cover.
            np.matmul(back, col[p:width + p], out=delta)
            # Gains K_f = D_f E_b^-1 and K_b = D_b E_f^-1 come transposed
            # from the LU solves E_b K_f^T = D_b and E_f K_b^T = D_f (E is
            # symmetric); then A = [A, 0] - K_f [0, B] and
            # B = [0, B] - K_b [A, 0]. Solving, not multiplying by E^-1,
            # keeps the two-tap recursion as accurate as the p x p one on
            # low-pass references, whose adjacent taps make a two-tap E
            # nearly singular.
            *_, forward_gain_t, info_b = dgesv(backward_error, delta)
            *_, backward_gain_t, info_f = dgesv(forward_error, delta.T)
            if info_b or info_f:       # an exactly singular error block
                return None
            forward_error -= np.matmul(forward_gain_t.T, delta, out=step)
            backward_error -= np.matmul(backward_gain_t.T, delta.T, out=step)
            new = strip[m % strip_orders, :, :width + p]
            new[:, :p] = 0.0
            new[:, p:] = back
            row = product[:width * p].reshape(p, width)
            np.matmul(backward_gain_t.T, forward[:, :width], out=row)
            new[:, :width] -= row
            np.matmul(forward_gain_t.T, back, out=row)
            forward[:, p:width + p] -= row
            errors[m] = backward_error
            if m % strip_orders == strip_orders - 1:
                accumulate(m)
        if taps % strip_orders:
            accumulate(taps - 1)
    except np.linalg.LinAlgError:      # an E[m] singular to its LU solve
        return None
    if not np.isfinite(errors).all():
        return None
    try:                               # every E must be positive definite
        np.linalg.cholesky(errors)
    except np.linalg.LinAlgError:
        return None
    return x


def _estimates(value) -> list:
    """A Waveform as a batch of one, or a nonempty list or tuple of
    Waveforms of one length and sample rate."""
    if isinstance(value, Waveform):
        return [value]
    if not (isinstance(value, (list, tuple)) and value
            and all(isinstance(wave, Waveform) for wave in value)):
        raise TypeError("expected a Waveform or a nonempty list of Waveforms")
    if len({(len(wave), wave.sample_rate) for wave in value}) > 1:
        raise ValueError("estimates differ in length or sample rate")
    return list(value)


def _one_or_all(estimate, results: list):
    """The result of one Waveform, or the list for a list of them."""
    return results[0] if isinstance(estimate, Waveform) else results


def _project(spectra: np.ndarray, coeffs: np.ndarray, nfft: int, length: int) -> np.ndarray:
    """(R, length) sums of each reference filtered by its taps, on the
    padded domain, for (R, refs, taps) ``coeffs``.

    nfft >= length + 1, so the circular convolution does not wrap.
    """
    filters = np.fft.rfft(coeffs, nfft)
    return np.fft.irfft(np.sum(spectra * filters, axis=1), nfft)[:, :length]


def decompose(estimate, speech_ref: Waveform, noise_refs, filters_len: int = FILTER_TAPS):
    """Split an estimate into target, interference, and artifact components.

    All three returned arrays live on the zero-padded domain of length
    len(estimate) + filters_len - 1 and sum to the padded estimate exactly.
    ``estimate`` may also be a list of Waveforms of one length and sample
    rate; one factorization then serves them all, and a list of
    (target, interference, artifact) triples comes back.
    """
    batch = _checked("estimate", estimate, _estimates)
    refs = [_checked("speech_ref", speech_ref, _waveform),
            *_checked("noise_refs", noise_refs, _tuple_of(_waveform))]
    n = len(batch[0])
    _check_references(refs, n, batch[0].sample_rate)
    taps = int(filters_len)
    if taps < 1:
        raise DataError("filters_len must be positive")

    nfft = scipy.fft.next_fast_len(n + taps, real=True)
    length = n + taps - 1
    signals = [ref.samples for ref in refs]
    spectra = np.fft.rfft(np.stack(signals), nfft)
    lags = _lags(spectra, nfft, taps)
    samples = np.stack([wave.samples for wave in batch])
    padded = np.zeros((len(batch), length))
    padded[:, :n] = samples
    est_spectra = np.fft.rfft(samples, nfft)
    rhs = np.fft.irfft(np.conj(spectra) * est_spectra[:, None], nfft)[..., :taps]

    speech_coeffs = scipy.linalg.solve_toeplitz(
        lags[:, 0, 0], rhs[:, 0].T, check_finite=False
    )
    s_target = _project(spectra[:1], speech_coeffs.T[:, None], nfft, length)
    full_proj = s_target
    if len(refs) > 1:
        solution = None
        # More shifts than padded samples leave G singular by construction.
        if len(refs) * taps <= length:
            # An even number of taps is factored over two-tap super-blocks:
            # half the sequential orders, on 2p x 2p blocks. Four-tap
            # blocks double the work per order again for about 5 %.
            solution = _block_levinson(
                _super_lags(lags) if taps % 2 == 0 else lags,
                rhs.transpose(0, 2, 1).reshape(len(batch), -1),
            )
        if solution is None:
            shifts = _shift_matrix(signals, taps)
            coeffs = np.stack([np.linalg.lstsq(shifts, est, rcond=None)[0]
                               for est in padded]).reshape(len(batch), len(refs), taps)
        else:
            coeffs = solution.reshape(len(batch), taps, len(refs)).transpose(0, 2, 1)
        full_proj = _project(spectra, coeffs, nfft, length)
    parts = zip(s_target, full_proj - s_target, padded - full_proj)
    return _one_or_all(estimate, list(parts))


def bss_eval(estimate, speech_ref: Waveform, noise_refs, filters_len: int = FILTER_TAPS):
    """Projection-based SDR, SIR, and SAR of an estimate, or a list of
    EvalScores for a list of estimates of one length and sample rate,
    scored with one factorization of the references."""
    batch = _checked("estimate", estimate, _estimates)
    scores = []
    for s_target, e_interf, e_artif in decompose(batch, speech_ref, noise_refs, filters_len):
        target_energy = float(np.sum(s_target ** 2))
        interf_energy = float(np.sum(e_interf ** 2))
        artif_energy = float(np.sum(e_artif ** 2))
        distortion = float(np.sum((e_interf + e_artif) ** 2))
        scores.append(EvalScores(
            sdr=_safe_db(target_energy, distortion),
            sir=_safe_db(target_energy, interf_energy),
            sar=_safe_db(target_energy + interf_energy, artif_energy),
        ))
    return _one_or_all(estimate, scores)


def seg_snr(
    estimate: Waveform,
    reference: Waveform,
    frame_len: int = SEG_FRAME,
) -> float:
    """Mean per-frame SNR in dB, each frame clamped to [-10, 35].

    Frames are non-overlapping; frames where the reference is silent are
    skipped. An all-silent reference is an error.
    """
    estimate = _checked("estimate", estimate, _waveform)
    reference = _checked("reference", reference, _waveform)
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
