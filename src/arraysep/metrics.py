"""Objective separation scoring.

The estimate is decomposed by least-squares projection onto shifted copies
of the references: projection onto the speech reference's shifts gives the
target component, extending the basis with the noise references' shifts
gives the interference component, and the remainder is artifacts. The
three components sum to the estimate exactly by construction.

One Cholesky factor of the Gram matrix of all reference shifts serves both
projections: its leading block factors the speech-only Gram block. A
ProjectionBasis holds that factor with the references' rFFTs, so scoring
several estimates against one reference set factors once; each estimate
then costs one rFFT, triangular solves, and the projections as products
with the stored rFFTs. Collinear references, whose Gram matrix is not
positive definite, fall back to least squares. Ratios are
reported in dB, clamped to +-100. A segmental SNR over fixed frames is
provided as a perceptual proxy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.linalg

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


def _gram_block(c: np.ndarray, taps: int) -> np.ndarray:
    """Toeplitz block G[a, b] = c[a - b] from a circular correlation."""
    col = c[:taps]
    row = np.concatenate(([c[0]], c[-1:-taps:-1]))
    return scipy.linalg.toeplitz(col, row)


def _check_references(refs, n: int, sample_rate: int) -> None:
    for ref in refs:
        if len(ref) != n:
            raise DataError("references must match the estimate length")
        if ref.sample_rate != sample_rate:
            raise DataError("references must match the estimate sample rate")
        if float(np.sum(ref.samples ** 2)) == 0.0:
            raise DataError("zero-energy reference")


def _cholesky(gram: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor, or None when gram is not positive definite."""
    try:
        return scipy.linalg.cholesky(gram, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        return None


def _solve(factor, gram, rhs: np.ndarray) -> np.ndarray:
    """Solve gram x = rhs by two triangular solves with its lower Cholesky
    factor, or by least squares when there is no factor."""
    if factor is None:
        return np.linalg.lstsq(gram, rhs, rcond=None)[0]
    half = scipy.linalg.solve_triangular(factor, rhs, lower=True, check_finite=False)
    return scipy.linalg.solve_triangular(
        factor, half, lower=True, trans="T", check_finite=False
    )


@dataclass(eq=False)
class ProjectionBasis:
    """The shifted-reference basis of one reference set, factored once.

    ``spectra`` holds the references' rFFTs (speech first). ``factor`` is
    the lower Cholesky factor of the Gram matrix of all their shifts; its
    leading taps x taps block, ``speech_factor``, factors the speech-only
    block. When the references are collinear the Gram matrix is not
    positive definite: ``factor`` is None, ``gram`` keeps the matrix for a
    least-squares solve and ``speech_factor`` factors the speech block
    alone (None if that fails too).
    """

    signals: tuple
    sample_rate: int
    taps: int
    nfft: int
    spectra: np.ndarray
    gram: np.ndarray | None
    factor: np.ndarray | None
    speech_factor: np.ndarray | None

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

    nfft = scipy.fft.next_fast_len(n + taps)
    signals = tuple(ref.samples for ref in refs)
    spectra = np.fft.rfft(np.stack(signals), nfft)
    n_refs = len(signals)
    # Fortran order is what LAPACK factors, so the Cholesky copies nothing.
    gram = np.empty((n_refs * taps, n_refs * taps), order="F")
    for i in range(n_refs):
        for j in range(i, n_refs):
            c = np.fft.irfft(np.conj(spectra[i]) * spectra[j], nfft)
            block = _gram_block(c, taps)
            gram[i * taps:(i + 1) * taps, j * taps:(j + 1) * taps] = block
            if j > i:
                gram[j * taps:(j + 1) * taps, i * taps:(i + 1) * taps] = block.T
    factor = _cholesky(gram)
    if factor is not None:
        gram, speech_factor = None, np.asfortranarray(factor[:taps, :taps])
    else:
        speech_factor = _cholesky(gram[:taps, :taps])
    return ProjectionBasis(
        signals=signals, sample_rate=speech_ref.sample_rate, taps=taps,
        nfft=nfft, spectra=spectra, gram=gram, factor=factor,
        speech_factor=speech_factor,
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
    rhs = rhs[:, :taps].ravel()

    gram = basis.gram
    speech_gram = None if gram is None else gram[:taps, :taps]
    speech_coeffs = _solve(basis.speech_factor, speech_gram, rhs[:taps])
    s_target = _project(basis, speech_coeffs, length)
    if len(basis.signals) > 1:
        all_coeffs = _solve(basis.factor, gram, rhs)
        full_proj = _project(basis, all_coeffs, length)
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
