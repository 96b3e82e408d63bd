"""Covariance estimation and distortionless weights."""

import numpy as np
import pytest

from arraysep import (
    DataError,
    MultichannelWaveform,
    Spectrogram,
    StftConfig,
    beamform,
    estimate_covariances,
    mvdr_weights,
    stft,
)
from arraysep.beamformer import (
    LOAD_FACTOR,
    BeamformerWeights,
    CovarianceField,
)
from arraysep.signal import MaskGrid

SMALL = StftConfig(window_size=64, hop_size=16)


def _noise_specs(n_channels=3, n_samples=16000, seed=0):
    gen = np.random.default_rng(seed)
    rows = gen.standard_normal((n_channels, n_samples))
    wave = MultichannelWaveform.from_array(rows, 16000)
    return [stft(wave.channel(c), SMALL) for c in range(n_channels)]


def _random_hermitian_pd(gen, m):
    b = gen.standard_normal((m, m)) + 1j * gen.standard_normal((m, m))
    return b @ b.conj().T + 0.1 * m * np.eye(m)


def _random_cov_field(seed, n_freq=5, m=4):
    gen = np.random.default_rng(seed)
    speech = np.stack([_random_hermitian_pd(gen, m) for _ in range(n_freq)])
    noise = np.stack([_random_hermitian_pd(gen, m) for _ in range(n_freq)])
    flags = np.zeros(n_freq, dtype=bool)
    return CovarianceField(speech=speech, noise=noise,
                           degenerate_speech=flags.copy(),
                           degenerate_noise=flags.copy())


# -------------------------------------------------------------- covariance

def test_single_frame_covariance_is_outer_product():
    cfg = StftConfig(window_size=16, hop_size=4)
    gen = np.random.default_rng(1)
    x = gen.standard_normal((2, 9, 1)) + 1j * gen.standard_normal((2, 9, 1))
    specs = [Spectrogram(bins=x[c], config=cfg, sample_rate=16000)
             for c in range(2)]
    mask = MaskGrid(values=np.ones((9, 1)))
    cov = estimate_covariances(specs, mask)
    for f in range(9):
        v = x[:, f, 0]
        outer = np.outer(v, np.conj(v))
        load = LOAD_FACTOR * np.real(np.trace(outer)) / 2.0
        expected = outer + load * np.eye(2)
        np.testing.assert_allclose(cov.speech[f], expected, atol=1e-12)
    assert not cov.degenerate_speech.any()
    assert cov.degenerate_noise.all()  # complement of an all-ones mask


def test_covariances_hermitian_and_psd():
    specs = _noise_specs(seed=2, n_samples=4000)
    mask = MaskGrid(values=np.random.default_rng(3).uniform(
        0.2, 0.8, size=specs[0].bins.shape))
    cov = estimate_covariances(specs, mask)
    for field in (cov.speech, cov.noise):
        np.testing.assert_array_equal(
            field, np.conj(np.swapaxes(field, 1, 2)))
        eigs = np.linalg.eigvalsh(field)
        assert eigs.min() > 0.0


def test_degenerate_mask_flagged_and_identity():
    specs = _noise_specs(seed=4, n_samples=2000)
    zero = MaskGrid(values=np.zeros(specs[0].bins.shape))
    cov = estimate_covariances(specs, zero)
    assert cov.degenerate_speech.all()
    assert not cov.degenerate_noise.any()
    # The replacement is a scaled identity (plus the diagonal loading).
    off_diag = cov.speech.copy()
    for f in range(cov.n_freq):
        np.fill_diagonal(off_diag[f], 0.0)
    np.testing.assert_allclose(off_diag, 0.0, atol=1e-15)


def test_white_noise_covariance_nearly_diagonal():
    # Per-frequency sample correlations carry estimation noise (overlapping
    # frames shrink the effective frame count), so the claim is made on the
    # frequency-averaged normalized covariance, where independent bins
    # cancel each other down.
    specs = _noise_specs(n_channels=3, n_samples=16000, seed=5)
    mask = MaskGrid(values=np.full(specs[0].bins.shape, 0.5))
    cov = estimate_covariances(specs, mask)
    normed = []
    for f in range(1, cov.n_freq - 1):
        c = cov.speech[f]
        d = np.sqrt(np.real(np.diag(c)))
        normed.append(c / np.outer(d, d))
    averaged = np.mean(normed, axis=0)
    np.testing.assert_allclose(np.real(np.diag(averaged)), 1.0, atol=1e-9)
    np.fill_diagonal(averaged, 0.0)
    assert np.abs(averaged).max() < 0.05


def test_covariance_validation():
    specs = _noise_specs(seed=6, n_samples=1000)
    with pytest.raises(DataError, match="does not match"):
        estimate_covariances(specs, MaskGrid(values=np.zeros((3, 3))))
    bad = MaskGrid(values=np.full(specs[0].bins.shape, 1.5))
    with pytest.raises(DataError, match="out of"):
        estimate_covariances(specs, bad)


# ------------------------------------------------------------------ weights

def test_distortionless_identity():
    cov = _random_cov_field(seed=7)
    bw = mvdr_weights(cov)
    assert not bw.passthrough.any()
    for f in range(cov.n_freq):
        response = np.vdot(bw.weights[f], bw.steering[f])
        assert abs(response - 1.0) < 1e-8
        # Steering is normalized to sqrt(M) with a real positive reference.
        assert np.linalg.norm(bw.steering[f]) == pytest.approx(2.0)
        ref = bw.steering[f, 0]
        assert abs(ref.imag) < 1e-12 and ref.real > 0


def test_mvdr_minimizes_noise_power_over_constrained_vectors():
    cov = _random_cov_field(seed=8, n_freq=1, m=4)
    bw = mvdr_weights(cov)
    w = bw.weights[0]
    d = bw.steering[0]
    R = cov.noise[0]
    best = np.real(np.conj(w) @ R @ w)
    gen = np.random.default_rng(9)
    for _ in range(300):
        v = gen.standard_normal(4) + 1j * gen.standard_normal(4)
        c = np.vdot(v, d)
        if abs(c) < 1e-9:
            continue
        v = v / np.conj(c)          # enforce v^H d = 1
        power = np.real(np.conj(v) @ R @ v)
        assert power >= best - 1e-12


def test_single_channel_passthrough_math():
    # With one channel the constraint pins the weight to 1/steering, and
    # steering normalizes to exactly 1, so the output equals the input.
    cfg = StftConfig(window_size=16, hop_size=4)
    gen = np.random.default_rng(10)
    bins = gen.standard_normal((9, 20)) + 1j * gen.standard_normal((9, 20))
    spec = Spectrogram(bins=bins, config=cfg, sample_rate=16000)
    mask = MaskGrid(values=np.full((9, 20), 0.7))
    cov = estimate_covariances([spec], mask)
    bw = mvdr_weights(cov)
    assert not bw.passthrough.any()
    out = beamform([spec], bw)
    np.testing.assert_allclose(out.bins, bins, rtol=1e-10)


def test_white_noise_array_gain():
    # Identity noise covariance and a broadside (all-ones) steering vector:
    # noise power drops by exactly the channel count.
    m, n_freq = 6, 4
    ones = np.ones((m, m), dtype=complex)
    speech = np.stack([4.0 * ones for _ in range(n_freq)])
    noise = np.stack([np.eye(m, dtype=complex) for _ in range(n_freq)])
    flags = np.zeros(n_freq, dtype=bool)
    cov = CovarianceField(speech=speech, noise=noise,
                          degenerate_speech=flags.copy(),
                          degenerate_noise=flags.copy())
    bw = mvdr_weights(cov)
    assert not bw.passthrough.any()
    for f in range(n_freq):
        np.testing.assert_allclose(bw.weights[f], np.full(m, 1.0 / m),
                                   atol=1e-10)
        out_power = np.real(np.conj(bw.weights[f]) @ noise[f] @ bw.weights[f])
        gain_db = 10.0 * np.log10(1.0 / out_power)
        assert gain_db == pytest.approx(10.0 * np.log10(m), abs=1e-9)


def test_degenerate_frequencies_pass_reference_through():
    specs = _noise_specs(seed=11, n_samples=2000)
    zero = MaskGrid(values=np.zeros(specs[0].bins.shape))
    cov = estimate_covariances(specs, zero)
    bw = mvdr_weights(cov, reference_channel=1)
    assert bw.passthrough.all()
    out = beamform(specs, bw)
    np.testing.assert_array_equal(out.bins, specs[1].bins)


def test_beamform_channel_count_checked():
    cov = _random_cov_field(seed=12, m=4)
    bw = mvdr_weights(cov)
    specs = _noise_specs(n_channels=3, n_samples=1000, seed=13)
    with pytest.raises(DataError, match="channels but weights"):
        beamform(specs, bw)


def test_reference_channel_bounds():
    cov = _random_cov_field(seed=14, m=2)
    with pytest.raises(DataError, match="out of range"):
        mvdr_weights(cov, reference_channel=5)

