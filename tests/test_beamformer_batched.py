"""The batched covariance and MVDR arithmetic against per-frequency references.

The references are the earlier formulations, kept here as oracles: the
three-operand einsum over a (channels, freq, frames) stack for the
covariances, one scipy Cholesky factorization and solve per frequency
for the MVDR weights, and the one-block stack of every frequency for the
blocked covariances and beamformer output.
"""

import numpy as np
import pytest
import scipy.linalg

from arraysep import beamformer
from arraysep.beamformer import (
    LOAD_FACTOR,
    WEIGHT_FLOOR,
    BeamformerWeights,
    CovarianceField,
    _weighted_covariances,
    beamform,
    estimate_covariances,
    mvdr_weights,
)
from arraysep.errors import NumericalError
from arraysep.signal import AMP_FLOOR, MaskGrid, Spectrogram, StftConfig

TOL = 1e-12


def _rel(actual, expected):
    """Largest absolute difference over the largest reference magnitude."""
    scale = np.max(np.abs(expected))
    return np.max(np.abs(actual - expected)) / (scale if scale > 0 else 1.0)


def _einsum_covariances(bins_mft, weights):
    """Reference covariances from a (channels, freq, frames) stack."""
    n_channels, n_freq, _ = bins_mft.shape
    weight_sum = weights.sum(axis=1)
    degenerate = weight_sum < WEIGHT_FLOOR
    cov = np.einsum("ft,mft,nft->fmn", weights, bins_mft, np.conj(bins_mft))
    cov /= np.where(degenerate, 1.0, weight_sum)[:, None, None]
    power = np.mean(np.abs(bins_mft) ** 2, axis=(0, 2))
    for f in np.nonzero(degenerate)[0]:
        cov[f] = max(power[f], AMP_FLOOR ** 2) * np.eye(n_channels)
    trace = np.real(np.trace(cov, axis1=1, axis2=2))
    cov += (LOAD_FACTOR * trace / n_channels)[:, None, None] * np.eye(n_channels)
    return 0.5 * (cov + np.conj(np.swapaxes(cov, 1, 2))), degenerate


def _per_bin_mvdr(cov, reference_channel=0):
    """Reference MVDR: one scipy cho_factor/cho_solve per frequency."""
    n_freq, n_channels = cov.n_freq, cov.n_channels
    selector = np.zeros(n_channels, dtype=np.complex128)
    selector[reference_channel] = 1.0
    weights = np.tile(selector, (n_freq, 1))
    steering = np.tile(selector, (n_freq, 1))
    passthrough = np.ones(n_freq, dtype=bool)
    principal = np.linalg.eigh(cov.speech)[1][:, :, -1]
    for f in range(n_freq):
        if cov.degenerate_speech[f] or cov.degenerate_noise[f]:
            continue
        d = principal[f]
        ref = d[reference_channel]
        if np.abs(ref) > 1e-12:
            d = d * (np.conj(ref) / np.abs(ref))
        d = d * np.sqrt(n_channels)
        try:
            solved = scipy.linalg.cho_solve(scipy.linalg.cho_factor(cov.noise[f]), d)
        except (scipy.linalg.LinAlgError, ValueError):
            continue
        denom = np.real(np.vdot(d, solved))
        if not np.isfinite(denom) or denom <= 0:
            continue
        w = solved / denom
        if not np.all(np.isfinite(w)):
            continue
        weights[f], steering[f], passthrough[f] = w, d, False
    return weights, steering, passthrough


def _hermitian_pd(gen, m):
    b = gen.standard_normal((m, m)) + 1j * gen.standard_normal((m, m))
    return b @ b.conj().T + 0.1 * m * np.eye(m)


def _field(gen, n_freq, m):
    speech = np.stack([_hermitian_pd(gen, m) for _ in range(n_freq)])
    noise = np.stack([_hermitian_pd(gen, m) for _ in range(n_freq)])
    flags = np.zeros(n_freq, dtype=bool)
    return CovarianceField(speech=speech, noise=noise,
                           degenerate_speech=flags, degenerate_noise=flags.copy())


def _assert_matches_reference(cov, reference_channel=0):
    bw = mvdr_weights(cov, reference_channel)
    weights, steering, passthrough = _per_bin_mvdr(cov, reference_channel)
    np.testing.assert_array_equal(bw.passthrough, passthrough)
    assert _rel(bw.weights, weights) <= TOL
    assert _rel(bw.steering, steering) <= TOL
    return bw


# ------------------------------------------------------------- covariances

@pytest.mark.parametrize("n_channels, n_freq, n_frames", [(1, 5, 7), (3, 9, 20), (8, 17, 40)])
def test_weighted_covariances_match_einsum(n_channels, n_freq, n_frames):
    gen = np.random.default_rng(n_channels * 100 + n_freq)
    bins = (gen.standard_normal((n_freq, n_channels, n_frames))
            + 1j * gen.standard_normal((n_freq, n_channels, n_frames)))
    weights = gen.uniform(0.0, 1.0, (n_freq, n_frames))
    weights[1] = 0.0                          # degenerate: no weight at all
    weights[3] = WEIGHT_FLOOR / (2 * n_frames)  # degenerate: below the floor
    bins[4] = 0.0                             # silent bin, degenerate too
    weights[4] = 0.0
    cov, degenerate = _weighted_covariances(
        bins, np.swapaxes(np.conj(bins), 1, 2), weights)
    ref, ref_degenerate = _einsum_covariances(np.swapaxes(bins, 0, 1), weights)
    np.testing.assert_array_equal(degenerate, ref_degenerate)
    assert degenerate[[1, 3, 4]].all() and degenerate.sum() == 3
    for f in range(n_freq):
        assert _rel(cov[f], ref[f]) <= TOL
    np.testing.assert_array_equal(cov, np.conj(np.swapaxes(cov, 1, 2)))


# ------------------------------------------------------------------- MVDR

def test_overflowing_covariances_fail_numerically():
    """Bins whose products overflow float64 make estimate_covariances raise,
    without a RuntimeWarning, whether their frequency is weighted or
    degenerate (no speech weight, so its power fills the diagonal)."""
    gen = np.random.default_rng(9)
    cfg = StftConfig(window_size=16, hop_size=4)
    bins = gen.standard_normal((3, 9, 6)) + 1j * gen.standard_normal((3, 9, 6))
    weights = gen.uniform(0.0, 1.0, (9, 6))
    weights[5] = 0.0
    mask = MaskGrid(weights)

    def covariances(bins):
        return estimate_covariances(
            [Spectrogram(bins=b, config=cfg, sample_rate=16000) for b in bins], mask)

    assert np.isfinite(covariances(bins * 2.0 ** 500).noise).all()
    for f in (2, 5):
        loud = bins.copy()
        loud[:, f] *= 2.0 ** 520
        with pytest.raises(NumericalError, match="^covariances overflow float64"):
            covariances(loud)


@pytest.mark.parametrize("seed", range(6))
def test_batched_mvdr_matches_per_bin_on_pd_fields(seed):
    gen = np.random.default_rng(seed)
    m = 2 + seed
    cov = _field(gen, n_freq=11, m=m)
    bw = _assert_matches_reference(cov, reference_channel=seed % m)
    assert not bw.passthrough.any()


def test_batched_mvdr_locates_failing_bins(monkeypatch):
    gen = np.random.default_rng(40)
    cov = _field(gen, n_freq=7, m=4)
    cov.degenerate_speech[1] = True
    cov.degenerate_noise[2] = True
    # Hermitian but indefinite: the batched factorization must fail on it.
    cov.noise[3] = np.diag([1.0, -2.0, 3.0, 4.0]).astype(complex)
    cov.noise[4, 0, 0] = np.nan
    factored = []
    cholesky = np.linalg.cholesky

    def spy(a, *args, **kwargs):
        factored.append(np.shape(a))
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    bw = _assert_matches_reference(cov)
    np.testing.assert_array_equal(
        bw.passthrough, [False, True, True, True, True, False, False])
    # One batched test, then the per-frequency locator over the same bins.
    assert factored[0][0] == 4 and all(s == (4, 4) for s in factored[1:])
    assert len(factored) == 5


def test_batched_mvdr_all_degenerate():
    gen = np.random.default_rng(41)
    cov = _field(gen, n_freq=5, m=3)
    cov.degenerate_speech[:3] = True
    cov.degenerate_noise[2:] = True
    bw = _assert_matches_reference(cov, reference_channel=2)
    assert bw.passthrough.all()
    np.testing.assert_array_equal(bw.weights, np.tile([0, 0, 1], (5, 1)))


def test_mvdr_passes_non_finite_speech_bins_through():
    """A speech covariance holding inf or NaN is flagged and passes the
    reference channel through; every other bin keeps its weights bit for
    bit."""
    gen = np.random.default_rng(42)
    cov = _field(gen, n_freq=6, m=3)
    finite = mvdr_weights(cov, reference_channel=1)
    assert not finite.passthrough.any()
    cov.speech[1, 0, 2] = np.inf
    cov.speech[4, 1, 1] = np.nan
    bw = mvdr_weights(cov, reference_channel=1)
    np.testing.assert_array_equal(bw.passthrough, [False, True, False, False, True, False])
    for f in (1, 4):
        np.testing.assert_array_equal(bw.weights[f], [0, 1, 0])
        np.testing.assert_array_equal(bw.steering[f], [0, 1, 0])
    keep = ~bw.passthrough
    assert bw.weights[keep].tobytes() == finite.weights[keep].tobytes()
    assert bw.steering[keep].tobytes() == finite.steering[keep].tobytes()


# ------------------------------------------------------------------ blocks

def _one_block_covariances(specs, mask):
    """The covariances with every frequency in one stack: the formula
    before the frequency axis was blocked."""
    bins = np.stack([s.bins for s in specs], axis=1)
    adjoint = np.swapaxes(np.conj(bins), 1, 2)
    n_channels = bins.shape[1]
    result = []
    for weights in (mask, 1.0 - mask):
        weight_sum = weights.sum(axis=1)
        degenerate = weight_sum < WEIGHT_FLOOR
        cov = (bins * weights[:, None, :]) @ adjoint
        cov /= np.where(degenerate, 1.0, weight_sum)[:, None, None]
        if degenerate.any():
            power = np.mean(np.abs(bins[degenerate]) ** 2, axis=(1, 2))
            cov[degenerate] = np.maximum(power, AMP_FLOOR ** 2)[:, None, None] * np.eye(
                n_channels
            )
        trace = np.real(np.trace(cov, axis1=1, axis2=2))
        cov += (LOAD_FACTOR * trace / n_channels)[:, None, None] * np.eye(n_channels)
        result += [0.5 * (cov + np.conj(np.swapaxes(cov, 1, 2))), degenerate]
    return result


def _one_block_beamform(specs, weights):
    bins = np.stack([s.bins for s in specs])
    return np.einsum("fm,mft->ft", np.conj(weights), bins)


def _edge_case_specs(n_channels, n_freq, n_frames, seed):
    """Random spectrograms and a mask whose degenerate bins sit at the
    edges of 4-bin blocks: no speech weight at the end of the first block,
    speech weight below WEIGHT_FLOOR at the start of the second, a silent
    bin with no noise weight at the end of the second, and no noise
    weight in the last bin."""
    gen = np.random.default_rng(seed)
    config = StftConfig(window_size=2 * (n_freq - 1), hop_size=n_freq - 1)
    bins = (gen.standard_normal((n_channels, n_freq, n_frames))
            + 1j * gen.standard_normal((n_channels, n_freq, n_frames)))
    bins[:, 7] = 0.0
    mask = gen.uniform(0.0, 1.0, (n_freq, n_frames))
    mask[3] = 0.0
    mask[4] = WEIGHT_FLOOR / (2 * n_frames)
    mask[7] = 1.0
    mask[-1] = 1.0
    specs = [Spectrogram(bins=b, config=config, sample_rate=16000) for b in bins]
    return specs, mask


def _assert_bits_equal(actual, expected):
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n_channels, n_freq, block_bins", [
    (3, 19, 4),      # 19 is not a multiple of the block: the last holds 3
    (3, 17, 4),      # the last block holds one bin
    (1, 19, 4),      # one channel
    (2, 17, 1),      # every block holds one bin
    (8, 17, None),   # the default budget: one block
])
def test_blocked_covariances_and_beamform_match_one_block(
        monkeypatch, n_channels, n_freq, block_bins):
    n_frames = 11
    specs, mask = _edge_case_specs(n_channels, n_freq, n_frames, seed=n_freq + n_channels)
    if block_bins is not None:
        # Just short of one more bin, so the budget rounds down to block_bins.
        bin_bytes = n_channels * n_frames * 16
        monkeypatch.setattr(beamformer, "BLOCK_BYTES", (block_bins + 1) * bin_bytes - 1)
    blocks = beamformer._frequency_blocks(n_freq, n_channels, n_frames)
    step = block_bins or n_freq
    assert [(b.start, b.stop) for b in blocks] == [
        (f, min(f + step, n_freq)) for f in range(0, n_freq, step)]

    cov = estimate_covariances(specs, MaskGrid(values=mask))
    speech, deg_s, noise, deg_n = _one_block_covariances(specs, mask)
    np.testing.assert_array_equal(deg_s, np.isin(np.arange(n_freq), [3, 4]))
    np.testing.assert_array_equal(deg_n, np.isin(np.arange(n_freq), [7, n_freq - 1]))
    _assert_bits_equal(cov.speech, speech)
    _assert_bits_equal(cov.noise, noise)
    _assert_bits_equal(cov.degenerate_speech, deg_s)
    _assert_bits_equal(cov.degenerate_noise, deg_n)
    # A Fortran-order mask, as the enhancer writes one, gives the same bits.
    fortran = estimate_covariances(specs, MaskGrid(values=np.asfortranarray(mask)))
    _assert_bits_equal(fortran.speech, speech)
    _assert_bits_equal(fortran.noise, noise)

    bw = mvdr_weights(cov)
    _assert_bits_equal(beamform(specs, bw).bins, _one_block_beamform(specs, bw.weights))
    gen = np.random.default_rng(n_freq)
    weights = (gen.standard_normal((n_freq, n_channels))
               + 1j * gen.standard_normal((n_freq, n_channels)))
    arbitrary = BeamformerWeights(weights=weights, steering=weights,
                                  passthrough=np.zeros(n_freq, dtype=bool),
                                  reference_channel=0)
    _assert_bits_equal(beamform(specs, arbitrary).bins, _one_block_beamform(specs, weights))


def test_beamform_with_no_frames_is_one_empty_block():
    config = StftConfig(window_size=8, hop_size=2)
    specs = [Spectrogram(bins=np.zeros((5, 0)), config=config, sample_rate=16000)] * 2
    assert beamformer._frequency_blocks(5, 2, 0) == [slice(0, 5)]
    weights = np.ones((5, 2), dtype=complex)
    bw = BeamformerWeights(weights=weights, steering=weights,
                           passthrough=np.zeros(5, dtype=bool), reference_channel=0)
    assert beamform(specs, bw).bins.shape == (5, 0)
