"""Projection-based separation scores and segmental SNR.

The key oracle: an estimate built as speech plus a noise term explicitly
orthogonalized against every shifted copy of the speech reference has a
known exact SDR set by the energy ratio alone.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.fft
import scipy.linalg

from arraysep import (
    DataError,
    Waveform,
    bss_eval,
    decompose,
    random_scene_spec,
    render_scene,
    seg_snr,
)
from arraysep import metrics
from arraysep.metrics import _safe_db


def _wave(samples, rate=16000):
    return Waveform(samples=np.asarray(samples, dtype=np.float64),
                    sample_rate=rate)


def _shift_matrix(s: np.ndarray, taps: int) -> np.ndarray:
    """Columns are s delayed by 0 .. taps-1, truncated to len(s)."""
    n = len(s)
    mat = np.zeros((n, taps))
    for k in range(taps):
        mat[k:, k] = s[:n - k]
    return mat


def _orthogonalize(v: np.ndarray, basis: np.ndarray, rounds: int = 3) -> np.ndarray:
    gram = basis.T @ basis
    for _ in range(rounds):
        coef = np.linalg.solve(gram, basis.T @ v)
        v = v - basis @ coef
    return v


# ------------------------------------------------------------- decompose

def test_components_sum_to_padded_estimate():
    gen = np.random.default_rng(0)
    n, taps = 4000, 128
    est = _wave(gen.standard_normal(n))
    speech = _wave(gen.standard_normal(n))
    noise = _wave(gen.standard_normal(n))
    s_t, e_i, e_a = decompose(est, speech, [noise], filters_len=taps)
    assert len(s_t) == n + taps - 1
    padded = np.zeros(n + taps - 1)
    padded[:n] = est.samples
    np.testing.assert_allclose(s_t + e_i + e_a, padded, atol=1e-9)


def test_artifact_component_orthogonal_to_references():
    gen = np.random.default_rng(1)
    n, taps = 3000, 64
    est = _wave(gen.standard_normal(n))
    speech = _wave(gen.standard_normal(n))
    noise = _wave(gen.standard_normal(n))
    s_t, e_i, e_a = decompose(est, speech, [noise], filters_len=taps)
    scale = np.linalg.norm(e_a)
    for ref in (speech, noise):
        basis = _shift_matrix(np.concatenate([ref.samples,
                                              np.zeros(taps - 1)]), taps)
        proj = basis.T @ e_a
        assert np.max(np.abs(proj)) / (scale * np.linalg.norm(ref.samples)) < 1e-8


def test_target_in_speech_span_interference_orthogonal_to_it():
    gen = np.random.default_rng(2)
    n, taps = 3000, 64
    est = _wave(gen.standard_normal(n))
    speech = _wave(gen.standard_normal(n))
    noise = _wave(gen.standard_normal(n))
    s_t, e_i, _ = decompose(est, speech, [noise], filters_len=taps)
    # e_interf lives in the full span but has no component along the
    # speech shifts, so <shifted speech, e_interf> vanishes.
    basis = _shift_matrix(np.concatenate([speech.samples,
                                          np.zeros(taps - 1)]), taps)
    proj = basis.T @ e_i
    denom = np.linalg.norm(e_i) * np.linalg.norm(speech.samples) + 1e-30
    assert np.max(np.abs(proj)) / denom < 1e-8


def _lu_decompose(est, speech, noises, taps):
    """Oracle: a dense Gram matrix of all reference shifts, LU-solved per
    estimate, with least squares only for an exactly singular matrix."""
    signals = [speech] + list(noises)
    n = len(est)
    nfft = scipy.fft.next_fast_len(n + taps)
    length = n + taps - 1

    def correlate(a, b):
        return np.fft.irfft(np.conj(np.fft.rfft(a, nfft)) * np.fft.rfft(b, nfft), nfft)

    def solve(gram, rhs):
        try:
            return np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(gram, rhs, rcond=None)[0]

    def project(refs, coeffs):
        out = np.zeros(length)
        for i, ref in enumerate(refs):
            out += np.convolve(ref, coeffs[i * taps:(i + 1) * taps])[:length]
        return out

    k = len(signals)
    gram = np.empty((k * taps, k * taps))
    for i in range(k):
        for j in range(i, k):
            c = correlate(signals[i], signals[j])
            block = scipy.linalg.toeplitz(c[:taps], np.concatenate(([c[0]], c[-1:-taps:-1])))
            gram[i * taps:(i + 1) * taps, j * taps:(j + 1) * taps] = block
            if j > i:
                gram[j * taps:(j + 1) * taps, i * taps:(i + 1) * taps] = block.T
    rhs = np.concatenate([correlate(sig, est)[:taps] for sig in signals])
    padded = np.zeros(length)
    padded[:n] = est
    s_target = project(signals[:1], solve(gram[:taps, :taps], rhs[:taps]))
    full = project(signals, solve(gram, rhs)) if k > 1 else s_target
    return s_target, full - s_target, padded - full


def _spy(monkeypatch, name="_shift_matrix") -> list:
    """Record every call of metrics.<name> as (args, result). By default
    that is _shift_matrix, which only the least-squares fallback calls:
    with noise references, a decomposition that calls it nowhere took
    block Levinson recursion."""
    calls = []
    real = getattr(metrics, name)

    def spy(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(metrics, name, spy)
    return calls


def _assert_matches_oracle(est, speech, noises, taps, rtol=1e-12, oracle=_lu_decompose):
    got = decompose(_wave(est), _wave(speech), [_wave(x) for x in noises],
                    filters_len=taps)
    want = oracle(est, speech, noises, taps)
    scale = np.linalg.norm(est)
    for g, w in zip(got, want):
        assert np.linalg.norm(g - w) <= rtol * scale


@pytest.mark.parametrize("n_noise, taps", [(0, 64), (1, 128), (2, 512),
                                           (1, 127), (2, 511)])
def test_factored_decompose_matches_lu_oracle(n_noise, taps):
    gen = np.random.default_rng(40 + n_noise)
    n = 3000
    speech = gen.standard_normal(n)
    noises = [gen.standard_normal(n) for _ in range(n_noise)]
    est = speech + 0.5 * sum(noises) + 0.2 * gen.standard_normal(n)
    _assert_matches_oracle(est, speech, noises, taps)


def test_factored_decompose_matches_lu_oracle_on_rendered_scene(monkeypatch):
    render = render_scene(random_scene_spec(
        np.random.default_rng(41), n_channels=2, duration=0.5, n_interferers=1))
    speech = render.per_source_images[0].channel(0).samples
    noises = [render.per_source_images[1].channel(0).samples,
              render.noise_image.channel(0).samples]
    est = render.mixture.channel(1).samples
    shift_matrices = _spy(monkeypatch)
    _assert_matches_oracle(est, speech, noises, 512)
    assert not shift_matrices


SPECTRA = ("white", "integrated", "tonal")


def _reference_spectrum(kind, n_refs, n, gen):
    """White, integrated (low-pass, strongly correlated from tap to tap) or
    tonal speech reference with white noise references."""
    if kind == "white":
        return list(gen.standard_normal((n_refs, n)))
    if kind == "integrated":
        return list(np.cumsum(gen.standard_normal((n_refs, n)), axis=1))
    t = np.arange(n) / 16000
    tones = gen.uniform(100.0, 4000.0, 2)
    speech = sum(np.sin(2.0 * np.pi * f * t + k) for k, f in enumerate(tones))
    return [speech] + list(gen.standard_normal((n_refs - 1, n)))


@pytest.mark.parametrize("kind", SPECTRA)
@pytest.mark.parametrize("n_refs", [2, 3, 4])
@pytest.mark.parametrize("taps", [64, 65])
def test_decompose_matches_lu_oracle_across_reference_spectra(kind, n_refs, taps,
                                                             monkeypatch):
    """Even taps take the two-tap super-block recursion, odd taps the p x p
    one. Two solvers of an ill-conditioned Gram matrix agree only to about
    its condition number times the rounding, so the bound is 1e-11 of the
    estimate; the worst case here is 2.8e-12. Gains formed with the
    inverted error blocks instead of solves with them measured 1.3e-11 to
    2.4e-10 on the integrated references at even taps."""
    gen = np.random.default_rng([SPECTRA.index(kind), n_refs, taps])
    n = 8000
    speech, *noises = _reference_spectrum(kind, n_refs, n, gen)
    est = speech + 0.5 * sum(noises) + 0.2 * np.std(speech) * gen.standard_normal(n)
    shift_matrices = _spy(monkeypatch)
    _assert_matches_oracle(est, speech, noises, taps, rtol=1e-11)
    assert not shift_matrices


def _tap_major_gram(refs: np.ndarray, taps: int) -> np.ndarray:
    """Gram matrix of all reference shifts, built from the shifted signals
    themselves: column a * n_refs + i holds reference i delayed by a
    samples."""
    n_refs, n = refs.shape
    shifts = np.stack([_shift_matrix(np.concatenate([r, np.zeros(taps - 1)]), taps)
                       for r in refs], axis=2).reshape(n + taps - 1, taps * n_refs)
    return shifts.T @ shifts


def _assert_solves(solution, rhs, gram):
    """Each column of the (R, size, 1) ``solution`` solves G x = rhs for
    its row of ``rhs`` with a backward error of at most
    1e-15 ||G|| ||x|| size."""
    assert solution.shape == (*rhs.shape, 1)
    for x, b in zip(solution[..., 0], rhs):
        bound = 1e-15 * np.linalg.norm(gram) * np.linalg.norm(x) * len(gram)
        assert np.linalg.norm(gram @ x - b) <= bound


@pytest.mark.parametrize("n_refs", [1, 2, 3, 4])
@pytest.mark.parametrize("taps", [1, 2, 64])
def test_block_levinson_factors_the_gram_matrix(n_refs, taps):
    """The recursion on the p x p lag blocks solves the tap-major Gram
    matrix G of all reference shifts for several right-hand sides."""
    gen = np.random.default_rng(100 * n_refs + taps)
    refs = gen.standard_normal((n_refs, 400))
    gram = _tap_major_gram(refs, taps)
    lags = gram[:, :n_refs].reshape(taps, n_refs, n_refs)
    rhs = gen.standard_normal((3, taps * n_refs))
    _assert_solves(metrics._block_levinson(lags, rhs), rhs, gram)


@pytest.mark.parametrize("n_refs", [2, 3, 4])
@pytest.mark.parametrize("taps", [2, 3, 64, 65])
def test_projection_basis_factors_the_gram_matrix(n_refs, taps, monkeypatch):
    """Scoring solves the same tap-major Gram matrix over two-tap
    super-blocks, with 2p x 2p error blocks, when taps is even, and over
    p x p blocks when it is odd, for each estimate's correlations."""
    gen = np.random.default_rng(200 * n_refs + taps)
    refs = gen.standard_normal((n_refs, 400))
    calls = _spy(monkeypatch, "_block_levinson")
    decompose([_wave(x) for x in gen.standard_normal((2, 400))],
              _wave(refs[0]), [_wave(r) for r in refs[1:]], taps)
    [((lags, rhs), solution)] = calls
    if taps % 2 == 0:
        assert lags.shape == (taps // 2, 2 * n_refs, 2 * n_refs)
    else:
        assert lags.shape == (taps, n_refs, n_refs)
    assert rhs.shape == (2, taps * n_refs)
    _assert_solves(solution, rhs, _tap_major_gram(refs, taps))


@pytest.mark.parametrize("n, taps", [(16000, 512), (4000, 128), (3000, 65), (997, 2)])
def test_fft_length_is_the_next_5_smooth_real_length(n, taps, monkeypatch):
    """No lag or projection wraps, and the components still sum to the
    padded estimate within criterion 09's 1e-9."""
    gen = np.random.default_rng(n + taps)
    speech, noise, est = (_wave(gen.standard_normal(n)) for _ in range(3))
    calls = _spy(monkeypatch, "_lags")
    parts = decompose(est, speech, [noise], taps)
    [((_, nfft, _), _)] = calls
    assert nfft == scipy.fft.next_fast_len(n + taps, real=True)
    assert nfft >= n + taps
    rest = nfft
    for prime in (2, 3, 5):
        while rest % prime == 0:
            rest //= prime
    assert rest == 1
    padded = np.concatenate([est.samples, np.zeros(taps - 1)])
    assert np.max(np.abs(sum(parts) - padded)) < 1e-9


def _svd_decompose(est, speech, noises, taps):
    """Oracle for singular Gram matrices: orthogonal projections onto the
    explicit shift matrices, through their SVDs with numerically zero
    singular values dropped. Unlike an LU solve of the Gram matrix, this
    does not square the condition number."""
    length = len(est) + taps - 1
    padded = np.zeros(length)
    padded[:len(est)] = est

    def project(refs):
        shifts = np.hstack([_shift_matrix(np.concatenate([r, np.zeros(taps - 1)]), taps)
                            for r in refs])
        u, sv, _ = np.linalg.svd(shifts, full_matrices=False)
        u = u[:, sv > sv[0] * max(shifts.shape) * np.finfo(float).eps]
        return u @ (u.T @ padded)

    s_target = project([speech])
    full = project([speech] + list(noises))
    return s_target, full - s_target, padded - full


def test_short_signals_take_the_fallback_and_match_oracle(monkeypatch):
    """3 references x 512 taps > n + 511 padded samples: the Gram matrix is
    singular by construction, so only least squares is attempted. The
    recursion alone can accept such a matrix on rounding, as it does at
    n = 1024 here. An LU solve of that singular system is good only to
    about its own rounding, which moves with the BLAS thread count (1.9e-13
    of the estimate at n = 600 on the default count, 3.7e-12 on one
    thread), so the fallback is compared with an SVD projection at n = 600."""
    gen = np.random.default_rng(44)
    for n in (600, 800, 1024):
        speech = gen.standard_normal(n)
        noises = [gen.standard_normal(n) for _ in range(2)]
        est = speech + 0.5 * sum(noises) + 0.2 * gen.standard_normal(n)
        shift_matrices = _spy(monkeypatch)
        if n == 600:
            _assert_matches_oracle(est, speech, noises, 512, oracle=_svd_decompose)
        else:
            decompose(_wave(est), _wave(speech), [_wave(x) for x in noises])
        assert len(shift_matrices) == 1
        monkeypatch.undo()


def test_rank_deficient_fallback_projects_exactly(monkeypatch):
    """An impulse speech reference and a random noise reference at 512
    taps and n = 300: their 1024 shifts span the whole 811-sample padded
    domain, so the exact artifact component is zero. Least squares on the
    normal equations left 9.5e-7 of the estimate there."""
    gen = np.random.default_rng(47)
    n, taps = 300, 512
    speech = np.zeros(n)
    speech[0] = 1.0
    noise = gen.standard_normal(n)
    est = gen.standard_normal(n)
    shift_matrices = _spy(monkeypatch)
    _, _, e_artif = decompose(_wave(est), _wave(speech), [_wave(noise)], taps)
    [(_, shifts)] = shift_matrices
    assert shifts.shape == (n + taps - 1, 2 * taps)
    assert np.linalg.norm(e_artif) <= 1e-10 * np.linalg.norm(est)


def _energy_scores(parts):
    """SDR, SIR and SAR of decomposed components, as bss_eval forms them."""
    _, e_interf, e_artif = parts
    target, interf, artif = (float(np.sum(x ** 2)) for x in parts)
    distortion = float(np.sum((e_interf + e_artif) ** 2))
    return np.array([_safe_db(target, distortion), _safe_db(target, interf),
                     _safe_db(target + interf, artif)])


@pytest.mark.parametrize("tones", [(440.0,), (440.0, 1250.0)])
def test_tone_references_match_oracle_scores(tones):
    """A tonal speech reference makes both Gram matrices ill-conditioned;
    the scores still agree with the LU oracle."""
    gen = np.random.default_rng(45)
    n, rate = 4000, 16000
    t = np.arange(n) / rate
    speech = sum(np.sin(2.0 * np.pi * f * t + k) for k, f in enumerate(tones))
    noises = [gen.standard_normal(n), gen.standard_normal(n)]
    est = speech + 0.3 * noises[0] + 0.1 * gen.standard_normal(n)
    got = _energy_scores(decompose(_wave(est), _wave(speech),
                                   [_wave(x) for x in noises]))
    want = _energy_scores(_lu_decompose(est, speech, noises, 512))
    np.testing.assert_allclose(got, want, rtol=1e-10)


def test_shared_basis_gives_the_same_scores():
    """Estimates scored in one call share one factorization of the
    references and score as they do alone."""
    gen = np.random.default_rng(42)
    n, taps = 3000, 128
    speech, noise = _wave(gen.standard_normal(n)), _wave(gen.standard_normal(n))
    ests = [_wave(speech.samples + level * noise.samples + 0.1 * gen.standard_normal(n))
            for level in (0.1, 0.7)]
    assert (bss_eval(ests, speech, [noise], taps)
            == [bss_eval(est, speech, [noise], taps) for est in ests])


@pytest.mark.parametrize("n, n_noise, taps", [(16000, 2, 512), (3000, 1, 65),
                                              (3000, 0, 128), (600, 2, 512)])
def test_scores_of_a_batch_equal_scores_alone_bitwise(n, n_noise, taps):
    """Each of three estimates scores the same, bit for bit, alone and in
    a batch: on the two-tap and the p x p recursion, without noise
    references and on the least-squares fallback (600 samples)."""
    gen = np.random.default_rng(48)
    speech, *noises = (_wave(x) for x in gen.standard_normal((1 + n_noise, n)))
    ests = [_wave(speech.samples + level * gen.standard_normal(n)) for level in (0.1, 0.5, 1.0)]
    batch = bss_eval(ests, speech, noises, taps)
    assert batch == [bss_eval(est, speech, noises, taps) for est in ests]
    for k, est in enumerate(ests):
        for got, want in zip(decompose(ests, speech, noises, taps)[k],
                             decompose(est, speech, noises, taps)):
            assert got.tobytes() == want.tobytes()


def test_shared_basis_must_match_references():
    """Estimates scored together share one length and sample rate, and
    scoring names the argument that is not a Waveform or a nonempty list
    of them."""
    gen = np.random.default_rng(43)
    speech, noise = _wave(gen.standard_normal(500)), _wave(gen.standard_normal(500))
    for estimate, problem in [
        ([speech, _wave(np.ones(400))], "differ in length or sample rate"),
        ([speech, _wave(speech.samples, rate=8000)], "differ in length or sample rate"),
        ([], "nonempty list of Waveforms"),
        (speech.samples, "nonempty list of Waveforms"),
    ]:
        with pytest.raises(DataError, match=f"(?s)^estimate = .*: .*{problem}"):
            decompose(estimate, speech, [noise], 32)
    with pytest.raises(DataError, match="(?s)^noise_refs = .*: ndarray is not a list"):
        bss_eval(speech, speech, noise.samples, 32)


def test_scoring_three_estimates_allocates_no_gram_sized_array():
    """3 estimates against 3 references at 512 taps and 1 s: the Gram
    matrix of all shifts would be 18.9 MB; scoring peaks under 8 MB."""
    gen = np.random.default_rng(49)
    speech, *noises = (_wave(x) for x in gen.standard_normal((3, 16000)))
    ests = [_wave(speech.samples + level * gen.standard_normal(16000))
            for level in (0.1, 0.5, 1.0)]
    tracemalloc.start()
    try:
        bss_eval(ests, speech, noises)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


@pytest.mark.parametrize("kind, sdr, sir", [("equal", 10.5243, 100.0),
                                            ("shifted", 10.5243, 42.0009)])
def test_collinear_references_match_oracle(kind, sdr, sir, monkeypatch):
    """A noise reference equal to the speech reference makes the Gram
    matrix singular, so projections fall back to least squares. A copy
    shifted by one sample differs from the speech shifts in one sample
    only: ill-conditioned but still positive definite, so block Levinson
    recursion factors it."""
    gen = np.random.default_rng(0)
    n, taps = 4000, 128
    speech = gen.standard_normal(n)
    est = speech + 0.3 * gen.standard_normal(n)
    noise = speech.copy() if kind == "equal" else np.concatenate(([0.0], speech[:-1]))
    shift_matrices = _spy(monkeypatch)
    parts = decompose(_wave(est), _wave(speech), [_wave(noise)], taps)
    assert len(shift_matrices) == (kind == "equal")
    padded = np.concatenate([est, np.zeros(taps - 1)])
    assert np.max(np.abs(sum(parts) - padded)) < 1e-9
    _assert_matches_oracle(est, speech, [noise], taps)
    scores = bss_eval(_wave(est), _wave(speech), [_wave(noise)], taps)
    assert scores.sdr == pytest.approx(sdr, abs=5e-5)
    assert scores.sir == pytest.approx(sir, abs=5e-5)


@pytest.mark.parametrize("kind, taps", [("delayed", 128), ("delayed", 512),
                                         ("doubled", 1)])
def test_exactly_dependent_shifts_take_the_fallback(kind, taps, monkeypatch):
    """A one-sample delayed copy of a speech reference that ends in zero
    is exactly the speech's next shift: R(0) is positive definite and an
    error block later in the recursion is singular. Twice a constant
    speech reference at one tap makes R(0) singular to LU, though its
    Cholesky factorization passes on rounding. Both take the
    least-squares fallback."""
    gen = np.random.default_rng(46)
    n = 3000
    if kind == "delayed":
        speech = gen.standard_normal(n)
        speech[-1] = 0.0
        noise = np.concatenate(([0.0], speech[:-1]))
    else:
        speech = np.ones(n)
        noise = 2.0 * speech
    est = speech + 0.3 * gen.standard_normal(n)
    shift_matrices = _spy(monkeypatch)
    _assert_matches_oracle(est, speech, [noise], taps)
    assert len(shift_matrices) == 1


def test_decompose_validation():
    est = _wave(np.ones(100))
    with pytest.raises(DataError, match="length"):
        decompose(est, _wave(np.ones(90)), [])
    with pytest.raises(DataError, match="sample rate"):
        decompose(est, _wave(np.ones(100), rate=8000), [])
    with pytest.raises(DataError, match="zero-energy"):
        decompose(est, _wave(np.zeros(100)), [])
    with pytest.raises(DataError, match="positive"):
        decompose(est, _wave(np.ones(100)), [], filters_len=0)


# -------------------------------------------------------------- bss_eval

def test_sdr_exact_on_orthogonal_construction():
    """Noise orthogonal to every speech shift at exactly one tenth the
    energy: the projection framework must report 10.0 dB."""
    gen = np.random.default_rng(3)
    n, taps = 8000, 512
    speech = gen.standard_normal(n)
    noise = _orthogonalize(gen.standard_normal(n), _shift_matrix(speech, taps))
    noise *= np.linalg.norm(speech) / (np.linalg.norm(noise) * np.sqrt(10.0))
    est = _wave(speech + noise)
    scores = bss_eval(est, _wave(speech), [], filters_len=taps)
    assert scores.sdr == pytest.approx(10.0, abs=0.1)
    assert scores.sar == pytest.approx(10.0, abs=0.1)  # no interference refs


def test_perfect_estimate_scores_high():
    gen = np.random.default_rng(4)
    n = 4000
    speech = gen.standard_normal(n)
    noise = gen.standard_normal(n)
    scores = bss_eval(_wave(speech), _wave(speech), [_wave(noise)],
                      filters_len=128)
    assert scores.sdr > 60.0
    assert scores.sir > 40.0


def test_filtered_estimate_still_counts_as_target():
    # A short FIR of the reference lies inside the allowed-distortion span.
    gen = np.random.default_rng(5)
    speech = gen.standard_normal(4000)
    speech[-8:] = 0.0    # keep the convolution tail inside the clip
    filtered = np.convolve(speech, [0.7, 0.2, -0.1])[:4000]
    scores = bss_eval(_wave(filtered), _wave(speech), [], filters_len=128)
    assert scores.sdr > 60.0


def test_noise_only_estimate_has_low_sir():
    # 5 s of signal so the chance projection onto the speech shifts is a
    # tiny fraction (about taps / n) of the interferer energy.
    gen = np.random.default_rng(6)
    n, taps = 80000, 512
    speech = gen.standard_normal(n)
    interferer = gen.standard_normal(n)
    scores = bss_eval(_wave(interferer), _wave(speech), [_wave(interferer)],
                      filters_len=taps)
    assert scores.sir <= -20.0


def test_scores_invariant_to_estimate_scale():
    gen = np.random.default_rng(7)
    n = 4000
    speech = gen.standard_normal(n)
    noise = gen.standard_normal(n)
    est = speech + 0.5 * noise
    a = bss_eval(_wave(est), _wave(speech), [_wave(noise)], filters_len=64)
    b = bss_eval(_wave(3.0 * est), _wave(speech), [_wave(noise)], filters_len=64)
    assert a.sdr == pytest.approx(b.sdr, abs=1e-9)
    assert a.sir == pytest.approx(b.sir, abs=1e-9)
    assert a.sar == pytest.approx(b.sar, abs=1e-9)


def test_scores_invariant_to_reference_scale():
    gen = np.random.default_rng(8)
    n = 4000
    speech = gen.standard_normal(n)
    noise = gen.standard_normal(n)
    est = speech + 0.5 * noise
    a = bss_eval(_wave(est), _wave(speech), [_wave(noise)], filters_len=64)
    b = bss_eval(_wave(est), _wave(0.25 * speech), [_wave(4.0 * noise)],
                 filters_len=64)
    assert a.sdr == pytest.approx(b.sdr, abs=1e-6)
    assert a.sir == pytest.approx(b.sir, abs=1e-6)


def test_more_noise_lower_sdr():
    gen = np.random.default_rng(9)
    n = 4000
    speech = gen.standard_normal(n)
    noise = gen.standard_normal(n)
    levels = [0.1, 0.3, 1.0]
    sdrs = [
        bss_eval(_wave(speech + lv * noise), _wave(speech), [_wave(noise)],
                 filters_len=64).sdr
        for lv in levels
    ]
    assert sdrs[0] > sdrs[1] > sdrs[2]


def test_safe_db_edges():
    assert _safe_db(1.0, 0.0) == 100.0
    assert _safe_db(0.0, 1.0) == -100.0
    assert _safe_db(0.0, 0.0) == 0.0
    assert _safe_db(1e30, 1e-30) == 100.0
    assert _safe_db(4.0, 1.0) == pytest.approx(10.0 * np.log10(4.0))


# --------------------------------------------------------------- seg_snr

def test_seg_snr_perfect_match_hits_cap():
    gen = np.random.default_rng(10)
    ref = _wave(gen.standard_normal(1024))
    assert seg_snr(ref, ref, frame_len=256) == 35.0


def test_seg_snr_equal_error_energy_is_zero_db():
    gen = np.random.default_rng(11)
    ref = gen.standard_normal(1024)
    est = 2.0 * ref      # error equals the reference exactly
    assert seg_snr(_wave(est), _wave(ref), frame_len=256) == pytest.approx(0.0)


def test_seg_snr_half_error():
    gen = np.random.default_rng(12)
    ref = gen.standard_normal(1024)
    est = 1.5 * ref      # error energy is one quarter of the reference
    expected = 10.0 * np.log10(4.0)
    assert seg_snr(_wave(est), _wave(ref), frame_len=256) == pytest.approx(
        expected, abs=1e-9)


def test_seg_snr_skips_silent_reference_frames():
    ref = np.zeros(512)
    ref[256:] = 1.0
    est = ref.copy()
    est[:256] = 0.5      # error only where the reference is silent
    assert seg_snr(_wave(est), _wave(ref), frame_len=256) == 35.0


def test_seg_snr_clamps_low():
    ref = np.ones(256) * 1e-3
    est = np.ones(256) * 10.0
    assert seg_snr(_wave(est), _wave(ref), frame_len=256) == -10.0


def test_seg_snr_errors():
    with pytest.raises(DataError, match="lengths differ"):
        seg_snr(_wave(np.ones(100)), _wave(np.ones(99)))
    with pytest.raises(DataError, match="silent in every frame"):
        seg_snr(_wave(np.ones(256)), _wave(np.zeros(256)), frame_len=256)
    with pytest.raises(DataError, match="shorter than one frame"):
        seg_snr(_wave(np.ones(10)), _wave(np.ones(10)), frame_len=256)


def test_seg_snr_mixed_frames_average():
    ref = np.ones(512)
    est = ref.copy()
    est[256:] = 2.0      # second frame sits at exactly 0 dB
    value = seg_snr(_wave(est), _wave(ref), frame_len=256)
    assert value == pytest.approx((35.0 + 0.0) / 2.0)
