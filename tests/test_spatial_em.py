"""Spatial clustering EM: phase model, initialization, convergence, masks."""

import dataclasses
import itertools
import pickle
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

from arraysep import (
    DataError,
    MesslConfig,
    MultichannelWaveform,
    NumericalError,
    SceneSpec,
    SourceSpec,
    Spectrogram,
    StftConfig,
    binarize,
    default_delay_grid,
    random_scene_spec,
    render_scene,
    run_em,
    speechlike_signal,
    stft,
)
from arraysep import spatial_em
from arraysep.pipeline import pipeline_config_from_dict
from arraysep.signal import MaskGrid, Waveform
from arraysep.spatial_em import (
    MAX_DELAY_CANDIDATES,
    VAR_FLOOR,
    _delay_scores,
    _delay_splits,
    _normalize,
    _pair_phases,
    _score_work,
    _wrap,
)


def _delayed_scene(delay: float, seed: int = 0, noise: float = 0.0,
                   duration: float = 0.5, n_channels: int = 2):
    sig = speechlike_signal(duration, 16000, np.random.default_rng(seed))
    delays = tuple(0.0 if c == 0 else delay for c in range(n_channels))
    gains = (1.0,) * n_channels
    spec = SceneSpec(
        sources=(SourceSpec(signal=sig, delays=delays, gains=gains),),
        n_channels=n_channels, sample_rate=16000,
        diffuse_noise_level=noise, seed=seed,
    )
    return render_scene(spec)


def _channel_specs(render, cfg):
    return [stft(render.mixture.channel(c), cfg) for c in
            range(render.mixture.n_channels)]


SMALL = StftConfig(window_size=64, hop_size=16)


# ------------------------------------------------------------------- wrap

def test_wrap_basic_values():
    assert _wrap(np.array([0.1]))[0] == pytest.approx(0.1)
    assert _wrap(np.array([2.0 * np.pi + 0.1]))[0] == pytest.approx(0.1)
    assert _wrap(np.array([-2.0 * np.pi - 0.1]))[0] == pytest.approx(-0.1)
    assert _wrap(np.array([3.0]))[0] == pytest.approx(3.0)


def test_wrap_range_property():
    gen = np.random.default_rng(0)
    x = gen.uniform(-50.0, 50.0, size=1000)
    w = _wrap(x.copy())
    assert np.all(w <= np.pi + 1e-12) and np.all(w >= -np.pi - 1e-12)
    # Wrapped values differ from the input by an exact multiple of 2 pi.
    k = (x - w) / (2.0 * np.pi)
    np.testing.assert_allclose(k, np.round(k), atol=1e-9)


# -------------------------------------------------------------------- ipd

def _ipd(specs, reference_channel=0):
    """Oracle phase differences: each other channel against the reference."""
    ref = specs[reference_channel].bins
    pairs = tuple(c for c in range(len(specs)) if c != reference_channel)
    return np.stack([np.angle(specs[c].bins * np.conj(ref)) for c in pairs]), pairs


def test_ipd_constant_phase_offset():
    cfg = StftConfig(window_size=16, hop_size=4)
    gen = np.random.default_rng(1)
    base = gen.standard_normal((9, 5)) + 1j * gen.standard_normal((9, 5))
    s0 = Spectrogram(bins=base, config=cfg, sample_rate=16000)
    s1 = Spectrogram(bins=base * np.exp(0.3j), config=cfg, sample_rate=16000)
    phi, pairs = _ipd([s0, s1])
    assert pairs == (1,)
    np.testing.assert_allclose(phi[0], 0.3, atol=1e-12)


def test_ipd_antisymmetric_in_reference():
    render = _delayed_scene(1.5, noise=0.01)
    specs = _channel_specs(render, SMALL)
    phi_a, _ = _ipd(specs, reference_channel=0)
    phi_b, _ = _ipd(specs, reference_channel=1)
    np.testing.assert_allclose(_wrap(phi_a[0] + phi_b[0]), 0.0, atol=1e-12)


def test_ipd_slope_matches_delay():
    """Oracle: a pure delay d gives phase -omega d; regress the slope."""
    d = 2.0
    render = _delayed_scene(d)
    specs = _channel_specs(render, SMALL)
    phi, _ = _ipd(specs)
    omega = 2.0 * np.pi * np.arange(SMALL.n_freq) / SMALL.window_size

    # Use bins where both wrapping and low energy are no concern.
    mags = np.abs(specs[0].bins) * np.abs(specs[1].bins)
    slopes = []
    for f in range(2, 8):  # |omega d| < pi/2 for d = 2
        w = mags[f]
        if w.sum() > 0:
            slopes.append(np.sum(w * phi[0][f]) / np.sum(w) / omega[f])
    est = np.mean(slopes)
    assert est == pytest.approx(-d, abs=0.1)


def test_ipd_requires_matching_shapes():
    cfg = StftConfig(window_size=16, hop_size=4)
    a = Spectrogram(bins=np.ones((9, 4), dtype=complex), config=cfg,
                    sample_rate=16000)
    b = Spectrogram(bins=np.ones((9, 5), dtype=complex), config=cfg,
                    sample_rate=16000)
    with pytest.raises(DataError, match="share shape"):
        run_em([a, b], MesslConfig())
    with pytest.raises(DataError, match="at least two"):
        run_em([a], MesslConfig())


# ----------------------------------------------------------- delay search

def _brute_delay_scores(phi, weight, mean, cand, omega):
    """Direct evaluation over a candidate x frequency x frame array."""
    r = _wrap(phi[None] + np.outer(cand, omega)[:, :, None])
    return np.stack([
        -np.einsum("gft,ft->g", (r - m[None, :, None]) ** 2, w)
        for w, m in zip(weight, mean)
    ])


@pytest.mark.parametrize("window,n_frames,n_sources,seed", [
    (16, 7, 1, 0), (64, 1, 2, 1), (64, 40, 1, 2), (64, 33, 2, 3),
    (512, 25, 1, 4), (512, 60, 2, 5),
])
def test_delay_scores_match_brute_force(window, n_frames, n_sources, seed):
    gen = np.random.default_rng(seed)
    n_freq = window // 2 + 1
    phi = gen.uniform(-np.pi, np.pi, (n_freq, n_frames))
    # Phases exactly on the wrap boundary and at zero, as the real-valued
    # DC and Nyquist bins produce.
    phi[gen.random(phi.shape) < 0.15] = np.pi
    phi[gen.random(phi.shape) < 0.15] = -np.pi
    phi[gen.random(phi.shape) < 0.1] = 0.0
    weight = gen.uniform(0.0, 1.0, (n_sources, n_freq, n_frames))
    weight[gen.random(weight.shape) < 0.2] = 0.0
    mean = gen.normal(0.0, 0.5, (n_sources, n_freq))
    omega = 2.0 * np.pi * np.arange(n_freq) / window
    grid = default_delay_grid()
    assert omega[-1] * grid[grid == 1.0][0] == np.pi  # Nyquist shift hits pi
    cand = np.append(grid, gen.uniform(-8.0, 8.0))    # off-grid incumbent

    work = _score_work(n_sources, n_freq, n_frames)
    fast = _delay_scores(_delay_splits(phi[None], cand, omega), weight, mean, work)[0]
    slow = _brute_delay_scores(phi, weight, mean, cand, omega)
    np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=0.0)
    np.testing.assert_array_equal(np.argmax(fast, axis=1),
                                  np.argmax(slow, axis=1))


# ---------------------------------------------------------- normalization

# The log posteriors of P pairs lie within about P 2e5 + 700 of zero; eight
# channels give seven pairs.
EM_BOUND = 7 * 2e5 + 700


def _log_posterior_stacks(n_components):
    """Stacks of n_components log posteriors: many scales, rounded ties,
    tied maxima, constant columns, E-step-sized ones, and gaps and ties out
    to the widest EM forms."""
    gen = np.random.default_rng(n_components)
    shape = (n_components, 7, 9)
    for trial in range(60):
        a = gen.normal(0.0, 10.0 ** gen.integers(-2, 4), shape)
        if trial % 2:
            a = np.round(a)                                      # ties anywhere
        a = np.where(gen.random(shape) < 0.2, a.max(axis=0), a)  # ties at the top
        a[:, gen.random(shape[1:]) < 0.1] = gen.normal()         # constant columns
        yield a
    a = gen.normal(-40.0, 15.0, (n_components, 257, 122))
    cols = gen.integers(0, 257, 5), gen.integers(0, 122, 5)
    a[:, cols[0], cols[1]] = a[:, cols[0], cols[1]].max(axis=0)  # tied maxima
    yield a
    a = gen.uniform(-EM_BOUND, EM_BOUND, (n_components, 40, 33))
    a[0, :3] = -EM_BOUND
    a[-1, :3] = EM_BOUND                         # exp(a - top) underflows
    a[:, 3] = -EM_BOUND                          # ties at the extremes
    a[:, 4] = EM_BOUND
    yield a


@pytest.mark.parametrize("n_components", [1, 2, 3, 4])
def test_normalize_matches_scipy_logsumexp(n_components):
    """The log normalizer is scipy's to a few ulps and the posteriors sum to
    one within 2 ulps, without a warning."""
    for trial, a in enumerate(_log_posterior_stacks(n_components)):
        want = logsumexp(a, axis=0)
        post = a.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _normalize(post)
        assert np.all(np.abs(got - want) <= 2e-15 * np.maximum(1.0, np.abs(want))), trial
        assert np.abs(post.sum(axis=0) - 1.0).max() <= 4.5e-16, trial


# --------------------------------------------------------------------- em

def test_em_matches_exhaustive_scan_oracle():
    """One component, one iteration: the fitted delay must equal the
    exhaustive minimizer of the wrapped squared residual on the grid."""
    render = _delayed_scene(1.75, seed=3)
    specs = _channel_specs(render, SMALL)
    cfg = MesslConfig(n_sources=1, n_iterations=1, use_garbage=False)
    result = run_em(specs, cfg)

    phi, _ = _ipd(specs)
    omega = 2.0 * np.pi * np.arange(SMALL.n_freq) / SMALL.window_size
    grid = cfg.delay_grid
    costs = []
    for tau in grid:
        r = _wrap(phi[0] + tau * omega[:, None])
        costs.append(np.sum(r * r))
    oracle = grid[int(np.argmin(costs))]
    assert result.params.delays[0, 0] == oracle


def test_em_recovers_known_delays():
    for d in (-3.0, -0.5, 1.25, 4.0):
        render = _delayed_scene(d, seed=int(abs(d) * 10), noise=0.005)
        specs = _channel_specs(render, SMALL)
        cfg = MesslConfig(n_sources=1, n_iterations=8)
        result = run_em(specs, cfg)
        est = result.params.delays[result.target_index, 0]
        assert est == pytest.approx(d, abs=cfg.grid_step), f"true {d} est {est}"


def test_em_loglik_monotone():
    render = _delayed_scene(2.5, seed=5, noise=0.05)
    specs = _channel_specs(render, SMALL)
    result = run_em(specs, MesslConfig(n_sources=2, n_iterations=10))
    trace = result.loglik_trace
    assert len(trace) >= 2
    assert np.all(np.diff(trace) >= -1e-9 * (np.abs(trace[:-1]) + 1.0))


def test_em_posteriors_sum_to_one():
    render = _delayed_scene(1.0, seed=6, noise=0.1)
    specs = _channel_specs(render, SMALL)
    result = run_em(specs, MesslConfig(n_sources=2, n_iterations=5))
    total = np.zeros(result.masks[0].values.shape)
    for m in result.masks:
        assert m.values.min() >= 0.0 and m.values.max() <= 1.0
        total += m.values
    np.testing.assert_allclose(total, 1.0, atol=1e-9)
    assert len(result.masks) == 3  # two sources plus garbage


@pytest.mark.parametrize("n_channels, n_sources", [(2, 1), (4, 2), (8, 1), (8, 3)])
def test_em_masks_sum_to_one_within_an_ulp_per_component(n_channels, n_sources):
    render = render_scene(random_scene_spec(np.random.default_rng(11), n_channels=n_channels,
                                            duration=2.0, n_interferers=n_sources - 1))
    specs = _channel_specs(render, StftConfig(window_size=1024, hop_size=256))
    result = run_em(specs, MesslConfig(n_sources=n_sources, convergence_tol=0.0))
    total = sum(m.values for m in result.masks)
    assert len(result.masks) == n_sources + 1
    assert np.abs(total - 1.0).max() <= (n_sources + 1) * np.finfo(np.float64).eps


def test_em_scale_invariant_power_of_two():
    # Scaling every channel by 4 shifts only float exponents, so phases
    # and therefore the whole EM run are bit identical.
    render = _delayed_scene(1.5, seed=7, noise=0.02)
    specs = _channel_specs(render, SMALL)
    scaled = [Spectrogram(bins=4.0 * s.bins, config=s.config,
                          sample_rate=s.sample_rate) for s in specs]
    cfg = MesslConfig(n_sources=1, n_iterations=6)
    a = run_em(specs, cfg)
    b = run_em(scaled, cfg)
    np.testing.assert_array_equal(a.target_mask.values, b.target_mask.values)
    np.testing.assert_array_equal(a.params.delays, b.params.delays)


def test_em_scale_invariant_generic():
    render = _delayed_scene(1.5, seed=8, noise=0.02)
    specs = _channel_specs(render, SMALL)
    scaled = [Spectrogram(bins=1.7 * s.bins, config=s.config,
                          sample_rate=s.sample_rate) for s in specs]
    cfg = MesslConfig(n_sources=1, n_iterations=6)
    a = run_em(specs, cfg)
    b = run_em(scaled, cfg)
    np.testing.assert_allclose(a.target_mask.values, b.target_mask.values,
                               atol=1e-7)


def test_em_two_sources_find_both_delays():
    sig_a = speechlike_signal(0.6, 16000, np.random.default_rng(10))
    sig_b = speechlike_signal(0.6, 16000, np.random.default_rng(11))
    spec = SceneSpec(
        sources=(
            SourceSpec(signal=sig_a, delays=(0.0, 3.0), gains=(1.0, 1.0)),
            SourceSpec(signal=sig_b, delays=(0.0, -3.0), gains=(1.0, 1.0)),
        ),
        n_channels=2, sample_rate=16000, diffuse_noise_level=0.003, seed=12,
    )
    render = render_scene(spec)
    specs = _channel_specs(render, SMALL)
    result = run_em(specs, MesslConfig(n_sources=2, n_iterations=10))
    fitted = np.sort(result.params.delays[:, 0])
    assert fitted[0] == pytest.approx(-3.0, abs=0.5)
    assert fitted[1] == pytest.approx(3.0, abs=0.5)


def test_em_component_masks_track_their_source():
    sig_a = speechlike_signal(0.6, 16000, np.random.default_rng(20))
    sig_b = speechlike_signal(0.6, 16000, np.random.default_rng(21))
    spec = SceneSpec(
        sources=(
            SourceSpec(signal=sig_a, delays=(0.0, 3.0), gains=(1.0, 1.0)),
            SourceSpec(signal=sig_b, delays=(0.0, -3.0), gains=(1.0, 1.0)),
        ),
        n_channels=2, sample_rate=16000, diffuse_noise_level=0.003, seed=22,
    )
    render = render_scene(spec)
    specs = _channel_specs(render, SMALL)
    result = run_em(specs, MesslConfig(n_sources=2, n_iterations=10))

    # Identify the component fitted near +3: it belongs to source A.
    k_a = int(np.argmin(np.abs(result.params.delays[:, 0] - 3.0)))
    mag_a = np.abs(stft(render.per_source_images[0].channel(0), SMALL).bins)
    mag_b = np.abs(stft(render.per_source_images[1].channel(0), SMALL).bins)
    a_dominant = mag_a > 2.0 * mag_b
    b_dominant = mag_b > 2.0 * mag_a
    mask = result.masks[k_a].values
    assert mask[a_dominant].mean() > mask[b_dominant].mean() + 0.2


def test_em_target_dominates_energetic_bins():
    # Pauses and noise-dominated bins belong to the outlier component, so
    # the meaningful claim is energy weighted: where the signal actually
    # lives, the coherent component owns the posterior.
    render = _delayed_scene(2.0, seed=30, noise=0.01)
    specs = _channel_specs(render, SMALL)
    result = run_em(specs, MesslConfig(n_sources=1, n_iterations=8))
    energy = np.abs(specs[0].bins) ** 2
    hot = energy > np.quantile(energy, 0.8)
    assert result.target_mask.values[hot].mean() > 0.8
    assert result.params.priors[0] > 0.5


def test_em_multichannel_pairs():
    render = _delayed_scene(2.0, seed=31, noise=0.01, n_channels=4)
    specs = _channel_specs(render, SMALL)
    result = run_em(specs, MesslConfig(n_sources=1, n_iterations=6))
    assert result.pair_channels == (1, 2, 3)
    assert result.params.delays.shape == (1, 3)
    np.testing.assert_allclose(result.params.delays[0], 2.0, atol=0.25)


def test_em_target_selection_prefers_small_delay():
    sig_a = speechlike_signal(0.6, 16000, np.random.default_rng(40))
    sig_b = speechlike_signal(0.6, 16000, np.random.default_rng(41))
    spec = SceneSpec(
        sources=(
            SourceSpec(signal=sig_a, delays=(0.0, 0.5), gains=(1.0, 1.0)),
            SourceSpec(signal=sig_b, delays=(0.0, 5.0), gains=(1.0, 1.0)),
        ),
        n_channels=2, sample_rate=16000, diffuse_noise_level=0.003, seed=42,
    )
    render = render_scene(spec)
    specs = _channel_specs(render, SMALL)
    result = run_em(specs, MesslConfig(n_sources=2, n_iterations=10))
    picked = result.params.delays[result.target_index, 0]
    assert abs(picked) < 2.0

    forced = run_em(specs, MesslConfig(n_sources=2, n_iterations=10,
                                       target_source=1))
    assert forced.target_index == 1


def test_em_convergence_stops_early():
    render = _delayed_scene(1.0, seed=50, noise=0.02)
    specs = _channel_specs(render, SMALL)
    eager = run_em(specs, MesslConfig(n_sources=1, n_iterations=16,
                                      convergence_tol=1e10))
    assert len(eager.loglik_trace) == 3  # two in-loop passes plus the final
    full = run_em(specs, MesslConfig(n_sources=1, n_iterations=4,
                                     convergence_tol=0.0))
    assert len(full.loglik_trace) == 5


def test_em_reports_convergence():
    render = _delayed_scene(1.0, seed=50, noise=0.02)
    specs = _channel_specs(render, SMALL)
    eager = run_em(specs, MesslConfig(n_sources=1, n_iterations=16,
                                      convergence_tol=1e10))
    assert eager.converged
    full = run_em(specs, MesslConfig(n_sources=1, n_iterations=4,
                                     convergence_tol=0.0))
    assert not full.converged
    # Converging on the last allowed iteration leaves a trace as long as
    # hitting the cap; only the flag tells them apart.
    last = run_em(specs, MesslConfig(n_sources=1, n_iterations=2,
                                     convergence_tol=1e10))
    capped = run_em(specs, MesslConfig(n_sources=1, n_iterations=2,
                                       convergence_tol=0.0))
    assert len(last.loglik_trace) == len(capped.loglik_trace) == 3
    assert last.converged and not capped.converged


def test_em_peak_memory_eight_seconds():
    sig = speechlike_signal(8.0, 16000, np.random.default_rng(70))
    spec = SceneSpec(
        sources=(SourceSpec(signal=sig, delays=(0.0, 1.0, 2.0, 3.0),
                            gains=(1.0,) * 4),),
        n_channels=4, sample_rate=16000, diffuse_noise_level=0.01, seed=70,
    )
    specs = _channel_specs(render_scene(spec), StftConfig())
    tracemalloc.start()
    try:
        run_em(specs, MesslConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6, f"run_em peak {peak / 1e6:.1f} MB"


def test_em_wraps_unmoved_residuals_once(monkeypatch):
    """A one-pair scene whose delay never leaves its PHAT start: the
    residuals are wrapped once, and every M step reads them from the cache."""
    calls = []

    def counting_wrap(x):
        calls.append(x.shape)
        return _wrap(x)

    monkeypatch.setattr(spatial_em, "_wrap", counting_wrap)
    render = _delayed_scene(2.0, seed=8)
    specs = _channel_specs(render, SMALL)
    cfg = MesslConfig(n_sources=1, n_iterations=8, convergence_tol=0.0)
    for _ in range(2):
        calls.clear()
        result = run_em(specs, cfg)
        assert len(result.loglik_trace) == 9         # eight M steps
        assert result.params.delays[0, 0] == 2.0
        assert calls == [(1, 1) + specs[0].bins.shape]


def test_em_silent_input_raises():
    cfg = StftConfig(window_size=16, hop_size=4)
    zero = Spectrogram(bins=np.zeros((9, 6), dtype=complex), config=cfg,
                       sample_rate=16000)
    with pytest.raises(NumericalError, match="silent"):
        run_em([zero, zero], MesslConfig())


def test_em_zero_frame_input_is_data_error():
    cfg = StftConfig(window_size=16, hop_size=4)
    empty = Spectrogram(bins=np.zeros((9, 0), dtype=complex), config=cfg,
                        sample_rate=16000)
    with pytest.raises(DataError, match=r"no bins, shape \(9, 0\)"):
        run_em([empty, empty], MesslConfig())


def _probe_specs(level_probe, k):
    render, cfg = level_probe
    mixture = MultichannelWaveform.from_array(
        render.mixture.as_array() * 2.0 ** k, render.mixture.sample_rate)
    return [stft(mixture.channel(c), cfg.stft) for c in range(mixture.n_channels)]


@pytest.mark.parametrize("k, n_sources, garbage", [
    (-1000, 2, True), (0, 2, True), (1000, 2, True), (0, 1, False), (0, 3, False),
])
def test_em_forms_only_finite_bounded_log_posteriors(level_probe, monkeypatch,
                                                    k, n_sources, garbage):
    # _normalize handles finite input only; every stack EM hands it must be
    # finite and within the bound its docstring states.
    stacks = []

    def spy(a):
        stacks.append(a.copy())
        return _normalize(a)

    monkeypatch.setattr(spatial_em, "_normalize", spy)
    cfg = dataclasses.replace(level_probe[1].messl, n_sources=n_sources,
                              use_garbage=garbage)
    result = run_em(_probe_specs(level_probe, k), cfg)
    n_pairs = len(result.pair_channels)
    assert len(stacks) == len(result.loglik_trace) - result.converged
    for a in stacks:
        assert a.shape[0] == n_sources + garbage
        assert np.isfinite(a).all()
        assert np.abs(a).max() < n_pairs * 2e5 + 700


@pytest.fixture(scope="module")
def unscaled_probe_em(level_probe):
    return run_em(_probe_specs(level_probe, 0), level_probe[1].messl)


@pytest.mark.parametrize("k", [-1000, -997, -600, -500, -300, -100, -60,
                               100, 300, 450, 505, 510, 1000])
def test_em_result_does_not_depend_on_the_input_level(level_probe, unscaled_probe_em, k):
    # EM scales each channel by an exact power of two before its products,
    # so any level whose STFT bins are finite and normal fits the same
    # model to the bit (2**-997 is about 1e-300); the pickles hold every
    # array's bytes.
    specs = _probe_specs(level_probe, k)
    parts = np.abs(np.concatenate([s.bins.view(np.float64).ravel() for s in specs]))
    assert np.isfinite(parts).all()
    assert parts[parts > 0].min() >= np.finfo(np.float64).tiny
    got = run_em(specs, level_probe[1].messl)
    assert pickle.dumps(got) == pickle.dumps(unscaled_probe_em)


def _old_silent(specs):
    return sum(float(np.sum(np.abs(s.bins) ** 2)) for s in specs) == 0.0


@pytest.mark.parametrize("value, silent", [
    (0.0, True),
    (1e-170 + 1e-170j, True),      # every |bin|**2 underflows to zero
    (-1e-162j, True),              # squares below the least subnormal
    (1e-160 - 1e-160j, False),     # subnormal squares, still energy
    (-1e-150j, False),
    (1.0, False),
])
def test_silent_check_keeps_the_energy_sum_answer(value, silent):
    # `silent` is the answer of the old energy-sum rule. EM keeps it where
    # every bin is zero or some square is nonzero; bins whose squares all
    # underflow still carry phase, so EM now fits them like the same
    # channel at unit scale. Silent input means every bin is zero.
    cfg = StftConfig(window_size=16, hop_size=4)

    def spec(bins):
        return Spectrogram(bins=bins, config=cfg, sample_rate=16000)

    zero = spec(np.zeros((9, 6), dtype=complex))
    # Spectrogram stores a strided array's bins C-contiguous, so EM reads
    # the same components.
    quiet = spec(np.full((9, 12), value, dtype=complex)[:, ::2])
    assert _old_silent([zero, quiet]) is silent
    if value == 0:
        with pytest.raises(NumericalError, match="^silent input"):
            run_em([zero, quiet], MesslConfig())
        return
    e = np.frexp(max(abs(value.real), abs(value.imag)))[1]
    unit = np.full((9, 6), value, dtype=complex)
    unit.real *= 2.0 ** -e             # keeps the sign of a zero part
    unit.imag *= 2.0 ** -e
    unit = spec(unit)
    assert np.abs(unit.bins).max() >= 0.5
    gen = np.random.default_rng(5)
    ref = spec(gen.normal(size=(9, 6)) + 1j * gen.normal(size=(9, 6)))
    for other, order in itertools.product((ref, zero), (1, -1)):
        got, want = (run_em([other, c][::order], MesslConfig()) for c in (quiet, unit))
        assert pickle.dumps(got) == pickle.dumps(want)


def test_em_reference_channel_variant():
    render = _delayed_scene(2.0, seed=60, noise=0.01)
    specs = _channel_specs(render, SMALL)
    result = run_em(specs, MesslConfig(n_sources=1, n_iterations=8,
                                       reference_channel=1))
    # Channel 0 now leads the reference by 2 samples.
    assert result.pair_channels == (0,)
    assert result.params.delays[0, 0] == pytest.approx(-2.0, abs=0.25)


def _reference_top_peaks(values, grid, count, min_sep):
    """Greedy spaced selection, then a fill loop: the original code."""
    order = np.argsort(values)[::-1]
    chosen = []
    for idx in order:
        if all(abs(grid[idx] - grid[j]) >= min_sep for j in chosen):
            chosen.append(idx)
        if len(chosen) == count:
            break
    while len(chosen) < count:
        for idx in order:
            if idx not in chosen:
                chosen.append(idx)
                break
    return grid[np.array(chosen[:count])]


def _reference_run_em(specs, cfg):
    """EM with one residual pass per source in each step and a separate
    final E step: the original loop, kept as a bitwise oracle. Returns the
    result fields and the delays at the start and after each M step."""
    ref_conj = np.conj(specs[cfg.reference_channel].bins)
    pairs = tuple(c for c in range(len(specs)) if c != cfg.reference_channel)
    cross = np.stack([np.multiply(ref_conj, specs[c].bins) for c in pairs])
    phi = np.angle(cross)
    n_freq, n_frames = specs[0].bins.shape
    n_pairs = len(pairs)
    k_total = cfg.n_sources + (1 if cfg.use_garbage else 0)
    omega = 2.0 * np.pi * np.arange(n_freq) / specs[0].config.window_size
    grid = cfg.delay_grid
    # PHAT: each bin over its magnitude where that is normal, summed over
    # frames, steered to every grid delay and summed over pairs.
    mag = np.abs(cross)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        normed = np.where(mag >= np.finfo(np.float64).tiny, cross / mag, 0.0)
    steering = np.exp(1j * np.outer(grid, omega))
    correlation = sum(np.real(steering @ spectrum) for spectrum in normed.sum(axis=2))
    peaks = _reference_top_peaks(correlation, grid, cfg.n_sources,
                                 max(cfg.grid_step, 1.0))
    delays = np.tile(peaks[:, None], (1, n_pairs))
    mean = np.zeros((cfg.n_sources, n_freq))
    var = np.ones((cfg.n_sources, n_freq))
    log_priors = np.full(k_total, -np.log(k_total))
    delay_steps = [delays.copy()]

    def residuals(k):
        return _wrap(phi + np.outer(delays[k], omega)[:, :, None])

    def e_step():
        log_post = np.empty((k_total, n_freq, n_frames))
        for k in range(cfg.n_sources):
            dev = residuals(k) - mean[k][None, :, None]
            log_norm = -0.5 * np.log(2.0 * np.pi * var[k])
            log_post[k] = ((n_pairs * log_norm)[:, None]
                           - (dev * dev).sum(axis=0) / (2.0 * var[k])[:, None])
        if cfg.use_garbage:
            log_post[-1] = n_pairs * -np.log(2.0 * np.pi)
        log_post += log_priors[:, None, None]
        top = log_post.max(axis=0)
        e = np.exp(log_post - top)
        s = e.sum(axis=0)
        return e / s, float(np.sum(np.log(s) + top))

    trace, converged = [], False
    for iteration in range(cfg.n_iterations):
        gamma, loglik = e_step()
        trace.append(loglik)
        if iteration >= 1:
            prev = trace[-2]
            if abs(loglik - prev) <= cfg.convergence_tol * (abs(prev) + 1.0):
                converged = True
                break
        weight = gamma[: cfg.n_sources] / (2.0 * var[:, :, None])
        for p in range(n_pairs):
            # Splits per pair and per iteration; run_em forms them once per call.
            one = phi[p:p + 1]
            work = _score_work(cfg.n_sources, n_freq, n_frames)
            score = _delay_scores(_delay_splits(one, grid, omega), weight, mean, work)[0]
            delays[:, p] = grid[np.argmax(score, axis=1)]
        delay_steps.append(delays.copy())
        for k in range(cfg.n_sources):
            r = residuals(k)
            denom = n_pairs * gamma[k].sum(axis=1)
            ok = denom > 1e-12
            mean[k][ok] = np.einsum("pft,ft->f", r, gamma[k])[ok] / denom[ok]
            dev = r - mean[k][None, :, None]
            num_var = np.einsum("ft,ft->f", (dev * dev).sum(axis=0), gamma[k])
            var[k][ok] = np.maximum(num_var[ok] / denom[ok], VAR_FLOOR)
        priors = gamma.reshape(k_total, -1).mean(axis=1)
        log_priors = np.log(np.maximum(priors, 1e-300))
    gamma, loglik = e_step()
    trace.append(loglik)
    if cfg.target_source is not None:
        target_index = cfg.target_source
    else:
        target_index = int(np.argmin(np.mean(np.abs(delays), axis=1)))
    return dict(masks=list(gamma), loglik_trace=np.asarray(trace), delays=delays,
                residual_mean=mean, residual_var=var, priors=np.exp(log_priors),
                target_index=target_index, pair_channels=tuple(pairs),
                converged=converged), delay_steps


# The (n_channels, n_sources) of the cases below in which some M step moves
# one (source, pair) delay and keeps another. run_em wraps a residual again
# only when its delay moves, so such a step reads fresh and cached residuals.
PARTIAL_MOVES = {(4, 3), (8, 1), (8, 3), (8, 2)}


@pytest.mark.parametrize("n_channels,n_sources,garbage,n_iterations,tol,ref,grid,converges", [
    (2, 1, True, 8, 1e-5, 0, None, False),
    (2, 2, False, 1, 1e-5, 1, None, False),
    (4, 3, True, 8, 3e-2, 0, None, True),
    (4, 2, True, 8, 1e-3, 3, (4.0, 0.5), True),
    (8, 1, False, 8, 3e-2, 7, None, True),
    (8, 3, False, 1, 1e-5, 0, (2.0, 1.0), False),
    (8, 2, True, 8, 1e-5, 0, None, False),
    (2, 3, True, 8, 3e-2, 0, (0.5, 0.5), True),   # too few spaced peaks: fill path
])
def test_em_matches_per_source_reference_bit_for_bit(
        n_channels, n_sources, garbage, n_iterations, tol, ref, grid, converges):
    rng = np.random.default_rng(n_channels * 10 + n_sources)
    render = render_scene(random_scene_spec(rng, n_channels=n_channels, duration=0.4,
                                            n_interferers=2))
    cfg = MesslConfig(n_sources=n_sources, n_iterations=n_iterations,
                      convergence_tol=tol, use_garbage=garbage, reference_channel=ref,
                      **({} if grid is None else {"delay_grid": default_delay_grid(*grid)}))
    specs = _channel_specs(render, SMALL)
    got = run_em(specs, cfg)
    want, delay_steps = _reference_run_em(specs, cfg)
    fields = dict(masks=[m.values for m in got.masks], loglik_trace=got.loglik_trace,
                  target_index=got.target_index, pair_channels=got.pair_channels,
                  converged=got.converged, **vars(got.params))
    assert fields.keys() == want.keys()
    for key, value in want.items():
        assert np.array_equal(fields[key], value), key
        assert np.asarray(fields[key]).dtype == np.asarray(value).dtype, key
    assert got.converged is converges
    moved = [after != before for before, after in zip(delay_steps, delay_steps[1:])]
    partial = any(m.any() and not m.all() for m in moved)
    assert partial is ((n_channels, n_sources) in PARTIAL_MOVES)


# ------------------------------------------------------------------ config

@pytest.mark.parametrize("n_frames", [100, 160])
def test_cross_spectra_bits_are_conjugate_reference_times_channel(n_frames):
    """Every pair's phases have the bits of np.angle of conj(ref) * bins in
    that operand order, below (202 KiB per channel) and above (322 KiB) the
    256 KiB from which numpy's temporary elision reorders
    ``bins * np.conj(ref)``."""
    cfg = StftConfig(window_size=256, hop_size=64)
    rng = np.random.default_rng(5)
    specs = [Spectrogram(rng.standard_normal((cfg.n_freq, n_frames))
                         + 1j * rng.standard_normal((cfg.n_freq, n_frames)), cfg, 16000)
             for _ in range(3)]
    phi, pairs, _, _ = _pair_phases(specs, 1, default_delay_grid())
    assert pairs == (0, 2) and phi.shape == (2, cfg.n_freq, n_frames)
    ref_conj = np.conj(specs[1].bins)
    for slot, channel in enumerate(pairs):
        np.testing.assert_array_equal(
            phi[slot], np.angle(np.multiply(ref_conj, specs[channel].bins)))


def test_config_validation():
    with pytest.raises(DataError, match="zero"):
        MesslConfig(delay_grid=np.array([1.0, 2.0]))
    with pytest.raises(DataError, match="n_sources = 0: must be at least 1"):
        MesslConfig(n_sources=0)
    with pytest.raises(DataError, match="out of range"):
        MesslConfig(n_sources=2, target_source=2)
    for grid in ([[0.0, 1.0], [2.0, 3.0]], [np.nan, 0.0, 1.0], [0.0, np.inf], 0.0):
        with pytest.raises(DataError,
                           match=r"(?s)^delay_grid = .*: (expected 1-D|contains non-finite)"):
            MesslConfig(delay_grid=grid)
    with pytest.raises(DataError, match=r"^delay_grid = .*: expected float64 values, got <U"):
        MesslConfig(delay_grid=["zero", "one"])
    with pytest.raises(DataError, match="10001 candidates for 1 sources"):
        MesslConfig(delay_grid=np.arange(-5000, 5001) * 0.25)
    with pytest.raises(DataError, match="1 candidates for 2 sources"):
        MesslConfig(n_sources=2, delay_grid=[0.0])
    for tol in (-1.0, np.nan, np.inf):
        with pytest.raises(DataError, match="convergence_tol"):
            MesslConfig(convergence_tol=tol)
    assert MesslConfig(n_sources=2, delay_grid=[0.0, 0.5]).n_sources == 2
    cfg = MesslConfig()
    for name, value in (("delay_grid", [[0, 1], [2, 3]]), ("convergence_tol", np.nan)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)
    with pytest.raises(ValueError, match="read-only"):
        cfg.delay_grid[0] = 7.0
    grid = np.array([-0.5, 0.0, 0.5])
    own = MesslConfig(delay_grid=grid).delay_grid
    grid[0] = 7.0
    assert own[0] == -0.5 and not own.flags.writeable
    assert MesslConfig(convergence_tol=0.0).convergence_tol == 0.0
    assert MesslConfig().grid_step == pytest.approx(0.25)


def test_default_delay_grid():
    grid = default_delay_grid(4.0, 0.5)
    assert grid[0] == -4.0 and grid[-1] == 4.0
    assert 0.0 in grid
    assert len(grid) == 17


def test_default_delay_grid_is_capped():
    assert default_delay_grid(1024.0, 0.5).size == MAX_DELAY_CANDIDATES
    for max_delay, step, count in ((1024.5, 0.5, "4099"), (8.0, 1e-300, "1.6e+301"),
                                   (1e308, 1e-10, "inf")):
        with pytest.raises(DataError, match=re.escape(f"{count} candidates")):
            default_delay_grid(max_delay, step)
    for max_delay, step in ((8.0, np.inf), (8.0, np.nan), (np.nan, 0.25), (8.0, 0.0)):
        with pytest.raises(DataError, match="finite step > 0"):
            default_delay_grid(max_delay, step)


def test_default_delay_grid_rejects_a_negative_max_delay():
    assert default_delay_grid(0.0, 0.25).tolist() == [0.0]
    for max_delay in (-0.1, -1.0):
        with pytest.raises(DataError, match="max_delay >= 0"):
            default_delay_grid(max_delay, 0.25)
        with pytest.raises(DataError, match=f"config key 'max_delay' = {max_delay}: "):
            pipeline_config_from_dict({"messl": {"max_delay": max_delay}})


def test_binarize_strict_threshold():
    grid = MaskGrid(values=np.array([[0.2, 0.5, 0.8]]))
    hard = binarize(grid, threshold=0.5)
    np.testing.assert_array_equal(hard.values, [[0.0, 0.0, 1.0]])
