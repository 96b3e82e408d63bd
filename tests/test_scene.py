"""Scene simulation: delays, rendering, oracle masks, signal generator, IO."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arraysep import (
    DataError,
    SceneSpec,
    SourceSpec,
    StftConfig,
    TargetKind,
    Waveform,
    fractional_delay,
    ideal_masks,
    load_render,
    random_scene_spec,
    render_scene,
    save_render,
    speechlike_signal,
)
from arraysep.scene import DELAY_TAPS, load_scene_specs
from arraysep.signal import AMP_FLOOR


def _bandlimited(n: int, sample_rate: int, seed: int = 0, top: float = 0.4):
    """Analytic multitone whose energy stays below `top` of Nyquist.

    Returns (samples, callable evaluating the continuous signal at sample
    index positions) so delayed versions have an exact oracle.
    """
    gen = np.random.default_rng(seed)
    freqs = gen.uniform(50.0, top * sample_rate / 2.0, size=8)
    amps = gen.uniform(0.2, 1.0, size=8)
    phases = gen.uniform(0.0, 2.0 * np.pi, size=8)

    def evaluate(t_samples):
        t = np.asarray(t_samples, dtype=np.float64) / sample_rate
        out = np.zeros_like(t)
        for f, a, p in zip(freqs, amps, phases):
            out += a * np.sin(2.0 * np.pi * f * t + p)
        return out

    return evaluate(np.arange(n)), evaluate


# ----------------------------------------------------------------- delays

def test_integer_delay_is_exact_shift():
    x = np.random.default_rng(0).standard_normal(200)
    y = fractional_delay(x, 3.0)
    np.testing.assert_array_equal(y[3:], x[:-3])
    np.testing.assert_array_equal(y[:3], 0.0)


def test_negative_integer_delay_advances():
    x = np.random.default_rng(1).standard_normal(200)
    y = fractional_delay(x, -4.0)
    np.testing.assert_array_equal(y[:-4], x[4:])
    np.testing.assert_array_equal(y[-4:], 0.0)


def test_zero_delay_identity():
    x = np.random.default_rng(2).standard_normal(64)
    np.testing.assert_array_equal(fractional_delay(x, 0.0), x)


def test_fractional_delay_matches_analytic_oracle():
    sr = 16000
    x, evaluate = _bandlimited(2000, sr, seed=3)
    for d in (0.5, 2.3, -1.7, 0.25):
        y = fractional_delay(x, d)
        expected = evaluate(np.arange(2000) - d)
        lo = DELAY_TAPS + 4
        hi = 2000 - DELAY_TAPS - 4
        err = np.max(np.abs(y[lo:hi] - expected[lo:hi]))
        assert err < 1e-3, f"delay {d}: err {err:.2e}"


def test_fractional_delay_composition():
    # Two fractional shifts compose to their sum within interpolation error.
    sr = 16000
    x, _ = _bandlimited(2000, sr, seed=4)
    once = fractional_delay(fractional_delay(x, 1.3), 0.9)
    direct = fractional_delay(x, 2.2)
    lo, hi = 3 * DELAY_TAPS, 2000 - 3 * DELAY_TAPS
    assert np.max(np.abs(once[lo:hi] - direct[lo:hi])) < 2e-3


def test_delay_recovered_by_cross_correlation():
    x = np.random.default_rng(5).standard_normal(400)
    y = fractional_delay(x, 2.0)
    corr = np.correlate(y, x, mode="full")
    lag = int(np.argmax(corr)) - (len(x) - 1)
    assert lag == 2


def test_fractional_delay_energy_preserved():
    x, _ = _bandlimited(4000, 16000, seed=6)
    y = fractional_delay(x, 0.5)
    mid = slice(DELAY_TAPS, 4000 - DELAY_TAPS)
    ratio = np.sum(y[mid] ** 2) / np.sum(x[mid] ** 2)
    assert ratio == pytest.approx(1.0, abs=5e-3)


# ---------------------------------------------------------------- rendering

def _two_channel_spec(noise_level=0.01, seed=0, delays=(0.0, 1.5)):
    sig = speechlike_signal(0.4, 16000, np.random.default_rng(seed))
    src = SourceSpec(signal=sig, delays=delays, gains=(1.0, 1.0))
    return SceneSpec(sources=(src,), n_channels=2, sample_rate=16000,
                     diffuse_noise_level=noise_level, seed=seed)


def test_mixture_is_sum_of_images():
    spec = random_scene_spec(np.random.default_rng(10), n_channels=3,
                             duration=0.4, n_interferers=1)
    render = render_scene(spec)
    total = render.noise_image.as_array().copy()
    for img in render.per_source_images:
        total += img.as_array()
    np.testing.assert_allclose(render.mixture.as_array(), total, atol=1e-9)


def test_render_deterministic():
    spec = _two_channel_spec()
    a = render_scene(spec)
    b = render_scene(spec)
    np.testing.assert_array_equal(a.mixture.as_array(), b.mixture.as_array())
    np.testing.assert_array_equal(a.noise_image.as_array(),
                                  b.noise_image.as_array())


def test_noise_rms_matches_level():
    spec = _two_channel_spec(noise_level=0.25)
    render = render_scene(spec)
    for c in range(2):
        rms = render.noise_image.channel(c).rms()
        assert rms == pytest.approx(0.25, rel=0.02)


def test_noiseless_scene_has_zero_noise_image():
    spec = _two_channel_spec(noise_level=0.0)
    render = render_scene(spec)
    assert np.all(render.noise_image.as_array() == 0.0)


def test_render_applies_gains():
    sig = Waveform(samples=np.random.default_rng(11).standard_normal(300),
                   sample_rate=16000)
    src = SourceSpec(signal=sig, delays=(0.0, 0.0), gains=(1.0, 0.5))
    spec = SceneSpec(sources=(src,), n_channels=2, sample_rate=16000,
                     diffuse_noise_level=0.0, seed=0)
    render = render_scene(spec)
    np.testing.assert_allclose(
        render.mixture.channel(1).samples,
        0.5 * render.mixture.channel(0).samples, atol=1e-12)


def test_snr_mapping():
    rng = np.random.default_rng(12)
    spec = random_scene_spec(rng, snr_db=10.0, duration=0.4)
    target_rms = spec.sources[0].signal.rms()
    assert spec.diffuse_noise_level == pytest.approx(
        target_rms * 10.0 ** (-0.5), rel=1e-9)


def test_scene_spec_validation():
    sig = Waveform(samples=np.zeros(10) + 0.1, sample_rate=16000)
    with pytest.raises(DataError, match="n_channels = 1: must be at least 2"):
        SceneSpec(sources=(SourceSpec(sig, (0.0,), (1.0,)),),
                  n_channels=1, sample_rate=16000)
    with pytest.raises(DataError, match="channel placements"):
        SceneSpec(sources=(SourceSpec(sig, (0.0,), (1.0,)),),
                  n_channels=2, sample_rate=16000)
    with pytest.raises(DataError, match="positive"):
        SourceSpec(sig, (0.0, 0.0), (1.0, 0.0))
    with pytest.raises(DataError, match="n_interferers"):
        random_scene_spec(np.random.default_rng(0), duration=0.1, n_interferers=-1)
    spec = random_scene_spec(np.random.default_rng(0), duration=0.1)
    with pytest.raises(DataError, match="seed"):
        dataclasses.replace(spec, seed=-1)
    with pytest.raises(DataError, match="diffuse_noise_level"):
        dataclasses.replace(spec, diffuse_noise_level=np.nan)
    for obj, name in ((spec, "seed"), (spec.sources[0], "delays")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, 0)


# -------------------------------------------------------------- oracle masks

def test_ideal_masks_unit_for_clean_scene():
    # One source, no noise: the mixture IS the target image, so the
    # amplitude mask is one wherever there is energy.
    spec = _two_channel_spec(noise_level=0.0)
    render = render_scene(spec)
    cfg = StftConfig(window_size=64, hop_size=16)
    masks = ideal_masks(render, cfg)
    assert len(masks) == 2
    from arraysep import stft
    for c in range(2):
        ia = masks[c][TargetKind.IA].values
        mag = np.abs(stft(render.mixture.channel(c), cfg).bins)
        assert np.all(ia[mag > AMP_FLOOR] == 1.0)


def test_ideal_masks_drop_with_noise():
    spec = _two_channel_spec(noise_level=0.3)
    render = render_scene(spec)
    cfg = StftConfig(window_size=64, hop_size=16)
    masks = ideal_masks(render, cfg)
    ia = masks[0][TargetKind.IA].values
    assert ia.mean() < 0.95
    assert set(masks[0]) == set(TargetKind)


# ----------------------------------------------------------- speechlike sig

def test_speechlike_deterministic():
    a = speechlike_signal(0.5, 16000, np.random.default_rng(42))
    b = speechlike_signal(0.5, 16000, np.random.default_rng(42))
    np.testing.assert_array_equal(a.samples, b.samples)


def test_speechlike_has_true_pauses():
    sig = speechlike_signal(1.0, 16000, np.random.default_rng(1))
    silent = np.mean(sig.samples == 0.0)
    assert silent >= 0.08, f"only {silent:.1%} exact silence"


def test_speechlike_active_level():
    sig = speechlike_signal(1.0, 16000, np.random.default_rng(2))
    active = sig.samples[sig.samples != 0.0]
    rms = np.sqrt(np.mean(active ** 2))
    assert 0.08 < rms < 0.3


def test_speechlike_mostly_below_delay_accuracy_band():
    # Fractional delays are accurate below ~0.6 Nyquist; the generator must
    # keep nearly all its power under that line.
    sig = speechlike_signal(1.0, 16000, np.random.default_rng(3))
    power = np.abs(np.fft.rfft(sig.samples)) ** 2
    freqs = np.fft.rfftfreq(len(sig.samples), 1.0 / 16000)
    high = power[freqs > 0.6 * 8000].sum()
    assert high < 0.02 * power.sum()


def test_speechlike_length():
    sig = speechlike_signal(0.33, 16000, np.random.default_rng(4))
    assert len(sig) == int(round(0.33 * 16000))


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_random_scene_always_renders(seed):
    spec = random_scene_spec(np.random.default_rng(seed), duration=0.3,
                             n_interferers=1)
    render = render_scene(spec)
    arr = render.mixture.as_array()
    assert np.all(np.isfinite(arr))
    assert arr.shape[0] == 2


# ---------------------------------------------------------------------- io

def test_render_round_trip(tmp_path):
    spec = random_scene_spec(np.random.default_rng(20), duration=0.3,
                             n_interferers=1)
    render = render_scene(spec)
    save_render(render, tmp_path / "scene")
    back = load_render(tmp_path / "scene")
    np.testing.assert_allclose(back.mixture.as_array(),
                               render.mixture.as_array(), atol=1e-7)
    assert len(back.per_source_images) == 2
    np.testing.assert_allclose(back.per_source_images[1].as_array(),
                               render.per_source_images[1].as_array(),
                               atol=1e-7)
    np.testing.assert_allclose(back.noise_image.as_array(),
                               render.noise_image.as_array(), atol=1e-7)


def test_load_render_missing(tmp_path):
    with pytest.raises(DataError, match="manifest"):
        load_render(tmp_path / "nothing")


def _saved_scene(tmp_path):
    spec = random_scene_spec(np.random.default_rng(22), duration=0.1)
    scene_dir = tmp_path / "scene"
    save_render(render_scene(spec), scene_dir)
    return scene_dir


@pytest.mark.parametrize(
    "manifest, message",
    [
        ("- 1\n", "mapping"),
        ("mixture: 5\nsources: [source_00.wav]\nnoise: noise.wav\n", "not a string"),
        ("mixture: mixture.wav\nsources: source_00.wav\nnoise: noise.wav\n", "list"),
        ("mixture: mixture.wav\nsources: [3]\nnoise: noise.wav\n", "not a string"),
        ("mixture: mixture.wav\nsources: [source_00.wav]\nnoise: [a]\n", "not a string"),
        ("mixture: mixture.wav\nsources: [source_00.wav]\n", "missing 'noise'"),
        ("mixture: mixture.wav\nsources: []\nnoise: noise.wav\n", "no sources"),
    ],
)
def test_load_render_malformed_manifest(tmp_path, manifest, message):
    scene_dir = _saved_scene(tmp_path)
    (scene_dir / "manifest.yaml").write_text(manifest)
    with pytest.raises(DataError, match=message):
        load_render(scene_dir)


@pytest.mark.parametrize("manifest", [
    "mixture: 5\nsources: [source_00.wav]\nnoise: noise.wav\n",
    "mixture: mixture.wav\nsources: []\nnoise: noise.wav\n",
    "mixture: mixture.wav\nsources: [source_00.wav]\n",
])
def test_load_render_errors_name_the_manifest(tmp_path, manifest):
    scene_dir = _saved_scene(tmp_path)
    path = scene_dir / "manifest.yaml"
    path.write_text(manifest)
    with pytest.raises(DataError, match="^" + re.escape(f"scene manifest {path}: ")):
        load_render(scene_dir)


def test_load_scene_specs_batch(tmp_path):
    path = tmp_path / "scenes.yaml"
    path.write_text(
        "batch:\n  n_scenes: 3\n  seed: 9\n  n_channels: 2\n"
        "  duration: 0.3\n  snr_db: 12\n"
    )
    specs = load_scene_specs(path)
    assert len(specs) == 3
    assert all(s.n_channels == 2 for s in specs)
    again = load_scene_specs(path)
    for a, b in zip(specs, again):
        np.testing.assert_array_equal(a.sources[0].signal.samples,
                                      b.sources[0].signal.samples)


@pytest.mark.parametrize("doc, key", [
    ("batch: 5\n", "batch"),
    ("batch: {n_scenes: x}\n", "n_scenes"),
    ("batch: {snr_db: [1, 2, 3]}\n", "snr_db"),
    ("batch: {delay_range: 4}\n", "delay_range"),
    ("seed: 1\n", "missing 'sources'"),
    ("sources: 3\n", "sources"),
    ("sources: [3]\n", "sources"),
    ("sources: [{duration: 0.1}]\n", "missing 'delays'"),
    ("sources: [{kind: tone, delays: [0, 1]}]\n", "kind"),
    ("sources: [{kind: wav, delays: [0, 1]}]\n", "missing 'path'"),
    ("sources: [{duration: 0.1, delays: [0, 1], level: loud}]\n", "level"),
    ("sources: [{duration: 0.1, delays: [0, 1], level: -0.1}]\n", "key 'level'"),
    ("sources: [{duration: 0.1, delays: [0, 1], level: 0}]\n", "key 'level'"),
    ("sources: [{duration: 0.1, delays: [0, 1], level: .nan}]\n", "key 'level'"),
    ("sources: []\n", "at least one source"),
    ("- 1\n", "mapping"),
    ("batch: {n_scenes: 2.5}\n", "n_scenes"),
    ("batch: {n_channels: 2.5}\n", "n_channels"),
    ("sample_rate: 16000.5\nsources: [{duration: 0.1, delays: [0, 1]}]\n", "sample_rate"),
    ("batch: {seed: -1}\n", "seed"),
    ("seed: -1\nsources: [{duration: 0.1, delays: [0, 1]}]\n", "seed"),
    ("batch: {duration: .nan}\n", "duration"),
    ("sources: [{duration: .inf, delays: [0, 1]}]\n", "duration"),
    ("batch: {delay_range: [0.5, .nan]}\n", "delay_range"),
    ("batch: {snr_db: [20, 0]}\n", "snr_db"),
    ("batch: {n_scenes: 0}\n", "n_scenes"),
    ("batch: {n_scenes: -1}\n", "n_scenes"),
    ("batch: {n_interferers: -1}\n", "n_interferers"),
])
def test_load_scene_specs_malformed(tmp_path, doc, key):
    path = tmp_path / "bad.yaml"
    path.write_text(doc)
    with pytest.raises(DataError, match=key):
        load_scene_specs(path)


def test_load_scene_specs_explicit(tmp_path):
    path = tmp_path / "one.yaml"
    path.write_text(
        "sample_rate: 16000\nn_channels: 2\nseed: 5\n"
        "diffuse_noise_level: 0.05\n"
        "sources:\n"
        "  - kind: speechlike\n    duration: 0.3\n"
        "    delays: [0.0, 2.5]\n    gains: [1.0, 0.9]\n"
    )
    specs = load_scene_specs(path)
    assert len(specs) == 1
    assert specs[0].sources[0].delays == (0.0, 2.5)
    render = render_scene(specs[0])
    assert render.mixture.n_channels == 2
