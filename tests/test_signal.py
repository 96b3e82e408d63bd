"""STFT analysis/synthesis, masks, features, file IO, and channel lists."""

import os
import pickle
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile
from scipy.special import expit

from arraysep import (
    BeamformerWeights,
    CombineMode,
    DataError,
    FeatureStats,
    MaskGrid,
    MesslConfig,
    MultichannelWaveform,
    Spectrogram,
    StftConfig,
    Waveform,
    apply_mask,
    beamform,
    combine_masks,
    estimate_covariances,
    fuse_channels,
    istft,
    load_mask,
    read_wav,
    run_em,
    save_mask,
    stft,
    to_log_features,
    write_wav,
)
from arraysep.signal import (
    MASK_EPS,
    check_ratio_mask,
    logit_mask,
    make_window,
)
from waveforms import make_noise, make_tone


# ---------------------------------------------------------------- analysis

def test_stft_matches_direct_dft(small_cfg):
    """Oracle: frame 0 of the STFT equals a literal windowed DFT sum."""
    wave = make_tone(1000.0, duration=0.05)
    spec = stft(wave, small_cfg)

    size = small_cfg.window_size
    window = make_window(small_cfg.window, size)
    frame = wave.samples[:size] * window
    n_freq = size // 2 + 1
    direct = np.zeros(n_freq, dtype=complex)
    for k in range(n_freq):
        for n in range(size):
            direct[k] += frame[n] * np.exp(-2j * np.pi * k * n / size)
    np.testing.assert_allclose(spec.bins[:, 0], direct, atol=1e-9)


@pytest.mark.parametrize("size, hop, window", [
    (64, 16, "sqrt_hann"), (512, 128, "hann"), (32, 32, "rect"), (9, 2, "hann"),
])
def test_stft_bins_are_contiguous_transposed_rfft(size, hop, window):
    cfg = StftConfig(window_size=size, hop_size=hop, window=window)
    x = np.random.default_rng(size).standard_normal(5 * size + 3)
    spec = stft(Waveform(x, 8000), cfg)
    frames = np.lib.stride_tricks.sliding_window_view(x, size)[::hop]
    expected = np.fft.rfft(frames * make_window(window, size), axis=1).T
    assert spec.bins.flags.c_contiguous
    np.testing.assert_array_equal(spec.bins, expected)


def test_stft_sine_peaks_at_expected_bin():
    # Window 64 at 16 kHz puts bin spacing at 250 Hz; a 2 kHz sine is bin 8.
    cfg = StftConfig(window_size=64, hop_size=16)
    spec = stft(make_tone(2000.0), cfg)
    mean_mag = np.abs(spec.bins).mean(axis=1)
    assert int(np.argmax(mean_mag)) == 8


def test_stft_frame_count_and_shape(small_cfg):
    n = 400
    wave = make_noise(n)
    spec = stft(wave, small_cfg)
    expected_frames = (n - small_cfg.window_size) // small_cfg.hop_size + 1
    assert spec.bins.shape == (small_cfg.n_freq, expected_frames)


def test_stft_parseval_per_frame(small_cfg):
    """One-sided Parseval: windowed frame energy survives the transform."""
    wave = make_noise(256, seed=3)
    spec = stft(wave, small_cfg)
    size = small_cfg.window_size
    window = make_window(small_cfg.window, size)
    frame = wave.samples[:size] * window
    time_energy = np.sum(frame ** 2)
    mags = np.abs(spec.bins[:, 0]) ** 2
    freq_energy = (mags[0] + 2.0 * mags[1:-1].sum() + mags[-1]) / size
    np.testing.assert_allclose(freq_energy, time_energy, rtol=1e-10)


def test_stft_too_short_raises(small_cfg):
    with pytest.raises(DataError, match="insufficient samples"):
        stft(Waveform(samples=np.zeros(32), sample_rate=16000), small_cfg)


def test_stft_linear(small_cfg):
    a, b = make_noise(300, seed=1), make_noise(300, seed=2)
    both = Waveform(samples=a.samples + b.samples, sample_rate=16000)
    total = stft(both, small_cfg).bins
    parts = stft(a, small_cfg).bins + stft(b, small_cfg).bins
    np.testing.assert_allclose(total, parts, atol=1e-12)


# --------------------------------------------------------------- synthesis

def test_round_trip_interior(small_cfg):
    wave = make_noise(1000, seed=9)
    back = istft(stft(wave, small_cfg))
    size, hop = small_cfg.window_size, small_cfg.hop_size
    lo, hi = size, len(back) - size
    np.testing.assert_allclose(back.samples[lo:hi], wave.samples[lo:hi],
                               atol=1e-6)


def test_round_trip_default_config():
    cfg = StftConfig()
    wave = make_noise(8192, seed=11)
    back = istft(stft(wave, cfg))
    lo, hi = cfg.window_size, len(back) - cfg.window_size
    err = np.max(np.abs(back.samples[lo:hi] - wave.samples[lo:hi]))
    assert err < 1e-6


def test_istft_output_length(small_cfg):
    spec = stft(make_noise(500), small_cfg)
    out = istft(spec)
    expected = small_cfg.window_size + (spec.n_frames - 1) * small_cfg.hop_size
    assert len(out) == expected


@pytest.mark.parametrize("size, hop, window", [
    (64, 16, "sqrt_hann"), (512, 128, "hann"), (32, 32, "rect"), (9, 2, "hann"),
    (33, 2, "sqrt_hann"),
])
def test_istft_matches_frame_loop_bitwise(size, hop, window):
    cfg = StftConfig(window_size=size, hop_size=hop, window=window)
    gen = np.random.default_rng(size + hop)
    spec = stft(Waveform(gen.standard_normal(4 * size + 3 * hop + 1), 8000), cfg)
    spec = Spectrogram(bins=spec.bins * gen.uniform(0.0, 1.0, spec.bins.shape),
                       config=cfg, sample_rate=8000)
    # Frame-by-frame weighted overlap-add, the summation order istft keeps.
    w = make_window(window, size)
    frames = np.fft.irfft(spec.bins.T, n=size, axis=1)
    out = np.zeros(size + (len(frames) - 1) * hop)
    norm = np.zeros_like(out)
    for t, frame in enumerate(frames):
        out[t * hop:t * hop + size] += frame * w
        norm[t * hop:t * hop + size] += w * w
    covered = norm > 1e-12
    out[covered] /= norm[covered]
    out[~covered] = 0.0
    np.testing.assert_array_equal(istft(spec).samples, out)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_round_trip_property(seed):
    cfg = StftConfig(window_size=64, hop_size=16)
    gen = np.random.default_rng(seed)
    wave = Waveform(samples=gen.uniform(-1.0, 1.0, size=320), sample_rate=8000)
    back = istft(stft(wave, cfg))
    lo = cfg.window_size
    hi = len(back) - cfg.window_size
    assert np.max(np.abs(back.samples[lo:hi] - wave.samples[lo:hi])) < 1e-6


# ------------------------------------------------------------------ config

def test_cola_rejects_rect_with_nondividing_hop():
    with pytest.raises(DataError, match="COLA"):
        StftConfig(window_size=64, hop_size=48, window="rect")


def test_rect_with_dividing_hop_ok():
    StftConfig(window_size=64, hop_size=32, window="rect")


def test_hop_bounds():
    with pytest.raises(DataError):
        StftConfig(window_size=64, hop_size=0)
    with pytest.raises(DataError):
        StftConfig(window_size=64, hop_size=65)


def test_unknown_window_rejected():
    with pytest.raises(DataError, match="window = 'kaiser': expected"):
        StftConfig(window_size=64, hop_size=16, window="kaiser")


def test_sqrt_hann_window_values():
    w = make_window("sqrt_hann", 8)
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(8) / 8)
    np.testing.assert_allclose(w * w, hann, atol=1e-15)


# ------------------------------------------------------------------- masks

def test_check_ratio_mask_tolerates_roundoff():
    vals = np.array([[0.0, 1.0], [-5e-10, 1.0 + 5e-10]])
    clipped = check_ratio_mask(MaskGrid(values=vals))
    assert clipped.min() == 0.0 and clipped.max() == 1.0


def test_check_ratio_mask_rejects_out_of_range():
    with pytest.raises(DataError, match="out of"):
        check_ratio_mask(MaskGrid(values=np.array([[1.5]])))


@pytest.mark.parametrize("use", [
    lambda mask: estimate_covariances(
        [Spectrogram(bins=np.zeros((5, 0), complex), config=StftConfig(8, 2),
                     sample_rate=16000)] * 2, mask),
    lambda mask: fuse_channels([mask, mask]),
    lambda mask: combine_masks(mask, mask, CombineMode.AVG),
    logit_mask,
], ids=["estimate_covariances", "fuse_channels", "combine_masks", "logit_mask"])
def test_zero_frame_ratio_mask_is_data_error(use):
    with pytest.raises(DataError, match=r"ratio mask has no values, shape \(5, 0\)"):
        use(MaskGrid(values=np.zeros((5, 0))))


def test_mask_rejects_non_finite():
    with pytest.raises(DataError, match="non-finite"):
        MaskGrid(values=np.array([[np.nan]]))


def test_logit_sigmoid_inverse():
    gen = np.random.default_rng(0)
    vals = gen.uniform(MASK_EPS, 1.0 - MASK_EPS, size=(5, 7))
    back = expit(logit_mask(MaskGrid(values=vals)))
    np.testing.assert_allclose(back, vals, atol=1e-12)


def test_logit_clamps_extremes():
    grid = MaskGrid(values=np.array([[0.0, 1.0]]))
    lo, hi = logit_mask(grid)[0]
    assert lo == pytest.approx(np.log(MASK_EPS / (1.0 - MASK_EPS)))
    assert hi == pytest.approx(-lo, rel=1e-12)


def test_apply_mask_scales_bins(small_cfg):
    spec = stft(make_noise(200), small_cfg)
    half = MaskGrid(values=np.full(spec.bins.shape, 0.5))
    out = apply_mask(half, spec)
    np.testing.assert_allclose(out.bins, 0.5 * spec.bins)


def test_apply_mask_shape_mismatch(small_cfg):
    spec = stft(make_noise(200), small_cfg)
    with pytest.raises(DataError, match="does not match"):
        apply_mask(MaskGrid(values=np.zeros((3, 3))), spec)


# ---------------------------------------------------------------- features

def test_log_features_self_normalize(small_cfg):
    spec = stft(make_noise(2000, seed=4), small_cfg)
    stats = FeatureStats.from_spectrograms([spec])
    feats = to_log_features(spec, stats)
    np.testing.assert_allclose(feats.mean(axis=1), 0.0, atol=1e-9)
    assert np.all(feats.std(axis=1) < 1.5)


def test_feature_stats_floor():
    stats = FeatureStats(mean=np.zeros(4), std=np.zeros(4))
    assert np.all(stats.std >= 1e-3)


def test_log_features_length_mismatch(small_cfg):
    spec = stft(make_noise(200), small_cfg)
    stats = FeatureStats(mean=np.zeros(3), std=np.ones(3))
    with pytest.raises(DataError, match="does not match"):
        to_log_features(spec, stats)


# --------------------------------------------------------------------- wav

def test_wav_float32_round_trip(tmp_path):
    wave = make_noise(500, seed=5)
    path = tmp_path / "x.wav"
    write_wav(path, wave)
    back = read_wav(path)
    assert back.n_channels == 1
    assert back.sample_rate == wave.sample_rate
    np.testing.assert_allclose(back.channel(0).samples, wave.samples, atol=1e-7)


def _write_pcm16(path, rows, sample_rate):
    """write_wav writes float32 only; read_wav's int16 path reads this."""
    samples = np.clip(np.asarray(rows).T, -1.0, 1.0) * 32767.0
    wavfile.write(path, sample_rate, samples.astype(np.int16))


def test_wav_pcm16_round_trip(tmp_path):
    wave = make_tone(440.0, duration=0.02)
    path = tmp_path / "t.wav"
    _write_pcm16(path, wave.samples, wave.sample_rate)
    back = read_wav(path)
    np.testing.assert_allclose(back.channel(0).samples, wave.samples,
                               atol=1.5 / 32768.0)


def test_wav_multichannel_round_trip(tmp_path, two_channel_render):
    mix = two_channel_render.mixture
    path = tmp_path / "m.wav"
    write_wav(path, mix)
    back = read_wav(path)
    assert back.n_channels == 2
    np.testing.assert_allclose(back.as_array(), mix.as_array(), atol=1e-7)


def test_channel_index_out_of_range():
    mix = MultichannelWaveform.from_array(np.ones((2, 8)), 16000)
    assert mix.channel(1) is mix.channels[1]
    for index in (2, -1):
        with pytest.raises(DataError, match="out of range"):
            mix.channel(index)


def test_wav_missing_file():
    with pytest.raises(FileNotFoundError):
        read_wav("/nonexistent/file.wav")


@pytest.mark.parametrize("encoding", ["pcm16", "float32"])
def test_wav_cut_at_every_length(tmp_path, encoding):
    full = MultichannelWaveform.from_array(
        np.random.default_rng(3).uniform(-0.5, 0.5, size=(2, 24)), 8000
    )
    path = tmp_path / "full.wav"
    if encoding == "pcm16":
        _write_pcm16(path, full.as_array(), full.sample_rate)
    else:
        write_wav(path, full)
    expected = read_wav(path).as_array()
    blob = path.read_bytes()
    data_start = blob.index(b"data")
    cut_path = tmp_path / "cut.wav"
    for cut in range(len(blob)):
        cut_path.write_bytes(blob[:cut])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if cut >= data_start:
                with pytest.raises(DataError):
                    read_wav(cut_path)
                continue
            try:
                back = read_wav(cut_path)
            except DataError:
                continue
        assert isinstance(back, MultichannelWaveform)
        assert back.n_channels == 2 and back.sample_rate == 8000
        np.testing.assert_array_equal(
            back.as_array(), expected[:, :back.n_samples]
        )


def test_wav_unknown_trailing_chunk_only_warns(tmp_path):
    path = tmp_path / "x.wav"
    _write_pcm16(path, make_noise(40).samples, 16000)
    blob = bytearray(path.read_bytes())
    blob += b"abcd" + (2).to_bytes(4, "little") + b"zz"
    blob[4:8] = (len(blob) - 8).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.warns(UserWarning, match="not understood"):
        back = read_wav(path)
    assert back.n_samples == 40


def test_wav_without_format_chunk_is_data_error_without_warning(tmp_path):
    path = tmp_path / "no_fmt.wav"
    path.write_bytes(b"RIFF\x10\0\0\0WAVEjunkjunkjunk")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DataError, match=r"no format \('fmt '\) chunk"):
            read_wav(path)
    assert caught == []


# -------------------------------------------------------------- mask files

def test_mask_file_round_trip(tmp_path):
    gen = np.random.default_rng(8)
    vals = gen.uniform(0.0, 1.0, size=(33, 17)).astype(np.float32)
    grid = MaskGrid(values=vals.astype(np.float64))
    path = tmp_path / "m.mask"
    save_mask(grid, path, config_digest="abc123")
    back = load_mask(path)
    # float32 payload: values that are exactly representable survive bitwise
    np.testing.assert_array_equal(back.values.astype(np.float32), vals)
    assert b"\nconfig abc123\n" in path.read_bytes()


def test_mask_file_truncated(tmp_path):
    path = tmp_path / "m.mask"
    save_mask(MaskGrid(values=np.zeros((4, 4))), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(DataError, match="payload"):
        load_mask(path)


SMALL_MASK_BYTES = 56     # 32-byte header plus six float32 values


@pytest.mark.parametrize("cut", range(SMALL_MASK_BYTES))
def test_mask_file_cut_at_every_length(tmp_path, cut):
    path = tmp_path / "cut.mask"
    save_mask(MaskGrid(values=np.full((2, 3), 0.25)), path, config_digest="d1")
    blob = path.read_bytes()
    assert len(blob) == SMALL_MASK_BYTES
    path.write_bytes(blob[:cut])
    with pytest.raises(DataError):
        load_mask(path)


def test_mask_file_negative_shape(tmp_path):
    path = tmp_path / "neg.mask"
    path.write_bytes(b"ASMASK1\nshape -1 -1\nconfig -\nend\n" + b"\x00" * 4)
    with pytest.raises(DataError, match="malformed"):
        load_mask(path)


def test_mask_file_wrong_magic(tmp_path):
    path = tmp_path / "m.mask"
    path.write_bytes(b"NOTAMASK" + b"\x00" * 32)
    with pytest.raises(DataError, match="not a mask file"):
        load_mask(path)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2 ** 31 - 1),
)
def test_mask_file_round_trip_property(n_freq, n_frames, seed):
    gen = np.random.default_rng(seed)
    vals = gen.uniform(0.0, 1.0, size=(n_freq, n_frames)).astype(np.float32)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.mask")
        save_mask(MaskGrid(values=vals.astype(np.float64)), path)
        back = load_mask(path)
    np.testing.assert_array_equal(back.values.astype(np.float32), vals)


# ------------------------------------------------------------- dataclasses

def test_waveform_validation():
    with pytest.raises(DataError):
        Waveform(samples=np.zeros((2, 2)), sample_rate=16000)
    with pytest.raises(DataError):
        Waveform(samples=np.zeros(4), sample_rate=0)


def test_spectrogram_freq_axis_checked(small_cfg):
    with pytest.raises(DataError, match="inconsistent"):
        Spectrogram(bins=np.zeros((5, 4), dtype=complex), config=small_cfg,
                    sample_rate=16000)


@pytest.mark.parametrize("bins, shape", [(1.0, "()"), (np.zeros(33), "(33,)")])
def test_spectrogram_reports_the_given_shape(small_cfg, bins, shape):
    with pytest.raises(DataError, match=re.escape(f"2-D, got shape {shape}")):
        Spectrogram(bins=bins, config=small_cfg, sample_rate=16000)


def test_hand_built_non_finite_spectrogram_is_data_error(small_cfg):
    bins = np.zeros((small_cfg.n_freq, 4), dtype=complex)
    bins[3, 1] = np.inf
    with pytest.raises(DataError, match="non-finite bins"):
        Spectrogram(bins=bins, config=small_cfg, sample_rate=16000)


@pytest.mark.parametrize("layout", ["fortran", "strided"])
def test_spectrogram_stores_c_contiguous_bins(small_cfg, layout):
    gen = np.random.default_rng(4)
    shape = (small_cfg.n_freq, 14)
    bins = gen.normal(size=shape) + 1j * gen.normal(size=shape)
    given = np.asfortranarray(bins) if layout == "fortran" else bins[:, ::2]
    assert not given.flags.c_contiguous
    spec = Spectrogram(bins=given, config=small_cfg, sample_rate=16000)
    assert spec.bins.flags.c_contiguous
    np.testing.assert_array_equal(spec.bins, given)


def test_em_fits_a_fortran_order_channel_as_its_c_order_copy(two_channel_render, small_cfg):
    mixture = two_channel_render.mixture
    specs = [stft(mixture.channel(c), small_cfg) for c in range(2)]
    fortran = Spectrogram(bins=np.asfortranarray(specs[1].bins), config=small_cfg,
                          sample_rate=mixture.sample_rate)
    cfg = MesslConfig(n_iterations=4)
    got = run_em([specs[0], fortran], cfg)
    assert pickle.dumps(got) == pickle.dumps(run_em(specs, cfg))


# ------------------------------------------------------------ channel lists

@pytest.mark.parametrize("frames", [(4, 5), (5, 5, 4)])
@pytest.mark.parametrize("entry", ["run_em", "estimate_covariances", "beamform"])
def test_unequal_channel_shapes_rejected(tiny_cfg, entry, frames):
    specs = [
        Spectrogram(bins=np.ones((tiny_cfg.n_freq, n), dtype=complex),
                    config=tiny_cfg, sample_rate=16000)
        for n in frames
    ]
    selector = np.zeros((tiny_cfg.n_freq, len(specs)), dtype=complex)
    selector[:, 0] = 1.0
    calls = {
        "run_em": lambda: run_em(specs, MesslConfig()),
        "estimate_covariances": lambda: estimate_covariances(
            specs, MaskGrid(np.ones(specs[0].bins.shape))
        ),
        "beamform": lambda: beamform(specs, BeamformerWeights(
            weights=selector, steering=selector,
            passthrough=np.ones(tiny_cfg.n_freq, dtype=bool), reference_channel=0,
        )),
    }
    with pytest.raises(DataError, match="share shape"):
        calls[entry]()
