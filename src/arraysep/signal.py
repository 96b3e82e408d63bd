"""Waveform containers, STFT analysis/synthesis, and mask-domain transforms.

Analysis and synthesis both use the configured window; their product must
satisfy constant overlap-add (COLA) at the configured hop so that masked
resynthesis is free of frame-rate modulation. Inverse synthesis divides by
the accumulated analysis-synthesis window product, which makes the
unmodified round trip exact away from the signal edges.

Axis convention: spectrograms and masks are (n_freq, n_frames).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.io.wavfile

from .errors import DataError, NumericalError
from .util import _at_least, _fields, _located, _one_of, _optional

AMP_FLOOR = 1e-8      # linear magnitude floor before dB conversion
MASK_EPS = 1e-3       # clamp for ratio masks entering logit or log
STATS_FLOOR = 1e-3    # dB floor on per-frequency feature deviation
WINDOW_NAMES = ("sqrt_hann", "hann", "rect")

_COLA_RTOL = 1e-8
_NORM_FLOOR = 1e-12


@dataclass
class Waveform:
    """A single-channel signal with its sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise DataError(f"waveform must be 1-D, got shape {self.samples.shape}")
        if not np.all(np.isfinite(self.samples)):
            raise DataError("waveform contains non-finite samples")
        _fields(self, sample_rate=_at_least(1))

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def duration(self) -> float:
        return len(self) / self.sample_rate

    def rms(self) -> float:
        if len(self) == 0:
            return 0.0
        return float(np.sqrt(np.mean(self.samples ** 2)))


@dataclass
class MultichannelWaveform:
    """Time-aligned channels of one capture, equal length and rate."""

    channels: tuple

    def __post_init__(self):
        self.channels = tuple(self.channels)
        if not self.channels:
            raise DataError("need at least one channel")
        n = len(self.channels[0])
        rate = self.channels[0].sample_rate
        for ch in self.channels:
            if len(ch) != n or ch.sample_rate != rate:
                raise DataError("channels must share length and sample rate")

    @classmethod
    def from_array(cls, arr: np.ndarray, sample_rate: int) -> "MultichannelWaveform":
        """Build from a (n_channels, n_samples) array."""
        arr = np.atleast_2d(np.asarray(arr, dtype=np.float64))
        return cls(tuple(Waveform(row, sample_rate) for row in arr))

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    @property
    def n_samples(self) -> int:
        return len(self.channels[0])

    @property
    def sample_rate(self) -> int:
        return self.channels[0].sample_rate

    def channel(self, index: int) -> Waveform:
        if not 0 <= index < self.n_channels:
            raise DataError(f"channel {index} out of range for {self.n_channels}")
        return self.channels[index]

    def as_array(self) -> np.ndarray:
        return np.stack([ch.samples for ch in self.channels])


def make_window(name: str, size: int) -> np.ndarray:
    """Return a periodic window of the given size; StftConfig checks that
    ``name`` is one of WINDOW_NAMES and ``size`` is positive."""
    if name == "rect":
        return np.ones(size)
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(size) / size)
    return hann if name == "hann" else np.sqrt(hann)


def _overlap_add(frames: np.ndarray, hop: int) -> np.ndarray:
    """Sum hop-spaced frames, shape (n_frames, size), into one signal of
    size + (n_frames - 1) * hop samples."""
    n_frames, size = frames.shape
    n_blocks = -(-size // hop)
    blocks = np.zeros((n_frames, n_blocks * hop))
    blocks[:, :size] = frames
    blocks = blocks.reshape(n_frames, n_blocks, hop)
    out = np.zeros((n_frames + n_blocks - 1, hop))
    # Block b of frame t lands on output block t + b. Adding the blocks from
    # last to first adds each sample's terms in frame order, so the sums are
    # bit-identical to a frame-by-frame loop.
    for b in range(n_blocks - 1, -1, -1):
        out[b:b + n_frames] += blocks[:, b]
    return out.reshape(-1)[:size + (n_frames - 1) * hop]


def _check_cola(window: np.ndarray, hop: int) -> None:
    # The analysis-synthesis product (window squared here) must sum to a
    # constant across hops on the fully overlapped interior.
    size = window.shape[0]
    reps = 2 * size // hop + 2
    buf = _overlap_add(np.broadcast_to(window * window, (reps, size)), hop)
    seg = buf[size:size + hop]
    if seg.min() <= 0 or (seg.max() - seg.min()) > _COLA_RTOL * seg.mean():
        raise DataError(
            f"window does not satisfy COLA at hop {hop} (overlap-add sum varies)"
        )


@dataclass(frozen=True)
class StftConfig:
    """Frame size, hop (by default a quarter of the window), and window
    family for analysis and synthesis."""

    window_size: int = 1024
    hop_size: int | None = None
    window: str = "sqrt_hann"

    _converters = dict(
        window_size=_at_least(1), hop_size=_optional(_at_least(1)),
        window=_one_of(*WINDOW_NAMES),
    )

    def __post_init__(self):
        _fields(self, **self._converters)
        if self.hop_size is None:
            object.__setattr__(self, "hop_size", self.window_size // 4)
        if self.hop_size > self.window_size:
            raise DataError(
                f"hop_size must be at most window_size, got {self.hop_size}"
            )
        _check_cola(make_window(self.window, self.window_size), self.hop_size)

    @property
    def n_freq(self) -> int:
        return self.window_size // 2 + 1


@dataclass
class Spectrogram:
    """One-sided complex STFT, shape (n_freq, n_frames).

    The bins are stored as a C-contiguous complex128 array, copied only when
    the given array is not one already.
    """

    bins: np.ndarray
    config: StftConfig
    sample_rate: int

    def __post_init__(self):
        # Checked before the copy: ascontiguousarray makes a 0-d array 1-D.
        bins = np.asarray(self.bins, dtype=np.complex128)
        if bins.ndim != 2:
            raise DataError(f"spectrogram must be 2-D, got shape {bins.shape}")
        # C-contiguous (n_freq, n_frames) bins: every consumer reads them bin by
        # bin, and a transposed view would make each stack of channels strided.
        self.bins = np.ascontiguousarray(bins)
        if self.bins.shape[0] != self.config.n_freq:
            raise DataError(
                f"frequency axis {self.bins.shape[0]} inconsistent with window "
                f"size {self.config.window_size}"
            )
        if not np.all(np.isfinite(self.bins)):
            raise DataError("spectrogram contains non-finite bins")

    @property
    def n_freq(self) -> int:
        return self.bins.shape[0]

    @property
    def n_frames(self) -> int:
        return self.bins.shape[1]


def check_channels(specs) -> list:
    """The channel spectrograms of one capture as a list, checked to be
    nonempty and of one shape."""
    specs = list(specs)
    if not specs:
        raise DataError("need at least one channel")
    if any(s.bins.shape != specs[0].bins.shape for s in specs):
        raise DataError("channel spectrograms must share shape")
    return specs


@dataclass
class MaskGrid:
    """Real-valued time-frequency grid, shape (n_freq, n_frames)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DataError(f"mask must be 2-D, got shape {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise DataError("mask contains non-finite values")

    @property
    def shape(self) -> tuple:
        return self.values.shape


def check_ratio_mask(mask: MaskGrid) -> np.ndarray:
    """Validate a [0, 1] ratio mask, tolerating round-off overshoot."""
    v = mask.values
    if not v.size:
        raise DataError(f"ratio mask has no values, shape {v.shape}")
    if v.min() < -1e-9 or v.max() > 1.0 + 1e-9:
        raise DataError(
            f"ratio mask out of [0, 1]: min {v.min():.3g}, max {v.max():.3g}"
        )
    return np.clip(v, 0.0, 1.0)


@dataclass
class FeatureStats:
    """Per-frequency mean and deviation of dB-scale features."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        if self.mean.ndim != 1 or self.mean.shape != self.std.shape:
            raise DataError("stats must be matching 1-D vectors")
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.std))):
            raise DataError("stats contain non-finite values")
        # Deviation is floored so that normalization never divides by ~0.
        self.std = np.maximum(self.std, STATS_FLOOR)

    @classmethod
    def from_spectrograms(cls, specs) -> "FeatureStats":
        """Pool dB features of a training set into per-frequency stats."""
        specs = list(specs)
        if not specs:
            raise DataError("need at least one spectrogram for stats")
        feats = np.concatenate([_level_db(s) for s in specs], axis=1)
        return cls(mean=feats.mean(axis=1), std=feats.std(axis=1))


def stft(wave: Waveform, cfg: StftConfig) -> Spectrogram:
    """Analyze a waveform into a one-sided complex spectrogram.

    Frames are hop-spaced slices of length window_size; no padding is added,
    so a signal shorter than one window is an error and trailing samples
    that do not fill a frame are dropped. A bin that overflows float64
    raises NumericalError.
    """
    x = wave.samples
    size, hop = cfg.window_size, cfg.hop_size
    if len(x) < size:
        raise DataError(
            f"insufficient samples: {len(x)} < window size {size}"
        )
    window = make_window(cfg.window, size)
    frames = np.lib.stride_tricks.sliding_window_view(x, size)[::hop]
    # Samples near the float64 limit overflow the transform's sums.
    with np.errstate(over="ignore", invalid="ignore"):
        spectrum = np.fft.rfft(frames * window, axis=1)
    try:  # the shape is right, so Spectrogram can only reject non-finite bins
        return Spectrogram(bins=spectrum.T, config=cfg, sample_rate=wave.sample_rate)
    except DataError:
        raise NumericalError("spectrogram overflows float64: input level too high") from None


def istft(spec: Spectrogram) -> Waveform:
    """Weighted overlap-add synthesis, exact inverse on the interior.

    Output length is window_size + (n_frames - 1) * hop_size. Samples where
    the accumulated window product vanishes (the very signal edges) are
    left at zero.
    """
    cfg = spec.config
    size, hop = cfg.window_size, cfg.hop_size
    window = make_window(cfg.window, size)
    frames = np.fft.irfft(spec.bins.T, n=size, axis=1)
    out = _overlap_add(frames * window, hop)
    norm = _overlap_add(np.broadcast_to(window * window, frames.shape), hop)
    covered = norm > _NORM_FLOOR
    out[covered] /= norm[covered]
    out[~covered] = 0.0
    return Waveform(samples=out, sample_rate=spec.sample_rate)


def _level_db(spec: Spectrogram) -> np.ndarray:
    """Bin magnitudes in dB, floored at AMP_FLOOR."""
    return 20.0 * np.log10(np.maximum(np.abs(spec.bins), AMP_FLOOR))


def to_log_features(spec: Spectrogram, stats: FeatureStats) -> np.ndarray:
    """dB magnitudes normalized per frequency with the given stats."""
    if stats.mean.shape[0] != spec.n_freq:
        raise DataError(
            f"stats length {stats.mean.shape[0]} does not match {spec.n_freq} bins"
        )
    return (_level_db(spec) - stats.mean[:, None]) / stats.std[:, None]


def logit_mask(mask: MaskGrid) -> np.ndarray:
    """Log-odds of a ratio mask, clamped away from {0, 1}."""
    p = np.clip(check_ratio_mask(mask), MASK_EPS, 1.0 - MASK_EPS)
    return np.log(p / (1.0 - p))


def apply_mask(mask: MaskGrid, spec: Spectrogram) -> Spectrogram:
    """Pointwise product of a real mask with a complex spectrogram."""
    if mask.values.shape != spec.bins.shape:
        raise DataError(
            f"mask shape {mask.values.shape} does not match "
            f"spectrogram shape {spec.bins.shape}"
        )
    return Spectrogram(
        bins=mask.values * spec.bins, config=spec.config, sample_rate=spec.sample_rate
    )


def read_wav(path) -> MultichannelWaveform:
    """Read a RIFF/WAVE file (PCM16, PCM32, float32/64) as float64 channels.

    A file that ends before the length its header declares, as one cut
    inside its data chunk does, or that lacks its format or data chunk,
    raises DataError instead of reading short. scipy's warnings (a chunk
    it does not know and skips) are passed on only when the file reads.
    """
    wav_warning = scipy.io.wavfile.WavFileWarning
    with (warnings.catch_warnings(record=True) as caught,
          _located(f"cannot read WAV file {path}")):
        warnings.filterwarnings("error", "Reached EOF prematurely", wav_warning)
        try:
            rate, data = scipy.io.wavfile.read(path)
        except UnboundLocalError as exc:
            # scipy reads to the end of such a file, then returns its rate
            # (fs) or its samples (data) unset.
            missing = "data" if "'data'" in str(exc) else "format ('fmt ')"
            raise DataError(f"no {missing} chunk") from None
    for caught_warning in caught:
        warnings.warn(caught_warning.message, stacklevel=2)
    if data.dtype == np.int16:
        data = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        data = data.astype(np.float64) / 2147483648.0
    elif data.dtype in (np.float32, np.float64):
        data = data.astype(np.float64)
    else:
        raise DataError(f"unsupported WAV sample format {data.dtype}")
    if data.ndim == 1:
        data = data[:, None]
    return MultichannelWaveform.from_array(data.T, rate)


def write_wav(path, wave) -> None:
    """Write a Waveform or MultichannelWaveform as float32."""
    arr = wave.samples if isinstance(wave, Waveform) else wave.as_array().T
    scipy.io.wavfile.write(path, wave.sample_rate, arr.astype(np.float32))


MASK_MAGIC = b"ASMASK1"


def save_mask(mask: MaskGrid, path, config_digest: str = "-") -> None:
    """Write a mask as a text header plus flat little-endian float32 values."""
    n_freq, n_frames = mask.values.shape
    header = MASK_MAGIC + (
        f"\nshape {n_freq} {n_frames}\nconfig {config_digest}\nend\n"
    ).encode("ascii")
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(mask.values.astype("<f4").tobytes())


def load_mask(path) -> MaskGrid:
    """Read a mask written by save_mask."""
    with open(path, "rb") as handle:
        blob = handle.read()
    if not blob.startswith(MASK_MAGIC + b"\n"):
        raise DataError(f"{path} is not a mask file")
    with _located(f"malformed mask header in {path}"):
        head, payload = blob.split(b"end\n", 1)
        fields = dict(
            line.split(b" ", 1) for line in head.splitlines()[1:] if b" " in line
        )
        n_freq, n_frames = (int(v) for v in fields[b"shape"].split())
        if n_freq < 0 or n_frames < 0:
            raise DataError("negative mask shape")
    if len(payload) != 4 * n_freq * n_frames:
        raise DataError(
            f"mask payload has {len(payload)} bytes, header says "
            f"{n_freq}x{n_frames} float32 values"
        )
    values = np.frombuffer(payload, dtype="<f4")
    return MaskGrid(values=values.reshape(n_freq, n_frames).astype(np.float64))
