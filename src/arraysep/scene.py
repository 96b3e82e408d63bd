"""Synthetic multichannel scenes with exact speech/noise decompositions.

Each source is placed by per-channel fractional delays (windowed-sinc
interpolation) and gains over an anechoic direct path; diffuse noise is
independent white Gaussian per channel. The identity

    mixture = sum of source images + noise image

holds samplewise by construction, which gives downstream stages usable
ground truth for oracle masks and scoring references.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import yaml

from .errors import DataError
from .signal import (
    MultichannelWaveform,
    StftConfig,
    Waveform,
    read_wav,
    stft,
    write_wav,
)
from .targets import TargetContext, TargetKind, compute_target
from .util import (
    _array,
    _at_least,
    _checked,
    _expect,
    _fields,
    _finite,
    _float_pair,
    _given,
    _located,
    _mapping,
    _nonnegative,
    _number_or_range,
    _one_of,
    _optional,
    _positive,
    _seed,
    _string,
    _tuple_of,
    _value,
    load_config,
)

DELAY_TAPS = 32
DELAY_KAISER_BETA = 8.6
_KAISER_NORM = np.i0(DELAY_KAISER_BETA)
MANIFEST_NAME = "manifest.yaml"
# speechlike_signal: fundamental range (Hz), share of silence, level of the
# colored noise bursts against the voiced part, and RMS over active samples.
SPEECH_F0_RANGE = (110.0, 220.0)
SPEECH_PAUSE_FRACTION = 0.15
SPEECH_NOISE_LEVEL = 0.12
SPEECH_RMS = 0.15
# random_scene_spec: non-anchor channel gains are 1 +- up to this.
GAIN_JITTER = 0.1
# _one_pole: samples per chunk, and the warm-up each chunk runs from zero
# before its first sample. Its output is exact whatever their values.
_POLE_CHUNK = 128
_POLE_WARMUP = 48


@dataclass(frozen=True)
class SourceSpec:
    """One source signal and its per-channel placement."""

    signal: Waveform
    delays: tuple
    gains: tuple

    _converters = dict(
        signal=_expect(Waveform, "a Waveform"),
        delays=_tuple_of(_finite), gains=_tuple_of(_positive),
    )

    def __post_init__(self):
        _fields(self, **self._converters)
        if not len(self.signal):
            raise DataError("source signal has no samples")
        if len(self.delays) != len(self.gains):
            raise DataError("delays and gains must have one entry per channel")


def _sources(value) -> tuple:
    """A nonempty list of SourceSpecs, as a tuple."""
    sources = _tuple_of(_expect(SourceSpec, "a SourceSpec"))(value)
    if not sources:
        raise ValueError("scene needs at least one source")
    return sources


@dataclass(frozen=True)
class SceneSpec:
    """Full description of a synthetic capture; deterministic given seed."""

    sources: tuple
    n_channels: int
    sample_rate: int
    diffuse_noise_level: float = 0.0
    seed: int = 0

    # sources first: its error is the one a scene without sources reports.
    _converters = dict(
        sources=_sources, n_channels=_at_least(2), sample_rate=_at_least(1),
        diffuse_noise_level=_nonnegative, seed=_seed,
    )

    def __post_init__(self):
        _fields(self, **self._converters)
        for src in self.sources:
            if len(src.delays) != self.n_channels:
                raise DataError(
                    f"source has {len(src.delays)} channel placements, "
                    f"scene has {self.n_channels} channels"
                )
            if src.signal.sample_rate != self.sample_rate:
                raise DataError("source sample rate does not match scene")


@dataclass
class SceneRender:
    """Rendered mixture plus the exact per-source and noise images."""

    mixture: MultichannelWaveform
    per_source_images: tuple
    noise_image: MultichannelWaveform

    @property
    def sample_rate(self) -> int:
        return self.mixture.sample_rate


def _delay_parts(delays) -> list:
    """(whole-sample shift, kernel) per delay; None for no fractional part.

    The Kaiser-windowed sinc kernels of DELAY_TAPS taps for all fractional
    parts are designed in one pass. Each part lies in (0, 1], so every tap
    sits inside the window.
    """
    shifts = np.floor(delays)
    fracs = delays - shifts
    half = DELAY_TAPS // 2
    arg = np.arange(-half + 1, half + 1) - fracs[fracs > 0.0][:, None]
    taper = np.sqrt(1.0 - (arg / half) ** 2)
    window = np.i0(DELAY_KAISER_BETA * taper) / _KAISER_NORM
    kernels = iter(np.sinc(arg) * window)
    return [(int(shift), next(kernels) if frac > 0.0 else None)
            for shift, frac in zip(shifts, fracs)]


def _delayed(x: np.ndarray, shift: int, kernel) -> np.ndarray:
    """x filtered by kernel (None for none), then shifted by whole samples."""
    n = x.shape[0]
    out = np.zeros(n)
    if abs(shift) >= n:
        return out
    if kernel is not None:
        half = DELAY_TAPS // 2
        x = np.convolve(x, kernel)[half - 1:half - 1 + n]
    if shift >= 0:
        out[shift:] = x[:n - shift] if shift else x
    else:
        out[:n + shift] = x[-shift:]
    return out


def fractional_delay(x: np.ndarray, delay: float) -> np.ndarray:
    """Delay a signal by a possibly fractional number of samples.

    Integer delays are exact shifts. Fractional parts are interpolated with
    a Kaiser-windowed sinc kernel of DELAY_TAPS taps, so the result is
    accurate for signals whose energy sits below roughly 0.6 of Nyquist.
    Output has the same length as the input, zero-filled at the exposed end;
    a delay of the whole length or more, either way, gives all zeros.
    """
    x = _checked("x", x, _array(1))
    [(shift, kernel)] = _delay_parts([_checked("delay", delay, _finite)])
    return _delayed(x, shift, kernel)


def render_scene(spec: SceneSpec) -> SceneRender:
    """Render a scene into mixture, source images, and the noise image."""
    n = max(len(src.signal) for src in spec.sources)
    rate = spec.sample_rate
    images = []
    for src in spec.sources:
        padded = np.zeros(n)
        padded[:len(src.signal)] = src.signal.samples
        rows = np.stack(
            [
                gain * _delayed(padded, shift, kernel)
                for (shift, kernel), gain in zip(_delay_parts(src.delays), src.gains)
            ]
        )
        images.append(MultichannelWaveform.from_array(rows, rate))
    rng = np.random.default_rng(spec.seed)
    noise_rows = spec.diffuse_noise_level * rng.standard_normal((spec.n_channels, n))
    noise = MultichannelWaveform.from_array(noise_rows, rate)
    mix_rows = noise_rows + np.sum([img.as_array() for img in images], axis=0)
    return SceneRender(
        mixture=MultichannelWaveform.from_array(mix_rows, rate),
        per_source_images=tuple(images),
        noise_image=noise,
    )


def ideal_masks(render: SceneRender, cfg: StftConfig) -> list:
    """Per-channel oracle targets for the first (target) source.

    Returns one dict per channel mapping TargetKind to its grid, computed
    from the exact source image and the mixture at that channel.
    """
    target = render.per_source_images[0]
    out = []
    for c in range(render.mixture.n_channels):
        clean = stft(target.channel(c), cfg)
        noisy = stft(render.mixture.channel(c), cfg)
        ctx = TargetContext.from_spectrograms(clean, noisy)
        out.append({kind: compute_target(ctx, kind) for kind in TargetKind})
    return out


def _run_pole(drive: np.ndarray, state: np.ndarray, alpha: float) -> np.ndarray:
    """Rows y[t] = alpha * y[t-1] + drive[t] from y[-1] = state, per column."""
    out = np.empty_like(drive)
    for row, d in zip(out, drive):
        np.multiply(state, alpha, out=row)
        np.add(row, d, out=row)
        state = row
    return out


def _one_pole(drive: np.ndarray, alpha: float) -> np.ndarray:
    """y[t] = alpha * y[t-1] + drive[t] from y[-1] = 0, bit for bit.

    Each step rounds as a scalar loop does: one multiply, then one add.
    Chunks of _POLE_CHUNK samples run side by side, each from state 0 at
    _POLE_WARMUP samples before its first one (chunk 0's warm-up input is
    zero, so it starts exactly). The step is deterministic, so a chunk is
    exact once its state at the end of its warm-up has the bits of the
    previous chunk's last output. A chunk without that runs again from that
    output, until none changes; each pass makes at least one more chunk
    exact.
    """
    n = drive.shape[0]
    chunks = -(-n // _POLE_CHUNK)
    # Time-major: column j holds chunk j's warm-up and then its samples.
    rows = np.zeros((_POLE_WARMUP + _POLE_CHUNK, chunks))
    rows[_POLE_WARMUP:].T.flat[:n] = drive
    rows[:_POLE_WARMUP, 1:] = rows[_POLE_CHUNK:, :-1]
    y = _run_pole(rows, np.zeros(chunks), alpha)
    start, body = y[_POLE_WARMUP - 1], y[_POLE_WARMUP:]
    while True:
        last = body[-1]
        stale = np.flatnonzero(
            start[1:].view(np.int64) != last[:-1].view(np.int64)) + 1
        if not stale.size:
            return body.T.reshape(-1)[:n]
        start[stale] = last[stale - 1]
        body[:, stale] = _run_pole(rows[_POLE_WARMUP:, stale], start[stale], alpha)


def speechlike_signal(
    duration: float, sample_rate: int, rng: np.random.Generator
) -> Waveform:
    """Amplitude-modulated harmonic tones plus colored noise bursts.

    The signal alternates voiced stretches and true silences (for noise
    floor estimation), keeps its energy below about 0.55 of Nyquist so
    fractional delays stay accurate, and is deterministic given the rng.
    """
    duration = _checked("duration", duration, _positive)
    sample_rate = _checked("sample_rate", sample_rate, _at_least(1))
    n = int(round(duration * sample_rate))
    if n <= 0:
        raise DataError(f"duration {duration} s is under one sample at {sample_rate} Hz")

    # Smooth fundamental contour from coarse random knots.
    knot_hop = max(1, int(0.2 * sample_rate))
    n_knots = n // knot_hop + 2
    knots = rng.uniform(SPEECH_F0_RANGE[0], SPEECH_F0_RANGE[1], size=n_knots)
    f0 = np.interp(np.arange(n), np.arange(n_knots) * knot_hop, knots)
    phase = np.cumsum(2.0 * np.pi * f0 / sample_rate)

    f_max = 0.55 * sample_rate / 2.0
    n_harm = max(1, int(f_max / SPEECH_F0_RANGE[1]))
    voiced = np.zeros(n)
    term = np.empty(n)
    for h in range(1, n_harm + 1):
        amp = rng.uniform(0.5, 1.0) / h
        np.multiply(h, phase, out=term)
        term += rng.uniform(0.0, 2.0 * np.pi)
        np.sin(term, out=term)
        term *= amp
        voiced += term

    # Syllabic on/off envelope with raised-cosine edges and hard pauses.
    envelope = np.zeros(n)
    edge = max(1, int(0.02 * sample_rate))
    ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(edge) / edge)
    pause = SPEECH_PAUSE_FRACTION
    pos = int(rng.uniform(0.4, 1.0) * pause * 0.5 * n)
    while pos < n:
        on = int(rng.uniform(0.12, 0.3) * sample_rate)
        off = int(rng.uniform(0.3, 1.0) * on * pause / (1.0 - pause) * 2.0)
        hi = min(n, pos + on)
        envelope[pos:hi] = 1.0
        if hi - pos > 2 * edge:
            envelope[pos:pos + edge] = ramp
            envelope[hi - edge:hi] = ramp[::-1]
        pos = hi + max(edge, off)
    tail = max(1, int(pause * 0.25 * n))
    envelope[-tail:] = 0.0
    if not envelope.any():
        envelope[: max(2 * edge, n // 2)] = 1.0

    sig = voiced * envelope

    # One-pole lowpassed noise gated by short bursts inside voiced spans.
    white = rng.standard_normal(n)
    alpha = float(np.exp(-2.0 * np.pi * 3500.0 / sample_rate))
    b = float(np.sqrt(1.0 - alpha * alpha))
    sig += SPEECH_NOISE_LEVEL * _one_pole(b * white, alpha) * envelope

    active = sig[envelope > 0.5]
    level = np.sqrt(np.mean(active ** 2)) if active.size else 1.0
    scale = SPEECH_RMS / max(level, 1e-12)
    sig = np.clip(sig * scale, -0.99, 0.99)
    return Waveform(samples=sig, sample_rate=sample_rate)


def random_scene_spec(
    rng: np.random.Generator,
    n_channels: int = 2,
    duration: float = 2.0,
    sample_rate: int = 16000,
    snr_db: float = 10.0,
    target_delay_range: tuple = (-4.0, 4.0),
    n_interferers: int = 0,
    interferer_delay_range: tuple = (-6.0, 6.0),
) -> SceneSpec:
    """Draw a random scene: target source, optional interferers, diffuse noise.

    The first channel of every source is the undelayed unit-gain anchor;
    remaining channels get random delays and mild gain jitter. snr_db sets
    the diffuse noise level relative to the target signal power.
    """
    if n_interferers < 0:
        raise DataError(f"n_interferers must not be negative, got {n_interferers}")

    def placement(delay_range):
        delays = [0.0] + [rng.uniform(*delay_range) for _ in range(n_channels - 1)]
        gains = [1.0] + [
            1.0 + GAIN_JITTER * rng.uniform(-1.0, 1.0) for _ in range(n_channels - 1)
        ]
        return tuple(delays), tuple(gains)

    sources = []
    target_signal = speechlike_signal(duration, sample_rate, rng)
    delays, gains = placement(target_delay_range)
    sources.append(SourceSpec(signal=target_signal, delays=delays, gains=gains))
    for _ in range(n_interferers):
        sig = speechlike_signal(duration, sample_rate, rng)
        delays, gains = placement(interferer_delay_range)
        sources.append(SourceSpec(signal=sig, delays=delays, gains=gains))

    noise_level = target_signal.rms() * 10.0 ** (-snr_db / 20.0)
    return SceneSpec(
        sources=tuple(sources),
        n_channels=n_channels,
        sample_rate=sample_rate,
        diffuse_noise_level=float(noise_level),
        seed=int(rng.integers(0, 2 ** 31 - 1)),
    )


def _source_from_dict(entry: dict, sample_rate: int, seed: int) -> SourceSpec:
    kind = _value(entry, "kind", _one_of("speechlike", "wav"), "speechlike")
    if kind == "speechlike":
        signal = speechlike_signal(
            duration=_value(entry, "duration", float, 2.0),
            sample_rate=sample_rate,
            rng=np.random.default_rng(seed),
        )
    else:
        signal = read_wav(_value(entry, "path", _string)).channel(0)
    level = _value(entry, "level", _optional(_positive), None)
    if level is not None:
        current = signal.rms()
        if current > 0:
            signal = Waveform(
                samples=signal.samples * level / current,
                sample_rate=signal.sample_rate,
            )
    convert = SourceSpec._converters
    delays = _value(entry, "delays", convert["delays"])
    return SourceSpec(
        signal=signal,
        delays=delays,
        gains=_value(entry, "gains", convert["gains"], [1.0] * len(delays)),
    )


def load_scene_specs(path) -> list:
    """Read scene specs from a YAML config.

    Two layouts are accepted: an explicit scene (keys sample_rate,
    n_channels, seed, diffuse_noise_level, sources) or a batch descriptor
    under a 'batch' key (n_scenes, seed, n_channels, sample_rate, duration,
    snr_db, n_interferers, delay_range) expanded through random_scene_spec.
    snr_db is a number or a [low, high] range drawn from per scene; keys
    left out take random_scene_spec's and SceneSpec's defaults. A missing
    or malformed value (n_scenes below 1, say) raises DataError naming it.
    """
    doc = load_config(path)
    convert = SceneSpec._converters
    if "batch" in doc:
        batch = _value(doc, "batch", _mapping)
        with _located("batch"):
            rng = np.random.default_rng(_value(batch, "seed", _seed, 0))
            layout = _given(
                batch, snr_db=_number_or_range, n_channels=convert["n_channels"],
                duration=float, sample_rate=convert["sample_rate"],
                target_delay_range=("delay_range", _float_pair),
                n_interferers=_at_least(0),
            )
            snr = layout.get("snr_db")
            specs = []
            for _ in range(_value(batch, "n_scenes", _at_least(1), 1)):
                if isinstance(snr, tuple):
                    layout["snr_db"] = rng.uniform(*snr)
                specs.append(random_scene_spec(rng, **layout))
        return specs
    rate = _value(doc, "sample_rate", convert["sample_rate"], 16000)
    seed = _value(doc, "seed", convert["seed"], 0)
    sources = []
    for i, entry in enumerate(_value(doc, "sources", _tuple_of(_mapping))):
        with _located(f"sources[{i}]"):
            sources.append(_source_from_dict(entry, rate, seed * 1000 + i))
    given = _given(doc, n_channels=convert["n_channels"],
                   diffuse_noise_level=convert["diffuse_noise_level"])
    # With no sources SceneSpec reports that, not the 0 channels.
    given.setdefault("n_channels", len(sources[0].delays) if sources else 0)
    return [SceneSpec(sources=tuple(sources), sample_rate=rate, seed=seed, **given)]


def save_render(render: SceneRender, directory, extras: dict | None = None) -> None:
    """Write a render as a WAV set plus a manifest naming each role."""
    os.makedirs(directory, exist_ok=True)
    manifest = {
        "sample_rate": render.sample_rate,
        "n_channels": render.mixture.n_channels,
        "mixture": "mixture.wav",
        "sources": [],
        "noise": "noise.wav",
    }
    write_wav(os.path.join(directory, "mixture.wav"), render.mixture)
    for i, image in enumerate(render.per_source_images):
        name = f"source_{i:02d}.wav"
        write_wav(os.path.join(directory, name), image)
        manifest["sources"].append(name)
    write_wav(os.path.join(directory, "noise.wav"), render.noise_image)
    if extras:
        manifest.update(extras)
    with open(os.path.join(directory, MANIFEST_NAME), "w") as handle:
        yaml.safe_dump(manifest, handle, sort_keys=False)


def load_render(directory) -> SceneRender:
    """Read back a render written by save_render. Errors name the manifest."""
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        raise DataError(f"no scene manifest at {manifest_path}")

    def read(name):
        return read_wav(os.path.join(directory, name))

    with _located(f"scene manifest {manifest_path}"):
        manifest = load_config(manifest_path)
        mixture = _value(manifest, "mixture", _string)
        sources = _value(manifest, "sources", _tuple_of(_string))
        if not sources:
            raise DataError("lists no sources")
        noise = _value(manifest, "noise", _string)
        return SceneRender(
            mixture=read(mixture),
            per_source_images=tuple(read(name) for name in sources),
            noise_image=read(noise),
        )
