"""How fast the host runs right now, from fixed reference computations.

On a shared host the same code can run 1.5 times slower for tens of
seconds at a time, and the host's speed drifts between runs made minutes
apart. A timing is therefore taken between two probes. Each probe times
two fixed computations that depend on nothing in the program, and the
timing is divided by the host's slowdown over those two probes. The scaled
figure reads as seconds on a host that runs the probe's parts in
``ARRAY_REF_S`` and ``LOOP_REF_S``. A change to the program moves the
timing and not the probes, so it moves the scaled figure by the same share.

Contention does not slow all code alike. Large-array numpy work (the
probe's ``array_kernel``: a framed real FFT and its inverse, complex
exponentials and phase wrapping over a delay grid, an einsum reduction)
slows least; a Python loop of small numpy calls (``loop_kernel``: the
steps of a 32-unit LSTM cell) slows most. The slowdown of an op is taken
as a mix of the two, weighted by the share of loop-bound work its
workload declares.
"""

from __future__ import annotations

import time

import numpy as np

# Calls of each kernel per probe, and the seconds each part of a probe
# takes at the reference speed: about the faster level of a 2-vCPU x86-64
# VM.
ARRAY_REPEATS = 4
LOOP_REPEATS = 48
ARRAY_REF_S = 0.095
LOOP_REF_S = 0.033

_rng = np.random.default_rng(0x5EED)
_SIGNALS = _rng.standard_normal((4, 8000))
_GRID = np.linspace(-6.0, 6.0, 25)
_OMEGA = np.linspace(0.0, np.pi, 257)
_WINDOW = np.hanning(512)
_CELL_IN = _rng.standard_normal((40, 129))
_CELL_W = _rng.standard_normal((128, 129)) * 0.05
_CELL_U = _rng.standard_normal((128, 32)) * 0.05


def array_kernel() -> float:
    frames = np.lib.stride_tricks.sliding_window_view(_SIGNALS, 512, axis=1)[:, ::128]
    spec = np.fft.rfft(frames * _WINDOW, axis=-1)
    phase = np.angle(spec[0] * np.conj(spec[1])).T
    dev = np.angle(np.exp(1j * (phase[None] - np.outer(_GRID, _OMEGA)[:, :, None])))
    score = np.einsum("gft,ft->g", dev * dev, np.abs(spec[0]).T)
    back = np.fft.irfft(spec, axis=-1)
    return float(score.sum() + back.sum())


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def loop_kernel() -> float:
    zx = _CELL_IN @ _CELL_W.T
    h, c = np.zeros(32), np.zeros(32)
    for z_in in zx:
        z = z_in + h @ _CELL_U.T
        i, f, o = _sigmoid(z[:32]), _sigmoid(z[32:64]), _sigmoid(z[96:])
        c = f * c + i * np.tanh(z[64:96])
        h = o * np.tanh(c)
    return float(h.sum())


def probe() -> tuple:
    """Wall seconds of the probe's array part and of its loop part."""
    t0 = time.perf_counter()
    for _ in range(ARRAY_REPEATS):
        array_kernel()
    t1 = time.perf_counter()
    for _ in range(LOOP_REPEATS):
        loop_kernel()
    return t1 - t0, time.perf_counter() - t1


def slowdown(sample, loop_share: float) -> float:
    """The host's slowdown against the reference speed, from one probe, for
    work with ``loop_share`` of its time in loop-bound code."""
    array_s, loop_s = sample
    return (1.0 - loop_share) * array_s / ARRAY_REF_S + loop_share * loop_s / LOOP_REF_S


def scaled(seconds: float, before, after, loop_share: float) -> float:
    """``seconds`` timed between probes ``before`` and ``after``, at the
    reference speed."""
    return seconds / (0.5 * (slowdown(before, loop_share) + slowdown(after, loop_share)))


probe()  # first-call allocation and FFT planning stay out of every probe
