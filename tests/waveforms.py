"""Plain test signals, imported by the test modules that need them.

They live outside conftest.py because a test run also collects
perfbench/tests, whose conftest module would shadow this directory's.
"""

import numpy as np

from arraysep import Waveform


def make_tone(freq_hz: float, duration: float = 0.25, sample_rate: int = 16000,
              amplitude: float = 0.5) -> Waveform:
    t = np.arange(int(duration * sample_rate)) / sample_rate
    return Waveform(samples=amplitude * np.sin(2.0 * np.pi * freq_hz * t),
                    sample_rate=sample_rate)


def make_noise(n: int, seed: int = 0, sample_rate: int = 16000,
               scale: float = 0.3) -> Waveform:
    gen = np.random.default_rng(seed)
    return Waveform(samples=scale * gen.standard_normal(n), sample_rate=sample_rate)
