"""Arrays entering the library: one converter, one error.

Every container field that holds an array (Waveform samples, Spectrogram
bins, MaskGrid values, FeatureStats vectors, MesslConfig's delay grid) and
every array or number argument of fractional_delay, speechlike_signal and
enhancer.forward is converted once, by util._array or a number converter.
So any value at all, of the wrong rank, empty, NaN or infinite, complex,
text, objects or a ragged list, either builds or returns, or raises a
library error (DataError, NumericalError, OSError), and never warns: a
complex array is rejected, not cut to its real part.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from arraysep import (
    EnhancerConfig,
    FeatureStats,
    MaskGrid,
    MesslConfig,
    MultichannelWaveform,
    Spectrogram,
    StftConfig,
    Waveform,
    forward,
    fractional_delay,
    init_model,
    speechlike_signal,
)
from arraysep.errors import DataError, NumericalError

N_FREQ = 3
MODEL = init_model(EnhancerConfig(layer_sizes=(2,)), N_FREQ,
                   FeatureStats(np.zeros(N_FREQ), np.ones(N_FREQ)))
STFT = StftConfig(4, 2)           # N_FREQ bins
SIGNAL = np.linspace(-0.5, 0.5, 6)

# Each call takes the one value under test; its other arguments are valid.
CALLS = {
    "Waveform.samples": lambda v: Waveform(v, 16000),
    "Waveform.sample_rate": lambda v: Waveform(SIGNAL, v),
    "MultichannelWaveform.from_array": lambda v: MultichannelWaveform.from_array(v, 16000),
    "Spectrogram.bins": lambda v: Spectrogram(bins=v, config=STFT, sample_rate=16000),
    "MaskGrid.values": lambda v: MaskGrid(values=v),
    "FeatureStats.mean": lambda v: FeatureStats(mean=v, std=np.ones(3)),
    "FeatureStats.std": lambda v: FeatureStats(mean=np.zeros(3), std=v),
    "MesslConfig.delay_grid": lambda v: MesslConfig(delay_grid=v),
    "fractional_delay.x": lambda v: fractional_delay(v, 0.5),
    "fractional_delay.delay": lambda v: fractional_delay(SIGNAL, v),
    "speechlike_signal.duration": lambda v: speechlike_signal(v, 8, np.random.default_rng(0)),
    "speechlike_signal.sample_rate": lambda v: speechlike_signal(2, v, np.random.default_rng(0)),
    "forward.inputs": lambda v: forward(MODEL, v),
}

# Arrays of up to three axes of up to four entries, so that some of every
# rank and size match what their call expects and build.
ARRAYS = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
    elements=st.sampled_from([0.0, 0.25, -1.0, 2.0, np.nan, np.inf, -np.inf]))
# Small numbers only: speechlike_signal allocates duration * sample_rate samples.
SCALARS = st.sampled_from(
    [0, 1, 2, -1, 0.5, 1e-9, np.nan, np.inf, -np.inf, 1 + 2j, "abc", "2", None, True])
MALFORMED = st.one_of(
    ARRAYS,
    ARRAYS.map(lambda a: a + 1j),
    ARRAYS.map(lambda a: a.astype(np.float32)),
    ARRAYS.map(lambda a: a.astype(object)),
    ARRAYS.map(lambda a: a.astype(str)),
    ARRAYS.map(np.ndarray.tolist),
    SCALARS,
    st.sampled_from([[[0.0, 1.0], [2.0]], [0.0, [1.0]], [["a"]], [0.0, None]]),
)


# Derandomized: every run draws the same values, so a failure found by one
# draw comes back on the next run.
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@example("Waveform.samples", np.array([1 + 2j, 3]))
@example("Waveform.samples", "abc")
@example("MaskGrid.values", [["a"]])
@example("MaskGrid.values", np.ones((3, 2)) + 1j)
@example("FeatureStats.mean", np.zeros(3) + 1j)
@example("MultichannelWaveform.from_array", np.ones((2, 6)) + 1j)
@example("Spectrogram.bins", [["a", "b"]] * N_FREQ)
@example("forward.inputs", np.ones((4, 2 * N_FREQ)) + 1j)
@example("fractional_delay.delay", np.nan)
@example("fractional_delay.delay", np.inf)
@example("fractional_delay.x", np.zeros((2, 3)))
@example("speechlike_signal.sample_rate", 0)
@given(st.sampled_from(sorted(CALLS)), MALFORMED)
def test_any_array_builds_or_raises_a_library_error(name, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            CALLS[name](value)
        except (DataError, NumericalError, OSError):
            pass


@pytest.mark.parametrize("name, value, field, condition", [
    ("Waveform.samples", np.array([1 + 2j, 3]), "samples",
     "expected float64 values, got complex128"),
    ("Waveform.samples", "abc", "samples", "expected float64 values, got <U3"),
    ("MaskGrid.values", [["a"]], "values", "expected float64 values, got <U1"),
    ("Spectrogram.bins", [["a"]], "bins", "expected complex128 values, got <U1"),
    ("MultichannelWaveform.from_array", [[0.0, 1.0], [2.0]], "samples", "inhomogeneous"),
    ("forward.inputs", np.ones((1, 2)) + 1j, "inputs", "got complex128"),
    ("MesslConfig.delay_grid", np.ones((2, 2)), "delay_grid", "expected 1-D, got shape (2, 2)"),
    ("fractional_delay.x", np.zeros((2, 3)), "x", "expected 1-D, got shape (2, 3)"),
    ("fractional_delay.delay", np.nan, "delay", "expected a finite number"),
    ("fractional_delay.delay", np.inf, "delay", "expected a finite number"),
    ("speechlike_signal.duration", -1, "duration", "expected a positive finite number"),
    ("speechlike_signal.sample_rate", 0, "sample_rate", "must be at least 1"),
])
def test_a_rejected_value_names_its_field(name, value, field, condition):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError) as caught:
            CALLS[name](value)
    message = str(caught.value)
    assert message.startswith(f"{field} = {value!r}: ") and condition in message


def test_an_array_of_the_field_type_is_kept_as_is():
    samples = np.linspace(-1.0, 1.0, 8)
    values = np.ones((N_FREQ, 4))
    bins = values + 1j
    assert Waveform(samples, 16000).samples is samples
    assert MaskGrid(values=values).values is values
    assert Spectrogram(bins=bins, config=STFT, sample_rate=16000).bins is bins
