"""Arrays entering the library: one converter, one error.

Every container field that holds an array (Waveform samples, Spectrogram
bins, MaskGrid values, FeatureStats vectors, MesslConfig's delay grid) and
every array or number argument of fractional_delay, speechlike_signal,
binarize, mvdr_weights and enhancer.forward is converted once, by
util._array or a number converter. A function that takes a container or
a config (a spectrogram, mask, waveform, scene, covariance or weight
container, a list of channels, an EM or pipeline config, a target kind or
context, a random generator) checks its type the same way, so a bare
array or None is a DataError naming the argument. So any value at all,
of the wrong rank, empty, NaN or infinite, complex, text, objects or a
ragged list, either builds or returns, or raises a library error
(DataError, NumericalError, OSError), and never warns: a complex array
is rejected, not cut to its real part.
"""

import os
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
    PipelineConfig,
    Spectrogram,
    StftConfig,
    TargetContext,
    TargetKind,
    Waveform,
    apply_mask,
    beamform,
    binarize,
    bss_eval,
    build_batch,
    compute_target,
    enhance,
    estimate_covariances,
    evaluate_scene,
    forward,
    fractional_delay,
    fuse_channels,
    ideal_masks,
    init_model,
    istft,
    logit_mask,
    loss,
    mvdr_weights,
    random_scene_spec,
    render_scene,
    run_em,
    save_mask,
    save_render,
    seg_snr,
    speechlike_signal,
    stft,
    to_log_features,
)
from arraysep.errors import DataError, NumericalError

N_FREQ = 3
MODEL = init_model(EnhancerConfig(layer_sizes=(2,)), N_FREQ,
                   FeatureStats(np.zeros(N_FREQ), np.ones(N_FREQ)))
STFT = StftConfig(4, 2)           # N_FREQ bins
SIGNAL = np.linspace(-0.5, 0.5, 6)
WAVE = Waveform(SIGNAL, 16000)
MASK = MaskGrid(values=np.ones((N_FREQ, 2)))
SPEC = Spectrogram(bins=np.ones((N_FREQ, 2), complex), config=STFT, sample_rate=16000)
SPECS = [SPEC, SPEC]
STATS = FeatureStats(np.zeros(N_FREQ), np.ones(N_FREQ))
CONTEXT = TargetContext.from_spectrograms(SPEC, SPEC)
COVARIANCES = estimate_covariances(SPECS, MASK)
WEIGHTS = mvdr_weights(COVARIANCES)
MIXTURE = MultichannelWaveform.from_array(np.stack([SIGNAL, SIGNAL]), 16000)

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
    "bss_eval.estimate": lambda v: bss_eval(v, WAVE, [], 2),
    "bss_eval.noise_refs": lambda v: bss_eval(WAVE, WAVE, v, 2),
    "logit_mask.mask": logit_mask,
    "apply_mask.mask": lambda v: apply_mask(v, SPEC),
    "apply_mask.spec": lambda v: apply_mask(MASK, v),
    "stft.wave": lambda v: stft(v, STFT),
    "fuse_channels.masks": fuse_channels,
    "binarize.mask": binarize,
    "binarize.threshold": lambda v: binarize(MASK, v),
    "istft.spec": istft,
    "to_log_features.spec": lambda v: to_log_features(v, STATS),
    "to_log_features.stats": lambda v: to_log_features(SPEC, v),
    "save_mask.mask": lambda v: save_mask(v, os.devnull),
    "seg_snr.estimate": lambda v: seg_snr(v, WAVE, 2),
    "seg_snr.reference": lambda v: seg_snr(WAVE, v, 2),
    "compute_target.ctx": lambda v: compute_target(v, TargetKind.IA),
    "compute_target.kind": lambda v: compute_target(CONTEXT, v),
    "loss.prediction": lambda v: loss(v, CONTEXT, TargetKind.IA),
    "loss.ctx": lambda v: loss(MASK, v, TargetKind.IA),
    "loss.kind": lambda v: loss(MASK, CONTEXT, v),
    "build_batch.noisy_spec": lambda v: build_batch(v, MASK, SPEC, STATS, TargetKind.IA),
    "build_batch.messl_mask": lambda v: build_batch(SPEC, v, SPEC, STATS, TargetKind.IA),
    "build_batch.clean_spec": lambda v: build_batch(SPEC, MASK, v, STATS, TargetKind.IA),
    "build_batch.stats": lambda v: build_batch(SPEC, MASK, SPEC, v, TargetKind.IA),
    "build_batch.kind": lambda v: build_batch(SPEC, MASK, SPEC, STATS, v),
    "run_em.specs": lambda v: run_em(v, MesslConfig()),
    "run_em.cfg": lambda v: run_em(SPECS, v),
    "estimate_covariances.specs": lambda v: estimate_covariances(v, MASK),
    "mvdr_weights.cov": mvdr_weights,
    "mvdr_weights.reference_channel": lambda v: mvdr_weights(COVARIANCES, v),
    "beamform.specs": lambda v: beamform(v, WEIGHTS),
    "beamform.bw": lambda v: beamform(SPECS, v),
    "enhance.cfg": lambda v: enhance(MIXTURE, v),
    "evaluate_scene.render": lambda v: evaluate_scene(WAVE, v),
    "render_scene.spec": render_scene,
    "ideal_masks.render": lambda v: ideal_masks(v, STFT),
    "save_render.render": lambda v: save_render(v, os.devnull),
    "random_scene_spec.rng": lambda v: random_scene_spec(v, duration=0.001, sample_rate=8000),
    "speechlike_signal.rng": lambda v: speechlike_signal(0.001, 8000, v),
}

# Container and config arguments: the name each error gives, and the type
# the argument must be. A bare array or None in its place is a DataError.
CONTAINERS = {
    "binarize.mask": ("mask", "MaskGrid"),
    "istft.spec": ("spec", "Spectrogram"),
    "to_log_features.spec": ("spec", "Spectrogram"),
    "to_log_features.stats": ("stats", "FeatureStats"),
    "save_mask.mask": ("mask", "MaskGrid"),
    "seg_snr.estimate": ("estimate", "Waveform"),
    "seg_snr.reference": ("reference", "Waveform"),
    "compute_target.ctx": ("ctx", "TargetContext"),
    "compute_target.kind": ("kind", "TargetKind"),
    "loss.prediction": ("prediction", "MaskGrid"),
    "loss.ctx": ("ctx", "TargetContext"),
    "loss.kind": ("kind", "TargetKind"),
    "build_batch.noisy_spec": ("noisy_spec", "Spectrogram"),
    "build_batch.messl_mask": ("messl_mask", "MaskGrid"),
    "build_batch.clean_spec": ("clean_spec", "Spectrogram"),
    "build_batch.stats": ("stats", "FeatureStats"),
    "build_batch.kind": ("kind", "TargetKind"),
    "run_em.specs": ("specs", "list"),
    "run_em.cfg": ("cfg", "MesslConfig"),
    "estimate_covariances.specs": ("specs", "list"),
    "mvdr_weights.cov": ("cov", "CovarianceField"),
    "beamform.specs": ("specs", "list"),
    "beamform.bw": ("bw", "BeamformerWeights"),
    "enhance.cfg": ("cfg", "PipelineConfig"),
    "evaluate_scene.render": ("render", "SceneRender"),
    "render_scene.spec": ("spec", "SceneSpec"),
    "ideal_masks.render": ("render", "SceneRender"),
    "save_render.render": ("render", "SceneRender"),
    "random_scene_spec.rng": ("rng", "numpy Generator"),
    "speechlike_signal.rng": ("rng", "numpy Generator"),
}
BARE = np.ones((N_FREQ, 2))


def _examples(cases):
    """One hypothesis @example per (call name, value) case."""
    def apply(test):
        for case in cases:
            test = example(*case)(test)
        return test
    return apply

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
@example("bss_eval.estimate", SIGNAL)
@example("bss_eval.estimate", [])
@example("bss_eval.estimate", [WAVE, Waveform(SIGNAL[:4], 16000)])
@example("bss_eval.estimate", [WAVE, Waveform(SIGNAL, 8000)])
@example("bss_eval.noise_refs", SIGNAL)
@example("logit_mask.mask", np.ones((2, 2)))
@example("apply_mask.mask", np.ones((N_FREQ, 2)))
@example("apply_mask.spec", np.ones((N_FREQ, 2)))
@example("stft.wave", SIGNAL)
@example("fuse_channels.masks", np.ones((2, 2)))
@example("speechlike_signal.duration", 1e300)
@example("speechlike_signal.duration", 1e18)
@example("speechlike_signal.duration", 1e308)
@example("binarize.threshold", np.nan)
@example("binarize.threshold", np.inf)
@example("mvdr_weights.reference_channel", None)
@example("mvdr_weights.reference_channel", BARE)
@_examples([(name, value) for name in CONTAINERS for value in (BARE, None)])
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
    ("bss_eval.estimate", SIGNAL, "estimate",
     "expected a Waveform or a nonempty list of Waveforms"),
    ("bss_eval.estimate", [], "estimate",
     "expected a Waveform or a nonempty list of Waveforms"),
    ("bss_eval.estimate", [WAVE, Waveform(SIGNAL[:4], 16000)], "estimate",
     "estimates differ in length or sample rate"),
    ("bss_eval.estimate", [WAVE, Waveform(SIGNAL, 8000)], "estimate",
     "estimates differ in length or sample rate"),
    ("bss_eval.noise_refs", SIGNAL, "noise_refs", "ndarray is not a list"),
    ("logit_mask.mask", np.ones((2, 2)), "mask", "ndarray is not a MaskGrid"),
    ("apply_mask.mask", np.ones((N_FREQ, 2)), "mask", "ndarray is not a MaskGrid"),
    ("apply_mask.spec", np.ones((N_FREQ, 2)), "spec", "ndarray is not a Spectrogram"),
    ("stft.wave", SIGNAL, "wave", "ndarray is not a Waveform"),
    ("fuse_channels.masks", np.ones((2, 2)), "masks", "ndarray is not a list"),
    ("speechlike_signal.duration", 1e300, "duration", "are more than an array holds"),
    ("speechlike_signal.duration", 1e18, "duration", "are more than an array holds"),
    ("binarize.threshold", np.nan, "threshold", "expected a finite number"),
    ("mvdr_weights.reference_channel", None, "reference_channel", "argument must be"),
    *[(name, value, field, f"{type(value).__name__} is not a {kind}")
      for name, (field, kind) in CONTAINERS.items() for value in (BARE, None)],
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
