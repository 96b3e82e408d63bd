"""Random config documents through the CLI: every one must end in success
or a data error (exit 0 or 2; train, experiment, messl and evaluate may
also end in a numerical failure, exit 3), never in a raw exception or a
traceback.

Documents are built from the keys each subcommand reads, with values that
are scalars, lists or mappings. Sizes are bounded (windows up to 256
samples, at most 3 EM iterations and 3 scenes, sources of at most 3 s)
so that an example takes tens of milliseconds. The train, experiment,
messl and evaluate documents are laid over a tiny base (window 32, 2 EM
iterations, one width-2 layer, one epoch) and draw their sizes from
windows up to 64, at most 2 EM iterations, widths up to 4 and at most 2
epochs; only a junk stft or messl mapping can set a size of 3.
"""

import os
import shutil
import tempfile

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from arraysep import (
    EnhancerConfig,
    FeatureStats,
    MultichannelWaveform,
    init_model,
    save_model,
    write_wav,
)
from arraysep.cli import main

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.sampled_from([-1.0, 0.0, 0.02, 0.5, 1.5, 2.5, float("nan"), float("inf")]),
    st.sampled_from(["", "x", "1", "hann", "avg", "all", "speechlike", "wav"]),
)


def _junk(keys):
    """Scalars, or lists and mappings (over ``keys``) of junk."""
    return st.recursive(
        SCALARS,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(keys), inner, max_size=3),
        max_leaves=6,
    )


def _doc(fields):
    """A mapping over some of ``fields``: {key: strategy of its value}."""
    return st.fixed_dictionaries({}, optional=fields)


def _either(plausible, keys):
    """Mostly ``plausible``, one time in four junk, so that most documents
    get past their first key."""
    junk = _junk(keys)
    return st.integers(0, 3).flatmap(lambda i: junk if i == 0 else plausible)


def _numbers(*values):
    return st.sampled_from(values)


STFT_KEYS = ["window_size", "hop_size", "window"]
MESSL_KEYS = ["n_sources", "n_iterations", "convergence_tol", "use_garbage",
              "target_source", "max_delay", "grid_step"]
PIPELINE_KEYS = ["stft", "messl", "combine", "ref_channel", "model",
                 "messl_binarize_threshold", "seg_frame"]

PIPELINE_DOCS = _doc({
    "stft": _either(_doc({
        "window_size": _either(_numbers(8, 16, 64, 256, 0, -16, 12.5), STFT_KEYS),
        "hop_size": _either(_numbers(4, 8, 16, 64, 0, 300, 6.5), STFT_KEYS),
        "window": _either(_numbers("sqrt_hann", "hann", "rect", "kaiser"), STFT_KEYS),
    }), STFT_KEYS),
    "messl": _either(_doc({
        "n_sources": _either(_numbers(1, 2, 3, 0), MESSL_KEYS),
        "n_iterations": _either(_numbers(1, 2, 3, 0, 2.5), MESSL_KEYS),
        "convergence_tol": _either(_numbers(1e-5, 0.0, -1.0), MESSL_KEYS),
        "use_garbage": _either(st.booleans(), MESSL_KEYS),
        "target_source": _either(_numbers(None, 0, 1, 5), MESSL_KEYS),
        "max_delay": _either(_numbers(0.0, 2.0, 4.0, -2.0), MESSL_KEYS),
        "grid_step": _either(_numbers(0.25, 0.5, 1.0, 0.0, -0.5), MESSL_KEYS),
    }), MESSL_KEYS),
    "combine": _either(_numbers("avg", "min", "max", "lstm", "sum"), PIPELINE_KEYS),
    "ref_channel": _either(_numbers(0, 1, 2, -1), PIPELINE_KEYS),
    "model": _either(_numbers(None, "missing.model"), PIPELINE_KEYS),
    "messl_binarize_threshold": _either(_numbers(None, 0.5, 0.9), PIPELINE_KEYS),
    "seg_frame": _either(_numbers(16, 256, 0, -1), PIPELINE_KEYS),
})

BATCH_KEYS = ["n_scenes", "seed", "n_channels", "sample_rate", "duration",
              "snr_db", "n_interferers", "delay_range"]
SOURCE_KEYS = ["kind", "duration", "path", "level", "delays", "gains"]
SCENE_KEYS = ["batch", "sample_rate", "seed", "sources", "n_channels",
              "diffuse_noise_level"]
RATES = _numbers(8000, 16000, 0, -8000, 800.5)
DURATIONS = _numbers(0.05, 0.1, 0.0, -0.1, float("nan"), float("inf"))
PLACEMENTS = st.lists(_numbers(0.0, 1.5, -2.0, 0.5, float("nan")), max_size=4)

SOURCE_DOCS = _doc({
    "kind": _either(_numbers("speechlike", "wav", "tone"), SOURCE_KEYS),
    "duration": _either(DURATIONS, SOURCE_KEYS),
    "path": _either(_numbers("missing.wav"), SOURCE_KEYS),
    "level": _either(_numbers(None, 0.1, 0.0, -1.0), SOURCE_KEYS),
    "delays": _either(PLACEMENTS, SOURCE_KEYS),
    "gains": _either(st.lists(_numbers(1.0, 0.5, 0.0, -1.0), max_size=4), SOURCE_KEYS),
})

SCENE_DOCS = _doc({
    "batch": _either(_doc({
        "n_scenes": _either(_numbers(0, 1, 2, -1), BATCH_KEYS),
        "seed": _either(_numbers(0, 7, -1), BATCH_KEYS),
        "n_channels": _either(_numbers(1, 2, 3, 0), BATCH_KEYS),
        "sample_rate": _either(RATES, BATCH_KEYS),
        "duration": _either(DURATIONS, BATCH_KEYS),
        "snr_db": _either(st.one_of(_numbers(10.0, -5.0, float("nan")),
                                    st.lists(_numbers(0.0, 10.0, 20.0), max_size=3)),
                          BATCH_KEYS),
        "n_interferers": _either(_numbers(0, 1, -1), BATCH_KEYS),
        "delay_range": _either(PLACEMENTS, BATCH_KEYS),
    }), BATCH_KEYS),
    "sample_rate": _either(RATES, SCENE_KEYS),
    "seed": _either(_numbers(0, 3, -1), SCENE_KEYS),
    "sources": _either(st.lists(_either(SOURCE_DOCS, SOURCE_KEYS), max_size=2),
                       SCENE_KEYS),
    "n_channels": _either(_numbers(2, 3, 1), SCENE_KEYS),
    "diffuse_noise_level": _either(_numbers(0.0, 0.01, -0.1), SCENE_KEYS),
})

# Tiny pipelines for the subcommands that run EM, train or score. A drawn
# stft or messl mapping is laid over the base section, so that a section
# the document leaves out, or sets to {}, keeps the tiny sizes.
TINY = {
    "stft": {"window_size": 32, "hop_size": 8},
    "messl": {"n_iterations": 2, "max_delay": 2.0, "grid_step": 0.5},
    "layer_sizes": [2],
    "max_epochs": 1,
}

SMALL_PIPELINE = {
    "stft": _either(_doc({
        "window_size": _numbers(16, 32, 64, 0, -16, 12.5, "x"),
        "hop_size": _either(_numbers(4, 8, 16, 0, 100, 6.5), STFT_KEYS),
        "window": _either(_numbers("sqrt_hann", "hann", "rect", "kaiser"), STFT_KEYS),
    }), STFT_KEYS),
    "messl": _either(_doc({
        "n_sources": _either(_numbers(1, 2, 0), MESSL_KEYS),
        "n_iterations": _numbers(1, 2, 0, 1.5, "x"),
        "convergence_tol": _either(_numbers(1e-5, 0.0, -1.0), MESSL_KEYS),
        "use_garbage": _either(st.booleans(), MESSL_KEYS),
        "target_source": _either(_numbers(None, 0, 1, 5), MESSL_KEYS),
        "max_delay": _either(_numbers(0.0, 2.0, -2.0, 1e9), MESSL_KEYS),
        "grid_step": _either(_numbers(0.5, 1.0, 0.0, 1e-9), MESSL_KEYS),
    }), MESSL_KEYS),
    "combine": _either(_numbers("avg", "min", "max", "lstm", "sum"), PIPELINE_KEYS),
    "ref_channel": _either(_numbers(0, 1, 2, -1), PIPELINE_KEYS),
    "messl_binarize_threshold": _either(_numbers(None, 0.5, 1.5), PIPELINE_KEYS),
    "seg_frame": _either(_numbers(16, 256, 0, -1, 10 ** 6), PIPELINE_KEYS),
}

TRAIN_KEYS = ["scenes", "layer_sizes", "merge_mode", "output_activation",
              "target_kind", "learning_rate", "max_epochs", "patience", "seed",
              "holdout_fraction", "channels"]
TRAIN_FIELDS = {
    "layer_sizes": _numbers([2], [4], [2, 3], [], [0], [1, 2, 3], [2.5], 4),
    "merge_mode": _either(_numbers("sum", "multiply", "average", "concatenate",
                                   "max"), TRAIN_KEYS),
    "output_activation": _either(_numbers("sigmoid", "hard_sigmoid", "relu"),
                                 TRAIN_KEYS),
    "target_kind": _either(_numbers("ia", "ps", "ma", "pa", "irm"), TRAIN_KEYS),
    "learning_rate": _either(_numbers(1e-3, 0.1, 0.0, -1.0, float("nan"),
                                      float("inf"), 1e300), TRAIN_KEYS),
    "max_epochs": _numbers(1, 2, 0, -1, 1.5, "x"),
    "patience": _either(_numbers(1, 0, -1, 2.5), TRAIN_KEYS),
    "seed": _either(_numbers(0, 3, -1), TRAIN_KEYS),
    "holdout_fraction": _either(_numbers(0.2, 0.5, 0.0, 0.99, 1.0, -0.1,
                                         float("nan"), float("inf")), TRAIN_KEYS),
    "channels": _either(_numbers("reference", "all", "both"), TRAIN_KEYS),
}

MANIFEST_KEYS = ["sample_rate", "n_channels", "mixture", "sources", "noise", "seed"]
WAV_NAMES = (_numbers("mixture.wav", "source_00.wav", "source_01.wav", "noise.wav")
             | _numbers("mono.wav", "slow.wav", "short.wav", "long.wav", "silent.wav",
                        "missing.wav", ""))
# The three file keys are mostly present, so that most manifests load.
MANIFEST_DOCS = st.fixed_dictionaries({
    "mixture": _either(WAV_NAMES, MANIFEST_KEYS),
    "sources": _either(st.lists(WAV_NAMES, max_size=3), MANIFEST_KEYS),
    "noise": _either(WAV_NAMES, MANIFEST_KEYS),
}, optional={
    "sample_rate": _either(RATES, MANIFEST_KEYS),
    "n_channels": _either(_numbers(2, 1, 5), MANIFEST_KEYS),
    "seed": _either(_numbers(0, -1), MANIFEST_KEYS),
})

# Derandomized: every run draws the same documents, so a failure found by
# one draw comes back on the next run.
FUZZ = settings(max_examples=200, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.function_scoped_fixture])
SLOW_FUZZ = settings(FUZZ, max_examples=60)


def _over_tiny(doc: dict, **base) -> dict:
    """``doc`` laid over TINY and ``base``; mapping sections are merged
    key by key."""
    out = {**TINY, **base}
    for key, value in doc.items():
        both = isinstance(out.get(key), dict) and isinstance(value, dict)
        out[key] = {**out[key], **value} if both else value
    return out


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Three rendered two-channel scenes (8 kHz, 0.2 s, one interferer),
    a tiny model for window 32, and odd WAV files for fuzzed manifests."""
    root = tmp_path_factory.mktemp("fuzz_scenes")
    config = root / "scenes.yml"
    config.write_text("batch: {n_scenes: 3, sample_rate: 8000, duration: 0.2,"
                      " n_interferers: 1}\n")
    assert main(["simulate", "--config", str(config),
                 "--out", str(root / "scenes")]) == 0
    model = init_model(EnhancerConfig(layer_sizes=(2,)), 17,
                       FeatureStats(mean=np.zeros(17), std=np.ones(17)), seed=0)
    save_model(model, str(root / "tiny.model"))
    rows = 0.1 * np.random.default_rng(6).standard_normal((3, 3200))
    odd = root / "odd"
    odd.mkdir()
    write_wav(odd / "mono.wav", MultichannelWaveform.from_array(rows[:1, :1600], 8000))
    write_wav(odd / "slow.wav", MultichannelWaveform.from_array(rows[:, :1600], 4000))
    write_wav(odd / "short.wav", MultichannelWaveform.from_array(rows[:, :800], 8000))
    write_wav(odd / "long.wav", MultichannelWaveform.from_array(rows, 8000))
    write_wav(odd / "silent.wav", MultichannelWaveform.from_array(0 * rows[:, :1600], 8000))
    return root


@pytest.fixture(scope="module")
def mixture_wav(tmp_path_factory):
    rows = 0.3 * np.random.default_rng(5).standard_normal((2, 1600))
    path = tmp_path_factory.mktemp("fuzz") / "mixture.wav"
    write_wav(path, MultichannelWaveform.from_array(rows, 8000))
    return str(path)


def _run(capsys, command, doc, extra, codes=(0, 2)):
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.yml")
        with open(config, "w") as handle:
            yaml.safe_dump(doc, handle)
        code = main([command, "--config", config,
                     "--out", os.path.join(tmp, "out"), *extra])
    err = capsys.readouterr().err
    assert code in codes, err
    assert "Traceback" not in err


@FUZZ
@given(doc=PIPELINE_DOCS)
def test_enhance_config_fuzz(mixture_wav, capsys, doc):
    _run(capsys, "enhance", doc, ["--input", mixture_wav])


@FUZZ
@given(doc=SCENE_DOCS)
def test_simulate_config_fuzz(capsys, doc):
    _run(capsys, "simulate", doc, [])


@SLOW_FUZZ
@given(doc=_doc({**SMALL_PIPELINE, **TRAIN_FIELDS,
                 "scenes": _either(_numbers("missing"), TRAIN_KEYS)}))
def test_train_config_fuzz(workspace, capsys, doc):
    if doc.get("scenes") == "missing":
        doc["scenes"] = str(workspace / "missing")
    doc = _over_tiny(doc, scenes=str(workspace / "scenes"))
    _run(capsys, "train", doc, [], codes=(0, 2, 3))


@SLOW_FUZZ
@given(doc=_doc({
    **SMALL_PIPELINE,
    "scenes": _either(st.lists(_numbers("scene_000", "scene_001", "missing"),
                               max_size=2), PIPELINE_KEYS),
    "combine_modes": _either(st.lists(_numbers("avg", "max", "lstm", "sum"),
                                      max_size=3), PIPELINE_KEYS),
    "model": _either(_numbers(None, "tiny.model", "missing.model"), PIPELINE_KEYS),
}))
def test_experiment_config_fuzz(workspace, capsys, doc):
    scenes = workspace / "scenes"
    if isinstance(doc.get("scenes"), list):
        doc["scenes"] = [str(scenes / name) if isinstance(name, str) else name
                         for name in doc["scenes"]]
    if doc.get("model") in ("tiny.model", "missing.model"):
        doc["model"] = str(workspace / doc["model"])
    doc = _over_tiny(doc, scenes=[str(scenes / "scene_000")])
    _run(capsys, "experiment", doc, [], codes=(0, 2, 3))


@FUZZ
@given(doc=_doc(SMALL_PIPELINE), dump=st.booleans())
def test_messl_config_fuzz(mixture_wav, capsys, doc, dump):
    with tempfile.TemporaryDirectory() as tmp:
        extra = ["--input", mixture_wav] + (["--dump-masks", tmp] if dump else [])
        _run(capsys, "messl", _over_tiny(doc), extra, codes=(0, 2, 3))


@SLOW_FUZZ
@given(manifest=MANIFEST_DOCS, doc=_doc({
    key: SMALL_PIPELINE[key] for key in ("ref_channel", "seg_frame")
}))
def test_evaluate_manifest_fuzz(workspace, capsys, manifest, doc):
    with tempfile.TemporaryDirectory() as tmp:
        for source in (workspace / "scenes" / "scene_000", workspace / "odd"):
            for wav in source.glob("*.wav"):
                shutil.copy(wav, tmp)
        with open(os.path.join(tmp, "manifest.yaml"), "w") as handle:
            yaml.safe_dump(manifest, handle)
        estimate = str(workspace / "scenes" / "scene_001" / "mixture.wav")
        _run(capsys, "evaluate", doc, ["--input", estimate, "--scene", tmp],
             codes=(0, 2, 3))
