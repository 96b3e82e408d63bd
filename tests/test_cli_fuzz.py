"""Random config documents through the CLI: every one must end in success
or a data error (exit 0 or 2), never in a raw exception or a traceback.

Documents are built from the keys each subcommand reads, with values that
are scalars, lists or mappings. Sizes are bounded (windows up to 256
samples, at most 3 EM iterations and 3 scenes, sources of at most 3 s)
so that an example takes tens of milliseconds.
"""

import os
import tempfile

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from arraysep import MultichannelWaveform, write_wav
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

FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def mixture_wav(tmp_path_factory):
    rows = 0.3 * np.random.default_rng(5).standard_normal((2, 1600))
    path = tmp_path_factory.mktemp("fuzz") / "mixture.wav"
    write_wav(path, MultichannelWaveform.from_array(rows, 8000))
    return str(path)


def _run(capsys, command, doc, extra):
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.yml")
        with open(config, "w") as handle:
            yaml.safe_dump(doc, handle)
        code = main([command, "--config", config,
                     "--out", os.path.join(tmp, "out"), *extra])
    err = capsys.readouterr().err
    assert code in (0, 2), err
    assert "Traceback" not in err


@FUZZ
@given(doc=PIPELINE_DOCS)
def test_enhance_config_fuzz(mixture_wav, capsys, doc):
    _run(capsys, "enhance", doc, ["--input", mixture_wav])


@FUZZ
@given(doc=SCENE_DOCS)
def test_simulate_config_fuzz(capsys, doc):
    _run(capsys, "simulate", doc, [])
