"""Config fields: one converter per field, in code and in YAML.

Every config dataclass stores each field through one converter, and each
YAML reader reads a key with the converter of the field it sets. So a
malformed value is rejected the same way whether a config is built in
code (the message names the field) or read from a document (the message
names the key), any value at all either builds a config or raises
DataError, and the examples the README gives for each document read.
"""

import os
import re

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from arraysep import (
    CombineMode,
    EnhancerConfig,
    MesslConfig,
    PipelineConfig,
    SceneSpec,
    SourceSpec,
    StftConfig,
    TrainSettings,
    Waveform,
)
from arraysep.errors import DataError
from arraysep.pipeline import pipeline_config_from_dict, training_config_from_dict
from arraysep.scene import load_scene_specs
from arraysep.util import config_hash, load_config

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

SIGNAL = Waveform(np.full(1600, 0.1), 16000)
SOURCE = SourceSpec(SIGNAL, delays=(0.0, 1.0), gains=(1.0, 1.0))
SOURCE_DOC = {"duration": 0.1, "delays": [0.0, 1.0]}


def _scene(**fields) -> SceneSpec:
    return SceneSpec(**{"sources": (SOURCE,), "n_channels": 2,
                        "sample_rate": 16000, **fields})


def _source(**fields) -> SourceSpec:
    return SourceSpec(**{"signal": SIGNAL, "delays": (0.0, 1.0),
                         "gains": (1.0, 1.0), **fields})


def _pipeline_doc(key, value):
    return pipeline_config_from_dict, {key: value}


def _section_doc(section, key, value):
    return pipeline_config_from_dict, {section: {key: value}}


def _train_doc(key, value):
    return training_config_from_dict, {"scenes": "scenes", key: value}


def _scene_doc(key, value):
    return load_scene_specs, {"sources": [SOURCE_DOC], key: value}


def _source_doc(key, value):
    return load_scene_specs, {"sources": [{**SOURCE_DOC, key: value}]}


# (build in code, field, document, key, malformed value)
PARITY = [
    (StftConfig, "window_size", _section_doc, ("stft", "window_size"), 0),
    (StftConfig, "hop_size", _section_doc, ("stft", "hop_size"), 2.5),
    (StftConfig, "window", _section_doc, ("stft", "window"), "kaiser"),
    (MesslConfig, "n_sources", _section_doc, ("messl", "n_sources"), 0),
    (MesslConfig, "n_iterations", _section_doc, ("messl", "n_iterations"), "x"),
    (MesslConfig, "convergence_tol", _section_doc, ("messl", "convergence_tol"), -1.0),
    (MesslConfig, "use_garbage", _section_doc, ("messl", "use_garbage"), "false"),
    (MesslConfig, "target_source", _section_doc, ("messl", "target_source"), -1),
    (MesslConfig, "reference_channel", _pipeline_doc, ("ref_channel",), -1),
    (PipelineConfig, "combine_mode", _pipeline_doc, ("combine",), "median"),
    (PipelineConfig, "model_path", _pipeline_doc, ("model",), 5),
    (PipelineConfig, "messl_binarize_threshold", _pipeline_doc,
     ("messl_binarize_threshold",), 1.0),
    (PipelineConfig, "seg_frame", _pipeline_doc, ("seg_frame",), 0),
    (EnhancerConfig, "layer_sizes", _train_doc, ("layer_sizes",), [0]),
    (EnhancerConfig, "merge_mode", _train_doc, ("merge_mode",), "max"),
    (EnhancerConfig, "output_activation", _train_doc, ("output_activation",), "relu"),
    (EnhancerConfig, "target_kind", _train_doc, ("target_kind",), "irm"),
    (TrainSettings, "learning_rate", _train_doc, ("learning_rate",), "fast"),
    (TrainSettings, "max_epochs", _train_doc, ("max_epochs",), 0),
    (TrainSettings, "patience", _train_doc, ("patience",), 1.5),
    (TrainSettings, "seed", _train_doc, ("seed",), -1),
    (_scene, "n_channels", _scene_doc, ("n_channels",), 1),
    (_scene, "sample_rate", _scene_doc, ("sample_rate",), 16000.5),
    (_scene, "diffuse_noise_level", _scene_doc, ("diffuse_noise_level",), float("nan")),
    (_scene, "seed", _scene_doc, ("seed",), -1),
    (_source, "delays", _source_doc, ("delays",), [0.0, float("inf")]),
    (_source, "gains", _source_doc, ("gains",), [1.0, 0.0]),
]


@pytest.mark.parametrize("build, field, document, where, value", PARITY,
                         ids=[f"{row[0].__name__.strip('_')}.{row[1]}" for row in PARITY])
def test_code_and_yaml_reject_a_value_alike(tmp_path, build, field, document, where, value):
    """The same value is rejected with the same reason: built in code the
    message starts with the field, read from YAML it names the key."""
    with pytest.raises(DataError) as in_code:
        build(**{field: value})
    message = str(in_code.value)
    assert message.startswith(f"{field} = {value!r}: ")
    reason = message.split(": ", 1)[1]

    read, doc = document(*where, value)
    path = tmp_path / "config.yml"
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(DataError) as from_yaml:
        read(load_config(str(path)))
    assert f"config key '{where[-1]}' = {value!r}: {reason}" in str(from_yaml.value)


# (built in code, the document that reads as the same config)
SAME = [
    (PipelineConfig(), {}),
    (PipelineConfig(stft=StftConfig(window_size=512)), {"stft": {"window_size": 512}}),
    (PipelineConfig(stft=StftConfig(window_size=512, hop_size=128)),
     {"stft": {"window_size": 512}}),
    (PipelineConfig(stft=StftConfig(window_size=512, hop_size=256)),
     {"stft": {"window_size": 512, "hop_size": 256}}),
]


@pytest.mark.parametrize("built, doc", SAME, ids=[
    "default", "window 512", "window 512 hop 128", "window 512 hop 256"])
def test_code_and_yaml_build_alike(built, doc):
    """A field left out takes its dataclass default in code and in YAML,
    the hop (a quarter of the window) included."""
    read = pipeline_config_from_dict(doc)
    assert read.stft == built.stft and read.digest() == built.digest()


def test_string_names_and_numbers_convert_alike():
    """Code and YAML store the same converted values: an enum name as its
    member, an integral number as an int, so the digests agree."""
    built = PipelineConfig(combine_mode="max", seg_frame=64.0,
                           messl=MesslConfig(reference_channel=1.0))
    read = pipeline_config_from_dict({"combine": "max", "seg_frame": 64.0,
                                      "ref_channel": 1.0})
    assert built.digest() == read.digest()
    assert built.combine_mode is read.combine_mode is CombineMode.MAX
    assert Waveform(np.zeros(4), 16000.0).sample_rate == 16000
    with pytest.raises(DataError, match="sample_rate = 16000.5: not an integer"):
        Waveform(np.zeros(4), 16000.5)
    with pytest.raises(DataError, match="sample_rate = 'x': "):
        Waveform(np.zeros(4), "x")


# ------------------------------------------------------ constructor fuzz

JSON = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 300),
        st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0, 2.5, 1e300,
                         float("nan"), float("inf"), float("-inf")]),
        st.sampled_from(["", "x", "1", "0.5", "avg", "hann", "sum", "ia", "true"]),
    ),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["a", "window_size", "n_sources"]), inner,
                      max_size=2),
    max_leaves=6,
)


def _value(*plausible):
    """One of ``plausible`` three times in four, else any JSON-like value."""
    return st.integers(0, 3).flatmap(
        lambda i: JSON if i == 3 else st.sampled_from(plausible))


def _some(**fields):
    return st.fixed_dictionaries({}, optional=fields)


CONSTRUCTORS = {
    StftConfig: _some(
        window_size=_value(64, 128, 64.0), hop_size=_value(16, 32, 96),
        window=_value("hann", "sqrt_hann", "rect")),
    MesslConfig: _some(
        n_sources=_value(1, 2), n_iterations=_value(1, 4),
        delay_grid=_value([0.0], [-0.5, 0.0, 0.5]), reference_channel=_value(0, 1),
        convergence_tol=_value(0.0, 1e-5), use_garbage=_value(True, False),
        target_source=_value(None, 0, 1)),
    PipelineConfig: _some(
        stft=_value(StftConfig()), messl=_value(MesslConfig()),
        combine_mode=_value("avg", CombineMode.MAX), model_path=_value(None, "net.model"),
        messl_binarize_threshold=_value(None, 0.0, 0.5), seg_frame=_value(1, 256)),
    EnhancerConfig: _some(
        layer_sizes=_value((8,), [4, 4]), merge_mode=_value("sum", "concatenate"),
        output_activation=_value("sigmoid", "hard_sigmoid"),
        target_kind=_value("ia", "pa")),
    TrainSettings: _some(
        learning_rate=_value(0.0, 1e-3), max_epochs=_value(1, 30),
        patience=_value(1, 5), seed=_value(0, 7)),
    SceneSpec: st.fixed_dictionaries(
        {"sources": _value((SOURCE,), [SOURCE, SOURCE]),
         "n_channels": _value(2), "sample_rate": _value(16000)},
        optional={"diffuse_noise_level": _value(0.0, 0.01), "seed": _value(0, 3)}),
    SourceSpec: st.fixed_dictionaries(
        {"signal": _value(SIGNAL), "delays": _value((0.0, 1.0), [0, -2.5]),
         "gains": _value((1.0, 0.5), [2, 1])}),
}


# Derandomized: every run draws the same values, so a failure found by one
# draw comes back on the next run.
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(list(CONSTRUCTORS)).flatmap(
    lambda cls: st.tuples(st.just(cls), CONSTRUCTORS[cls])))
def test_any_field_values_build_a_config_or_raise_data_error(draw):
    cls, fields = draw
    try:
        config = cls(**fields)
    except DataError:
        return
    # What was built passes its own checks again, unchanged.
    again = cls(**{k: getattr(config, k) for k in fields})
    assert config_hash(again) == config_hash(config)


# ------------------------------------------------------- README examples

def _readme_config_blocks() -> list:
    """The YAML blocks of the README's "Config files" section, parsed."""
    with open(README) as handle:
        text = handle.read()
    section = text.split("### Config files", 1)[1].split("\n## ", 1)[0]
    return [yaml.safe_load(block)
            for block in re.findall(r"```yaml\n(.*?)```", section, re.S)]


def test_readme_config_examples_read_through_their_readers():
    train, experiment, scenes = _readme_config_blocks()

    cfg = pipeline_config_from_dict(train)
    assert (cfg.stft.window_size, cfg.messl.n_iterations) == (512, 8)
    directory, net, settings_, holdout, all_channels = training_config_from_dict(train)
    assert (directory, net.layer_sizes, settings_.max_epochs) == ("scenes", (64,), 20)
    assert (holdout, all_channels) == (0.2, False)

    cfg = pipeline_config_from_dict(experiment)
    assert cfg.model_path == "net.model" and cfg.stft.hop_size == 128

    specs = load_scene_specs(scenes)
    assert len(specs) == scenes["batch"]["n_scenes"]
    assert all(spec.n_channels == 2 and len(spec.sources) == 2 for spec in specs)
