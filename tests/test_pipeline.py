"""Full-pipeline behavior, experiment loops, and the CLI surface."""

import dataclasses
import json
import os
import shutil
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
import yaml

from arraysep import (
    CombineMode,
    EnhancerConfig,
    EvalScores,
    MultichannelWaveform,
    NumericalError,
    PipelineConfig,
    SceneSpec,
    SourceSpec,
    StftConfig,
    TargetKind,
    TrainSettings,
    Waveform,
    apply_mask,
    binarize,
    build_batch,
    bss_eval,
    enhance,
    evaluate_scene,
    init_model,
    istft,
    load_mask,
    load_model,
    load_render,
    logit_mask,
    random_scene_spec,
    read_wav,
    render_scene,
    run_experiment,
    save_model,
    save_render,
    stft,
    write_wav,
)
from arraysep import pipeline
from arraysep.cli import main
from arraysep.enhancer import MODEL_MAGIC, FeatureStats
from arraysep.errors import DataError
from arraysep.pipeline import analyze, score_row, write_score_csv
from arraysep.signal import MASK_MAGIC
from arraysep.spatial_em import MesslConfig, MesslResult, default_delay_grid, run_em
from arraysep.util import config_hash, load_config

SMALL = StftConfig(window_size=64, hop_size=16)
FAST_EM = MesslConfig(n_iterations=5, delay_grid=default_delay_grid(4.0, 0.5))


def _small_cfg(reference_channel=0, **kwargs) -> PipelineConfig:
    messl = dataclasses.replace(FAST_EM, reference_channel=reference_channel)
    return PipelineConfig(stft=SMALL, messl=messl, **kwargs)


def _zero_model(n_freq: int) -> "EnhancerModel":
    cfg = EnhancerConfig(layer_sizes=(6,))
    stats = FeatureStats(mean=np.zeros(n_freq), std=np.ones(n_freq))
    model = init_model(cfg, n_freq, stats, seed=0)
    for name in model.params:
        model.params[name] = np.zeros_like(model.params[name])
    return model


@pytest.fixture(scope="module")
def render():
    spec = random_scene_spec(
        np.random.default_rng(21), n_channels=2, duration=0.5, snr_db=8.0
    )
    return render_scene(spec)


# --------------------------------------------------------------- enhance

def test_enhance_without_model_uses_clustering_mask(render):
    result = enhance(render.mixture, _small_cfg())
    assert result.enhanced_mask is None
    np.testing.assert_array_equal(result.final_mask.values,
                                  result.messl_mask.values)
    assert np.all(np.isfinite(result.waveform.samples))
    assert len(result.waveform) >= render.mixture.n_samples


def test_enhance_is_deterministic(render):
    a = enhance(render.mixture, _small_cfg())
    b = enhance(render.mixture, _small_cfg())
    np.testing.assert_array_equal(a.waveform.samples, b.waveform.samples)
    np.testing.assert_array_equal(a.final_mask.values, b.final_mask.values)
    assert a.config_digest == b.config_digest


def test_zero_model_lstm_only_halves_beamformed(render):
    # All-zero weights emit 0.5 everywhere; with the lstm-only combine the
    # post filter must then be exactly half the beamformed spectrogram.
    model = _zero_model(SMALL.n_freq)
    cfg = _small_cfg(combine_mode=CombineMode.LSTM_ONLY)
    result = enhance(render.mixture, cfg, model)
    assert result.enhanced_mask is not None
    np.testing.assert_array_equal(result.final_mask.values,
                                  0.5 * np.ones_like(result.final_mask.values))
    expected = istft(apply_mask(result.final_mask, result.beamformed))
    np.testing.assert_allclose(result.waveform.samples, expected.samples,
                               atol=1e-12)


def test_model_loaded_from_path(tmp_path, render):
    path = str(tmp_path / "net.model")
    save_model(_zero_model(SMALL.n_freq), path)
    cfg = _small_cfg(model_path=path)
    result = enhance(render.mixture, cfg)
    assert result.enhanced_mask is not None


def test_binarize_threshold_hardens_mask(render):
    cfg = _small_cfg(messl_binarize_threshold=0.5)
    result = enhance(render.mixture, cfg)
    values = result.messl_mask.values
    assert set(np.unique(values)) <= {0.0, 1.0}


def test_stage_error_names_failing_stage(render):
    rate = render.mixture.sample_rate
    arr = np.stack([render.mixture.channel(c).samples[:8]
                    for c in range(render.mixture.n_channels)])
    short = MultichannelWaveform.from_array(arr, rate)
    with pytest.raises(DataError, match="^stage 'stft': ") as info:
        enhance(short, _small_cfg())
    assert type(info.value) is DataError


def test_silent_mixture_fails_numerically(render):
    silent = MultichannelWaveform.from_array(
        np.zeros((render.mixture.n_channels, render.mixture.n_samples)),
        render.mixture.sample_rate,
    )
    with pytest.raises(NumericalError, match="^stage 'spatial_em': ") as info:
        enhance(silent, _small_cfg())
    assert type(info.value) is NumericalError


def test_enhance_exposes_em_result(render):
    cfg = _small_cfg()
    result = enhance(render.mixture, cfg)
    em = result.em
    assert isinstance(em, MesslResult)
    np.testing.assert_array_equal(em.target_mask.values, result.messl_mask.values)
    assert 2 <= len(em.loglik_trace) <= cfg.messl.n_iterations + 1
    assert np.all(np.isfinite(em.loglik_trace))
    assert isinstance(em.converged, bool)
    assert np.all(np.isfinite(em.params.delays))


def test_enhance_reuses_analysis_bit_for_bit(render):
    model = _zero_model(SMALL.n_freq)
    base = _small_cfg()
    analysis = analyze(render.mixture, base, model)
    for mode in CombineMode:
        cfg = _small_cfg(combine_mode=mode)
        fresh = enhance(render.mixture, cfg, model)
        shared = enhance(render.mixture, cfg, model, analysis)
        np.testing.assert_array_equal(shared.waveform.samples, fresh.waveform.samples)
        np.testing.assert_array_equal(shared.final_mask.values, fresh.final_mask.values)
        assert shared.em is analysis.em


def _scaled(mixture, scale):
    return MultichannelWaveform.from_array(mixture.as_array() * scale,
                                           mixture.sample_rate)


@pytest.fixture(scope="module")
def unscaled_probe_output(level_probe):
    render, cfg = level_probe
    return enhance(render.mixture, cfg).waveform.samples


@pytest.mark.parametrize("k", [-200, -100, -60, 100, 200])
def test_enhance_without_model_does_not_depend_on_the_input_level(
        level_probe, unscaled_probe_output, k):
    # EM, the covariances and the beamformer all scale exactly with a
    # power of two at these levels, so the waveform scales with the input.
    render, cfg = level_probe
    got = enhance(_scaled(render.mixture, 2.0 ** k), cfg).waveform.samples
    np.testing.assert_array_equal(got, unscaled_probe_output * 2.0 ** k)


@pytest.mark.parametrize("k", [505, 510])
def test_enhance_reports_overflowing_covariances(level_probe, k):
    # EM fits at any level whose STFT bins are normal; the covariances'
    # products overflow first and fail at their own stage.
    render, cfg = level_probe
    with pytest.raises(NumericalError,
                       match="^stage 'covariance': covariances overflow float64"):
        enhance(_scaled(render.mixture, 2.0 ** k), cfg)


@pytest.mark.parametrize("k", [1020, 1023])
def test_enhance_reports_an_overflowing_stft(level_probe, k):
    # The samples are finite, but their transform overflows float64: a
    # numerical failure of the STFT, raised without a RuntimeWarning.
    render, cfg = level_probe
    with pytest.raises(NumericalError,
                       match="^stage 'stft': spectrogram overflows float64"):
        enhance(_scaled(render.mixture, 2.0 ** k), cfg)


def test_config_digest_tracks_content():
    assert _small_cfg().digest() == _small_cfg().digest()
    assert _small_cfg().digest() != _small_cfg(reference_channel=1).digest()
    # Digests are written into score CSVs and mask files.
    assert PipelineConfig().digest() == "83f270d38412"
    assert PipelineConfig(messl=MesslConfig(reference_channel=1)).digest() == "7e1cf3b99c57"


def test_reference_channel_has_one_owner(tmp_path):
    """messl.reference_channel set in code and ref_channel read from YAML
    are the same setting: one digest, one output, and EM and the
    beamformer both take it."""
    scene = render_scene(random_scene_spec(np.random.default_rng(40), n_channels=3,
                                           duration=0.4, n_interferers=1))
    in_code = PipelineConfig(messl=MesslConfig(reference_channel=1))
    path = tmp_path / "ref.yml"
    path.write_text("ref_channel: 1\n")
    from_yaml = pipeline.pipeline_config_from_dict(load_config(str(path)))
    assert "reference_channel" not in {f.name for f in dataclasses.fields(PipelineConfig)}
    assert in_code.reference_channel == from_yaml.reference_channel == 1
    assert in_code.digest() == from_yaml.digest()
    a = enhance(scene.mixture, in_code)
    b = enhance(scene.mixture, from_yaml)
    np.testing.assert_array_equal(a.waveform.samples, b.waveform.samples)
    np.testing.assert_array_equal(a.final_mask.values, b.final_mask.values)
    for result in (a, b):
        assert result.em.pair_channels == (0, 2)
        assert result.weights.reference_channel == 1


def test_config_validation():
    for threshold in (5.0, np.nan, 1.0):
        with pytest.raises(DataError, match="messl_binarize_threshold"):
            PipelineConfig(messl_binarize_threshold=threshold)
    with pytest.raises(DataError, match="seg_frame"):
        dataclasses.replace(PipelineConfig(), seg_frame=0)
    with pytest.raises(DataError, match="reference_channel = -1: must be at least 0"):
        MesslConfig(reference_channel=-1)


def _scene_spec(**kwargs) -> SceneSpec:
    source = SourceSpec(Waveform(np.ones(8), 16000), delays=(0.0, 0.0), gains=(1.0, 1.0))
    return SceneSpec(sources=(source,), **{"n_channels": 2, "sample_rate": 16000, **kwargs})


@pytest.mark.parametrize("build, name, value", [
    (StftConfig, "window_size", 2.5),
    (StftConfig, "hop_size", 2.5),
    (MesslConfig, "n_sources", 2.5),
    (MesslConfig, "n_iterations", 2.5),
    (MesslConfig, "reference_channel", 2.5),
    (MesslConfig, "target_source", 2.5),
    (PipelineConfig, "seg_frame", 2.5),
    (TrainSettings, "max_epochs", 2.5),
    (TrainSettings, "patience", 2.5),
    (TrainSettings, "seed", 2.5),
    (_scene_spec, "n_channels", 2.5),
    (_scene_spec, "sample_rate", 2.5),
    (_scene_spec, "seed", 2.5),
    (EnhancerConfig, "layer_sizes", (2.5,)),
])
def test_integer_fields_reject_fractions(build, name, value):
    with pytest.raises(DataError, match=f"{name} = .*2.5.*: not an integer"):
        build(**{name: value})


def test_integral_fields_store_as_ints():
    hop = StftConfig(window_size=64, hop_size=16.0)
    assert type(hop.hop_size) is int and hop == SMALL
    messl = MesslConfig(reference_channel=np.int64(1), target_source=0.0)
    assert (type(messl.reference_channel), type(messl.target_source)) == (int, int)
    assert config_hash(messl) == config_hash(MesslConfig(reference_channel=1, target_source=0))
    with pytest.raises(dataclasses.FrozenInstanceError):
        PipelineConfig().messl_binarize_threshold = 5.0
    assert PipelineConfig(messl_binarize_threshold=0.0).messl_binarize_threshold == 0.0


# -------------------------------------------------------- evaluate_scene

def test_evaluate_scene_perfect_estimate(render):
    target = render.per_source_images[0].channel(0)
    scores = evaluate_scene(target, render)
    assert scores.sdr > 60.0
    assert scores.seg_snr == 35.0


@pytest.mark.parametrize("n_sources", [1, 2])
def test_scene_without_diffuse_noise_is_scored(tmp_path, n_sources):
    sources = "".join(f"  - {{duration: 0.4, delays: [0.0, {1.5 * (i + 1)}]}}\n"
                      for i in range(n_sources))
    config = tmp_path / "scene.yml"
    config.write_text("n_channels: 2\nseed: 4\nsources:\n" + sources)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 0
    scene_dir = str(tmp_path / "scene_000")
    render = load_render(scene_dir)
    assert not render.noise_image.as_array().any()

    estimate = enhance(render.mixture, _small_cfg()).waveform
    scores = evaluate_scene(estimate, render)
    n = min(len(estimate), render.mixture.n_samples)

    def trim(wave):
        return Waveform(samples=wave.samples[:n], sample_rate=wave.sample_rate)
    expected = bss_eval(trim(estimate), trim(render.per_source_images[0].channel(0)),
                        [trim(img.channel(0)) for img in render.per_source_images[1:]])
    assert (scores.sdr, scores.sir, scores.sar) == (expected.sdr, expected.sir,
                                                    expected.sar)
    rows = run_experiment({"scenes": [scene_dir], "stft": {"window_size": 64},
                           "messl": {"n_iterations": 2}})
    assert [row["error"] for row in rows] == [""]
    estimate_path = str(tmp_path / "estimate.wav")
    write_wav(estimate_path, estimate)
    assert main(["evaluate", "--input", estimate_path, "--scene", scene_dir]) == 0


def test_evaluate_scene_trims_longer_estimate(render):
    result = enhance(render.mixture, _small_cfg())
    scores = evaluate_scene(result.waveform, render)
    assert np.isfinite(scores.sdr)
    assert -10.0 <= scores.seg_snr <= 35.0


# ---------------------------------------------------------- experiments

def _write_scenes(root, n=2):
    dirs = []
    for i in range(n):
        spec = random_scene_spec(
            np.random.default_rng(100 + i), n_channels=2, duration=0.4,
            snr_db=10.0,
        )
        scene_dir = os.path.join(root, f"scene_{i:03d}")
        save_render(render_scene(spec), scene_dir)
        dirs.append(scene_dir)
    return dirs


def _manifest(dirs) -> dict:
    return {
        "scenes": list(dirs),
        "combine_modes": ["avg", "max"],
        "stft": {"window_size": 64, "hop_size": 16},
        "messl": {"n_iterations": 4, "max_delay": 4.0, "grid_step": 0.5},
    }


def test_run_experiment_scores_every_pair(tmp_path):
    dirs = _write_scenes(str(tmp_path), n=2)
    out = str(tmp_path / "scores.csv")
    rows = run_experiment(_manifest(dirs), out_csv=out)
    assert len(rows) == 4
    assert all(row["error"] == "" for row in rows)
    assert {row["mode"] for row in rows} == {"avg", "max"}
    with open(out) as handle:
        first = handle.readline()
        header = handle.readline()
    assert first.startswith("# config_hash=")
    assert header.strip() == "scene,mode,sdr,sir,sar,seg_snr,error"


def test_run_experiment_runs_the_combine_mode_it_digests(tmp_path):
    # Without combine_modes an experiment runs the one mode that its
    # combine key sets, the mode of the config its CSV header names.
    dirs = _write_scenes(str(tmp_path), n=1)
    manifest = {**_manifest(dirs), "combine": "max"}
    del manifest["combine_modes"]
    out = tmp_path / "scores.csv"
    rows = run_experiment(manifest, out_csv=str(out))
    assert [(row["mode"], row["error"]) for row in rows] == [("max", "")]
    digest = pipeline.pipeline_config_from_dict(manifest).digest()
    assert digest != pipeline.pipeline_config_from_dict(_manifest(dirs)).digest()
    assert out.read_text().splitlines()[0] == f"# config_hash={digest}"


def test_run_experiment_records_errors_and_continues(tmp_path):
    dirs = _write_scenes(str(tmp_path), n=1)
    manifest = _manifest([str(tmp_path / "missing"), dirs[0]])
    rows = run_experiment(manifest)
    assert len(rows) == 4
    bad = [r for r in rows if r["scene"] == "missing"]
    good = [r for r in rows if r["scene"] != "missing"]
    assert all(r["error"] != "" and r["sdr"] == "" for r in bad)
    assert all(r["error"] == "" and r["sdr"] != "" for r in good)


def _count_run_em(monkeypatch) -> list:
    calls = []
    real = pipeline.run_em

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "run_em", counted)
    return calls


def test_run_experiment_analyzes_each_scene_once(tmp_path, monkeypatch):
    dirs = _write_scenes(str(tmp_path), n=2)
    model_path = str(tmp_path / "net.model")
    model = init_model(EnhancerConfig(layer_sizes=(4,)), SMALL.n_freq,
                       FeatureStats(mean=np.zeros(SMALL.n_freq),
                                    std=np.ones(SMALL.n_freq)), seed=2)
    save_model(model, model_path)
    manifest = dict(_manifest(dirs), combine_modes=["avg", "max", "lstm"],
                    model=model_path)
    calls = _count_run_em(monkeypatch)
    rows = run_experiment(manifest)
    assert len(calls) == len(dirs)

    base = pipeline.pipeline_config_from_dict(manifest)
    expected = []
    for scene_dir in dirs:
        scene = load_render(scene_dir)
        for mode in manifest["combine_modes"]:
            cfg = dataclasses.replace(base, combine_mode=CombineMode.parse(mode))
            result = enhance(scene.mixture, cfg, model)
            scores = evaluate_scene(result.waveform, scene,
                                    cfg.reference_channel, cfg.seg_frame)
            expected.append(score_row(os.path.basename(scene_dir), mode, scores))
    assert rows == expected


def test_run_experiment_failed_analysis_gives_row_per_mode(tmp_path, monkeypatch):
    spec = random_scene_spec(np.random.default_rng(7), n_channels=2, duration=0.4)
    scene = render_scene(spec)
    silent = dataclasses.replace(scene, mixture=MultichannelWaveform.from_array(
        np.zeros((2, scene.mixture.n_samples)), scene.mixture.sample_rate))
    scene_dir = str(tmp_path / "silent")
    save_render(silent, scene_dir)
    manifest = dict(_manifest([scene_dir]), combine_modes=["avg", "max", "min"])
    with pytest.raises(NumericalError, match="^stage 'spatial_em': ") as info:
        enhance(silent.mixture, pipeline.pipeline_config_from_dict(manifest))
    calls = _count_run_em(monkeypatch)
    rows = run_experiment(manifest)
    assert len(calls) == 1
    assert rows == [score_row("silent", mode, error=str(info.value))
                    for mode in ("avg", "max", "min")]
    assert all(row["sdr"] == "" for row in rows)


def test_score_row_format():
    scores = EvalScores(sdr=1.23456, sir=-2.0, sar=100.0, seg_snr=0.00004)
    assert score_row("s", "avg", scores) == {
        "scene": "s", "mode": "avg", "sdr": "1.2346", "sir": "-2.0000",
        "sar": "100.0000", "seg_snr": "0.0000", "error": ""}
    assert score_row("s", "max", error=ValueError("boom")) == {
        "scene": "s", "mode": "max", "sdr": "", "sir": "", "sar": "",
        "seg_snr": "", "error": "boom"}


def test_run_experiment_empty_manifest():
    assert run_experiment({"scenes": []}) == []


def test_write_score_csv_round_trip(tmp_path):
    path = str(tmp_path / "one.csv")
    row = {"scene": "s", "mode": "avg", "sdr": "1.0", "sir": "2.0",
           "sar": "3.0", "seg_snr": "4.0", "error": ""}
    write_score_csv([row], path, "deadbeef")
    lines = (tmp_path / "one.csv").read_text().splitlines()
    assert lines[0] == "# config_hash=deadbeef"
    assert lines[2].startswith("s,avg,1.0")


# --------------------------------------------------------------- configs

def test_load_config_reads_mappings_only(tmp_path):
    path = tmp_path / "c.yml"
    path.write_text("")
    assert pipeline.load_config(str(path)) == {}
    path.write_text("stft: {window_size: 64}\n")
    assert pipeline.load_config(path) == {"stft": {"window_size": 64}}
    assert pipeline.load_config({"a": 1}) == {"a": 1}
    for bad in ("- 1\n", "a: [\n"):
        path.write_text(bad)
        with pytest.raises(DataError):
            pipeline.load_config(path)
    with pytest.raises(DataError, match="mapping"):
        run_experiment([{"scenes": []}])


def test_missing_required_key_is_data_error():
    with pytest.raises(DataError, match="missing 'scenes'"):
        pipeline.training_config_from_dict({})
    assert pipeline.pipeline_config_from_dict(
        {"messl": {"use_garbage": False}}).messl.use_garbage is False


def test_integral_values_read_as_ints():
    cfg = pipeline.pipeline_config_from_dict(
        {"ref_channel": 1.0, "seg_frame": "128", "messl": {"n_iterations": 3.0}})
    assert (cfg.reference_channel, cfg.seg_frame, cfg.messl.n_iterations) == (1, 128, 3)
    assert all(type(v) is int for v in (cfg.reference_channel, cfg.seg_frame,
                                         cfg.messl.n_iterations))


def test_training_config_defaults():
    scenes, net, settings, holdout, all_channels = (
        pipeline.training_config_from_dict({"scenes": "data"})
    )
    assert scenes == "data"
    assert net == EnhancerConfig(layer_sizes=(64,), merge_mode="average",
                                 output_activation="sigmoid",
                                 target_kind=TargetKind.IA)
    assert settings == TrainSettings(learning_rate=1e-3, max_epochs=30,
                                     patience=5, seed=0)
    assert holdout == 0.2 and all_channels is False
    assert pipeline.training_config_from_dict(
        {"scenes": "data", "channels": "all"})[4] is True


@pytest.mark.parametrize("all_channels", [False, True])
def test_prepare_training_set_matches_hand_built(all_channels):
    renders = [
        render_scene(random_scene_spec(np.random.default_rng(40 + i), n_channels=3,
                                       duration=0.4, n_interferers=1))
        for i in range(2)
    ]
    cfg = _small_cfg(reference_channel=1, messl_binarize_threshold=0.5)
    kind = TargetKind.PS
    batches, stats = pipeline.prepare_training_set(renders, cfg, kind, all_channels)

    messl_cfg = dataclasses.replace(FAST_EM, reference_channel=1)
    prepared, noisy = [], []
    for scene in renders:
        specs = [stft(scene.mixture.channel(c), SMALL) for c in range(3)]
        mask = binarize(run_em(specs, messl_cfg).target_mask, 0.5)
        channels = range(3) if all_channels else [1]
        for c in channels:
            clean = stft(scene.per_source_images[0].channel(c), SMALL)
            prepared.append((specs[c], mask, clean))
            noisy.append(specs[c])
    expected_stats = FeatureStats.from_spectrograms(noisy)
    np.testing.assert_array_equal(stats.mean, expected_stats.mean)
    np.testing.assert_array_equal(stats.std, expected_stats.std)

    assert [len(scene) for scene in batches] == [3 if all_channels else 1] * 2
    flat = [batch for scene in batches for batch in scene]
    for batch, (spec, mask, clean) in zip(flat, prepared):
        want = build_batch(spec, mask, clean, expected_stats, kind)
        for name in ("inputs", "target", "noisy_mag"):
            np.testing.assert_array_equal(getattr(batch, name), getattr(want, name))


def test_prepare_training_set_feeds_the_inference_mask():
    """With a binarize threshold, training sees the binarized clustering
    mask that analyze() hands the enhancer, not the soft EM mask."""
    render = render_scene(random_scene_spec(np.random.default_rng(44), n_channels=2,
                                            duration=0.4, n_interferers=1))
    cfg = _small_cfg(messl_binarize_threshold=0.5)
    batches, _ = pipeline.prepare_training_set([render], cfg, TargetKind.IA)
    analysis = analyze(render.mixture, cfg)
    np.testing.assert_array_equal(batches[0][0].inputs[:, SMALL.n_freq:],
                                  logit_mask(analysis.messl_mask).T)
    assert not np.array_equal(analysis.messl_mask.values, analysis.em.target_mask.values)


# ------------------------------------------------------------------ CLI

@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    code = main([
        "simulate", "--out", str(root / "scenes"), "--n-scenes", "2",
        "--seed", "3", "--channels", "2", "--duration", "0.4",
    ])
    assert code == 0
    cfg = {
        "stft": {"window_size": 64, "hop_size": 16},
        "messl": {"n_iterations": 4, "max_delay": 4.0, "grid_step": 0.5},
    }
    cfg_path = root / "pipeline.yml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    return root


def test_cli_simulate_flags_expand_as_batch_config(tmp_path):
    flags = ["--n-scenes", "2", "--seed", "5", "--channels", "3",
             "--duration", "0.3", "--snr-db", "7", "--interferers", "1"]
    config = tmp_path / "batch.yml"
    config.write_text("batch: {n_scenes: 2, seed: 5, n_channels: 3, duration: 0.3,"
                      " snr_db: 7, n_interferers: 1}\n")
    assert main(["simulate", "--out", str(tmp_path / "flags"), *flags]) == 0
    assert main(["simulate", "--out", str(tmp_path / "config"),
                 "--config", str(config)]) == 0
    names = sorted(os.listdir(tmp_path / "flags"))
    assert names == ["scene_000", "scene_001"]
    for scene in names:
        files = sorted(os.listdir(tmp_path / "flags" / scene))
        assert files == sorted(os.listdir(tmp_path / "config" / scene))
        for name in files:
            assert ((tmp_path / "flags" / scene / name).read_bytes()
                    == (tmp_path / "config" / scene / name).read_bytes())


def test_cli_enhance_flags_read_as_config_keys(cli_workspace, tmp_path, capsys):
    doc = yaml.safe_load((cli_workspace / "pipeline.yml").read_text())
    doc_with_keys = {**doc, "ref_channel": 1, "combine": "max"}
    keys = tmp_path / "keys.yml"
    keys.write_text(yaml.safe_dump(doc_with_keys))
    flags = ["--config", str(cli_workspace / "pipeline.yml"),
             "--ref-channel", "1", "--combine", "max"]
    mixture = str(cli_workspace / "scenes" / "scene_000" / "mixture.wav")
    for name, args in (("flags", flags), ("keys", ["--config", str(keys)])):
        assert main(["enhance", "--input", mixture, "--out", str(tmp_path / name),
                     "--dump-masks", str(tmp_path / f"{name}_masks"), *args]) == 0
    outputs = ["", *(f"_masks/{m}" for m in os.listdir(tmp_path / "flags_masks"))]
    assert len(outputs) == 3
    for suffix in outputs:
        flag_bytes = (tmp_path / f"flags{suffix}").read_bytes()
        assert flag_bytes == (tmp_path / f"keys{suffix}").read_bytes(), suffix
    digest = pipeline.pipeline_config_from_dict(doc_with_keys).digest()
    header = f"\nconfig {digest}\n".encode()
    assert header in (tmp_path / "flags_masks" / "final.mask").read_bytes()
    capsys.readouterr()
    assert main(["enhance", "--input", mixture, "--out", str(tmp_path / "x.wav"),
                 *flags[:2], "--combine", "median"]) == 2
    err = capsys.readouterr().err
    assert "combine mode" in err and "Traceback" not in err


@pytest.mark.parametrize("flags, key", [
    (["--n-scenes", "0"], "n_scenes"),
    (["--n-scenes", "-1"], "n_scenes"),
    (["--interferers", "-1"], "n_interferers"),
    (["--seed", "-1"], "seed"),
    (["--duration", "nan"], "duration"),
])
def test_cli_simulate_flags_share_the_batch_checks(tmp_path, capsys, flags, key):
    code = main(["simulate", "--out", str(tmp_path / "out"), *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert key in err and "Traceback" not in err


def test_cli_enhance_output_scales_with_a_quiet_float32_input(level_probe, tmp_path):
    render, cfg = level_probe
    config = tmp_path / "probe.yml"
    config.write_text(yaml.safe_dump({
        "stft": {"window_size": cfg.stft.window_size, "hop_size": cfg.stft.hop_size},
        "messl": {"n_sources": cfg.messl.n_sources,
                  "n_iterations": cfg.messl.n_iterations},
    }))
    # Scaling the quiet float32 samples back up is exact, so the two files
    # differ by the factor 2**-100 alone.
    quiet = _scaled(render.mixture, 2.0 ** -100).as_array().astype(np.float32)
    outputs = {}
    for name, samples in (("quiet", quiet), ("loud", quiet * np.float32(2.0 ** 100))):
        mixture = tmp_path / f"{name}.wav"
        write_wav(mixture, MultichannelWaveform.from_array(samples, render.mixture.sample_rate))
        out = tmp_path / f"{name}_out.wav"
        assert main(["enhance", "--input", str(mixture), "--out", str(out),
                     "--config", str(config)]) == 0
        outputs[name] = read_wav(out).channel(0).samples
    np.testing.assert_array_equal(outputs["quiet"], outputs["loud"] * 2.0 ** -100)


def test_cli_usage_errors():
    assert main(["no-such-command"]) == 1
    assert main(["enhance"]) == 1
    assert main([]) == 1


def test_cli_enhance_and_evaluate(cli_workspace, capsys):
    root = cli_workspace
    scene = str(root / "scenes" / "scene_000")
    out_wav = str(root / "est.wav")
    code = main([
        "enhance", "--input", os.path.join(scene, "mixture.wav"),
        "--out", out_wav, "--config", str(root / "pipeline.yml"),
    ])
    assert code == 0
    assert os.path.exists(out_wav)
    code = main([
        "evaluate", "--input", out_wav, "--scene", scene,
        "--config", str(root / "pipeline.yml"),
        "--out", str(root / "eval.csv"),
    ])
    assert code == 0
    assert "sdr" in capsys.readouterr().out
    assert (root / "eval.csv").read_text().startswith("# config_hash=")


def test_cli_messl_writes_mask(cli_workspace):
    root = cli_workspace
    scene = str(root / "scenes" / "scene_001")
    out = str(root / "clustering.mask")
    code = main([
        "messl", "--input", os.path.join(scene, "mixture.wav"),
        "--out", out, "--config", str(root / "pipeline.yml"),
    ])
    assert code == 0
    assert os.path.getsize(out) > 0


def _dumped_masks(directory):
    """Each dumped mask by name, with the config line of its header."""
    dumped = {}
    for name in os.listdir(directory):
        path = os.path.join(directory, name)
        with open(path, "rb") as handle:
            head = handle.read().split(b"end\n", 1)[0].decode()
        config = [line for line in head.splitlines() if line.startswith("config ")]
        dumped[name] = load_mask(path), config
    return dumped


def _workspace_digest(root):
    return pipeline.pipeline_config_from_dict(load_config(str(root / "pipeline.yml"))).digest()


def test_cli_messl_dump_masks_read_back(cli_workspace, tmp_path):
    root = cli_workspace
    out = tmp_path / "target.mask"
    assert main(["messl", "--input", str(root / "scenes" / "scene_001" / "mixture.wav"),
                 "--out", str(out), "--config", str(root / "pipeline.yml"),
                 "--dump-masks", str(tmp_path / "masks")]) == 0
    dumped = _dumped_masks(tmp_path / "masks")
    assert sorted(dumped) == ["component_00.mask", "component_01.mask"]
    digest = _workspace_digest(root)
    for mask, config in dumped.values():
        assert config == [f"config {digest}"]
    total = sum(mask.values for mask, _ in dumped.values())
    np.testing.assert_allclose(total, 1.0, atol=1e-6)
    target = load_mask(str(out)).values
    assert any(np.array_equal(target, mask.values) for mask, _ in dumped.values())


def test_cli_enhance_dump_masks_read_back(cli_workspace, tmp_path):
    root = cli_workspace
    assert main(["enhance", "--input", str(root / "scenes" / "scene_001" / "mixture.wav"),
                 "--out", str(tmp_path / "out.wav"), "--config", str(root / "pipeline.yml"),
                 "--dump-masks", str(tmp_path / "masks")]) == 0
    dumped = _dumped_masks(tmp_path / "masks")
    assert sorted(dumped) == ["clustering.mask", "final.mask"]   # no model, no enhanced mask
    digest = _workspace_digest(root)
    for mask, config in dumped.values():
        assert config == [f"config {digest}"]
        assert mask.values.shape == dumped["final.mask"][0].values.shape
        assert mask.values.shape[0] == SMALL.n_freq
        assert 0.0 <= mask.values.min() and mask.values.max() <= 1.0


def test_cli_experiment(cli_workspace):
    root = cli_workspace
    manifest = {
        "scenes": [str(root / "scenes" / "scene_000"),
                   str(root / "scenes" / "scene_001")],
        "combine_modes": ["avg"],
        "stft": {"window_size": 64, "hop_size": 16},
        "messl": {"n_iterations": 4, "max_delay": 4.0, "grid_step": 0.5},
    }
    path = root / "experiment.yml"
    path.write_text(yaml.safe_dump(manifest))
    out = str(root / "scores.csv")
    assert main(["experiment", "--config", str(path), "--out", out]) == 0
    lines = (root / "scores.csv").read_text().splitlines()
    assert len(lines) == 4  # comment, header, two rows


def test_cli_train_and_enhance_with_model(cli_workspace):
    root = cli_workspace
    train_cfg = {
        "scenes": str(root / "scenes"),
        "stft": {"window_size": 64, "hop_size": 16},
        "messl": {"n_iterations": 3, "max_delay": 4.0, "grid_step": 0.5},
        "layer_sizes": [6],
        "max_epochs": 2,
        "patience": 2,
        "learning_rate": 0.01,
    }
    cfg_path = root / "train.yml"
    cfg_path.write_text(yaml.safe_dump(train_cfg))
    model_path = str(root / "net.model")
    code = main(["train", "--config", str(cfg_path), "--out", model_path])
    assert code == 0
    assert os.path.exists(model_path)
    assert os.path.exists(model_path + ".history.csv")

    scene = str(root / "scenes" / "scene_000")
    out_wav = str(root / "est_model.wav")
    code = main([
        "enhance", "--input", os.path.join(scene, "mixture.wav"),
        "--out", out_wav, "--config", str(root / "pipeline.yml"),
        "--model", model_path, "--combine", "avg",
    ])
    assert code == 0
    assert os.path.exists(out_wav)


def test_cli_train_numeric_exit_when_weights_overflow_float32(cli_workspace, tmp_path):
    train_cfg = {
        "scenes": str(cli_workspace / "scenes"),
        "stft": {"window_size": 64, "hop_size": 16},
        "messl": {"n_iterations": 3, "max_delay": 4.0, "grid_step": 0.5},
        "layer_sizes": [6],
        "max_epochs": 3,
        "learning_rate": 1e39,
    }
    cfg_path = tmp_path / "train.yml"
    cfg_path.write_text(yaml.safe_dump(train_cfg))
    model_path = tmp_path / "net.model"
    code = main(["train", "--config", str(cfg_path), "--out", str(model_path)])
    assert code == 3
    assert not model_path.exists()
    assert not os.path.exists(str(model_path) + ".history.csv")


def test_cli_data_error_exit_code(cli_workspace, tmp_path):
    root = cli_workspace
    assert main([
        "enhance", "--input", str(tmp_path / "nope.wav"),
        "--out", str(tmp_path / "o.wav"),
    ]) == 2
    assert main([
        "evaluate", "--input", str(root / "est.wav"),
        "--scene", str(tmp_path / "not_a_scene"),
    ]) == 2


@pytest.mark.parametrize("manifest", [
    "- 1\n",
    "mixture: 5\nsources: [a.wav]\nnoise: b.wav\n",
    "mixture: a.wav\nsources: a.wav\nnoise: b.wav\n",
    "mixture: a.wav\nsources: [a.wav]\n",
    "mixture: [a.wav\n",
])
def test_cli_evaluate_malformed_scene_manifest(tmp_path, capsys, manifest):
    estimate = str(tmp_path / "est.wav")
    write_wav(estimate, MultichannelWaveform.from_array(np.ones((1, 800)), 16000))
    scene = tmp_path / "scene"
    scene.mkdir()
    (scene / "manifest.yaml").write_text(manifest)
    code = main(["evaluate", "--input", estimate, "--scene", str(scene)])
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_cli_evaluate_reference_channel_out_of_range(cli_workspace, capsys):
    scene = str(cli_workspace / "scenes" / "scene_000")
    code = main(["evaluate", "--input", os.path.join(scene, "mixture.wav"),
                 "--scene", scene, "--ref-channel", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "out of range" in err and "Traceback" not in err


def test_cli_experiment_truncated_model_is_data_error(cli_workspace, tmp_path,
                                                      capsys):
    model_path = tmp_path / "cut.model"
    model_path.write_bytes(MODEL_MAGIC + b"\x10\x00")   # cut in the header length
    manifest = {
        "scenes": [str(cli_workspace / "scenes" / "scene_000")],
        "combine_modes": ["avg"],
        "model": str(model_path),
        "stft": {"window_size": 64, "hop_size": 16},
        "messl": {"n_iterations": 4, "max_delay": 4.0, "grid_step": 0.5},
    }
    path = tmp_path / "experiment.yml"
    path.write_text(yaml.safe_dump(manifest))
    code = main(["experiment", "--config", str(path),
                 "--out", str(tmp_path / "scores.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert "load_model" in err and "Traceback" not in err


def test_cli_experiment_model_stats_must_match_bins(cli_workspace, tmp_path,
                                                    capsys):
    model_path = tmp_path / "cut.model"
    save_model(_zero_model(33), model_path)
    blob = model_path.read_bytes()
    (size,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12:12 + size])
    header["stats"] = {"mean": [0.0] * 5, "std": [1.0] * 5}
    text = json.dumps(header).encode()
    model_path.write_bytes(blob[:8] + struct.pack("<I", len(text)) + text
                           + blob[12 + size:])
    manifest = {
        "scenes": [str(cli_workspace / "scenes" / "scene_000")],
        "model": str(model_path),
        "stft": {"window_size": 64, "hop_size": 16},
    }
    path = tmp_path / "experiment.yml"
    path.write_text(yaml.safe_dump(manifest))
    code = main(["experiment", "--config", str(path),
                 "--out", str(tmp_path / "scores.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"model file {model_path}: feature stats have 5 bins" in err
    assert "Traceback" not in err


def test_cli_numerical_error_exit_code(cli_workspace, tmp_path):
    silent = MultichannelWaveform.from_array(np.zeros((2, 8000)), 16000)
    path = str(tmp_path / "silent.wav")
    write_wav(path, silent)
    code = main([
        "enhance", "--input", path, "--out", str(tmp_path / "o.wav"),
        "--config", str(cli_workspace / "pipeline.yml"),
    ])
    assert code == 3


@pytest.mark.parametrize("command, doc, key", [
    ("experiment", "- scene_000\n- scene_001\n", "mapping"),
    ("enhance", "stft: 5\n", "stft"),
    ("experiment", "stft: 5\n", "stft"),
    ("enhance", "ref_channel: abc\n", "ref_channel"),
    ("experiment", "ref_channel: abc\n", "ref_channel"),
    ("enhance", "messl: {n_iterations: x}\n", "n_iterations"),
    ("experiment", "messl: {n_iterations: x}\n", "n_iterations"),
    ("enhance", "messl: {grid_step: 0}\n", "step"),
    ("enhance", "model: 5\n", "model"),
    ("experiment", "scenes: scene_000\n", "scenes"),
    ("train", "layer_sizes: 5\n", "layer_sizes"),
    ("train", "learning_rate: fast\n", "learning_rate"),
    ("train", "channels: both\n", "channels"),
    ("enhance", "messl: {use_garbage: 'false'}\n", "use_garbage"),
    ("simulate", "batch: 5\n", "batch"),
    ("simulate", "batch: {n_scenes: x}\n", "n_scenes"),
    ("simulate", "batch: {snr_db: [1, 2, 3]}\n", "snr_db"),
    ("simulate", "sources: 3\n", "sources"),
    ("simulate", "sources: [{kind: speechlike, duration: 0.1}]\n", "delays"),
    ("enhance", "ref_channel: 1.9\n", "ref_channel"),
    ("enhance", "seg_frame: 256.9\n", "seg_frame"),
    ("experiment", "messl: {n_iterations: 2.7}\n", "n_iterations"),
    ("train", "layer_sizes: [8.5]\n", "layer_sizes"),
    ("train", "max_epochs: 1.5\n", "max_epochs"),
    ("train", "seed: -1\n", "seed"),
    ("simulate", "batch: {n_scenes: 2.5}\n", "n_scenes"),
    ("enhance", "messl: {grid_step: 1.0e-300}\n", "candidates"),
    ("experiment", "messl: {max_delay: 2000, grid_step: 0.25}\n", "candidates"),
    ("train", "max_epochs: 0\n", "max_epochs"),
    ("train", "max_epochs: -3\n", "max_epochs"),
    ("train", "holdout_fraction: .nan\n", "holdout_fraction"),
    ("train", "holdout_fraction: .inf\n", "holdout_fraction"),
    ("train", "holdout_fraction: 1\n", "holdout_fraction"),
    ("simulate", "batch: {n_scenes: 0}\n", "n_scenes"),
    ("simulate", "batch: {n_scenes: -1}\n", "n_scenes"),
    ("simulate", "batch: {n_interferers: -1}\n", "n_interferers"),
    ("train", "learning_rate: -0.5\n", "learning_rate"),
    ("train", "learning_rate: .nan\n", "learning_rate"),
    ("train", "patience: -4\n", "patience"),
    ("train", "patience: 0\n", "patience"),
    ("experiment", "seg_frame: 0\n", "seg_frame"),
    ("experiment", "seg_frame: -5\n", "seg_frame"),
    ("enhance", "messl_binarize_threshold: 5.0\n", "messl_binarize_threshold"),
    ("enhance", "messl_binarize_threshold: .nan\n", "messl_binarize_threshold"),
    ("enhance", "messl_binarize_threshold: 1.0\n", "messl_binarize_threshold"),
    ("enhance", "messl: {grid_step: .inf}\n", "step"),
    ("enhance", "ref_channel: -1\n", "ref_channel"),
    ("experiment", "ref_channel: -1\n", "ref_channel"),
])
def test_cli_malformed_config_is_data_error(cli_workspace, tmp_path, capsys,
                                            command, doc, key):
    scenes = cli_workspace / "scenes"
    path = tmp_path / "bad.yml"
    path.write_text(doc + (f"scenes: {scenes}\n" if command == "train" else ""))
    extra = {"enhance": ["--input", str(scenes / "scene_000" / "mixture.wav")],
             "experiment": [], "train": [], "simulate": []}[command]
    code = main([command, "--config", str(path),
                 "--out", str(tmp_path / "out"), *extra])
    err = capsys.readouterr().err
    assert code == 2
    assert key in err and "Traceback" not in err


@pytest.mark.parametrize("command, doc, where, key", [
    ("simulate", "sources: [{duration: 0.1}]\n", "sources[0]", "delays"),
    ("simulate", "sources: [{duration: 0.1, delays: [0, 1]},"
                 " {duration: 0.1, delays: [0, .nan]}]\n", "sources[1]", "finite"),
    ("enhance", "messl: {n_iterations: x}\n", "messl", "n_iterations"),
    ("experiment", "stft: {window_size: 0}\n", "stft", "window_size"),
    ("simulate", "- 1\n", "bad.yml", "mapping"),
    ("simulate", "batch: {n_scenes: 0}\n", "batch", "n_scenes"),
    ("enhance", "messl: {convergence_tol: -1}\n", "messl", "convergence_tol"),
    ("experiment", "messl: {n_sources: 2, max_delay: 0.1}\n", "messl", "2 sources"),
])
def test_cli_config_errors_name_their_section(cli_workspace, tmp_path, capsys,
                                              command, doc, where, key):
    scenes = cli_workspace / "scenes"
    path = tmp_path / "bad.yml"
    path.write_text(doc)
    extra = ["--input", str(scenes / "scene_000" / "mixture.wav")] \
        if command == "enhance" else []
    code = main([command, "--config", str(path),
                 "--out", str(tmp_path / "out"), *extra])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{where}: " in err and key in err and "Traceback" not in err


def test_cli_evaluate_names_a_malformed_manifest(cli_workspace, tmp_path, capsys):
    scene = tmp_path / "scene"
    shutil.copytree(cli_workspace / "scenes" / "scene_000", scene)
    (scene / "manifest.yaml").write_text("mixture: mixture.wav\nsources: [3]\n")
    code = main(["evaluate", "--input", str(scene / "mixture.wav"),
                 "--scene", str(scene)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"scene manifest {scene / 'manifest.yaml'}: " in err
    assert "Traceback" not in err


# ------------------------------------------------------- error contract

# A RIFF/WAVE header and one chunk that scipy does not know: no 'fmt '.
NO_FMT_WAV = b"RIFF\x10\0\0\0WAVEjunkjunkjunk"

CONTRACT_CASES = [
    "enhance too short", "enhance silent", "enhance reference channel",
    "load_model junk header", "load_mask junk shape", "load_config broken YAML",
    "read_wav junk bytes", "read_wav no format chunk", "read_wav directory",
]


def _contract_cases(render, tmp_path, workspace):
    """{case: (library call, class, location, foreign cause, CLI arguments,
    exit code)}. The location starts the message; the foreign cause is the
    class of the exception at the root of the __cause__ chain (None when a
    library error is raised again). An OSError is located by its filename,
    and load_mask has no CLI command."""
    rate = render.mixture.sample_rate
    scene_wav = str(workspace / "scenes" / "scene_000" / "mixture.wav")

    def wav(name, samples):
        wave = MultichannelWaveform.from_array(samples, rate)
        write_wav(str(tmp_path / name), wave)
        return wave, str(tmp_path / name)

    def junk(name, blob):
        (tmp_path / name).write_bytes(blob)
        return str(tmp_path / name)

    def cli(wav_path, *flags, config=str(workspace / "pipeline.yml")):
        return ["enhance", "--input", wav_path, "--out", str(tmp_path / "out.wav"),
                "--config", config, *flags]

    short, short_wav = wav("short.wav", render.mixture.as_array()[:, :8])
    silent, silent_wav = wav("silent.wav", np.zeros_like(render.mixture.as_array()))
    model = junk("junk.model", MODEL_MAGIC + struct.pack("<I", 5) + b"junk!")
    mask = junk("junk.mask", MASK_MAGIC + b"\nshape a b\nconfig -\nend\n")
    config = junk("broken.yml", b"stft: [64\n")
    bad_wav = junk("junk.wav", b"not a RIFF file at all")
    no_fmt = junk("no_fmt.wav", NO_FMT_WAV)
    folder = str(tmp_path)
    return {
        "enhance too short": (
            lambda: enhance(short, _small_cfg()), DataError, "stage 'stft'",
            None, cli(short_wav), 2),
        "enhance silent": (
            lambda: enhance(silent, _small_cfg()), NumericalError,
            "stage 'spatial_em'", None, cli(silent_wav), 3),
        "enhance reference channel": (
            lambda: enhance(render.mixture, _small_cfg(reference_channel=2)),
            DataError, "stage 'spatial_em'", None,
            cli(scene_wav, "--ref-channel", "2"), 2),
        "load_model junk header": (
            lambda: load_model(model), DataError,
            f"model file {model}: malformed header", json.JSONDecodeError,
            cli(scene_wav, "--model", model), 2),
        "load_mask junk shape": (
            lambda: load_mask(mask), DataError, f"malformed mask header in {mask}",
            ValueError, None, None),
        "load_config broken YAML": (
            lambda: load_config(config), DataError,
            f"config {config} is not valid YAML", yaml.YAMLError,
            cli(scene_wav, config=config), 2),
        "read_wav junk bytes": (
            lambda: read_wav(bad_wav), DataError, f"cannot read WAV file {bad_wav}",
            ValueError, cli(bad_wav), 2),
        "read_wav no format chunk": (
            lambda: read_wav(no_fmt), DataError, f"cannot read WAV file {no_fmt}",
            None, cli(no_fmt), 2),
        "read_wav directory": (
            lambda: read_wav(folder), IsADirectoryError, folder, None,
            cli(folder), 2),
    }


@pytest.mark.parametrize("case", CONTRACT_CASES)
def test_malformed_input_raises_its_documented_class(render, cli_workspace, tmp_path,
                                                     capsys, case):
    call, kind, where, cause, argv, code = _contract_cases(
        render, tmp_path, cli_workspace)[case]
    with pytest.raises(Exception) as info:
        call()
    exc = info.value
    assert type(exc) is kind
    if issubclass(kind, OSError):
        assert exc.filename == where
    else:
        assert str(exc).startswith(f"{where}: ")
        root = exc
        while root.__cause__ is not None:
            root = root.__cause__
        if cause is None:
            assert root is not exc and type(root) is kind
        else:
            assert isinstance(root, cause)
            assert not isinstance(root, (DataError, NumericalError))
    if argv is not None:
        assert main(argv) == code
        err = capsys.readouterr().err
        assert where in err and "Traceback" not in err


def test_cli_wav_without_format_chunk_says_so_without_warning(tmp_path, capsys):
    path = tmp_path / "no_fmt.wav"
    path.write_bytes(NO_FMT_WAV)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["enhance", "--input", str(path), "--out", str(tmp_path / "o.wav")])
    err = capsys.readouterr().err
    assert code == 2 and caught == []
    assert f"cannot read WAV file {path}: no format ('fmt ') chunk" in err


# The working-memory bound the README states: enhance()'s traced peak per
# byte of float64 input, at 8 channels, 1024/256 and a 9-candidate EM grid.
PEAK_PER_INPUT_BYTE = 12.7


@pytest.mark.parametrize("seconds", [2.0, 4.0])
def test_enhance_peak_memory_per_input_byte(seconds):
    render = render_scene(random_scene_spec(
        np.random.default_rng(11), n_channels=8, duration=seconds,
        sample_rate=16000, n_interferers=1))
    cfg = PipelineConfig(
        stft=StftConfig(window_size=1024, hop_size=256),
        messl=MesslConfig(n_iterations=2, delay_grid=default_delay_grid(2.0, 0.5)),
    )
    input_bytes = render.mixture.n_channels * render.mixture.n_samples * 8
    tracemalloc.start()
    try:
        enhance(render.mixture, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ratio = peak / input_bytes
    assert ratio <= PEAK_PER_INPUT_BYTE, f"peak {peak / 1e6:.1f} MB, {ratio:.2f}x the input"
