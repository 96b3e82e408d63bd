"""Full-pipeline behavior, experiment loops, and the CLI surface."""

import dataclasses
import os

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
    StftConfig,
    TargetKind,
    TrainSettings,
    apply_mask,
    build_batch,
    enhance,
    evaluate_scene,
    init_model,
    istft,
    load_render,
    random_scene_spec,
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
from arraysep.errors import DataError, StageError
from arraysep.pipeline import analyze, score_row, write_score_csv
from arraysep.spatial_em import MesslConfig, MesslResult, default_delay_grid, run_em

SMALL = StftConfig(window_size=64, hop_size=16)
FAST_EM = MesslConfig(n_iterations=5, delay_grid=default_delay_grid(4.0, 0.5))


def _small_cfg(**kwargs) -> PipelineConfig:
    return PipelineConfig(stft=SMALL, messl=FAST_EM, **kwargs)


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
    with pytest.raises(StageError, match="stft") as info:
        enhance(short, _small_cfg())
    assert isinstance(info.value.original, DataError)


def test_silent_mixture_fails_numerically(render):
    silent = MultichannelWaveform.from_array(
        np.zeros((render.mixture.n_channels, render.mixture.n_samples)),
        render.mixture.sample_rate,
    )
    with pytest.raises(StageError, match="spatial_em") as info:
        enhance(silent, _small_cfg())
    assert isinstance(info.value.original, NumericalError)


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


def test_config_digest_tracks_content():
    assert _small_cfg().digest() == _small_cfg().digest()
    assert _small_cfg().digest() != _small_cfg(reference_channel=1).digest()


# -------------------------------------------------------- evaluate_scene

def test_evaluate_scene_perfect_estimate(render):
    target = render.per_source_images[0].channel(0)
    scores = evaluate_scene(target, render)
    assert scores.sdr > 60.0
    assert scores.seg_snr == 35.0


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
    with pytest.raises(StageError, match="spatial_em") as info:
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
    lines = open(path).read().splitlines()
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
        mask = run_em(specs, messl_cfg).target_mask
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
    assert open(root / "eval.csv").readline().startswith("# config_hash=")


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
    lines = open(out).read().splitlines()
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
