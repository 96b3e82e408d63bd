"""End-to-end enhancement dataflow and batch experiment loops.

Stage order: per-channel STFT, EM spatial clustering, optional recurrent
enhancement of every channel, cross-channel max fusion, combination with
the clustering mask, mask-driven covariances, MVDR, post filtering with the
same final mask, inverse STFT. Any stage failure is re-raised with the
stage name attached. Runs are deterministic for a fixed input and config;
a digest of the config is recorded in every output table.
"""

from __future__ import annotations

import csv
import dataclasses
import os
from dataclasses import dataclass, field

import numpy as np
import yaml

from .beamformer import beamform, estimate_covariances, mvdr_weights
from .enhancer import EnhancerModel, enhance_channels, load_model
from .errors import DataError, StageError
from .fusion import CombineMode, combine_masks, fuse_channels
from .metrics import bss_eval, seg_snr
from .scene import SceneRender, load_render
from .signal import (
    MaskGrid,
    MultichannelWaveform,
    Spectrogram,
    StftConfig,
    Waveform,
    apply_mask,
    istft,
    stft,
)
from .spatial_em import MesslConfig, binarize, run_em
from .util import config_hash


@dataclass
class PipelineConfig:
    """Everything the enhancement pipeline needs besides the audio."""

    stft: StftConfig = field(default_factory=StftConfig)
    messl: MesslConfig = field(default_factory=MesslConfig)
    combine_mode: CombineMode = CombineMode.AVG
    reference_channel: int = 0
    model_path: str | None = None
    messl_binarize_threshold: float | None = None
    seg_frame: int = 256

    def digest(self) -> str:
        return config_hash(self)


@dataclass
class EnhanceResult:
    """Pipeline output plus the intermediate products worth inspecting."""

    waveform: Waveform
    final_mask: MaskGrid
    messl_mask: MaskGrid
    enhanced_mask: MaskGrid | None
    weights: object
    beamformed: Spectrogram
    config_digest: str


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def enhance(
    mixture: MultichannelWaveform,
    cfg: PipelineConfig,
    model: EnhancerModel | None = None,
) -> EnhanceResult:
    """Run the full pipeline on one multichannel mixture.

    If neither a model instance nor cfg.model_path is given, the enhancer
    and fusion stages are skipped and the clustering mask drives the
    beamformer directly.
    """
    if model is None and cfg.model_path:
        model = _stage("load_model", load_model, cfg.model_path)

    specs = _stage(
        "stft",
        lambda: [stft(mixture.channel(c), cfg.stft) for c in range(mixture.n_channels)],
    )
    messl_cfg = dataclasses.replace(
        cfg.messl, reference_channel=cfg.reference_channel
    )
    em = _stage("spatial_em", run_em, specs, messl_cfg)
    messl_mask = em.target_mask
    if cfg.messl_binarize_threshold is not None:
        messl_mask = binarize(messl_mask, cfg.messl_binarize_threshold)

    enhanced = None
    if model is not None:
        channel_masks = _stage("enhancer", enhance_channels, model, specs, messl_mask)
        enhanced = _stage("fusion", fuse_channels, channel_masks)
        final = _stage(
            "combine", combine_masks, enhanced, messl_mask, cfg.combine_mode
        )
    else:
        final = messl_mask

    cov = _stage("covariance", estimate_covariances, specs, final)
    bw = _stage("mvdr", mvdr_weights, cov, cfg.reference_channel)
    beamformed = _stage("beamform", beamform, specs, bw)
    filtered = _stage("postfilter", apply_mask, final, beamformed)
    wave = _stage("istft", istft, filtered)
    return EnhanceResult(
        waveform=wave,
        final_mask=final,
        messl_mask=messl_mask,
        enhanced_mask=enhanced,
        weights=bw,
        beamformed=beamformed,
        config_digest=cfg.digest(),
    )


def evaluate_scene(
    estimate: Waveform,
    render: SceneRender,
    reference_channel: int = 0,
    seg_frame: int = 256,
):
    """Score an estimate against a render's exact references.

    The speech reference is the target-source image at the reference
    channel; interferer images and the noise image there act as noise
    references. Signals are trimmed to the shortest common length.
    """
    n = min(len(estimate), render.mixture.n_samples)
    def trim(wave):
        return Waveform(samples=wave.samples[:n], sample_rate=wave.sample_rate)
    speech = trim(render.per_source_images[0].channel(reference_channel))
    noises = [
        trim(img.channel(reference_channel)) for img in render.per_source_images[1:]
    ]
    noises.append(trim(render.noise_image.channel(reference_channel)))
    scores = bss_eval(trim(estimate), speech, noises)
    return dataclasses.replace(
        scores, seg_snr=seg_snr(trim(estimate), speech, seg_frame)
    )


def _stft_from_dict(d: dict) -> StftConfig:
    return StftConfig(
        window_size=int(d.get("window_size", 1024)),
        hop_size=int(d.get("hop_size", d.get("window_size", 1024) // 4)),
        window=d.get("window", "sqrt_hann"),
    )


def _messl_from_dict(d: dict) -> MesslConfig:
    kwargs = {}
    if "n_sources" in d:
        kwargs["n_sources"] = int(d["n_sources"])
    if "n_iterations" in d:
        kwargs["n_iterations"] = int(d["n_iterations"])
    if "max_delay" in d or "grid_step" in d:
        from .spatial_em import default_delay_grid

        kwargs["delay_grid"] = default_delay_grid(
            max_delay=float(d.get("max_delay", 8.0)),
            step=float(d.get("grid_step", 0.25)),
        )
    if "convergence_tol" in d:
        kwargs["convergence_tol"] = float(d["convergence_tol"])
    if "use_garbage" in d:
        kwargs["use_garbage"] = bool(d["use_garbage"])
    if "target_source" in d and d["target_source"] is not None:
        kwargs["target_source"] = int(d["target_source"])
    return MesslConfig(**kwargs)


def pipeline_config_from_dict(doc: dict) -> PipelineConfig:
    """Build a pipeline config from a parsed YAML mapping."""
    doc = doc or {}
    cfg = PipelineConfig(
        stft=_stft_from_dict(doc.get("stft", {})),
        messl=_messl_from_dict(doc.get("messl", {})),
        reference_channel=int(doc.get("ref_channel", 0)),
        model_path=doc.get("model"),
        seg_frame=int(doc.get("seg_frame", 256)),
    )
    if "combine" in doc:
        cfg.combine_mode = CombineMode.parse(str(doc["combine"]))
    if doc.get("messl_binarize_threshold") is not None:
        cfg.messl_binarize_threshold = float(doc["messl_binarize_threshold"])
    return cfg


EXPERIMENT_COLUMNS = ("scene", "mode", "sdr", "sir", "sar", "seg_snr", "error")


def run_experiment(manifest, out_csv=None) -> list:
    """Score every (scene, combine mode) pair listed in a manifest.

    The manifest is a mapping (or path to a YAML file) with keys: scenes
    (list of render directories), combine_modes, and optionally model,
    ref_channel, stft, messl, seg_frame. Scenes that fail to load or to
    process produce a row with the error recorded; the run continues.
    """
    if not isinstance(manifest, dict):
        with open(manifest) as handle:
            manifest = yaml.safe_load(handle) or {}
    base = pipeline_config_from_dict(manifest)
    modes = [CombineMode.parse(str(m)) for m in manifest.get("combine_modes", ["avg"])]
    scene_dirs = manifest.get("scenes", [])

    model = None
    if base.model_path:
        model = _stage("load_model", load_model, base.model_path)

    rows = []
    for scene_dir in scene_dirs:
        scene_id = os.path.basename(os.path.normpath(str(scene_dir)))
        try:
            render = load_render(scene_dir)
        except Exception as exc:
            for mode in modes:
                rows.append(
                    {
                        "scene": scene_id,
                        "mode": mode.value,
                        "sdr": "",
                        "sir": "",
                        "sar": "",
                        "seg_snr": "",
                        "error": str(exc),
                    }
                )
            continue
        for mode in modes:
            cfg = dataclasses.replace(base, combine_mode=mode)
            try:
                result = enhance(render.mixture, cfg, model)
                scores = evaluate_scene(
                    result.waveform, render, cfg.reference_channel, cfg.seg_frame
                )
                rows.append(
                    {
                        "scene": scene_id,
                        "mode": mode.value,
                        "sdr": f"{scores.sdr:.4f}",
                        "sir": f"{scores.sir:.4f}",
                        "sar": f"{scores.sar:.4f}",
                        "seg_snr": f"{scores.seg_snr:.4f}",
                        "error": "",
                    }
                )
            except Exception as exc:
                rows.append(
                    {
                        "scene": scene_id,
                        "mode": mode.value,
                        "sdr": "",
                        "sir": "",
                        "sar": "",
                        "seg_snr": "",
                        "error": str(exc),
                    }
                )
    if out_csv is not None:
        write_score_csv(rows, out_csv, base.digest())
    return rows


def write_score_csv(rows, path, digest: str) -> None:
    """Write experiment rows with the config digest in a comment line."""
    with open(path, "w", newline="") as handle:
        handle.write(f"# config_hash={digest}\n")
        writer = csv.DictWriter(handle, fieldnames=EXPERIMENT_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
