"""End-to-end enhancement dataflow, config documents, training-set
preparation and batch experiment loops.

Stage order: per-channel STFT, EM spatial clustering, optional recurrent
enhancement of every channel, cross-channel max fusion, combination with
the clustering mask, mask-driven covariances, MVDR, post filtering with the
same final mask, inverse STFT. A stage failure is raised as DataError or
NumericalError with "stage '<name>': " before its message (util._located).
Runs are deterministic for a fixed input and config; a digest of the
config is recorded in every output table.

The stages up to fusion do not depend on the combine mode; analyze() runs
them and enhance() runs the rest. run_experiment() therefore analyzes each
scene once and factors its scoring basis once, then runs enhance() and
evaluate_scene() per combine mode on those shared products.
"""

from __future__ import annotations

import csv
import dataclasses
import os
from dataclasses import dataclass, field

from .beamformer import beamform, estimate_covariances, mvdr_weights
from .enhancer import (
    EnhancerConfig,
    EnhancerModel,
    TrainSettings,
    build_batch,
    enhance_channels,
    load_model,
)
from .errors import DataError
from .fusion import CombineMode, combine_masks, fuse_channels
from .metrics import SEG_FRAME, ProjectionBasis, bss_eval, projection_basis, seg_snr
from .scene import SceneRender, load_render
from .signal import (
    FeatureStats,
    MaskGrid,
    MultichannelWaveform,
    Spectrogram,
    StftConfig,
    Waveform,
    apply_mask,
    istft,
    stft,
)
from .spatial_em import (
    MesslConfig,
    MesslResult,
    binarize,
    default_delay_grid,
    run_em,
)
from .targets import TargetKind
from .util import (
    _bool,
    _fraction,
    _given,
    _int,
    _int_fields,
    _int_tuple,
    _list,
    _located,
    _mapping,
    _one_of,
    _optional,
    _parsed,
    _string,
    _tuple_of,
    _value,
    config_hash,
    load_config,
)


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the enhancement pipeline needs besides the audio.

    The reference channel is messl.reference_channel: EM takes its phase
    differences against it, and the beamformer, the scoring references
    and the training targets all read it there.
    """

    stft: StftConfig = field(default_factory=StftConfig)
    messl: MesslConfig = field(default_factory=MesslConfig)
    combine_mode: CombineMode = CombineMode.AVG
    model_path: str | None = None
    messl_binarize_threshold: float | None = None
    seg_frame: int = SEG_FRAME

    def __post_init__(self):
        _int_fields(self, "seg_frame")
        threshold = self.messl_binarize_threshold
        if threshold is not None and not 0.0 <= threshold < 1.0:
            raise DataError(f"messl_binarize_threshold must be in [0, 1), got {threshold}")
        if self.seg_frame < 1:
            raise DataError(f"seg_frame must be at least 1, got {self.seg_frame}")

    @property
    def reference_channel(self) -> int:
        return self.messl.reference_channel

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
    em: MesslResult


@dataclass
class SceneAnalysis:
    """The combine-mode-independent products of one mixture: channel
    spectrograms, the EM result, the (optionally binarized) clustering mask
    and the fused enhanced mask (None without a model)."""

    specs: list
    em: MesslResult
    messl_mask: MaskGrid
    enhanced_mask: MaskGrid | None


def _stage(name, fn, *args):
    with _located(f"stage '{name}'"):
        return fn(*args)


def analyze(
    mixture: MultichannelWaveform,
    cfg: PipelineConfig,
    model: EnhancerModel | None = None,
) -> SceneAnalysis:
    """Run the stages that do not depend on cfg.combine_mode: STFT, EM,
    optional binarization, per-channel enhancement and fusion."""
    specs = _stage(
        "stft",
        lambda: [stft(mixture.channel(c), cfg.stft) for c in range(mixture.n_channels)],
    )
    em = _stage("spatial_em", run_em, specs, cfg.messl)
    messl_mask = em.target_mask
    if cfg.messl_binarize_threshold is not None:
        messl_mask = binarize(messl_mask, cfg.messl_binarize_threshold)

    enhanced = None
    if model is not None:
        channel_masks = _stage("enhancer", enhance_channels, model, specs, messl_mask)
        enhanced = _stage("fusion", fuse_channels, channel_masks)
    return SceneAnalysis(
        specs=specs, em=em, messl_mask=messl_mask, enhanced_mask=enhanced
    )


def enhance(
    mixture: MultichannelWaveform,
    cfg: PipelineConfig,
    model: EnhancerModel | None = None,
    analysis: SceneAnalysis | None = None,
) -> EnhanceResult:
    """Run the full pipeline on one multichannel mixture.

    If neither a model instance nor cfg.model_path is given, the enhancer
    and fusion stages are skipped and the clustering mask drives the
    beamformer directly. ``analysis``, when given, must be what
    analyze(mixture, cfg, model) returns for a config that differs at most
    in combine_mode; only the combination and the stages after it run.
    """
    if analysis is None:
        if model is None and cfg.model_path:
            model = _stage("load_model", load_model, cfg.model_path)
        analysis = analyze(mixture, cfg, model)

    specs = analysis.specs
    if analysis.enhanced_mask is not None:
        final = _stage(
            "combine", combine_masks, analysis.enhanced_mask,
            analysis.messl_mask, cfg.combine_mode,
        )
    else:
        final = analysis.messl_mask

    cov = _stage("covariance", estimate_covariances, specs, final)
    bw = _stage("mvdr", mvdr_weights, cov, cfg.reference_channel)
    beamformed = _stage("beamform", beamform, specs, bw)
    filtered = _stage("postfilter", apply_mask, final, beamformed)
    wave = _stage("istft", istft, filtered)
    return EnhanceResult(
        waveform=wave,
        final_mask=final,
        messl_mask=analysis.messl_mask,
        enhanced_mask=analysis.enhanced_mask,
        weights=bw,
        beamformed=beamformed,
        config_digest=cfg.digest(),
        em=analysis.em,
    )


def _references(render: SceneRender, reference_channel: int, n: int):
    """The speech and noise references at the reference channel, trimmed
    to n samples: the target-source image, then those interferer images
    and the noise image that are not all zero (no diffuse noise, say)."""
    def trim(wave):
        return Waveform(samples=wave.samples[:n], sample_rate=wave.sample_rate)
    images = (*render.per_source_images, render.noise_image)
    speech, *noises = (trim(img.channel(reference_channel)) for img in images)
    return speech, [noise for noise in noises if noise.samples.any()]


def scoring_basis(
    render: SceneRender, reference_channel: int, n: int
) -> ProjectionBasis:
    """The factored projection basis evaluate_scene uses for estimates
    that trim to n samples, so several estimates can share it."""
    speech, noises = _references(render, reference_channel, n)
    return projection_basis(speech, noises)


def evaluate_scene(
    estimate: Waveform,
    render: SceneRender,
    reference_channel: int = 0,
    seg_frame: int = SEG_FRAME,
    basis: ProjectionBasis | None = None,
):
    """Score an estimate against a render's exact references.

    The speech reference is the target-source image at the reference
    channel; interferer images and the noise image there act as noise
    references, except those that are all zero after trimming. Signals
    are trimmed to the shortest common length.
    ``basis`` may come from scoring_basis() for that length.
    """
    n = min(len(estimate), render.mixture.n_samples)
    estimate = Waveform(samples=estimate.samples[:n], sample_rate=estimate.sample_rate)
    speech, noises = _references(render, reference_channel, n)
    scores = bss_eval(estimate, speech, noises, basis=basis)
    return dataclasses.replace(
        scores, seg_snr=seg_snr(estimate, speech, seg_frame)
    )


@_located("stft")
def _stft_from_dict(d: dict) -> StftConfig:
    kwargs = _given(d, window_size=_int, hop_size=_int, window=_string)
    if "window_size" in kwargs:
        kwargs.setdefault("hop_size", kwargs["window_size"] // 4)
    return StftConfig(**kwargs)


@_located("messl")
def _messl_from_dict(d: dict) -> MesslConfig:
    kwargs = _given(
        d, n_sources=_int, n_iterations=_int, convergence_tol=float,
        use_garbage=_bool, target_source=_optional(_int),
    )
    grid = _given(d, max_delay=float, step=("grid_step", float))
    if grid:
        kwargs["delay_grid"] = default_delay_grid(**grid)
    return MesslConfig(**kwargs)


def pipeline_config_from_dict(doc: dict) -> PipelineConfig:
    """Build a pipeline config from a parsed YAML mapping.

    Sections must be mappings and values must convert to their types;
    otherwise DataError names the key. The top-level ref_channel key sets
    messl.reference_channel.
    """
    return PipelineConfig(
        stft=_stft_from_dict(_value(doc, "stft", _mapping, {})),
        messl=dataclasses.replace(
            _messl_from_dict(_value(doc, "messl", _mapping, {})),
            **_given(doc, reference_channel=("ref_channel", _int)),
        ),
        **_given(
            doc, combine_mode=("combine", _parsed(CombineMode)),
            model_path=("model", _optional(_string)),
            messl_binarize_threshold=_optional(float), seg_frame=_int,
        ),
    )


def training_config_from_dict(doc: dict) -> tuple:
    """Read the training keys of a train config, beside its pipeline keys.

    Returns (scenes directory, EnhancerConfig, TrainSettings,
    holdout_fraction, all_channels); all_channels is true when every
    channel, not only the reference channel, gives a training sequence.
    """
    net = EnhancerConfig(**_given(
        doc, layer_sizes=_int_tuple, merge_mode=_string,
        output_activation=_string, target_kind=_parsed(TargetKind),
    ))
    settings = TrainSettings(**_given(
        doc, learning_rate=float, max_epochs=_int, patience=_int, seed=_int,
    ))
    holdout = _value(doc, "holdout_fraction", _fraction, 0.2)
    channels = _value(doc, "channels", _one_of("reference", "all"), "reference")
    scenes = _value(doc, "scenes", _string)
    return scenes, net, settings, holdout, channels == "all"


def prepare_training_set(
    renders, cfg: PipelineConfig, kind: TargetKind, all_channels: bool = False
) -> tuple:
    """Enhancer training batches from rendered scenes.

    Each scene runs analyze() and the target-image STFT at the reference
    channel, or at every channel with ``all_channels``; the mask input is
    the clustering mask analyze() gives the enhancer at inference, so it is
    binarized when cfg.messl_binarize_threshold is set. Feature stats pool
    the noisy spectrograms of all scenes. Returns (batches per scene, stats).
    """
    scenes, noisy = [], []
    for render in renders:
        analysis = analyze(render.mixture, cfg)
        channels = (
            range(render.mixture.n_channels) if all_channels
            else [cfg.reference_channel]
        )
        pairs = [
            (analysis.specs[c], stft(render.per_source_images[0].channel(c), cfg.stft))
            for c in channels
        ]
        noisy.extend(spec for spec, _ in pairs)
        scenes.append((analysis.messl_mask, pairs))
    stats = FeatureStats.from_spectrograms(noisy)
    batches = [
        [build_batch(spec, mask, clean, stats, kind) for spec, clean in pairs]
        for mask, pairs in scenes
    ]
    return batches, stats


EXPERIMENT_COLUMNS = ("scene", "mode", "sdr", "sir", "sar", "seg_snr", "error")


def score_row(scene: str, mode: str, scores=None, error=None) -> dict:
    """One score-CSV row: four-decimal scores, or empty scores and the error."""
    row = {"scene": scene, "mode": mode}
    for key in ("sdr", "sir", "sar", "seg_snr"):
        row[key] = "" if scores is None else f"{getattr(scores, key):.4f}"
    row["error"] = "" if error is None else str(error)
    return row


def run_experiment(manifest, out_csv=None) -> list:
    """Score every (scene, combine mode) pair listed in a manifest.

    The manifest is a mapping (or path to a YAML file) with keys: scenes
    (list of render directories), combine_modes, and optionally model,
    ref_channel, stft, messl, seg_frame. Each scene is analyzed once and
    its projection basis factored once; every mode then runs only the
    combination and later stages and is scored against that basis. Scenes
    that fail to load or to process produce a row per mode with the error
    recorded; the run continues.
    """
    manifest = load_config(manifest)
    base = pipeline_config_from_dict(manifest)
    modes = _value(
        manifest, "combine_modes", _tuple_of(_parsed(CombineMode)), ["avg"]
    )
    scene_dirs = _value(manifest, "scenes", _list, [])

    model = None
    if base.model_path:
        model = _stage("load_model", load_model, base.model_path)

    rows = []
    for scene_dir in scene_dirs:
        scene_id = os.path.basename(os.path.normpath(str(scene_dir)))
        try:
            render = load_render(scene_dir)
            analysis = analyze(render.mixture, base, model)
        except Exception as exc:
            rows.extend(score_row(scene_id, mode.value, error=exc) for mode in modes)
            continue
        basis = None
        for mode in modes:
            cfg = dataclasses.replace(base, combine_mode=mode)
            try:
                result = enhance(render.mixture, cfg, model, analysis)
                if basis is None:
                    n = min(len(result.waveform), render.mixture.n_samples)
                    basis = scoring_basis(render, cfg.reference_channel, n)
                scores = evaluate_scene(
                    result.waveform, render, cfg.reference_channel,
                    cfg.seg_frame, basis,
                )
                rows.append(score_row(scene_id, mode.value, scores))
            except Exception as exc:
                rows.append(score_row(scene_id, mode.value, error=exc))
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
