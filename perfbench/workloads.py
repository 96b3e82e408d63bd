"""The benchmark workloads.

``BENCHMARK.json`` lists all but ``enhance_em``, which runs by hand only
(perfbench/README.md says why).

Each workload builds its inputs from the seed in ``setup`` (timed as
set-up), runs one op per ``run_op`` call in a closed loop, checks every op's
output in ``check`` and scores reference scenes in ``quality``. Only
``setup`` and ``run_op`` are timed.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import os
import tempfile

import numpy as np

import arraysep as asp
from arraysep.pipeline import pipeline_config_from_dict

SAMPLE_RATE = 16000
INTERFERER_DB = -6.0
# Quality is scored on reference scenes that do not depend on --seed, so a
# change in the program's output moves it and scene-to-scene spread does not.
REFERENCE_STREAM = 0x5EED0FAB
ROW_KEYS = (("sdr", "sdr_db"), ("sir", "sir_db"), ("sar", "sar_db"), ("seg_snr", "seg_snr_db"))


def scene(rng, **spec_kwargs):
    """Render one random scene with every interferer INTERFERER_DB below the
    target, so that scores sit well away from 0 dB."""
    spec = asp.random_scene_spec(rng, sample_rate=SAMPLE_RATE, **spec_kwargs)
    gain = 10.0 ** (INTERFERER_DB / 20.0)
    sources = [spec.sources[0]] + [
        dataclasses.replace(src, signal=asp.Waveform(src.signal.samples * gain, SAMPLE_RATE))
        for src in spec.sources[1:]
    ]
    return asp.render_scene(dataclasses.replace(spec, sources=tuple(sources)))


def reference_rng(j: int):
    return np.random.default_rng([REFERENCE_STREAM, j])


def scene_pool(seed: int, count: int, **spec_kwargs):
    """``count`` reference scenes interleaved with ``count`` seeded ones.

    Reference scene j comes from a fixed stream and seeded scene j only
    from (seed, j). Returns the renders and the reference positions.
    """
    renders = []
    for j in range(count):
        renders.append(scene(reference_rng(j), **spec_kwargs))
        renders.append(scene(np.random.default_rng([seed, j]), **spec_kwargs))
    return renders, list(range(0, 2 * count, 2))


def seconds_of(render) -> float:
    return render.mixture.n_samples / SAMPLE_RATE


def channel_specs(render, stft_cfg) -> list:
    mixture = render.mixture
    return [asp.stft(mixture.channel(c), stft_cfg) for c in range(mixture.n_channels)]


def expected_length(n_samples: int, stft_cfg) -> int:
    """Length of istft(stft(x)) for a signal of n_samples."""
    frames = 1 + (n_samples - stft_cfg.window_size) // stft_cfg.hop_size
    return stft_cfg.window_size + (frames - 1) * stft_cfg.hop_size


def waveform_problems(wave, render, stft_cfg) -> list:
    problems = []
    want = expected_length(render.mixture.n_samples, stft_cfg)
    if len(wave) != want:
        problems.append(f"output has {len(wave)} samples, expected {want}")
    if not np.all(np.isfinite(wave.samples)):
        problems.append("output waveform is not finite")
    return problems


def mask_loss(mask, render, stft_cfg, reference_channel: int = 0) -> float:
    """Ideal-amplitude cross entropy of a final mask at the reference channel."""
    ctx = asp.TargetContext.from_spectrograms(
        asp.stft(render.per_source_images[0].channel(reference_channel), stft_cfg),
        asp.stft(render.mixture.channel(reference_channel), stft_cfg),
    )
    return asp.loss(mask, ctx, asp.TargetKind.IA)


def score(wave, render, cfg) -> dict:
    scores = asp.evaluate_scene(wave, render, cfg.reference_channel, cfg.seg_frame)
    return {"sdr_db": scores.sdr, "sir_db": scores.sir, "sar_db": scores.sar,
            "seg_snr_db": scores.seg_snr}


def mean_rows(rows) -> dict:
    return {key: math.fsum(row[key] for row in rows) / len(rows) for key in rows[0]}


def feature_stats(renders, stft_cfg):
    return asp.FeatureStats.from_spectrograms(
        [asp.stft(r.mixture.channel(0), stft_cfg) for r in renders]
    )


@dataclasses.dataclass
class EmProbe:
    """One run_em input, measured for allocation on its own pass."""

    specs: list
    cfg: object


@dataclasses.dataclass
class EnhanceState:
    cfg: object
    renders: list
    references: list
    model: object
    first: dict = dataclasses.field(default_factory=dict)

    def close(self):
        pass


class EnhanceWorkload:
    """One ``enhance()`` per op, cycling over a scene pool.

    The first result for each scene is kept; every later op on the same
    scene must reproduce its waveform exactly.
    """

    name = ""
    required_spans = ()
    # Share of loop-bound work in the host slowdown an op is scaled by (see
    # hostspeed.py): EM and the covariances are large-array work, the BLSTM
    # forward pass is not.
    loop_share = 0.1
    pool = 4
    scene_kwargs: dict = {}

    def pipeline_config(self):
        raise NotImplementedError

    def build_model(self, seed, renders, cfg):
        return None

    def setup(self, seed: int):
        cfg = self.pipeline_config()
        renders, references = scene_pool(seed, self.pool, **self.scene_kwargs)
        return EnhanceState(cfg, renders, references, self.build_model(seed, renders, cfg))

    def run_op(self, state, i: int):
        render = state.renders[i % len(state.renders)]
        return asp.enhance(render.mixture, state.cfg, state.model)

    def check(self, state, i: int, result) -> list:
        j = i % len(state.renders)
        problems = waveform_problems(result.waveform, state.renders[j], state.cfg.stft)
        first = state.first.setdefault(j, result)
        if not np.array_equal(first.waveform.samples, result.waveform.samples):
            problems.append(f"scene {j} output differs from its first run")
        return problems

    def audio_seconds(self, state, i: int) -> float:
        return seconds_of(state.renders[i % len(state.renders)])

    def quality(self, state):
        """Mean scores of the reference scenes' outputs; val_loss is the
        ideal-amplitude cross entropy of their final masks."""
        rows, problems = [], []
        for j in state.references:
            render = state.renders[j]
            result = state.first.get(j)
            if result is None:
                result = asp.enhance(render.mixture, state.cfg, state.model)
                problems += waveform_problems(result.waveform, render, state.cfg.stft)
            row = score(result.waveform, render, state.cfg)
            row["val_loss"] = mask_loss(result.final_mask, render, state.cfg.stft)
            rows.append(row)
        return mean_rows(rows), problems

    def em_probe(self, state) -> EmProbe:
        cfg = dataclasses.replace(state.cfg.messl, reference_channel=state.cfg.reference_channel)
        return EmProbe(channel_specs(state.renders[0], state.cfg.stft), cfg)


class EnhanceEm(EnhanceWorkload):
    """Clustering-only enhance(): EM with two sources over three channel pairs.

    run_em takes the source nearest broadside as the target, so the target
    sits within one sample of broadside and the interferer 2 to 6 off it.
    """

    name = "enhance_em"
    required_spans = (
        "pipeline.enhance", "signal.stft", "spatial_em.run_em",
        "beamformer.estimate_covariances", "beamformer.mvdr_weights",
        "beamformer.beamform", "signal.apply_mask", "signal.istft",
        "scene.render_scene",
    )
    scene_kwargs = {
        "n_channels": 4, "duration": 1.0, "n_interferers": 1,
        "target_delay_range": (-1.0, 1.0), "interferer_delay_range": (2.0, 6.0),
    }

    def pipeline_config(self):
        return asp.PipelineConfig(
            stft=asp.StftConfig(window_size=512, hop_size=128),
            messl=asp.MesslConfig(
                n_sources=2, n_iterations=8,
                delay_grid=asp.default_delay_grid(6.0, 0.25),
            ),
        )


class EnhanceArray(EnhanceWorkload):
    """Model-driven enhance() on an 8-channel compact array, narrow EM grid."""

    name = "enhance_array"
    required_spans = EnhanceEm.required_spans + (
        "enhancer.enhance_channels", "enhancer.forward",
        "fusion.fuse_channels", "fusion.combine_masks",
    )
    scene_kwargs = {
        "n_channels": 8, "duration": 2.0, "n_interferers": 1,
        "target_delay_range": (-2.0, 2.0), "interferer_delay_range": (-2.0, 2.0),
    }

    def pipeline_config(self):
        return asp.PipelineConfig(
            stft=asp.StftConfig(window_size=1024, hop_size=256),
            messl=asp.MesslConfig(
                n_sources=1, n_iterations=2,
                delay_grid=asp.default_delay_grid(2.0, 0.5),
            ),
            combine_mode=asp.CombineMode.AVG,
        )

    def build_model(self, seed, renders, cfg):
        return asp.init_model(
            asp.EnhancerConfig(layer_sizes=(64,)), cfg.stft.n_freq,
            feature_stats(renders, cfg.stft), seed=seed,
        )


@dataclasses.dataclass
class TrainState:
    model: object
    train: list
    val: list
    train_seconds: list
    references: list
    settings: object
    first: tuple | None = None

    def close(self):
        pass


class TrainBlstm:
    """Repeated train() of one seeded width-32 model on prepared scenes.

    The data follows scripts/run_demo.py: 24 two-channel 0.6 s scenes,
    STFT 256/64, ideal-amplitude target, one fifth held out for validation.
    """

    name = "train_blstm"
    required_spans = (
        "enhancer.train", "enhancer.batch_loss", "targets.loss_with_grad",
        "scene.render_scene", "spatial_em.run_em",
    )
    # The BLSTM steps frame by frame through small numpy calls, so a busy
    # host slows it more than array work.
    loop_share = 0.5
    n_scenes = 24
    n_references = 4
    epochs = 3

    def __init__(self):
        self.cfg = asp.PipelineConfig(
            stft=asp.StftConfig(window_size=256, hop_size=64),
            messl=asp.MesslConfig(
                n_iterations=8, delay_grid=asp.default_delay_grid(6.0, 0.25)
            ),
        )

    @staticmethod
    def demo_scene(rng):
        return scene(rng, n_channels=2, duration=0.6, snr_db=float(rng.uniform(5.0, 12.0)))

    def setup(self, seed: int):
        renders = [self.demo_scene(np.random.default_rng([seed, j])) for j in range(self.n_scenes)]
        prepared = []
        for render in renders:
            specs = channel_specs(render, self.cfg.stft)
            em = asp.run_em(specs, self.cfg.messl)
            clean = asp.stft(render.per_source_images[0].channel(0), self.cfg.stft)
            prepared.append((specs[0], em.target_mask, clean))
        stats = asp.FeatureStats.from_spectrograms([noisy for noisy, _, _ in prepared])
        kind = asp.TargetKind.IA
        batches = [asp.build_batch(noisy, mask, clean, stats, kind)
                   for noisy, mask, clean in prepared]
        n_val = max(1, len(batches) // 5)
        model = asp.init_model(
            asp.EnhancerConfig(layer_sizes=(32,), merge_mode="average", target_kind=kind),
            self.cfg.stft.n_freq, stats, seed=seed,
        )
        return TrainState(
            model=model,
            train=batches[n_val:],
            val=batches[:n_val],
            train_seconds=[seconds_of(r) for r in renders[n_val:]],
            references=[self.demo_scene(reference_rng(j)) for j in range(self.n_references)],
            settings=asp.TrainSettings(
                learning_rate=2e-3, max_epochs=self.epochs, patience=self.epochs, seed=seed
            ),
        )

    def run_op(self, state, i: int):
        model = dataclasses.replace(state.model, params=state.model.copy_params())
        return asp.train(model, state.train, state.val, state.settings)

    def check(self, state, i: int, outcome) -> list:
        model, history = outcome
        problems = []
        if len(history) != self.epochs:
            problems.append(f"{len(history)} epochs ran, expected {self.epochs}")
        losses = [row[key] for row in history for key in ("train_loss", "val_loss")]
        if not np.all(np.isfinite(losses)):
            problems.append("training loss is not finite")
        if not all(np.all(np.isfinite(p)) for p in model.params.values()):
            problems.append("trained parameters are not finite")
        if state.first is None:
            state.first = outcome
        elif history != state.first[1]:
            problems.append("training history differs from the first op")
        return problems

    def audio_seconds(self, state, i: int) -> float:
        """Training audio counts once per epoch; validation audio is not counted."""
        return state.settings.max_epochs * math.fsum(state.train_seconds)

    def quality(self, state):
        """Scores of enhance() with the trained model on the reference
        scenes, plus the final validation loss train() reported."""
        model, history = state.first if state.first else self.run_op(state, 0)
        rows, problems = [], []
        for render in state.references:
            result = asp.enhance(render.mixture, self.cfg, model)
            problems += waveform_problems(result.waveform, render, self.cfg.stft)
            rows.append(score(result.waveform, render, self.cfg))
        return mean_rows(rows) | {"val_loss": history[-1]["val_loss"]}, problems

    def em_probe(self, state) -> EmProbe:
        return EmProbe(channel_specs(state.references[0], self.cfg.stft), self.cfg.messl)


@dataclasses.dataclass
class ExperimentState:
    tmp: tempfile.TemporaryDirectory
    manifests: list
    seconds: list
    references: list
    out_csv: str
    first: dict = dataclasses.field(default_factory=dict)

    def close(self):
        self.tmp.cleanup()


class ExperimentModes:
    """run_experiment() on a one-scene manifest with three combine modes.

    Scenes and the seeded, untrained model are written to a temporary
    directory during set-up; each op reads them back and writes its CSV.
    """

    name = "experiment_modes"
    modes = ("avg", "max", "lstm")
    required_spans = (
        "pipeline.run_experiment", "enhancer.load_model", "scene.load_render",
        "pipeline.enhance", "pipeline.evaluate_scene", "spatial_em.run_em",
        "enhancer.enhance_channels", "enhancer.forward", "fusion.fuse_channels",
        "fusion.combine_masks", "beamformer.estimate_covariances",
        "beamformer.mvdr_weights", "beamformer.beamform", "signal.stft",
        "signal.apply_mask", "signal.istft", "metrics.bss_eval", "metrics.seg_snr",
        "scene.render_scene",
    )
    # EM and bss_eval are array work; the BLSTM forward passes are not.
    loop_share = 0.1
    pool = 2
    stft = {"window_size": 512, "hop_size": 128}

    def __init__(self, workdir):
        self.workdir = workdir

    def setup(self, seed: int):
        tmp = tempfile.TemporaryDirectory(prefix="experiment_", dir=self.workdir)
        try:
            renders, references = scene_pool(
                seed, self.pool, n_channels=2, duration=1.0, n_interferers=1
            )
            dirs = []
            for j, render in enumerate(renders):
                dirs.append(os.path.join(tmp.name, f"scene_{j:03d}"))
                asp.save_render(render, dirs[-1])
            stft_cfg = asp.StftConfig(**self.stft)
            model_path = os.path.join(tmp.name, "enhancer.model")
            asp.save_model(
                asp.init_model(asp.EnhancerConfig(), stft_cfg.n_freq,
                               feature_stats(renders, stft_cfg), seed=seed),
                model_path,
            )
        except BaseException:
            tmp.cleanup()
            raise
        manifests = [
            {"scenes": [d], "combine_modes": list(self.modes), "model": model_path,
             "stft": dict(self.stft), "messl": {"n_iterations": 8}}
            for d in dirs
        ]
        return ExperimentState(
            tmp=tmp, manifests=manifests, seconds=[seconds_of(r) for r in renders],
            references=references, out_csv=os.path.join(tmp.name, "scores.csv"),
        )

    def run_op(self, state, i: int):
        return asp.run_experiment(state.manifests[i % len(state.manifests)], state.out_csv)

    def check(self, state, i: int, rows) -> list:
        j = i % len(state.manifests)
        problems = []
        if [row["mode"] for row in rows] != list(self.modes):
            problems.append(f"scene {j}: rows {[row['mode'] for row in rows]}")
        for row in rows:
            if row["error"]:
                problems.append(f"scene {j} mode {row['mode']}: {row['error']}")
                continue
            try:
                values = [float(row[column]) for column, _ in ROW_KEYS]
            except ValueError:
                problems.append(f"scene {j} mode {row['mode']}: unparsable scores")
                continue
            if not np.all(np.isfinite(values)):
                problems.append(f"scene {j} mode {row['mode']}: non-finite scores")
        with open(state.out_csv, newline="") as handle:
            header = handle.readline()
            written = list(csv.DictReader(handle))
        if not header.startswith("# config_hash="):
            problems.append("score CSV lacks its config hash line")
        if written != rows:
            problems.append("score CSV does not match the returned rows")
        if state.first.setdefault(j, rows) != rows:
            problems.append(f"scene {j} rows differ from its first run")
        return problems

    def audio_seconds(self, state, i: int) -> float:
        """Each scene counts once, however many combine modes process it."""
        return state.seconds[i % len(state.manifests)]

    def quality(self, state):
        """Run every (reference scene, mode) through enhance() and
        evaluate_scene() on what the ops read from disk. Rows the ops
        produced for the same scene must agree to their printed digits."""
        model = asp.load_model(state.manifests[0]["model"])
        rows, problems = [], []
        for j in state.references:
            manifest = state.manifests[j]
            render = asp.load_render(manifest["scenes"][0])
            base = pipeline_config_from_dict(manifest)
            for k, mode in enumerate(self.modes):
                cfg = dataclasses.replace(base, combine_mode=asp.CombineMode.parse(mode))
                result = asp.enhance(render.mixture, cfg, model)
                problems += waveform_problems(result.waveform, render, cfg.stft)
                row = score(result.waveform, render, cfg)
                row["val_loss"] = mask_loss(result.final_mask, render, cfg.stft)
                rows.append(row)
                seen = state.first.get(j)
                if seen is not None and any(
                    seen[k][column] != f"{row[key]:.4f}" for column, key in ROW_KEYS
                ):
                    problems.append(f"scene {j} mode {mode}: experiment row disagrees")
        return mean_rows(rows), problems

    def em_probe(self, state) -> EmProbe:
        manifest = state.manifests[0]
        cfg = pipeline_config_from_dict(manifest)
        render = asp.load_render(manifest["scenes"][0])
        return EmProbe(channel_specs(render, cfg.stft), cfg.messl)


NAMES = (EnhanceEm.name, EnhanceArray.name, TrainBlstm.name, ExperimentModes.name)


def make(name: str, workdir: str):
    """The workload called ``name``; ``workdir`` holds its temporary files."""
    if name == ExperimentModes.name:
        return ExperimentModes(workdir)
    for cls in (EnhanceEm, EnhanceArray, TrainBlstm):
        if cls.name == name:
            return cls()
    raise KeyError(name)
