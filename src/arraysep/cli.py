"""Command-line front end.

Subcommands: simulate, messl, train, enhance, evaluate, experiment.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import pipeline as pl
from .enhancer import init_model, save_history, save_model, train
from .errors import DataError, NumericalError, StageError
from .fusion import CombineMode
from .scene import (
    load_render,
    load_scene_specs,
    random_scene_spec,
    render_scene,
    save_render,
)
from .signal import read_wav, save_mask, write_wav
from .util import load_config

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _pipeline_config(args) -> pl.PipelineConfig:
    doc = load_config(args.config) if args.config else {}
    cfg = pl.pipeline_config_from_dict(doc)
    if getattr(args, "model", None):
        cfg.model_path = args.model
    if getattr(args, "combine", None):
        cfg.combine_mode = CombineMode.parse(args.combine)
    if getattr(args, "ref_channel", None) is not None:
        cfg.reference_channel = args.ref_channel
    return cfg


def cmd_simulate(args) -> int:
    if args.config:
        specs = load_scene_specs(args.config)
    else:
        rng = np.random.default_rng(args.seed)
        specs = [
            random_scene_spec(
                rng,
                n_channels=args.channels,
                duration=args.duration,
                snr_db=args.snr_db,
                n_interferers=args.interferers,
            )
            for _ in range(args.n_scenes)
        ]
    os.makedirs(args.out, exist_ok=True)
    for i, spec in enumerate(specs):
        scene_dir = os.path.join(args.out, f"scene_{i:03d}")
        render = render_scene(spec)
        save_render(render, scene_dir, extras={"seed": spec.seed})
        print(scene_dir)
    return EXIT_OK


def cmd_messl(args) -> int:
    mixture = read_wav(args.input)
    cfg = _pipeline_config(args)
    result = pl.analyze(mixture, cfg).em
    digest = cfg.digest()
    save_mask(result.target_mask, args.out, digest)
    if args.dump_masks:
        os.makedirs(args.dump_masks, exist_ok=True)
        for k, mask in enumerate(result.masks):
            save_mask(mask, os.path.join(args.dump_masks, f"component_{k:02d}.mask"), digest)
    print(f"wrote {args.out} (loglik {result.loglik_trace[-1]:.1f}, "
          f"target component {result.target_index})")
    return EXIT_OK


def _scene_dirs(root) -> list:
    subdirs = sorted(
        os.path.join(root, name)
        for name in os.listdir(root)
        if os.path.isdir(os.path.join(root, name))
    )
    return subdirs if subdirs else [root]


def cmd_train(args) -> int:
    doc = load_config(args.config)
    cfg = pl.pipeline_config_from_dict(doc)
    scenes, net, settings, holdout, all_channels = pl.training_config_from_dict(doc)
    dirs = _scene_dirs(scenes)
    if len(dirs) < 2:
        raise DataError("need at least two scenes to split train/validation")
    batches, stats = pl.prepare_training_set(
        (load_render(d) for d in dirs), cfg, net.target_kind, all_channels
    )
    n_val = max(1, int(round(holdout * len(batches))))

    def flat(scenes):
        return [batch for scene in scenes for batch in scene]

    model = init_model(net, cfg.stft.n_freq, stats, seed=settings.seed)
    model, history = train(model, flat(batches[n_val:]), flat(batches[:n_val]), settings)
    save_model(model, args.out)
    save_history(history, args.out + ".history.csv")
    print(
        f"wrote {args.out} ({len(history)} epochs, "
        f"best val loss {min(h['val_loss'] for h in history):.5f})"
    )
    return EXIT_OK


def cmd_enhance(args) -> int:
    mixture = read_wav(args.input)
    cfg = _pipeline_config(args)
    result = pl.enhance(mixture, cfg)
    write_wav(args.out, result.waveform)
    if args.dump_masks:
        os.makedirs(args.dump_masks, exist_ok=True)
        save_mask(
            result.final_mask,
            os.path.join(args.dump_masks, "final.mask"),
            result.config_digest,
        )
        save_mask(
            result.messl_mask,
            os.path.join(args.dump_masks, "clustering.mask"),
            result.config_digest,
        )
        if result.enhanced_mask is not None:
            save_mask(
                result.enhanced_mask,
                os.path.join(args.dump_masks, "enhanced.mask"),
                result.config_digest,
            )
    print(f"wrote {args.out} (config {result.config_digest})")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    estimate = read_wav(args.input).channel(0)
    render = load_render(args.scene)
    cfg = _pipeline_config(args)
    scores = pl.evaluate_scene(
        estimate, render, cfg.reference_channel, cfg.seg_frame
    )
    line = (
        f"sdr {scores.sdr:.3f} dB  sir {scores.sir:.3f} dB  "
        f"sar {scores.sar:.3f} dB  seg_snr {scores.seg_snr:.3f} dB"
    )
    print(line)
    if args.out:
        scene_id = os.path.basename(os.path.normpath(args.scene))
        row = pl.score_row(scene_id, "external", scores)
        pl.write_score_csv([row], args.out, cfg.digest())
    return EXIT_OK


def cmd_experiment(args) -> int:
    rows = pl.run_experiment(args.config, out_csv=args.out)
    failures = sum(1 for r in rows if r["error"])
    for row in rows:
        if row["error"]:
            print(f"{row['scene']}/{row['mode']}: ERROR {row['error']}")
        else:
            print(
                f"{row['scene']}/{row['mode']}: sdr {row['sdr']} sir {row['sir']} "
                f"sar {row['sar']} seg_snr {row['seg_snr']}"
            )
    print(f"{len(rows)} rows, {failures} failed; wrote {args.out}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="arraysep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="render synthetic scenes")
    p.add_argument("--config", help="scene config YAML")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n-scenes", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--channels", type=int, default=2)
    p.add_argument("--duration", type=float, default=2.0)
    p.add_argument("--snr-db", type=float, default=10.0)
    p.add_argument("--interferers", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("messl", help="spatial clustering mask from a mixture")
    p.add_argument("--input", required=True, help="multichannel mixture WAV")
    p.add_argument("--out", required=True, help="output mask file")
    p.add_argument("--config", help="pipeline config YAML")
    p.add_argument("--ref-channel", type=int, default=None)
    p.add_argument("--dump-masks", help="directory for per-component masks")
    p.set_defaults(func=cmd_messl)

    p = sub.add_parser("train", help="train a mask enhancement model")
    p.add_argument("--config", required=True, help="training config YAML")
    p.add_argument("--out", required=True, help="output model file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("enhance", help="run the full pipeline on a mixture")
    p.add_argument("--input", required=True, help="multichannel mixture WAV")
    p.add_argument("--out", required=True, help="output WAV")
    p.add_argument("--config", help="pipeline config YAML")
    p.add_argument("--model", help="enhancement model file")
    p.add_argument("--combine", choices=[m.value for m in CombineMode])
    p.add_argument("--ref-channel", type=int, default=None)
    p.add_argument("--dump-masks", help="directory for mask dumps")
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("evaluate", help="score an estimate against a scene")
    p.add_argument("--input", required=True, help="estimate WAV")
    p.add_argument("--scene", required=True, help="scene render directory")
    p.add_argument("--config", help="pipeline config YAML")
    p.add_argument("--ref-channel", type=int, default=None)
    p.add_argument("--out", help="optional CSV output")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("experiment", help="batch scoring over a manifest")
    p.add_argument("--config", required=True, help="experiment manifest YAML")
    p.add_argument("--out", required=True, help="scores CSV")
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except StageError as exc:
        kind = EXIT_NUMERIC if isinstance(exc.original, NumericalError) else EXIT_DATA
        print(f"error: {exc}", file=sys.stderr)
        return kind
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
