"""Command-line front end.

Subcommands: simulate, messl, train, enhance, evaluate, experiment.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import pipeline as pl
from .enhancer import init_model, save_history, save_model, train
from .errors import DataError, NumericalError
from .scene import load_render, load_scene_specs, render_scene, save_render
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
    """The --config document, with each --model, --combine or --ref-channel
    flag given read as its key model, combine or ref_channel."""
    doc = load_config(args.config) if args.config else {}
    for key in ("model", "combine", "ref_channel"):
        if getattr(args, key, None) is not None:
            doc[key] = getattr(args, key)
    return pl.pipeline_config_from_dict(doc)


def cmd_simulate(args) -> int:
    keys = ("n_scenes", "seed", "n_channels", "duration", "snr_db", "n_interferers")
    batch = {key: getattr(args, key) for key in keys if getattr(args, key) is not None}
    specs = load_scene_specs(args.config or {"batch": batch})
    os.makedirs(args.out, exist_ok=True)
    for i, spec in enumerate(specs):
        scene_dir = os.path.join(args.out, f"scene_{i:03d}")
        render = render_scene(spec)
        save_render(render, scene_dir, extras={"seed": spec.seed})
        print(scene_dir)
    return EXIT_OK


def _dump_masks(directory, masks: dict, digest: str) -> None:
    """With a --dump-masks directory, write each mask that is not None
    there as <name>.mask under the config digest."""
    if directory:
        os.makedirs(directory, exist_ok=True)
        for name, mask in masks.items():
            if mask is not None:
                save_mask(mask, os.path.join(directory, f"{name}.mask"), digest)


def cmd_messl(args) -> int:
    mixture = read_wav(args.input)
    cfg = _pipeline_config(args)
    result = pl.analyze(mixture, cfg).em
    digest = cfg.digest()
    save_mask(result.target_mask, args.out, digest)
    _dump_masks(args.dump_masks,
                {f"component_{k:02d}": mask for k, mask in enumerate(result.masks)}, digest)
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
    _dump_masks(args.dump_masks, {"final": result.final_mask, "clustering": result.messl_mask,
                                  "enhanced": result.enhanced_mask}, result.config_digest)
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
    p.add_argument("--seed", type=int)
    p.add_argument("--channels", dest="n_channels", type=int)
    p.add_argument("--duration", type=float)
    p.add_argument("--snr-db", type=float)
    p.add_argument("--interferers", dest="n_interferers", type=int)
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
    p.add_argument("--combine", help="combine mode, as the config key combine")
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
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
