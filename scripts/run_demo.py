#!/usr/bin/env python3
"""Small end-to-end demonstration.

Renders a handful of synthetic scenes, trains a small mask enhancement
model on most of them, then enhances the held-out scene four ways
(clustering mask only, and the three mask combination modes) and prints
the scores. Everything runs in a couple of minutes on one core.

Usage: python scripts/run_demo.py [--out DIR] [--scenes N] [--seed S]
"""

import argparse
import dataclasses
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from arraysep import (                                     # noqa: E402
    CombineMode,
    EnhancerConfig,
    MesslConfig,
    PipelineConfig,
    StftConfig,
    TargetKind,
    TrainSettings,
    enhance,
    evaluate_scene,
    init_model,
    random_scene_spec,
    render_scene,
    save_model,
    save_render,
    train,
)
from arraysep.pipeline import prepare_training_set          # noqa: E402
from arraysep.spatial_em import default_delay_grid          # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="demo_output")
    parser.add_argument("--scenes", type=int, default=24)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    stft_cfg = StftConfig(window_size=256, hop_size=64)
    em_cfg = MesslConfig(n_iterations=8,
                         delay_grid=default_delay_grid(6.0, 0.25))
    kind = TargetKind.IA
    t0 = time.perf_counter()

    print(f"rendering {args.scenes} training scenes + 1 held-out scene")
    gen = np.random.default_rng(args.seed)
    renders = []
    for i in range(args.scenes + 1):
        spec = random_scene_spec(
            np.random.default_rng(int(gen.integers(1 << 30))),
            n_channels=2, duration=0.6,
            snr_db=float(gen.uniform(5.0, 12.0)),
        )
        renders.append(render_scene(spec))
    held_out, renders = renders[-1], renders[:-1]
    os.makedirs(args.out, exist_ok=True)
    save_render(held_out, os.path.join(args.out, "held_out_scene"))

    print("running spatial clustering on every scene")
    base = PipelineConfig(stft=stft_cfg, messl=em_cfg)
    scenes, stats = prepare_training_set(renders, base, kind)
    batches = [batch for (batch,) in scenes]
    n_val = max(1, len(batches) // 5)

    print(f"training a width-32 enhancer on {len(batches) - n_val} scenes")
    config = EnhancerConfig(layer_sizes=(32,), merge_mode="average",
                            target_kind=kind)
    model = init_model(config, stft_cfg.n_freq, stats, seed=args.seed)
    settings = TrainSettings(learning_rate=2e-3, max_epochs=15, patience=4,
                             seed=args.seed)
    model, history = train(model, batches[n_val:], batches[:n_val], settings)
    model_path = os.path.join(args.out, "enhancer.model")
    save_model(model, model_path)
    print(f"  best validation loss {min(h['val_loss'] for h in history):.4f} "
          f"after {len(history)} epochs -> {model_path}")

    variants = [("clustering only", None, base)]
    for mode in (CombineMode.AVG, CombineMode.MAX, CombineMode.LSTM_ONLY):
        variants.append((f"combine={mode.value}", model,
                         dataclasses.replace(base, combine_mode=mode)))

    print("\nheld-out scene scores:")
    print(f"{'variant':>18} {'sdr':>7} {'sir':>7} {'sar':>7} {'seg_snr':>8}")
    noisy = evaluate_scene(held_out.mixture.channel(0), held_out)
    print(f"{'unprocessed ch0':>18} {noisy.sdr:7.2f} {noisy.sir:7.2f} "
          f"{noisy.sar:7.2f} {noisy.seg_snr:8.2f}")
    for name, mdl, cfg in variants:
        result = enhance(held_out.mixture, cfg, mdl)
        scores = evaluate_scene(result.waveform, held_out)
        print(f"{name:>18} {scores.sdr:7.2f} {scores.sir:7.2f} "
              f"{scores.sar:7.2f} {scores.seg_snr:8.2f}")

    print(f"\ndone in {time.perf_counter() - t0:.0f} s; "
          f"outputs in {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
