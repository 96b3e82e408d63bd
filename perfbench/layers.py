"""Which layer functions the traced run wraps, and the per-layer metrics.

Every time metric is the per-op median of the summed self time of one
span name. A span that no traced op records but set-up does (scene
rendering everywhere, EM in train_blstm) reports its set-up total instead.
Self times are scaled to the reference host speed by the factor of the op
(or set-up) they fall in, as end-to-end times are.
Counts and ratios come from the objects the wrapped functions return.
"""

from __future__ import annotations

import math
import statistics

from spans import self_times

# span name -> (module, public function)
TARGETS = {
    name: ("arraysep." + name.split(".")[0], name.split(".")[1])
    for name in (
        "scene.render_scene", "scene.load_render",
        "signal.stft", "signal.istft", "signal.apply_mask",
        "spatial_em.run_em",
        "enhancer.enhance_channels", "enhancer.forward", "enhancer.train",
        "enhancer.batch_loss", "enhancer.load_model",
        "targets.loss_with_grad",
        "fusion.fuse_channels", "fusion.combine_masks",
        "beamformer.estimate_covariances", "beamformer.mvdr_weights",
        "beamformer.beamform",
        "metrics.bss_eval", "metrics.seg_snr",
        "pipeline.enhance", "pipeline.evaluate_scene", "pipeline.run_experiment",
    )
}

# per-layer metric -> span name whose self time it reports
SELF_TIME_METRICS = {
    "spatial_em.run_em_s": "spatial_em.run_em",
    "enhancer.enhance_channels_s": "enhancer.enhance_channels",
    "enhancer.forward_s": "enhancer.forward",
    "enhancer.train_s": "enhancer.train",
    "enhancer.batch_loss_s": "enhancer.batch_loss",
    "targets.loss_with_grad_s": "targets.loss_with_grad",
    "enhancer.load_model_s": "enhancer.load_model",
    "beamformer.covariance_s": "beamformer.estimate_covariances",
    "beamformer.mvdr_s": "beamformer.mvdr_weights",
    "beamformer.beamform_s": "beamformer.beamform",
    "fusion.fuse_s": "fusion.fuse_channels",
    "fusion.combine_s": "fusion.combine_masks",
    "signal.stft_s": "signal.stft",
    "signal.istft_s": "signal.istft",
    "signal.apply_mask_s": "signal.apply_mask",
    "metrics.bss_eval_s": "metrics.bss_eval",
    "metrics.seg_snr_s": "metrics.seg_snr",
    "scene.load_render_s": "scene.load_render",
    "pipeline.enhance_self_s": "pipeline.enhance",
    "pipeline.evaluate_self_s": "pipeline.evaluate_scene",
    "pipeline.experiment_self_s": "pipeline.run_experiment",
    "scene.render_s": "scene.render_scene",
}

SETUP = "setup"


def _em_info(args, kwargs, result):
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[1]
    trace = result.loglik_trace
    # run_em stops early when two successive log likelihoods agree within
    # the tolerance; the trace then ends with that pair plus a final E step.
    converged = len(trace) >= 3 and abs(trace[-2] - trace[-3]) <= (
        cfg.convergence_tol * (abs(trace[-3]) + 1.0)
    )
    return {"iterations": len(trace) - 1, "converged": bool(converged)}


def _mvdr_info(args, kwargs, result):
    return {"passthrough": int(result.passthrough.sum()), "freqs": int(result.passthrough.size)}


def _forward_info(args, kwargs, result):
    return {"frames": int(result.values.shape[1])}


EXTRACTORS = {
    "spatial_em.run_em": _em_info,
    "beamformer.mvdr_weights": _mvdr_info,
    "enhancer.forward": _forward_info,
}


def per_op_self_times(spans, scale=None) -> dict:
    """{op: {span name: summed self time}}, each op's times multiplied by
    ``scale[op]`` where given."""
    out: dict = {}
    for span, own in zip(spans, self_times(spans)):
        by_name = out.setdefault(span.op, {})
        by_name[span.name] = by_name.get(span.name, 0.0) + own
    for op, factor in (scale or {}).items():
        for name in out.get(op, {}):
            out[op][name] *= factor
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, traced_ops, scale=None) -> dict:
    """Per-layer metric values from the spans of set-up and the traced ops.

    ``scale`` maps an op (or SETUP) to the factor its times are scaled by.
    Each op handles one scene, so run_em calls per op are calls per scene.
    """
    selfs = per_op_self_times(spans, scale)
    op_rows = [selfs.get(op, {}) for op in traced_ops]
    values = {}
    for metric, name in SELF_TIME_METRICS.items():
        if any(name in row for row in op_rows):
            values[metric] = statistics.median(row.get(name, 0.0) for row in op_rows)
        else:
            values[metric] = selfs.get(SETUP, {}).get(name, 0.0)

    ops = set(traced_ops)
    em = [s.info for s in spans if s.name == "spatial_em.run_em"]
    values["spatial_em.iterations"] = _ratio(math.fsum(i["iterations"] for i in em), len(em))
    values["spatial_em.converged_ratio"] = _ratio(sum(i["converged"] for i in em), len(em))
    mvdr = [s.info for s in spans if s.name == "beamformer.mvdr_weights" and s.op in ops]
    values["beamformer.passthrough_ratio"] = _ratio(
        sum(i["passthrough"] for i in mvdr), sum(i["freqs"] for i in mvdr)
    )
    frames = {op: 0 for op in traced_ops}
    em_calls = {op: 0 for op in traced_ops}
    for span in spans:
        if span.op in ops and span.name == "enhancer.forward":
            frames[span.op] += span.info["frames"]
        if span.op in ops and span.name == "spatial_em.run_em":
            em_calls[span.op] += 1
    values["enhancer.frames"] = statistics.median(frames.values())
    values["pipeline.run_em_per_scene"] = statistics.median(em_calls.values())
    return values

