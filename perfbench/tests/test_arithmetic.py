"""The benchmark's own arithmetic: self time, the tail rule, rtf accounting
and the per-layer reduction. Run with ``python -m pytest perfbench/tests``."""

import math
import sys
import types
from types import SimpleNamespace

import numpy as np
import pytest

import hostspeed
import layers
import stats
import workloads
from spans import Span, Tracer, covered_length, self_times


def span(name, start, end, parent=-1, op=0, **info):
    return Span(name, float(start), float(end), parent, op, info)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("root", 0, 10),
        span("a", 1, 4, parent=0),
        span("a.inner", 2, 3, parent=1),
        span("b", 5, 7, parent=0),
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0]


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 3), (2, 5), (7, 12)], 0, 10) == 7.0
    assert covered_length([], 0, 10) == 0.0


@pytest.mark.parametrize("n", [11, 12, 15, 20, 37, 100, 1000])
def test_tail_is_highest_percentile_with_ten_beyond(n):
    samples = [float(x) for x in range(n, 0, -1)]
    value, percentile, count = stats.tail(samples)
    assert count == n
    assert sum(1 for x in samples if x > value) >= 10
    rank = math.ceil((percentile + 1) * n / 100)
    assert n - rank < 10


def test_tail_known_values():
    assert stats.tail(range(1, 21)) == (10, 50, 20)
    assert stats.tail(range(1, 12)) == (1, 9, 11)
    assert stats.tail(range(1, 101)) == (90, 90, 100)


def test_tail_with_ten_or_fewer_samples_is_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100, 3)
    with pytest.raises(ValueError):
        stats.tail([])


def test_rtf_is_total_time_over_total_audio():
    assert stats.rtf([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]) == 1.0
    with pytest.raises(ValueError):
        stats.rtf([1.0], [0.0])


def _render(seconds):
    return SimpleNamespace(mixture=SimpleNamespace(n_samples=int(seconds * workloads.SAMPLE_RATE)))


def test_enhance_ops_count_their_scene_once():
    state = workloads.EnhanceState(None, [_render(1.0), _render(2.0)], [0], None)
    wl = workloads.EnhanceEm()
    audio = [wl.audio_seconds(state, i) for i in range(5)]
    assert audio == [1.0, 2.0, 1.0, 2.0, 1.0]
    assert stats.rtf([0.5] * 5, audio) == pytest.approx(2.5 / 7.0)


def test_train_ops_count_training_audio_once_per_epoch():
    wl = workloads.TrainBlstm()
    state = SimpleNamespace(settings=SimpleNamespace(max_epochs=3), train_seconds=[0.6] * 20)
    assert wl.audio_seconds(state, 0) == pytest.approx(36.0)
    assert wl.audio_seconds(state, 7) == wl.audio_seconds(state, 0)


def test_experiment_ops_count_each_scene_once_for_all_modes():
    wl = workloads.ExperimentModes(workdir=".")
    assert len(wl.modes) == 3
    state = SimpleNamespace(manifests=[{}, {}], seconds=[1.0, 1.5])
    assert [wl.audio_seconds(state, i) for i in range(3)] == [1.0, 1.5, 1.0]


@pytest.fixture
def fake_package():
    pkg = types.ModuleType("fakepkg")
    inner = types.ModuleType("fakepkg.inner")
    outer = types.ModuleType("fakepkg.outer")

    def leaf(x):
        return x + 1

    def caller(x):
        return inner.leaf(x) * 2

    inner.leaf = leaf
    outer.leaf_alias = leaf
    outer.caller = caller
    pkg.caller = caller
    modules = {"fakepkg": pkg, "fakepkg.inner": inner, "fakepkg.outer": outer}
    sys.modules.update(modules)
    yield pkg, inner, outer
    for name in modules:
        del sys.modules[name]


def test_tracer_patches_every_alias_and_restores_them(fake_package):
    pkg, inner, outer = fake_package
    leaf, caller = inner.leaf, outer.caller
    tracer = Tracer(
        {"outer.caller": ("fakepkg.outer", "caller"), "inner.leaf": ("fakepkg.inner", "leaf")},
        {"inner.leaf": lambda args, kwargs, result: {"out": result}},
        package="fakepkg",
    )
    tracer.op = 7
    with tracer:
        assert outer.leaf_alias is inner.leaf is not leaf
        assert pkg.caller(1) == 4
        outer.leaf_alias(5)
    assert (inner.leaf, outer.leaf_alias, pkg.caller, outer.caller) == (leaf, leaf, caller, caller)
    names = [(s.name, s.parent, s.op, s.info) for s in tracer.spans]
    assert names == [
        ("outer.caller", -1, 7, {}),
        ("inner.leaf", 0, 7, {"out": 2}),
        ("inner.leaf", -1, 7, {"out": 6}),
    ]
    pkg.caller(1)
    assert len(tracer.spans) == 3


def test_tracer_records_span_when_call_raises(fake_package):
    _, inner, _ = fake_package
    tracer = Tracer({"inner.leaf": ("fakepkg.inner", "leaf")}, package="fakepkg")
    with tracer, pytest.raises(TypeError):
        inner.leaf(None)
    assert [s.name for s in tracer.spans] == ["inner.leaf"]
    assert tracer.spans[0].end >= tracer.spans[0].start


def test_em_convergence_is_read_from_the_trace():
    cfg = SimpleNamespace(convergence_tol=1e-5)
    capped = SimpleNamespace(loglik_trace=np.array([-100.0, -90.0, -85.0, -84.0]))
    assert layers._em_info((None, cfg), {}, capped) == {"iterations": 3, "converged": False}
    stopped = SimpleNamespace(loglik_trace=np.array([-100.0, -90.0, -90.0, -90.0]))
    assert layers._em_info((None, cfg), {}, stopped) == {"iterations": 3, "converged": True}


def test_layer_metrics_reduce_spans_per_op():
    spans = [
        span("scene.render_scene", 0, 2, op=layers.SETUP),
        span("spatial_em.run_em", 2, 3, op=layers.SETUP, iterations=8, converged=False),
        span("pipeline.enhance", 10, 20, op=1),
        span("spatial_em.run_em", 11, 17, parent=2, op=1, iterations=8, converged=False),
        span("beamformer.mvdr_weights", 17, 18, parent=2, op=1, passthrough=1, freqs=4),
        span("pipeline.enhance", 30, 34, op=3),
        span("spatial_em.run_em", 30, 32, parent=5, op=3, iterations=4, converged=True),
        span("beamformer.mvdr_weights", 32, 33, parent=5, op=3, passthrough=0, freqs=4),
        span("enhancer.forward", 33, 33.5, parent=5, op=3, frames=10),
    ]
    values = layers.layer_metrics(spans, [1, 3])
    assert values["scene.render_s"] == 2.0
    assert values["pipeline.enhance_self_s"] == pytest.approx((3.0 + 0.5) / 2)
    assert values["spatial_em.run_em_s"] == 4.0
    assert values["spatial_em.iterations"] == pytest.approx(20 / 3)
    assert values["spatial_em.converged_ratio"] == pytest.approx(1 / 3)
    assert values["beamformer.passthrough_ratio"] == 1 / 8
    assert values["enhancer.frames"] == 5.0
    assert values["pipeline.run_em_per_scene"] == 1.0
    assert values["metrics.bss_eval_s"] == 0.0


def test_layer_time_falls_back_to_setup_when_ops_never_call_it():
    spans = [
        span("spatial_em.run_em", 0, 3, op=layers.SETUP, iterations=8, converged=False),
        span("enhancer.train", 5, 6, op=1),
    ]
    values = layers.layer_metrics(spans, [1])
    assert values["spatial_em.run_em_s"] == 3.0
    assert values["enhancer.train_s"] == 1.0
    assert values["pipeline.run_em_per_scene"] == 0


def test_layer_times_scale_by_their_op_factor():
    spans = [
        span("scene.render_scene", 0, 2, op=layers.SETUP),
        span("pipeline.enhance", 10, 20, op=1),
        span("spatial_em.run_em", 11, 17, parent=1, op=1, iterations=8, converged=False),
        span("pipeline.enhance", 30, 34, op=3),
        span("spatial_em.run_em", 30, 32, parent=3, op=3, iterations=8, converged=False),
    ]
    values = layers.layer_metrics(spans, [1, 3], {layers.SETUP: 0.5, 1: 2.0, 3: 1.0})
    assert values["scene.render_s"] == 1.0
    assert values["spatial_em.run_em_s"] == pytest.approx((12.0 + 2.0) / 2)
    assert values["pipeline.enhance_self_s"] == pytest.approx((8.0 + 2.0) / 2)


def test_scaled_time_divides_by_the_mean_slowdown_of_the_probes_around_it():
    ref = (hostspeed.ARRAY_REF_S, hostspeed.LOOP_REF_S)
    twice = (2 * ref[0], 2 * ref[1])
    assert hostspeed.scaled(1.0, ref, ref, 0.3) == pytest.approx(1.0)
    assert hostspeed.scaled(3.0, twice, (4 * ref[0], 4 * ref[1]), 0.3) == pytest.approx(1.0)
    assert hostspeed.scaled(1.0, (0.5 * ref[0], 0.5 * ref[1]), (0.5 * ref[0], 0.5 * ref[1]),
                            0.3) == pytest.approx(2.0)


def test_slowdown_weights_the_loop_part_by_its_share():
    ref = (hostspeed.ARRAY_REF_S, hostspeed.LOOP_REF_S)
    loop_slow = (ref[0], 3 * ref[1])
    assert hostspeed.slowdown(loop_slow, 0.0) == pytest.approx(1.0)
    assert hostspeed.slowdown(loop_slow, 1.0) == pytest.approx(3.0)
    assert hostspeed.slowdown(loop_slow, 0.25) == pytest.approx(1.5)


def test_probe_times_both_parts():
    array_s, loop_s = hostspeed.probe()
    assert array_s > 0.0 and loop_s > 0.0
