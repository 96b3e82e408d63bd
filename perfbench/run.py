#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload enhance_array --seed 1 --seconds 25 --trace 0

The workload's inputs are generated from the seed. With ``--trace 0`` the
set-up is timed several times and ops run untraced in a closed loop for
``--seconds``; the end-to-end metrics are printed. With ``--trace 1`` ops
alternate between untraced and traced, and the per-layer metrics are
printed. Every set-up and op is timed between two probes of the host's
speed and reported at the reference speed (see ``hostspeed.py``). Every
op's output is checked either way. The last line of standard output is
one JSON object; the exit code is 0 only when every check passed. Metric
names, units and directions come from ``BENCHMARK.json`` at the
repository root.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import json
import os
import resource
import sys
import time
import tracemalloc
from pathlib import Path

import hostspeed
import layers
import stats
from spans import Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up runs at least SETUPS times and, when it is quick, until SETUP_WALL
# seconds have gone on it, so that a median of a few 0.1 s set-ups does not
# follow the noise of single probes.
SETUPS = 3
SETUP_WALL = 2.0
# The tail rule needs ten ops beyond a percentile. At 11 ops it picks the
# fastest op, which swings with every brief change of host speed; at 14 it
# picks the fourth fastest, which is far steadier from run to run.
MIN_OPS = 14
EXTEND = 1.5
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1


def pin_blas_threads() -> int:
    """Pin BLAS to one thread; must precede numpy's import.

    One thread is at most the CPUs the process may use. On a shared host a
    second BLAS thread waits on whatever else runs on the other CPU, which
    makes op times spread more and run no faster.
    """
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    return threads


def import_program() -> None:
    """Import arraysep from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import arraysep
    except ImportError as exc:
        raise SystemExit(f"cannot import arraysep from {src}: {exc}")
    if Path(arraysep.__file__).resolve().parent.parent != src:
        raise SystemExit(f"arraysep was imported from {arraysep.__file__}, not {src}")


@dataclasses.dataclass
class Op:
    index: int
    seconds: float   # at the reference speed
    wall_seconds: float
    probe_seconds: tuple   # host speed probes (array, loop parts) before and after
    audio_seconds: float
    traced: bool
    problems: list


def closed_loop(workload, state, seconds: float, tracer=None) -> list:
    """Run ops back to back until ``seconds`` have passed.

    The loop goes on past ``seconds`` until MIN_OPS ops have run, but
    never past ``EXTEND * seconds``. With a
    tracer, odd-numbered ops are traced and even ones are not, so both
    kinds see the same conditions. A host speed probe runs before the
    first op and after every op; each op is scaled by the two around it.
    """
    ops = []
    start = time.perf_counter()
    before = hostspeed.probe()
    while True:
        elapsed = time.perf_counter() - start
        enough = len(ops) >= MIN_OPS or elapsed >= EXTEND * seconds
        if elapsed >= seconds and enough and (tracer is None or len(ops) >= 2):
            break
        i = len(ops)
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.op = i
            tracer.install()
        outcome, problems = None, []
        t0 = time.perf_counter()
        try:
            outcome = workload.run_op(state, i)
        except Exception as exc:
            problems.append(f"op {i} raised {type(exc).__name__}: {exc}")
        finally:
            took = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
                tracer.op = None
        after = hostspeed.probe()
        scaled = hostspeed.scaled(took, before, after, workload.loop_share)
        if not problems:
            try:
                problems = workload.check(state, i, outcome)
            except Exception as exc:
                problems = [f"op {i} check raised {type(exc).__name__}: {exc}"]
        ops.append(Op(i, scaled, took, (before, after), workload.audio_seconds(state, i),
                      traced, problems))
        before = after
    return ops


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def untraced_run(workload, seed: int, seconds: float):
    setup_seconds, setup_wall = [], []
    state = None
    try:
        before = hostspeed.probe()
        while len(setup_wall) < SETUPS or sum(setup_wall) < SETUP_WALL:
            if state is not None:
                state.close()
                state = None
            t0 = time.perf_counter()
            state = workload.setup(seed)
            setup_wall.append(time.perf_counter() - t0)
            after = hostspeed.probe()
            setup_seconds.append(
                hostspeed.scaled(setup_wall[-1], before, after, workload.loop_share))
            before = after
        ops = closed_loop(workload, state, seconds)
        quality, problems = workload.quality(state)
    finally:
        if state is not None:
            state.close()
    times = [op.seconds for op in ops]
    tail, percentile, count = stats.tail(times)
    values = {
        "op_s_p50": stats.median(times),
        "op_s_tail": tail,
        "rtf": stats.rtf(times, [op.audio_seconds for op in ops]),
        "setup_s": stats.median(setup_seconds),
        "peak_rss_mb": peak_rss_mb(),
        **quality,
    }
    notes = {
        "op_s_p50": f"wall {stats.median([op.wall_seconds for op in ops]):.4g} s",
        "op_s_tail": f"p{percentile} of {count} ops",
        "setup_s": f"median of {len(setup_wall)} set-ups; wall {stats.median(setup_wall):.4g} s",
    }
    return ops, values, notes, problems, {"setup_seconds": setup_seconds,
                                          "setup_wall_seconds": setup_wall}


def traced_run(workload, seed: int, seconds: float):
    tracer = Tracer(layers.TARGETS, layers.EXTRACTORS)
    tracer.op = layers.SETUP
    state = None
    try:
        before = hostspeed.probe()
        t0 = time.perf_counter()
        with tracer:
            state = workload.setup(seed)
        setup_wall = time.perf_counter() - t0
        setup_scale = hostspeed.scaled(
            setup_wall, before, hostspeed.probe(), workload.loop_share) / setup_wall
        tracer.op = None
        ops = closed_loop(workload, state, seconds, tracer)
        em_input = workload.em_probe(state)
    finally:
        if state is not None:
            state.close()
    import arraysep

    tracemalloc.start()
    try:
        arraysep.run_em(em_input.specs, em_input.cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    traced = [op for op in ops if op.traced]
    scale = {op.index: op.seconds / op.wall_seconds for op in traced}
    scale[layers.SETUP] = setup_scale
    values = layers.layer_metrics(tracer.spans, [op.index for op in traced], scale)
    values["spatial_em.peak_alloc_mb"] = peak / 1e6
    values["trace.overhead_ratio"] = stats.median([op.seconds for op in traced]) / stats.median(
        [op.seconds for op in ops if not op.traced]
    )
    counts = collections.Counter(span.name for span in tracer.spans)
    problems = [
        f"traced run recorded no call of required span {name}"
        for name in workload.required_spans if not counts[name]
    ]
    spans = [
        dict(dataclasses.asdict(span), self=own)
        for span, own in zip(tracer.spans, self_times(tracer.spans))
    ]
    notes = {"trace.overhead_ratio": f"{len(traced)} traced / {len(ops) - len(traced)} untraced ops"}
    return ops, values, notes, problems, {"spans": spans}


def report(declared, values: dict, notes: dict) -> dict:
    """Print a table of the declared metrics and return them for the JSON line."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    metrics = {}
    for m in declared:
        value = float(values[m["name"]])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = notes.get(m["name"], "")
        print(f"  {m['name']:<30} {value:>14.6g} {m['unit']:<6} {m['better']:<6} {note}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("seed must be nonnegative and seconds positive")

    threads = pin_blas_threads()
    import_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload}; choose from {workloads.NAMES}")
    out_dir = HERE / "runs"
    out_dir.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, str(out_dir))

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} blas_threads={threads}")
    if args.trace:
        ops, values, notes, problems, record = traced_run(workload, args.seed, args.seconds)
        declared = spec["per_layer"]
    else:
        ops, values, notes, problems, record = untraced_run(workload, args.seed, args.seconds)
        declared = spec["end_to_end"]
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "blas_threads": threads, "values": values,
        "ops": [dataclasses.asdict(op) for op in ops], **record,
    }))
    print(f"# run record written to {path.relative_to(ROOT)}")
    failed = sum(1 for op in ops if op.problems)
    metrics = report(declared, values, notes)
    print(f"  {'fail_ratio':<30} {failed / len(ops):>14.6g} {'ratio':<6} {'lower':<6} "
          f"{failed} of {len(ops)} ops")
    for op in ops:
        for problem in op.problems:
            print(f"# FAILED {problem}", file=sys.stderr)
    for problem in problems:
        print(f"# FAILED {problem}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
