"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the root of a repository checkout::

    python3 perfbench/run.py --workload sweep_stream --seed 1 --seconds 10 --trace 0

``--trace 0`` measures with tracing off and prints the end-to-end metrics.
``--trace 1`` runs the workload twice — untraced, then traced — and prints
the per-layer metrics: each layer's self time, the ``other`` remainder
(layers plus ``other`` add up to ``trace.wall_s``), the tracing overhead
(untraced over traced throughput) and the untraced latency, read-back and
error figures.  The traced run's spans are written to
``.perfbench/trace-<workload>-seed<seed>.json``.

Metric names and units come from ``BENCHMARK.json`` at the checkout root.
The line before the last is a report with every figure, the sample counts,
the workload sizes, the seed, ``cpu_count`` and the Python and numpy
versions.  The exit code is 1 when an output check failed and 2 when the
checkout holds no ``src/repro`` to measure.
"""

import argparse
import json
import math
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep_stream", "sweep_wide", "sweep_fleet", "serve_socket")
#: Per-layer self times; with ``trace.other_s`` they add up to ``trace.wall_s``.
SELF_TIMES = (
    "core.pipeline.collect_s",
    "core.pipeline.train_s",
    "workloads.benchmarks.build_s",
    "runtime.plan.batch_plan_s",
    "runtime.vectorized.engine_s",
    "sim.results.reduce_s",
    "runtime.streamstore.emit_s",
    "runtime.streamstore.end_cell_s",
    "analysis.streaming.fold_s",
    "runtime.streamstore.open_s",
    "analysis.streaming.readback_s",
    "runtime.stream.sink_s",
    "fleet.coordinator.run_s",
    "fleet.merge.merge_s",
    "fleet.service.handle_s",
    "api.session.feed_many_s",
    "fleet.state.save_s",
    "fleet.state.restore_s",
)
#: Untraced figures the traced run reports next to the layers.
UNTRACED = ("readback_per_s", "latency_p50_ms", "latency_p99_ms", "latency_samples", "error_rate")


def _workload(name):
    if name == "serve_socket":
        from serve import serve_socket

        return serve_socket
    import sweeps

    return getattr(sweeps, name)


def _measure(fn, args, tracer, workdir, state):
    kwargs = {"scale": args.scale}
    if fn.__name__ == "serve_socket":
        kwargs["log_dir"] = state
    workdir.mkdir(parents=True)
    return fn(args.seed, args.seconds, tracer, str(workdir), **kwargs)


def _number(value):
    return float(value) if math.isfinite(value) else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="workload size factor (self-test: < 1)"
    )
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {root}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path[:0] = [str(root / "src"), str(HERE)]
    os.environ["REPRO_ARTIFACT_DIR"] = "off"  # no predictor cache outside the checkout
    state = root / ".perfbench"
    work = state / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(work)

    import numpy

    from tracing import NullTracer, Tracer

    fn = _workload(args.workload)
    trace_file = None
    try:
        base = _measure(fn, args, NullTracer(), work / "untraced", state)
        results = [base]
        if args.trace:
            tracer = Tracer()
            traced = _measure(fn, args, tracer, work / "traced", state)
            results.append(traced)
            trace_file = state / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.dump(trace_file)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = all(r["correct"] for r in results)
    if args.trace:
        correct = correct and traced["digest"] == base["digest"]
        values = dict(traced["layers"])
        values["trace.overhead_ratio"] = (
            base["e2e"]["throughput_per_s"] / traced["e2e"]["throughput_per_s"]
        )
        values.update({name: base["e2e"].get(name, 0.0) for name in UNTRACED})
        wanted = spec["per_layer"]
    else:
        values = base["e2e"]
        wanted = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": _number(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    report = {
        "perfbench": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sizes": base["info"],
        "untraced": {
            name: {"value": _number(v), "unit": units[name]} for name, v in base["e2e"].items()
        },
        "digest": base["digest"],
        "trace_file": None if trace_file is None else str(trace_file.relative_to(root)),
    }
    print(json.dumps(report, allow_nan=False))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            },
            allow_nan=False,
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
