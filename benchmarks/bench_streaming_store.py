"""Benchmarks of the streaming results pipeline.

Not a paper figure: these measure what the streaming record path buys — the
*peak memory* of a sweep (the batch path accumulates every cell's full
``StepRecord`` list; the streamed path holds ~one cell plus at most one
staged column block) and the cost of writing and reading back sharded
stores, so regressions in either are visible over time.  The streamed sweep
runs twice: record by record through the serial executor, and through the
vectorized executor, whose batches reach the store as columns (it holds one
batch of columns, so its peak is higher than the serial stream's).  Each
streamed arm reports the shard bytes per record and the read-back rate
(``stream_summaries`` over the written store, best of three).

Peak memory is measured with :mod:`tracemalloc` (allocation peak, which is
what accumulating record lists dominates), so the numbers are comparable
across machines without ``psutil``; wall time comes from a separate,
untraced run.

Run under pytest-benchmark as part of the harness, or directly::

    python benchmarks/bench_streaming_store.py [--baseline DIR]

which re-measures everything and rewrites
``benchmarks/BENCH_streaming_store.json`` — the committed baseline that gives
future PRs a memory/throughput trajectory — under ``"after"``.  With
``--baseline DIR`` (another checkout, e.g. the parent commit unpacked with
``git archive``) both sides run in fresh interpreters, alternating three
times, and the medians land under ``"before"`` and ``"after"``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

if __name__ == "__main__":  # allow running as a script without PYTHONPATH
    # A --worker run measures the checkout whose src/ it is given.
    _SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    if "--worker" in sys.argv:
        _SRC = sys.argv[sys.argv.index("--worker") + 1]
    sys.path.insert(0, _SRC)

from repro.analysis.streaming import stream_summaries
from repro.runtime import (
    BatchRunner,
    ExperimentCell,
    ExperimentPlan,
    SerialExecutor,
    StreamingResultStore,
    VectorizedExecutor,
)
from repro.workloads.benchmarks import build_benchmark

N_CELLS = 24
TRACE_SECONDS = 600.0


def _plan():
    trace = build_benchmark("skype", seed=0, duration_s=TRACE_SECONDS)
    return ExperimentPlan(
        [ExperimentCell(cell_id=f"cell{i:02d}", trace=trace, seed=i) for i in range(N_CELLS)]
    ), trace


def _run_batch(plan):
    return BatchRunner(executor=SerialExecutor()).run(plan)


def _run_streamed(plan, directory, executor=None):
    store = StreamingResultStore(directory)
    BatchRunner(executor=executor or SerialExecutor()).run_stream(plan, store)
    store.close()


def _measure(fn):
    """(wall_seconds, tracemalloc_peak_bytes) of ``fn``.

    Two calls: the timed one runs untraced, because tracemalloc's
    per-allocation bookkeeping would slow the record-heavy paths far more
    than the columnar ones and distort the comparison.
    """
    start = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return elapsed, peak


# ---------------------------------------------------------------------------
# pytest-benchmark entry points
# ---------------------------------------------------------------------------


def bench_sweep_batch_in_memory(benchmark):
    """24 cells accumulated in memory (the pre-streaming path)."""
    plan, _ = _plan()
    store = benchmark.pedantic(lambda: _run_batch(plan), rounds=2, iterations=1)
    assert len(store) == N_CELLS


def _bench_streamed(benchmark, executor):
    plan, _ = _plan()

    def run():
        directory = tempfile.mkdtemp(prefix="bench-stream-")
        try:
            _run_streamed(plan, directory, executor)
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    benchmark.pedantic(run, rounds=2, iterations=1)


def bench_sweep_streamed_to_shards(benchmark):
    """The same 24 cells streamed into a sharded JSONL store."""
    _bench_streamed(benchmark, SerialExecutor())


def bench_sweep_vectorized_streamed_to_shards(benchmark):
    """The same 24 cells, one vectorized batch streamed as columns."""
    _bench_streamed(benchmark, VectorizedExecutor())


# ---------------------------------------------------------------------------
# baseline writer (python benchmarks/bench_streaming_store.py)
# ---------------------------------------------------------------------------

BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_streaming_store.json"
)


STREAMED_ARMS = (
    ("streamed_to_shards", SerialExecutor),
    ("vectorized_streamed_to_shards", VectorizedExecutor),
)
REPEATS = 3


def _readback_s(directory):
    """Best-of-three time to re-fold every cell of a written store."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        stream_summaries(StreamingResultStore(directory))
        times.append(time.perf_counter() - start)
    return min(times)


def measure():
    """Every figure of the baseline, for the ``repro`` this interpreter imports."""
    plan, trace = _plan()
    member_steps = len(trace) * N_CELLS

    batch_s, batch_peak = _measure(lambda: _run_batch(plan))
    figures = {
        "batch_in_memory": {
            "seconds": batch_s,
            "peak_mb": batch_peak / 1e6,
            "member_steps_per_s": member_steps / batch_s,
        }
    }
    for name, executor in STREAMED_ARMS:
        directory = tempfile.mkdtemp(prefix="bench-stream-")

        def run():
            shutil.rmtree(directory, ignore_errors=True)
            _run_streamed(plan, directory, executor())

        try:
            seconds, peak = _measure(run)
            shard_bytes = sum(
                os.path.getsize(os.path.join(directory, entry))
                for entry in os.listdir(directory)
                if entry.startswith("shard-")
            )
            readback_s = _readback_s(directory)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        figures[name] = {
            "seconds": seconds,
            "peak_mb": peak / 1e6,
            "member_steps_per_s": member_steps / seconds,
            "shard_mb_written": shard_bytes / 1e6,
            "bytes_per_record": shard_bytes / member_steps,
            "readback_records_per_s": member_steps / readback_s,
        }
    figures["peak_memory_ratio"] = batch_peak / (figures["streamed_to_shards"]["peak_mb"] * 1e6)
    return figures


def _worker(root):
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", os.path.join(root, "src")],
        check=True,
        capture_output=True,
        text=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _median(samples):
    """Figure-wise medians of several :func:`measure` results."""
    first = samples[0]
    if not isinstance(first, dict):
        return statistics.median(samples)
    return {key: _median([sample[key] for sample in samples]) for key in first}


def write_baseline(path=BASELINE_PATH, baseline_root=None):
    """Measure the batch vs streamed sweeps and write the JSON baseline."""
    _, trace = _plan()
    report = {
        "config": {
            "cells": N_CELLS,
            "trace": "skype",
            "trace_steps": len(trace),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        }
    }
    if baseline_root is None:
        report["after"] = measure()
    else:
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        sides = {"before": os.path.abspath(baseline_root), "after": here}
        samples = {side: [] for side in sides}
        for _ in range(REPEATS):
            for side, root in sides.items():
                samples[side].append(_worker(root))
        report["config"]["repeats"] = REPEATS
        report.update({side: _median(runs) for side, runs in samples.items()})
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", help="checkout root to compare against (its src/ is used)")
    parser.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(measure()))
        return 0
    report = write_baseline(baseline_root=args.baseline)
    print(json.dumps(report, indent=2))
    for side in ("before", "after"):
        if side in report:
            figures = report[side]
            print(
                f"{side}: streaming cuts sweep peak memory "
                f"{figures['peak_memory_ratio']:.1f}x; bytes/record "
                + ", ".join(
                    f"{name} {figures[name]['bytes_per_record']:.0f}"
                    for name, _ in STREAMED_ARMS
                ),
                file=sys.stderr,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
