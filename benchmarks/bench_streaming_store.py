"""Benchmarks of the streaming results pipeline.

Not a paper figure: these measure what the streaming record path buys — the
*peak memory* of a sweep (the batch path accumulates every cell's full
``StepRecord`` list; the streamed path holds ~one cell) and the throughput
cost of writing sharded JSONL while executing, so regressions in either are
visible over time.  The streamed sweep runs twice: record by record through
the serial executor, and through the vectorized executor, whose batches
reach the store as columns serialised once per cell (it holds one batch of
columns, so its peak is higher than the serial stream's).

Peak memory is measured with :mod:`tracemalloc` (allocation peak, which is
what accumulating record lists dominates), so the numbers are comparable
across machines without ``psutil``; wall time comes from a separate,
untraced run.

Run under pytest-benchmark as part of the harness, or directly::

    python benchmarks/bench_streaming_store.py

which re-measures everything and rewrites
``benchmarks/BENCH_streaming_store.json`` — the committed baseline that gives
future PRs a memory/throughput trajectory.
"""

import json
import os
import platform
import shutil
import sys
import tempfile
import time
import tracemalloc

if __name__ == "__main__":  # allow running as a script without PYTHONPATH
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

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


def write_baseline(path=BASELINE_PATH):
    """Measure the batch vs streamed sweep and write the JSON baseline."""
    plan, trace = _plan()
    member_steps = len(trace) * N_CELLS

    batch_s, batch_peak = _measure(lambda: _run_batch(plan))

    streamed, peaks = {}, {}
    for name, executor in (
        ("streamed_to_shards", SerialExecutor()),
        ("vectorized_streamed_to_shards", VectorizedExecutor()),
    ):
        directory = tempfile.mkdtemp(prefix="bench-stream-")

        def run():
            shutil.rmtree(directory, ignore_errors=True)
            _run_streamed(plan, directory, executor)

        try:
            seconds, peak = _measure(run)
            shard_bytes = sum(
                os.path.getsize(os.path.join(directory, entry))
                for entry in os.listdir(directory)
            )
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        peaks[name] = peak
        streamed[name] = {
            "seconds": seconds,
            "peak_mb": peak / 1e6,
            "member_steps_per_s": member_steps / seconds,
            "shard_mb_written": shard_bytes / 1e6,
        }

    baseline = {
        "config": {
            "cells": N_CELLS,
            "trace": "skype",
            "trace_steps": len(trace),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
        "batch_in_memory": {
            "seconds": batch_s,
            "peak_mb": batch_peak / 1e6,
            "member_steps_per_s": member_steps / batch_s,
        },
        **streamed,
        "peak_memory_ratio": batch_peak / peaks["streamed_to_shards"],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=2)
        handle.write("\n")
    return baseline


if __name__ == "__main__":
    report = write_baseline()
    print(json.dumps(report, indent=2))
    ratio = report["peak_memory_ratio"]
    print(f"\nstreaming cuts sweep peak memory {ratio:.1f}x", file=sys.stderr)
