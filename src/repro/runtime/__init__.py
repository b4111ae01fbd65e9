"""Batched experiment runtime.

This package turns the paper's evaluation grid into data: an
:class:`~repro.runtime.plan.ExperimentPlan` describes the cells (benchmark ×
governor × manager × seed), a :class:`~repro.runtime.runner.BatchRunner`
executes them through a pluggable executor, and a
:class:`~repro.runtime.store.ResultStore` collects the per-cell
:class:`~repro.sim.results.SimulationResult` streams with their metadata.

Executors trade scheduling for the same deterministic results:

* :class:`~repro.runtime.executors.SerialExecutor` — simple in-process loop;
* :class:`~repro.runtime.executors.VectorizedExecutor` — every
  batch-eligible cell, whatever its workload trace, integrates in lockstep
  as one structure-of-arrays batch through
  :func:`~repro.runtime.vectorized.simulate_population_mixed`, turning N
  thermal solves per tick into one batched evaluation of the cached step
  map (with live-prefix early exit for short traces and a columnar record
  path; ``plan_batches`` explains the partition).

Both run in the current process; :class:`~repro.fleet.coordinator.
FleetCoordinator` (``repro-usta sweep --fleet N --stream-to DIR``) fans a
plan out over worker processes that each run a vectorized slice.

For sweeps too large to hold in memory, the record path also runs
*streaming*: executors push each completed cell through the
:class:`~repro.runtime.stream.RecordSink` protocol into an append-only
sharded-JSONL :class:`~repro.runtime.streamstore.StreamingResultStore`
(crash-safe, resumable, bit-identical to the batch path), and
:mod:`repro.runtime.artifacts` caches trained predictor artifacts by content
key so repeated sweeps and fleet workers stop retraining per process.

Quickstart::

    from repro.runtime import BatchRunner, ExperimentPlan

    plan = ExperimentPlan.from_product(
        benchmarks=("skype", "youtube"),
        managers={"baseline": None},
        duration_scale=0.1,
    )
    store = BatchRunner.for_jobs(None).run(plan)
    for row in store.summary_rows():
        print(row["cell_id"], row["max_skin_temp_c"])

    # or, bounded-memory with resume:
    from repro.runtime import StreamingResultStore

    disk = StreamingResultStore("out/")
    BatchRunner.for_jobs(None).run_stream(plan, disk, skip=disk.completed_cell_ids)
    disk.close()
"""

from .artifacts import ArtifactCache, configured_artifact_cache
from .executors import SerialExecutor, VectorizedExecutor
from .plan import (
    BatchPlan,
    ConstantManagerFactory,
    ExperimentCell,
    ExperimentPlan,
    batch_ineligibility,
    plan_batches,
)
from .runner import BatchRunner, run_cell, stream_cell
from .store import CellResult, ResultStore
from .stream import CollectorSink, RecordSink, TeeSink, push_cell_result
from .streamstore import StoreCorruptionError, StreamingResultStore
from .vectorized import PopulationMember, VectorizationError, simulate_population_mixed

__all__ = [
    "ArtifactCache",
    "BatchPlan",
    "BatchRunner",
    "CellResult",
    "CollectorSink",
    "ConstantManagerFactory",
    "ExperimentCell",
    "ExperimentPlan",
    "PopulationMember",
    "RecordSink",
    "ResultStore",
    "SerialExecutor",
    "StoreCorruptionError",
    "StreamingResultStore",
    "TeeSink",
    "VectorizationError",
    "VectorizedExecutor",
    "batch_ineligibility",
    "configured_artifact_cache",
    "plan_batches",
    "push_cell_result",
    "run_cell",
    "simulate_population_mixed",
    "stream_cell",
]
