"""Cell executors: serial and heterogeneous vectorized batching.

An executor consumes a list of :class:`~repro.runtime.plan.ExperimentCell`
entries and yields one :class:`~repro.runtime.store.CellResult` per cell *in
input order*.  Both executors are deterministic and interchangeable:
for a given plan they produce identical :class:`StepRecord` streams (the
parity tests in ``tests/test_runtime.py`` and
``tests/test_heterogeneous_batch.py`` assert this bit-for-bit).

* :class:`SerialExecutor` — one cell after another in the current process.
* :class:`VectorizedExecutor` — every batch-eligible cell, whatever its
  workload trace, joins one structure-of-arrays batch per sample period
  through :func:`~repro.runtime.vectorized.simulate_population_mixed`;
  ineligible cells fall back to the scalar kernel (the partition and its
  reasons are inspectable via :meth:`VectorizedExecutor.batch_plan`).

Every executor additionally implements ``execute_stream(cells, sink)``, the
bounded-memory form :meth:`BatchRunner.run_stream` drives: completed cells
flow into a :class:`~repro.runtime.stream.RecordSink` instead of
accumulating.  The serial executor streams record-by-record (live footprint
≤ one cell); the vectorized executor integrates a batch in lockstep
(inherently O(batch) live — bounded by its ``max_batch_members`` cap, 256 by
default) and then drains the batch into the sink cell by cell as columns,
building no per-step record objects unless a sink asks for them.
Stream delivery order is first-appearance unit order — identical to plan
order whenever batched cells are contiguous; sinks key cells by id, so order
never affects resume or analysis.

Both executors run in the current process.  The one multi-process path is
the fleet (:class:`~repro.fleet.coordinator.FleetCoordinator`, ``repro sweep
--fleet N --stream-to DIR``), whose workers each run a vectorized slice of
the plan.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..device.hardware import HardwareSpec
from ..sim.logger import SystemLogger
from ..sim.results import RecordColumns
from ..workloads.trace import WorkloadTrace
from .plan import BatchPlan, ExperimentCell, plan_batches
from .runner import run_cell, stream_cell
from .store import CellResult
from .stream import RecordSink, forward_columns, push_cell_result
from .vectorized import (
    DEFAULT_MAX_WINDOW_BYTES,
    PopulationMember,
    VectorizationError,
    resolve_window_steps,
    simulate_population_mixed,
)

__all__ = [
    "SerialExecutor",
    "VectorizedExecutor",
]


@dataclass
class SerialExecutor:
    """Runs every cell sequentially in the current process."""

    def execute(self, cells: Iterable[ExperimentCell]) -> Iterator[CellResult]:
        """Yield one result per cell, in order."""
        for cell in cells:
            yield run_cell(cell)

    def execute_stream(self, cells: Iterable[ExperimentCell], sink: RecordSink) -> None:
        """Stream every cell's records into the sink, record by record."""
        for cell in cells:
            stream_cell(cell, sink)


class _WindowSpoolDrain:
    """Per-member record spool for the windowed streaming batch path.

    The windowed engine emits each live member's record rows at every window
    boundary, but the sink protocol commits whole cells — so the rows are
    spooled to one file per member (one line per window: the window's
    columns as one column block, the store's own encoding) and replayed into
    the sink cell by cell once the batch finishes, one window of columns at
    a time.  Peak memory is one window of staging plus one replayed window;
    the spool itself is sequential disk I/O.
    """

    def __init__(self, n_members: int):
        self._dir = tempfile.mkdtemp(prefix="repro-windowspool-")
        self._paths = [
            Path(self._dir) / f"member-{index:05d}.jsonl" for index in range(n_members)
        ]
        self._handles: List[Optional[object]] = [None] * n_members

    def emit_member_window(self, index: int, records: RecordColumns, done: bool) -> None:
        """Spool one member's rows of the just-finished window."""
        fh = self._handles[index]
        if fh is None:
            fh = self._handles[index] = open(self._paths[index], "w", encoding="ascii")
        if len(records):
            fh.write(records.to_block())
            fh.write("\n")
        if done:
            fh.close()
            self._handles[index] = None

    def replay_member(self, index: int, sink: RecordSink) -> None:
        """Forward one member's spooled records into an open sink cell."""
        path = self._paths[index]
        if not path.exists():
            return
        with open(path, "rb") as fh:
            for line in fh:
                forward_columns(sink, RecordColumns.from_blocks([json.loads(line)]))

    def cleanup(self) -> None:
        for index, fh in enumerate(self._handles):
            if fh is not None:
                fh.close()
                self._handles[index] = None
        shutil.rmtree(self._dir, ignore_errors=True)


@dataclass
class VectorizedExecutor:
    """Batches cells through the heterogeneous vectorized population engine.

    Planning (:func:`~repro.runtime.plan.plan_batches`) puts *every*
    batch-eligible cell — whatever its benchmark, trace, duration, seed,
    policy or adapter — into one structure-of-arrays batch per sample period,
    executed through :func:`~repro.runtime.vectorized.
    simulate_population_mixed`.  Ineligible cells (custom platforms,
    pre-built governor instances, detached traces, a lone cell at its sample
    period) run through :func:`~repro.runtime.runner.run_cell` unchanged, as
    does any batch the population engine rejects at validation time.  Use
    :meth:`batch_plan` (or ``repro sweep --explain-batching``) to see exactly
    which cells batched and why the rest fell back.

    Attributes:
        max_batch_members: ceiling on members per batch.  A batch's staging
            matrices (trace columns, sensor noise, the columnar record
            buffer) are O(members × steps) live, so the default cap keeps
            the footprint bounded by a constant number of cells whatever the
            plan size — the cross-member amortisation saturates far below
            it.  ``None`` removes the cap (one batch per sample period).
        window_steps: explicit step-window length for the engine (>= 2);
            windows bound the *per-step* axis the member cap cannot — the
            two caps compose, splitting wide plans by members and long
            traces by steps.  ``None`` (default) defers to the byte budget.
        max_window_bytes: staging byte budget the window length is sized
            from when ``window_steps`` is None (see
            :func:`~repro.runtime.vectorized.resolve_window_steps`).  The
            default keeps every paper-scale plan unwindowed; multi-hour
            traces are windowed automatically.  ``None`` disables windowing.
    """

    #: Default ceiling on members per SoA batch: large enough that the
    #: vectorization win is fully amortised, small enough that a streamed
    #: million-cell plan stages at most ~this many cells at a time.
    DEFAULT_MAX_BATCH_MEMBERS = 256

    max_batch_members: Optional[int] = DEFAULT_MAX_BATCH_MEMBERS
    window_steps: Optional[int] = None
    max_window_bytes: Optional[int] = DEFAULT_MAX_WINDOW_BYTES

    def batch_plan(self, cells: Sequence[ExperimentCell]) -> BatchPlan:
        """The batch/fallback partition this executor would use for ``cells``."""
        return plan_batches(cells, max_batch_members=self.max_batch_members)

    def execute(self, cells: Iterable[ExperimentCell]) -> Iterator[CellResult]:
        """Yield one result per cell, in input order."""
        cell_list = list(cells)
        batch_plan = self.batch_plan(cell_list)
        results: List[Optional[CellResult]] = [None] * len(cell_list)
        for index, _reason in batch_plan.scalar:
            results[index] = run_cell(
                cell_list[index], trace=batch_plan.traces.get(index)
            )
        for batch in batch_plan.batches:
            group = [cell_list[i] for i in batch]
            members = self._build_members(group)
            try:
                sim_results = simulate_population_mixed(
                    [batch_plan.traces[i] for i in batch],
                    members,
                    window_steps=self.window_steps,
                    max_window_bytes=self.max_window_bytes,
                )
                entries = map(CellResult, group, sim_results, (m.logger for m in members))
            except VectorizationError:
                entries = map(run_cell, group)
            for i, cell_result in zip(batch, entries):
                results[i] = cell_result
        for cell_result in results:
            assert cell_result is not None
            yield cell_result

    def execute_stream(self, cells: Iterable[ExperimentCell], sink: RecordSink) -> None:
        """Stream cells into the sink, draining each batch as it completes.

        Unlike :meth:`execute` (which buffers every result to restore plan
        order), units are processed and drained in first-appearance order —
        each structure-of-arrays batch at the position of its first cell, and
        each scalar cell record-by-record in place.  The live footprint is
        one batch, bounded by ``max_batch_members`` cells (256 by default),
        whatever the plan size.
        """
        cell_list = list(cells)
        batch_plan = self.batch_plan(cell_list)
        units: List[Tuple[int, Optional[List[int]]]] = [
            (index, None) for index, _reason in batch_plan.scalar
        ]
        units.extend((batch[0], batch) for batch in batch_plan.batches)
        for first_index, batch in sorted(units, key=lambda unit: unit[0]):
            if batch is None:
                stream_cell(
                    cell_list[first_index],
                    sink,
                    trace=batch_plan.traces.get(first_index),
                )
            else:
                group = [cell_list[i] for i in batch]
                traces = [batch_plan.traces[i] for i in batch]
                self._stream_batch(group, traces, sink)

    def _build_members(self, group: Sequence[ExperimentCell]) -> List[PopulationMember]:
        """One member per cell: its seed, initial temperatures, governor,
        manager and logger.  The engine runs every member on the stock
        :meth:`HardwareSpec.nexus4` (batched cells never carry a custom
        platform), so no platform is built."""
        table = HardwareSpec.nexus4().freq_table
        return [
            PopulationMember(
                governor=cell.build_governor(table=table),
                thermal_manager=cell.build_manager(table=table),
                logger=None if cell.log_period_s is None else SystemLogger(cell.log_period_s),
                initial_temps=cell.initial_temps,
                seed=cell.seed,
            )
            for cell in group
        ]

    def _stream_batch(
        self,
        group: Sequence[ExperimentCell],
        traces: Sequence[WorkloadTrace],
        sink: RecordSink,
    ) -> None:
        """Run one batch and stream it into the sink.

        Unwindowed batches push each cell's columns through
        :func:`~repro.runtime.stream.push_cell_result`.  Windowed
        batches run with a :class:`_WindowSpoolDrain`: the engine's record
        buffer stays one window long, each window's completed rows spool to
        per-member scratch files, and the spool replays into the sink cell by
        cell — shard bytes are identical to the unwindowed path (the store
        re-chunks the replayed windows into the same column blocks).
        """
        members = self._build_members(group)
        max_steps = max(len(trace) for trace in traces)
        window = resolve_window_steps(
            len(members),
            max_steps,
            window_steps=self.window_steps,
            max_window_bytes=self.max_window_bytes,
            n_noisy_sensors=HardwareSpec.nexus4().n_noisy_sensors,
            with_decisions=any(m.thermal_manager is not None for m in members),
        )
        spool = _WindowSpoolDrain(len(group)) if window < max_steps else None
        try:
            try:
                sim_results = simulate_population_mixed(
                    traces,
                    members,
                    window_steps=self.window_steps,
                    max_window_bytes=self.max_window_bytes,
                    window_drain=spool,
                )
            except VectorizationError:
                for cell in group:
                    stream_cell(cell, sink)
                return
            for index, (cell, member) in enumerate(zip(group, members)):
                # Drop the batch's reference as each cell goes out, so only
                # the sink decides what outlives the push.
                result, sim_results[index] = sim_results[index], None
                logger = member.logger
                if spool is None:
                    push_cell_result(sink, CellResult(cell=cell, result=result, logger=logger))
                    continue
                sink.begin_cell(
                    cell,
                    workload_name=result.workload_name,
                    governor_name=result.governor_name,
                    dt_s=result.dt_s,
                )
                spool.replay_member(index, sink)
                sink.end_cell(logger=logger)
        finally:
            if spool is not None:
                spool.cleanup()
