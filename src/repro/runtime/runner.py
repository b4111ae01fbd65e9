"""The batch runner: executes an :class:`ExperimentPlan` through an executor.

:func:`stream_cell` is the single-cell unit of work — it replays one cell and
pushes every step record into a :class:`~repro.runtime.stream.RecordSink` as
it is produced.  :func:`run_cell` is the batch form (stream into an in-memory
collector).  :class:`BatchRunner` runs a plan through a pluggable executor,
either collecting a :class:`~repro.runtime.store.ResultStore` (:meth:`run`)
or streaming completed cells into any sink (:meth:`run_stream`) so sweeps
never hold more than ~one cell's records in memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Optional

from ..device.platform import DevicePlatform
from ..sim.engine import Simulator
from ..sim.logger import SystemLogger
from ..workloads.trace import WorkloadTrace
from .plan import ExperimentCell, ExperimentPlan
from .store import CellResult, ResultStore
from .stream import CollectorSink, RecordSink, push_cell_result

__all__ = ["run_cell", "stream_cell", "BatchRunner"]


def stream_cell(
    cell: ExperimentCell,
    sink: RecordSink,
    trace: Optional["WorkloadTrace"] = None,
) -> None:
    """Execute one experiment cell from scratch, streaming records into a sink.

    Builds the trace, a fresh seeded platform, the governor and (optionally)
    the thermal manager and logger described by the cell — whether wired by
    name/factory or declared by a :class:`~repro.api.specs.PolicySpec` —
    then replays the trace through :meth:`Simulator.iter_records`, emitting
    each :class:`StepRecord` as it is produced.  Deterministic: the same cell
    always produces the same record stream, so streamed and collected
    executions are bit-identical.

    Args:
        cell: the cell to execute.
        sink: destination for the record stream.
        trace: optional pre-built workload trace (must be the cell's own —
            batch planning passes it so fallback cells do not rebuild what
            planning already materialised).
    """
    if trace is None:
        trace = cell.build_trace()
    factory = cell.platform_factory
    platform = factory() if factory is not None else DevicePlatform(seed=cell.seed)
    governor = cell.build_governor(table=platform.freq_table)
    manager = cell.build_manager(table=platform.freq_table)
    logger = SystemLogger(period_s=cell.log_period_s) if cell.log_period_s is not None else None
    simulator = Simulator(
        platform=platform,
        governor=governor,
        thermal_manager=manager,
        logger=logger,
    )
    sink.begin_cell(
        cell,
        workload_name=trace.name,
        governor_name=simulator.kernel.governor_label(),
        dt_s=trace.sample_period_s,
    )
    for record in simulator.iter_records(
        trace,
        initial_temps=dict(cell.initial_temps) if cell.initial_temps else None,
    ):
        sink.emit(record)
    sink.end_cell(logger=logger)


def run_cell(cell: ExperimentCell, trace: Optional["WorkloadTrace"] = None) -> CellResult:
    """Execute one experiment cell from scratch and return its result.

    The batch form of :func:`stream_cell`: the record stream is collected
    into an in-memory :class:`CellResult`.  Both forms share one execution
    path, which is what keeps them bit-identical.
    """
    collector = CollectorSink()
    stream_cell(cell, collector, trace=trace)
    return collector.results[0]


#: An executor turns a sequence of cells into a stream of results, preserving
#: input order.  See :mod:`repro.runtime.executors` for implementations.
CellExecutor = Callable[[Iterable[ExperimentCell]], Iterable[CellResult]]


@dataclass
class BatchRunner:
    """Executes experiment plans through a pluggable cell executor.

    Attributes:
        executor: object with an ``execute(cells) -> iterable of CellResult``
            method (``SerialExecutor`` by default — see
            :mod:`repro.runtime.executors` for the vectorized alternative).
            Executors may additionally implement ``execute_stream(cells,
            sink)`` for cell-at-a-time delivery; :meth:`run_stream` falls
            back to forwarding ``execute`` results otherwise.
    """

    executor: Optional[object] = None

    def __post_init__(self) -> None:
        if self.executor is None:
            from .executors import SerialExecutor

            self.executor = SerialExecutor()

    def run(self, plan: ExperimentPlan) -> ResultStore:
        """Execute every cell of the plan and collect the results.

        Results are streamed into the store in plan order regardless of the
        executor's internal scheduling.
        """
        store = ResultStore()
        for cell_result in self.executor.execute(list(plan)):
            store.append(cell_result)
        return store

    def run_stream(
        self,
        plan: ExperimentPlan,
        sink: RecordSink,
        skip: Collection[str] = (),
    ) -> int:
        """Execute a plan, streaming completed cells into a sink.

        Unlike :meth:`run`, nothing is accumulated here: each cell's records
        flow into the sink as they complete (record-by-record under the
        serial executor), so the live footprint stays bounded by roughly one
        cell whatever the plan size.

        Args:
            plan: the experiment plan.
            sink: destination for the record stream (e.g. a
                :class:`~repro.runtime.streamstore.StreamingResultStore`).
            skip: cell ids to leave out — pass a streaming store's
                ``completed_cell_ids`` to resume a crashed sweep.

        Returns:
            The number of cells executed (excluding skipped ones).
        """
        skip_set = frozenset(skip)
        cells = [cell for cell in plan if cell.cell_id not in skip_set]
        execute_stream = getattr(self.executor, "execute_stream", None)
        if execute_stream is not None:
            execute_stream(cells, sink)
        else:
            for cell_result in self.executor.execute(cells):
                push_cell_result(sink, cell_result)
        return len(cells)

    @classmethod
    def for_jobs(
        cls,
        jobs: Optional[int],
        window_steps: Optional[int] = None,
        window_bytes: Optional[int] = None,
    ) -> "BatchRunner":
        """The in-process vectorized runner, with optional window sizing.

        Args:
            jobs: must be ``None``, ``0`` or ``1``.  Fanning a plan out over
                worker processes is the fleet's job: ``repro sweep --fleet N
                --stream-to DIR`` or
                :class:`~repro.fleet.coordinator.FleetCoordinator`.
            window_steps: explicit step-window length for the vectorized
                executor (``--window-steps``); ``None`` keeps the executor's
                byte-budget default.
            window_bytes: staging byte budget for the vectorized executor
                (``--window-bytes``); ``None`` keeps the default.
        """
        from .executors import VectorizedExecutor

        if jobs is not None and jobs > 1:
            raise ValueError(
                f"{jobs} worker processes: the runner is in-process; fan a plan "
                "out over workers with `repro sweep --fleet N --stream-to DIR` "
                "or repro.fleet.FleetCoordinator"
            )
        kwargs = {}
        if window_steps is not None:
            kwargs["window_steps"] = window_steps
        if window_bytes is not None:
            kwargs["max_window_bytes"] = window_bytes
        return cls(executor=VectorizedExecutor(**kwargs))
