"""Record sinks: the streaming side of the batched experiment runtime.

The batch path materialises every cell's full :class:`~repro.sim.results.
StepRecord` list before anything is persisted, which caps a sweep at whatever
fits in RAM.  A :class:`RecordSink` inverts that flow: the simulation layer
*pushes* records as they are produced — ``begin_cell`` opens one cell,
``emit`` delivers each step record, ``end_cell`` commits it — and the sink
decides what to keep.  :class:`CollectorSink` rebuilds the classic in-memory
:class:`~repro.runtime.store.ResultStore` (which is how the batch path is now
implemented, guaranteeing the two paths stay bit-identical);
:class:`~repro.runtime.streamstore.StreamingResultStore` appends each
completed cell to sharded JSONL on disk; the analysis layer's
:class:`~repro.analysis.streaming.SummarySink` folds records into O(1)
running aggregates.  :class:`TeeSink` fans one stream out to several sinks.
Batch producers hand a cell's records over as columns, and each sink gets
them as columns or as records, whichever it takes.  The protocol carries no
timing: what a sink keeps depends only on the cells and their records, so
every executor feeds it the same data.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Protocol, Sequence, runtime_checkable

from ..sim.results import RecordColumns, SimulationResult, StepRecord
from .store import CellResult, ResultStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.logger import SystemLogger
    from .plan import ExperimentCell

__all__ = [
    "RecordSink",
    "CollectorSink",
    "TeeSink",
    "forward_columns",
    "push_cell_result",
]


@runtime_checkable
class RecordSink(Protocol):
    """Consumer of an incrementally produced cell-result stream.

    Executors drive the protocol strictly as ``begin_cell`` → ``emit``* →
    ``end_cell`` per cell; a cell is only *committed* by ``end_cell``, so a
    sink interrupted mid-cell (a crash, an executor error) must be able to
    discard or recover the partial cell — this is what makes the streaming
    store's resume crash-safe.

    A sink may also offer an optional hook that takes a whole run of the
    open cell's records in one call, in place of that many ``emit`` calls:
    ``emit_columns(columns)`` with :class:`~repro.sim.results.RecordColumns`
    (what batch engines produce; :class:`~repro.analysis.streaming.
    SummarySink` folds them and the streaming store encodes them).
    The columns may be views of the producer's buffers, left unchanged
    until the cell's ``end_cell``; a sink keeping them longer copies them.
    :func:`_forward` picks the form per sink.
    """

    def begin_cell(
        self,
        cell: "ExperimentCell",
        workload_name: str,
        governor_name: str,
        dt_s: float,
    ) -> None:
        """Open one cell's record stream."""
        ...

    def emit(self, record: StepRecord) -> None:
        """Deliver the next step record of the open cell."""
        ...

    def end_cell(self, logger: Optional["SystemLogger"] = None) -> None:
        """Commit the open cell (the logger travels only to in-memory sinks)."""
        ...


class CollectorSink:
    """Sink that rebuilds in-memory :class:`CellResult` entries.

    This is the batch path expressed as a sink: collecting every record of
    every cell reproduces exactly what :meth:`BatchRunner.run` returns, which
    is why :func:`~repro.runtime.runner.run_cell` is implemented as
    ``stream_cell`` into a collector — one code path, bit-identical outputs.
    """

    def __init__(self, store: Optional[ResultStore] = None):
        self.store = store
        self.results: List[CellResult] = []
        self._cell: Optional["ExperimentCell"] = None
        self._result: Optional[SimulationResult] = None

    def begin_cell(self, cell, workload_name, governor_name, dt_s) -> None:
        if self._cell is not None:
            raise RuntimeError(
                f"cell {self._cell.cell_id!r} is still open; end_cell it first"
            )
        self._cell = cell
        self._result = SimulationResult(
            workload_name=workload_name, governor_name=governor_name, dt_s=dt_s
        )

    def emit(self, record: StepRecord) -> None:
        self._result.append(record)

    def end_cell(self, logger=None) -> None:
        if self._cell is None:
            raise RuntimeError("no open cell to commit")
        entry = CellResult(cell=self._cell, result=self._result, logger=logger)
        self._cell = None
        self._result = None
        self.results.append(entry)
        if self.store is not None:
            self.store.append(entry)


def _forward(sinks: Sequence[RecordSink], columns: RecordColumns) -> None:
    """Deliver one run of records to each sink in the form it takes.

    A sink with an ``emit_columns`` hook gets the columns themselves; the
    others get per-record :meth:`~RecordSink.emit` calls, with the
    :class:`StepRecord` objects built at most once per run however many
    sinks share them.
    """
    if not len(columns):
        return
    records: Optional[List[StepRecord]] = None
    for sink in sinks:
        hook = getattr(sink, "emit_columns", None)
        if hook is not None:
            hook(columns)
            continue
        if records is None:
            records = list(columns)
        for record in records:
            sink.emit(record)


def forward_columns(sink: RecordSink, columns: RecordColumns) -> None:
    """Deliver a run of the open cell's records to one sink (see :func:`_forward`)."""
    _forward((sink,), columns)


class TeeSink:
    """Fans one record stream out to several sinks (e.g. disk store + summaries).

    Whole runs of records (columns) reach each child in the form it takes,
    converted at most once per run (see :func:`_forward`).
    """

    def __init__(self, *sinks: RecordSink):
        if not sinks:
            raise ValueError("a tee needs at least one sink")
        self.sinks = sinks

    def begin_cell(self, cell, workload_name, governor_name, dt_s) -> None:
        for sink in self.sinks:
            sink.begin_cell(cell, workload_name, governor_name, dt_s)

    def emit(self, record: StepRecord) -> None:
        for sink in self.sinks:
            sink.emit(record)

    def emit_columns(self, columns: RecordColumns) -> None:
        _forward(self.sinks, columns)

    def end_cell(self, logger=None) -> None:
        for sink in self.sinks:
            sink.end_cell(logger=logger)


def push_cell_result(sink: RecordSink, entry: CellResult) -> None:
    """Forward an already-materialised cell result through a sink.

    Used wherever a whole cell arrives at once — the vectorized executor's
    per-group results, a fallback cell's collected result — so every sink
    sees one uniform protocol.  A result whose records are still deferred
    columns goes through :func:`_forward`, so no :class:`StepRecord` is built
    unless some sink asks for records.
    """
    result = entry.result
    sink.begin_cell(
        entry.cell,
        workload_name=result.workload_name,
        governor_name=result.governor_name,
        dt_s=result.dt_s,
    )
    columns = result.record_columns()
    if columns is not None:
        _forward((sink,), columns)
    else:
        for record in result.records:
            sink.emit(record)
    sink.end_cell(logger=entry.logger)
