"""Single-pass streaming aggregates over step-record streams.

The batch analysis path materialises a full :class:`~repro.sim.results.
SimulationResult` per cell and reduces it with numpy.  For streamed sweeps
(``sweep --stream-to``) that would defeat the point, so this module provides
the O(1)-memory equivalents: a :class:`StreamingCellSummary` folds records
one at a time (or a batch engine's columns a cell at a time) into running
maxima/sums as the executor emits them, and a :class:`SummarySink`
collects one summary per streamed cell — which is how
``table1``, the adaptation frontier and the population sweep now compute
their tables without ever holding a cell's record list.

Exactness: maxima, counts, over-limit times and the final comfort limit are
bit-identical to the batch reductions; running means (average frequency /
power, throughput ratio) divide a running sum where numpy uses pairwise
summation, so those may differ from the batch numbers in the last ulp —
far below the precision any report prints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional

import numpy as np

from ..sim.results import RecordColumns, StepRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.plan import ExperimentCell
    from ..runtime.streamstore import StreamingResultStore

__all__ = [
    "StreamingCellSummary",
    "CellSummaryEntry",
    "StreamedPlanRun",
    "SummarySink",
    "summarize_records",
    "stream_summaries",
    "stream_plan_summaries",
]


class StreamingCellSummary:
    """Running reduction of one cell's step-record stream.

    Exposes the same headline metrics as :class:`~repro.sim.results.
    SimulationResult` (same property names, so the two are interchangeable
    for report building) plus the comfort metrics against an optional
    per-cell limit, while holding O(1) state however long the trace is.

    Args:
        dt_s: the trace's sampling period.
        limit_c: optional comfort limit to track time-over/exceedance for.
    """

    def __init__(self, dt_s: float, limit_c: Optional[float] = None):
        if not 0.0 < dt_s < math.inf:
            raise ValueError("dt_s must be positive and finite")
        self.dt_s = dt_s
        self.limit_c = limit_c
        self._n = 0
        self._max_skin = float("-inf")
        self._max_screen = float("-inf")
        self._max_cpu = float("-inf")
        self._freq_sum = 0.0
        self._power_sum = 0.0
        self._demand_sum = 0.0
        self._delivered_sum = 0.0
        self._usta_active = 0
        self._over_limit = 0
        self._peak_exceedance = 0.0
        self._final_limit: Optional[float] = None

    def add(self, record: StepRecord) -> None:
        """Fold one step record into the running aggregates."""
        self._n += 1
        if record.skin_temp_c > self._max_skin:
            self._max_skin = record.skin_temp_c
        if record.screen_temp_c > self._max_screen:
            self._max_screen = record.screen_temp_c
        if record.cpu_temp_c > self._max_cpu:
            self._max_cpu = record.cpu_temp_c
        self._freq_sum += record.frequency_khz
        self._power_sum += record.power_w
        self._demand_sum += record.demand
        self._delivered_sum += record.delivered_work
        if record.usta_active:
            self._usta_active += 1
        if self.limit_c is not None and record.skin_temp_c > self.limit_c:
            self._over_limit += 1
            excess = record.skin_temp_c - self.limit_c
            if excess > self._peak_exceedance:
                self._peak_exceedance = excess
        self._final_limit = record.comfort_limit_c

    def add_columns(self, columns: RecordColumns) -> None:
        """Fold a run of records held as columns; bit-identical to :meth:`add`.

        Every aggregate sees the same values, in the same step order, under
        the same comparison as :meth:`add` applies per record, folded with
        numpy over the run's typed arrays: a maximum replaces the running
        value only on a strict ``>`` (NaN never does; of equal values,
        ``±0.0`` included, the first is kept), and a sum is
        ``np.add.accumulate`` from the running value, the same left-to-right
        chain of float additions (numpy's pairwise sums would differ in the
        last ulp).
        """
        n = len(columns)
        if not n:
            return
        skin = columns.column("skin_temp_c")
        self._n += n
        self._max_skin = _fold_max(self._max_skin, skin)
        self._max_screen = _fold_max(self._max_screen, columns.column("screen_temp_c"))
        self._max_cpu = _fold_max(self._max_cpu, columns.column("cpu_temp_c"))
        self._freq_sum = _fold_sum(self._freq_sum, columns.column("frequency_khz"))
        self._power_sum = _fold_sum(self._power_sum, columns.column("power_w"))
        self._demand_sum = _fold_sum(self._demand_sum, columns.column("demand"))
        self._delivered_sum = _fold_sum(self._delivered_sum, columns.column("delivered_work"))
        self._usta_active += int(np.count_nonzero(columns.column("usta_active")))
        limit = self.limit_c
        if limit is not None:
            over = skin[skin > limit]
            if len(over):
                self._over_limit += len(over)
                self._peak_exceedance = _fold_max(self._peak_exceedance, over - limit)
        last = columns.column("comfort_limit_c")[-1]
        self._final_limit = last.item() if columns.present("comfort_limit_c")[-1] else None

    # -- SimulationResult-compatible metrics -------------------------------------

    @property
    def n_records(self) -> int:
        """Records folded so far."""
        return self._n

    @property
    def duration_s(self) -> float:
        """Simulated duration."""
        return self._n * self.dt_s

    @property
    def max_skin_temp_c(self) -> float:
        """Maximum skin temperature (bit-identical to the batch reduction)."""
        return self._max_skin if self._n else float("nan")

    @property
    def max_screen_temp_c(self) -> float:
        """Maximum screen temperature."""
        return self._max_screen if self._n else float("nan")

    @property
    def max_cpu_temp_c(self) -> float:
        """Maximum CPU die temperature."""
        return self._max_cpu if self._n else float("nan")

    @property
    def average_frequency_ghz(self) -> float:
        """Average CPU frequency (running mean; last-ulp vs ``np.mean``)."""
        return (self._freq_sum / self._n) / 1e6 if self._n else float("nan")

    @property
    def average_power_w(self) -> float:
        """Average platform power (running mean)."""
        return self._power_sum / self._n if self._n else float("nan")

    @property
    def total_energy_j(self) -> float:
        """Total platform energy over the run (Joules)."""
        return self._power_sum * self.dt_s if self._n else 0.0

    @property
    def demanded_work(self) -> float:
        """Total work the workload asked for."""
        return self._demand_sum

    @property
    def delivered_work(self) -> float:
        """Total work actually executed."""
        return self._delivered_sum

    @property
    def throughput_ratio(self) -> float:
        """Delivered / demanded work (1.0 = no slowdown)."""
        if self._demand_sum <= 0:
            return 1.0
        return min(1.0, self._delivered_sum / self._demand_sum)

    @property
    def usta_active_fraction(self) -> float:
        """Fraction of steps in which USTA had a frequency cap installed."""
        return self._usta_active / self._n if self._n else 0.0

    # -- comfort (against the tracked limit) -------------------------------------

    @property
    def final_comfort_limit_c(self) -> Optional[float]:
        """The live comfort limit the run *ended* on (adaptive policies move it)."""
        return self._final_limit

    @property
    def time_over_limit_s(self) -> float:
        """Time spent above the tracked limit (requires ``limit_c``)."""
        if self.limit_c is None:
            raise ValueError("no comfort limit was tracked for this summary")
        return self._over_limit * self.dt_s

    @property
    def percent_time_over_limit(self) -> float:
        """Percentage of the run spent above the tracked limit."""
        if self._n == 0:
            return 0.0
        return min(100.0, 100.0 * self.time_over_limit_s / self.duration_s)

    @property
    def peak_exceedance_c(self) -> float:
        """Peak excess over the tracked limit (0 when never exceeded)."""
        if self.limit_c is None:
            raise ValueError("no comfort limit was tracked for this summary")
        return self._peak_exceedance

    def summary(self) -> Dict[str, float]:
        """Headline metrics, same keys as :meth:`SimulationResult.summary`."""
        return {
            "max_skin_temp_c": self.max_skin_temp_c,
            "max_screen_temp_c": self.max_screen_temp_c,
            "max_cpu_temp_c": self.max_cpu_temp_c,
            "average_frequency_ghz": self.average_frequency_ghz,
            "average_power_w": self.average_power_w,
            "throughput_ratio": self.throughput_ratio,
            "usta_active_fraction": self.usta_active_fraction,
        }


def _fold_max(running: float, values: np.ndarray) -> float:
    """``running`` after ``if value > running: running = value`` over ``values``."""
    top = np.fmax.reduce(values)  # NaN only when every value is NaN
    if top > running:
        # The first value equal to the maximum is the one a strict > keeps.
        return values[np.argmax(values == top)].item()
    return running


def _fold_sum(running: float, values: np.ndarray) -> float:
    """``functools.reduce(operator.add, values, running)`` as one accumulate."""
    chain = np.empty(len(values) + 1)
    chain[0] = running
    chain[1:] = values
    with np.errstate(all="ignore"):  # inf - inf is NaN here too, silently
        return np.add.accumulate(chain, out=chain)[-1].item()


def summarize_records(
    records: Iterable[StepRecord], dt_s: float, limit_c: Optional[float] = None
) -> StreamingCellSummary:
    """Fold any record iterable into a :class:`StreamingCellSummary`."""
    summary = StreamingCellSummary(dt_s, limit_c=limit_c)
    for record in records:
        summary.add(record)
    return summary


@dataclass(frozen=True)
class CellSummaryEntry:
    """One streamed cell's identity plus its folded summary."""

    cell: "ExperimentCell"
    summary: StreamingCellSummary


class SummarySink:
    """Record sink folding each streamed cell into a running summary.

    Tee this next to a :class:`~repro.runtime.streamstore.
    StreamingResultStore` and a sweep gets its report table for free — no
    cell's records are ever retained.

    Args:
        limit_for: optional callable mapping a cell to the comfort limit its
            summary should track (e.g. the cell's user's true limit), or
            ``None`` for no comfort tracking.
    """

    def __init__(
        self, limit_for: Optional[Callable[["ExperimentCell"], Optional[float]]] = None
    ):
        self.limit_for = limit_for
        self.entries: List[CellSummaryEntry] = []
        self.by_id: Dict[str, CellSummaryEntry] = {}
        self._cell: Optional["ExperimentCell"] = None
        self._summary: Optional[StreamingCellSummary] = None

    def begin_cell(self, cell, workload_name, governor_name, dt_s) -> None:
        if self._cell is not None:
            raise RuntimeError(
                f"cell {self._cell.cell_id!r} is still open; end_cell it first"
            )
        limit = self.limit_for(cell) if self.limit_for is not None else None
        self._cell = cell
        self._summary = StreamingCellSummary(dt_s, limit_c=limit)

    def emit(self, record: StepRecord) -> None:
        self._summary.add(record)

    def emit_columns(self, columns: RecordColumns) -> None:
        self._summary.add_columns(columns)

    def end_cell(self, logger=None) -> None:
        if self._cell is None:
            raise RuntimeError("no open cell to commit")
        entry = CellSummaryEntry(cell=self._cell, summary=self._summary)
        self._cell = None
        self._summary = None
        self.entries.append(entry)
        self.by_id[entry.cell.cell_id] = entry


@dataclass(frozen=True)
class StreamedPlanRun:
    """What one streamed plan execution produced.

    Attributes:
        store: the (closed) shard store the plan streamed into.
        entries: one summary per *plan* cell — freshly executed cells folded
            live, previously persisted ones re-folded from the shards.
        executed_ids: cells this run actually simulated.
        resumed_ids: plan cells answered from the directory's existing shards.
    """

    store: "StreamingResultStore"
    entries: Dict[str, CellSummaryEntry]
    executed_ids: frozenset
    resumed_ids: frozenset


def stream_plan_summaries(
    runner,
    plan,
    stream_to,
    limit_for: Optional[Callable[["ExperimentCell"], Optional[float]]] = None,
    resume: bool = False,
) -> StreamedPlanRun:
    """Stream a plan into a shard directory and summarise every plan cell.

    The one streaming orchestration every report shares (``table1
    --stream-to``, the adaptation frontier, the population sweep): open (or
    resume) the directory, tee the record stream into the store and a
    :class:`SummarySink`, skip already-persisted cells, and re-fold exactly
    the plan's previously-completed cells from the shards — cells some other
    plan left in the directory are ignored, not crashed on.

    Raises:
        ValueError: the directory already holds cells and ``resume`` is
            False (refusing beats silently mixing two sweeps' outputs).
    """
    from ..runtime.stream import TeeSink
    from ..runtime.streamstore import StreamingResultStore

    store = StreamingResultStore(stream_to)
    completed = store.completed_cell_ids
    if completed and not resume:
        raise ValueError(
            f"{store.directory} already holds {len(completed)} cell(s); "
            "pass resume=True to continue it or point stream_to at a fresh "
            "directory"
        )
    sink = SummarySink(limit_for=limit_for)
    runner.run_stream(plan, TeeSink(store, sink), skip=completed)
    store.close()
    entries = dict(sink.by_id)
    resumed = frozenset(completed & {cell.cell_id for cell in plan})
    if resumed:
        entries.update(stream_summaries(store, limit_for=limit_for, only=resumed))
    return StreamedPlanRun(
        store=store,
        entries=entries,
        executed_ids=frozenset(sink.by_id),
        resumed_ids=resumed,
    )


def stream_summaries(
    store: "StreamingResultStore",
    limit_for: Optional[Callable[["ExperimentCell"], Optional[float]]] = None,
    only: Optional[Iterable[str]] = None,
) -> Dict[str, CellSummaryEntry]:
    """Summaries of (a subset of) a streamed store's cells, one cell at a time.

    This is how a resumed sweep reports on the cells a *previous* run
    completed: each shard line is parsed, folded from its columns (no
    :class:`StepRecord` objects) and released, so the pass stays O(1) in
    memory per cell.
    """
    wanted = frozenset(only) if only is not None else None
    summaries: Dict[str, CellSummaryEntry] = {}
    for entry in store.iter_results():
        cell_id = entry.cell.cell_id
        if wanted is not None and cell_id not in wanted:
            continue
        limit = limit_for(entry.cell) if limit_for is not None else None
        summary = StreamingCellSummary(entry.result.dt_s, limit_c=limit)
        summary.add_columns(entry.result.record_columns())
        summaries[cell_id] = CellSummaryEntry(cell=entry.cell, summary=summary)
    return summaries
