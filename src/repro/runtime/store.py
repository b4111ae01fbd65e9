"""Result storage for batched experiment runs.

A :class:`ResultStore` collects :class:`CellResult` entries as an executor
streams them back, preserving plan order, and offers the lookups the
analysis layer needs: by ``cell_id``, by metadata filter, and as flat summary
rows for tabulation/export.

Stores also round-trip through JSON Lines files (:meth:`ResultStore.save` /
:meth:`ResultStore.load`): one line per cell, carrying the cell's identity
(id, benchmark, governor or policy spec, seed, metadata) and the full
:class:`~repro.sim.results.StepRecord` stream.  Every persisted line — save
files, streamed shards, fleet worker shards — is written by one
:class:`CellLineWriter` in store format 3::

    {"cell":{...},"result":{"workload_name":...,"governor_name":...,
     "dt_s":...,"format":3,"blocks":[{...},...],"n":N}}

Each block holds up to :data:`~repro.sim.results.BLOCK_ROWS` records as
per-field little-endian column bytes in base64
(:meth:`~repro.sim.results.RecordColumns.to_block`), so records survive the
trip bit for bit.  ``n`` (the record count) follows the blocks because a
streamed line is written block by block.  A line carries nothing but the
cell and its records, so its bytes (and the sha256 stamp a shard index keeps
of them) depend only on the plan, never on which executor ran it or how
fast.  Lines of the earlier format — ``"records"``, a list of per-record JSON
objects — still load, as do lines written with the retired trailing
``"wall_time_s"`` key, which is ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Callable, Dict, Iterator, List, Optional

from ..api.specs import AdapterSpec, PolicySpec
from ..sim.logger import SystemLogger
from ..sim.results import BLOCK_ROWS, RecordColumns, SimulationResult, StepRecord
from .plan import ExperimentCell

__all__ = [
    "STORE_FORMAT",
    "CellLineWriter",
    "CellResult",
    "ResultStore",
    "StoreCorruptionError",
    "cell_to_jsonable",
]

#: The ``"format"`` written into every cell line's result object.
STORE_FORMAT = 3

_STEP_RECORD_FIELDS = tuple(f.name for f in fields(StepRecord))
_record_values = attrgetter(*_STEP_RECORD_FIELDS)


class StoreCorruptionError(ValueError):
    """A stored line is damaged or unreadable (named by file and line)."""


def _dumps(obj: object) -> str:
    """Compact JSON: the separators of every stored line."""
    return json.dumps(obj, separators=(",", ":"))


def cell_to_jsonable(cell: ExperimentCell) -> Dict[str, object]:
    """The cell-identity dictionary persisted with every saved cell result.

    Shared by :meth:`ResultStore.save` and the streaming store's incremental
    line writer, so batch-saved files and streamed shards serialise cells
    byte-for-byte identically.
    """
    if cell.policy is not None:
        # The cell's `governor` field is the ignored dataclass default
        # for policy cells; the effective governor lives in the spec.
        governor = cell.policy.governor.name
    elif isinstance(cell.governor, str):
        governor = cell.governor
    else:
        governor = getattr(cell.governor, "name", type(cell.governor).__name__)
    benchmark = cell.benchmark
    if benchmark is None and cell.trace is not None:
        benchmark = cell.trace.name
    return {
        "cell_id": cell.cell_id,
        "benchmark": benchmark,
        # Benchmark-named cells rebuild their workload faithfully from
        # (benchmark, seed, duration); explicit traces are not persisted, so
        # their cells load as descriptive-only.  A loaded detached-trace cell
        # must re-save as "trace" too, or save→load→save would silently mark
        # it re-executable.
        "workload": "trace" if (cell.trace is not None or cell.detached_trace) else "benchmark",
        "duration_s": cell.duration_s,
        "governor": governor,
        "policy": cell.policy.to_spec() if cell.policy is not None else None,
        "adapter": cell.adapter.to_spec() if cell.adapter is not None else None,
        "seed": cell.seed,
        "metadata": dict(cell.metadata),
    }


@dataclass(frozen=True)
class CellResult:
    """The outcome of executing one experiment cell.

    Attributes:
        cell: the executed cell (with its metadata).
        result: the per-step simulation result.
        logger: the cell's system logger, when ``cell.log_period_s`` was set
            (this is how :func:`repro.core.pipeline.collect_training_data`
            gets its records back from the runner).
    """

    cell: ExperimentCell
    result: SimulationResult
    logger: Optional[SystemLogger] = None


class CellLineWriter:
    """Record sink writing each cell as one line in store format 3.

    The one writer of every stored form (save files, shards):
    ``begin_cell`` writes the line's head, records arrive one at a time
    (``emit``) or as column runs (``emit_columns``), and ``end_cell``
    writes the tail and the newline.  Whatever the arrival pattern, the
    records are re-chunked into blocks of exactly
    :data:`~repro.sim.results.BLOCK_ROWS` rows (a cell's last block may be
    shorter) by slicing the runs, so the line's bytes depend only on the
    records — and at most one block is staged at a time.  A staged run is
    kept, not copied, until its block is written: its arrays must stay
    unchanged until then (``end_cell`` at the latest).  ``write`` receives
    ASCII text pieces.
    """

    def __init__(self, write: Callable[[str], object]):
        self._write = write
        self._cell_id: Optional[str] = None
        self._runs: List[RecordColumns] = []  # the staged block, in order
        self._staged = 0  # rows in self._runs
        self._records: List[list] = []  # per-record emits not yet in a run
        self._rows = 0

    def begin_cell(self, cell, workload_name: str, governor_name: str, dt_s: float) -> None:
        self._cell_id = cell.cell_id
        self._runs, self._staged, self._rows = [], 0, 0
        self._records = [[] for _ in _STEP_RECORD_FIELDS]
        self._write(
            '{"cell":'
            + _dumps(cell_to_jsonable(cell))
            + ',"result":{"workload_name":'
            + _dumps(workload_name)
            + ',"governor_name":'
            + _dumps(governor_name)
            + ',"dt_s":'
            + _dumps(dt_s)
            + f',"format":{STORE_FORMAT},"blocks":['
        )

    def emit(self, record: StepRecord) -> None:
        for column, value in zip(self._records, _record_values(record)):
            column.append(value)
        if self._staged + len(self._records[0]) == BLOCK_ROWS:
            self._write_block()

    def emit_columns(self, columns: RecordColumns) -> None:
        self._stage_records()
        n = len(columns)
        start = 0
        while start < n:
            stop = min(n, start + BLOCK_ROWS - self._staged)
            try:
                run = columns if stop - start == n else columns.slice(start, stop)
            except (TypeError, ValueError) as exc:
                raise self._in_cell(exc) from None
            self._runs.append(run)
            self._staged += stop - start
            start = stop
            if self._staged == BLOCK_ROWS:
                self._write_block()

    def end_cell(self, logger=None) -> None:
        self._stage_records()
        if self._staged:
            self._write_block()
        self._write(f'],"n":{self._rows}}}}}\n')
        self._cell_id = None

    def _stage_records(self) -> None:
        """Turn the per-record emits so far into one staged (list) run."""
        if self._records[0]:
            self._runs.append(RecordColumns(self._records))
            self._staged += len(self._records[0])
            self._records = [[] for _ in _STEP_RECORD_FIELDS]

    def _in_cell(self, exc: Exception) -> Exception:
        return type(exc)(f"{exc} (cell {self._cell_id!r})")

    def _write_block(self) -> None:
        self._stage_records()
        runs = self._runs
        try:
            block = (runs[0] if len(runs) == 1 else RecordColumns.concat(runs)).to_block()
        except (TypeError, ValueError) as exc:
            raise self._in_cell(exc) from None
        self._write("," + block if self._rows else block)
        self._rows += self._staged
        self._runs, self._staged = [], 0


class ResultStore:
    """Ordered, queryable collection of :class:`CellResult` entries."""

    def __init__(self) -> None:
        self._results: List[CellResult] = []
        self._by_id: Dict[str, CellResult] = {}

    # -- collection ------------------------------------------------------------

    def append(self, cell_result: CellResult) -> None:
        """Add one cell result (cell ids must stay unique)."""
        cell_id = cell_result.cell.cell_id
        if cell_id in self._by_id:
            raise ValueError(f"duplicate result for cell {cell_id!r}")
        self._results.append(cell_result)
        self._by_id[cell_id] = cell_result

    def __len__(self) -> int:
        return len(self._results)

    def __iter__(self) -> Iterator[CellResult]:
        return iter(self._results)

    # -- lookup ----------------------------------------------------------------

    def get(self, cell_id: str) -> CellResult:
        """The result of the cell with the given id (KeyError when missing)."""
        return self._by_id[cell_id]

    def result_of(self, cell_id: str) -> SimulationResult:
        """Shorthand for ``store.get(cell_id).result``."""
        return self._by_id[cell_id].result

    def select(self, **filters: object) -> List[CellResult]:
        """All results whose cell metadata matches every given key/value."""
        return [
            entry
            for entry in self._results
            if all(entry.cell.metadata.get(key) == value for key, value in filters.items())
        ]

    def one(self, **filters: object) -> CellResult:
        """The single result matching the metadata filter (raises otherwise)."""
        matches = self.select(**filters)
        if len(matches) != 1:
            raise LookupError(f"expected exactly one result for {filters!r}, found {len(matches)}")
        return matches[0]

    # -- persistence -----------------------------------------------------------

    def save(self, path) -> int:
        """Write the store as a JSON Lines file (one cell result per line).

        The cell's identity (id, benchmark, governor name or policy spec,
        seed, duration and metadata) and the full step-record stream are
        preserved exactly; workload traces, factories, platform constructors
        and attached loggers are not serialisable and are dropped.  Lines are
        byte-identical to the streaming store's shard lines.

        Returns:
            The number of cell results written.
        """
        from .stream import push_cell_result

        with open(path, "w", encoding="ascii") as fh:
            writer = CellLineWriter(fh.write)
            for entry in self._results:
                push_cell_result(writer, entry)
        return len(self._results)

    @classmethod
    def load(cls, path) -> "ResultStore":
        """Rebuild a store from a :meth:`save` file (either line format).

        Loaded cells are descriptive (benchmark name, governor name or policy
        spec, seed, metadata) — enough for every lookup, summary and analysis
        path.  Cells whose workload was rebuilt from a benchmark name remain
        re-executable; cells that carried an explicit trace come back with
        ``detached_trace=True`` and refuse to build a trace rather than
        silently replaying a different workload.

        Raises:
            StoreCorruptionError: a line does not parse as a cell result
                (the message names the file and line).
        """
        store = cls()
        with open(path, "rb") as fh:
            for number, line in enumerate(fh):
                if line.strip():
                    store.append(parse_cell_line(line, f"{path}: line {number}"))
        return store

    @staticmethod
    def _entry_from_jsonable(data: Dict[str, object]) -> CellResult:
        """Rebuild one stored cell result (format 3 blocks or legacy records).

        The result's records are deferred :class:`~repro.sim.results.
        RecordColumns`: no :class:`StepRecord` exists until something reads
        ``result.records``, so streaming consumers fold or forward the
        columns directly.
        """
        cell_data = data["cell"]
        result_data = data["result"]
        policy_spec = cell_data.get("policy")
        adapter_spec = cell_data.get("adapter")
        cell = ExperimentCell(
            cell_id=cell_data["cell_id"],
            benchmark=cell_data.get("benchmark") or result_data["workload_name"],
            duration_s=cell_data.get("duration_s"),
            governor=cell_data.get("governor") or "ondemand",
            policy=PolicySpec.from_spec(policy_spec) if policy_spec is not None else None,
            adapter=AdapterSpec.from_spec(adapter_spec) if adapter_spec is not None else None,
            seed=cell_data.get("seed", 0),
            detached_trace=cell_data.get("workload", "trace") == "trace",
            metadata=cell_data.get("metadata", {}),
        )
        result = SimulationResult(
            workload_name=result_data["workload_name"],
            governor_name=result_data["governor_name"],
            dt_s=result_data["dt_s"],
        )
        try:
            columns = _result_columns(result_data)
        except ValueError as exc:
            raise ValueError(f"{exc} in {cell.cell_id!r}") from None
        result.defer_columns(lambda: columns)
        return CellResult(cell=cell, result=result)

    # -- export ----------------------------------------------------------------

    def summary_rows(self) -> List[Dict[str, object]]:
        """One flat dictionary per cell: id, metadata, and headline metrics."""
        rows: List[Dict[str, object]] = []
        for entry in self._results:
            row: Dict[str, object] = {"cell_id": entry.cell.cell_id}
            row.update(entry.cell.metadata)
            row.update(entry.result.summary())
            rows.append(row)
        return rows


def _result_columns(result_data: Dict[str, object]) -> RecordColumns:
    """The records of a stored result object, in either line format."""
    if "records" in result_data:  # written before store format 3
        return RecordColumns.from_jsonable(result_data["records"])
    version = result_data.get("format")
    if version != STORE_FORMAT:
        raise ValueError(f"unknown store format {version!r}")
    columns = RecordColumns.from_blocks(result_data["blocks"])
    if len(columns) != result_data["n"]:
        raise ValueError(f"{len(columns)} records in blocks but n={result_data['n']!r}")
    return columns


def parse_cell_line(line: bytes, where: str) -> CellResult:
    """One stored line as a cell result; every failure is a named corruption.

    Raises:
        StoreCorruptionError: naming ``where`` (file and line) and the cause.
    """
    try:
        return ResultStore._entry_from_jsonable(json.loads(line))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise StoreCorruptionError(f"{where}: {detail}") from None
