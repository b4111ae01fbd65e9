"""Result storage for batched experiment runs.

A :class:`ResultStore` collects :class:`CellResult` entries as an executor
streams them back, preserving plan order, and offers the lookups the
analysis layer needs: by ``cell_id``, by metadata filter, and as flat summary
rows for tabulation/export.

Stores also round-trip through JSON Lines files (:meth:`ResultStore.save` /
:meth:`ResultStore.load`): one line per cell, carrying the cell's identity
(id, benchmark, governor or policy spec, seed, metadata) and the full
:class:`~repro.sim.results.StepRecord` stream.  JSON serialises floats via
``repr``, so the records survive the trip bit-for-bit — the first step
toward out-of-core persistence for sweeps too large to keep in memory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Dict, Iterator, List, Optional

from ..api.specs import AdapterSpec, PolicySpec
from ..sim.logger import SystemLogger
from ..sim.results import RecordColumns, SimulationResult, StepRecord
from .plan import ExperimentCell

__all__ = ["CellResult", "ResultStore", "cell_to_jsonable", "record_to_jsonable"]

_STEP_RECORD_FIELDS = tuple(f.name for f in fields(StepRecord))
_record_values = attrgetter(*_STEP_RECORD_FIELDS)


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


def record_to_jsonable(record: StepRecord) -> Dict[str, object]:
    """One step record as the plain dictionary persisted in result files.

    Keys in field order, values as stored — the same dictionary
    ``dataclasses.asdict`` builds, without its per-field deep copy (every
    field is an immutable scalar).
    """
    return dict(zip(_STEP_RECORD_FIELDS, _record_values(record)))


@dataclass(frozen=True)
class CellResult:
    """The outcome of executing one experiment cell.

    Attributes:
        cell: the executed cell (with its metadata).
        result: the per-step simulation result.
        logger: the cell's system logger, when ``cell.log_period_s`` was set
            (this is how :func:`repro.core.pipeline.collect_training_data`
            gets its records back from pool workers).
        wall_time_s: wall-clock execution time of the cell.
    """

    cell: ExperimentCell
    result: SimulationResult
    logger: Optional[SystemLogger] = None
    wall_time_s: float = 0.0


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
        and attached loggers are not serialisable and are dropped.

        Returns:
            The number of cell results written.
        """
        with open(path, "w", encoding="utf-8") as fh:
            for entry in self._results:
                fh.write(json.dumps(self._entry_to_jsonable(entry), separators=(",", ":")))
                fh.write("\n")
        return len(self._results)

    @classmethod
    def load(cls, path) -> "ResultStore":
        """Rebuild a store from a :meth:`save` file.

        Loaded cells are descriptive (benchmark name, governor name or policy
        spec, seed, metadata) — enough for every lookup, summary and analysis
        path.  Cells whose workload was rebuilt from a benchmark name remain
        re-executable; cells that carried an explicit trace come back with
        ``detached_trace=True`` and refuse to build a trace rather than
        silently replaying a different workload.
        """
        store = cls()
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                store.append(cls._entry_from_jsonable(json.loads(line)))
        return store

    @staticmethod
    def _entry_to_jsonable(entry: CellResult) -> Dict[str, object]:
        return {
            "cell": cell_to_jsonable(entry.cell),
            "result": {
                "workload_name": entry.result.workload_name,
                "governor_name": entry.result.governor_name,
                "dt_s": entry.result.dt_s,
                "records": [record_to_jsonable(record) for record in entry.result.records],
            },
            "wall_time_s": entry.wall_time_s,
        }

    @staticmethod
    def _entry_from_jsonable(data: Dict[str, object]) -> CellResult:
        """Rebuild one saved cell result.

        The result's records are deferred :class:`~repro.sim.results.
        RecordColumns` built straight from the parsed dictionaries: no
        :class:`StepRecord` exists until something reads ``result.records``,
        so streaming consumers fold or forward the columns directly.
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
            columns = RecordColumns.from_jsonable(result_data["records"])
        except ValueError as exc:
            raise ValueError(f"{exc} in {cell.cell_id!r}") from None
        result.defer_columns(lambda: columns)
        return CellResult(cell=cell, result=result, wall_time_s=data.get("wall_time_s", 0.0))

    # -- export ----------------------------------------------------------------

    @property
    def total_wall_time_s(self) -> float:
        """Summed wall-clock time of all executed cells."""
        return sum(entry.wall_time_s for entry in self._results)

    def summary_rows(self) -> List[Dict[str, object]]:
        """One flat dictionary per cell: id, metadata, and headline metrics."""
        rows: List[Dict[str, object]] = []
        for entry in self._results:
            row: Dict[str, object] = {"cell_id": entry.cell.cell_id}
            row.update(entry.cell.metadata)
            row.update(entry.result.summary())
            rows.append(row)
        return rows
