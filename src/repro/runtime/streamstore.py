"""Sharded, append-only JSONL result store with crash-safe, indexed resume.

A :class:`StreamingResultStore` is the on-disk counterpart of the in-memory
:class:`~repro.runtime.store.ResultStore` for sweeps that do not fit in RAM:
executors push each cell's records through the
:class:`~repro.runtime.stream.RecordSink` interface and the store appends one
line per completed cell to the current shard file, rotating to a new shard
every ``max_cells_per_shard`` cells.  Lines are written by the same
:class:`~repro.runtime.store.CellLineWriter` as :meth:`ResultStore.save`
(store format 3: the records as fixed-size column blocks), so a directory of
shards is exactly a sharded save file, and a line's bytes do not depend on
whether its records arrived one at a time (``emit``) or as column runs
(``emit_columns``).

Crash safety falls out of the write discipline: a cell's line is written
incrementally (head at ``begin_cell``, one column block per
:data:`~repro.sim.results.BLOCK_ROWS` records, the closing ``"n"`` count
and newline at ``end_cell``), so a run killed mid-cell leaves a final line
that is truncated or unterminated.  Re-opening the directory detects that
tail, drops it, and leaves the cell out of :attr:`completed_cell_ids` —
``sweep --resume`` then re-runs exactly the missing cells.

Resume is O(shards), not O(lines): every committed cell also appends one
``(cell_id, shard, offset, length, sha256)`` line to an ``index.jsonl``
sidecar *after* its shard line is flushed.  Re-opening a directory loads the
sidecar, checks that the committed lines tile each shard exactly (byte sizes
only — no shard line is read), and verifies just the final shard's tail
bytes — the only place a crash artifact can live.  The sidecar is a pure
accelerator: if it is missing (a legacy directory) or inconsistent in any
way with the shard files, the store silently falls back to the full
line-by-line scan and then rewrites the sidecar.  On the full-scan path,
corruption anywhere *before* the final line raises
:class:`StoreCorruptionError` instead of loading garbage.  In-place damage
that keeps byte sizes — a flipped digit or base64 character still parses —
is caught by the line's sha256 stamp when :meth:`iter_results` reads it;
index entries written before the stamps existed are read unchecked.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from ..sim.results import RecordColumns, StepRecord
from .store import (
    CellLineWriter,
    CellResult,
    ResultStore,
    StoreCorruptionError,
    parse_cell_line,
)

__all__ = ["StoreCorruptionError", "StreamingResultStore"]

_SHARD_RE = re.compile(r"^shard-(\d{5})\.jsonl$")
_CELL_ID_RE = re.compile(r'"cell_id":\s*"([^"]*)"')

#: Name of the resume-index sidecar inside a store directory.
INDEX_NAME = "index.jsonl"


def _shard_name(index: int) -> str:
    return f"shard-{index:05d}.jsonl"


def _dumps(obj: object) -> str:
    """Compact JSON, matching the shard lines' separators."""
    return json.dumps(obj, separators=(",", ":"))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _is_stamp(value: object) -> bool:
    return isinstance(value, str) and len(value) == 64


class StreamingResultStore:
    """Append-only sharded JSONL store implementing the record-sink protocol.

    Opening a directory restores the committed-cell set — via the
    ``index.jsonl`` sidecar when it is present and consistent (O(shards):
    only byte sizes and the final shard's tail are checked), via a full
    line-by-line scan otherwise — recovers a truncated tail left by a crash
    (see module docstring) and positions the writer to append after the last
    committed cell.  The same constructor therefore serves fresh sweeps,
    resumed sweeps and read-only loading.

    Attributes:
        directory: the shard directory (created when missing).
        max_cells_per_shard: shard rotation threshold.
        recovered_tail: human-readable description of a dropped partial line
            (``None`` when the directory was clean).
        resumed_via_index: True when the sidecar satisfied this open and no
            shard line had to be scanned.
    """

    def __init__(self, directory, max_cells_per_shard: int = 64):
        if max_cells_per_shard < 1:
            raise ValueError("max_cells_per_shard must be at least 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_cells_per_shard = max_cells_per_shard
        self.recovered_tail: Optional[str] = None
        self.resumed_via_index = False
        self._completed: List[str] = []
        self._completed_set: set = set()
        #: sha256 stamp of each committed line, by (shard name, offset).
        self._stamps: Dict[Tuple[str, int], str] = {}
        self._fh = None
        self._index_fh = None
        self._line = CellLineWriter(self._write)
        self._line_hash = None
        self._open_cell_id: Optional[str] = None
        self._cell_offset = 0
        self._shard_bytes = 0
        self._scan()

    # -- opening / recovery -----------------------------------------------------

    def _shard_paths(self) -> List[Path]:
        paths = [p for p in self.directory.iterdir() if _SHARD_RE.match(p.name)]
        return sorted(paths)

    @property
    def index_path(self) -> Path:
        """Location of the resume-index sidecar."""
        return self.directory / INDEX_NAME

    def _scan(self) -> None:
        shards = self._shard_paths()
        entries = self._read_index_entries()
        if entries is not None and self._apply_index(entries, shards):
            self.resumed_via_index = True
            return
        self._full_scan(shards)

    # -- indexed fast path ------------------------------------------------------

    def _read_index_entries(self) -> Optional[List[Dict]]:
        """Parse the sidecar, or return ``None`` when it is missing/unusable.

        A trailing unterminated line (a crash between the shard flush and the
        index flush) is dropped — the cell it described is then re-discovered
        by the final-shard tail check, which also repairs the sidecar.
        """
        try:
            data = self.index_path.read_bytes()
        except OSError:
            return None
        lines = data.split(b"\n")
        if lines and lines[-1]:
            # Unterminated tail (crash mid index write): stale by at most one
            # cell.  Truncate the partial bytes off the file as well — later
            # appends (the tail self-heal, the next end_cell) reopen the
            # sidecar in append mode and would otherwise fuse onto them,
            # corrupting the line.
            try:
                with open(self.index_path, "r+b") as fh:
                    fh.truncate(len(data) - len(lines[-1]))
            except OSError:
                return None
            lines = lines[:-1]
        entries: List[Dict] = []
        for line in lines:
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                return None
            if not (
                isinstance(entry, dict)
                and isinstance(entry.get("cell_id"), str)
                and isinstance(entry.get("shard"), str)
                and isinstance(entry.get("offset"), int)
                and isinstance(entry.get("length"), int)
                and entry["length"] > 0
                and ("sha256" not in entry or _is_stamp(entry["sha256"]))
            ):
                return None
            entries.append(entry)
        return entries

    def _apply_index(self, entries: List[Dict], shards: List[Path]) -> bool:
        """Restore state from the sidecar; False falls back to the full scan.

        The sidecar is trusted only when the committed lines it describes
        tile every shard exactly: contiguous offsets from zero, monotonically
        increasing shard names, every named shard present, every non-final
        shard's file size equal to its indexed end.  Anything else — however
        it came about — means the sidecar is stale and the full scan decides.
        """
        disk = {path.name: path for path in shards}
        if not entries:
            if shards:
                return False  # shards the index knows nothing about
            self._position_writer(None, 0, 0)
            return True

        shard_end: Dict[str, int] = {}
        order: List[str] = []
        seen = set()
        for entry in entries:
            name = entry["shard"]
            if name not in disk:
                return False
            if entry["cell_id"] in seen:
                return False
            seen.add(entry["cell_id"])
            if order and name < order[-1]:
                return False
            if name not in shard_end:
                order.append(name)
                shard_end[name] = 0
            if entry["offset"] != shard_end[name]:
                return False
            shard_end[name] = entry["offset"] + entry["length"]

        final_name = order[-1]
        extra = sorted(set(disk) - set(shard_end))
        if extra:
            # The only legitimate unindexed shard is the one a crash opened
            # right after a rotation, before any cell committed to it.
            match = _SHARD_RE.match(extra[0])
            if len(extra) > 1 or match is None:
                return False
            if int(match.group(1)) != int(_SHARD_RE.match(final_name).group(1)) + 1:
                return False
            if disk[final_name].stat().st_size != shard_end[final_name]:
                return False
            tail_name, tail_expected = extra[0], 0
        else:
            tail_name, tail_expected = final_name, shard_end[final_name]
        for name, end in shard_end.items():
            if name != tail_name and disk[name].stat().st_size != end:
                return False
        tail_path = disk[tail_name]
        if tail_path.stat().st_size < tail_expected:
            return False

        healed = self._verify_tail(tail_path, tail_expected, seen)
        if healed is False:
            return False

        for entry in entries:
            self._register(entry)
        cells_in_tail = sum(1 for entry in entries if entry["shard"] == tail_name)
        tail_bytes = tail_expected
        if isinstance(healed, dict):
            # A committed cell the sidecar missed (crash between the two
            # flushes): register it and repair the sidecar.
            self._register(healed)
            self._append_index_entry(healed)
            cells_in_tail += 1
            tail_bytes = healed["offset"] + healed["length"]
        self._position_writer(tail_name, cells_in_tail, tail_bytes)
        return True

    def _verify_tail(self, path: Path, expected_end: int, seen: set):
        """Check the final shard's bytes past the indexed end.

        Returns ``None`` for a clean tail, an index-entry dict for a
        committed-but-unindexed line (self-heal), ``False`` when the sidecar
        is too stale to trust; a recoverable crash artifact is dropped in
        place (truncate + :attr:`recovered_tail`), also returning ``None``.
        """
        with open(path, "rb") as fh:
            fh.seek(expected_end)
            data = fh.read()
        if not data:
            return None
        newlines = data.count(b"\n")
        if newlines > 1 or (newlines == 1 and not data.endswith(b"\n")):
            return False  # more than one unindexed line: beyond a single crash
        if data.endswith(b"\n"):
            try:
                payload = json.loads(data[:-1])
                cell_id = payload["cell"]["cell_id"]
            except (ValueError, KeyError, TypeError):
                self._drop_tail(path, expected_end, data, "unparseable")
                return None
            if cell_id in seen:
                return False
            return {
                "cell_id": cell_id,
                "shard": path.name,
                "offset": expected_end,
                "length": len(data),
                "sha256": _sha256(data),
            }
        self._drop_tail(path, expected_end, data, "unterminated")
        return None

    def _drop_tail(self, path: Path, offset: int, data: bytes, problem: str) -> None:
        """Truncate a crash artifact off the final shard and note the recovery."""
        match = _CELL_ID_RE.search(data.decode("utf-8", errors="replace"))
        hint = f" (cell {match.group(1)!r})" if match else ""
        self.recovered_tail = (
            f"dropped {problem} final line of {path.name}{hint}; "
            "the interrupted cell will re-run"
        )
        with open(path, "r+b") as fh:
            fh.truncate(offset)

    def _position_writer(
        self, tail_name: Optional[str], cells_in_tail: int, tail_bytes: int
    ) -> None:
        """Point the appender at the shard the next cell should land in."""
        if tail_name is None:
            self._shard_index = 0
            self._cells_in_shard = 0
            self._shard_bytes = 0
            return
        self._shard_index = int(_SHARD_RE.match(tail_name).group(1))
        self._cells_in_shard = cells_in_tail
        self._shard_bytes = tail_bytes
        if self._cells_in_shard >= self.max_cells_per_shard:
            self._shard_index += 1
            self._cells_in_shard = 0
            self._shard_bytes = 0

    # -- full-scan fallback -----------------------------------------------------

    def _full_scan(self, shards: List[Path]) -> None:
        """Line-by-line scan of every shard; rebuilds the sidecar afterwards."""
        entries: List[Dict] = []
        for shard_index, path in enumerate(shards):
            last_shard = shard_index == len(shards) - 1
            # One line (≈ one cell) at a time, with a single line of
            # lookahead so the final line is recognisable — the scan keeps
            # the store's bounded-memory promise even on huge shards.
            pending: Optional[tuple] = None
            offset = 0
            with open(path, "rb") as fh:
                for raw in fh:
                    if pending is not None:
                        entries.append(
                            self._register_line(*pending, path=path, at_tail=False)
                        )
                    pending = (offset, raw)
                    offset += len(raw)
            if pending is not None:
                line_offset, raw = pending
                entry = self._register_line(line_offset, raw, path=path, at_tail=last_shard)
                if entry is None:
                    # Recoverable tail: truncate the crash artifact so the
                    # next append starts on a clean boundary.
                    with open(path, "r+b") as fh:
                        fh.truncate(line_offset)
                else:
                    entries.append(entry)
        self._shard_index = max(len(shards) - 1, 0)
        self._cells_in_shard = 0
        self._shard_bytes = 0
        if shards:
            last = shards[-1]
            self._cells_in_shard = sum(
                1 for entry in entries if entry["shard"] == last.name
            )
            self._shard_bytes = last.stat().st_size
            if self._cells_in_shard >= self.max_cells_per_shard:
                self._shard_index += 1
                self._cells_in_shard = 0
                self._shard_bytes = 0
        self._rewrite_index(entries)

    def _register_line(
        self, offset: int, raw: bytes, path: Path, at_tail: bool
    ) -> Optional[Dict]:
        """Record one scanned line's cell, or return ``None`` for a dropped tail."""
        terminated = raw.endswith(b"\n")
        line = raw[:-1] if terminated else raw
        cell_id = self._parse_line(line, terminated, path, at_tail, offset)
        if cell_id is None:
            return None
        if cell_id in self._completed_set:
            raise StoreCorruptionError(
                f"duplicate cell {cell_id!r} across shards in {self.directory}"
            )
        entry = {
            "cell_id": cell_id,
            "shard": path.name,
            "offset": offset,
            "length": len(raw),
            "sha256": _sha256(raw),
        }
        self._register(entry)
        return entry

    def _parse_line(
        self, line: bytes, terminated: bool, path: Path, at_tail: bool, offset: int
    ) -> Optional[str]:
        """Cell id of a committed line, or ``None`` for a recoverable tail."""
        problem = None
        if not terminated:
            problem = "unterminated"
        else:
            try:
                payload = json.loads(line)
                return payload["cell"]["cell_id"]
            except (ValueError, KeyError, TypeError):
                problem = "unparseable"
        if at_tail:
            match = _CELL_ID_RE.search(line.decode("utf-8", errors="replace"))
            hint = f" (cell {match.group(1)!r})" if match else ""
            self.recovered_tail = (
                f"dropped {problem} final line of {path.name}{hint}; "
                "the interrupted cell will re-run"
            )
            return None
        raise StoreCorruptionError(
            f"{path.name}: {problem} line at byte {offset} is not the store's "
            "final line — this is data corruption, not a crash artifact"
        )

    def _register(self, entry: Dict) -> None:
        """Count one committed line (and remember its stamp, if it has one)."""
        self._completed.append(entry["cell_id"])
        self._completed_set.add(entry["cell_id"])
        if "sha256" in entry:
            self._stamps[(entry["shard"], entry["offset"])] = entry["sha256"]

    # -- the index sidecar writer ------------------------------------------------

    def _append_index_entry(self, entry: Dict) -> None:
        if self._index_fh is None:
            self._index_fh = open(self.index_path, "a", encoding="utf-8")
        self._index_fh.write(_dumps(entry) + "\n")
        self._index_fh.flush()

    def _rewrite_index(self, entries: List[Dict]) -> None:
        """Atomically replace the sidecar (after a full scan made it current)."""
        if self._index_fh is not None:
            self._index_fh.close()
            self._index_fh = None
        tmp = self.index_path.with_suffix(".jsonl.tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                for entry in entries:
                    fh.write(_dumps(entry) + "\n")
            os.replace(tmp, self.index_path)
        except OSError:
            # A read-only directory can still be loaded; it just keeps
            # paying the full scan.
            tmp.unlink(missing_ok=True)

    # -- resume bookkeeping -----------------------------------------------------

    @property
    def completed_cell_ids(self) -> frozenset:
        """Ids of every committed cell (what ``sweep --resume`` skips)."""
        return frozenset(self._completed_set)

    def __len__(self) -> int:
        return len(self._completed)

    # -- the record-sink interface ----------------------------------------------

    def _writer(self):
        if self._fh is None:
            path = self.directory / _shard_name(self._shard_index)
            self._fh = open(path, "ab")
        return self._fh

    def _write(self, text: str) -> None:
        # Lines are pure ASCII (compact JSON and base64), so the encoded
        # length is the byte count the index records.
        data = text.encode("ascii")
        self._writer().write(data)
        self._line_hash.update(data)
        self._shard_bytes += len(data)

    def begin_cell(self, cell, workload_name: str, governor_name: str, dt_s: float) -> None:
        if self._open_cell_id is not None:
            raise RuntimeError(
                f"cell {self._open_cell_id!r} is still open; end_cell it first"
            )
        if cell.cell_id in self._completed_set:
            raise ValueError(f"duplicate result for cell {cell.cell_id!r}")
        self._open_cell_id = cell.cell_id
        self._cell_offset = self._shard_bytes
        self._line_hash = hashlib.sha256()
        self._line.begin_cell(cell, workload_name, governor_name, dt_s)

    def emit(self, record: StepRecord) -> None:
        if self._open_cell_id is None:
            raise RuntimeError("emit() without an open cell")
        self._line.emit(record)

    def emit_columns(self, columns: RecordColumns) -> None:
        """Append a run of the open cell's records held as columns.

        The line's bytes are the same as for one :meth:`emit` per record:
        the writer re-chunks both into the same column blocks.
        """
        if self._open_cell_id is None:
            raise RuntimeError("emit_columns() without an open cell")
        self._line.emit_columns(columns)

    def end_cell(self, logger=None) -> None:
        if self._open_cell_id is None:
            raise RuntimeError("end_cell() without an open cell")
        self._line.end_cell()
        self._fh.flush()
        # The index entry follows the flushed shard line; a crash between the
        # two flushes is healed by the tail check on the next open.
        entry = {
            "cell_id": self._open_cell_id,
            "shard": _shard_name(self._shard_index),
            "offset": self._cell_offset,
            "length": self._shard_bytes - self._cell_offset,
            "sha256": self._line_hash.hexdigest(),
        }
        self._append_index_entry(entry)
        self._register(entry)
        self._open_cell_id = None
        self._line_hash = None
        self._cells_in_shard += 1
        if self._cells_in_shard >= self.max_cells_per_shard:
            self._fh.close()
            self._fh = None
            self._shard_index += 1
            self._cells_in_shard = 0
            self._shard_bytes = 0

    def append(self, entry: CellResult) -> None:
        """Append one already-materialised cell result (whole-cell form)."""
        from .stream import push_cell_result

        push_cell_result(self, entry)

    # -- reading ----------------------------------------------------------------

    def iter_results(self) -> Iterator[CellResult]:
        """Yield each committed cell result, one cell in memory at a time.

        This is the streaming loader the analysis aggregators consume: only
        the cell currently being processed is materialised, however many
        shards the sweep produced.  Each result holds its records as deferred
        columns (``result.record_columns()``), so a fold over them builds no
        :class:`~repro.sim.results.StepRecord`.  A line whose bytes no longer
        match its sha256 stamp, or that does not parse, raises
        :class:`StoreCorruptionError` naming the shard and line.
        """
        if self._open_cell_id is not None:
            raise RuntimeError("cannot read while a cell is open for writing")
        self.flush()
        stamps = self._stamps
        for path in self._shard_paths():
            offset = 0
            with open(path, "rb") as fh:
                for number, line in enumerate(fh):
                    stamp = stamps.get((path.name, offset))
                    offset += len(line)
                    if stamp is not None and _sha256(line) != stamp:
                        raise StoreCorruptionError(
                            f"{path.name}: line {number} does not match its sha256 "
                            "stamp — shard damaged in place (detected at read time)"
                        )
                    if line.strip():
                        yield parse_cell_line(line, f"{path.name}: line {number}")

    def load(self) -> ResultStore:
        """Materialise the whole directory as an in-memory :class:`ResultStore`."""
        store = ResultStore()
        for entry in self.iter_results():
            store.append(entry)
        return store

    def summary_rows(self) -> List[Dict[str, object]]:
        """One flat summary row per committed cell, computed in a single pass."""
        return [
            {
                "cell_id": entry.cell.cell_id,
                **entry.cell.metadata,
                **entry.result.summary(),
            }
            for entry in self.iter_results()
        ]

    # -- lifecycle ---------------------------------------------------------------

    def flush(self) -> None:
        """Flush the current shard (and sidecar) to disk."""
        if self._fh is not None:
            self._fh.flush()
        if self._index_fh is not None:
            self._index_fh.flush()

    def close(self) -> None:
        """Close the open files (the store can be re-opened later)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        if self._index_fh is not None:
            self._index_fh.close()
            self._index_fh = None

    def __enter__(self) -> "StreamingResultStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StreamingResultStore({str(self.directory)!r}, "
            f"cells={len(self._completed)}, shards={len(self._shard_paths())})"
        )
