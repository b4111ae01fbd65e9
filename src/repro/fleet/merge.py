"""Merge and compact fleet shard directories into one indexed store.

Every fleet worker streams into a private
:class:`~repro.runtime.streamstore.StreamingResultStore` directory.
:func:`merge_stores` compacts any number of those directories (plus whatever
an interrupted previous merge left behind) into the destination: cells are
copied *in plan order* with the standard shard rotation, so the resulting
shards and index are byte-identical to what a single-process
``--stream-to`` run of the same plan writes (:func:`stores_byte_identical`
checks exactly that, with no field masked).

Copying is byte-range based: opening a source directory as a
``StreamingResultStore`` heals crash artifacts (a killed worker's truncated
final line is dropped) and self-repairs the ``index.jsonl`` sidecar, whose
``(shard, offset, length, sha256)`` entries then let the merge stream each
cell's bytes without parsing a single record.  Each copied line is hashed:
a line that no longer matches its source stamp stops the merge, and the
merged index carries the stamps on.

The swap is crash-safe: new shards are staged in ``<dest>/.merge-tmp``, the
old merged files (if any) move to ``<dest>/.merge-backup``, then the staged
files move into place and both scratch directories are deleted.  A crash at
any point leaves every cell's bytes in at least one of destination, backup,
or the source directories, so re-running the merge recovers.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.runtime.streamstore import INDEX_NAME, StreamingResultStore

MERGE_TMP = ".merge-tmp"
MERGE_BACKUP = ".merge-backup"


class MergeError(RuntimeError):
    """A merge could not produce a complete store (e.g. missing cells)."""


@dataclass(frozen=True)
class MergeReport:
    """What :func:`merge_stores` did."""

    n_cells: int
    n_shards: int
    #: cells taken from each source directory (first directory wins on dupes).
    source_cells: Dict[str, int] = field(default_factory=dict)
    #: cell ids present in some source but absent from ``cell_order``.
    extra_cells: Tuple[str, ...] = ()
    #: tail-recovery notes from healing source directories.
    recovered: Tuple[str, ...] = ()


def _shard_name(index: int) -> str:
    return f"shard-{index:05d}.jsonl"


def _looks_like_store(directory: Path) -> bool:
    if not directory.is_dir():
        return False
    if (directory / INDEX_NAME).exists():
        return True
    return any(directory.glob("shard-*.jsonl"))


#: Where one committed cell's line lives: (shard path, offset, length, sha256
#: stamp or ``None`` for an index entry written before stamps existed).
Location = Tuple[Path, int, int, Optional[str]]


def collect_cell_locations(
    directory: Path,
) -> Tuple[Dict[str, Location], Optional[str]]:
    """Map ``cell_id -> (shard path, offset, length, sha256)`` for one store directory.

    Opening the directory as a :class:`StreamingResultStore` first heals any
    crash artifact (truncated/unterminated final line) and rewrites a stale
    ``index.jsonl``, so the sidecar read afterwards is authoritative.
    Returns the location map (in commit order) and the tail-recovery note,
    if healing dropped a partial cell.
    """
    directory = Path(directory)
    if not _looks_like_store(directory):
        return {}, None
    store = StreamingResultStore(directory)
    recovered = store.recovered_tail
    store.close()
    locations: Dict[str, Location] = {}
    index_path = directory / INDEX_NAME
    if not index_path.exists():  # pragma: no cover - empty healed directory
        return locations, recovered
    with open(index_path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            entry = json.loads(line)
            locations[entry["cell_id"]] = (
                directory / entry["shard"],
                int(entry["offset"]),
                int(entry["length"]),
                entry.get("sha256"),
            )
    return locations, recovered


def harvest_completed_ids(directories: Iterable[Path]) -> Dict[str, Path]:
    """Committed cell ids across ``directories`` (first directory wins)."""
    seen: Dict[str, Path] = {}
    for directory in directories:
        locations, _ = collect_cell_locations(Path(directory))
        for cell_id in locations:
            seen.setdefault(cell_id, Path(directory))
    return seen


class _ShardWriter:
    """Write cell byte-ranges with the store's standard shard rotation."""

    def __init__(self, directory: Path, max_cells_per_shard: int):
        self.directory = directory
        self.max_cells_per_shard = max_cells_per_shard
        self.index_entries: List[dict] = []
        self._shard_index = 0
        self._cells_in_shard = 0
        self._shard_bytes = 0
        self._fh = None

    def write_cell(self, cell_id: str, payload: bytes, stamp: str) -> None:
        if self._fh is None:
            self._fh = open(self.directory / _shard_name(self._shard_index), "wb")
        offset = self._shard_bytes
        self._fh.write(payload)
        self._shard_bytes += len(payload)
        self.index_entries.append(
            {
                "cell_id": cell_id,
                "shard": _shard_name(self._shard_index),
                "offset": offset,
                "length": len(payload),
                "sha256": stamp,
            }
        )
        self._cells_in_shard += 1
        if self._cells_in_shard >= self.max_cells_per_shard:
            self._fh.close()
            self._fh = None
            self._shard_index += 1
            self._cells_in_shard = 0
            self._shard_bytes = 0

    def close(self) -> int:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        return self._shard_index + (1 if self._cells_in_shard else 0)


def _clear_scratch(path: Path) -> None:
    if path.exists():
        shutil.rmtree(path)


def merge_stores(
    sources: Sequence[Path],
    destination: Path,
    cell_order: Sequence[str],
    max_cells_per_shard: int = 64,
) -> MergeReport:
    """Compact ``sources`` into ``destination`` as one plan-ordered store.

    ``sources`` are scanned in priority order (earlier directories win
    duplicate cell ids); the destination itself and its ``.merge-backup``
    are implicitly the highest-priority sources, so re-running after a crash
    mid-swap is safe.  Raises :class:`MergeError` if any ``cell_order`` id is
    missing from every source.
    """
    destination = Path(destination)
    destination.mkdir(parents=True, exist_ok=True)
    tmp_dir = destination / MERGE_TMP
    backup_dir = destination / MERGE_BACKUP

    scan_order: List[Path] = [destination, backup_dir]
    for source in sources:
        source = Path(source)
        if source not in scan_order:
            scan_order.append(source)

    locations: Dict[str, Location] = {}
    source_cells: Dict[str, int] = {}
    recovered: List[str] = []
    for directory in scan_order:
        found, note = collect_cell_locations(directory)
        if note:
            recovered.append(f"{directory.name}: {note}")
        fresh = 0
        for cell_id, location in found.items():
            if cell_id not in locations:
                locations[cell_id] = location
                fresh += 1
        if fresh:
            source_cells[str(directory)] = fresh

    missing = [cell_id for cell_id in cell_order if cell_id not in locations]
    if missing:
        preview = ", ".join(missing[:5])
        raise MergeError(
            f"merge is missing {len(missing)} cell(s) from every source "
            f"directory (first few: {preview})"
        )
    extra = tuple(cell_id for cell_id in locations if cell_id not in set(cell_order))

    # Stage the compacted store in .merge-tmp.
    _clear_scratch(tmp_dir)
    tmp_dir.mkdir()
    writer = _ShardWriter(tmp_dir, max_cells_per_shard)
    handles: Dict[Path, object] = {}
    try:
        for cell_id in cell_order:
            path, offset, length, stamp = locations[cell_id]
            fh = handles.get(path)
            if fh is None:
                fh = handles[path] = open(path, "rb")
            fh.seek(offset)
            payload = fh.read(length)
            digest = hashlib.sha256(payload).hexdigest()
            if (
                len(payload) != length
                or not payload.endswith(b"\n")
                or stamp not in (None, digest)
            ):
                raise MergeError(
                    f"{path.name}: cell {cell_id!r} byte range "
                    f"[{offset}, {offset + length}) is damaged"
                )
            writer.write_cell(cell_id, payload, digest)
    finally:
        for fh in handles.values():
            fh.close()
        n_shards = writer.close()
    with open(tmp_dir / INDEX_NAME, "w", encoding="utf-8") as fh:
        for entry in writer.index_entries:
            fh.write(json.dumps(entry, separators=(",", ":")) + "\n")

    # Swap: old merged files -> backup, staged files -> destination.
    _clear_scratch(backup_dir)
    backup_dir.mkdir()
    for path in sorted(destination.glob("shard-*.jsonl")) + [destination / INDEX_NAME]:
        if path.exists():
            path.rename(backup_dir / path.name)
    for path in sorted(tmp_dir.iterdir()):
        path.rename(destination / path.name)
    _clear_scratch(backup_dir)
    _clear_scratch(tmp_dir)

    return MergeReport(
        n_cells=len(cell_order),
        n_shards=n_shards,
        source_cells=source_cells,
        extra_cells=extra,
        recovered=tuple(recovered),
    )


def stores_byte_identical(a: Path, b: Path) -> Optional[str]:
    """``None`` when two store directories hold the same bytes, else a diagnosis.

    Compares the shard sets, then every shard and the ``index.jsonl``
    sidecar (offsets, lengths and sha256 stamps) line by line.  A line
    carries only the cell and its records, so two runs of one plan write
    identical stores whichever executor ran them.
    """
    a, b = Path(a), Path(b)
    shards_a = sorted(p.name for p in a.glob("shard-*.jsonl"))
    shards_b = sorted(p.name for p in b.glob("shard-*.jsonl"))
    if shards_a != shards_b:
        return f"shard sets differ: {shards_a} vs {shards_b}"
    for name in shards_a + [INDEX_NAME]:
        lines_a = (a / name).read_bytes().splitlines(keepends=True)
        lines_b = (b / name).read_bytes().splitlines(keepends=True)
        if len(lines_a) != len(lines_b):
            return f"{name}: {len(lines_a)} vs {len(lines_b)} lines"
        for number, (line_a, line_b) in enumerate(zip(lines_a, lines_b)):
            if line_a != line_b:
                return f"{name}: line {number} differs"
    return None
