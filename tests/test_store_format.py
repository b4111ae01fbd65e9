"""Store format 3 on disk: legacy reads, mixed directories and sha256 stamps.

``tests/data/store_v2`` is a ``repro sweep --scale 0.02 --model
linear_regression --stream-to`` directory written in the earlier per-record
JSON line format (10 cells, 36 steps each).  It must keep loading, resuming
and accepting new cells; the golden files (the same per-record form) must
load through :meth:`ResultStore.load`; and a line damaged in place without
changing its size must be refused when read, not decoded into wrong floats.
"""

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from repro.analysis.streaming import stream_summaries
from repro.cli import main
from repro.fleet.merge import MergeError, merge_stores
from repro.runtime import (
    BatchRunner,
    ExperimentCell,
    ExperimentPlan,
    ResultStore,
    SerialExecutor,
    StoreCorruptionError,
    StreamingResultStore,
)
from repro.runtime.golden import GOLDEN_DIR, GOLDEN_SCENARIOS, run_golden
from repro.runtime.streamstore import INDEX_NAME

FIXTURE = Path(__file__).parent / "data" / "store_v2"
SWEEP = ["sweep", "--scale", "0.02", "--model", "linear_regression"]
FIXTURE_CELLS = [chr(ord("a") + i) for i in range(10)]


def _summary_state(entries):
    return {cell_id: repr(vars(entry.summary)) for cell_id, entry in entries.items()}


def _records(store):
    return {entry.cell.cell_id: repr(entry.result.records) for entry in store.iter_results()}


@pytest.fixture(scope="module")
def fresh_sweep(tmp_path_factory):
    """The fixture's sweep run today, streamed in store format 3."""
    directory = tmp_path_factory.mktemp("fresh") / "store"
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_ARTIFACT_DIR", "off")
        assert main(SWEEP + ["--stream-to", str(directory)]) == 0
    return directory


def _fixture_copy(tmp_path):
    directory = tmp_path / "v2"
    shutil.copytree(FIXTURE, directory)
    return directory


class TestLegacyStore:
    def test_fixture_is_the_legacy_format(self):
        lines = (FIXTURE / "shard-00000.jsonl").read_text().splitlines()
        assert len(lines) == 10
        assert all('"records":[' in line and '"format"' not in line for line in lines)
        index = [json.loads(line) for line in (FIXTURE / INDEX_NAME).read_text().splitlines()]
        assert [entry["cell_id"] for entry in index] == FIXTURE_CELLS
        assert not any("sha256" in entry for entry in index)

    def test_legacy_store_loads_and_summarises_like_a_fresh_run(self, tmp_path, fresh_sweep):
        legacy = StreamingResultStore(_fixture_copy(tmp_path))
        assert legacy.resumed_via_index
        fresh = StreamingResultStore(fresh_sweep)
        assert '"format":3' in (fresh_sweep / "shard-00000.jsonl").read_text()
        assert _records(legacy) == _records(fresh)
        assert _summary_state(stream_summaries(legacy)) == _summary_state(
            stream_summaries(fresh)
        )
        assert legacy.summary_rows() == fresh.summary_rows()

    def test_resume_skips_every_legacy_cell(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", "off")
        directory = _fixture_copy(tmp_path)
        before = (directory / "shard-00000.jsonl").read_bytes()
        assert main(SWEEP + ["--stream-to", str(directory), "--resume"]) == 0
        assert "0 cell(s) executed, 10 resumed from disk" in capsys.readouterr().out
        assert (directory / "shard-00000.jsonl").read_bytes() == before

    def test_new_cells_append_format_3_lines_to_the_legacy_shard(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", "off")
        directory = _fixture_copy(tmp_path)
        # --repeat 2 names its cells a/r0 .. j/r1: twenty new cells, and the
        # r0 copies replay exactly what the legacy a .. j cells recorded.
        assert main(SWEEP + ["--repeat", "2", "--stream-to", str(directory), "--resume"]) == 0
        assert "20 cell(s) executed, 0 resumed from disk" in capsys.readouterr().out
        assert [p.name for p in directory.glob("shard-*.jsonl")] == ["shard-00000.jsonl"]
        lines = (directory / "shard-00000.jsonl").read_text().splitlines()
        assert len(lines) == 30
        assert all('"records":[' in line for line in lines[:10])
        assert all('"format":3' in line for line in lines[10:])
        index = [json.loads(line) for line in (directory / INDEX_NAME).read_text().splitlines()]
        assert ["sha256" in entry for entry in index] == [False] * 10 + [True] * 20

        mixed = StreamingResultStore(directory)
        assert mixed.resumed_via_index
        records = _records(mixed)
        assert len(records) == 30
        for cell_id in FIXTURE_CELLS:
            assert records[cell_id] == records[f"{cell_id}/r0"]


class TestGoldenFilesLoad:
    @pytest.mark.parametrize("scenario", GOLDEN_SCENARIOS)
    def test_result_store_load_of_a_golden_file_equals_a_fresh_run(self, scenario):
        loaded = ResultStore.load(GOLDEN_DIR / f"{scenario}.jsonl")
        fresh = run_golden(scenario)
        assert [e.cell.cell_id for e in loaded] == [e.cell.cell_id for e in fresh]
        for ours, theirs in zip(loaded, fresh):
            assert repr(ours.result.records) == repr(theirs.result.records)


def _small_store(directory, n=3):
    plan = ExperimentPlan(
        [
            ExperimentCell(cell_id=f"c{i}", benchmark="skype", duration_s=20.0, seed=i)
            for i in range(n)
        ]
    )
    store = StreamingResultStore(directory)
    BatchRunner(executor=SerialExecutor()).run_stream(plan, store)
    store.close()
    return directory / "shard-00000.jsonl"


def _damage_in_place(shard: Path, line_number: int) -> None:
    """Change one character of a stored skin temperature, keeping every size.

    In a format-3 line the character is base64 (the first of the field's
    column text); in a legacy line it is the value's first digit.  Either
    way the line still parses — only a stamp can tell.
    """
    lines = shard.read_bytes().split(b"\n")
    line = bytearray(lines[line_number])
    at = line.index(b'"skin_temp_c":') + len(b'"skin_temp_c":')
    if line[at : at + 1] == b'"':
        at += 1
    old = chr(line[at])
    if old.isdigit():
        new = str((int(old) + 1) % 10)
    else:
        new = "B" if old == "A" else "A"
    line[at] = ord(new)
    lines[line_number] = bytes(line)
    shard.write_bytes(b"\n".join(lines))


class TestStamps:
    def test_every_committed_line_is_stamped(self, tmp_path):
        shard = _small_store(tmp_path / "s")
        index = [json.loads(line) for line in (tmp_path / "s" / INDEX_NAME).read_text().splitlines()]
        data = shard.read_bytes()
        for entry in index:
            line = data[entry["offset"] : entry["offset"] + entry["length"]]
            assert entry["sha256"] == hashlib.sha256(line).hexdigest()

    def test_in_place_character_damage_is_refused_at_read_time(self, tmp_path):
        shard = _small_store(tmp_path / "s")
        size = shard.stat().st_size
        _damage_in_place(shard, 1)
        assert shard.stat().st_size == size
        store = StreamingResultStore(tmp_path / "s")
        assert store.resumed_via_index  # sizes still tile: the open cannot tell
        with pytest.raises(StoreCorruptionError, match=r"shard-00000\.jsonl: line 1 .*sha256"):
            list(store.iter_results())

    def test_full_scan_restamps_and_a_legacy_index_is_not_checked(self, tmp_path):
        directory = _fixture_copy(tmp_path)
        _damage_in_place(directory / "shard-00000.jsonl", 2)
        # Legacy entries carry no stamp: the damage loads (as it always did).
        assert len(list(StreamingResultStore(directory).iter_results())) == 10
        # Without an index the full scan stamps what is on disk now.
        (directory / INDEX_NAME).unlink()
        StreamingResultStore(directory).close()
        index = [json.loads(line) for line in (directory / INDEX_NAME).read_text().splitlines()]
        assert all(len(entry["sha256"]) == 64 for entry in index)

    def test_merge_refuses_a_damaged_source_line_and_copies_stamps(self, tmp_path):
        source = tmp_path / "worker"
        _small_store(source)
        merged = tmp_path / "merged"
        merge_stores([source], merged, ["c0", "c1", "c2"])
        source_index = (source / INDEX_NAME).read_text()
        assert (merged / INDEX_NAME).read_text() == source_index
        _damage_in_place(source / "shard-00000.jsonl", 0)
        with pytest.raises(MergeError, match="'c0'.*damaged"):
            merge_stores([source], tmp_path / "again", ["c0", "c1", "c2"])

    def test_unknown_format_is_a_named_corruption(self, tmp_path):
        shard = _small_store(tmp_path / "s")
        shard.write_bytes(shard.read_bytes().replace(b'"format":3', b'"format":9'))
        (tmp_path / "s" / INDEX_NAME).unlink()  # re-stamped by the full scan
        store = StreamingResultStore(tmp_path / "s")
        with pytest.raises(
            StoreCorruptionError, match=r"shard-00000\.jsonl: line 0: unknown store format 9"
        ):
            list(store.iter_results())
        save = tmp_path / "save.jsonl"
        save.write_bytes(shard.read_bytes())
        with pytest.raises(StoreCorruptionError, match=r"save\.jsonl: line 0: unknown store format"):
            ResultStore.load(save)


def _with_wall_time_tail(line: bytes) -> bytes:
    """A format-3 line as written while lines still ended with a wall time."""
    assert line.endswith(b"}}\n") and b"wall_time_s" not in line
    return line[:-2] + b',"wall_time_s":0.5}\n'


def _legacy_tail_copy(source: Path, directory: Path) -> list:
    """Copy a one-shard store, giving every line the old wall-time tail.

    The index is rewritten as the store wrote it then: offsets, lengths and
    sha256 stamps of the tailed bytes.  Returns the tailed lines.
    """
    shutil.copytree(source, directory)
    shard = directory / "shard-00000.jsonl"
    lines = [_with_wall_time_tail(line) for line in shard.read_bytes().splitlines(keepends=True)]
    shard.write_bytes(b"".join(lines))
    index = [json.loads(line) for line in (directory / INDEX_NAME).read_text().splitlines()]
    offset = 0
    with open(directory / INDEX_NAME, "w", encoding="utf-8") as fh:
        assert len(index) == len(lines)
        for entry, line in zip(index, lines):
            entry.update(
                offset=offset, length=len(line), sha256=hashlib.sha256(line).hexdigest()
            )
            offset += len(line)
            fh.write(json.dumps(entry, separators=(",", ":")) + "\n")
    return lines


class TestWallTimeTail:
    """Lines written with a trailing ``"wall_time_s"`` load, resume and merge."""

    def test_fresh_lines_end_with_the_record_count(self, fresh_sweep):
        for line in (fresh_sweep / "shard-00000.jsonl").read_bytes().splitlines():
            assert line.endswith(b'"n":36}}')

    def test_tailed_store_resumes_every_cell_and_verifies_its_stamps(
        self, tmp_path, capsys, monkeypatch, fresh_sweep
    ):
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", "off")
        directory = tmp_path / "tailed"
        lines = _legacy_tail_copy(fresh_sweep, directory)
        before = {path.name: path.read_bytes() for path in directory.iterdir()}

        assert main(SWEEP + ["--stream-to", str(directory), "--resume"]) == 0
        assert "0 cell(s) executed, 10 resumed from disk" in capsys.readouterr().out
        assert {path.name: path.read_bytes() for path in directory.iterdir()} == before

        store = StreamingResultStore(directory)
        assert store.resumed_via_index
        assert store.completed_cell_ids == set(FIXTURE_CELLS)
        index = [json.loads(line) for line in (directory / INDEX_NAME).read_text().splitlines()]
        assert [entry["sha256"] for entry in index] == [
            hashlib.sha256(line).hexdigest() for line in lines
        ]
        # iter_results checks every stamp; the tail is ignored on read.
        assert _records(store) == _records(StreamingResultStore(fresh_sweep))

    def test_merge_copies_tailed_and_tail_less_lines_byte_for_byte(self, tmp_path):
        fresh = tmp_path / "fresh"
        fresh_lines = _small_store(fresh, n=5).read_bytes().splitlines(keepends=True)
        old = tmp_path / "old"
        _small_store(tmp_path / "first3", n=3)
        old_lines = _legacy_tail_copy(tmp_path / "first3", old)
        order = [f"c{i}" for i in range(5)]

        merged = tmp_path / "merged"
        merge_stores([old, fresh], merged, order)

        expected = old_lines + fresh_lines[3:]
        assert (merged / "shard-00000.jsonl").read_bytes() == b"".join(expected)
        index = [json.loads(line) for line in (merged / INDEX_NAME).read_text().splitlines()]
        assert [entry["sha256"] for entry in index] == [
            hashlib.sha256(line).hexdigest() for line in expected
        ]
        assert _records(StreamingResultStore(merged)) == _records(StreamingResultStore(fresh))
