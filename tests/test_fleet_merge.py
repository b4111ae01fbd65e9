"""Property tests for the fleet shard-directory merge (satellite of PR 7).

The contract: :func:`merge_stores` compacts K worker shard directories into
one plan-ordered store whose bytes do not depend on K or on the order the
sources are listed — merging K directories is byte-identical to merging the
same cells from a single directory — and a killed worker's truncated final
line is healed (dropped) by compaction rather than copied into the merge.
"""

import json
import shutil

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fleet.merge import (
    MergeError,
    collect_cell_locations,
    harvest_completed_ids,
    merge_stores,
    stores_byte_identical,
)
from repro.runtime import StreamingResultStore


def _payload(cell_id: str, salt: int) -> str:
    """A synthetic committed shard line."""
    return (
        json.dumps(
            {"cell": {"cell_id": cell_id}, "result": {"records": [salt, salt + 1]}},
            separators=(",", ":"),
        )
        + "\n"
    )


def _write_store(directory, cells, max_cells_per_shard=3, truncate_tail=False):
    """Hand-write a shard directory (no sidecar — the scan rebuilds it).

    ``truncate_tail`` chops the final line mid-payload, simulating a worker
    SIGKILLed between ``begin_cell`` and ``end_cell``.
    """
    directory.mkdir(parents=True, exist_ok=True)
    for shard_index in range(0, max(len(cells), 1), max_cells_per_shard):
        chunk = cells[shard_index : shard_index + max_cells_per_shard]
        if not chunk:
            continue
        data = "".join(_payload(cell_id, salt) for cell_id, salt in chunk)
        path = directory / f"shard-{shard_index // max_cells_per_shard:05d}.jsonl"
        path.write_text(data, encoding="utf-8")
    if truncate_tail and cells:
        shards = sorted(directory.glob("shard-*.jsonl"))
        raw = shards[-1].read_bytes()
        shards[-1].write_bytes(raw[: len(raw) - 9])  # mid-line, no newline


class TestMergeProperties:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        n_cells=st.integers(1, 24),
        groups=st.lists(st.integers(0, 3), min_size=24, max_size=24),
        order_seed=st.randoms(use_true_random=False),
        shard_size=st.integers(1, 5),
    )
    def test_merge_is_order_insensitive_and_k_invariant(
        self, tmp_path, n_cells, groups, order_seed, shard_size
    ):
        """K shard dirs, any source order -> bytes identical to K=1."""
        root = tmp_path / "prop"
        if root.exists():
            shutil.rmtree(root)
        cells = [(f"c{i:02d}", i * 7) for i in range(n_cells)]
        cell_order = [cell_id for cell_id, _ in cells]

        # Partition the cells into up to 4 worker directories.
        partitions = {}
        for cell, group in zip(cells, groups):
            partitions.setdefault(group % 4, []).append(cell)
        sources = []
        for group, members in sorted(partitions.items()):
            directory = root / f"worker-{group}"
            _write_store(directory, members, max_cells_per_shard=shard_size)
            sources.append(directory)

        # Reference: the same cells merged from ONE directory.
        single = root / "single"
        _write_store(single, cells, max_cells_per_shard=shard_size)
        ref_dest = root / "ref"
        merge_stores([single], ref_dest, cell_order)

        # K directories, sources listed in a random order.
        shuffled = list(sources)
        order_seed.shuffle(shuffled)
        dest = root / "merged"
        report = merge_stores(shuffled, dest, cell_order)

        assert report.n_cells == n_cells
        assert stores_byte_identical(dest, ref_dest) is None
        # The merged directory is a first-class store: indexed, complete.
        store = StreamingResultStore(dest)
        assert store.completed_cell_ids == set(cell_order)
        assert store.resumed_via_index
        store.close()

    def test_duplicate_cells_across_workers_keep_one_copy(self, tmp_path):
        """A reassigned unit can complete on two workers; the merge keeps one."""
        a = tmp_path / "a"
        b = tmp_path / "b"
        _write_store(a, [("x", 1), ("y", 2)])
        _write_store(b, [("y", 2), ("z", 3)])
        report = merge_stores([a, b], tmp_path / "out", ["x", "y", "z"])
        assert report.n_cells == 3
        store = StreamingResultStore(tmp_path / "out")
        assert store.completed_cell_ids == {"x", "y", "z"}
        store.close()

    def test_missing_cell_raises_merge_error(self, tmp_path):
        _write_store(tmp_path / "a", [("x", 1)])
        with pytest.raises(MergeError, match="missing 1 cell"):
            merge_stores([tmp_path / "a"], tmp_path / "out", ["x", "ghost"])


class TestTruncatedTailHealing:
    def test_killed_worker_tail_is_dropped_and_covered_elsewhere(self, tmp_path):
        """The acceptance fixture: a worker died mid-final-line; compaction
        heals its directory and the lost cell comes from the reassignee."""
        dead = tmp_path / "dead"
        _write_store(dead, [("x", 1), ("y", 2), ("z", 3)], truncate_tail=True)
        reassignee = tmp_path / "alive"
        _write_store(reassignee, [("z", 3)])

        dest = tmp_path / "merged"
        report = merge_stores([dead, reassignee], dest, ["x", "y", "z"])
        assert any("dead" in item and "z" in item for item in report.recovered)
        # Healing is one-shot: the worker directory itself is now clean, the
        # torn "z" line gone from it.
        locations, note = collect_cell_locations(dead)
        assert set(locations) == {"x", "y"}
        assert note is None
        # The healed merge is byte-identical to a clean single-source merge.
        clean = tmp_path / "clean"
        _write_store(clean, [("x", 1), ("y", 2), ("z", 3)])
        ref = tmp_path / "ref"
        merge_stores([clean], ref, ["x", "y", "z"])
        assert stores_byte_identical(dest, ref) is None

    def test_truncated_tail_without_coverage_is_missing(self, tmp_path):
        dead = tmp_path / "dead"
        _write_store(dead, [("x", 1), ("y", 2)], truncate_tail=True)
        with pytest.raises(MergeError, match="missing"):
            merge_stores([dead], tmp_path / "out", ["x", "y"])

    def test_harvest_reports_first_directory_owning_each_cell(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        _write_store(a, [("x", 1)])
        _write_store(b, [("x", 1), ("y", 2)])
        owners = harvest_completed_ids([a, b])
        assert owners["x"] == a and owners["y"] == b


class TestCrashSafeSwap:
    def test_rerun_after_destination_populated_is_stable(self, tmp_path):
        """Re-merging over an existing destination (sources gone) succeeds:
        the destination is its own highest-priority source."""
        src = tmp_path / "src"
        _write_store(src, [("x", 1), ("y", 2)])
        dest = tmp_path / "out"
        merge_stores([src], dest, ["x", "y"])
        before = {p.name: p.read_bytes() for p in dest.glob("shard-*.jsonl")}

        shutil.rmtree(src)
        report = merge_stores([], dest, ["x", "y"])
        assert report.n_cells == 2
        after = {p.name: p.read_bytes() for p in dest.glob("shard-*.jsonl")}
        assert after == before

    def test_merge_compacts_to_plan_order_regardless_of_commit_order(self, tmp_path):
        src = tmp_path / "src"
        _write_store(src, [("y", 2), ("x", 1)])  # committed out of plan order
        dest = tmp_path / "out"
        merge_stores([src], dest, ["x", "y"])
        ordered = tmp_path / "ordered"
        _write_store(ordered, [("x", 1), ("y", 2)])
        ref = tmp_path / "ref"
        merge_stores([ordered], ref, ["x", "y"])
        assert stores_byte_identical(dest, ref) is None
