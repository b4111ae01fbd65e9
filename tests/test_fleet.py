"""Tests for the fleet coordinator (distributed sharded sweep executor).

The contract: a fleet run over N worker processes — including one whose
worker is SIGKILLed mid-run — produces a merged, indexed destination store
byte-identical to a single-process streaming run of the same plan, resumes
from its own output, and harvests whatever a crashed previous coordinator's
workers left on disk instead of re-executing it.
"""

import os
import signal
import socket
import threading
from multiprocessing.connection import Client, Listener, wait

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api.specs import GovernorSpec, ManagerSpec, PolicySpec
from repro.cli import main
from repro.fleet import FleetCoordinator, FleetError, stores_byte_identical
from repro.fleet import coordinator as coordinator_module
from repro.fleet.coordinator import _balanced_slices, _cell_shapes, _split_cells
from repro.fleet.protocol import set_nodelay
from repro.runtime import (
    BatchRunner,
    ExperimentCell,
    ExperimentPlan,
    StreamingResultStore,
)
from repro.workloads.benchmarks import build_benchmark


def _mini_plan(linear_predictor, n_reps=3):
    """Six small mixed cells: a bare governor plus static-USTA users."""
    trace = build_benchmark("skype", seed=3, duration_s=40.0)
    plan = ExperimentPlan()
    for rep in range(n_reps):
        plan.add(
            ExperimentCell(
                cell_id=f"base/r{rep}",
                trace=trace,
                policy=PolicySpec(governor=GovernorSpec("ondemand")),
                seed=rep,
                metadata={"user_id": "base", "rep": rep},
            )
        )
        plan.add(
            ExperimentCell(
                cell_id=f"u1/r{rep}",
                trace=trace,
                policy=PolicySpec(
                    manager=ManagerSpec("usta", params={"skin_limit_c": 33.0})
                ),
                predictor=linear_predictor,
                seed=rep,
                metadata={"user_id": "u1", "rep": rep},
            )
        )
    return plan


def _reference_store(plan, directory):
    store = StreamingResultStore(directory)
    BatchRunner.for_jobs(None).run_stream(plan, store)
    store.close()
    return directory


@pytest.fixture
def listeners(monkeypatch):
    """The coordinator's listening sockets, recorded as they are opened."""
    opened = []

    class RecordingListener(coordinator_module.Listener):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opened.append(self)

    monkeypatch.setattr(coordinator_module, "Listener", RecordingListener)
    return opened


def _await_queued_connection(listeners):
    """Block (in an ``on_event`` hook) until a worker waits to be accepted."""
    assert wait([listeners[-1]._listener._socket], timeout=120)


class TestFleetCoordinator:
    def test_fleet_matches_single_process_and_resumes(self, tmp_path, linear_predictor):
        plan = _mini_plan(linear_predictor)
        fleet_dir = tmp_path / "fleet"
        events = []
        report = FleetCoordinator(
            plan, fleet_dir, workers=2, on_event=lambda e, info: events.append(e)
        ).run()

        assert report.n_cells == len(plan)
        assert report.executed == len(plan)
        assert report.resumed == 0
        assert report.workers_spawned == 2
        assert report.worker_deaths == 0
        assert sorted(report.executed_ids) == sorted(c.cell_id for c in plan)
        assert report.merge is not None and report.merge.n_cells == len(plan)
        assert {"spawn", "hello", "assign", "unit_done", "merge"} <= set(events)
        # Worker scratch is compacted away; the destination is a clean store.
        assert not (fleet_dir / "workers").exists()

        ref_dir = _reference_store(plan, tmp_path / "ref")
        assert stores_byte_identical(fleet_dir, ref_dir) is None
        merged = StreamingResultStore(fleet_dir)
        assert merged.resumed_via_index
        assert merged.completed_cell_ids == {c.cell_id for c in plan}
        merged.close()

        # A second run without --resume must refuse to clobber the store ...
        with pytest.raises(FleetError, match="--resume"):
            FleetCoordinator(plan, fleet_dir, workers=2).run()
        # ... and with resume everything is answered from disk: no workers.
        resumed = FleetCoordinator(plan, fleet_dir, workers=2).run(resume=True)
        assert resumed.executed == 0
        assert resumed.resumed == len(plan)
        assert resumed.workers_spawned == 0
        assert stores_byte_identical(fleet_dir, ref_dir) is None

    def test_killed_worker_is_reassigned(self, tmp_path, linear_predictor):
        """SIGKILL one worker mid-run: the sweep still completes and the
        merged store is byte-identical to the single-process run."""
        plan = _mini_plan(linear_predictor)
        fleet_dir = tmp_path / "fleet"
        state = {"killed": None}

        def hook(event, info):
            if event == "assign" and state["killed"] is None and info["unit"] >= 2:
                victims = [
                    wid
                    for wid in coordinator.live_worker_ids()
                    if wid != info["worker_id"]
                ]
                if victims:
                    coordinator.kill_worker(victims[0])
                    state["killed"] = victims[0]

        coordinator = FleetCoordinator(
            plan, fleet_dir, workers=2, unit_size=1, on_event=hook
        )
        report = coordinator.run()

        assert state["killed"] is not None
        assert report.worker_deaths >= 1
        assert report.executed == len(plan)
        ref_dir = _reference_store(plan, tmp_path / "ref")
        assert stores_byte_identical(fleet_dir, ref_dir) is None

    def test_crashed_coordinator_worker_dirs_are_harvested(
        self, tmp_path, linear_predictor
    ):
        """Cells a dead coordinator's workers committed are resumed from the
        leftover ``workers/`` directories, not re-executed."""
        plan = _mini_plan(linear_predictor)
        cells = list(plan)
        partial = ExperimentPlan()
        for cell in cells[:2]:
            partial.add(cell)

        fleet_dir = tmp_path / "fleet"
        leftover = fleet_dir / "workers" / "worker-00"
        _reference_store(partial, leftover)

        report = FleetCoordinator(plan, fleet_dir, workers=2).run(resume=True)
        assert report.resumed == 2
        assert report.executed == len(plan) - 2
        assert {cells[0].cell_id, cells[1].cell_id}.isdisjoint(report.executed_ids)
        assert not (fleet_dir / "workers").exists()
        ref_dir = _reference_store(plan, tmp_path / "ref")
        assert stores_byte_identical(fleet_dir, ref_dir) is None

    def test_constructor_validation(self, tmp_path, linear_predictor):
        plan = _mini_plan(linear_predictor, n_reps=1)
        with pytest.raises(ValueError, match="workers"):
            FleetCoordinator(plan, tmp_path / "x", workers=0)
        with pytest.raises(ValueError, match="unit_size"):
            FleetCoordinator(plan, tmp_path / "x", workers=1, unit_size=0)

    def test_connecting_worker_is_greeted_before_running_workers_report(
        self, tmp_path, linear_predictor, listeners
    ):
        """The listener shares the wait set: a worker that connects while
        another is mid-unit gets its hello and its unit first, not after the
        running worker's next message."""
        plan = _mini_plan(linear_predictor)
        events = []
        held = []

        def hook(event, info):
            events.append((event, info.get("worker_id")))
            if event == "assign" and not held:
                held.append(info["worker_id"])
                # Hold the loop until the first worker's unit_done is waiting
                # and the second worker's connection is queued, so both are
                # ready when the coordinator next waits.
                assert wait([coordinator._handles[info["worker_id"]].conn], timeout=120)
                _await_queued_connection(listeners)

        coordinator = FleetCoordinator(
            plan, tmp_path / "fleet", workers=2, on_event=hook
        )
        report = coordinator.run()

        assert report.n_units == 2
        first = held[0]
        (second,) = {"worker-00", "worker-01"} - {first}
        first_done = events.index(("unit_done", first))
        assert events.index(("hello", second)) < first_done
        assert events.index(("assign", second)) < first_done
        assert {w for e, w in events if e == "unit_done"} == {first, second}
        ref_dir = _reference_store(plan, tmp_path / "ref")
        assert stores_byte_identical(tmp_path / "fleet", ref_dir) is None

    def test_killed_worker_of_default_units_is_requeued(self, tmp_path, linear_predictor):
        """Default sizing (one unit per worker): SIGKILL a worker as soon as
        both units are out, while it holds the second one; its cells still
        all land and the merge stays byte-identical."""
        plan = _mini_plan(linear_predictor)
        fleet_dir = tmp_path / "fleet"
        assigned = []

        def hook(event, info):
            if event == "assign":
                assigned.append(info["worker_id"])
                if len(assigned) == 2:
                    coordinator.kill_worker(info["worker_id"])

        coordinator = FleetCoordinator(plan, fleet_dir, workers=2, on_event=hook)
        report = coordinator.run()

        assert report.n_units == 2
        assert report.worker_deaths == 1
        assert report.reassigned_cells >= 1
        assert report.executed == len(plan)
        ref_dir = _reference_store(plan, tmp_path / "ref")
        assert stores_byte_identical(fleet_dir, ref_dir) is None

    def test_worker_lost_before_its_first_assign_is_replaced(
        self, tmp_path, linear_predictor, monkeypatch
    ):
        """The first assign hits a broken pipe: the unit is requeued without
        an attempt, a replacement is spawned mid-assignment, and the sweep
        still finishes byte-identical."""
        plan = _mini_plan(linear_predictor)
        real_send, failed = coordinator_module.send_msg, []

        def send_msg(conn, message):
            if message["type"] == "assign" and not failed:
                failed.append(message["unit_id"])
                raise BrokenPipeError("worker went away")
            return real_send(conn, message)

        monkeypatch.setattr(coordinator_module, "send_msg", send_msg)
        fleet_dir = tmp_path / "fleet"
        report = FleetCoordinator(plan, fleet_dir, workers=2).run()

        assert failed and report.worker_deaths == 1
        assert report.workers_spawned == 3
        assert report.reassigned_units == 0
        assert report.executed == len(plan)
        ref_dir = _reference_store(plan, tmp_path / "ref")
        assert stores_byte_identical(fleet_dir, ref_dir) is None

    def test_requeued_remainder_is_split_across_free_workers(
        self, tmp_path, linear_predictor, listeners
    ):
        """A worker dies holding its whole unit after the other finished: the
        remainder goes out as two member-step-balanced units, one for the
        idle survivor and one for the replacement."""
        plan = _mini_plan(linear_predictor, n_reps=5)
        fleet_dir = tmp_path / "fleet"
        pids, assigned, reassigned = {}, [], []

        def hook(event, info):
            if event == "spawn":
                pids[info["worker_id"]] = info["pid"]
            elif event == "assign":
                assigned.append(info["worker_id"])
                if len(assigned) == 1:
                    # The second unit goes to the other worker, not this one.
                    _await_queued_connection(listeners)
                elif len(assigned) == 2:
                    # Freeze the second worker before it finishes a cell ...
                    os.kill(pids[info["worker_id"]], signal.SIGSTOP)
            elif event == "unit_done" and info["worker_id"] == assigned[0] and not reassigned:
                # ... and kill it once the first one is idle.
                coordinator.kill_worker(assigned[1])
            elif event == "reassign":
                reassigned.append(info["cells"])

        coordinator = FleetCoordinator(plan, fleet_dir, workers=2, on_event=hook)
        report = coordinator.run()

        assert report.worker_deaths == 1 and report.workers_spawned == 3
        assert len(reassigned) == 2
        assert sorted(len(cells) for cells in reassigned) in ([2, 2], [2, 3])
        ids = [c.cell_id for c in plan]
        # Contiguous, in plan order, together the tail of the killed unit.
        merged = [cell for cells in reassigned for cell in cells]
        assert merged == ids[ids.index(merged[0]) : ids.index(merged[0]) + len(merged)]
        assert report.executed == len(plan)
        ref_dir = _reference_store(plan, tmp_path / "ref")
        assert stores_byte_identical(fleet_dir, ref_dir) is None


def _nodelay(conn) -> int:
    """TCP_NODELAY as set on ``conn``'s socket (read through a duplicate fd)."""
    with socket.socket(fileno=os.dup(conn.fileno())) as sock:
        return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


class TestNoNagleDelay:
    """Fleet messages are single small frames: none may wait for a delayed ACK."""

    def test_set_nodelay_on_a_real_listener_client_pair(self):
        authkey = b"nagle-test"
        with Listener(("127.0.0.1", 0), authkey=authkey) as listener:
            # The HMAC handshake needs both ends at once.
            accepted = []
            acceptor = threading.Thread(target=lambda: accepted.append(listener.accept()))
            acceptor.start()
            client = Client(listener.address, authkey=authkey)
            acceptor.join(timeout=30)
            (server,) = accepted
            try:
                assert _nodelay(client) == 0 and _nodelay(server) == 0
                set_nodelay(client)
                set_nodelay(server)
                assert _nodelay(client) != 0 and _nodelay(server) != 0
                # The connections still own working descriptors.
                client.send_bytes(b"ping")
                assert server.recv_bytes() == b"ping"
            finally:
                client.close()
                server.close()

    def test_coordinator_connections_run_without_nagle(self, tmp_path, linear_predictor):
        plan = _mini_plan(linear_predictor)
        seen = {}

        def hook(event, info):
            if event == "hello":
                handle = coordinator._handles[info["worker_id"]]
                seen[info["worker_id"]] = _nodelay(handle.conn)

        coordinator = FleetCoordinator(plan, tmp_path / "fleet", workers=2, on_event=hook)
        report = coordinator.run()
        assert report.executed == len(plan)
        assert len(seen) == report.workers_spawned == 2
        assert all(value != 0 for value in seen.values()), seen


class TestUnitPlanning:
    def test_default_units_are_contiguous_and_balanced_by_member_steps(self):
        # Cells that never batch (period None) show the bare cuts.
        # Member-steps 10,10,10,30: the cut falls before the heavy cell.
        assert _balanced_slices([10, 10, 10, 30], [None] * 4, 2) == [[0, 1, 2], [3]]
        assert _balanced_slices([5] * 20, [1.0] * 20, 2) == [
            list(range(10)),
            list(range(10, 20)),
        ]
        assert _balanced_slices([5] * 9, [1.0] * 9, 3) == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
        # Never more units than cells, never an empty unit.
        assert _balanced_slices([7, 7], [None, None], 5) == [[0], [1]]
        assert _balanced_slices([1, 1, 100], [None] * 3, 3) == [[0], [1], [2]]
        # A one-cell unit of a shared period would run on the scalar path:
        # the cut moves to the nearest place that leaves none ...
        assert _balanced_slices([10, 10, 10, 30], [1.0] * 4, 2) == [[0, 1], [2, 3]]
        # ... and where there is none, the cells stay in one unit.
        assert _balanced_slices([7, 7], [1.0, 1.0], 2) == [[0, 1]]
        assert _balanced_slices([1] * 4, ["a", "a", "b", "a"], 3) == [[0, 1, 2, 3]]

    def test_no_unit_holds_a_lone_cell_of_a_shared_period(self):
        # Periods a,a,a,b,b: the nearest cut [a,a] [a,b,b] would leave the
        # third a alone, so the cut moves one cell right.
        assert _balanced_slices([1] * 5, ["a", "a", "a", "b", "b"], 2) == [
            [0, 1, 2],
            [3, 4],
        ]
        # a,b,a,b in two units of one a and one b each: every cell would run
        # alone, so the units merge.
        assert _balanced_slices([1] * 4, ["a", "b", "a", "b"], 2) == [[0, 1, 2, 3]]
        # A lone period with no other pending cell (and a cell that never
        # batches) may sit on its own.
        assert _balanced_slices([1] * 3, ["a", "a", "c"], 3) == [[0, 1], [2]]
        assert _balanced_slices([1] * 3, ["a", "a", None], 3) == [[0, 1], [2]]
        # No third cut avoids a lone b or c: two units.
        assert _balanced_slices([1] * 6, ["a", "a", "b", "c", "c", "b"], 3) == [
            [0, 1],
            [2, 3, 4, 5],
        ]

    @given(
        st.lists(
            st.tuples(st.integers(1, 50), st.sampled_from(["a", "b", "c", None])),
            min_size=1,
            max_size=30,
        ),
        st.integers(1, 6),
    )
    def test_slices_cover_the_plan_in_order_without_lone_cells(self, cells, n):
        steps, periods = zip(*cells)
        slices = _balanced_slices(steps, periods, n)
        assert [i for positions in slices for i in positions] == list(range(len(cells)))
        assert 1 <= len(slices) <= n and all(slices)
        for positions in slices:
            here = [periods[i] for i in positions]
            assert not any(here.count(p) == 1 < periods.count(p) for p in "abc")

    def test_cell_shapes_match_the_built_traces(self):
        trace = build_benchmark("skype", seed=3, duration_s=40.0)
        cells = [
            ExperimentCell(cell_id="t", trace=trace),
            ExperimentCell(cell_id="t/short", trace=trace, duration_s=12.3),
            ExperimentCell(cell_id="t/long", trace=trace, duration_s=400.0),
            ExperimentCell(cell_id="b", benchmark="youtube", seed=1, duration_s=30.0),
            ExperimentCell(cell_id="b/again", benchmark="youtube", seed=1, duration_s=30.0),
            ExperimentCell(cell_id="b/other", benchmark="youtube", seed=2, duration_s=20.0),
        ]
        shapes = _cell_shapes(cells, range(len(cells)))
        for i, cell in enumerate(cells):
            built = cell.build_trace()
            assert shapes[i] == (len(built), built.sample_period_s), cell.cell_id

    def test_requeue_split_uses_plan_indices(self):
        shapes = {4: (10, 1.0), 7: (10, 1.0), 9: (10, 1.0), 12: (10, 1.0)}
        assert _split_cells([4, 7, 9, 12], 2, shapes) == [[4, 7], [9, 12]]
        assert _split_cells([4, 7, 9, 12], 0, shapes) == [[4, 7, 9, 12]]


class TestFleetCliFooter:
    def test_footer_reports_units_and_the_largest_unit(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", "off")
        directory = tmp_path / "store"
        argv = ["sweep", "--scale", "0.02", "--model", "linear_regression"]
        assert main(argv + ["--fleet", "2", "--stream-to", str(directory)]) == 0
        out = capsys.readouterr().out
        # Ten users on one 36-step trace: two units of five cells each.
        assert (
            "fleet: 2 worker(s) (2 spawned, 0 died, 0 unit(s) reassigned), "
            "2 unit(s), the largest 5 cell(s) / 180 member-steps"
        ) in out
        assert "merged 10 cell(s) into 1 shard(s)" in out
