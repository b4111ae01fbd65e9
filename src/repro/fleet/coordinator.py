"""Fleet coordinator: partition a plan into work units and dispatch to workers.

The coordinator owns a loopback-TCP :class:`multiprocessing.connection.Listener`
(HMAC authkey handshake — the protocol is socket-ready for off-box workers;
only the spawn step is local today), spawns N worker processes, and feeds
them work units dynamically: a worker that finishes early gets the next unit,
so stragglers don't serialise the sweep.

Fault handling is disk-truth based.  Every worker streams into its own
``<dest>/workers/worker-XX/`` :class:`StreamingResultStore`; when a worker
dies (killed, OOM, or a unit raised), the coordinator re-opens that directory
— which heals any truncated final line via the ``index.jsonl`` sidecar — and
requeues only the cells that did *not* survive on disk.  Units carry a retry
budget so a deterministically failing cell aborts the sweep instead of
looping forever.  After the queue drains, :func:`~repro.fleet.merge.merge_stores`
compacts every worker directory into the destination in plan order, and the
worker directories are deleted.
"""

from __future__ import annotations

import os
import secrets
import shutil
import signal
import socket
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import AuthenticationError, Process
from multiprocessing.connection import Listener, wait
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.runtime.plan import ExperimentPlan

from .merge import MergeReport, collect_cell_locations, harvest_completed_ids, merge_stores
from .protocol import ProtocolError, recv_msg, send_msg
from .worker import worker_main

WORKERS_DIRNAME = "workers"


class FleetError(RuntimeError):
    """The fleet sweep could not complete (exhausted retries or workers)."""


@dataclass
class _Unit:
    unit_id: int
    indices: List[int]
    attempts: int = 0
    last_error: Optional[str] = None


@dataclass
class _WorkerHandle:
    worker_id: str
    process: Process
    directory: Path
    conn: object = None
    unit: Optional[_Unit] = None
    # connecting -> idle <-> running; stopping (failure reported, awaiting
    # exit); dead (harvested); done (clean shutdown).
    state: str = "connecting"

    @property
    def live(self) -> bool:
        return self.state in ("connecting", "idle", "running")


@dataclass(frozen=True)
class FleetReport:
    """What a fleet sweep did, for CLI footers and tests."""

    n_cells: int
    resumed: int
    executed: int
    n_units: int
    unit_size: int
    workers: int
    workers_spawned: int
    worker_deaths: int
    reassigned_units: int
    reassigned_cells: int
    elapsed_s: float
    merge: Optional[MergeReport] = None
    executed_ids: tuple = field(default_factory=tuple)


class FleetCoordinator:
    """Distribute an :class:`ExperimentPlan` across local worker processes.

    Args:
        plan: the cells to execute (must be picklable, as for ``--jobs``).
        directory: destination store directory (the merged, indexed store
            ends up here; workers stream into ``directory/workers/``).
        workers: number of concurrent worker processes.
        unit_size: cells per work unit; default targets ~4 units per worker
            so reassignment after a death stays cheap.
        max_cells_per_shard: shard rotation for worker and merged stores
            (must match the single-process run for byte-identical shards).
        max_unit_retries: how many times a unit may be reassigned after
            worker deaths before the sweep aborts.
        on_event: optional ``callback(event: str, info: dict)`` observability
            hook (events: spawn/hello/assign/unit_done/unit_failed/reassign/
            death/merge).  Used by the smoke test to kill a worker mid-run.
    """

    def __init__(
        self,
        plan: ExperimentPlan,
        directory,
        workers: int = 2,
        *,
        unit_size: Optional[int] = None,
        max_cells_per_shard: int = 64,
        max_unit_retries: int = 3,
        max_respawns: Optional[int] = None,
        on_event: Optional[Callable[[str, dict], None]] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if unit_size is not None and unit_size < 1:
            raise ValueError("unit_size must be at least 1")
        self.plan = plan
        self.directory = Path(directory)
        self.workers = workers
        self.unit_size = unit_size
        self.max_cells_per_shard = max_cells_per_shard
        self.max_unit_retries = max_unit_retries
        self.max_respawns = workers if max_respawns is None else max_respawns
        self.on_event = on_event
        self._handles: Dict[str, _WorkerHandle] = {}

    # -- observability -----------------------------------------------------------

    def _emit(self, event: str, **info) -> None:
        if self.on_event is not None:
            self.on_event(event, info)

    def live_worker_ids(self) -> List[str]:
        """Ids of workers currently spawned and not yet dead/done."""
        return [wid for wid, h in self._handles.items() if h.live]

    def kill_worker(self, worker_id: str) -> None:
        """SIGKILL a live worker (fault-injection hook for tests/smoke)."""
        handle = self._handles[worker_id]
        if handle.process.pid is not None and handle.process.is_alive():
            os.kill(handle.process.pid, signal.SIGKILL)

    # -- the run -----------------------------------------------------------------

    def run(self, resume: bool = False) -> FleetReport:
        start = time.perf_counter()
        cells = list(self.plan)
        cell_ids = [cell.cell_id for cell in cells]
        self.directory.mkdir(parents=True, exist_ok=True)
        workers_root = self.directory / WORKERS_DIRNAME

        worker_dirs = (
            sorted(p for p in workers_root.iterdir() if p.is_dir())
            if workers_root.is_dir()
            else []
        )
        harvest_sources = [self.directory, *worker_dirs]
        completed = set(harvest_completed_ids(harvest_sources)) & set(cell_ids)
        if completed and not resume:
            raise FleetError(
                f"store {self.directory} already holds {len(completed)} of this "
                "plan's cells; pass resume=True (CLI: --resume) to continue it"
            )
        resumed = len(completed)

        pending = [i for i, cell in enumerate(cells) if cell.cell_id not in completed]
        unit_size = self.unit_size or max(
            1, -(-len(pending) // (self.workers * 4)) if pending else 1
        )
        units = deque(
            _Unit(unit_id=n, indices=list(pending[i : i + unit_size]))
            for n, i in enumerate(range(0, len(pending), unit_size))
        )
        n_units = len(units)

        executed_ids: List[str] = []
        stats = {"spawned": 0, "deaths": 0, "reassigned_units": 0, "reassigned_cells": 0}
        if units:
            self._dispatch(cells, units, completed, executed_ids, workers_root, stats)

        post_dirs = (
            sorted(p for p in workers_root.iterdir() if p.is_dir())
            if workers_root.is_dir()
            else []
        )
        merge_report = merge_stores(
            post_dirs,
            self.directory,
            cell_ids,
            max_cells_per_shard=self.max_cells_per_shard,
        )
        self._emit("merge", n_cells=merge_report.n_cells, n_shards=merge_report.n_shards)
        if workers_root.exists():
            shutil.rmtree(workers_root)

        return FleetReport(
            n_cells=len(cells),
            resumed=resumed,
            executed=len(executed_ids),
            n_units=n_units,
            unit_size=unit_size,
            workers=self.workers,
            workers_spawned=stats["spawned"],
            worker_deaths=stats["deaths"],
            reassigned_units=stats["reassigned_units"],
            reassigned_cells=stats["reassigned_cells"],
            elapsed_s=time.perf_counter() - start,
            merge=merge_report,
            executed_ids=tuple(executed_ids),
        )

    # -- dispatch loop -----------------------------------------------------------

    def _dispatch(self, cells, queue, completed, executed_ids, workers_root, stats):
        authkey = secrets.token_bytes(16)
        listener = Listener(("127.0.0.1", 0), authkey=authkey)
        try:
            # A timeout on the accept socket keeps the loop responsive to
            # worker deaths that happen before the HMAC handshake completes.
            listener._listener._socket.settimeout(0.25)
        except AttributeError:  # pragma: no cover - stdlib internals moved
            pass
        address = listener.address

        def spawn() -> _WorkerHandle:
            worker_id = f"worker-{stats['spawned']:02d}"
            directory = workers_root / worker_id
            process = Process(
                target=worker_main,
                args=(
                    address,
                    authkey,
                    worker_id,
                    cells,
                    str(directory),
                    self.max_cells_per_shard,
                ),
                daemon=True,
                name=f"repro-fleet-{worker_id}",
            )
            process.start()
            handle = _WorkerHandle(worker_id, process, directory)
            self._handles[worker_id] = handle
            stats["spawned"] += 1
            self._emit("spawn", worker_id=worker_id, pid=process.pid)
            return handle

        def handle_death(handle: _WorkerHandle) -> None:
            if not handle.live and handle.state != "stopping":
                return
            stats["deaths"] += 1
            handle.state = "dead"
            if handle.conn is not None:
                handle.conn.close()
            handle.process.join(timeout=10)
            # Disk is the truth: whatever the worker committed before dying
            # stays (reopening its store heals a truncated final line).
            survived, _ = collect_cell_locations(handle.directory)
            fresh = [c for c in survived if c not in completed]
            executed_ids.extend(fresh)
            completed.update(fresh)
            unit = handle.unit
            handle.unit = None
            self._emit("death", worker_id=handle.worker_id, unit=unit and unit.unit_id)
            if unit is not None:
                remaining = [i for i in unit.indices if cells[i].cell_id not in completed]
                unit.attempts += 1
                if unit.attempts > self.max_unit_retries:
                    raise FleetError(
                        f"unit {unit.unit_id} failed {unit.attempts} times "
                        f"(last error: {unit.last_error or 'worker died'}); aborting"
                    )
                if remaining:
                    unit.indices = remaining
                    queue.append(unit)
                    stats["reassigned_units"] += 1
                    stats["reassigned_cells"] += len(remaining)
                    self._emit(
                        "reassign",
                        unit=unit.unit_id,
                        cells=[cells[i].cell_id for i in remaining],
                        attempts=unit.attempts,
                    )

        try:
            for _ in range(min(self.workers, len(queue))):
                spawn()

            while queue or any(h.unit is not None for h in self._handles.values()):
                handles = list(self._handles.values())

                # Accept pending connections (hello identifies the worker).
                if any(h.state == "connecting" for h in handles):
                    try:
                        conn = listener.accept()
                    except (socket.timeout, AuthenticationError, OSError, EOFError):
                        pass
                    else:
                        hello = recv_msg(conn)
                        if hello is None:
                            conn.close()  # died pre-hello; its sentinel fires
                        else:
                            if hello.get("type") != "hello":
                                raise ProtocolError(f"expected hello, got {hello!r}")
                            handle = self._handles[hello["worker_id"]]
                            handle.conn = conn
                            handle.state = "idle"
                            fresh = [
                                c for c in hello.get("completed", ()) if c not in completed
                            ]
                            executed_ids.extend(fresh)
                            completed.update(fresh)
                            self._emit(
                                "hello", worker_id=handle.worker_id, pid=hello.get("pid")
                            )

                # Assign units to idle workers.
                for handle in self._handles.values():
                    while handle.state == "idle" and queue:
                        unit = queue.popleft()
                        unit.indices = [
                            i for i in unit.indices if cells[i].cell_id not in completed
                        ]
                        if not unit.indices:
                            continue
                        try:
                            send_msg(
                                handle.conn,
                                {
                                    "type": "assign",
                                    "unit_id": unit.unit_id,
                                    "indices": unit.indices,
                                },
                            )
                        except (BrokenPipeError, OSError):
                            # Died between its last message and this assign;
                            # the unit was never delivered, so requeue it
                            # without charging an attempt.
                            queue.appendleft(unit)
                            handle_death(handle)
                            break
                        handle.unit = unit
                        handle.state = "running"
                        self._emit(
                            "assign",
                            worker_id=handle.worker_id,
                            unit=unit.unit_id,
                            cells=[cells[i].cell_id for i in unit.indices],
                        )

                handles = list(self._handles.values())
                outstanding = any(h.unit is not None for h in handles)
                if not queue and not outstanding:
                    break

                live = [h for h in handles if h.live]
                if not live:
                    if stats["spawned"] >= self.workers + self.max_respawns:
                        raise FleetError(
                            "every fleet worker died and the respawn budget "
                            f"({self.max_respawns}) is exhausted"
                        )
                    spawn()
                    continue

                # Wait for messages or deaths.
                waitables = {}
                for handle in handles:
                    if handle.conn is not None and handle.state in ("idle", "running"):
                        waitables[handle.conn] = handle
                    if handle.live or handle.state == "stopping":
                        waitables[handle.process.sentinel] = handle
                for obj in wait(list(waitables), timeout=0.25):
                    handle = waitables[obj]
                    if obj is getattr(handle, "conn", None):
                        message = recv_msg(obj)
                        if message is None:
                            handle_death(handle)
                        elif message["type"] == "unit_done":
                            fresh = [
                                c for c in message["executed"] if c not in completed
                            ]
                            executed_ids.extend(fresh)
                            completed.update(fresh)
                            handle.unit = None
                            handle.state = "idle"
                            self._emit(
                                "unit_done",
                                worker_id=handle.worker_id,
                                unit=message["unit_id"],
                                cells=message["executed"],
                            )
                        elif message["type"] == "unit_failed":
                            if handle.unit is not None:
                                handle.unit.last_error = message.get("error")
                            handle.state = "stopping"
                            self._emit(
                                "unit_failed",
                                worker_id=handle.worker_id,
                                unit=message["unit_id"],
                                error=message.get("error"),
                            )
                        # bye during drain: ignore
                    else:  # sentinel — the process exited
                        handle_death(handle)

            # Clean shutdown of the survivors.
            for handle in self._handles.values():
                if handle.state == "idle" and handle.conn is not None:
                    try:
                        send_msg(handle.conn, {"type": "shutdown"})
                    except (BrokenPipeError, OSError):
                        pass
        finally:
            # Closing the connections unblocks idle workers (EOF on recv)
            # and makes mid-unit workers exit after their current unit.
            for handle in self._handles.values():
                if handle.conn is not None:
                    handle.conn.close()
            for handle in self._handles.values():
                handle.process.join(timeout=10)
                if handle.process.is_alive():  # pragma: no cover - stuck worker
                    handle.process.terminate()
                    handle.process.join(timeout=5)
                if handle.live or handle.state == "stopping":
                    handle.state = "done"
            listener.close()
