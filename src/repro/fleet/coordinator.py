"""Fleet coordinator: partition a plan into work units and dispatch to workers.

The coordinator owns a loopback-TCP :class:`multiprocessing.connection.Listener`
(HMAC authkey handshake — the protocol is socket-ready for off-box workers;
only the spawn step is local today), spawns N worker processes, and feeds
them work units: by default one contiguous slice of the plan per worker,
balanced by member-steps, so each worker vectorizes as wide a population as
it can.  The listening socket sits in the same ``wait()`` set as the workers'
connections, so a worker is greeted and handed its unit as soon as it
connects.

Fault handling is disk-truth based.  Every worker streams into its own
``<dest>/workers/worker-XX/`` :class:`StreamingResultStore`; when a worker
dies (killed, OOM, or a unit raised), the coordinator re-opens that directory
— which heals any truncated final line via the ``index.jsonl`` sidecar — and
requeues only the cells that did *not* survive on disk, split by member-steps
across the workers free to take them (a replacement is spawned while the
respawn budget lasts).  Units carry a retry
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
from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import accumulate, count
from multiprocessing import AuthenticationError, Process
from multiprocessing.connection import Listener, wait
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.runtime.plan import ExperimentCell, ExperimentPlan, batch_ineligibility

from .merge import MergeReport, collect_cell_locations, harvest_completed_ids, merge_stores
from .protocol import ProtocolError, recv_msg, send_msg, set_nodelay
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


def _cell_shapes(
    cells: Sequence[ExperimentCell], indices: Sequence[int]
) -> Dict[int, Tuple[int, Optional[float]]]:
    """Each cell's member-steps and batch key: its trace length and sample period.

    A cell that carries its trace is measured without copying it; a benchmark
    trace is built once per distinct ``(benchmark, seed, duration)``.  The
    period is ``None`` for a cell that never joins a batch.
    """
    built: Dict[tuple, object] = {}
    shapes = {}
    for i in indices:
        cell = cells[i]
        if cell.trace is not None:
            trace = cell.trace
            steps = (
                len(trace)
                if cell.duration_s is None
                else trace.truncated_length(cell.duration_s)
            )
        else:
            key = (cell.benchmark, cell.seed, cell.duration_s)
            if key not in built:
                built[key] = cell.build_trace()
            trace = built[key]
            steps = len(trace)
        period = None if batch_ineligibility(cell) is not None else trace.sample_period_s
        shapes[i] = (steps, period)
    return shapes


def _balanced_slices(
    steps: Sequence[int], periods: Sequence[Optional[float]], n: int
) -> List[List[int]]:
    """Cut positions ``0..len(steps)-1`` into at most ``n`` contiguous slices.

    Each cut falls as near as it can to ``j/n`` of the running member-step
    total without leaving a slice the only cell of a sample period other
    slices also hold: the batch planner would run that cell alone on the
    scalar path.  Where no cut avoids that, there are fewer slices.
    """
    m = len(steps)
    n = max(1, min(n, m))
    prefix = list(accumulate(steps, initial=0))
    # Running counts of each sample period that more than one cell shares.
    shared = [
        list(accumulate((q == p for q in periods), initial=0))
        for p, total in Counter(p for p in periods if p is not None).items()
        if total > 1
    ]

    def lonely(a: int, b: int) -> bool:
        return any(c[b] - c[a] == 1 for c in shared)

    bounds = [0]
    for j in range(1, n):
        goal, roomy = prefix[-1] * j / n, m - n + j
        options = sorted(
            range(bounds[-1] + 1, m),
            key=lambda c: (c > roomy, abs(prefix[c] - goal)),
        )
        cut = next(
            (
                c
                for c in options
                if not lonely(bounds[-1], c) and not (j == n - 1 and lonely(c, m))
            ),
            None,
        )
        if cut is None:
            break
        bounds.append(cut)
    bounds.append(m)

    # Every slice left of the last cut passed the check; only the tail can
    # still hold a lone cell, and merging it backwards ends at one slice.
    while len(bounds) > 2 and lonely(bounds[-2], m):
        del bounds[-2]
    return [list(range(a, b)) for a, b in zip(bounds, bounds[1:])]


def _split_cells(
    indices: Sequence[int], n: int, shapes: Dict[int, Tuple[int, Optional[float]]]
) -> List[List[int]]:
    """Plan ``indices`` (in order) as at most ``n`` member-step-balanced units."""
    slices = _balanced_slices(
        [shapes[i][0] for i in indices], [shapes[i][1] for i in indices], n
    )
    return [[indices[p] for p in positions] for positions in slices]


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
    #: cells and member-steps of the planned unit with the most member-steps
    #: (under an explicit ``unit_size``: the most cells, steps not measured).
    max_unit_cells: int
    max_unit_steps: Optional[int]
    workers: int
    workers_spawned: int
    worker_deaths: int
    reassigned_units: int
    reassigned_cells: int
    elapsed_s: float
    merge: Optional[MergeReport] = None
    executed_ids: tuple = field(default_factory=tuple)

    @property
    def unit_summary(self) -> str:
        """The planned units, as footers print them."""
        text = f"{self.n_units} unit(s), the largest {self.max_unit_cells} cell(s)"
        if self.max_unit_steps is not None:
            text += f" / {self.max_unit_steps} member-steps"
        return text


class FleetCoordinator:
    """Distribute an :class:`ExperimentPlan` across local worker processes.

    Its loopback TCP connections run with no Nagle delay.

    Args:
        plan: the cells to execute (must be picklable: every worker process
            receives the cell list when it starts).
        directory: destination store directory (the merged, indexed store
            ends up here; workers stream into ``directory/workers/``).
        workers: number of concurrent worker processes.
        unit_size: cells per work unit, cut in plan order.  The default
            plans one contiguous unit per worker, balanced by member-steps
            (a cell's trace length), so each worker vectorizes its whole
            share at once; no unit holds a lone cell of a sample period
            other pending cells share.  The plan assumes every cell costs
            about the same per step: a slow worker or a costlier unit holds
            up the sweep until it finishes (a running unit is never split).
            When a worker dies, the cells of its unit that did not reach
            disk are split the same way across the idle and newly spawned
            workers.  An explicit size is for fault injection in tests and
            ``fleet-smoke``; it plans without measuring traces, and a dead
            worker's remainder is requeued as one unit.
        max_cells_per_shard: shard rotation for worker and merged stores
            (must match the single-process run for byte-identical shards).
        max_unit_retries: how many times a unit may be reassigned after
            worker deaths before the sweep aborts.
        max_respawns: how many replacement workers may be spawned after
            deaths (default ``workers``); a replacement is spawned whenever
            work is queued and fewer than ``workers`` are live.
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
        if self.unit_size:
            size, shapes = self.unit_size, None
            chunks = [pending[i : i + size] for i in range(0, len(pending), size)]
            largest = max(chunks, key=len, default=[])
            largest_steps = None
        else:
            shapes = _cell_shapes(cells, pending)
            chunks = _split_cells(pending, self.workers, shapes) if pending else []
            largest = max(chunks, key=lambda c: sum(shapes[i][0] for i in c), default=[])
            largest_steps = sum(shapes[i][0] for i in largest)
        units = deque(_Unit(unit_id=n, indices=chunk) for n, chunk in enumerate(chunks))

        executed_ids: List[str] = []
        stats = {"spawned": 0, "deaths": 0, "reassigned_units": 0, "reassigned_cells": 0}
        if units:
            self._dispatch(cells, units, shapes, completed, executed_ids, workers_root, stats)

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
            n_units=len(chunks),
            max_unit_cells=len(largest),
            max_unit_steps=largest_steps,
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

    def _dispatch(self, cells, queue, shapes, completed, executed_ids, workers_root, stats):
        authkey = secrets.token_bytes(16)
        listener = Listener(("127.0.0.1", 0), authkey=authkey)
        # The listening socket joins the wait() set while any worker is
        # connecting, so a hello is accepted the moment it arrives instead of
        # after some other worker's next message.  The timeout only guards a
        # connection that is reset between readiness and accept().
        accept_socket = listener._listener._socket
        accept_socket.settimeout(0.25)
        address = listener.address
        unit_ids = count(max(unit.unit_id for unit in queue) + 1)

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

        def can_respawn() -> bool:
            return stats["spawned"] < self.workers + self.max_respawns

        def accept() -> None:
            try:
                conn = listener.accept()
            except (socket.timeout, AuthenticationError, OSError, EOFError):
                return
            set_nodelay(conn)
            hello = recv_msg(conn)
            if hello is None:
                conn.close()  # died pre-hello; its sentinel fires
                return
            if hello.get("type") != "hello":
                raise ProtocolError(f"expected hello, got {hello!r}")
            handle = self._handles[hello["worker_id"]]
            handle.conn = conn
            handle.state = "idle"
            fresh = [c for c in hello.get("completed", ()) if c not in completed]
            executed_ids.extend(fresh)
            completed.update(fresh)
            self._emit("hello", worker_id=handle.worker_id, pid=hello.get("pid"))

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
            remaining = []
            if unit is not None:
                remaining = [i for i in unit.indices if cells[i].cell_id not in completed]
                unit.attempts += 1
                if unit.attempts > self.max_unit_retries:
                    raise FleetError(
                        f"unit {unit.unit_id} failed {unit.attempts} times "
                        f"(last error: {unit.last_error or 'worker died'}); aborting"
                    )
            live = [h for h in self._handles.values() if h.live]
            if (remaining or queue) and len(live) < self.workers and can_respawn():
                live.append(spawn())
            if not remaining:
                return
            # One piece per worker free to take one now; busy workers pick up
            # whatever is still queued when they finish.
            free = sum(h.state in ("connecting", "idle") for h in live) - len(queue)
            pieces = [remaining] if shapes is None else _split_cells(remaining, free, shapes)
            for n, indices in enumerate(pieces):
                piece = _Unit(
                    unit.unit_id if n == 0 else next(unit_ids),
                    indices,
                    attempts=unit.attempts,
                    last_error=unit.last_error,
                )
                queue.append(piece)
                stats["reassigned_units"] += 1
                stats["reassigned_cells"] += len(indices)
                self._emit(
                    "reassign",
                    unit=piece.unit_id,
                    cells=[cells[i].cell_id for i in indices],
                    attempts=piece.attempts,
                )

        try:
            for _ in range(min(self.workers, len(queue))):
                spawn()

            while queue or any(h.unit is not None for h in self._handles.values()):
                # Assign units to idle workers (a failed send may spawn a
                # replacement, so walk a snapshot).
                for handle in list(self._handles.values()):
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
                    if not can_respawn():
                        raise FleetError(
                            "every fleet worker died and the respawn budget "
                            f"({self.max_respawns}) is exhausted"
                        )
                    spawn()
                    continue

                # Wait for connections, messages or deaths.
                waitables = {}
                if any(h.state == "connecting" for h in handles):
                    waitables[accept_socket] = None
                for handle in handles:
                    if handle.conn is not None and handle.state in ("idle", "running"):
                        waitables[handle.conn] = handle
                    if handle.live or handle.state == "stopping":
                        waitables[handle.process.sentinel] = handle
                ready = wait(list(waitables), timeout=0.25)
                if accept_socket in ready:
                    # Greet and assign the new worker before reading other
                    # messages; anything else ready is reported again.
                    accept()
                    continue
                for obj in ready:
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
                if handle.process.is_alive():  # stuck, stopped or ignoring SIGTERM
                    handle.process.terminate()
                    handle.process.join(timeout=5)
                if handle.process.is_alive():
                    handle.process.kill()
                    handle.process.join()
                if handle.live or handle.state == "stopping":
                    handle.state = "done"
            listener.close()
