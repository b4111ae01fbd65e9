"""Fleet worker process: run assigned work units into a private shard store.

Spawned by the coordinator via :mod:`multiprocessing` with the full cell list
(plans travel out-of-band at spawn time; the wire protocol only carries cell
*indices*, keeping assignment messages tiny and machine-portable).  Each
worker owns one :class:`~repro.runtime.streamstore.StreamingResultStore`
directory: reopening it after a crash heals any truncated final line and
reports the already-committed cells back in the ``hello`` message, so the
coordinator never reassigns work that survived on disk.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from repro.runtime.executors import VectorizedExecutor
from repro.runtime.plan import ExperimentCell, ExperimentPlan
from repro.runtime.runner import BatchRunner
from repro.runtime.streamstore import StreamingResultStore

from .protocol import recv_msg, send_msg, set_nodelay


def worker_main(
    address,
    authkey: bytes,
    worker_id: str,
    cells: Sequence[ExperimentCell],
    directory,
    max_cells_per_shard: int = 64,
) -> int:
    """Entry point for a fleet worker process (must stay module-level picklable)."""
    from multiprocessing.connection import Client

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    store = StreamingResultStore(directory, max_cells_per_shard=max_cells_per_shard)
    conn = Client(address, authkey=authkey)
    set_nodelay(conn)
    runner = BatchRunner(executor=VectorizedExecutor())
    import os

    send_msg(
        conn,
        {
            "type": "hello",
            "worker_id": worker_id,
            "pid": os.getpid(),
            "completed": sorted(store.completed_cell_ids),
        },
    )
    try:
        while True:
            message = recv_msg(conn)
            if message is None or message["type"] == "shutdown":
                break
            if message["type"] != "assign":  # pragma: no cover - defensive
                continue
            unit_id = message["unit_id"]
            subcells = [cells[i] for i in message["indices"]]
            try:
                plan = ExperimentPlan(subcells)
                runner.run_stream(plan, store, skip=store.completed_cell_ids)
                store.flush()
            except Exception as exc:
                # The store may hold a partially written cell; report, then
                # die so the coordinator harvests the directory (the next
                # open drops the truncated line) and reassigns the remainder.
                try:
                    send_msg(
                        conn,
                        {"type": "unit_failed", "unit_id": unit_id, "error": str(exc)},
                    )
                finally:
                    store.close()
                return 1
            send_msg(
                conn,
                {
                    "type": "unit_done",
                    "unit_id": unit_id,
                    "executed": [c.cell_id for c in subcells],
                },
            )
        send_msg(conn, {"type": "bye", "worker_id": worker_id})
    except (EOFError, OSError):  # coordinator went away; exit quietly
        pass
    finally:
        store.close()
        conn.close()
    return 0
