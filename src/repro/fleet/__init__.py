"""Fleet execution: distributed sweeps and the persistent serving front end.

Two coordinated layers on top of the batched runtime and the policy API:

* **Distributed sweep executor** — :class:`~repro.fleet.coordinator.FleetCoordinator`
  partitions an :class:`~repro.runtime.plan.ExperimentPlan` into work units and
  dispatches them over a socket-ready JSON protocol to worker processes.  Each
  worker streams its cells through the vectorized executor into a private
  :class:`~repro.runtime.streamstore.StreamingResultStore` shard directory;
  a killed worker's incomplete units are harvested via the ``index.jsonl``
  resume sidecar and reassigned, and :func:`~repro.fleet.merge.merge_stores`
  compacts every shard directory into one indexed store whose shards and
  index are byte-identical to a single-process streaming run.

* **Serving front end** — :class:`~repro.fleet.service.PolicyService` exposes
  the :class:`~repro.api.session.SessionPool` over a line-delimited-JSON
  asyncio socket server (``repro serve --listen HOST:PORT``), with a
  :class:`~repro.fleet.state.SessionStateStore` persisting each user's
  adapter/controller state on checkpoint and shutdown so a returning user
  warm-starts at their converged comfort limit.
"""

from .coordinator import FleetCoordinator, FleetError, FleetReport
from .merge import MergeError, MergeReport, merge_stores, stores_byte_identical
from .service import PolicyService, run_service
from .state import (
    SessionStateStore,
    restore_session_state,
    snapshot_session_state,
)

__all__ = [
    "FleetCoordinator",
    "FleetError",
    "FleetReport",
    "MergeError",
    "MergeReport",
    "PolicyService",
    "SessionStateStore",
    "merge_stores",
    "restore_session_state",
    "run_service",
    "snapshot_session_state",
    "stores_byte_identical",
]
