"""Persistent serving front end: a socket server over :class:`SessionPool`.

:class:`PolicyService` is the transport-agnostic core — a request
dictionary in, a response dictionary out — so the same dispatcher serves the
asyncio line-delimited-JSON socket server (``repro serve --listen``), tests,
and the in-process load benchmark without a socket in the loop.

Durability: every session is keyed to a user; on ``close``, ``checkpoint``
(periodic while serving), and shutdown the user's adapter/controller state is
recorded into a :class:`~repro.fleet.state.SessionStateStore`, and ``open``
for a known user warm-starts the fresh session from it.  SIGINT/SIGTERM are
handled as a graceful stop: the server drains, persists state, and flushes
the buffered cap-decision log before exiting — never dying mid-write.

Protocol (one JSON object per line, response mirrors request order)::

    {"op": "open", "session": "s1", "user": "u03"}
    {"op": "feed", "session": "s1", "sample": {"time_s": 0.0,
        "utilization": 0.8, "frequency_khz": 2265600, "sensors": {...}},
        "feedback": [{"time_s": 0.0, "kind": "discomfort"}]}
    {"op": "feed_batch", "samples": {"s1": {...}, "s2": {...}}}
    {"op": "feedback", "session": "s1", "event": {...}}
    {"op": "close", "session": "s1"}
    {"op": "checkpoint"} | {"op": "stats"} | {"op": "ping"} | {"op": "shutdown"}
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, Mapping, Optional, Sequence

from repro.api.session import SessionPool
from repro.api.types import CapDecision, FeedbackEvent, TelemetrySample

from .state import SessionStateStore


def _sample_from_wire(payload: Mapping) -> TelemetrySample:
    # The sensors dict is adopted, not copied: the request payload is owned
    # by this call (json-decoded per line, or built per request in-process)
    # and nothing downstream mutates sample readings.
    return TelemetrySample(
        time_s=float(payload["time_s"]),
        utilization=float(payload["utilization"]),
        frequency_khz=float(payload["frequency_khz"]),
        sensor_readings=payload.get("sensors") or {},
    )


def _event_from_wire(payload: Mapping) -> FeedbackEvent:
    return FeedbackEvent(
        time_s=float(payload["time_s"]),
        kind=payload["kind"],
        skin_temp_c=payload.get("skin_temp_c"),
    )


def decision_to_wire(decision: CapDecision) -> dict:
    """Wire dict for one decision (cached on the decision; do not mutate).

    Held ticks return the same :class:`CapDecision` object tick after tick,
    so the serving hot path would otherwise rebuild an identical dict per
    session per request — memoizing on the (frozen, immutable) decision
    makes the non-due steady state allocation-free.
    """
    wire = getattr(decision, "_wire", None)
    if wire is None:
        wire = {
            "level_cap": decision.level_cap,
            "max_frequency_khz": decision.max_frequency_khz,
            "predicted_skin_temp_c": decision.predicted_skin_temp_c,
            "predicted_screen_temp_c": decision.predicted_screen_temp_c,
            "comfort_limit_c": decision.comfort_limit_c,
            "active": decision.active,
        }
        object.__setattr__(decision, "_wire", wire)
    return wire


class PolicyService:
    """Session-pool dispatcher behind the socket server.

    Args:
        policy: the :class:`~repro.api.specs.PolicySpec` every session runs.
        profiles: optional mapping of user id -> ``UserProfile``; a known
            user's session targets their profile (limits, feedback model).
        predictor: fallback trained predictor for specs without a recipe.
        state_store: optional :class:`SessionStateStore` for warm starts.
        decision_log: optional JSONL path; one buffered line per cap
            decision, flushed on checkpoint/shutdown.
        table: frequency table handed to sessions (defaults per spec).
    """

    def __init__(
        self,
        policy,
        *,
        profiles: Optional[Mapping[str, object]] = None,
        predictor=None,
        state_store: Optional[SessionStateStore] = None,
        decision_log=None,
        table=None,
        use_plane: bool = True,
    ):
        self.policy = policy
        self.profiles = dict(profiles or {})
        self.predictor = predictor
        self.state_store = state_store
        self.table = table
        self.pool = SessionPool(use_plane=use_plane)
        self._session_users: Dict[str, str] = {}
        self._log_fh = None
        self.decision_log = None
        if decision_log is not None:
            path = Path(decision_log)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._log_fh = open(path, "a", encoding="utf-8")
            self.decision_log = str(path)
        self.opened = 0
        self.resumed = 0
        self.feeds = 0
        self.checkpoints = 0
        #: periodic checkpoints that raised (the server keeps ticking).
        self.checkpoint_failures = 0
        self.started_at = time.perf_counter()
        #: set by the server loop so the ``shutdown`` op can stop it.
        self.request_shutdown: Optional[Callable[[], None]] = None
        self._closed = False

    # -- operations --------------------------------------------------------------

    def open(self, session_id: str, user_id: Optional[str] = None) -> dict:
        profile = self.profiles.get(user_id) if user_id is not None else None
        session = self.pool.open(
            session_id,
            self.policy,
            user_profile=profile,
            predictor=self.predictor,
            table=self.table,
        )
        user_key = user_id if user_id is not None else session_id
        self._session_users[session_id] = user_key
        resumed = False
        if self.state_store is not None:
            resumed = self.state_store.restore(user_key, session)
        self.opened += 1
        self.resumed += int(resumed)
        return {
            "ok": True,
            "session": session_id,
            "user": user_key,
            "resumed": resumed,
            "limit_c": session.current_limit_c,
        }

    def feed(
        self,
        session_id: str,
        sample: Mapping,
        feedback: Sequence[Mapping] = (),
    ) -> dict:
        session = self.pool.get(session_id)
        events = [_event_from_wire(e) for e in feedback]
        decision = session.feed(_sample_from_wire(sample), feedback=events)
        self.feeds += 1
        self._log_decision(session_id, sample, decision)
        return {"ok": True, "session": session_id, "decision": decision_to_wire(decision)}

    def feed_batch(
        self,
        samples: Mapping[str, Mapping],
        feedback: Optional[Mapping[str, Sequence[Mapping]]] = None,
    ) -> dict:
        """Feed many sessions at once — decisions come from one batched
        predictor call, the same fast path ``repro serve`` replay uses."""
        wire_samples = {sid: _sample_from_wire(s) for sid, s in samples.items()}
        wire_feedback = {
            sid: [_event_from_wire(e) for e in events]
            for sid, events in (feedback or {}).items()
        }
        decisions = self.pool.feed_many(wire_samples, feedback=wire_feedback or None)
        self.feeds += len(decisions)
        if self._log_fh is not None:
            for sid, decision in decisions.items():
                self._log_decision(sid, samples[sid], decision)
        return {
            "ok": True,
            "decisions": {sid: decision_to_wire(d) for sid, d in decisions.items()},
        }

    def feedback(self, session_id: str, event: Mapping) -> dict:
        limit = self.pool.get(session_id).feed_feedback(_event_from_wire(event))
        return {"ok": True, "session": session_id, "limit_c": limit}

    def close_session(self, session_id: str) -> dict:
        session = self.pool.get(session_id)
        if self.state_store is not None:
            self.state_store.record(self._session_users[session_id], session)
            self.state_store.save()
        self.pool.close(session_id)
        self._session_users.pop(session_id, None)
        return {"ok": True, "session": session_id}

    def checkpoint(self) -> dict:
        """Persist every live session's user state and flush the log."""
        recorded = 0
        shards_written = 0
        if self.state_store is not None:
            for session in self.pool:
                user_key = self._session_users.get(session.session_id, session.session_id)
                recorded += int(self.state_store.record(user_key, session))
            shards_written = self.state_store.save()
        if self._log_fh is not None:
            self._log_fh.flush()
        self.checkpoints += 1
        return {
            "ok": True,
            "recorded": recorded,
            "sessions": len(self.pool),
            "shards_written": shards_written,
        }

    def stats(self) -> dict:
        store = self.state_store
        return {
            "ok": True,
            "sessions": len(self.pool),
            "feeds": self.feeds,
            "predictions": self.pool.prediction_count,
            "batches": self.pool.batch_count,
            "plane_resident": self.pool.plane_resident_count,
            "plane_ticks": self.pool.plane_tick_count,
            "opened": self.opened,
            "resumed": self.resumed,
            "checkpoints": self.checkpoints,
            "checkpoint_failures": self.checkpoint_failures,
            "uptime_s": time.perf_counter() - self.started_at,
            "persisted_users": len(store) if store else 0,
            "state_shards": store.n_shards if store else 0,
            "state_dirty_shards": store.dirty_shard_count if store else 0,
            "state_shards_written": store.total_shards_written if store else 0,
        }

    def shutdown(self) -> None:
        """Persist state and close the decision log (idempotent)."""
        if self._closed:
            return
        self.checkpoint()
        if self._log_fh is not None:
            self._log_fh.close()
            self._log_fh = None
        self._closed = True

    # -- dispatch ----------------------------------------------------------------

    def handle(self, request: Mapping) -> dict:
        """One request dictionary in, one response dictionary out."""
        try:
            op = request.get("op")
            if op == "open":
                return self.open(request["session"], request.get("user"))
            if op == "feed":
                return self.feed(
                    request["session"], request["sample"], request.get("feedback", ())
                )
            if op == "feed_batch":
                return self.feed_batch(request["samples"], request.get("feedback"))
            if op == "feedback":
                return self.feedback(request["session"], request["event"])
            if op == "close":
                return self.close_session(request["session"])
            if op == "checkpoint":
                return self.checkpoint()
            if op == "stats":
                return self.stats()
            if op == "ping":
                return {"ok": True, "pong": True}
            if op == "shutdown":
                if self.request_shutdown is not None:
                    self.request_shutdown()
                return {"ok": True, "stopping": self.request_shutdown is not None}
            return {"ok": False, "error": f"unknown op {op!r}", "error_type": "ValueError"}
        except Exception as exc:
            return {"ok": False, "error": str(exc), "error_type": type(exc).__name__}

    # -- internals ---------------------------------------------------------------

    def _log_decision(self, session_id: str, sample: Mapping, decision: CapDecision) -> None:
        if self._log_fh is None:
            return
        # Buffered on purpose: the graceful-shutdown path (checkpoint /
        # SIGTERM) owns the flush, and the kill test asserts no torn lines.
        self._log_fh.write(
            json.dumps(
                {
                    "time_s": sample["time_s"],
                    "session": session_id,
                    "cap": decision.level_cap,
                    "active": decision.active,
                    "limit_c": decision.comfort_limit_c,
                },
                separators=(",", ":"),
            )
            + "\n"
        )


#: Default longest request line the socket server reads (bytes).  A
#: ``feed_batch`` costs ~115 bytes per session, so this fits ~35k sessions.
DEFAULT_REQUEST_LIMIT = 4 * 1024 * 1024


async def _next_request(reader) -> Optional[bytes]:
    """The next request line (``b""`` at end of input), or ``None`` for a
    line longer than the reader's limit — which is discarded through its
    newline, so the connection stays in step with the client."""
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial
    except asyncio.LimitOverrunError as exc:
        overrun = exc
    while True:
        # Drop what is buffered ahead of the (not yet seen) newline.
        await reader.readexactly(overrun.consumed)
        try:
            await reader.readuntil(b"\n")
            return None
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError as exc:
            overrun = exc


async def _handle_client(service: PolicyService, reader, writer, limit: int) -> None:
    try:
        while True:
            line = await _next_request(reader)
            if line is None:
                response = {
                    "ok": False,
                    "error": f"request line longer than {limit} bytes",
                    "error_type": "RequestTooLarge",
                }
            elif not line:
                break
            else:
                try:
                    request = json.loads(line)
                except ValueError as exc:
                    response = {
                        "ok": False, "error": f"invalid JSON: {exc}", "error_type": "ValueError"
                    }
                else:
                    response = service.handle(request)
            writer.write(json.dumps(response, separators=(",", ":")).encode("utf-8") + b"\n")
            await writer.drain()
    except (ConnectionResetError, BrokenPipeError):  # client vanished
        pass
    except asyncio.CancelledError:  # server shutting down mid-read
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass


def run_service(
    service: PolicyService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    checkpoint_period_s: Optional[float] = 30.0,
    on_listening: Optional[Callable[[str, int], None]] = None,
    request_limit: int = DEFAULT_REQUEST_LIMIT,
) -> dict:
    """Serve until SIGINT/SIGTERM (or a ``shutdown`` op), then persist state.

    Prints ``listening on HOST:PORT`` once the socket is bound (port 0 picks
    a free port — tests and scripts parse this line, or pass ``on_listening``
    to receive the bound address directly).  A request line longer than
    ``request_limit`` bytes gets a ``RequestTooLarge`` error reply and the
    connection stays open.  A periodic checkpoint that raises is counted in
    the ``stats`` op's ``checkpoint_failures`` and the ticker keeps going.
    Returns the final stats dictionary after a graceful shutdown.
    """

    async def _serve() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        service.request_shutdown = lambda: loop.call_soon_threadsafe(stop.set)
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, ValueError, RuntimeError):
                try:
                    signal.signal(signum, lambda *_: stop.set())
                except ValueError:
                    pass  # non-main thread: tests stop via the shutdown op
        server = await asyncio.start_server(
            lambda r, w: _handle_client(service, r, w, request_limit),
            host,
            port,
            limit=request_limit,
        )
        bound = server.sockets[0].getsockname()
        print(f"repro serve: listening on {bound[0]}:{bound[1]}", flush=True)
        if on_listening is not None:
            on_listening(bound[0], bound[1])

        async def _checkpoint_loop() -> None:
            while True:
                await asyncio.sleep(checkpoint_period_s)
                try:
                    service.checkpoint()
                except Exception:
                    # Serving outlives a failed save; the next tick retries.
                    service.checkpoint_failures += 1
                    print("repro serve: checkpoint failed", file=sys.stderr)
                    traceback.print_exc(file=sys.stderr)

        ticker = (
            asyncio.ensure_future(_checkpoint_loop())
            if checkpoint_period_s
            else None
        )
        try:
            await stop.wait()
        finally:
            if ticker is not None:
                ticker.cancel()
            server.close()
            await server.wait_closed()

    try:
        asyncio.run(_serve())
    finally:
        service.shutdown()
    return service.stats()
