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

Numbers on the wire are finite JSON numbers — ``int`` or ``float``, never
``bool``, string or ``null``.  ``sensors`` is optional (omitted or ``null``
means none); ``cpu`` and ``battery`` are needed when a prediction is due.  A
malformed request is refused with a ``ValueError`` naming the session and
the field (:mod:`repro.api.columns` holds the rules), and a refused
``feed_batch`` changes no session.  ``feed_batch`` decodes its samples into
one :class:`~repro.api.columns.SampleColumns` batch, which the pool's plane
reads directly.

Decision log: one line per decision, byte for byte ``json.dumps({"time_s":
…, "session": …, "cap": …, "active": …, "limit_c": …}, separators=(",",
":"))`` with ``time_s`` as the sample gave it; one buffered write per
request (:class:`DecisionLog`).
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import time
import traceback
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.api.columns import SampleColumns, sample_from_wire, wire_number
from repro.api.session import SessionPool
from repro.api.types import CapDecision, FeedbackEvent

from .state import SessionStateStore


def _event_from_wire(session_id, payload) -> FeedbackEvent:
    if not isinstance(payload, Mapping):
        raise ValueError(
            f"session {session_id!r}: a feedback event must be a JSON object, "
            f"got {type(payload).__name__}"
        )
    if "time_s" not in payload:
        raise ValueError(f"session {session_id!r}: feedback event lacks 'time_s'")
    kind = payload.get("kind")
    if kind not in (FeedbackEvent.DISCOMFORT, FeedbackEvent.COMFORT):
        raise ValueError(
            f"session {session_id!r}: feedback kind must be {FeedbackEvent.DISCOMFORT!r} "
            f"or {FeedbackEvent.COMFORT!r}, got {kind!r}"
        )
    skin = payload.get("skin_temp_c")
    return FeedbackEvent(
        time_s=float(wire_number(payload["time_s"], session_id, "feedback time_s")),
        kind=kind,
        skin_temp_c=None if skin is None else wire_number(skin, session_id, "skin_temp_c"),
    )


def _events_from_wire(session_id, events) -> List[FeedbackEvent]:
    if not isinstance(events, (list, tuple)):
        raise ValueError(
            f"session {session_id!r}: feedback must be a JSON array of events, "
            f"got {type(events).__name__}"
        )
    return [_event_from_wire(session_id, event) for event in events]


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


def _json_number(value) -> str:
    """``json.dumps(value)`` for a number or ``None``; the common cases skip
    the encoder (``repr`` spells a finite float and an int as json does)."""
    kind = type(value)
    if (kind is float and value - value == 0.0) or kind is int:
        return repr(value)
    if value is None:
        return "null"
    return json.dumps(value)


class DecisionLog:
    """The buffered cap-decision log: one JSON line per decision.

    Each line is byte for byte ``json.dumps({"time_s": …, "session": …,
    "cap": …, "active": …, "limit_c": …}, separators=(",", ":"))``, formatted
    directly from the ``time_s`` as the sample gave it, the ASCII-escaped
    session id and the decision.  Each :meth:`write` is one buffered file
    write; the owner flushes on checkpoint and closes on shutdown, so a
    graceful stop never leaves a torn line.
    """

    def __init__(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(path, "a", encoding="utf-8")

    def write(self, session_ids, times, decisions) -> None:
        """Append one line per ``(session id, time_s, decision)``."""
        encode = encode_basestring_ascii
        lines = []
        append = lines.append
        for session_id, time_s, decision in zip(session_ids, times, decisions):
            cap = decision.level_cap
            sid = encode(session_id) if type(session_id) is str else json.dumps(session_id)
            append(
                f'{{"time_s":{_json_number(time_s)},"session":{sid},'
                f'"cap":{_json_number(cap)},"active":{"false" if cap is None else "true"},'
                f'"limit_c":{_json_number(decision.comfort_limit_c)}}}\n'
            )
        self._fh.write("".join(lines))

    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


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
        self._log: Optional[DecisionLog] = None
        self.decision_log = None
        if decision_log is not None:
            self._log = DecisionLog(decision_log)
            self.decision_log = str(Path(decision_log))
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
        # Checked before the pool sees the id: the state store keys users by
        # string, so a session under another id would fail every checkpoint.
        if not isinstance(session_id, str):
            raise ValueError(f"open session id must be a string, got {type(session_id).__name__}")
        if user_id is not None and not isinstance(user_id, str):
            raise ValueError(f"open user id must be a string, got {type(user_id).__name__}")
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
        self.pool.get(session_id)  # an unknown id is refused before decoding
        events = _events_from_wire(session_id, feedback)
        decision = self.pool.feed(session_id, sample_from_wire(session_id, sample), events)
        self.feeds += 1
        if self._log is not None:
            self._log.write((session_id,), (sample["time_s"],), (decision,))
        return {"ok": True, "session": session_id, "decision": decision_to_wire(decision)}

    def feed_batch(
        self,
        samples: Mapping[str, Mapping],
        feedback: Optional[Mapping[str, Sequence[Mapping]]] = None,
    ) -> dict:
        """Feed many sessions at once — decisions come from one plane tick
        over the batch's columns, the same fast path ``repro serve`` replay
        uses."""
        columns = SampleColumns.from_wire(samples)
        if feedback is not None and not isinstance(feedback, Mapping):
            raise ValueError(
                "feed_batch feedback must be a JSON object of session id -> events, "
                f"got {type(feedback).__name__}"
            )
        events = {sid: _events_from_wire(sid, items) for sid, items in (feedback or {}).items()}
        decisions = self.pool.feed_many(columns, feedback=events or None)
        self.feeds += len(decisions)
        if self._log is not None:
            self._log.write(columns.ids, columns.time_raw, decisions.values())
        return {
            "ok": True,
            "decisions": {sid: decision_to_wire(d) for sid, d in decisions.items()},
        }

    def feedback(self, session_id: str, event: Mapping) -> dict:
        limit = self.pool.get(session_id).feed_feedback(_event_from_wire(session_id, event))
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
        if self._log is not None:
            self._log.flush()
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
        if self._log is not None:
            self._log.close()
            self._log = None
        self._closed = True

    # -- dispatch ----------------------------------------------------------------

    def handle(self, request: Mapping) -> dict:
        """One request dictionary in, one response dictionary out."""
        try:
            if not isinstance(request, Mapping):
                raise ValueError(f"a request must be a JSON object, got {type(request).__name__}")
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
