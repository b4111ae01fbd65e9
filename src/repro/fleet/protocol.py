"""Socket-ready JSON message protocol between the coordinator and workers.

Messages are UTF-8 JSON objects carried over
:class:`multiprocessing.connection.Connection` byte frames.  The transport is
a loopback TCP :class:`~multiprocessing.connection.Listener` with an HMAC
authkey handshake — the same ``(host, port, authkey)`` triple works across
machines, so moving workers off-box later changes how processes are spawned,
not the protocol.  Both ends run with no Nagle delay (:func:`set_nodelay`):
each message is one small frame the peer waits for.

Coordinator -> worker:

* ``{"type": "assign", "unit_id": int, "indices": [int, ...]}`` — run the
  plan cells at ``indices`` (positions in the worker's cell list).
* ``{"type": "shutdown"}`` — flush the shard store and exit cleanly.

Worker -> coordinator:

* ``{"type": "hello", "worker_id", "pid", "completed": [cell_id, ...]}`` —
  sent once after the worker (re)opens its shard store; ``completed`` lists
  cells already persisted there from a previous life.
* ``{"type": "unit_done", "unit_id", "executed": [cell_id, ...]}``
* ``{"type": "unit_failed", "unit_id", "error": str}`` — the unit raised;
  the worker's store may hold a partial cell, so the worker exits and the
  coordinator reassigns after harvesting the directory.
* ``{"type": "bye", "worker_id"}`` — acknowledges ``shutdown``.
"""

from __future__ import annotations

import json
import socket
from typing import Optional

PROTOCOL_VERSION = 1


class ProtocolError(RuntimeError):
    """A malformed or out-of-sequence fleet message."""


def set_nodelay(conn) -> None:
    """Turn Nagle's algorithm off on a TCP Connection (through a dup'd fd)."""
    with socket.fromfd(conn.fileno(), socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def send_msg(conn, message: dict) -> None:
    """Send one JSON message over a Connection byte frame."""
    conn.send_bytes(json.dumps(message, separators=(",", ":")).encode("utf-8"))


def recv_msg(conn) -> Optional[dict]:
    """Receive one JSON message; ``None`` when the peer closed the pipe."""
    try:
        payload = conn.recv_bytes()
    except (EOFError, OSError):
        return None
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable fleet message: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError(f"fleet message without a type: {message!r}")
    return message
