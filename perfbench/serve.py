"""The ``serve_socket`` workload: one client process against the served socket.

The server is ``perfbench/server.py`` (the ``repro serve --listen`` stack)
in its own process.  The client holds a resident population of sessions and
uses two connections: ``A`` carries the feeds, ``B`` the session churn
(close, then reopen as a returning user) and ``checkpoint`` ops.

* Set-up, timed three times: server spawn until listening, plus the
  resident opens (pipelined in chunks).
* Gateway phase, closed loop: ``feed_batch`` sizes log-uniform from 1 to
  1000 sessions (size 1 goes as ``feed``).  Its throughput is about the
  feed path alone, so no state-store write runs in it.
* Device phase, open loop at a fixed offered feed rate: single ``feed``s
  and batches of a few dozen sessions, each timed from when it was due.
  Churn and checkpoints on ``B`` sit at fixed points of this schedule, so
  their stalls of the event loop show in the latency tail.

Every request's bytes are made from the seed before the phases and every
reply is parsed after them.  A request the server drops without a reply
(today: any line over asyncio's 64 KiB limit) is counted as failed and the
connection is reopened.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import select
import socket
import statistics
import subprocess
import sys
from collections import Counter, defaultdict, deque
from pathlib import Path

import numpy as np
from repro.analysis import ReproductionContext
from repro.api.serve import manager_requires_predictor
from repro.api.specs import AdapterSpec, ManagerSpec, PolicySpec
from repro.fleet import PolicyService
from repro.users import paper_population

from tracing import perf

SESSIONS = 2000
CHURN_SESSIONS = 100  # reopened by churn, never fed in the device phase
CONTEXT_SCALE = 0.25  # the ``repro serve`` default ``--scale``
#: ``--model``: the resident session plane only takes batch-row-invariant
#: predictors, and the default RepTree would send every session down the
#: scalar fallback, leaving the plane layer unmeasured.
MODEL = "linear_regression"
SETUPS = 3
OPEN_CHUNK = 250
GATEWAY_MAX_BATCH = 1000  # the chunk ``benchmarks/bench_serve_load.py`` feeds
#: Gateway requests per second of ``--seconds``: the phase takes about
#: 0.35 x ``--seconds`` on a 2-core host today.
GATEWAY_REQUESTS_PER_S = 135
DEVICE_SHARE = 0.2  # of ``--seconds``; the three set-ups take most of the rest
GATEWAY_BLOCK = 100  # requests per timed block; each block has the full size mix
#: Offered load of the open-loop phase: about half the ~16k feeds/s this mix
#: saturates at on a 2-core host today (at 14k the p50 is already ~5 ms).
DEVICE_FEEDS_PER_S = 9000
DEVICE_BATCH = (12, 48)
REPLAY_SLICE = 40  # leading gateway requests replayed in-process
DEVICE_CHURN_EVERY = 100
DEVICE_CHECKPOINT_EVERY = 500
FREQUENCIES_KHZ = (300000.0, 960000.0, 1497600.0, 1728000.0, 2265600.0)
SERVER = Path(__file__).resolve().parent / "server.py"
WAIT_S = 60.0


def serve_policy():
    """``repro serve --listen --adapter quantile_tracker``: USTA that learns
    each user's limit from their feedback."""
    return PolicySpec(manager=ManagerSpec("usta"), adapter=AdapterSpec(name="quantile_tracker"))


def serve_context(seed):
    return ReproductionContext.build(seed=seed, duration_scale=CONTEXT_SCALE, model_name=MODEL)


def quantile(values, q):
    """Nearest-rank quantile of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, round(q * (len(ordered) - 1)))]


class Request:
    __slots__ = ("rid", "op", "data", "sessions", "due", "t_send", "t_recv", "line", "failed")

    def __init__(self, rid, op, data, sessions=None, due=None):
        self.rid = rid
        self.op = op
        self.data = data
        self.sessions = sessions
        self.due = due
        self.t_send = None
        self.t_recv = None
        self.line = None
        self.failed = False

    @property
    def done(self):
        return self.t_recv is not None


# -- the request script ---------------------------------------------------------------


class Script:
    """Request bytes for one run, made from the seed."""

    def __init__(self, seed, sessions, users):
        self.rng = random.Random(seed)
        self.values = np.random.default_rng(seed)  # sample readings, drawn per request
        self.sids = [f"s{i:05d}" for i in range(sessions)]
        # A felt skin channel on every third session arms the user-feedback model.
        self.skin_ids = frozenset(self.sids[::3])
        self.user_of = {sid: users[i % len(users)] for i, sid in enumerate(self.sids)}
        churn = min(CHURN_SESSIONS, sessions // 10)
        self.churn_ids = self.sids[-churn:]
        self.device_ids = self.sids[:-churn]
        self.clock = dict.fromkeys(self.sids, 0.0)
        self.rid = 0
        self._churned = 0

    def request(self, payload, sessions=None, due=None):
        self.rid += 1
        payload["rid"] = self.rid
        data = json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"
        return Request(self.rid, payload["op"], data, sessions, due)

    def _samples(self, chosen):
        """One telemetry sample per chosen session, each at its next second."""
        n = len(chosen)
        draw = self.values
        cpu = np.round(draw.uniform(38.0, 72.0, n), 3).tolist()
        battery = np.round(draw.uniform(30.0, 40.0, n), 3).tolist()
        skin = np.round(draw.uniform(32.5, 38.5, n), 3).tolist()
        utilization = np.round(draw.uniform(0.05, 1.0, n), 4).tolist()
        frequency = np.asarray(FREQUENCIES_KHZ)[draw.integers(0, len(FREQUENCIES_KHZ), n)].tolist()
        samples = {}
        for k, sid in enumerate(chosen):
            self.clock[sid] += 1.0
            sensors = {"cpu": cpu[k], "battery": battery[k]}
            if sid in self.skin_ids:
                sensors["skin"] = skin[k]
            samples[sid] = {
                "time_s": self.clock[sid],
                "utilization": utilization[k],
                "frequency_khz": frequency[k],
                "sensors": sensors,
            }
        return samples

    def _event(self, sid):
        return {
            "time_s": self.clock[sid],
            "kind": "discomfort",
            "skin_temp_c": round(self.rng.uniform(34.0, 37.5), 3),
        }

    def feeds(self, chosen, due=None):
        """``feed`` for one session, ``feed_batch`` for more; sprinkled feedback."""
        rng = self.rng
        samples = self._samples(chosen)
        if len(chosen) == 1:
            sid = chosen[0]
            payload = {"op": "feed", "session": sid, "sample": samples[sid]}
            if rng.random() < 0.05:
                payload["feedback"] = [self._event(sid)]
            return self.request(payload, chosen, due)
        payload = {"op": "feed_batch", "samples": samples}
        if rng.random() < 0.3:
            payload["feedback"] = {sid: [self._event(sid)] for sid in rng.sample(chosen, 2)}
        return self.request(payload, chosen, due)

    def opens(self):
        return [
            self.request({"op": "open", "session": sid, "user": self.user_of[sid]})
            for sid in self.sids
        ]

    def churn(self, due=None):
        sid = self.churn_ids[self._churned % len(self.churn_ids)]
        self._churned += 1
        return [
            self.request({"op": "close", "session": sid}, due=due),
            self.request({"op": "open", "session": sid, "user": self.user_of[sid]}, due=due),
        ]

    def _stratified(self, count, draw):
        """``draw(q)`` at one random point of each of ``count`` equal quantile
        strata, shuffled: every seed gets the same size mix, in its own order."""
        values = [draw((k + self.rng.random()) / count) for k in range(count)]
        self.rng.shuffle(values)
        return values

    def gateway(self, blocks):
        """Closed-loop feeds, ``GATEWAY_BLOCK`` per block."""
        top = math.log(GATEWAY_MAX_BATCH + 1)
        limit = min(GATEWAY_MAX_BATCH, len(self.sids))
        sizes = []
        for _ in range(blocks):
            sizes += self._stratified(GATEWAY_BLOCK, lambda q: min(limit, int(math.exp(q * top))))
        return [self.feeds(self.rng.sample(self.sids, size)) for size in sizes]

    def device(self, seconds):
        """Open-loop feeds due at a fixed offered feed rate, plus B ops.

        Half the requests are single ``feed``s, half batches of a few dozen."""
        lo, hi = DEVICE_BATCH
        count = 2 * round(seconds * DEVICE_FEEDS_PER_S / (1 + (lo + hi) / 2))
        sizes = self._stratified(
            count, lambda q: 1 if q < 0.5 else lo + int((2 * q - 1) * (hi - lo + 1))
        )
        feeds, ops = [], []
        due = 0.0
        for n, size in enumerate(sizes):
            feeds.append(self.feeds(self.rng.sample(self.device_ids, size), due=due))
            if n % DEVICE_CHURN_EVERY == DEVICE_CHURN_EVERY // 2:
                ops.extend(self.churn(due=due))
            if n % DEVICE_CHECKPOINT_EVERY == DEVICE_CHECKPOINT_EVERY // 2:
                ops.append(self.request({"op": "checkpoint"}, due=due))
            due += size / DEVICE_FEEDS_PER_S
        return feeds, ops


# -- connections ----------------------------------------------------------------------


class Channel:
    """One client connection: a send buffer, in-order replies, reconnects."""

    def __init__(self, address):
        self.address = address
        self.pending = deque()
        self.drops = 0
        self._connect()

    def _connect(self):
        self.sock = socket.create_connection(self.address)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.out = bytearray()
        self.inbuf = bytearray()

    def send(self, request):
        request.t_send = perf()
        self.pending.append(request)
        self.out += request.data
        self.flush()

    def flush(self):
        while self.out:
            try:
                sent = self.sock.send(self.out)
            except BlockingIOError:
                return
            except OSError:
                self._drop()
                return
            del self.out[:sent]

    def read(self):
        try:
            data = self.sock.recv(1 << 20)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            self._drop()
            return
        now = perf()
        self.inbuf += data
        start = 0
        while True:
            end = self.inbuf.find(b"\n", start)
            if end < 0:
                break
            request = self.pending.popleft()
            request.line = bytes(self.inbuf[start:end])
            request.t_recv = now
            start = end + 1
        del self.inbuf[:start]

    def _drop(self):
        """The server closed the connection: fail what it never answered."""
        now = perf()
        for request in self.pending:
            request.failed = True
            request.t_recv = now
        self.pending.clear()
        self.drops += 1
        self.sock.close()
        self._connect()

    def close(self):
        self.sock.close()


def _pump(channels, timeout):
    readers = [c.sock for c in channels]
    writers = [c.sock for c in channels if c.out]
    ready_r, ready_w, _ = select.select(readers, writers, [], timeout)
    for channel in channels:
        if channel.sock in ready_w:
            channel.flush()
        if channel.sock in ready_r:
            channel.read()


def _wait(channels, requests):
    deadline = perf() + WAIT_S
    while not all(r.done for r in requests):
        if perf() > deadline:
            raise RuntimeError("the server stopped answering")
        _pump(channels, 1.0)


# -- server life cycle ------------------------------------------------------------------


class Server:
    def __init__(self, workdir, index, seed, trace, log_path):
        self.dir = Path(workdir) / f"server-{index}"
        state, decisions = self.dir / "state", self.dir / "decisions"
        state.mkdir(parents=True)
        decisions.mkdir()
        self.out = self.dir / "out.json"
        self.log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, str(SERVER), "--seed", str(seed), "--state-dir", str(state),
             "--stream-to", str(decisions), "--out", str(self.out), "--trace", str(int(trace))],
            stdout=subprocess.PIPE,
            stderr=self.log,
        )
        line = self.proc.stdout.readline().decode("utf-8", "replace")
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        host, _, port = line.rsplit(" ", 1)[1].strip().rpartition(":")
        self.address = (host, int(port))

    def shutdown(self, channel):
        """Graceful stop through the ``shutdown`` op; the launcher's output."""
        try:
            request = Request(0, "shutdown", b'{"op":"shutdown"}\n')
            channel.send(request)
            _wait([channel], [request])
            self.proc.wait(timeout=WAIT_S)
        finally:
            out = self.stop()
        return out

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        if self.out.exists():
            return json.loads(self.out.read_text(encoding="utf-8"))
        return None


def _setup(workdir, index, seed, trace, script, log_path):
    """Spawn a server, connect, open the resident population; timed."""
    t0 = perf()
    server = Server(workdir, index, seed, trace, log_path)
    try:
        a, b = Channel(server.address), Channel(server.address)
        opens = script.opens()
        for lo in range(0, len(opens), OPEN_CHUNK):
            chunk = opens[lo : lo + OPEN_CHUNK]
            for request in chunk:
                a.send(request)
            _wait([a], chunk)
    except BaseException:
        server.stop()
        raise
    return server, a, b, opens, perf() - t0


# -- the run -----------------------------------------------------------------------------


def serve_socket(seed, seconds, tracer, workdir, scale=1.0, log_dir="."):
    sessions = max(100, round(SESSIONS * scale))
    users = sorted(p.user_id for p in paper_population())
    blocks = max(1, round(GATEWAY_REQUESTS_PER_S * seconds / GATEWAY_BLOCK))
    log_path = Path(log_dir) / f"serve_socket-seed{seed}{'-traced' if tracer.enabled else ''}.err"
    log_path.write_bytes(b"")

    setups, outs = [], []
    for index in range(SETUPS):
        script = Script(seed, sessions, users)
        with tracer.span("client.setup"):
            server, a, b, opens, setup_s = _setup(
                workdir, index, seed, tracer.enabled, script, log_path
            )
        setups.append(setup_s)
        if index < SETUPS - 1:
            a.close()
            outs.append(server.shutdown(b))
            b.close()

    try:
        gateway = script.gateway(blocks)
        device, device_ops = script.device(DEVICE_SHARE * seconds)
        with tracer.span("client.gateway"):
            marks = [perf()]
            for n, request in enumerate(gateway):
                a.send(request)
                _wait([a], [request])
                if (n + 1) % GATEWAY_BLOCK == 0:
                    marks.append(perf())
            gateway_s = marks[-1] - marks[0]
        with tracer.span("client.device"):
            device_s = _open_loop(a, b, device, device_ops)
        stats = Request(0, "stats", b'{"op":"stats"}\n')
        b.send(stats)
        _wait([a, b], [stats])
        a.close()
        out = server.shutdown(b)
        b.close()
    except BaseException:
        server.stop()
        raise
    outs.append(out)
    drops = a.drops + b.drops

    # -- parse replies, after the timed phases --------------------------------------------
    everything = opens + gateway + device + device_ops
    errors = Counter()
    digest = hashlib.sha256()
    failed = 0
    bad_shape = 0
    replies = {}
    for request in everything:
        reply = None if request.failed else json.loads(request.line)
        if reply is None or not reply.get("ok"):
            failed += 1
            if reply is not None:
                errors[reply.get("error_type", "other")] += 1
            continue
        replies[request.rid] = reply
        if request.op == "feed_batch":
            decisions = reply.get("decisions", {})
            bad_shape += sorted(decisions) != sorted(request.sessions)
            digest.update(json.dumps(decisions, sort_keys=True).encode("utf-8"))
        elif request.op == "feed":
            bad_shape += "decision" not in reply
            digest.update(json.dumps(reply.get("decision"), sort_keys=True).encode("utf-8"))
    block_rates = []
    for k in range(blocks):
        block = gateway[k * GATEWAY_BLOCK : (k + 1) * GATEWAY_BLOCK]
        decided = sum(len(r.sessions) for r in block if r.rid in replies)
        block_rates.append(decided / (marks[k + 1] - marks[k]))
    stats_reply = json.loads(stats.line)
    checkpoints = [replies[r.rid] for r in device_ops if r.op == "checkpoint" and r.rid in replies]

    replay_mismatches = _replay(seed, opens, gateway[:REPLAY_SLICE], replies)

    latencies = [
        # A failed request misses any limit: it counts as the client's give-up time.
        WAIT_S * 1e3 if r.failed or r.rid not in replies else (r.t_recv - r.due) * 1e3
        for r in device
    ]
    late = [(r.t_send - r.due) * 1e3 for r in device]
    feeds_sent = sum(len(r.sessions) for r in gateway + device)
    feed_bytes = sum(len(r.data) for r in gateway + device)
    attempted = len(everything)
    e2e = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": statistics.median(block_rates),
        "peak_rss_mib": out["peak_rss_mib"],
        "latency_p50_ms": quantile(latencies, 0.5),
        "latency_p99_ms": quantile(latencies, 0.99),
        "latency_samples": len(latencies),
        "error_rate": failed / attempted,
    }
    layers = {
        "client.bytes_per_feed": feed_bytes / feeds_sent,
        "client.late_p99_ms": quantile(late, 0.99),
        "client.dropped_connections": drops,
        "api.plane.predict_ratio": stats_reply["predictions"] / max(1, stats_reply["feeds"]),
        "api.plane.resident_ratio": stats_reply["plane_resident"] / max(1, stats_reply["sessions"]),
        "fleet.state.shards_written": statistics.mean(c["shards_written"] for c in checkpoints)
        if checkpoints else 0.0,
    }
    for error_type, n in errors.items():
        key = error_type if error_type in ("KeyError", "ValueError", "TypeError") else "other"
        layers[f"fleet.service.errors.{key}"] = layers.get(f"fleet.service.errors.{key}", 0) + n
    # Feeds from the closed loop; churn and checkpoints from connection B,
    # where nothing of the client's queues ahead of them.
    timed = [r for r in gateway + device_ops if r.rid in replies]
    rtt = defaultdict(list)
    for r in timed:
        rtt[r.op].append((r.t_recv - r.t_send) * 1e3)
    for op, values in rtt.items():
        layers[f"client.rtt_ms.{op}.p50"] = quantile(values, 0.5)
        layers[f"client.rtt_ms.{op}.p99"] = quantile(values, 0.99)
    if tracer.enabled:
        wall = sum(setups) + gateway_s + device_s
        layers.update(_server_layers(outs, timed, wall))
        for n, o in enumerate(outs):
            tracer.extra.append({"process": f"server-{n}", "spans": o["spans"]})
        tracer.extra.append({
            "process": "client",
            "requests": [[r.rid, r.op, r.due, r.t_send, r.t_recv, r.failed] for r in everything],
        })

    correct = bad_shape == 0 and replay_mismatches == 0
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "e2e": e2e,
        "layers": layers,
        "info": {
            "sessions": sessions,
            "setups": SETUPS,
            "gateway_requests": len(gateway),
            "device_requests": len(device),
            "device_offered_feeds_per_s": DEVICE_FEEDS_PER_S,
            "device_seconds": DEVICE_SHARE * seconds,
            "churn_ops": sum(r.op == "close" for r in device_ops),
            "checkpoints": sum(r.op == "checkpoint" for r in device_ops),
            "replayed_requests": REPLAY_SLICE,
            "connections": 2,
        },
        "digest": digest.hexdigest()[:16],
    }


def _open_loop(a, b, feeds, ops):
    """Send each request when due, whatever is outstanding; read replies."""
    start = perf()
    for request in feeds + ops:
        request.due = start + request.due
    deadline = start + max(r.due for r in feeds + ops) + WAIT_S
    i = j = 0
    while i < len(feeds) or j < len(ops) or a.pending or b.pending:
        now = perf()
        while i < len(feeds) and feeds[i].due <= now:
            a.send(feeds[i])
            i += 1
        while j < len(ops) and ops[j].due <= now:
            b.send(ops[j])
            j += 1
        upcoming = min(
            feeds[i].due if i < len(feeds) else math.inf,
            ops[j].due if j < len(ops) else math.inf,
        )
        timeout = 0.05 if upcoming == math.inf else max(0.0, upcoming - perf())
        _pump([a, b], timeout)
        if perf() > deadline:
            raise RuntimeError("the server stopped answering")
    return perf() - start


def _replay(seed, opens, head, replies):
    """Replay the opens and the leading gateway requests through an
    in-process, plane-disabled ``PolicyService``; count differing replies."""
    context = serve_context(seed)
    spec = serve_policy()
    service = PolicyService(
        spec,
        profiles={p.user_id: p for p in context.population},
        predictor=context.predictor if manager_requires_predictor(spec) else None,
        use_plane=False,
    )
    mismatches = 0
    for request in opens + head:
        if request.rid not in replies:
            continue  # dropped unread by the server, so never handled there
        reply = service.handle(json.loads(request.data))
        key = "decisions" if request.op == "feed_batch" else "decision"
        if request.op in ("feed", "feed_batch"):
            mismatches += json.dumps(reply.get(key), sort_keys=True) != json.dumps(
                replies[request.rid].get(key), sort_keys=True
            )
        else:
            mismatches += not reply.get("ok")
    return mismatches


def _server_layers(outs, timed, wall):
    """Per-op handle/wire figures and self times from the servers' spans.

    Spans without a request id after start-up (the final ``stats``,
    ``shutdown`` and shutdown checkpoint) fall outside the client's timed
    phases and are left out.
    """
    layers = {}
    handle_by_rid = {}  # the phase server's: every set-up reuses the open rids
    handle = defaultdict(list)
    durations = defaultdict(list)
    self_s = defaultdict(float)
    saves = Counter()
    for out in outs:
        spans = out["spans"]
        saves.update(out["counts"])
        child = defaultdict(float)
        for name, start, end, parent, rid in spans:
            if parent is not None:
                child[parent] += end - start
        for index, (name, start, end, parent, rid) in enumerate(spans):
            if rid is None and not name.startswith("core.pipeline."):
                continue
            duration = end - start
            own = duration - child[index]
            if name.startswith("fleet.service.handle."):
                op = name.rsplit(".", 1)[1]
                handle[op].append(duration * 1e3)
                handle_by_rid[rid] = duration
                self_s["fleet.service.handle_s"] += own
            else:
                durations[name].append(duration * 1e3)
                self_s[f"{name}_s"] += own
    for op, values in handle.items():
        layers[f"fleet.service.handle_ms.{op}.p50"] = quantile(values, 0.5)
        layers[f"fleet.service.handle_ms.{op}.p99"] = quantile(values, 0.99)
    wire = defaultdict(list)
    for r in timed:
        if r.rid in handle_by_rid:
            wire[r.op].append((r.t_recv - r.t_send - handle_by_rid[r.rid]) * 1e3)
    for op, values in wire.items():
        layers[f"wire_ms.{op}.p50"] = quantile(values, 0.5)
        layers[f"wire_ms.{op}.p99"] = quantile(values, 0.99)
    for name, label in (("api.session.feed_many", "api.session.feed_many_ms"),):
        if durations[name]:
            layers[f"{label}.p50"] = quantile(durations[name], 0.5)
            layers[f"{label}.p99"] = quantile(durations[name], 0.99)
    for name in ("fleet.state.save", "fleet.state.restore"):
        if durations[name]:
            layers[f"{name}_ms.p50"] = quantile(durations[name], 0.5)
            layers[f"{name}_ms.max"] = max(durations[name])
    if saves["shards"]:
        layers["fleet.state.dirty_ratio"] = saves["dirty_shards"] / saves["shards"]
    layers.update(self_s)
    layers["trace.wall_s"] = wall
    layers["trace.other_s"] = wall - sum(self_s.values())
    return layers
