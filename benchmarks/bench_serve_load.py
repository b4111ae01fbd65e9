"""Sustained-load benchmark of the persistent serving front end + fleet sweeps.

Not a paper figure: this measures what the "millions of users" story costs —
the p50/p99 feed latency of :class:`repro.fleet.service.PolicyService` under
sustained load at 100k+ concurrent sessions (the dispatcher itself, no
socket), the end-to-end request RTT through the asyncio socket server, and
how a fleet sweep's wall time scales with worker count.

Run directly::

    python benchmarks/bench_serve_load.py            # rewrites BENCH_serve_load.json
    python benchmarks/bench_serve_load.py --smoke    # CI gate, reduced sizes

The ``--smoke`` mode (wired into ``make check``) runs a reduced session
count and also cross-checks that 1-worker and 2-worker fleet sweeps of the
same plan produce byte-identical merged stores.
"""

import argparse
import gc
import json
import os
import shutil
import socket
import statistics
import sys
import tempfile
import threading
import time

if __name__ == "__main__":  # allow running as a script without PYTHONPATH
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.api.specs import AdapterSpec, ManagerSpec, PolicySpec, PredictorSpec
from repro.fleet import FleetCoordinator, PolicyService, run_service, stores_byte_identical
from repro.fleet.smoke import SMOKE_RECIPE, build_smoke_plan
from repro.runtime.artifacts import ARTIFACT_ENV_VAR
from repro.users import paper_population

BASELINE = os.path.join(os.path.dirname(__file__), "BENCH_serve_load.json")

SESSIONS = 100_000
ROUNDS = 3
CHUNK = 1_000  # sessions per feed_batch request (one batched predictor call)
SOCKET_REQUESTS = 2_000
FLEET_WORKERS = (1, 2, 4)


def _policy() -> PolicySpec:
    return PolicySpec(
        manager=ManagerSpec("usta", predictor=PredictorSpec("trained", params=SMOKE_RECIPE)),
        adapter=AdapterSpec("quantile_tracker"),
    )


def _service(use_plane: bool = True, decision_log=None) -> PolicyService:
    return PolicyService(
        _policy(),
        profiles={p.user_id: p for p in paper_population()},
        use_plane=use_plane,
        decision_log=decision_log,
    )


def _sample(time_s: float, i: int) -> dict:
    return {
        "time_s": time_s,
        "utilization": 0.5 + 0.4 * ((i % 7) / 6.0),
        "frequency_khz": 1_728_000.0,
        "sensors": {"cpu": 40.0 + (i % 11) * 0.5, "battery": 32.0 + (i % 5) * 0.2},
    }


def _quantiles(values, scale=1.0):
    ordered = sorted(values)
    return {
        "p50": scale * statistics.median(ordered),
        "p99": scale * ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))],
        "max": scale * ordered[-1],
    }


def serve_load(
    sessions: int, rounds: int, chunk: int, use_plane: bool = True, decision_log=None
) -> dict:
    """Open ``sessions`` concurrent sessions and feed them ``rounds`` ticks.

    Each request is one ``feed_batch`` of ``chunk`` sessions through
    ``PolicyService.handle`` (wire-dict parsing included, no socket), so the
    request latencies are what a front end would see per batched call;
    ``amortized_feed_us`` is that divided across the request's actual batch
    size.  ``feed_latency_us`` is measured for real: individually timed
    single-session ``feed`` ops (what one device's unbatched request costs),
    not a rescaled copy of the request quantiles.  With ``decision_log``
    (a path) every decision is also logged, as ``repro serve --listen``
    does.
    """
    service = _service(use_plane=use_plane, decision_log=decision_log)
    users = sorted(service.profiles)
    start = time.perf_counter()
    session_ids = []
    for i in range(sessions):
        sid = f"s{i:06d}"
        response = service.handle({"op": "open", "session": sid, "user": users[i % len(users)]})
        assert response["ok"], response
        session_ids.append(sid)
    open_elapsed = time.perf_counter() - start

    # Production GC hygiene for a resident fleet: the session population is a
    # permanent object graph, and without freeze() every full collection
    # re-scans it — ~0.5s pauses that land squarely in the request tail at
    # 100k sessions.  Applied identically to the plane and scalar runs.
    gc.collect()
    gc.freeze()
    try:
        request_s = []
        batch_sizes = []
        feeds = 0
        start = time.perf_counter()
        for tick in range(rounds):
            for lo in range(0, sessions, chunk):
                ids = session_ids[lo : lo + chunk]
                request = {
                    "op": "feed_batch",
                    "samples": {sid: _sample(float(tick), lo + k) for k, sid in enumerate(ids)},
                }
                # A sprinkle of feedback keeps the adapter path on, like real users.
                if lo == 0:
                    request["feedback"] = {
                        ids[0]: [{"time_s": float(tick), "kind": "discomfort", "skin_temp_c": 35.0}]
                    }
                t0 = time.perf_counter()
                response = service.handle(request)
                request_s.append(time.perf_counter() - t0)
                assert response["ok"], response
                batch_sizes.append(len(ids))
                feeds += len(ids)
        feed_elapsed = time.perf_counter() - start

        # Real per-feed latency: time single-session feed ops one by one,
        # over a sample of sessions spread across the pool, at a fresh tick.
        probe_ids = session_ids[:: max(1, sessions // 1_000)][:1_000]
        single_s = []
        for k, sid in enumerate(probe_ids):
            request = {"op": "feed", "session": sid, "sample": _sample(float(rounds), k)}
            t0 = time.perf_counter()
            response = service.handle(request)
            single_s.append(time.perf_counter() - t0)
            assert response["ok"], response
    finally:
        gc.unfreeze()
        service.shutdown()

    return {
        "sessions": sessions,
        "rounds": rounds,
        "chunk": chunk,
        "plane": use_plane,
        "plane_resident": service.pool.plane_resident_count,
        "open_seconds": open_elapsed,
        "opens_per_s": sessions / open_elapsed,
        "feeds": feeds,
        "feeds_per_s": feeds / feed_elapsed,
        "request_ms": _quantiles(request_s, scale=1e3),
        "amortized_feed_us": _quantiles(
            [r / size for r, size in zip(request_s, batch_sizes)], scale=1e6
        ),
        "feed_latency_us": _quantiles(single_s, scale=1e6),
    }


def _parity_requests(sessions: int, rounds: int, chunk: int, users) -> list:
    """One deterministic request script exercising the parity-sensitive paths:
    batched feeds, skin-channel samples (arming the simulated-feedback gate),
    external feedback events, and single feeds on due and non-due ticks."""
    sids = [f"p{i:05d}" for i in range(sessions)]
    requests = [
        {"op": "open", "session": sid, "user": users[i % len(users)]}
        for i, sid in enumerate(sids)
    ]
    for tick in range(rounds):
        t = tick * 7.0
        for lo in range(0, sessions, chunk):
            ids = sids[lo : lo + chunk]
            samples = {}
            for k, sid in enumerate(ids):
                sample = _sample(t, lo + k)
                if (lo + k) % 3 == 0:
                    # A felt skin channel lets the user-feedback model fire.
                    sample["sensors"]["skin"] = 33.0 + (tick % 4) * 0.7
                samples[sid] = sample
            request = {"op": "feed_batch", "samples": samples}
            if lo == 0 and len(ids) > 2:
                request["feedback"] = {
                    ids[1]: [
                        {"time_s": t, "kind": "discomfort", "skin_temp_c": 35.5}
                    ],
                    ids[2]: [
                        {"time_s": t, "kind": "discomfort", "skin_temp_c": 34.2}
                    ],
                }
            requests.append(request)
        # Single feeds between batch ticks: one non-due (prediction held)
        # and one that will be due at the next tick boundary.
        requests.append({"op": "feed", "session": sids[0], "sample": _sample(t + 0.5, tick)})
        requests.append(
            {"op": "feedback", "session": sids[0],
             "event": {"time_s": t + 0.5, "kind": "discomfort", "skin_temp_c": 35.0}}
        )
    return requests


def paired_plane_speedup(pairs: int, sessions: int, rounds: int, chunk: int) -> dict:
    """Plane-over-scalar feed throughput, timed in ``pairs`` back-to-back
    pairs that alternate which arm runs first.

    ``speedup`` is the median per-pair ratio, so host drift and order
    effects fall on both arms alike; ``plane`` is the plane run of the
    median pair.
    """
    arms = ([], [])  # (plane, scalar) serve_load results, one entry per pair
    for index in range(pairs):
        for arm in ((0, 1) if index % 2 == 0 else (1, 0)):
            arms[arm].append(serve_load(sessions, rounds, chunk, use_plane=arm == 0))
    ratios = [p["feeds_per_s"] / s["feeds_per_s"] for p, s in zip(*arms)]
    middle = sorted(range(pairs), key=ratios.__getitem__)[pairs // 2]
    return {
        "pairs": pairs,
        "speedup": statistics.median(ratios),
        "plane": arms[0][middle],
    }


def parity_check(sessions: int = 200, rounds: int = 4, chunk: int = 50) -> int:
    """Drive identical request scripts through a plane and a scalar service;
    any response byte that differs is a parity bug.  Returns requests checked."""
    plane = _service(use_plane=True)
    scalar = _service(use_plane=False)
    users = sorted(plane.profiles)
    requests = _parity_requests(sessions, rounds, chunk, users)
    for index, request in enumerate(requests):
        a = json.dumps(plane.handle(request), sort_keys=True)
        b = json.dumps(scalar.handle(request), sort_keys=True)
        assert a == b, (
            f"plane/scalar parity broke at request {index} "
            f"(op {request.get('op')!r}):\n plane: {a[:400]}\nscalar: {b[:400]}"
        )
    assert plane.pool.plane_resident_count == sessions, "plane never engaged"
    return len(requests)


def socket_rtt(requests: int, sessions: int) -> dict:
    """End-to-end single-feed RTT through the asyncio socket server."""
    service = _service()
    users = sorted(service.profiles)
    bound = {}
    ready = threading.Event()

    def _on_listening(host, port):
        bound["addr"] = (host, port)
        ready.set()

    thread = threading.Thread(
        target=run_service,
        args=(service, "127.0.0.1", 0),
        kwargs={"checkpoint_period_s": None, "on_listening": _on_listening},
        daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=30), "server never bound"
    conn = socket.create_connection(bound["addr"])
    fh = conn.makefile("rwb")

    def rpc(request):
        fh.write(json.dumps(request, separators=(",", ":")).encode() + b"\n")
        fh.flush()
        return json.loads(fh.readline())

    session_ids = []
    for i in range(sessions):
        sid = f"r{i:05d}"
        assert rpc({"op": "open", "session": sid, "user": users[i % len(users)]})["ok"]
        session_ids.append(sid)

    rtt_s = []
    for i in range(requests):
        sid = session_ids[i % len(session_ids)]
        t0 = time.perf_counter()
        response = rpc({"op": "feed", "session": sid, "sample": _sample(float(i), i)})
        rtt_s.append(time.perf_counter() - t0)
        assert response["ok"], response
    rpc({"op": "shutdown"})
    conn.close()
    thread.join(timeout=30)
    return {
        "requests": requests,
        "sessions": sessions,
        "rtt_ms": _quantiles(rtt_s, scale=1e3),
        "requests_per_s": requests / sum(rtt_s),
    }


def fleet_scaling(workers_list, repeat: int, duration_s: float, scratch: str) -> dict:
    """Wall time of the same fleet sweep at increasing worker counts."""
    plan = build_smoke_plan(repeat=repeat, duration_s=duration_s)
    results = {}
    directories = {}
    for workers in workers_list:
        directory = os.path.join(scratch, f"fleet-w{workers}")
        report = FleetCoordinator(plan, directory, workers=workers).run()
        results[str(workers)] = {
            "seconds": report.elapsed_s,
            "units": report.n_units,
            "cells": report.n_cells,
        }
        directories[workers] = directory
    base = results[str(workers_list[0])]["seconds"]
    for workers in workers_list:
        results[str(workers)]["speedup_vs_1"] = base / results[str(workers)]["seconds"]
    first = directories[workers_list[0]]
    for workers in workers_list[1:]:
        diff = stores_byte_identical(first, directories[workers])
        assert diff is None, f"merged stores diverge between worker counts: {diff}"
    return results


def run_full() -> int:
    scratch = tempfile.mkdtemp(prefix="bench-serve-load-")
    os.environ[ARTIFACT_ENV_VAR] = os.path.join(scratch, "artifacts")
    try:
        checked = parity_check()
        plane_load = serve_load(SESSIONS, ROUNDS, CHUNK, use_plane=True)
        scalar_load = serve_load(SESSIONS, ROUNDS, CHUNK, use_plane=False)
        payload = {
            "config": {
                "sessions": SESSIONS,
                "rounds": ROUNDS,
                "chunk": CHUNK,
                "policy": "usta+quantile_tracker (trained linear recipe)",
                # Fleet speedup is bounded by the host: on a 1-core machine
                # the workers time-slice and the scaling section measures
                # pure coordination overhead instead.
                "cpu_count": os.cpu_count(),
            },
            "serve_load": plane_load,
            "serve_load_scalar": scalar_load,
            "plane_speedup": plane_load["feeds_per_s"] / scalar_load["feeds_per_s"],
            "parity": {"requests_checked": checked, "ok": True},
            "socket_rtt": socket_rtt(SOCKET_REQUESTS, sessions=2_000),
            "fleet_scaling": fleet_scaling(
                FLEET_WORKERS, repeat=12, duration_s=1200.0, scratch=scratch
            ),
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(BASELINE, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(json.dumps(payload, indent=2))
    print(f"wrote {BASELINE}")
    return 0


def run_smoke() -> int:
    scratch = tempfile.mkdtemp(prefix="bench-serve-smoke-")
    os.environ[ARTIFACT_ENV_VAR] = os.path.join(scratch, "artifacts")
    try:
        checked = parity_check()
        paired = paired_plane_speedup(pairs=7, sessions=2_000, rounds=3, chunk=500)
        load, speedup = paired["plane"], paired["speedup"]
        # Reported, not gated: what the decision log costs the plane arm.
        logged = serve_load(
            sessions=2_000, rounds=3, chunk=500, decision_log=os.path.join(scratch, "log.jsonl")
        )
        rtt = socket_rtt(requests=200, sessions=100)
        scaling = fleet_scaling((1, 2), repeat=1, duration_s=20.0, scratch=scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(
        f"serve-load smoke: {load['feeds_per_s']:,.0f} feeds/s over "
        f"{load['sessions']} sessions (plane, {speedup:.2f}x vs scalar, median of "
        f"{paired['pairs']} pairs; {logged['feeds_per_s']:,.0f} feeds/s with the "
        f"decision log; p99 single feed {load['feed_latency_us']['p99']:.1f}us), "
        f"plane/scalar parity ok over {checked} requests, "
        f"socket RTT p99 {rtt['rtt_ms']['p99']:.2f}ms, "
        f"fleet 2-worker parity ok"
    )
    failures = []
    # Generous gates: they catch order-of-magnitude regressions (an
    # accidental per-feed retrain, a per-request predictor rebuild), not
    # machine noise.
    if load["feeds_per_s"] < 2_000:
        failures.append(f"feed throughput collapsed: {load['feeds_per_s']:,.0f} feeds/s")
    if speedup < 1.5:
        failures.append(
            f"resident plane only {speedup:.2f}x over scalar "
            f"(median of {paired['pairs']} pairs; floor 1.5x)"
        )
    if load["feed_latency_us"]["p99"] > 50_000:
        failures.append(f"p99 feed latency {load['feed_latency_us']['p99']:.0f}us")
    if rtt["rtt_ms"]["p99"] > 1_000:
        failures.append(f"socket RTT p99 {rtt['rtt_ms']['p99']:.0f}ms")
    if str(2) in scaling and scaling["2"]["cells"] != scaling["1"]["cells"]:
        failures.append("worker counts executed different cell sets")
    for failure in failures:
        print(f"serve-load smoke: FAIL - {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="reduced CI gate")
    args = parser.parse_args()
    sys.exit(run_smoke() if args.smoke else run_full())
