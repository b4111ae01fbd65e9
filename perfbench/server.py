"""Server launcher for the ``serve_socket`` workload.

Builds the serving stack the way ``repro serve --listen --adapter
quantile_tracker --model linear_regression`` does (see ``_listen_serve`` in
``repro.cli``): a reproduction context, a
``PolicyService`` over a ``SessionStateStore`` and a decision log, served by
``run_service`` on a free loopback port.  The only difference is that the
periodic checkpoint timer is off: the benchmark's client sends ``checkpoint``
ops at fixed points of its request schedule instead.

With ``--trace 1`` the service's ``handle``, the pool's ``feed_many`` and the
state store's ``save``/``restore`` are replaced on the instances by
delegating wrappers that record one span per call.  After a graceful
shutdown the launcher writes its spans, final stats and peak RSS to
``--out``.

Run from the repository root::

    python3 perfbench/server.py --seed 1 --state-dir D --stream-to D --out out.json
"""

import argparse
import ctypes
import json
import os
import signal
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _vm_hwm_mib() -> float:
    """This process's peak RSS.  ``getrusage`` would also count the client's
    RSS, which Linux carries into ``ru_maxrss`` across the fork and exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _instrument(service, spans, counts):
    """Delegating wrappers on the service, its pool and its state store."""
    perf = time.perf_counter
    current = []

    def record(name, start, end, rid):
        parent = current[-1][0] if current else None
        spans.append([name, start, end, parent, rid])
        return len(spans) - 1

    def wrap(owner, attribute, name):
        inner = getattr(owner, attribute)

        def wrapper(*args, **kwargs):
            rid = current[-1][1] if current else None
            start = perf()
            index = record(name, start, None, rid)
            current.append((index, rid))
            try:
                return inner(*args, **kwargs)
            finally:
                current.pop()
                spans[index][2] = perf()

        setattr(owner, attribute, wrapper)

    handle = service.handle

    def traced_handle(request):
        rid = request.get("rid")
        start = perf()
        index = record(f"fleet.service.handle.{request.get('op')}", start, None, rid)
        current.append((index, rid))
        try:
            return handle(request)
        finally:
            current.pop()
            spans[index][2] = perf()

    service.handle = traced_handle
    wrap(service.pool, "feed_many", "api.session.feed_many")
    store = service.state_store
    wrap(store, "save", "fleet.state.save")
    wrap(store, "restore", "fleet.state.restore")
    traced_save = store.save

    def counting_save():
        counts["dirty_shards"] += store.dirty_shard_count
        counts["shards"] += store.n_shards
        return traced_save()

    store.save = counting_save


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--state-dir", required=True)
    parser.add_argument("--stream-to", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Die with the benchmark client: PR_SET_PDEATHSIG(SIGTERM) stops this
    # server gracefully if the client exits without shutting it down.
    ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGTERM)

    sys.path.insert(0, str(ROOT / "src"))
    import repro.analysis.context as context_module
    from repro.api.serve import manager_requires_predictor
    from repro.fleet import PolicyService, SessionStateStore, run_service
    from serve import serve_context, serve_policy

    spans = []
    counts = Counter()
    if args.trace:
        for attribute, name in (
            ("collect_training_data", "core.pipeline.collect"),
            ("train_runtime_predictor", "core.pipeline.train"),
        ):
            inner = getattr(context_module, attribute)

            def timed(*a, _inner=inner, _name=name, **k):
                start = time.perf_counter()
                try:
                    return _inner(*a, **k)
                finally:
                    spans.append([_name, start, time.perf_counter(), None, None])

            setattr(context_module, attribute, timed)

    context = serve_context(args.seed)
    spec = serve_policy()
    predictor = context.predictor if manager_requires_predictor(spec) else None
    service = PolicyService(
        spec,
        profiles={p.user_id: p for p in context.population},
        predictor=predictor,
        state_store=SessionStateStore(args.state_dir),
        decision_log=Path(args.stream_to) / "serve-decisions.jsonl",
    )
    if args.trace:
        _instrument(service, spans, counts)
    stats = run_service(service, "127.0.0.1", 0, checkpoint_period_s=None)
    payload = {
        "stats": stats,
        "peak_rss_mib": _vm_hwm_mib(),
        "spans": spans,
        "counts": dict(counts),
        "pid": os.getpid(),
    }
    tmp = args.out + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
