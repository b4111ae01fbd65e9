"""``repro serve`` — drive a population of online policy sessions.

This is the demonstration workload for the session API: replay one
benchmark's telemetry (as a device fleet would stream it back) into thousands
of concurrent per-user :class:`~repro.api.session.PolicySession` instances
through a :class:`~repro.api.session.SessionPool`, with predictions batched
across sessions.  It reports throughput (feeds/s), prediction batching
efficiency and how often each user's policy had a cap installed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from ..device.platform import DevicePlatform
from ..governors import create_governor
from ..sim.engine import Simulator
from ..workloads.benchmarks import build_benchmark
from ..workloads.trace import WorkloadTrace
from .registry import MANAGERS, UnknownComponentError
from .session import SessionPool
from .specs import ManagerSpec, PolicySpec
from .types import TelemetrySample

__all__ = [
    "ServeReport",
    "build_serve_pool",
    "describe_serve_plane",
    "per_user_capped_fractions",
    "replay_telemetry",
    "run_serve",
]


def replay_telemetry(
    trace: WorkloadTrace, seed: int = 0, governor: str = "ondemand"
) -> List[TelemetrySample]:
    """Simulate one baseline run of a trace and return its telemetry stream.

    This stands in for the on-device logging daemon: the samples carry exactly
    the signals a userspace policy sees (sensor channels, utilization, the
    frequency the window ran at).
    """
    platform = DevicePlatform(seed=seed)
    simulator = Simulator(
        platform=platform,
        governor=create_governor(governor, table=platform.freq_table),
    )
    result = simulator.run(trace)
    return [TelemetrySample.from_step_record(record) for record in result.records]


@dataclass
class ServeReport:
    """What one serve run did, for the CLI to render."""

    benchmark: str
    n_sessions: int
    n_steps: int
    feed_count: int
    prediction_count: int
    batch_count: int
    average_batch_size: float
    capped_sessions: int
    elapsed_s: float
    policy_label: str
    per_user_capped_fraction: Dict[str, float]
    #: Path of the session decision log, when the run drained one.
    decision_log: Optional[str] = None
    #: Sessions resident on the columnar plane (0 when disabled/ineligible).
    plane_resident: int = 0
    #: Vectorized plane ticks executed across the run.
    plane_ticks: int = 0

    @property
    def feeds_per_second(self) -> float:
        """Session-feeds per wall-clock second."""
        if self.elapsed_s <= 0:
            return float("inf")
        return self.feed_count / self.elapsed_s

    def render(self) -> str:
        """Human-readable summary table."""
        lines = [
            f"policy: {self.policy_label}",
            f"{self.n_sessions} sessions x {self.n_steps} telemetry steps "
            f"in {self.elapsed_s:.2f}s ({self.feeds_per_second:,.0f} feeds/s)",
            f"predictions: {self.prediction_count} ({self.batch_count} plane batches, "
            f"avg batch {self.average_batch_size:.1f} sessions)",
            f"plane: {self.plane_resident}/{self.n_sessions} sessions resident "
            f"({self.plane_ticks} vectorized ticks)",
            f"sessions ever capped: {self.capped_sessions}/{self.n_sessions}",
        ]
        if self.decision_log is not None:
            lines.append(f"decision log: {self.decision_log}")
        if self.per_user_capped_fraction:
            lines.append(f"{'user':>6} {'% feeds capped':>15}")
            for user_id, fraction in sorted(self.per_user_capped_fraction.items()):
                lines.append(f"{user_id:>6} {100.0 * fraction:>15.1f}")
        return "\n".join(lines)


def manager_requires_predictor(spec: PolicySpec) -> bool:
    """Whether a policy's manager needs a predictor injected at build time.

    A spec that declares its own predictor recipe resolves it itself, and a
    registered manager may opt out entirely via a ``requires_predictor =
    False`` class attribute (the trip-point throttler reads the sensor
    directly) — forcing the context predictor on those would train a model
    nobody consults.
    """
    if spec.manager is None or spec.manager.predictor is not None:
        return False
    try:
        factory = MANAGERS.get(spec.manager.name)
    except UnknownComponentError:
        return True  # let the session build fail with the full spec error
    return getattr(factory, "requires_predictor", True)


def per_user_capped_fractions(pool: SessionPool, session_users) -> Dict[str, float]:
    """Fraction of each user's *feeds* (not sessions) that held a cap.

    Aggregates raw per-session cap/feed counts so sessions with different
    feed counts weigh in proportionally — averaging per-session fractions
    with equal weight mis-reports any user whose sessions consumed unequal
    telemetry.
    """
    feeds: Dict[str, int] = {}
    caps: Dict[str, int] = {}
    for session in pool:
        user_id = session_users[session.session_id]
        feeds[user_id] = feeds.get(user_id, 0) + session.feed_count
        caps[user_id] = caps.get(user_id, 0) + session.cap_count
    return {
        user_id: (caps[user_id] / count if count else 0.0)
        for user_id, count in feeds.items()
    }


def build_serve_pool(
    context,
    sessions: int = 1000,
    policy: Optional[PolicySpec] = None,
):
    """The session population :func:`run_serve` drives, before any telemetry.

    Returns ``(pool, session_users, spec)``.  Shared with the
    ``serve --explain-plane`` dry run so eligibility is reported against the
    exact pool the real run would build.
    """
    if sessions < 1:
        raise ValueError("sessions must be at least 1")
    spec = policy if policy is not None else PolicySpec(manager=ManagerSpec("usta"))

    # The context predictor is only the fallback; a policy that declares its
    # own predictor recipe keeps it (the recipe builder caches, so the first
    # session pays the training cost and the rest share the artifact), and a
    # predictor-less manager (trip-point) gets none at all.
    fallback_predictor = None
    if manager_requires_predictor(spec):
        fallback_predictor = context.predictor

    pool = SessionPool()
    profiles = list(context.population)
    session_users: Dict[str, str] = {}
    for index in range(sessions):
        profile = profiles[index % len(profiles)]
        session_id = f"{profile.user_id}-{index:05d}"
        pool.open(session_id, spec, user_profile=profile, predictor=fallback_predictor)
        session_users[session_id] = profile.user_id
    return pool, session_users, spec


def describe_serve_plane(
    context,
    sessions: int = 1000,
    policy: Optional[PolicySpec] = None,
) -> str:
    """Human-readable plane residency report (``serve --explain-plane``).

    Mirrors ``sweep --explain-batching``: a summary of how many sessions ride
    the resident columnar plane, then one line per scalar-fallback session
    with the reason — silent fallbacks are the usual cause of a serving
    throughput regression.
    """
    pool, _, spec = build_serve_pool(context, sessions=sessions, policy=policy)
    report = pool.describe_plane()
    label = spec.label or (
        f"{spec.manager.name}+{spec.governor.name}" if spec.manager else spec.governor.name
    )
    lines = [
        f"policy: {label}",
        f"session plane: {report['resident_count']} of "
        f"{report['session_count']} session(s) resident on the columnar "
        f"fast path, {report['fallback_count']} scalar",
    ]
    fallbacks = [s for s in report["sessions"] if not s["resident"]]
    if fallbacks:
        lines.append(
            "  scalar fallback (session still serves; its policy runs "
            "per session):"
        )
        for entry in fallbacks:
            lines.append(f"    {entry['session_id']}  — {entry['fallback_reason']}")
    return "\n".join(lines)


def run_serve(
    context,
    benchmark: str = "skype",
    duration_s: Optional[float] = None,
    sessions: int = 1000,
    policy: Optional[PolicySpec] = None,
    seed: Optional[int] = None,
    decision_log=None,
    telemetry: Optional[List[TelemetrySample]] = None,
) -> ServeReport:
    """Stream replayed telemetry through a per-user session population.

    Args:
        context: a :class:`~repro.analysis.context.ReproductionContext` (or
            anything with ``predictor``, ``population`` and ``seed``).
        benchmark: benchmark whose telemetry is replayed (ignored when
            ``telemetry`` is supplied; it remains the report label).
        duration_s: optional benchmark duration override.
        sessions: number of concurrent sessions (users are cycled from the
            ten-participant study population).
        policy: policy served to every session (per-user comfort limits are
            applied on top); defaults to user-specific USTA over ondemand.
        seed: workload/platform seed (the context's seed by default).
        decision_log: optional JSONL path the per-step cap decisions drain
            to as the run progresses (the ``serve --stream-to`` sink): one
            line per telemetry step listing the sessions holding an active
            cap, so a fleet-scale run leaves an audit trail instead of an
            in-memory log.  A fresh run truncates the file (a re-run must
            not interleave duplicate ``time_s`` lines into an old audit
            trail) and every line is flushed as it is written, so a crash
            loses nothing — the same guarantee the socket server's SIGTERM
            path makes.
        telemetry: an explicit sample stream to serve instead of simulating
            ``benchmark`` — recorded device traces
            (:func:`repro.telemetry.replay.load_hal_telemetry`) enter here.
    """
    if sessions < 1:
        raise ValueError("sessions must be at least 1")
    seed = context.seed if seed is None else seed

    if telemetry is None:
        trace = build_benchmark(benchmark, seed=seed, duration_s=duration_s)
        telemetry = replay_telemetry(trace, seed=seed)
    elif not telemetry:
        raise ValueError("an explicit telemetry stream must not be empty")

    pool, session_users, spec = build_serve_pool(context, sessions=sessions, policy=policy)

    log_fh = None
    log_path: Optional[str] = None
    if decision_log is not None:
        path = Path(decision_log)
        path.parent.mkdir(parents=True, exist_ok=True)
        # "w", not "a": a fresh run owns its audit trail.  Appending here
        # used to interleave a re-run's lines into the previous run's log,
        # leaving duplicate time_s entries no reader could tell apart.
        log_fh = open(path, "w", encoding="utf-8")
        log_path = str(path)

    start = time.perf_counter()
    ever_capped = set()
    try:
        for sample in telemetry:
            decisions = pool.feed_all(sample)
            capped_now = []
            for session_id, decision in decisions.items():
                if decision.active:
                    ever_capped.add(session_id)
                    capped_now.append((session_id, decision.level_cap))
            if log_fh is not None:
                log_fh.write(
                    json.dumps(
                        {
                            "time_s": sample.time_s,
                            "active": len(capped_now),
                            "caps": sorted(capped_now),
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
                # Per-line flush: a crashed run keeps its tail, like the
                # socket server's graceful-shutdown path guarantees.
                log_fh.flush()
    finally:
        if log_fh is not None:
            log_fh.close()
    elapsed = time.perf_counter() - start

    per_user_capped_fraction = per_user_capped_fractions(pool, session_users)

    label = spec.label or (
        f"{spec.manager.name}+{spec.governor.name}" if spec.manager else spec.governor.name
    )
    return ServeReport(
        benchmark=benchmark,
        n_sessions=sessions,
        n_steps=len(telemetry),
        feed_count=pool.feed_count,
        prediction_count=pool.prediction_count,
        batch_count=pool.batch_count,
        average_batch_size=pool.average_batch_size,
        capped_sessions=len(ever_capped),
        elapsed_s=elapsed,
        policy_label=label,
        per_user_capped_fraction=per_user_capped_fraction,
        decision_log=log_path,
        plane_resident=pool.plane_resident_count,
        plane_ticks=pool.plane_tick_count,
    )
