"""Analysis of the comfort-limit adaptation loop.

Two reports:

* **Convergence** (:func:`adaptation_trajectories`): drive each study
  participant's satisfaction-driven feedback through an adapter on a synthetic
  temperature probe that sweeps back and forth across the population's whole
  comfort range, and record the limit trajectory.  This answers the paper's
  implicit question — *does the feedback loop actually find the user's
  limit?* — independently of any one workload's thermal trajectory.  The
  probe is open-loop (it ignores the cap), which is the right test for
  threshold *trackers*; step controllers like ``feedback_step`` regulate in
  closed loop and are expected to ride their clamp here instead.
* **Frontier** (:func:`comfort_performance_frontier`): for each user, compare
  schemes (static default limit, oracle per-user limit, each adaptation
  strategy starting from the mis-specified default) on one benchmark and
  report discomfort-minutes (time the *true* skin temperature spent above the
  user's *true* limit) against throughput loss.  Adaptation is worth shipping
  exactly when its points sit near the oracle's corner of that trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..api.specs import AdapterSpec, ManagerSpec, PolicySpec
from ..users.adaptation import WARM_START_TEMPS, UserFeedbackModel
from ..users.population import ThermalComfortProfile, UserPopulation, paper_population
from .report import format_table

__all__ = [
    "AdaptationTrajectory",
    "FrontierPoint",
    "WARM_START_TEMPS",
    "limit_probe_temperatures",
    "adaptation_trajectories",
    "comfort_performance_frontier",
    "render_adaptation",
    "render_frontier",
]


@dataclass(frozen=True)
class AdaptationTrajectory:
    """One user's limit trajectory under one adaptation strategy."""

    user_id: str
    adapter: str
    true_limit_c: float
    initial_limit_c: float
    final_limit_c: float
    n_events: int
    times_s: Tuple[float, ...]
    limits_c: Tuple[float, ...]

    @property
    def final_error_c(self) -> float:
        """Absolute distance of the converged limit from the user's true limit."""
        return abs(self.final_limit_c - self.true_limit_c)


def limit_probe_temperatures(
    min_c: float = 31.0,
    max_c: float = 45.0,
    period_s: float = 900.0,
    duration_s: float = 5400.0,
    dt_s: float = 1.0,
) -> np.ndarray:
    """A triangle-wave felt-temperature probe crossing every plausible limit.

    Each cycle ramps from ``min_c`` up to ``max_c`` and back, so every user in
    the paper's population (limits 34.0–42.8 °C) sees both "warm but fine"
    and "too hot" temperatures near their own threshold several times over
    the probe — the condition under which a threshold tracker can converge.
    """
    if not min_c < max_c:
        raise ValueError("min_c must be below max_c")
    if period_s <= 0 or duration_s <= 0 or dt_s <= 0:
        raise ValueError("period_s, duration_s and dt_s must be positive")
    times = np.arange(dt_s, duration_s + dt_s / 2, dt_s)
    phase = (times % period_s) / period_s
    triangle = 1.0 - np.abs(2.0 * phase - 1.0)  # 0 → 1 → 0 over one period
    return min_c + (max_c - min_c) * triangle


def adaptation_trajectories(
    adapter: Union[str, AdapterSpec],
    population: Optional[UserPopulation] = None,
    initial_limit_c: float = 37.0,
    include_default_user: bool = True,
    report_period_s: float = 10.0,
    probe_c: Optional[Sequence[float]] = None,
    dt_s: float = 1.0,
    trajectory_points: int = 120,
) -> List[AdaptationTrajectory]:
    """Run the feedback loop open-loop for every user and record the limit path.

    Args:
        adapter: strategy name or full :class:`~repro.api.specs.AdapterSpec`
            (its ``feedback`` config is replaced per user).
        population: study population (the paper's ten participants by default).
        initial_limit_c: the mis-specified starting limit every user begins at.
        include_default_user: also run the population-average "default" user.
        report_period_s: simulated-user report period.
        probe_c: felt-temperature samples (defaults to
            :func:`limit_probe_temperatures`).
        dt_s: sampling period of the probe.
        trajectory_points: cap on stored (time, limit) pairs per user (the
            full trajectory is downsampled evenly; the final point is exact).
    """
    spec = AdapterSpec(name=adapter) if isinstance(adapter, str) else adapter
    population = population if population is not None else paper_population()
    temps = (
        np.asarray(list(probe_c), dtype=float)
        if probe_c is not None
        else limit_probe_temperatures(dt_s=dt_s)
    )
    profiles = population.with_default() if include_default_user else population.profiles()

    rows: List[AdaptationTrajectory] = []
    for profile in profiles:
        strategy = spec.build(initial_limit_c=initial_limit_c)
        feedback = UserFeedbackModel(
            true_limit_c=profile.skin_limit_c, report_period_s=report_period_s
        )
        times: List[float] = []
        limits: List[float] = []
        n_events = 0
        for index, temp in enumerate(temps):
            time_s = (index + 1) * dt_s
            event = feedback.observe(time_s, float(temp))
            if event is not None:
                strategy.observe(event)
                n_events += 1
            times.append(time_s)
            limits.append(strategy.current_limit_c)
        stride = max(1, len(times) // trajectory_points)
        kept = list(range(0, len(times), stride))
        if kept[-1] != len(times) - 1:
            kept.append(len(times) - 1)
        rows.append(
            AdaptationTrajectory(
                user_id=profile.user_id,
                adapter=spec.name,
                true_limit_c=profile.skin_limit_c,
                initial_limit_c=initial_limit_c,
                final_limit_c=limits[-1],
                n_events=n_events,
                times_s=tuple(times[i] for i in kept),
                limits_c=tuple(limits[i] for i in kept),
            )
        )
    return rows


@dataclass(frozen=True)
class FrontierPoint:
    """One (user, scheme) point of the discomfort vs. throughput trade-off."""

    user_id: str
    scheme: str
    true_limit_c: float
    discomfort_minutes: float
    throughput_loss: float
    final_limit_c: Optional[float]

    @property
    def final_error_c(self) -> Optional[float]:
        """How far the scheme's final limit sits from the user's true limit."""
        if self.final_limit_c is None:
            return None
        return abs(self.final_limit_c - self.true_limit_c)


def comfort_performance_frontier(
    context,
    adapters: Sequence[str] = ("fixed", "feedback_step", "quantile_tracker"),
    benchmark: str = "skype",
    duration_s: float = 600.0,
    default_limit_c: float = 37.0,
    user_ids: Optional[Sequence[str]] = None,
    report_period_s: float = 9.0,
    warm_start: bool = True,
    stream_to=None,
    resume: bool = False,
) -> List[FrontierPoint]:
    """Discomfort-minutes vs. throughput-loss for static and adaptive schemes.

    Schemes per user: ``static`` (USTA frozen at the population default —
    what a user-agnostic deployment ships), ``oracle`` (USTA frozen at the
    user's true limit — the paper's per-user ideal) and one adaptive scheme
    per entry of ``adapters`` (USTA starting from the default with the
    feedback loop switched on).  All cells share one trace, so the whole
    frontier integrates as a single vectorized population.

    Args:
        context: a :class:`~repro.analysis.context.ReproductionContext` (or
            anything with ``predictor``, ``population`` and ``seed``).
        adapters: adapter registry names to evaluate.
        benchmark: benchmark replayed by every cell.
        duration_s: trace duration.
        default_limit_c: the mis-specified limit static/adaptive schemes start at.
        user_ids: subset of participants (all ten by default).
        report_period_s: simulated-user report period for adaptive schemes.
        warm_start: start from :data:`WARM_START_TEMPS` so short traces reach
            comfort-relevant temperatures immediately.
        stream_to: optional directory; when given, cells stream into a
            :class:`~repro.runtime.streamstore.StreamingResultStore` there
            and the frontier is computed by single-pass streaming comfort
            aggregation — O(1) memory per cell, shards left for later reuse.
        resume: with ``stream_to``, continue a directory that already holds
            cells (only the missing ones run); refused otherwise.
    """
    from ..runtime import BatchRunner, ExperimentCell, ExperimentPlan
    from ..workloads.benchmarks import build_benchmark

    population = context.population
    profiles = [population[uid] for uid in user_ids] if user_ids else population.profiles()
    trace = build_benchmark(benchmark, seed=context.seed, duration_s=duration_s)
    initial_temps = WARM_START_TEMPS if warm_start else None

    def usta_policy(limit_c: float) -> PolicySpec:
        return PolicySpec(manager=ManagerSpec("usta", params={"skin_limit_c": limit_c}))

    plan = ExperimentPlan()
    for profile in profiles:
        schemes: List[Tuple[str, PolicySpec]] = [
            ("static", usta_policy(default_limit_c)),
            ("oracle", usta_policy(profile.skin_limit_c)),
        ]
        for name in adapters:
            adaptive = PolicySpec(
                manager=ManagerSpec("usta", params={"skin_limit_c": default_limit_c}),
                adapter=AdapterSpec(name, feedback={"report_period_s": report_period_s}),
            ).for_user(profile)
            schemes.append((name, adaptive))
        for scheme, policy in schemes:
            plan.add(
                ExperimentCell(
                    cell_id=f"{profile.user_id}/{scheme}",
                    trace=trace,
                    policy=policy,
                    predictor=context.predictor,
                    seed=context.seed,
                    initial_temps=initial_temps,
                    metadata={"user_id": profile.user_id, "scheme": scheme},
                )
            )

    runner = BatchRunner.for_jobs(None)
    limits = {profile.user_id: profile.skin_limit_c for profile in profiles}
    if stream_to is not None:
        from .streaming import stream_plan_summaries

        run = stream_plan_summaries(
            runner,
            plan,
            stream_to,
            limit_for=lambda cell: limits[cell.metadata["user_id"]],
            resume=resume,
        )

        def point_metrics(cell_id, profile):
            summary = run.entries[cell_id].summary
            return (
                summary.time_over_limit_s,
                1.0 - summary.throughput_ratio,
                summary.final_comfort_limit_c,
            )

    else:
        store = runner.run(plan)

        def point_metrics(cell_id, profile):
            result = store.result_of(cell_id)
            comfort = result.comfort_against(profile.skin_limit_c, user_id=profile.user_id)
            return (
                comfort.time_over_limit_s,
                1.0 - result.throughput_ratio,
                result.records[-1].comfort_limit_c,
            )

    points: List[FrontierPoint] = []
    for profile in profiles:
        for scheme in ("static", "oracle", *adapters):
            over_s, loss, final_limit = point_metrics(f"{profile.user_id}/{scheme}", profile)
            points.append(
                FrontierPoint(
                    user_id=profile.user_id,
                    scheme=scheme,
                    true_limit_c=profile.skin_limit_c,
                    discomfort_minutes=over_s / 60.0,
                    throughput_loss=loss,
                    final_limit_c=final_limit,
                )
            )
    return points


def render_adaptation(rows: Sequence[AdaptationTrajectory]) -> str:
    """Text table of per-user convergence (the CLI's ``adapt`` output)."""
    if not rows:
        raise ValueError("no adaptation trajectories to render")
    header = ["user", "adapter", "true °C", "start °C", "final °C", "|err| °C", "events"]
    table = [
        [
            row.user_id,
            row.adapter,
            f"{row.true_limit_c:.1f}",
            f"{row.initial_limit_c:.1f}",
            f"{row.final_limit_c:.2f}",
            f"{row.final_error_c:.2f}",
            str(row.n_events),
        ]
        for row in rows
    ]
    worst = max(rows, key=lambda r: r.final_error_c)
    footer = (
        f"worst convergence: user {worst.user_id} "
        f"({worst.final_error_c:.2f} °C from true limit)"
    )
    return format_table(header, table) + "\n" + footer


def render_frontier(points: Sequence[FrontierPoint]) -> str:
    """Text table of the discomfort vs. throughput frontier."""
    if not points:
        raise ValueError("no frontier points to render")
    header = ["user", "scheme", "true °C", "discomfort min", "thr. loss %", "final limit °C"]
    table = [
        [
            p.user_id,
            p.scheme,
            f"{p.true_limit_c:.1f}",
            f"{p.discomfort_minutes:.2f}",
            f"{100.0 * p.throughput_loss:.1f}",
            "-" if p.final_limit_c is None else f"{p.final_limit_c:.2f}",
        ]
        for p in points
    ]
    return format_table(header, table)
