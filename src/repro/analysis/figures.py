"""Data series behind the paper's Figures 1–5.

Every function regenerates the quantitative content of one figure from the
simulation (there is no plotting dependency; the benchmark harness prints the
series and EXPERIMENTS.md records them next to the paper's values).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.pipeline import evaluate_prediction_models
from ..runtime import BatchRunner, ExperimentCell, ExperimentPlan
from ..sim.experiments import run_benchmark
from ..sim.results import SimulationResult
from ..users.comfort import discomfort_onset_time
from ..users.population import DEFAULT_USER_ID, ThermalComfortProfile
from ..users.satisfaction import (
    PreferenceResult,
    RatingModel,
    SessionOutcome,
    summarize_preferences,
)
from ..workloads.benchmarks import ANTUTU_TESTER_BENCHMARK, SKYPE_BENCHMARK, build_benchmark
from .context import ReproductionContext

__all__ = [
    "Figure1Row",
    "figure1_user_thresholds",
    "Figure2Row",
    "figure2_time_over_threshold",
    "Figure3Row",
    "figure3_prediction_errors",
    "Figure4Series",
    "figure4_skype_traces",
    "Figure5Row",
    "figure5_user_ratings",
]

MINUTE = 60.0


# ---------------------------------------------------------------------------
# Figure 1 — per-user comfort thresholds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Figure1Row:
    """One participant of the comfort-threshold study."""

    user_id: str
    skin_limit_c: float
    screen_limit_c: float
    onset_time_s: Optional[float]


def figure1_user_thresholds(
    context: ReproductionContext,
    duration_s: float = 45 * MINUTE,
) -> List[Figure1Row]:
    """Reproduce the Figure 1 study.

    Each participant holds the phone while the AnTuTu Tester stress workload
    runs under the baseline governor; the row records the participant's skin
    and screen comfort limits and the time at which the simulated skin
    temperature first crosses their limit (the instant they would have ended
    the test).
    """
    result = run_benchmark(
        ANTUTU_TESTER_BENCHMARK,
        governor="ondemand",
        seed=context.seed,
        duration_s=duration_s,
    )
    skin_series = result.skin_temps_c()
    rows = []
    for profile in context.population:
        onset = discomfort_onset_time(skin_series, profile.skin_limit_c, dt_s=result.dt_s)
        rows.append(
            Figure1Row(
                user_id=profile.user_id,
                skin_limit_c=profile.skin_limit_c,
                screen_limit_c=profile.screen_limit_c,
                onset_time_s=onset,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 2 — % of the Skype call spent above each user's limit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Figure2Row:
    """One of the eleven limit settings of Figure 2."""

    user_id: str
    skin_limit_c: float
    percent_time_over_limit: float


def figure2_time_over_threshold(
    context: ReproductionContext,
    duration_s: float = 30 * MINUTE,
    under_usta: bool = True,
    runner: Optional[BatchRunner] = None,
) -> List[Figure2Row]:
    """Reproduce Figure 2: the half-hour Skype call against eleven limits.

    USTA is configured with each participant's limit (plus the default user's
    37 °C average limit) and the row reports the share of the call the skin
    temperature still spends above that limit.  ``under_usta=False`` runs the
    baseline governor instead, which isolates how much of the exposure is
    USTA's doing versus the workload's.

    The eleven limit settings share one Skype trace, so the default runner
    integrates the whole sweep as a single vectorized population.
    """
    profiles = list(context.population.with_default())
    trace = build_benchmark(SKYPE_BENCHMARK, seed=context.seed, duration_s=duration_s)
    plan = ExperimentPlan(
        [
            ExperimentCell(
                cell_id=profile.user_id,
                trace=trace,
                governor="ondemand",
                manager_factory=(
                    context.usta_factory_for_user(profile) if under_usta else None
                ),
                seed=context.seed,
                metadata={"user_id": profile.user_id},
            )
            for profile in profiles
        ]
    )
    store = (runner if runner is not None else BatchRunner.for_jobs(None)).run(plan)
    return [
        Figure2Row(
            user_id=profile.user_id,
            skin_limit_c=profile.skin_limit_c,
            percent_time_over_limit=store.result_of(profile.user_id).percent_time_over(
                profile.skin_limit_c
            ),
        )
        for profile in profiles
    ]


# ---------------------------------------------------------------------------
# Figure 3 — prediction error of the four learners
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Figure3Row:
    """Cross-validated error rates of one learner."""

    model_name: str
    skin_error_rate_pct: float
    screen_error_rate_pct: float
    skin_error_rate_deadband_pct: float
    screen_error_rate_deadband_pct: float


def figure3_prediction_errors(
    context: ReproductionContext,
    folds: int = 10,
    model_names: Optional[Sequence[str]] = None,
) -> List[Figure3Row]:
    """Reproduce Figure 3: 10-fold CV error of the four candidate learners."""
    results = evaluate_prediction_models(
        context.training_data,
        model_names=model_names or ("linear_regression", "multilayer_perceptron", "m5p", "reptree"),
        folds=folds,
        seed=context.seed,
    )
    rows = []
    for model_name, by_target in results.items():
        rows.append(
            Figure3Row(
                model_name=model_name,
                skin_error_rate_pct=by_target["skin"].error_rate_pct,
                screen_error_rate_pct=by_target["screen"].error_rate_pct,
                skin_error_rate_deadband_pct=by_target["skin"].error_rate_deadband_pct,
                screen_error_rate_deadband_pct=by_target["screen"].error_rate_deadband_pct,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 4 — Skype temperature traces, baseline vs USTA
# ---------------------------------------------------------------------------


@dataclass
class Figure4Series:
    """Temperature traces of the half-hour Skype call under both schemes."""

    limit_c: float
    baseline: SimulationResult
    usta: SimulationResult

    @property
    def peak_skin_reduction_c(self) -> float:
        """Baseline peak skin temperature minus USTA's (the paper reports 4.1 °C)."""
        return self.baseline.max_skin_temp_c - self.usta.max_skin_temp_c

    @property
    def average_frequency_reduction_fraction(self) -> float:
        """Relative average-frequency reduction under USTA (the paper reports 34 %)."""
        base = self.baseline.average_frequency_ghz
        if base <= 0:
            return 0.0
        return (base - self.usta.average_frequency_ghz) / base

    def sampled_series(self, every_s: float = 30.0) -> List[Dict[str, float]]:
        """Down-sampled rows (time, baseline/USTA skin and screen temps) for reporting."""
        stride = max(1, int(round(every_s / self.baseline.dt_s)))
        n = min(len(self.baseline), len(self.usta))
        return [
            {
                "time_s": base.time_s,
                "baseline_skin_c": base.skin_temp_c,
                "usta_skin_c": usta.skin_temp_c,
                "baseline_screen_c": base.screen_temp_c,
                "usta_screen_c": usta.screen_temp_c,
            }
            for base, usta in zip(
                self.baseline.records[:n:stride], self.usta.records[:n:stride]
            )
        ]


def figure4_skype_traces(
    context: ReproductionContext,
    duration_s: float = 30 * MINUTE,
    limit_c: Optional[float] = None,
    runner: Optional[BatchRunner] = None,
) -> Figure4Series:
    """Reproduce Figure 4: the Skype call under the baseline and under USTA.

    The baseline/USTA pair shares one trace and executes as a two-member
    vectorized population under the default runner.
    """
    limit = limit_c if limit_c is not None else context.population.default_user().skin_limit_c
    trace = build_benchmark(SKYPE_BENCHMARK, seed=context.seed, duration_s=duration_s)
    plan = ExperimentPlan(
        [
            ExperimentCell(
                cell_id="baseline",
                trace=trace,
                governor="ondemand",
                seed=context.seed,
                metadata={"scheme": "baseline"},
            ),
            ExperimentCell(
                cell_id="usta",
                trace=trace,
                governor="ondemand",
                manager_factory=context.usta_factory_for_limit(limit),
                seed=context.seed,
                metadata={"scheme": "usta"},
            ),
        ]
    )
    store = (runner if runner is not None else BatchRunner.for_jobs(None)).run(plan)
    return Figure4Series(
        limit_c=limit,
        baseline=store.result_of("baseline"),
        usta=store.result_of("usta"),
    )


# ---------------------------------------------------------------------------
# Figure 5 — satisfaction ratings of the blind preference study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Figure5Row:
    """One participant's ratings in the preference study."""

    user_id: str
    baseline_rating: int
    usta_rating: int
    preference: str
    usta_ever_active: bool


def figure5_user_ratings(
    context: ReproductionContext,
    duration_s: float = 30 * MINUTE,
    rating_model: Optional[RatingModel] = None,
    runner: Optional[BatchRunner] = None,
) -> Tuple[List[Figure5Row], Dict[str, float]]:
    """Reproduce Figure 5: per-user ratings of baseline vs user-specific USTA.

    Each participant "holds the phone" through two 30-minute Skype sessions —
    one under the baseline governor and one under USTA configured to their own
    comfort limit — and rates both via the satisfaction model.  The shared
    baseline plus the ten user-specific USTA sessions all replay one trace,
    so the default runner integrates them as a single eleven-member
    vectorized population.

    Returns:
        The per-user rows and the aggregate summary (mean ratings and
        preference counts).
    """
    model = rating_model or RatingModel()
    trace = build_benchmark(SKYPE_BENCHMARK, seed=context.seed, duration_s=duration_s)
    profiles = list(context.population)
    plan = ExperimentPlan(
        [
            ExperimentCell(
                cell_id="baseline",
                trace=trace,
                governor="ondemand",
                seed=context.seed,
                metadata={"scheme": "baseline"},
            )
        ]
    ).extend(
        ExperimentCell(
            cell_id=f"usta/{profile.user_id}",
            trace=trace,
            governor="ondemand",
            manager_factory=context.usta_factory_for_user(profile),
            seed=context.seed,
            metadata={"scheme": "usta", "user_id": profile.user_id},
        )
        for profile in profiles
    )
    store = (runner if runner is not None else BatchRunner.for_jobs(None)).run(plan)
    baseline_result = store.result_of("baseline")

    rows: List[Figure5Row] = []
    results: List[PreferenceResult] = []
    for profile in profiles:
        usta_result = store.result_of(f"usta/{profile.user_id}")
        baseline_outcome = SessionOutcome(
            scheme="baseline",
            comfort=baseline_result.comfort_against(profile.skin_limit_c, profile.user_id),
            delivered_work=baseline_result.delivered_work,
            demanded_work=baseline_result.demanded_work,
        )
        usta_outcome = SessionOutcome(
            scheme="usta",
            comfort=usta_result.comfort_against(profile.skin_limit_c, profile.user_id),
            delivered_work=usta_result.delivered_work,
            demanded_work=usta_result.demanded_work,
        )
        preference = model.preference(baseline_outcome, usta_outcome, profile)
        results.append(preference)
        rows.append(
            Figure5Row(
                user_id=profile.user_id,
                baseline_rating=preference.baseline_rating,
                usta_rating=preference.usta_rating,
                preference=preference.preference,
                usta_ever_active=usta_result.usta_active_fraction > 0,
            )
        )
    return rows, summarize_preferences(results)
