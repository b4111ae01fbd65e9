"""Reproduction of the paper's Table 1.

For every one of the thirteen benchmarks the table reports the maximum screen
temperature, the maximum skin temperature and the average CPU frequency, once
under the baseline ondemand governor and once under USTA configured for the
default user's 37 °C limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..runtime import BatchRunner, ExperimentCell, ExperimentPlan
from ..workloads.benchmarks import BENCHMARK_NAMES, BENCHMARKS, build_benchmark
from .context import ReproductionContext
from .paper_data import PAPER_DEFAULT_LIMIT_C, PAPER_TABLE1, PaperTable1Row

__all__ = ["Table1Row", "reproduce_table1"]


@dataclass(frozen=True)
class Table1Row:
    """One benchmark's measurements under the baseline governor and under USTA."""

    benchmark: str
    title: str
    baseline_max_screen_c: float
    baseline_max_skin_c: float
    baseline_avg_freq_ghz: float
    usta_max_screen_c: float
    usta_max_skin_c: float
    usta_avg_freq_ghz: float
    paper: Optional[PaperTable1Row] = None

    @property
    def skin_reduction_c(self) -> float:
        """How much USTA lowers the peak skin temperature."""
        return self.baseline_max_skin_c - self.usta_max_skin_c

    @property
    def usta_should_act(self) -> bool:
        """True when the baseline peak comes within 2 °C of the 37 °C limit.

        The paper's claim: "In all applications where the temperature is
        within 2 °C or exceeds this threshold for the default DVFS, USTA is
        able to reduce the peak temperature."
        """
        return self.baseline_max_skin_c >= PAPER_DEFAULT_LIMIT_C - 2.0


def reproduce_table1(
    context: ReproductionContext,
    benchmarks: Optional[Sequence[str]] = None,
    duration_scale: float = 1.0,
    skin_limit_c: float = PAPER_DEFAULT_LIMIT_C,
    runner: Optional[BatchRunner] = None,
    stream_to=None,
    resume: bool = False,
) -> List[Table1Row]:
    """Run every benchmark under both DVFS configurations and tabulate the results.

    The 13 × {ondemand, USTA} grid is declared as an
    :class:`~repro.runtime.plan.ExperimentPlan` and executed through a
    :class:`~repro.runtime.runner.BatchRunner`: by default each benchmark's
    baseline/USTA pair integrates as one vectorized population (bit-identical
    to sequential runs).

    Args:
        context: shared context (provides the trained predictor).
        benchmarks: subset of benchmark names (all thirteen by default).
        duration_scale: scale factor applied to every benchmark's duration
            (1.0 reproduces the paper's run lengths; smaller values give a
            faster, rougher table).
        skin_limit_c: USTA's comfort limit (37 °C = the default user).
        runner: custom batch runner (default: the in-process vectorized one).
        stream_to: optional directory; when given, cells stream into a
            :class:`~repro.runtime.streamstore.StreamingResultStore` there
            and the table is built from single-pass streaming summaries —
            per-cell memory stays bounded however long the runs are.
        resume: with ``stream_to``, skip cells the directory already holds
            (crash-safe restart); their rows come from the persisted shards.
    """
    if duration_scale <= 0:
        raise ValueError("duration_scale must be positive")
    names = tuple(benchmarks) if benchmarks is not None else BENCHMARK_NAMES

    plan = ExperimentPlan()
    schemes = (
        ("baseline", context.baseline_policy_spec()),
        ("usta", context.usta_policy_spec(skin_limit_c=skin_limit_c)),
    )
    for index, name in enumerate(names):
        spec = BENCHMARKS[name]
        duration = spec.duration_s * duration_scale
        trace = build_benchmark(name, seed=context.seed + index, duration_s=duration)
        for scheme, policy in schemes:
            plan.add(
                ExperimentCell(
                    cell_id=f"{name}/{scheme}",
                    trace=trace,
                    policy=policy,
                    predictor=context.predictor if policy.manager is not None else None,
                    seed=context.seed + index,
                    metadata={"benchmark": name, "scheme": scheme},
                )
            )
    active_runner = runner if runner is not None else BatchRunner.for_jobs(None)
    if stream_to is not None:
        metrics = _stream_metrics(active_runner, plan, stream_to, resume)
    else:
        store = active_runner.run(plan)
        metrics = store.result_of

    rows: List[Table1Row] = []
    for name in names:
        spec = BENCHMARKS[name]
        baseline = metrics(f"{name}/baseline")
        usta = metrics(f"{name}/usta")
        rows.append(
            Table1Row(
                benchmark=name,
                title=spec.title,
                baseline_max_screen_c=baseline.max_screen_temp_c,
                baseline_max_skin_c=baseline.max_skin_temp_c,
                baseline_avg_freq_ghz=baseline.average_frequency_ghz,
                usta_max_screen_c=usta.max_screen_temp_c,
                usta_max_skin_c=usta.max_skin_temp_c,
                usta_avg_freq_ghz=usta.average_frequency_ghz,
                paper=PAPER_TABLE1.get(name),
            )
        )
    return rows


def _stream_metrics(runner: BatchRunner, plan, stream_to, resume: bool):
    """Stream the plan into a shard directory; per-cell metric lookup back.

    Maxima and averages come from :class:`~repro.analysis.streaming.
    StreamingCellSummary` objects (property-compatible with
    :class:`SimulationResult`), folded live for freshly executed cells and
    re-folded shard-by-shard for cells a resumed run skipped.
    """
    from .streaming import stream_plan_summaries

    run = stream_plan_summaries(runner, plan, stream_to, resume=resume)
    return lambda cell_id: run.entries[cell_id].summary
