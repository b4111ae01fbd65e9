"""Streaming sweeps: bounded-memory population runs with crash-safe resume.

The batch runtime normally collects every cell's full step-record stream in
memory.  This example shows the streaming alternative for sweeps too large
for that:

1. declare a population sweep as an :class:`ExperimentPlan` whose cells carry
   a declarative policy with a ``trained`` predictor *recipe* — the trained
   model resolves through the content-addressed artifact cache, so re-running
   the example (or fanning out over ``--fleet`` workers) never retrains;
2. stream the plan into a sharded JSONL :class:`StreamingResultStore`: each
   completed cell is appended and dropped, and a :class:`SummarySink` teed
   next to it folds the records into O(1) running summaries for the report;
3. interrupt and resume: re-opening the directory recovers any half-written
   final line and re-runs exactly the missing cells.

Run with::

    python examples/streaming_sweep.py

The command-line equivalent of all of this is::

    repro-usta sweep --scale 0.1 --stream-to out/        # crash whenever
    repro-usta sweep --scale 0.1 --stream-to out/ --resume
"""

import tempfile
from pathlib import Path

from repro.analysis.streaming import SummarySink
from repro.api.specs import AdapterSpec, ManagerSpec, PolicySpec, PredictorSpec
from repro.runtime import (
    BatchRunner,
    ExperimentCell,
    ExperimentPlan,
    StreamingResultStore,
    TeeSink,
)
from repro.users.adaptation import WARM_START_TEMPS
from repro.users.population import paper_population
from repro.workloads import build_benchmark

#: A deterministic predictor recipe.  The first run trains it once and caches
#: the artifact by content key (override the location with REPRO_ARTIFACT_DIR);
#: every later run — this process, a resumed run, pool workers — loads it.
PREDICTOR = PredictorSpec(
    kind="trained",
    params={"model": "linear_regression", "duration_scale": 0.05, "benchmarks": ["skype"]},
)

POLICY = PolicySpec(
    manager=ManagerSpec("usta", params={"skin_limit_c": 37.0}, predictor=PREDICTOR),
    adapter=AdapterSpec("quantile_tracker", feedback={"report_period_s": 9.0}),
)


def build_plan() -> ExperimentPlan:
    """One adaptive-USTA cell per study participant, sharing one Skype trace."""
    trace = build_benchmark("skype", seed=0, duration_s=180.0)
    plan = ExperimentPlan()
    for profile in paper_population():
        plan.add(
            ExperimentCell(
                cell_id=profile.user_id,
                trace=trace,
                policy=POLICY.for_user(profile),
                seed=0,
                initial_temps=WARM_START_TEMPS,
                metadata={"user_id": profile.user_id},
            )
        )
    return plan


def stream_once(directory: Path, plan: ExperimentPlan) -> None:
    store = StreamingResultStore(directory)
    if store.recovered_tail:
        print(f"   {store.recovered_tail}")
    summaries = SummarySink()
    executed = BatchRunner.for_jobs(None).run_stream(
        plan, TeeSink(store, summaries), skip=store.completed_cell_ids
    )
    store.close()
    print(f"   executed {executed} cell(s), skipped {len(plan) - executed} already on disk")
    for entry in summaries.entries:
        summary = entry.summary
        print(
            f"   {entry.cell.cell_id}: peak skin {summary.max_skin_temp_c:.2f} °C, "
            f"end limit {summary.final_comfort_limit_c:.2f} °C, "
            f"avg {summary.average_frequency_ghz:.3f} GHz"
        )


def main() -> None:
    plan = build_plan()
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "sweep"

        print("1. streaming the population sweep to sharded JSONL ...")
        stream_once(directory, plan)

        print("2. simulating a crash: truncating the last shard mid-line ...")
        shard = sorted(directory.glob("shard-*.jsonl"))[-1]
        data = shard.read_bytes()
        shard.write_bytes(data[: len(data) - len(data.splitlines(True)[-1]) // 2])

        print("3. resuming: only the interrupted cell re-runs ...")
        stream_once(directory, plan)

        total = len(StreamingResultStore(directory).load())
        print(f"   store holds {total} bit-exact cells across "
              f"{len(list(directory.glob('shard-*.jsonl')))} shard file(s)")


if __name__ == "__main__":
    main()
