"""Fleet smoke: a tiny distributed sweep with a worker killed mid-run.

What ``make fleet-smoke`` (and CI via ``make check``) executes::

    python -m repro.fleet.smoke

The scenario, end to end:

1. build a 20-cell population plan whose policy carries a *trained*
   predictor recipe, and point ``REPRO_ARTIFACT_DIR`` at a fresh directory —
   so both fleet workers race to train/store the same artifact (the
   concurrent-cache path);
2. run the plan through a 2-worker :class:`FleetCoordinator`, SIGKILLing one
   worker as soon as the pipeline is warm (fault injection via the
   coordinator's event hook) — its incomplete unit must be harvested from
   disk and reassigned;
3. run the same plan single-process through the vectorized executor into a
   reference store, and require the merged fleet store — shards and
   ``index.jsonl`` — to be **byte-identical**;
4. re-run the coordinator with ``resume=True`` and require zero executions —
   the merged store satisfies the whole plan from disk.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import time
from pathlib import Path

from repro.api.specs import ManagerSpec, PolicySpec, PredictorSpec
from repro.runtime import BatchRunner, ExperimentCell, ExperimentPlan, StreamingResultStore
from repro.runtime.artifacts import ARTIFACT_ENV_VAR
from repro.users import paper_population
from repro.workloads.benchmarks import build_benchmark

from .coordinator import FleetCoordinator
from .merge import stores_byte_identical

#: Tiny trained recipe (one short skype run, linear regression) — enough to
#: make every worker resolve the same artifact-cache key.
SMOKE_RECIPE = {
    "model": "linear_regression",
    "seed": 0,
    "duration_scale": 0.02,
    "benchmarks": ["skype"],
}


def build_smoke_plan(repeat: int = 2, duration_s: float = 30.0) -> ExperimentPlan:
    """``repeat`` copies of the ten-user study population on one tiny trace."""
    trace = build_benchmark("skype", seed=0, duration_s=duration_s)
    policy = PolicySpec(
        manager=ManagerSpec("usta", predictor=PredictorSpec("trained", params=SMOKE_RECIPE))
    )
    plan = ExperimentPlan()
    for rep in range(repeat):
        for profile in paper_population():
            plan.add(
                ExperimentCell(
                    cell_id=f"{profile.user_id}/r{rep}",
                    trace=trace,
                    policy=policy.for_user(profile),
                    seed=rep,
                    metadata={"user_id": profile.user_id, "rep": rep},
                )
            )
    return plan


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dir", default=".fleet-smoke", help="scratch directory (wiped first)"
    )
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)

    root = Path(args.dir)
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    os.environ[ARTIFACT_ENV_VAR] = str(root / "artifacts")

    plan = build_smoke_plan()
    fleet_dir = root / "fleet"
    ref_dir = root / "reference"

    # Fault injection: once the third unit is handed out (both workers are
    # warm and mid-flight), SIGKILL a worker that is NOT the one receiving it.
    state = {"killed": None}
    seen_at = {}  # (event, worker_id) -> time

    def hook(event: str, info: dict) -> None:
        seen_at[event, info.get("worker_id")] = time.perf_counter()
        if event == "assign" and state["killed"] is None and info["unit"] >= 2:
            victims = [
                wid
                for wid in coordinator.live_worker_ids()
                if wid != info["worker_id"]
            ]
            if victims:
                coordinator.kill_worker(victims[0])
                state["killed"] = victims[0]
                print(f"fleet-smoke: killed {victims[0]} mid-run")

    coordinator = FleetCoordinator(
        plan, fleet_dir, workers=args.workers, unit_size=2, on_event=hook
    )
    report = coordinator.run()
    print(
        f"fleet-smoke: {report.executed}/{report.n_cells} cells via "
        f"{report.workers_spawned} worker(s) in {report.elapsed_s:.1f}s "
        f"({report.unit_summary}; {report.worker_deaths} death(s), "
        f"{report.reassigned_units} unit(s) reassigned -> {report.reassigned_cells} cell(s))"
    )
    latency = max(t - seen_at["spawn", w] for (e, w), t in seen_at.items() if e == "hello")
    print(f"fleet-smoke: largest spawn->hello latency {1e3 * latency:.1f} ms")

    failures = []
    if state["killed"] is None:
        failures.append("fault injection never fired (no worker was killed)")
    if report.worker_deaths < 1:
        failures.append("no worker death was observed")
    if report.executed != report.n_cells:
        failures.append(f"executed {report.executed} of {report.n_cells} cells")

    # Reference: the same plan, single process, vectorized, streamed.
    ref_store = StreamingResultStore(ref_dir)
    BatchRunner.for_jobs(None).run_stream(plan, ref_store)
    ref_store.close()

    diff = stores_byte_identical(fleet_dir, ref_dir)
    if diff is not None:
        failures.append(f"merged store differs from single-process run: {diff}")

    merged = StreamingResultStore(fleet_dir)
    if not merged.resumed_via_index:
        failures.append("merged store did not open via its index.jsonl sidecar")
    missing = {cell.cell_id for cell in plan} - merged.completed_cell_ids
    merged.close()
    if missing:
        failures.append(f"merged store is missing cells: {sorted(missing)[:5]}")

    # Resume: everything must be answered from the merged store.
    resumed = FleetCoordinator(plan, fleet_dir, workers=args.workers).run(resume=True)
    if resumed.executed != 0:
        failures.append(f"resume re-executed {resumed.executed} cell(s)")
    if resumed.resumed != report.n_cells:
        failures.append(f"resume only found {resumed.resumed} persisted cell(s)")

    if failures:
        for failure in failures:
            print(f"fleet-smoke: FAIL - {failure}")
        return 1
    print(
        "fleet-smoke: PASS - killed-worker reassignment, byte-identical merge, "
        "and index resume all verified"
    )
    shutil.rmtree(root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
