"""Golden regression scenarios: committed bit-exact expectations.

The batched runtime's contract is bitwise determinism: the same plan must
produce the same :class:`~repro.sim.results.StepRecord` stream under every
executor, today and after any refactor.  The parity tests check executors
against *each other*; the golden suite additionally pins the records against
**committed** JSONL files (``tests/golden/``), so a change that shifts all
executors together — a reordered float expression, a solver tweak, a changed
default — still trips a test instead of silently rewriting the physics.

Two scenarios, chosen to cover the whole policy stack cheaply:

* ``table1`` — two benchmarks × {baseline ondemand, static default-user
  USTA}, the shape of the paper's headline table;
* ``sweep`` — a three-user same-trace population under *adaptive* USTA
  (``feedback_step`` from a warm start), which exercises the user-feedback
  loop: feedback events, live-limit updates and the adapter spec round-trip.

Both scenarios are fully declarative (policy specs with a deterministic
``trained`` predictor recipe), so the committed cell descriptions are
self-contained and a fleet worker reproduces them from scratch.

Regenerate after an *intended* numeric change with::

    python -m repro golden --update

The files pin exact float bits for one toolchain (numpy/BLAS); a different
LAPACK build may legitimately differ in the last ulp — regenerate there too.
"""

from __future__ import annotations

import json
from dataclasses import fields, replace
from operator import attrgetter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..api.specs import AdapterSpec, ManagerSpec, PolicySpec, PredictorSpec
from ..sim.results import StepRecord
from .plan import ExperimentCell, ExperimentPlan
from .runner import BatchRunner
from .store import ResultStore, cell_to_jsonable

__all__ = [
    "GOLDEN_DIR",
    "GOLDEN_SCENARIOS",
    "golden_plan",
    "run_golden",
    "golden_lines",
    "record_to_jsonable",
    "write_golden",
    "verify_golden",
]

#: Default location of the committed expectation files — anchored to the
#: repository root (three levels above this package), not the CWD, so
#: `repro golden` works from any directory.
GOLDEN_DIR = Path(__file__).resolve().parents[3] / "tests" / "golden"

#: Scenario name → golden file name.
GOLDEN_SCENARIOS: Tuple[str, ...] = ("table1", "sweep")

#: Deterministic, cheap predictor recipe shared by every golden cell: collect
#: one short skype run under the baseline governor, fit linear regression.
_GOLDEN_PREDICTOR = PredictorSpec(
    kind="trained",
    params={
        "model": "linear_regression",
        "seed": 0,
        "duration_scale": 0.05,
        "benchmarks": ["skype"],
    },
)

def _usta_policy(skin_limit_c: float) -> PolicySpec:
    return PolicySpec(
        manager=ManagerSpec(
            "usta",
            params={"skin_limit_c": skin_limit_c},
            predictor=_GOLDEN_PREDICTOR,
        )
    )


def _table1_plan() -> ExperimentPlan:
    plan = ExperimentPlan()
    schemes = (
        ("baseline", PolicySpec()),
        ("usta", _usta_policy(37.0)),
    )
    for benchmark in ("skype", "youtube"):
        for scheme, policy in schemes:
            plan.add(
                ExperimentCell(
                    cell_id=f"{benchmark}/{scheme}",
                    benchmark=benchmark,
                    duration_s=90.0,
                    policy=policy,
                    seed=0,
                    metadata={"benchmark": benchmark, "scheme": scheme},
                )
            )
    return plan


def _sweep_plan() -> ExperimentPlan:
    from ..users.adaptation import WARM_START_TEMPS
    from ..users.population import paper_population

    population = paper_population()
    adapter = AdapterSpec("feedback_step", feedback={"report_period_s": 9.0})
    base = replace(_usta_policy(37.0), adapter=adapter)
    plan = ExperimentPlan()
    for user_id in ("b", "g", "default"):
        plan.add(
            ExperimentCell(
                cell_id=user_id,
                benchmark="skype",
                duration_s=120.0,
                policy=base.for_user(population[user_id]),
                seed=0,
                initial_temps=WARM_START_TEMPS,
                metadata={"user_id": user_id, "scheme": "feedback_step"},
            )
        )
    return plan


def golden_plan(scenario: str) -> ExperimentPlan:
    """The experiment plan behind one golden scenario."""
    if scenario == "table1":
        return _table1_plan()
    if scenario == "sweep":
        return _sweep_plan()
    raise ValueError(
        f"unknown golden scenario {scenario!r}; known: {', '.join(GOLDEN_SCENARIOS)}"
    )


def run_golden(scenario: str, executor: Optional[object] = None) -> ResultStore:
    """Execute one golden scenario (vectorized in-process by default)."""
    runner = BatchRunner(executor=executor) if executor is not None else BatchRunner.for_jobs(None)
    return runner.run(golden_plan(scenario))


_RECORD_FIELDS = tuple(f.name for f in fields(StepRecord))
_record_values = attrgetter(*_RECORD_FIELDS)


def record_to_jsonable(record: StepRecord) -> Dict[str, object]:
    """One step record as the plain dictionary the golden files hold.

    Keys in field order, values as stored — the same dictionary
    ``dataclasses.asdict`` builds, without its per-field deep copy (every
    field is an immutable scalar).
    """
    return dict(zip(_RECORD_FIELDS, _record_values(record)))


def golden_lines(store: ResultStore) -> List[str]:
    """Canonical JSONL lines for a store (keys sorted).

    The golden files keep their own human-diffable form — one JSON object
    per record — which :meth:`ResultStore.load` still reads.  A cell result
    holds nothing that differs between runs, so everything — cell identity,
    policy spec, every float of every record — must match the committed
    file byte for byte.
    """
    lines = []
    for entry in store:
        result = entry.result
        payload = {
            "cell": cell_to_jsonable(entry.cell),
            "result": {
                "workload_name": result.workload_name,
                "governor_name": result.governor_name,
                "dt_s": result.dt_s,
                "records": [record_to_jsonable(record) for record in result.records],
            },
        }
        lines.append(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    return lines


def write_golden(directory: Path = GOLDEN_DIR, executor: Optional[object] = None) -> List[Path]:
    """(Re)generate every golden file; returns the written paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for scenario in GOLDEN_SCENARIOS:
        path = directory / f"{scenario}.jsonl"
        lines = golden_lines(run_golden(scenario, executor=executor))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


def verify_golden(
    directory: Path = GOLDEN_DIR, executor: Optional[object] = None
) -> Dict[str, str]:
    """Re-run every scenario and diff against the committed files.

    Returns a mapping of scenario → human-readable problem for every
    mismatch (empty when everything is bit-identical).
    """
    directory = Path(directory)
    problems: Dict[str, str] = {}
    for scenario in GOLDEN_SCENARIOS:
        path = directory / f"{scenario}.jsonl"
        if not path.exists():
            problems[scenario] = f"missing golden file {path} (run golden --update)"
            continue
        expected = path.read_text(encoding="utf-8").splitlines()
        actual = golden_lines(run_golden(scenario, executor=executor))
        if len(actual) != len(expected):
            problems[scenario] = (
                f"{path.name}: {len(expected)} committed cells vs {len(actual)} produced"
            )
            continue
        for index, (want, got) in enumerate(zip(expected, actual)):
            if want != got:
                problems[scenario] = (
                    f"{path.name}: cell #{index} drifted from the committed records"
                )
                break
    return problems
