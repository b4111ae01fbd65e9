"""Golden regression suite: committed bit-exact record expectations.

``tests/golden/*.jsonl`` pins the full ``StepRecord`` streams (every float
bit) of two canonical scenarios — a table1-shaped grid and a three-user
adaptive sweep — for this toolchain.  Each scenario is re-executed under both
in-process executors and through a two-worker fleet, and compared
line-by-line against the committed file, so the suite catches both executor
divergence *and* whole-stack numeric drift (a reordered float expression, a
changed default) that executor-parity tests cannot see.

After an *intended* numeric change, regenerate with
``python -m repro golden --update`` and commit the diff.
"""

import json
from pathlib import Path

import pytest

from repro.fleet import FleetCoordinator
from repro.runtime import StreamingResultStore
from repro.runtime.executors import SerialExecutor, VectorizedExecutor
from repro.runtime.golden import (
    GOLDEN_SCENARIOS,
    golden_lines,
    golden_plan,
    run_golden,
    verify_golden,
    write_golden,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def _fleet_store(scenario: str, directory: Path):
    """Run a scenario through a two-worker fleet; load the merged store."""
    FleetCoordinator(golden_plan(scenario), directory, workers=2).run()
    return StreamingResultStore(directory).load()


EXECUTORS = {
    "serial": lambda scenario, _: run_golden(scenario, executor=SerialExecutor()),
    "vectorized": lambda scenario, _: run_golden(scenario, executor=VectorizedExecutor()),
    "fleet": _fleet_store,
}


def committed_lines(scenario: str):
    path = GOLDEN_DIR / f"{scenario}.jsonl"
    assert path.exists(), f"missing {path}; run `python -m repro golden --update`"
    return path.read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("scenario", GOLDEN_SCENARIOS)
@pytest.mark.parametrize("executor_name", sorted(EXECUTORS))
def test_scenario_matches_committed_records(scenario, executor_name, tmp_path):
    """Every executor reproduces the committed JSONL byte-for-byte."""
    expected = committed_lines(scenario)
    actual = golden_lines(EXECUTORS[executor_name](scenario, tmp_path / "store"))
    assert len(actual) == len(expected), "cell count drifted"
    for index, (want, got) in enumerate(zip(expected, actual)):
        assert got == want, (
            f"{scenario} cell #{index} drifted under the {executor_name} executor; "
            "if the numeric change is intended, run `python -m repro golden --update`"
        )


def test_sweep_golden_exercises_the_feedback_loop():
    """The committed sweep scenario must actually adapt (guards against a
    future edit quietly turning it into a static sweep)."""
    lines = committed_lines("sweep")
    moved = set()
    for line in lines:
        data = json.loads(line)
        limits = {record["comfort_limit_c"] for record in data["result"]["records"]}
        assert None not in limits, "sweep cells must run a managed policy"
        if len(limits) > 1:
            moved.add(data["cell"]["cell_id"])
    assert moved, "no sweep cell's comfort limit ever moved — the adapter is inert"


def test_golden_cells_are_self_contained():
    """Committed cells re-execute from their declarative description alone
    (benchmark by name, policy spec with a predictor recipe)."""
    for scenario in GOLDEN_SCENARIOS:
        for cell in golden_plan(scenario):
            assert cell.benchmark is not None and cell.trace is None
            assert cell.policy is not None and cell.predictor is None
            if cell.policy.manager is not None:
                assert cell.policy.manager.predictor is not None


def test_update_then_verify_roundtrip(tmp_path):
    """`golden --update` output verifies clean (the CLI's two code paths agree)."""
    write_golden(tmp_path)
    assert verify_golden(tmp_path) == {}


def test_verify_reports_drift(tmp_path):
    write_golden(tmp_path)
    target = tmp_path / "sweep.jsonl"
    lines = target.read_text(encoding="utf-8").splitlines()
    data = json.loads(lines[0])
    data["result"]["records"][0]["skin_temp_c"] += 1e-12  # one-ulp-scale nudge
    lines[0] = json.dumps(data, sort_keys=True, separators=(",", ":"))
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    problems = verify_golden(tmp_path)
    assert set(problems) == {"sweep"}
    assert "cell #0" in problems["sweep"]
