"""The policy plane's two adapters agree: a sweep's records replay through serve.

The batch engine and the serving pool drive one :class:`PolicyPlane`
through different adapters — the engine reads its sensor block and writes
record columns, the pool builds features from telemetry samples and answers
``CapDecision`` objects.  Replaying a managed sweep's recorded telemetry
through a pool built around copies of the same managers must reproduce every
recorded decision, tick for tick, bit for bit.
"""

import copy

import pytest

from repro.api.session import PolicySession, SessionPool
from repro.api.types import TelemetrySample
from repro.core.policy import ThrottlePolicy, ThrottleStep
from repro.core.usta import USTAController
from repro.device.hardware import HardwareSpec
from repro.governors import OndemandGovernor
from repro.runtime import PopulationMember, simulate_population_mixed
from repro.users.adaptation import (
    WARM_START_TEMPS,
    AdaptiveComfortManager,
    FeedbackStep,
    UserFeedbackModel,
)
from repro.workloads.benchmarks import build_benchmark


#: A second step table, so the plane holds two policy groups.
_TWO_STEP = ThrottlePolicy(
    steps=(
        ThrottleStep(margin_above_c=3.0, levels_below_max=2),
        ThrottleStep(margin_above_c=1.5, levels_below_max=None),
    )
)


def _members(predictor):
    """Managers spanning two predictor groups (screen flag) and two policies."""
    members = []
    for seed in range(6):
        manager = AdaptiveComfortManager(
            inner=USTAController(
                predictor=predictor,
                skin_limit_c=37.0,
                prediction_period_s=1.0 + seed % 3,
                predict_screen=seed % 2 == 0,
                policy=_TWO_STEP if seed % 3 == 1 else ThrottlePolicy(),
            ),
            adapter=FeedbackStep(initial_limit_c=37.0, step_down_c=0.5, hold_off_s=10.0),
            feedback=UserFeedbackModel(
                true_limit_c=33.0 + 0.4 * seed, report_period_s=5.0, seed=seed
            ),
        )
        members.append(
            PopulationMember(
                seed=seed,
                governor=OndemandGovernor(),
                thermal_manager=manager,
                initial_temps=WARM_START_TEMPS,
            )
        )
    return members


def _traces():
    """Traces of different lengths, so members leave the live prefix early."""
    return [
        build_benchmark(name, seed=seed, duration_s=duration)
        for seed, (name, duration) in enumerate(
            [("game", 90.0), ("skype", 60.0), ("antutu_tester", 75.0)] * 2
        )
    ]


@pytest.mark.parametrize("model", ["linear", "reptree"])
def test_serve_replay_matches_the_sweep_records(model, linear_predictor, small_predictor):
    predictor = linear_predictor if model == "linear" else small_predictor
    members = _members(predictor)
    copies = copy.deepcopy([member.thermal_manager for member in members])
    traces = _traces()
    results = simulate_population_mixed(traces, members)
    max_level = HardwareSpec.nexus4().freq_table.max_level
    scalar = simulate_population_mixed(traces, _members(predictor), vectorize_managers=False)
    assert [r.records for r in results] == [r.records for r in scalar]

    pool = SessionPool(use_plane=True)
    ids = [f"member-{i}" for i in range(len(members))]
    for sid, manager in zip(ids, copies):
        # The engine resets its managers before running; so do the copies.
        manager.reset()
        session = PolicySession(manager=manager, session_id=sid)
        pool._sessions[sid] = session
        pool._adopt(session)
    assert pool.plane_resident_count == len(ids)

    records = {sid: result.records for sid, result in zip(ids, results)}
    capped = 0
    for step in range(max(len(trace) for trace in traces)):
        live = [sid for sid in ids if step < len(records[sid])]
        samples = {
            sid: TelemetrySample.from_step_record(records[sid][step]) for sid in live
        }
        decisions = pool.feed_many(samples)
        for sid in live:
            record, decision = records[sid][step], decisions[sid]
            assert decision.predicted_skin_temp_c == record.predicted_skin_temp_c, (sid, step)
            assert decision.predicted_screen_temp_c == record.predicted_screen_temp_c
            assert decision.comfort_limit_c == record.comfort_limit_c, (sid, step)
            cap = decision.level_cap
            assert (max_level if cap is None else cap) == record.level_cap, (sid, step)
            assert (cap is not None and cap < max_level) == record.usta_active
            capped += record.usta_active
    # The replay exercised adaptation, not only held decisions — and capping
    # where the predictor reaches the limits (the small REPTree predicts a
    # near-constant skin temperature well below them).
    assert any(pool.get(sid).current_limit_c != 37.0 for sid in ids)
    assert capped > 0 or model == "reptree"
