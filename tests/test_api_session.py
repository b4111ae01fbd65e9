"""Tests for the online policy interface: sessions, pools, and serve."""

import numpy as np
import pytest

from repro.api.serve import replay_telemetry, run_serve
from repro.api.session import PolicySession, SessionPool, open_session
from repro.api.specs import AdapterSpec, GovernorSpec, ManagerSpec, PolicySpec
from repro.api.types import CapDecision, FeedbackEvent, TelemetrySample
from repro.core.usta import USTAController
from repro.device.freq_table import nexus4_frequency_table
from repro.device.platform import DevicePlatform
from repro.governors.ondemand import OndemandGovernor
from repro.sim.engine import Simulator
from repro.users.adaptation import WARM_START_TEMPS as WARM_TEMPS, UserFeedbackModel
from repro.workloads.benchmarks import build_benchmark

TABLE = nexus4_frequency_table()


def _sample(time_s, cpu_temp_c, utilization=0.5, frequency_khz=1_512_000.0):
    return TelemetrySample(
        time_s=time_s,
        utilization=utilization,
        frequency_khz=frequency_khz,
        sensor_readings={"cpu": cpu_temp_c, "battery": cpu_temp_c - 2.5},
    )


class TestPolicySession:
    def test_bare_governor_session_never_caps(self):
        session = open_session(PolicySpec(governor=GovernorSpec("ondemand")))
        decision = session.feed(_sample(1.0, 45.0))
        assert decision == CapDecision.no_cap()
        assert session.feed_count == 1
        assert session.capped_fraction == 0.0

    def test_usta_session_caps_when_prediction_nears_limit(self, linear_predictor):
        # linear_predictor: skin ≈ cpu − 5 °C.  Limit 37 → margin bands sit at
        # cpu ≈ 39/40/41.5 °C.
        spec = PolicySpec(manager=ManagerSpec("usta", params={"skin_limit_c": 37.0}))
        session = open_session(spec, predictor=linear_predictor)

        cold = session.feed(_sample(1.0, 30.0))
        assert not cold.active

        warm = session.feed(_sample(4.0, 41.2))  # margin ≈ 0.8 °C → two levels down
        assert warm.level_cap == TABLE.max_level - 2
        assert warm.max_frequency_khz == TABLE.frequency_at(TABLE.max_level - 2)
        assert warm.predicted_skin_temp_c == pytest.approx(36.2, abs=0.2)

        # Between prediction windows the cap is held and no new prediction runs.
        held = session.feed(_sample(5.0, 20.0))
        assert held.level_cap == warm.level_cap
        assert session.manager.prediction_count == 2

    def test_session_accepts_dict_spec_and_profile(self, linear_predictor, small_context):
        profile = small_context.population["g"]
        session = open_session(
            {"governor": "ondemand", "manager": {"name": "usta"}},
            user_profile=profile,
            predictor=linear_predictor,
            session_id="g-0",
        )
        assert session.manager.skin_limit_c == profile.skin_limit_c
        assert session.session_id == "g-0"

    def test_reset_clears_session_and_manager_state(self, linear_predictor):
        spec = PolicySpec(manager=ManagerSpec("usta", params={"skin_limit_c": 37.0}))
        session = open_session(spec, predictor=linear_predictor)
        session.feed(_sample(1.0, 41.2))
        assert session.last_decision is not None
        session.reset()
        assert session.last_decision is None
        assert session.feed_count == 0
        assert session.manager.prediction_count == 0

    def test_kernel_and_session_agree(self, linear_predictor):
        # The same telemetry through a standalone session and through a
        # direct controller must decide identically (the kernel path).
        spec = PolicySpec(manager=ManagerSpec("usta", params={"skin_limit_c": 37.0}))
        session = open_session(spec, predictor=linear_predictor)
        controller = USTAController(predictor=linear_predictor, skin_limit_c=37.0)
        for t, cpu in ((1.0, 30.0), (4.0, 40.5), (7.0, 42.0), (8.0, 42.0)):
            sample = _sample(t, cpu)
            decision = session.feed(sample)
            manual = controller.observe(
                time_s=t,
                sensor_readings=sample.sensor_readings,
                utilization=sample.utilization,
                frequency_khz=sample.frequency_khz,
            )
            assert decision.level_cap == manual.level_cap
            assert decision.predicted_skin_temp_c == manual.predicted_skin_temp_c


class TestSessionPool:
    def _pool(self, linear_predictor, population, n=20):
        spec = PolicySpec(manager=ManagerSpec("usta"))
        pool = SessionPool()
        profiles = list(population)
        for index in range(n):
            profile = profiles[index % len(profiles)]
            pool.open(
                f"{profile.user_id}-{index}",
                spec,
                user_profile=profile,
                predictor=linear_predictor,
            )
        return pool

    def test_duplicate_session_id_rejected(self, linear_predictor, small_context):
        pool = self._pool(linear_predictor, small_context.population, n=1)
        session_id = next(iter(pool)).session_id
        with pytest.raises(ValueError, match="duplicate session id"):
            pool.open(session_id, PolicySpec(), predictor=linear_predictor)

    def test_batched_predictions_match_scalar_sessions(self, linear_predictor, small_context):
        telemetry = [
            _sample(float(t + 1), 34.0 + 0.45 * t, utilization=0.6) for t in range(24)
        ]
        pool = self._pool(linear_predictor, small_context.population, n=20)

        # The same 20 users, fed one by one through scalar sessions.
        spec = PolicySpec(manager=ManagerSpec("usta"))
        profiles = list(small_context.population)
        scalar_sessions = {
            f"{profiles[i % len(profiles)].user_id}-{i}": open_session(
                spec, user_profile=profiles[i % len(profiles)], predictor=linear_predictor
            )
            for i in range(20)
        }

        for sample in telemetry:
            pooled = pool.feed_all(sample)
            for session_id, session in scalar_sessions.items():
                scalar = session.feed(sample)
                assert pooled[session_id].level_cap == scalar.level_cap
                if scalar.predicted_skin_temp_c is None:
                    assert pooled[session_id].predicted_skin_temp_c is None
                else:
                    assert pooled[session_id].predicted_skin_temp_c == pytest.approx(
                        scalar.predicted_skin_temp_c, abs=1e-9
                    )

        # Every prediction went through the batched path: one batch per due
        # tick (t = 1, 4, 7, ... — 8 ticks over 24 s), all 20 sessions each.
        assert pool.batch_count == 8
        assert pool.prediction_count == 8 * 20
        assert pool.average_batch_size == 20.0
        assert pool.feed_count == 20 * len(telemetry)

    def test_observe_overriding_subclass_skips_batched_path(self, linear_predictor):
        class PinnedObserveManager(USTAController):
            """Overrides observe() itself — the batched split must not bypass it."""

            def observe(self, time_s, sensor_readings, utilization, frequency_khz):
                decision = super().observe(time_s, sensor_readings, utilization, frequency_khz)
                return type(decision)(level_cap=0)  # always pin to the minimum level

        pool = SessionPool()
        session = PolicySession(
            manager=PinnedObserveManager(predictor=linear_predictor, skin_limit_c=37.0),
            session_id="pinned",
        )
        pool._sessions["pinned"] = session
        decisions = pool.feed_all(_sample(1.0, 30.0))
        # The override's pinned cap survives, and nothing went through a batch;
        # the prediction its own observe made still counts.
        assert decisions["pinned"].level_cap == 0
        assert pool.batch_count == 0
        assert pool.prediction_count == session.manager.prediction_count == 1

    def test_feed_many_routes_per_session_samples(self, linear_predictor, small_context):
        pool = self._pool(linear_predictor, small_context.population, n=2)
        ids = [s.session_id for s in pool]
        decisions = pool.feed_many(
            {ids[0]: _sample(1.0, 30.0), ids[1]: _sample(1.0, 50.0)}
        )
        assert list(decisions) == ids
        assert not decisions[ids[0]].active
        assert decisions[ids[1]].active  # 45 °C prediction is over any limit

    def test_feed_many_rejects_unknown_session_ids(self, linear_predictor, small_context):
        """Regression: unknown ids used to surface as a bare dict KeyError; now
        they fail with a known-ids hint, before any session consumes a sample."""
        pool = self._pool(linear_predictor, small_context.population, n=2)
        ids = [s.session_id for s in pool]
        with pytest.raises(KeyError, match="unknown session id 'ghost'") as exc_info:
            pool.feed_many({ids[0]: _sample(1.0, 30.0), "ghost": _sample(1.0, 30.0)})
        assert "known session ids" in str(exc_info.value)
        assert ids[0] in str(exc_info.value)
        # The known session was not half-fed by the failed batch.
        assert pool.get(ids[0]).feed_count == 0
        assert pool.feed_count == 0

    def test_get_and_close_share_the_known_ids_hint(self, linear_predictor, small_context):
        pool = self._pool(linear_predictor, small_context.population, n=1)
        with pytest.raises(KeyError, match="known session ids"):
            pool.get("ghost")
        with pytest.raises(KeyError, match="known session ids"):
            pool.close("ghost")
        empty = SessionPool()
        with pytest.raises(KeyError, match="the pool is empty"):
            empty.get("ghost")


class TestAdaptiveSessionParity:
    """A PolicySession fed sample-by-sample with explicit feedback events must
    produce bit-identical cap decisions to the same adapter running inside
    SimulationKernel (where the simulated user reports internally)."""

    REPORT_PERIOD_S = 9.0
    TRUE_LIMIT_C = 34.3  # user b

    def _adaptive_spec(self, with_feedback: bool) -> PolicySpec:
        feedback = (
            {"true_limit_c": self.TRUE_LIMIT_C, "report_period_s": self.REPORT_PERIOD_S}
            if with_feedback
            else None
        )
        return PolicySpec(
            manager=ManagerSpec("usta", params={"skin_limit_c": 37.0}),
            adapter=AdapterSpec(
                "feedback_step",
                params={"step_down_c": 0.5, "hold_off_s": 15.0},
                feedback=feedback,
            ),
        )

    def test_session_with_external_feedback_matches_kernel(self, linear_predictor):
        trace = build_benchmark("skype", seed=0, duration_s=150)

        # Closed loop through the kernel: the wrapper generates the feedback
        # internally from each step's skin sensor reading.
        platform = DevicePlatform(seed=0)
        kernel_manager = self._adaptive_spec(with_feedback=True).build_manager(
            predictor=linear_predictor
        )
        simulator = Simulator(
            platform=platform,
            governor=OndemandGovernor(table=platform.freq_table),
            thermal_manager=kernel_manager,
        )
        result = simulator.run(trace, initial_temps=dict(WARM_TEMPS))

        # The kernel must have exercised the loop, or this parity test is vacuous.
        kernel_limits = [r.comfort_limit_c for r in result.records]
        assert len(set(kernel_limits)) > 1

        # Open a standalone session over the same policy *without* the internal
        # feedback model, and replay the kernel's telemetry with the feedback
        # events computed externally by an identical user model.
        session = open_session(
            self._adaptive_spec(with_feedback=False), predictor=linear_predictor
        )
        user = UserFeedbackModel(
            true_limit_c=self.TRUE_LIMIT_C, report_period_s=self.REPORT_PERIOD_S
        )
        for record in result.records:
            sample = TelemetrySample.from_step_record(record)
            event = user.observe(sample.time_s, sample.sensor_readings["skin"])
            decision = session.feed(sample, feedback=[event] if event else [])
            # Bit-identical live limit and cap at every step.
            assert decision.comfort_limit_c == record.comfort_limit_c
            assert session.current_limit_c == record.comfort_limit_c
            applied = decision.level_cap if decision.level_cap is not None else TABLE.max_level
            assert applied == record.level_cap

    def test_feedback_into_adapterless_policy_is_an_error(self, linear_predictor):
        spec = PolicySpec(manager=ManagerSpec("usta", params={"skin_limit_c": 37.0}))
        session = open_session(spec, predictor=linear_predictor)
        with pytest.raises(ValueError, match="no comfort adapter"):
            session.feed(_sample(1.0, 30.0), feedback=[FeedbackEvent.discomfort(1.0, 36.0)])
        assert session.current_limit_c == 37.0  # static limit still exposed

    def test_pooled_adaptive_sessions_batch_and_match_scalar(self, linear_predictor):
        """Adaptive wrappers stay on the pool's batched-prediction path and
        decide identically to standalone scalar sessions."""
        spec = self._adaptive_spec(with_feedback=True)
        pool = SessionPool()
        scalar = []
        for index in range(8):
            pool.open(f"s-{index}", spec, predictor=linear_predictor)
            scalar.append(open_session(spec, predictor=linear_predictor))
        # Ramp the replayed skin temperature through the user's true limit so
        # feedback fires while predictions are due.
        for t in range(30):
            sample = TelemetrySample(
                time_s=float(t + 1),
                utilization=0.6,
                frequency_khz=1_512_000.0,
                sensor_readings={
                    "cpu": 36.0 + 0.3 * t,
                    "battery": 34.0 + 0.3 * t,
                    "skin": 31.0 + 0.3 * t,
                },
            )
            pooled = pool.feed_all(sample)
            for index, session in enumerate(scalar):
                decision = session.feed(sample)
                assert pooled[f"s-{index}"].level_cap == decision.level_cap
                assert pooled[f"s-{index}"].comfort_limit_c == decision.comfort_limit_c
        # The predictions went through batches (not 8 scalar predicts per tick)
        # and the feedback loop actually moved the limit.
        assert pool.batch_count == 10  # due every 3 s over 30 s
        assert pool.average_batch_size == 8.0
        assert pool.get("s-0").current_limit_c < 37.0

    def test_feed_many_carries_external_feedback_on_the_batched_path(
        self, linear_predictor
    ):
        """External comfort reports passed to feed_many ride the batched
        prediction path and decide bit-identically to scalar feed(sample,
        feedback=...) calls."""
        spec = self._adaptive_spec(with_feedback=False)  # external feedback only
        pool = SessionPool()
        scalar = []
        for index in range(6):
            pool.open(f"s-{index}", spec, predictor=linear_predictor)
            scalar.append(open_session(spec, predictor=linear_predictor))
        users = [
            UserFeedbackModel(
                true_limit_c=self.TRUE_LIMIT_C, report_period_s=self.REPORT_PERIOD_S
            )
            for _ in range(2 * 6)
        ]
        for t in range(30):
            skin = 31.0 + 0.3 * t
            sample = TelemetrySample(
                time_s=float(t + 1),
                utilization=0.6,
                frequency_khz=1_512_000.0,
                sensor_readings={"cpu": skin + 5.0, "battery": skin + 3.0, "skin": skin},
            )
            feedback = {}
            for index in range(6):
                event = users[index].observe(sample.time_s, skin)
                if event is not None:
                    feedback[f"s-{index}"] = [event]
            pooled = pool.feed_many({f"s-{i}": sample for i in range(6)}, feedback=feedback)
            for index, session in enumerate(scalar):
                event = users[6 + index].observe(sample.time_s, skin)
                decision = session.feed(sample, feedback=[event] if event else [])
                assert pooled[f"s-{index}"].level_cap == decision.level_cap
                assert pooled[f"s-{index}"].comfort_limit_c == decision.comfort_limit_c
        # Still batched (one matrix predict per due tick), and the external
        # reports moved the limit.
        assert pool.batch_count == 10
        assert pool.average_batch_size == 6.0
        assert pool.get("s-0").current_limit_c != 37.0

    def test_feed_many_rejects_feedback_without_a_sample(self, linear_predictor):
        pool = SessionPool()
        pool.open("a", self._adaptive_spec(with_feedback=False), predictor=linear_predictor)
        pool.open("b", self._adaptive_spec(with_feedback=False), predictor=linear_predictor)
        with pytest.raises(KeyError, match="without a telemetry sample"):
            pool.feed_many(
                {"a": _sample(1.0, 30.0)},
                feedback={"b": [FeedbackEvent.discomfort(1.0, 36.0)]},
            )

    def test_bad_feedback_batch_has_no_effect(self, linear_predictor):
        """Feedback aimed at an adapterless session fails the whole batch up
        front — the adaptive session's limit must not have moved."""
        pool = SessionPool()
        pool.open("adaptive", self._adaptive_spec(with_feedback=False), predictor=linear_predictor)
        pool.open(
            "bare",
            PolicySpec(manager=ManagerSpec("usta", params={"skin_limit_c": 37.0})),
            predictor=linear_predictor,
        )
        sample = _sample(3.0, 30.0)
        with pytest.raises(ValueError, match="no comfort adapter"):
            pool.feed_many(
                {"adaptive": sample, "bare": sample},
                feedback={
                    "adaptive": [FeedbackEvent.discomfort(3.0, 36.0)],
                    "bare": [FeedbackEvent.discomfort(3.0, 36.0)],
                },
            )
        assert pool.get("adaptive").current_limit_c == 37.0  # untouched
        assert pool.get("adaptive").feed_count == 0
        assert pool.feed_count == 0

    def test_pool_routes_feedback_by_session_id(self, linear_predictor):
        pool = SessionPool()
        pool.open(
            "b-0",
            self._adaptive_spec(with_feedback=False),
            predictor=linear_predictor,
        )
        limit = pool.feed_feedback("b-0", FeedbackEvent.discomfort(20.0, 36.0))
        assert limit == pytest.approx(36.5)
        assert pool.get("b-0").current_limit_c == pytest.approx(36.5)
        with pytest.raises(KeyError, match="unknown session id"):
            pool.feed_feedback("ghost", FeedbackEvent.discomfort(20.0, 36.0))


class TestServe:
    def test_replay_telemetry_matches_trace_length(self):
        trace = build_benchmark("skype", seed=3, duration_s=60)
        telemetry = replay_telemetry(trace, seed=3)
        assert len(telemetry) == len(trace)
        assert {"cpu", "battery", "skin", "screen"} <= set(telemetry[0].sensor_readings)

    def test_run_serve_reports_population_stats(self, small_context):
        report = run_serve(small_context, benchmark="skype", duration_s=120, sessions=25)
        assert report.n_sessions == 25
        assert report.n_steps == 120
        assert report.feed_count == 25 * 120
        # Predictions are due every 3 s → 40 due ticks, each one batch.
        assert report.batch_count == 40
        assert report.prediction_count == 25 * 40
        assert report.average_batch_size == 25.0
        rendered = report.render()
        assert "25 sessions x 120 telemetry steps" in rendered
        assert "avg batch 25.0 sessions" in rendered

    def test_run_serve_with_bare_governor_policy(self, small_context):
        report = run_serve(
            small_context,
            benchmark="skype",
            duration_s=30,
            sessions=5,
            policy=PolicySpec(governor=GovernorSpec("ondemand")),
        )
        assert report.prediction_count == 0
        assert report.capped_sessions == 0
        assert report.policy_label == "ondemand"

    def test_run_serve_rejects_empty_population(self, small_context):
        with pytest.raises(ValueError, match="at least 1"):
            run_serve(small_context, sessions=0)
