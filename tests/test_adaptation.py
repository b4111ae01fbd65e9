"""Tests for the comfort-limit adaptation loop (the paper's user feedback).

Covers the tentpole end to end: adapter strategies and their registry, the
satisfaction-driven feedback model, the live limit inside USTA, the adaptive
manager under every executor and the fleet (bit-identical records), and the
analysis layer's convergence/frontier reports — including the acceptance criterion
that :class:`QuantileTracker` lands within 0.5 °C of every simulated user's
true limit on the default population.
"""

import math

import pytest

from repro.analysis.adaptation import (
    WARM_START_TEMPS,
    adaptation_trajectories,
    comfort_performance_frontier,
    limit_probe_temperatures,
    render_adaptation,
    render_frontier,
)
from repro.api.registry import ADAPTERS
from repro.api.specs import AdapterSpec, ManagerSpec, PolicySpec, SpecError
from repro.api.types import FeedbackEvent
from repro.core.usta import USTAController
from repro.fleet import FleetCoordinator
from repro.runtime import (
    BatchRunner,
    ExperimentCell,
    ExperimentPlan,
    ResultStore,
    StreamingResultStore,
)
from repro.runtime.executors import SerialExecutor, VectorizedExecutor
from repro.users.adaptation import (
    AdaptiveComfortManager,
    FeedbackStep,
    FixedLimit,
    QuantileTracker,
    UserFeedbackModel,
)
from repro.users.population import paper_population
from repro.workloads.benchmarks import build_benchmark


class TestAdapterStrategies:
    def test_registry_has_the_three_strategies(self):
        assert {"fixed", "feedback_step", "quantile_tracker"} <= set(ADAPTERS.names())

    def test_feedback_step_steps_down_with_hold_off(self):
        adapter = FeedbackStep(initial_limit_c=37.0, step_down_c=0.5, hold_off_s=15.0)
        assert adapter.observe(FeedbackEvent.discomfort(10.0, 38.0)) == 36.5
        # Inside the hold-off the repeated complaint is ignored (hysteresis).
        assert adapter.observe(FeedbackEvent.discomfort(12.0, 38.0)) == 36.5
        assert adapter.observe(FeedbackEvent.discomfort(30.0, 38.0)) == 36.0

    def test_feedback_step_creeps_up_and_clamps(self):
        adapter = FeedbackStep(
            initial_limit_c=37.0, step_up_c=0.1, hold_off_s=0.0, max_limit_c=37.2
        )
        adapter.observe(FeedbackEvent.comfort(1.0, 35.0))
        adapter.observe(FeedbackEvent.comfort(2.0, 35.0))
        adapter.observe(FeedbackEvent.comfort(3.0, 35.0))
        assert adapter.current_limit_c == pytest.approx(37.2)

    def test_quantile_tracker_pinches_toward_the_flip_point(self):
        adapter = QuantileTracker(initial_limit_c=37.0)
        # Complaints at 34.5 pull the estimate down toward them...
        for t in range(40):
            adapter.observe(FeedbackEvent.discomfort(float(t), 34.5))
        assert adapter.current_limit_c == pytest.approx(34.5, abs=0.2)
        # ...and "fine" reports at 36 pull it back up.
        for t in range(40, 120):
            adapter.observe(FeedbackEvent.comfort(float(t), 36.0))
        assert adapter.current_limit_c == pytest.approx(36.0, abs=0.3)

    def test_quantile_tracker_ignores_temperatureless_events(self):
        adapter = QuantileTracker(initial_limit_c=37.0)
        adapter.observe(FeedbackEvent.discomfort(1.0))
        assert adapter.current_limit_c == 37.0
        assert adapter.event_count == 0

    def test_reset_restores_the_initial_limit(self):
        for adapter in (
            FixedLimit(36.0),
            FeedbackStep(initial_limit_c=36.0, hold_off_s=0.0),
            QuantileTracker(initial_limit_c=36.0),
        ):
            adapter.observe(FeedbackEvent.discomfort(5.0, 35.0))
            adapter.reset()
            assert adapter.current_limit_c == 36.0

    def test_invalid_parameters_are_rejected(self):
        with pytest.raises(ValueError, match="strictly below"):
            FeedbackStep(min_limit_c=40.0, max_limit_c=35.0, initial_limit_c=37.0)
        with pytest.raises(ValueError, match="within the clamp bounds"):
            QuantileTracker(initial_limit_c=50.0, min_limit_c=30.0, max_limit_c=45.0)
        with pytest.raises(ValueError, match="quantile"):
            QuantileTracker(quantile=1.5)
        with pytest.raises(ValueError, match="feedback kind"):
            FeedbackEvent(time_s=0.0, kind="angry")


_NON_FINITE = pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
)


class TestNonFiniteParameters:
    """NaN slips through a ``<= 0`` guard; these guards refuse NaN and ±inf."""

    @_NON_FINITE
    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda v: FeedbackStep(step_down_c=v), "step sizes"),
            (lambda v: FeedbackStep(step_up_c=v), "step sizes"),
            (lambda v: FeedbackStep(hold_off_s=v), "hold_off_s"),
            (lambda v: UserFeedbackModel(34.0, report_period_s=v), "report_period_s"),
            (lambda v: UserFeedbackModel(34.0, comfort_band_c=v), "comfort_band_c"),
            (lambda v: UserFeedbackModel(34.0, delay_s=v), "delay_s"),
            (lambda v: QuantileTracker(decay=v), "decay"),
            (lambda v: QuantileTracker(trust_window_c=v), "trust_window_c"),
        ],
        ids=[
            "step_down_c",
            "step_up_c",
            "hold_off_s",
            "report_period_s",
            "comfort_band_c",
            "delay_s",
            "decay",
            "trust_window_c",
        ],
    )
    def test_adaptation_parameter_is_refused(self, build, match, value):
        with pytest.raises(ValueError, match=match):
            build(value)

    @_NON_FINITE
    def test_usta_prediction_period_is_refused(self, linear_predictor, value):
        with pytest.raises(ValueError, match="prediction_period_s"):
            USTAController(predictor=linear_predictor, prediction_period_s=value)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize(
        "template, match",
        [
            ('{"manager": {"name": "usta", "params": {"prediction_period_s": %s}}}',
             "prediction_period_s"),
            ('{"manager": "usta", "adapter": {"name": "feedback_step",'
             ' "params": {"hold_off_s": %s}}}', "hold_off_s"),
            ('{"manager": "usta", "adapter": {"name": "quantile_tracker",'
             ' "feedback": {"true_limit_c": 34.0, "report_period_s": %s}}}',
             "report_period_s"),
        ],
        ids=["usta", "feedback_step", "feedback_model"],
    )
    def test_policy_json_literal_is_refused_when_built(
        self, linear_predictor, template, match, literal
    ):
        # json.loads accepts the literal: the spec parses, the build refuses
        # with the spec layer's own error for every component kind.
        spec = PolicySpec.from_json(template % literal)
        with pytest.raises(SpecError, match=match):
            spec.build_manager(predictor=linear_predictor)


class TestUserFeedbackModel:
    def test_reports_follow_the_satisfaction_bands(self):
        model = UserFeedbackModel(true_limit_c=36.0, report_period_s=10.0, comfort_band_c=3.0)
        assert model.observe(10.0, 37.0).is_discomfort
        assert not model.observe(20.0, 34.0).is_discomfort
        assert model.observe(30.0, 30.0) is None  # far below: user says nothing

    def test_report_period_throttles_reports(self):
        model = UserFeedbackModel(true_limit_c=36.0, report_period_s=10.0)
        assert model.observe(10.0, 37.0) is not None
        assert model.observe(15.0, 39.0) is None
        assert model.observe(20.0, 39.0) is not None
        model.reset()
        assert model.observe(1.0, 39.0) is not None


class TestAdversarialFeedbackModels:
    """The noisy/delayed reporter variants (contradictory and lagged reports)."""

    def test_defaults_leave_the_ideal_model_unchanged(self):
        """flip_probability=0 / delay_s=0 reproduce the ideal reporter exactly."""
        ideal = UserFeedbackModel(true_limit_c=36.0, report_period_s=10.0)
        explicit = UserFeedbackModel(
            true_limit_c=36.0, report_period_s=10.0, flip_probability=0.0, delay_s=0.0
        )
        temps = [30.0, 37.0, 34.0, 39.0, 35.5, 31.0, 38.0]
        for index, temp in enumerate(temps):
            time_s = 10.0 * (index + 1)
            assert ideal.observe(time_s, temp) == explicit.observe(time_s, temp)

    def test_flip_probability_one_inverts_every_report(self):
        model = UserFeedbackModel(true_limit_c=36.0, report_period_s=10.0, flip_probability=1.0)
        hot = model.observe(10.0, 39.0)  # truly uncomfortable ...
        assert not hot.is_discomfort  # ... reported as fine
        fine = model.observe(20.0, 34.5)  # truly fine ...
        assert fine.is_discomfort  # ... reported as too hot
        assert fine.skin_temp_c == 34.5  # the felt temperature is untouched

    def test_flip_noise_is_seeded_and_reproducible(self):
        def kinds(seed):
            model = UserFeedbackModel(
                true_limit_c=36.0, report_period_s=5.0, flip_probability=0.5, seed=seed
            )
            return [model.observe(5.0 * (i + 1), 37.0).kind for i in range(40)]

        assert kinds(1) == kinds(1)
        assert kinds(1) != kinds(2)
        model = UserFeedbackModel(
            true_limit_c=36.0, report_period_s=5.0, flip_probability=0.5, seed=1
        )
        first = [model.observe(5.0 * (i + 1), 37.0).kind for i in range(40)]
        model.reset()
        replay = [model.observe(5.0 * (i + 1), 37.0).kind for i in range(40)]
        assert replay == first  # reset rewinds the noise stream too

    def test_delayed_reports_carry_the_stale_temperature(self):
        model = UserFeedbackModel(true_limit_c=36.0, report_period_s=10.0, delay_s=7.0)
        assert model.observe(10.0, 39.0) is None  # felt now, filed later
        assert model.observe(12.0, 30.0) is None  # not due yet
        delivered = model.observe(17.0, 30.0)  # due at 10 + 7
        assert delivered is not None and delivered.is_discomfort
        assert delivered.skin_temp_c == 39.0  # what the user *felt*, not 30.0
        assert delivered.time_s == 17.0  # filed now: timestamps stay monotonic

    def test_reset_clears_pending_delayed_reports(self):
        model = UserFeedbackModel(true_limit_c=36.0, report_period_s=10.0, delay_s=5.0)
        assert model.observe(10.0, 39.0) is None
        model.reset()
        assert model.observe(16.0, 30.0) is None  # the pending report is gone

    def test_invalid_adversarial_parameters_are_rejected(self):
        with pytest.raises(ValueError, match="flip_probability"):
            UserFeedbackModel(true_limit_c=36.0, flip_probability=1.5)
        with pytest.raises(ValueError, match="delay_s"):
            UserFeedbackModel(true_limit_c=36.0, delay_s=-1.0)

    def test_adapter_spec_accepts_the_adversarial_feedback_keys(self):
        from repro.api.specs import AdapterSpec

        spec = AdapterSpec(
            "quantile_tracker",
            feedback={
                "true_limit_c": 36.0,
                "flip_probability": 0.1,
                "delay_s": 12.0,
                "seed": 3,
            },
        )
        model = spec.build_feedback()
        assert model.flip_probability == 0.1
        assert model.delay_s == 12.0
        restored = AdapterSpec.from_spec(spec.to_spec())
        assert restored == spec


class TestLiveLimit:
    def test_usta_cap_reads_the_live_limit(self, linear_predictor):
        # linear_predictor: skin ≈ cpu − 5 °C.
        usta = USTAController(predictor=linear_predictor, skin_limit_c=37.0)
        readings = {"cpu": 38.0, "battery": 36.0}
        far = usta.observe(time_s=1.0, sensor_readings=readings, utilization=0.5,
                           frequency_khz=1_512_000.0)
        assert far.level_cap is None
        assert far.comfort_limit_c == 37.0
        # Lower the live limit to just above the prediction: USTA now throttles.
        usta.set_skin_limit(33.4)
        near = usta.observe(time_s=4.0, sensor_readings=readings, utilization=0.5,
                            frequency_khz=1_512_000.0)
        assert near.level_cap is not None
        assert near.comfort_limit_c == 33.4
        # The configured limit is untouched and reset returns to it.
        assert usta.skin_limit_c == 37.0
        usta.reset()
        assert usta.current_skin_limit_c == 37.0

    def test_set_skin_limit_rejects_implausible_values(self, linear_predictor):
        usta = USTAController(predictor=linear_predictor)
        with pytest.raises(ValueError):
            usta.set_skin_limit(10.0)

    def test_adaptive_manager_requires_a_live_limit_inner(self):
        class NoKnob:
            def observe(self, **kwargs):  # pragma: no cover - never reached
                raise AssertionError

            def reset(self):  # pragma: no cover - never reached
                raise AssertionError

        with pytest.raises(TypeError, match="set_skin_limit"):
            AdaptiveComfortManager(inner=NoKnob(), adapter=FixedLimit(37.0))

    def test_adaptive_manager_closes_the_loop(self, linear_predictor):
        manager = AdaptiveComfortManager(
            inner=USTAController(predictor=linear_predictor, skin_limit_c=37.0),
            adapter=FeedbackStep(initial_limit_c=37.0, step_down_c=1.0, hold_off_s=0.0),
            feedback=UserFeedbackModel(true_limit_c=33.0, report_period_s=3.0),
        )
        readings = {"cpu": 39.0, "battery": 37.0, "skin": 34.0}
        for t in (3.0, 6.0, 9.0):
            decision = manager.observe(
                time_s=t, sensor_readings=readings, utilization=0.6,
                frequency_khz=1_512_000.0,
            )
        # Three discomfort reports at 34 °C stepped the limit 37 → 34; the
        # prediction (cpu − 5 = 34) is now over the limit → minimum level.
        assert manager.current_limit_c == pytest.approx(34.0)
        assert decision.comfort_limit_c == pytest.approx(34.0)
        assert decision.level_cap == 0
        assert "feedback" in manager.name.lower() or "+" in manager.name
        manager.reset()
        assert manager.current_limit_c == 37.0


def _adaptive_plan(predictor, trace, adapter_name="feedback_step"):
    population = paper_population()
    base = PolicySpec(
        manager=ManagerSpec("usta", params={"skin_limit_c": 37.0}),
        adapter=AdapterSpec(adapter_name, feedback={"report_period_s": 9.0}),
    )
    plan = ExperimentPlan()
    for user_id in ("b", "f", "g"):
        plan.add(
            ExperimentCell(
                cell_id=user_id,
                trace=trace,
                policy=base.for_user(population[user_id]),
                predictor=predictor,
                seed=0,
                initial_temps=WARM_START_TEMPS,
                metadata={"user_id": user_id},
            )
        )
    return plan


class TestAdaptiveExecutorParity:
    """`sweep --adapter feedback_step` must be bit-identical on every executor."""

    @pytest.fixture(scope="class")
    def stores(self, linear_predictor, tmp_path_factory):
        trace = build_benchmark("skype", seed=0, duration_s=150)
        results = {}
        for name, executor in (
            ("serial", SerialExecutor()),
            ("vectorized", VectorizedExecutor()),
        ):
            plan = _adaptive_plan(linear_predictor, trace)
            results[name] = BatchRunner(executor=executor).run(plan)
        # The multi-process arm: two fleet workers, merged store read back.
        directory = tmp_path_factory.mktemp("adaptive-fleet")
        FleetCoordinator(_adaptive_plan(linear_predictor, trace), directory, workers=2).run()
        results["fleet"] = StreamingResultStore(directory).load()
        return results

    def test_records_are_bit_identical_across_executors(self, stores):
        reference = stores["serial"]
        for name in ("vectorized", "fleet"):
            for user_id in ("b", "f", "g"):
                assert (
                    stores[name].result_of(user_id).records
                    == reference.result_of(user_id).records
                ), f"{name} diverged for user {user_id}"

    def test_low_limit_users_actually_adapted(self, stores):
        for user_id in ("b", "f"):
            records = stores["serial"].result_of(user_id).records
            limits = {r.comfort_limit_c for r in records}
            assert len(limits) > 1, "the feedback loop never moved the limit"
            assert min(limits) < 37.0

    def test_store_round_trips_adaptive_cells(self, stores, tmp_path):
        path = tmp_path / "adaptive.jsonl"
        stores["serial"].save(path)
        loaded = ResultStore.load(path)
        for user_id in ("b", "f", "g"):
            entry = loaded.get(user_id)
            assert entry.cell.policy.adapter is not None
            assert entry.result.records == stores["serial"].result_of(user_id).records


class TestCellAdapterOverlay:
    def test_cell_adapter_overlays_the_policy(self, linear_predictor):
        policy = PolicySpec(manager=ManagerSpec("usta", params={"skin_limit_c": 37.0}))
        cell = ExperimentCell(
            cell_id="c",
            benchmark="skype",
            policy=policy,
            adapter=AdapterSpec("fixed"),
            predictor=linear_predictor,
        )
        manager = cell.build_manager()
        assert isinstance(manager, AdaptiveComfortManager)
        assert cell.effective_policy().adapter.name == "fixed"

    def test_cell_adapter_requires_a_policy(self):
        with pytest.raises(ValueError, match="adapter is only meaningful"):
            ExperimentCell(cell_id="c", benchmark="skype", adapter=AdapterSpec("fixed"))

    def test_adapter_spec_requires_manager_in_policy(self):
        with pytest.raises(SpecError, match="needs a thermal manager"):
            PolicySpec(adapter=AdapterSpec("fixed"))

    def test_for_user_personalises_params_the_adapter_does_not_learn(self):
        """Adaptive policies keep the initial *skin* limit (the loop learns it)
        but still take every other per-user manager param — the screen limit
        of usta-screen is not adapted and must come from the profile."""
        profile = paper_population()["b"]  # skin 34.3, screen 33.0
        spec = PolicySpec(
            manager=ManagerSpec("usta-screen", params={"skin_limit_c": 37.0}),
            adapter=AdapterSpec("feedback_step"),
        ).for_user(profile)
        assert spec.manager.params["skin_limit_c"] == 37.0
        assert spec.manager.params["screen_limit_c"] == profile.screen_limit_c
        assert spec.adapter.feedback["true_limit_c"] == profile.skin_limit_c


class TestConvergenceReport:
    def test_quantile_tracker_converges_within_half_a_degree(self):
        """Acceptance criterion: within 0.5 °C of every simulated user's true
        limit on the default population (default user included)."""
        rows = adaptation_trajectories("quantile_tracker")
        assert len(rows) == 11
        for row in rows:
            assert row.final_error_c <= 0.5, (
                f"user {row.user_id}: converged to {row.final_limit_c:.2f} °C, "
                f"true limit {row.true_limit_c:.2f} °C"
            )

    def test_fixed_adapter_never_moves_in_the_report(self):
        rows = adaptation_trajectories("fixed", include_default_user=False)
        for row in rows:
            assert set(row.limits_c) == {row.initial_limit_c}
            assert row.final_limit_c == row.initial_limit_c

    def test_trajectories_are_recorded_and_downsampled(self):
        rows = adaptation_trajectories(
            "quantile_tracker", include_default_user=False, trajectory_points=50
        )
        for row in rows:
            assert len(row.times_s) == len(row.limits_c)
            assert len(row.times_s) <= 52
            assert row.limits_c[-1] == row.final_limit_c
            assert row.n_events > 0

    def test_probe_covers_the_population_range(self):
        probe = limit_probe_temperatures()
        population = paper_population()
        assert probe.min() < population.min_skin_limit_c
        assert probe.max() > population.max_skin_limit_c

    def test_render_adaptation(self):
        text = render_adaptation(adaptation_trajectories("quantile_tracker"))
        assert "worst convergence" in text
        assert "quantile_tracker" in text


class TestFrontier:
    def test_frontier_compares_static_oracle_and_adaptive(self, small_context):
        points = comfort_performance_frontier(
            small_context,
            adapters=("feedback_step",),
            duration_s=150.0,
            user_ids=("b", "g"),
        )
        schemes = {(p.user_id, p.scheme) for p in points}
        assert schemes == {
            ("b", "static"), ("b", "oracle"), ("b", "feedback_step"),
            ("g", "static"), ("g", "oracle"), ("g", "feedback_step"),
        }
        for p in points:
            assert p.discomfort_minutes >= 0.0
            assert 0.0 <= p.throughput_loss <= 1.0
        by = {(p.user_id, p.scheme): p for p in points}
        # The oracle runs at the true limit; static and adaptive start at 37.
        assert by[("b", "oracle")].final_limit_c == pytest.approx(34.3)
        assert by[("b", "static")].final_limit_c == pytest.approx(37.0)
        # User b keeps complaining on a warm start, so the loop moved the limit.
        assert by[("b", "feedback_step")].final_limit_c < 37.0
        assert by[("b", "feedback_step")].final_error_c is not None
        rendered = render_frontier(points)
        assert "discomfort min" in rendered and "oracle" in rendered
