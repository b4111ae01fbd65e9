"""Tests for the runtime predictor and the USTA controller."""

import numpy as np
import pytest

from repro.core.policy import ThrottlePolicy
from repro.core.predictor import PredictionFeatures, RuntimePredictor
from repro.core.usta import USTAController
from repro.device.freq_table import nexus4_frequency_table
from repro.governors import OndemandGovernor
from repro.ml.linear import LinearRegression
from repro.sim.engine import Simulator
from repro.sim.experiments import run_workload
from repro.users.population import paper_population
from repro.workloads import WorkloadSample, WorkloadTrace

TABLE = nexus4_frequency_table()


def readings(cpu=45.0, battery=38.0):
    return {"cpu": cpu, "battery": battery, "skin": cpu - 5.0, "screen": cpu - 7.0}


class TestPredictionFeatures:
    def test_vector_order_matches_training_columns(self):
        features = PredictionFeatures(45.0, 38.0, 0.6, 1_134_000.0)
        assert features.as_vector().tolist() == [45.0, 38.0, 0.6, 1_134_000.0]

    def test_from_readings(self):
        features = PredictionFeatures.from_readings(readings(50.0, 39.0), 0.7, 918_000)
        assert features.cpu_temp_c == 50.0
        assert features.battery_temp_c == 39.0
        assert features.utilization == 0.7
        assert features.frequency_khz == 918_000.0


class TestRuntimePredictor:
    def test_predicts_skin_and_screen(self, linear_predictor):
        features = PredictionFeatures(45.0, 40.0, 0.5, 1_026_000.0)
        prediction = linear_predictor.predict(features)
        assert prediction.skin_temp_c == pytest.approx(40.0, abs=0.5)
        assert prediction.screen_temp_c == pytest.approx(38.0, abs=0.5)
        assert prediction.latency_s >= 0.0

    def test_screen_prediction_can_be_skipped(self, linear_predictor):
        prediction = linear_predictor.predict(
            PredictionFeatures(45.0, 40.0, 0.5, 1_026_000.0), predict_screen=False
        )
        assert prediction.screen_temp_c is None

    def test_predict_from_readings(self, linear_predictor):
        prediction = linear_predictor.predict_from_readings(readings(cpu=50.0), 0.4, 918_000)
        assert prediction.skin_temp_c == pytest.approx(45.0, abs=0.5)

    def test_requires_fitted_models(self):
        with pytest.raises(ValueError):
            RuntimePredictor(skin_model=LinearRegression())

    def test_batch_arrays_match_model_predict_bitwise(self, small_predictor):
        # The batch path validates its matrix once and calls predict_matrix;
        # every row keeps the bits of the model's own validating predict.
        rng = np.random.default_rng(5)
        matrix = np.column_stack(
            [
                rng.uniform(25.0, 60.0, 10),
                rng.uniform(22.0, 58.0, 10),
                rng.uniform(0.0, 1.0, 10),
                rng.uniform(384_000.0, 1_512_000.0, 10),
            ]
        )
        batched = small_predictor.predict_batch_arrays(matrix)
        for model, got in (
            (small_predictor.skin_model, batched.skin_temp_c),
            (small_predictor.screen_model, batched.screen_temp_c),
        ):
            assert got.tobytes() == model.predict(matrix.tolist()).tobytes()

    def test_predict_matrix_keeps_the_fitted_check(self):
        with pytest.raises(RuntimeError, match="must be fitted"):
            LinearRegression().predict_matrix(np.zeros((1, 4)))

    def test_rejects_unknown_feature_order(self, linear_predictor):
        with pytest.raises(ValueError):
            RuntimePredictor(
                skin_model=linear_predictor.skin_model,
                feature_names=("a", "b", "c", "d"),
            )

    def test_model_name_reported(self, linear_predictor, small_predictor):
        assert linear_predictor.model_name == "linear_regression"
        assert small_predictor.model_name == "reptree"

    def test_measure_overhead(self, linear_predictor):
        features = [PredictionFeatures(40.0 + i, 37.0, 0.5, 1_026_000.0) for i in range(5)]
        overhead = linear_predictor.measure_overhead(features, repeats=3)
        assert overhead["skin_latency_s"] > 0.0
        assert overhead["total_latency_s"] >= overhead["skin_latency_s"]
        # Far below the paper's 12 ms budget per 3-second window.
        assert overhead["total_latency_s"] < 0.05

    def test_measure_overhead_requires_samples(self, linear_predictor):
        with pytest.raises(ValueError):
            linear_predictor.measure_overhead([])

    def test_trained_small_predictor_is_accurate_on_training_data(
        self, small_predictor, small_training_data
    ):
        data = small_training_data.skin_dataset()
        predictions = small_predictor.skin_model.predict(data.features)
        mae = float(np.mean(np.abs(predictions - data.target)))
        assert mae < 0.5


class TestUSTAController:
    """The controller is driven directly through its observe() interface.

    The linear predictor maps ``skin = cpu_temp - 5``; with the default 37 °C
    limit the activation threshold (35 °C) corresponds to a 40 °C CPU reading.
    """

    def make_usta(self, limit=37.0, period=3.0, **kwargs):
        predictor = kwargs.pop("predictor")
        return USTAController(
            predictor=predictor, skin_limit_c=limit, prediction_period_s=period, **kwargs
        )

    def test_no_cap_when_cool(self, linear_predictor):
        usta = self.make_usta(predictor=linear_predictor)
        decision = usta.observe(0.0, readings(cpu=35.0), 0.5, 1_512_000)
        assert decision.level_cap is None
        assert not decision.active
        assert decision.predicted_skin_temp_c == pytest.approx(30.0, abs=0.5)

    def test_one_level_cap_inside_two_degrees(self, linear_predictor):
        usta = self.make_usta(predictor=linear_predictor)
        decision = usta.observe(0.0, readings(cpu=40.6), 0.9, 1_512_000)
        assert decision.level_cap == TABLE.max_level - 1

    def test_two_level_cap_inside_one_degree(self, linear_predictor):
        usta = self.make_usta(predictor=linear_predictor)
        decision = usta.observe(0.0, readings(cpu=41.2), 0.9, 1_512_000)
        assert decision.level_cap == TABLE.max_level - 2

    def test_minimum_frequency_at_or_above_limit(self, linear_predictor):
        usta = self.make_usta(predictor=linear_predictor)
        decision = usta.observe(0.0, readings(cpu=43.0), 0.9, 1_512_000)
        assert decision.level_cap == TABLE.min_level

    def test_prediction_period_is_respected(self, linear_predictor):
        usta = self.make_usta(predictor=linear_predictor, period=3.0)
        usta.observe(0.0, readings(cpu=35.0), 0.5, 1_512_000)
        assert usta.prediction_count == 1
        # Within the same 3-second window: no new prediction, previous cap kept.
        usta.observe(1.0, readings(cpu=50.0), 0.5, 1_512_000)
        assert usta.prediction_count == 1
        # After the window elapses the hot reading is finally acted upon.
        decision = usta.observe(3.0, readings(cpu=50.0), 0.5, 1_512_000)
        assert usta.prediction_count == 2
        assert decision.level_cap == TABLE.min_level

    def test_cap_is_released_when_device_cools(self, linear_predictor):
        usta = self.make_usta(predictor=linear_predictor)
        assert usta.observe(0.0, readings(cpu=43.0), 0.9, 384_000).level_cap == TABLE.min_level
        decision = usta.observe(3.0, readings(cpu=36.0), 0.2, 384_000)
        assert decision.level_cap is None

    def test_reset_clears_state(self, linear_predictor):
        usta = self.make_usta(predictor=linear_predictor)
        usta.observe(0.0, readings(cpu=43.0), 0.9, 1_512_000)
        usta.reset()
        assert usta.prediction_count == 0
        assert usta.current_cap is None
        assert usta.last_prediction_c is None

    def test_latency_statistics_accumulate(self, linear_predictor):
        usta = self.make_usta(predictor=linear_predictor)
        for t in (0.0, 3.0, 6.0):
            usta.observe(t, readings(), 0.5, 1_512_000)
        assert usta.prediction_count == 3
        assert usta.average_prediction_latency_s > 0.0

    def test_for_user_uses_profile_limit(self, linear_predictor):
        profile = paper_population()["f"]  # 34.0 C
        usta = USTAController.for_user(linear_predictor, profile)
        assert usta.skin_limit_c == pytest.approx(34.0)
        assert usta.activation_temp_c == pytest.approx(32.0)

    def test_custom_policy_is_used(self, linear_predictor):
        usta = self.make_usta(predictor=linear_predictor, policy=ThrottlePolicy.aggressive())
        decision = usta.observe(0.0, readings(cpu=39.5), 0.9, 1_512_000)  # margin 2.5 C
        assert decision.level_cap is not None

    def test_invalid_parameters(self, linear_predictor):
        with pytest.raises(ValueError):
            USTAController(predictor=linear_predictor, prediction_period_s=0.0)
        with pytest.raises(ValueError):
            USTAController(predictor=linear_predictor, skin_limit_c=10.0)


class TestUSTAInTheLoop:
    """Closed-loop behaviour on the simulated platform."""

    def heavy_trace(self, duration=1500):
        return WorkloadTrace.constant(
            "stress", duration, WorkloadSample(cpu_demand=0.95, gpu_activity=0.3, brightness=0.9)
        )

    def test_usta_reduces_peak_skin_temperature(self, linear_predictor):
        trace = self.heavy_trace()
        baseline = run_workload(trace, governor="ondemand", seed=2)
        usta = USTAController(predictor=linear_predictor, skin_limit_c=34.0)
        managed = run_workload(trace, governor="ondemand", thermal_manager=usta, seed=2)
        assert baseline.max_skin_temp_c > 34.0
        assert managed.max_skin_temp_c < baseline.max_skin_temp_c - 0.5
        assert managed.average_frequency_ghz < baseline.average_frequency_ghz
        assert managed.usta_active_fraction > 0.0

    def test_usta_does_nothing_for_a_very_tolerant_user(self, linear_predictor):
        trace = self.heavy_trace(600)
        baseline = run_workload(trace, governor="ondemand", seed=2)
        usta = USTAController(predictor=linear_predictor, skin_limit_c=55.0)
        managed = run_workload(trace, governor="ondemand", thermal_manager=usta, seed=2)
        assert managed.max_skin_temp_c == pytest.approx(baseline.max_skin_temp_c, abs=0.2)
        assert managed.usta_active_fraction == 0.0

    def test_governor_label_includes_usta(self, linear_predictor, platform):
        usta = USTAController(predictor=linear_predictor, skin_limit_c=37.0)
        simulator = Simulator(
            platform=platform, governor=OndemandGovernor(table=platform.freq_table), thermal_manager=usta
        )
        result = simulator.run(self.heavy_trace(30))
        assert result.governor_name == "usta+ondemand"

    def test_predictions_recorded_in_step_records(self, linear_predictor, platform):
        usta = USTAController(predictor=linear_predictor, skin_limit_c=37.0)
        simulator = Simulator(
            platform=platform, governor=OndemandGovernor(table=platform.freq_table), thermal_manager=usta
        )
        result = simulator.run(self.heavy_trace(30))
        assert all(r.predicted_skin_temp_c is not None for r in result.records)
