"""Tests for the extensions: screen-aware USTA and CSV import/export."""

import numpy as np
import pytest

from repro.core import ScreenAwareUSTAController, USTAController
from repro.core.predictor import RuntimePredictor
from repro.device.freq_table import nexus4_frequency_table
from repro.sim import (
    SystemLogger,
    load_log_csv,
    load_trace_csv,
    run_workload,
    save_log_csv,
    save_result_csv,
    save_trace_csv,
)
from repro.users.population import paper_population
from repro.workloads import WorkloadSample, WorkloadTrace, build_benchmark

TABLE = nexus4_frequency_table()


def readings(cpu=45.0, battery=38.0):
    return {"cpu": cpu, "battery": battery, "skin": cpu - 5.0, "screen": cpu - 7.0}


class TestScreenAwareUSTA:
    """The linear fixture predictor maps skin = cpu - 5 and screen = cpu - 7."""

    def test_requires_a_screen_model(self, linear_predictor):
        skin_only = RuntimePredictor(skin_model=linear_predictor.skin_model)
        with pytest.raises(ValueError):
            ScreenAwareUSTAController(predictor=skin_only, skin_limit_c=37.0)

    def test_screen_limit_validation(self, linear_predictor):
        with pytest.raises(ValueError):
            ScreenAwareUSTAController(
                predictor=linear_predictor, skin_limit_c=37.0, screen_limit_c=10.0
            )

    def test_no_cap_when_both_surfaces_cool(self, linear_predictor):
        controller = ScreenAwareUSTAController(
            predictor=linear_predictor, skin_limit_c=37.0, screen_limit_c=35.0
        )
        decision = controller.observe(0.0, readings(cpu=36.0), 0.5, 1_512_000)
        assert decision.level_cap is None
        assert decision.predicted_screen_temp_c is not None

    def test_screen_limit_can_be_the_binding_constraint(self, linear_predictor):
        # cpu=41: skin prediction 36 (margin 4 to a 40 C skin limit → no skin cap)
        # but screen prediction 34 (margin 1 to a 35 C screen limit → cap).
        controller = ScreenAwareUSTAController(
            predictor=linear_predictor, skin_limit_c=40.0, screen_limit_c=35.0
        )
        decision = controller.observe(0.0, readings(cpu=41.0), 0.8, 1_512_000)
        assert decision.level_cap == TABLE.max_level - 2

    def test_skin_limit_still_enforced(self, linear_predictor):
        controller = ScreenAwareUSTAController(
            predictor=linear_predictor, skin_limit_c=37.0, screen_limit_c=50.0
        )
        decision = controller.observe(0.0, readings(cpu=43.0), 0.8, 1_512_000)
        assert decision.level_cap == TABLE.min_level

    def test_tighter_of_the_two_caps_wins(self, linear_predictor):
        # skin margin ~1.5 C (one level down); screen margin ~0.3 C (min level).
        controller = ScreenAwareUSTAController(
            predictor=linear_predictor, skin_limit_c=37.0, screen_limit_c=33.8
        )
        decision = controller.observe(0.0, readings(cpu=40.5), 0.8, 1_512_000)
        assert decision.level_cap == TABLE.min_level

    def test_for_user_uses_both_limits(self, linear_predictor):
        profile = paper_population()["b"]
        controller = ScreenAwareUSTAController.for_user(linear_predictor, profile)
        assert controller.skin_limit_c == pytest.approx(profile.skin_limit_c)
        assert controller.screen_limit_c == pytest.approx(profile.screen_limit_c)

    def test_at_least_as_protective_as_skin_only_usta(self, linear_predictor):
        trace = build_benchmark("skype", seed=0, duration_s=900)
        skin_only = USTAController(predictor=linear_predictor, skin_limit_c=37.0)
        screen_aware = ScreenAwareUSTAController(
            predictor=linear_predictor, skin_limit_c=37.0, screen_limit_c=34.0
        )
        base = run_workload(trace, governor="ondemand", thermal_manager=skin_only, seed=0)
        strict = run_workload(trace, governor="ondemand", thermal_manager=screen_aware, seed=0)
        assert strict.max_screen_temp_c <= base.max_screen_temp_c + 0.1
        assert strict.average_frequency_ghz <= base.average_frequency_ghz + 1e-9

    def test_governor_label(self, linear_predictor, platform):
        from repro.governors import OndemandGovernor
        from repro.sim import Simulator

        controller = ScreenAwareUSTAController(predictor=linear_predictor, skin_limit_c=37.0)
        simulator = Simulator(
            platform=platform,
            governor=OndemandGovernor(table=platform.freq_table),
            thermal_manager=controller,
        )
        trace = WorkloadTrace.constant("t", 10.0, WorkloadSample(cpu_demand=0.5))
        result = simulator.run(trace)
        assert result.governor_name == "usta-screen+ondemand"


class TestCsvExport:
    def test_trace_round_trip(self, tmp_path):
        trace = build_benchmark("vellamo", seed=2, duration_s=120)
        path = tmp_path / "trace.csv"
        save_trace_csv(trace, path)
        loaded = load_trace_csv(path)
        assert loaded.name == trace.name
        assert loaded.sample_period_s == trace.sample_period_s
        assert len(loaded) == len(trace)
        original = np.array([s.cpu_demand for s in trace])
        restored = np.array([s.cpu_demand for s in loaded])
        assert np.allclose(original, restored, atol=1e-6)
        assert [s.charging for s in loaded] == [s.charging for s in trace]

    @pytest.mark.parametrize("period", ["inf", "nan"])
    def test_trace_load_rejects_non_finite_sample_period(self, tmp_path, period):
        # The period is the simulator's step size; an infinite one used to
        # load and simulate (a 5-step Skype trace reached 48 degC skin).
        path = tmp_path / "trace.csv"
        save_trace_csv(build_benchmark("skype", seed=0, duration_s=5), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = f"sample_period_s,{period}"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="finite and positive"):
            load_trace_csv(path)

    def test_trace_load_rejects_other_files(self, tmp_path):
        path = tmp_path / "not_a_trace.csv"
        path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_trace_csv(path)

    def test_result_export_has_step_rows(self, tmp_path):
        result = run_workload(
            WorkloadTrace.constant("t", 30.0, WorkloadSample(cpu_demand=0.7)), seed=0
        )
        path = tmp_path / "result.csv"
        save_result_csv(result, path)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 31  # header + 30 steps
        assert lines[0].startswith("time_s,")

    def test_log_round_trip(self, tmp_path):
        logger = SystemLogger(period_s=1.0)
        for t in range(5):
            logger.maybe_log(
                float(t),
                "skype",
                {"cpu": 40.0 + t, "battery": 36.0, "skin": 35.0 + t, "screen": 33.0 + t},
                0.5,
                1_134_000,
            )
        path = tmp_path / "log.csv"
        save_log_csv(logger, path)
        loaded = load_log_csv(path)
        assert len(loaded) == 5
        assert loaded.records[0].benchmark == "skype"
        original = logger.to_dataset().target
        restored = loaded.to_dataset().target
        assert np.allclose(original, restored, atol=1e-3)

    def test_log_load_rejects_other_files(self, tmp_path):
        path = tmp_path / "bogus.csv"
        path.write_text("x,y\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_log_csv(path)
