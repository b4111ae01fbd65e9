"""Tests for the system logger and the simulation result container."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sim.logger import FEATURE_NAMES, SCREEN_TARGET, SKIN_TARGET, SystemLogger
from repro.sim.results import SimulationResult, StepRecord


def make_record(time_s, skin=35.0, screen=33.0, freq=1_134_000, util=0.5, demand=0.5,
                delivered=0.5, power=3.0, usta_active=False, cap=11):
    return StepRecord(
        time_s=time_s,
        frequency_khz=freq,
        frequency_level=7,
        level_cap=cap,
        utilization=util,
        demand=demand,
        delivered_work=delivered,
        power_w=power,
        cpu_temp_c=skin + 6.0,
        battery_temp_c=skin - 1.0,
        skin_temp_c=skin,
        screen_temp_c=screen,
        sensor_cpu_temp_c=skin + 6.0,
        sensor_battery_temp_c=skin - 1.0,
        sensor_skin_temp_c=skin,
        sensor_screen_temp_c=screen,
        usta_active=usta_active,
    )


def make_result(skins, usta_active=False):
    result = SimulationResult(workload_name="w", governor_name="ondemand", dt_s=1.0)
    for i, skin in enumerate(skins):
        result.append(make_record(float(i + 1), skin=skin, usta_active=usta_active))
    return result


class TestSystemLogger:
    def readings(self, skin=35.0):
        return {"cpu": skin + 6.0, "battery": skin - 1.0, "skin": skin, "screen": skin - 2.0}

    def test_logs_first_sample_immediately(self):
        logger = SystemLogger(period_s=3.0)
        record = logger.maybe_log(1.0, "skype", self.readings(), 0.5, 1_134_000)
        assert record is not None
        assert len(logger) == 1

    def test_respects_logging_period(self):
        logger = SystemLogger(period_s=3.0)
        logger.maybe_log(1.0, "skype", self.readings(), 0.5, 1_000_000)
        assert logger.maybe_log(2.0, "skype", self.readings(), 0.5, 1_000_000) is None
        assert logger.maybe_log(4.0, "skype", self.readings(), 0.5, 1_000_000) is not None
        assert len(logger) == 2

    def test_record_fields(self):
        logger = SystemLogger()
        record = logger.maybe_log(0.0, "youtube", self.readings(34.0), 0.25, 384_000)
        assert record.benchmark == "youtube"
        assert record.cpu_temp_c == pytest.approx(40.0)
        assert record.skin_temp_c == pytest.approx(34.0)
        assert record.frequency_khz == 384_000.0
        assert set(record.as_dict()) >= {"cpu_temp_c", "battery_temp_c", "utilization", "frequency_khz"}

    def test_reset_clears_records_and_clock(self):
        logger = SystemLogger(period_s=3.0)
        logger.maybe_log(0.0, "a", self.readings(), 0.5, 1_000_000)
        logger.reset()
        assert len(logger) == 0
        assert logger.maybe_log(0.5, "a", self.readings(), 0.5, 1_000_000) is not None

    def test_to_dataset_skin_and_screen(self):
        logger = SystemLogger(period_s=1.0)
        for t in range(5):
            logger.maybe_log(float(t), "a", self.readings(34.0 + t), 0.5, 1_000_000)
        skin = logger.to_dataset(SKIN_TARGET)
        screen = logger.to_dataset(SCREEN_TARGET)
        assert skin.feature_names == FEATURE_NAMES
        assert len(skin) == 5
        assert np.allclose(skin.target, [34.0, 35.0, 36.0, 37.0, 38.0])
        assert np.allclose(screen.target, skin.target - 2.0)

    def test_to_dataset_requires_records_and_valid_target(self):
        logger = SystemLogger()
        with pytest.raises(ValueError):
            logger.to_dataset()
        logger.maybe_log(0.0, "a", self.readings(), 0.5, 1_000_000)
        with pytest.raises(ValueError):
            logger.to_dataset("cpu_temp_c")

    def test_extend_pools_records(self):
        a, b = SystemLogger(), SystemLogger()
        a.maybe_log(0.0, "a", self.readings(), 0.5, 1_000_000)
        b.maybe_log(0.0, "b", self.readings(), 0.5, 1_000_000)
        a.extend(b)
        assert len(a) == 2

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            SystemLogger(period_s=0.0)

    @given(
        dt=st.sampled_from([0.1, 0.3, 1.0, 0.7, 1 / 3]),
        period=st.sampled_from([0.3, 0.9, 2.5, 3.0, 1.0]),
        ticks=st.integers(1, 400),
        cuts=st.lists(st.integers(1, 399), max_size=6),
    )
    def test_log_columns_equals_per_tick_maybe_log(self, dt, period, ticks, cuts):
        # Times accumulate like the engine's clock, so they drift off the
        # period grid; the columns may arrive in windows of any size.
        times, clock = [], 0.0
        for _ in range(ticks):
            clock += dt
            times.append(clock)
        rng = np.random.default_rng(ticks)
        columns = [rng.normal(40.0, 3.0, ticks) for _ in range(6)]
        columns[3] = rng.choice([384_000, 1_512_000], ticks)
        per_tick = SystemLogger(period_s=period)
        for i, t in enumerate(times):
            readings = {
                "cpu": float(columns[0][i]),
                "battery": float(columns[1][i]),
                "skin": float(columns[4][i]),
                "screen": float(columns[5][i]),
            }
            per_tick.maybe_log(t, "w", readings, float(columns[2][i]), int(columns[3][i]))
        windowed = SystemLogger(period_s=period)
        bounds = [0] + sorted(c for c in set(cuts) if c < ticks) + [ticks]
        for start, stop in zip(bounds, bounds[1:]):
            windowed.log_columns(
                times[start:stop], "w", *(column[start:stop] for column in columns)
            )
        assert windowed.records == per_tick.records
        assert windowed == per_tick

    def test_log_columns_settles_on_the_exact_comparison(self):
        # last + threshold rounds above the first tick whose difference from
        # last already reaches the threshold; the bisect must step back to it.
        last, threshold = 0.7, 2.5 - 1e-9
        t = 3.1999999989999997
        assert t - last >= threshold and t < last + threshold
        logger = SystemLogger(period_s=2.5)
        columns = [np.zeros(4)] * 6
        logger.log_columns([last, t - 1e-6, t, t + 1.0], "w", *columns)
        assert [r.time_s for r in logger.records] == [last, t]


class TestSimulationResult:
    def test_summary_metrics(self):
        result = make_result([34.0, 36.0, 38.0, 37.0])
        assert result.max_skin_temp_c == 38.0
        assert result.max_screen_temp_c == 33.0
        assert result.duration_s == 4.0
        assert result.average_frequency_ghz == pytest.approx(1.134)
        assert result.average_power_w == pytest.approx(3.0)
        assert result.total_energy_j == pytest.approx(12.0)

    def test_throughput_ratio(self):
        result = make_result([34.0] * 4)
        assert result.throughput_ratio == pytest.approx(1.0)
        starved = SimulationResult("w", "g", 1.0)
        starved.append(make_record(1.0, demand=1.0, delivered=0.25))
        assert starved.throughput_ratio == pytest.approx(0.25)

    def test_throughput_ratio_with_zero_demand(self):
        idle = SimulationResult("w", "g", 1.0)
        idle.append(make_record(1.0, demand=0.0, delivered=0.0))
        assert idle.throughput_ratio == 1.0

    def test_usta_active_fraction(self):
        result = SimulationResult("w", "g", 1.0)
        result.append(make_record(1.0, usta_active=True))
        result.append(make_record(2.0, usta_active=False))
        assert result.usta_active_fraction == pytest.approx(0.5)

    def test_comfort_analysis_integration(self):
        result = make_result([34.0, 38.0, 39.0, 36.0])
        analysis = result.comfort_against(37.0, user_id="default")
        assert analysis.time_over_limit_s == 2.0
        assert result.percent_time_over(37.0) == pytest.approx(50.0)

    def test_time_series_accessors(self):
        result = make_result([34.0, 35.0])
        assert result.times_s().tolist() == [1.0, 2.0]
        assert result.skin_temps_c().tolist() == [34.0, 35.0]
        assert len(result.frequencies_khz()) == 2
        assert len(result.utilizations()) == 2
        assert len(result.cpu_temps_c()) == 2
        assert len(result.battery_temps_c()) == 2

    def test_empty_result_edge_cases(self):
        empty = SimulationResult("w", "g", 1.0)
        assert len(empty) == 0
        assert np.isnan(empty.max_skin_temp_c)
        assert empty.usta_active_fraction == 0.0
        assert empty.total_energy_j == 0.0

    def test_summary_and_records_export(self):
        result = make_result([34.0, 35.0])
        summary = result.summary()
        assert set(summary) >= {"max_skin_temp_c", "max_screen_temp_c", "average_frequency_ghz"}
        records = result.to_records()
        assert len(records) == 2
        assert records[0]["skin_temp_c"] == 34.0
