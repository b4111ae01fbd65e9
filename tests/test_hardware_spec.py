"""HardwareSpec: one hashed hardware configuration shared by a batch.

Covers the spec key (equal across seeds and touch states, sensitive to every
hardware constant), the stock sensor layout the batch engine assumes,
state-only population members against sequential platform runs, and the
finite-value guards a byte key relies on (NaN would otherwise hash equal to
NaN).
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.device import Battery, DevicePlatform, FrequencyTable, HardwareSpec
from repro.device.freq_table import NEXUS4_FREQUENCIES_KHZ, NEXUS4_VOLTAGES_MV
from repro.device.power import CpuPowerModel, PlatformPowerModel
from repro.device.sensors import SensorSuite, TemperatureSensor
from repro.governors import OndemandGovernor
from repro.runtime import PopulationMember, VectorizationError, simulate_population_mixed
from repro.runtime.vectorized import _hand_state_solvers
from repro.sim.engine import Simulator
from repro.thermal import HandContact, Nexus4ThermalParameters, ThermalNetwork
from repro.workloads.benchmarks import build_benchmark
from repro.workloads.trace import WorkloadSample, WorkloadTrace

_NON_FINITE = pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
)


def _odd_sensors() -> SensorSuite:
    suite = SensorSuite.nexus4_instrumented()
    suite.sensors["cpu"] = TemperatureSensor("cpu", "cpu", noise_std_c=0.3, quantization_c=1.0)
    return suite


def _odd_table() -> FrequencyTable:
    voltages = list(NEXUS4_VOLTAGES_MV)
    voltages[-1] += 25
    return FrequencyTable(NEXUS4_FREQUENCIES_KHZ, voltages)


class TestSpecKey:
    def test_seed_is_state_not_hardware(self):
        stock = HardwareSpec.nexus4()
        keys = {HardwareSpec.of(DevicePlatform(seed=seed)).key for seed in range(5)}
        assert keys == {stock.key}
        assert HardwareSpec.nexus4() is stock

    @pytest.mark.parametrize(
        "platform_kwargs",
        [
            {"thermal_params": Nexus4ThermalParameters(cpu_board=0.61)},
            {"thermal_params": Nexus4ThermalParameters(cpu_capacitance=5.5)},
            {"thermal_params": replace(Nexus4ThermalParameters(), ambient=replace(
                Nexus4ThermalParameters().ambient, hand_temp_c=34.0))},
            {"sensors": _odd_sensors()},
            {"freq_table": _odd_table()},
            {"battery": Battery(capacity_wh=9.0)},
            {"hand": HandContact(conductance_w_per_c=0.06)},
            {"power_model": PlatformPowerModel(cpu=CpuPowerModel(idle_power_w=0.09))},
        ],
        ids=["conductance", "capacitance", "hand_temp", "sensor", "table", "battery", "hand",
             "power"],
    )
    def test_every_hardware_constant_moves_the_key(self, platform_kwargs):
        odd = HardwareSpec.of(DevicePlatform(seed=3, **platform_kwargs))
        assert odd.key != HardwareSpec.nexus4().key

    def test_int_and_float_constants_hash_alike(self):
        as_int = HardwareSpec.of(DevicePlatform(battery=Battery(capacity_wh=8)))
        assert as_int.key == HardwareSpec.nexus4().key

    def test_spec_does_not_follow_later_platform_changes(self):
        platform = DevicePlatform(seed=1)
        spec = HardwareSpec.of(platform)
        platform.power_model.cpu.idle_power_w = 0.5
        platform.battery.capacity_wh = 3.0
        assert spec.key == HardwareSpec.of(DevicePlatform(seed=1)).key
        assert HardwareSpec.of(platform).key != spec.key

    def test_touch_state_is_not_hardware(self):
        # A reset keeps the touch state the last trace left; the spec
        # describes the network not touching either way.
        held = WorkloadTrace.constant("held", 30, WorkloadSample(cpu_demand=0.7, touching=True))
        platform = DevicePlatform(seed=30)
        Simulator(platform=platform, governor=OndemandGovernor()).run(held)
        platform.reset()
        assert platform.hand.touching
        assert HardwareSpec.of(platform).key == HardwareSpec.nexus4().key

    def test_stock_sensor_layout_is_what_the_batch_engine_assumes(self):
        # The engine adds a noise draw and quantizes every sensor row, reads
        # each sensor from an internal node, and records and feeds the plane
        # from these four sensors by name.
        spec = HardwareSpec.nexus4()
        internal = set(spec.network.internal_names)
        for sensor in spec.sensors:
            assert sensor.noise_std_c > 0, sensor.name
            assert sensor.quantization_c > 0, sensor.name
            assert sensor.node in internal, sensor.name
        assert spec.n_noisy_sensors == len(spec.sensors)
        assert {"cpu", "battery", "skin", "screen"} <= {s.name for s in spec.sensors}

    def test_initial_temperatures_apply_overrides(self):
        spec = HardwareSpec.nexus4()
        temps = spec.initial_temperatures({"cpu": 45.0})
        names = spec.network.internal_names
        assert temps[names.index("cpu")] == 45.0
        assert temps[names.index("battery")] == spec.network.initial_temperatures_vector[
            names.index("battery")
        ]
        with pytest.raises(KeyError, match="nowhere"):
            spec.initial_temperatures({"nowhere": 30.0})


class TestStateOnlyMembers:
    def _traces(self):
        return [
            build_benchmark("skype", seed=0, duration_s=40),
            build_benchmark("youtube", seed=1, duration_s=70),
            WorkloadTrace.constant("held", 30, WorkloadSample(cpu_demand=0.7, touching=True)),
        ]

    def test_spec_members_match_serial_runs(self):
        traces = self._traces()
        warm = {"cpu": 41.0, "back_cover": 31.0}
        by_spec = simulate_population_mixed(
            traces,
            [
                PopulationMember(
                    governor=OndemandGovernor(table=HardwareSpec.nexus4().freq_table),
                    seed=10 + i,
                    initial_temps=warm if i == 1 else None,
                )
                for i in range(len(traces))
            ],
        )
        for i, (trace, result) in enumerate(zip(traces, by_spec)):
            platform = DevicePlatform(seed=10 + i)
            serial = Simulator(
                platform=platform, governor=OndemandGovernor(table=platform.freq_table)
            ).run(trace, initial_temps=warm if i == 1 else None)
            assert result.records == serial.records

    def test_spec_member_refuses_unknown_initial_node(self):
        members = [PopulationMember(governor=OndemandGovernor(), initial_temps={"nowhere": 1.0})]
        with pytest.raises(KeyError):
            simulate_population_mixed(self._traces()[:1], members)

    def test_hand_toggle_that_does_not_round_trip_is_refused(self):
        # (G + 0.37) - 0.37 drifts in the last ulp on the back-cover diagonal:
        # members could not share one step map per touch state, so the batch
        # refuses before any step (the executor then runs the cells serially).
        odd_platform = DevicePlatform(hand=HandContact(conductance_w_per_c=0.37))
        with pytest.raises(VectorizationError, match="round-trip"):
            _hand_state_solvers(HardwareSpec.of(odd_platform))


class TestFiniteHardwareConstants:
    """A NaN constant used to read as 'off' (sensors) or pass a `<= 0` guard."""

    @_NON_FINITE
    @pytest.mark.parametrize(
        "field", ["noise_std_c", "quantization_c", "offset_c"]
    )
    def test_sensor_refuses(self, field, value):
        with pytest.raises(ValueError, match=field):
            TemperatureSensor("x", "cpu", **{field: value})

    def test_nan_sensor_no_longer_reads_clean(self):
        with pytest.raises(ValueError):
            TemperatureSensor("x", "cpu", noise_std_c=math.nan, quantization_c=math.nan)

    @_NON_FINITE
    @pytest.mark.parametrize(
        "field", ["capacity_wh", "nominal_voltage_v", "charge_power_w", "charge_efficiency"]
    )
    def test_battery_refuses(self, field, value):
        with pytest.raises(ValueError, match=field):
            Battery(**{field: value})

    def test_battery_bounds(self):
        with pytest.raises(ValueError, match="charge_efficiency"):
            Battery(charge_efficiency=1.5)
        with pytest.raises(ValueError, match="charge_power_w"):
            Battery(charge_power_w=-1.0)
        Battery(charge_power_w=0.0, charge_efficiency=1.0)

    @_NON_FINITE
    def test_network_refuses_capacitance(self, value):
        net = ThermalNetwork()
        with pytest.raises(ValueError, match="capacitance"):
            net.add_node("a", value)
        net.add_node("b", boundary=True)  # a boundary node's capacitance is unused

    @_NON_FINITE
    def test_network_refuses_conductance(self, value):
        net = ThermalNetwork()
        net.add_node("a", 1.0)
        net.add_node("b", 1.0)
        with pytest.raises(ValueError, match="conductance"):
            net.add_conductance("a", "b", value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.1])
    def test_hand_contact_refuses(self, value):
        with pytest.raises(ValueError, match="conductance_w_per_c"):
            HandContact(conductance_w_per_c=value)
        assert HandContact(conductance_w_per_c=0.0).conductance_w_per_c == 0.0
