"""HardwareSpec: one hashed hardware configuration shared by a batch.

Covers the spec key (equal across seeds, sensitive to every hardware
constant), the failure-path diff that names the differing part, state-only
population members against platform members, and the finite-value guards a
byte key relies on (NaN would otherwise hash equal to NaN).
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
from repro.runtime import PopulationMember, simulate_population_mixed
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
        "platform_kwargs, part",
        [
            ({"thermal_params": Nexus4ThermalParameters(cpu_board=0.61)}, "thermal networks"),
            ({"thermal_params": Nexus4ThermalParameters(cpu_capacitance=5.5)}, "thermal networks"),
            (
                {"thermal_params": replace(Nexus4ThermalParameters(), ambient=replace(
                    Nexus4ThermalParameters().ambient, hand_temp_c=34.0))},
                "boundary temperatures",
            ),
            ({"sensors": _odd_sensors()}, "sensor configurations"),
            ({"freq_table": _odd_table()}, "CPU/frequency tables"),
            ({"battery": Battery(capacity_wh=9.0)}, "battery models"),
            ({"hand": HandContact(conductance_w_per_c=0.06)}, "hand-contact models"),
            (
                {"power_model": PlatformPowerModel(cpu=CpuPowerModel(idle_power_w=0.09))},
                "power models",
            ),
        ],
        ids=["conductance", "capacitance", "hand_temp", "sensor", "table", "battery", "hand",
             "power"],
    )
    def test_every_hardware_constant_moves_the_key(self, platform_kwargs, part):
        stock = HardwareSpec.nexus4()
        odd = HardwareSpec.of(DevicePlatform(seed=3, **platform_kwargs))
        assert odd.key != stock.key
        assert stock.difference(odd).startswith(part)
        assert stock.difference(HardwareSpec.of(DevicePlatform(seed=4))) is None

    def test_int_and_float_constants_hash_alike(self):
        as_int = HardwareSpec.of(DevicePlatform(battery=Battery(capacity_wh=8)))
        assert as_int.key == HardwareSpec.nexus4().key

    def test_spec_does_not_follow_later_platform_changes(self):
        platform = DevicePlatform(seed=1)
        spec = HardwareSpec.of(platform)
        platform.power_model.cpu.idle_power_w = 0.5
        platform.battery.capacity_wh = 3.0
        assert spec.key == HardwareSpec.of(DevicePlatform(seed=1)).key
        assert spec.difference(HardwareSpec.of(platform)) == "power models"

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

    def test_spec_members_match_platform_members_and_serial_runs(self):
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
        platforms = [DevicePlatform(seed=10 + i) for i in range(len(traces))]
        by_platform = simulate_population_mixed(
            traces,
            [
                PopulationMember(
                    governor=OndemandGovernor(table=p.freq_table),
                    platform=p,
                    initial_temps=warm if i == 1 else None,
                )
                for i, p in enumerate(platforms)
            ],
        )
        for i, (trace, a, b) in enumerate(zip(traces, by_spec, by_platform)):
            platform = DevicePlatform(seed=10 + i)
            serial = Simulator(
                platform=platform, governor=OndemandGovernor(table=platform.freq_table)
            ).run(trace, initial_temps=warm if i == 1 else None)
            assert a.records == serial.records
            assert b.records == serial.records
        # Only platform members are written back warm.
        assert platforms[0].time_s == by_platform[0].records[-1].time_s

    def test_batch_leaves_platform_noise_streams_where_a_sequential_run_does(self):
        # A warm follow-up run (reset=False) continues each sensor's noise
        # stream; after a batch it must continue from the same point as after
        # a sequential run, not replay the noise the batch already used.
        first, second = self._traces()[0], self._traces()[1]
        batched = [DevicePlatform(seed=20 + i) for i in range(2)]
        simulate_population_mixed(
            [first, first],
            [PopulationMember(governor=OndemandGovernor(), platform=p) for p in batched],
        )
        for i, platform in enumerate(batched):
            serial = DevicePlatform(seed=20 + i)
            Simulator(platform=serial, governor=OndemandGovernor()).run(first)
            after_serial = Simulator(platform=serial, governor=OndemandGovernor()).run(
                second, reset=False
            )
            after_batch = Simulator(platform=platform, governor=OndemandGovernor()).run(
                second, reset=False
            )
            assert after_batch.records == after_serial.records

    def test_platforms_left_in_different_touch_states_rebatch(self):
        # A reset keeps the touch state the last trace left; the spec must not
        # read it as hardware, or the second batch refuses "different thermal
        # networks".  Swapping the traces flips each platform's first tick.
        held = WorkloadTrace.constant("held", 30, WorkloadSample(cpu_demand=0.7, touching=True))
        table = WorkloadTrace.constant("table", 30, WorkloadSample(cpu_demand=0.7, touching=False))
        batched = [DevicePlatform(seed=30 + i) for i in range(2)]
        serial = [DevicePlatform(seed=30 + i) for i in range(2)]
        for traces in ([held, table], [table, held]):
            results = simulate_population_mixed(
                traces,
                [PopulationMember(governor=OndemandGovernor(), platform=p) for p in batched],
            )
            assert [p.hand.touching for p in batched] == [t.samples[-1].touching for t in traces]
            for trace, platform, result in zip(traces, serial, results):
                expected = Simulator(platform=platform, governor=OndemandGovernor()).run(trace)
                assert result.records == expected.records
        batched[1].reset()  # still touching: its spec is the stock hardware
        assert batched[1].hand.touching
        assert HardwareSpec.of(batched[1]).key == HardwareSpec.nexus4().key

    def test_spec_member_refuses_unknown_initial_node(self):
        members = [PopulationMember(governor=OndemandGovernor(), initial_temps={"nowhere": 1.0})]
        with pytest.raises(KeyError):
            simulate_population_mixed(self._traces()[:1], members)

    def test_mixed_specs_are_rejected_by_name(self):
        from repro.runtime import VectorizationError

        odd = DevicePlatform(seed=1, battery=Battery(capacity_wh=9.0))
        members = [
            PopulationMember(governor=OndemandGovernor()),
            PopulationMember(governor=OndemandGovernor(), platform=odd),
        ]
        with pytest.raises(VectorizationError, match="different battery models"):
            simulate_population_mixed(self._traces()[:2], members)


    def test_hand_toggle_that_does_not_round_trip_is_refused(self):
        # (G + 0.37) - 0.37 drifts in the last ulp on the back-cover diagonal:
        # members could not share one step map per touch state, so the batch
        # refuses before any step (the executor then runs the cells serially).
        from repro.runtime import VectorizationError

        platform = DevicePlatform(hand=HandContact(conductance_w_per_c=0.37))
        members = [PopulationMember(governor=OndemandGovernor(), platform=platform)]
        with pytest.raises(VectorizationError, match="round-trip"):
            simulate_population_mixed(self._traces()[:1], members)


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
