"""Tests for the batched experiment runtime and the prefactored thermal path.

The contract under test: every executor of the batched runtime (serial,
process pool, vectorized population) is a drop-in replacement for sequential
:meth:`Simulator.run` calls — bit-for-bit identical ``StepRecord`` streams —
and the prefactored implicit thermal stepping is numerically identical to the
seed's unfactored solve.
"""

import numpy as np
import pytest

from repro.device.platform import DevicePlatform
from repro.governors import ConservativeGovernor, OndemandGovernor, create_governor
from repro.runtime import (
    BatchRunner,
    ConstantManagerFactory,
    ExperimentCell,
    ExperimentPlan,
    PopulationMember,
    ProcessPoolCellExecutor,
    ResultStore,
    SerialExecutor,
    VectorizationError,
    VectorizedExecutor,
    run_cell,
    simulate_population,
)
from repro.runtime.stream import CollectorSink
from repro.sim.engine import ManagerDecision, SimulationKernel, Simulator
from repro.sim.results import SimulationResult, StepRecord
from repro.thermal import (
    Nexus4ThermalParameters,
    ThermalNetwork,
    ThermalSolver,
    build_nexus4_network,
)
from repro.workloads import WorkloadSample, WorkloadTrace
from repro.workloads.benchmarks import build_benchmark


class ThresholdManager:
    """Deterministic, picklable stand-in for USTA (no trained predictor needed)."""

    name = "thresh"

    def __init__(self, limit_c: float = 33.0):
        self.limit_c = limit_c
        self._cap = None

    def reset(self) -> None:
        self._cap = None

    def observe(self, time_s, sensor_readings, utilization, frequency_khz):
        skin = sensor_readings.get("skin", 0.0)
        if skin > self.limit_c:
            self._cap = 3
        elif skin < self.limit_c - 1.0:
            self._cap = None
        return ManagerDecision(level_cap=self._cap, predicted_skin_temp_c=skin)


def unfactored_implicit_step(network, dt_s, power_w):
    """The seed implementation of one backward-Euler step (reference)."""
    c = network.capacitances
    g = network.conductance_matrix
    t_old = network.temperatures_vector
    rhs_const = network.boundary_coupling @ network.boundary_temperatures_vector
    p = network.power_vector(power_w)
    a = np.diag(c / dt_s) + g
    b = (c / dt_s) * t_old + rhs_const + p
    return np.linalg.solve(a, b)


POWER = {"cpu": 2.5, "screen": 0.5, "board": 0.6, "battery": 0.2}


class TestPrefactoredSolver:
    def test_matches_unfactored_solve(self):
        reference = build_nexus4_network()
        network = build_nexus4_network()
        solver = ThermalSolver(network)
        for _ in range(200):
            expected = unfactored_implicit_step(reference, 1.0, POWER)
            reference.apply_temperature_vector(expected)
            solver.step(1.0, POWER)
            np.testing.assert_allclose(
                network.temperatures_vector, expected, rtol=0, atol=1e-10
            )

    def test_invalidated_by_conductance_change(self):
        reference = build_nexus4_network()
        network = build_nexus4_network()
        solver = ThermalSolver(network)
        solver.step(1.0, POWER)
        reference.apply_temperature_vector(unfactored_implicit_step(reference, 1.0, POWER))
        for net in (network, reference):
            net.set_conductance("back_cover", "hand", 0.05)
        solver.step(1.0, POWER)
        reference.apply_temperature_vector(unfactored_implicit_step(reference, 1.0, POWER))
        np.testing.assert_allclose(
            network.temperatures_vector, reference.temperatures_vector, rtol=0, atol=1e-10
        )

    def test_invalidated_by_boundary_temperature_change(self):
        reference = build_nexus4_network()
        network = build_nexus4_network()
        solver = ThermalSolver(network)
        solver.step(1.0, POWER)
        reference.apply_temperature_vector(unfactored_implicit_step(reference, 1.0, POWER))
        for net in (network, reference):
            net.set_boundary_temperature("ambient", 31.0)
        solver.step(1.0, POWER)
        reference.apply_temperature_vector(unfactored_implicit_step(reference, 1.0, POWER))
        np.testing.assert_allclose(
            network.temperatures_vector, reference.temperatures_vector, rtol=0, atol=1e-10
        )

    def test_invalidated_by_dt_change(self):
        reference = build_nexus4_network()
        network = build_nexus4_network()
        solver = ThermalSolver(network)
        for dt in (1.0, 1.0, 0.25, 2.0, 1.0):
            reference.apply_temperature_vector(unfactored_implicit_step(reference, dt, POWER))
            solver.step(dt, POWER)
            np.testing.assert_allclose(
                network.temperatures_vector,
                reference.temperatures_vector,
                rtol=0,
                atol=1e-10,
            )

    def test_network_version_counters(self):
        network = build_nexus4_network()
        matrix_version = network.matrix_version
        boundary_version = network.boundary_version
        network.set_conductance("back_cover", "hand", 0.05)
        assert network.matrix_version == matrix_version + 1
        network.set_boundary_temperature("ambient", 30.0)
        assert network.boundary_version == boundary_version + 1
        network.set_temperatures({"hand": 34.0})
        assert network.boundary_version == boundary_version + 2
        # Internal-only updates leave both counters alone.
        matrix_version = network.matrix_version
        boundary_version = network.boundary_version
        network.set_temperatures({"cpu": 50.0})
        assert network.matrix_version == matrix_version
        assert network.boundary_version == boundary_version

    def test_run_uses_exact_step_count(self):
        # 0.1 does not divide 360 exactly in binary; the elapsed-accumulator
        # of the seed implementation could drift over long horizons.
        network = build_nexus4_network()
        reference = build_nexus4_network()
        solver = ThermalSolver(network)
        ref_solver = ThermalSolver(reference)
        solver.run(360.0, 0.1, POWER)
        for _ in range(3600):
            ref_solver.step(0.1, POWER)
        assert np.array_equal(network.temperatures_vector, reference.temperatures_vector)

    def test_run_handles_partial_final_step(self):
        network = build_nexus4_network()
        reference = build_nexus4_network()
        ThermalSolver(network).run(2.5, 1.0, POWER)
        ref_solver = ThermalSolver(reference)
        ref_solver.step(1.0, POWER)
        ref_solver.step(1.0, POWER)
        ref_solver.step(0.5, POWER)
        assert np.array_equal(network.temperatures_vector, reference.temperatures_vector)


class TestStepMany:
    def _solvers(self, n):
        return [ThermalSolver(build_nexus4_network()) for _ in range(n)]

    def test_exact_matches_scalar_steps_bitwise(self):
        scalar = self._solvers(4)
        template = ThermalSolver(build_nexus4_network())
        temps = np.stack([s.network.temperatures_vector for s in scalar], axis=1)
        rng = np.random.default_rng(3)
        cpu_index = template.network.internal_names.index("cpu")
        for _ in range(50):
            powers = rng.uniform(0.0, 4.0, size=4)
            power_matrix = np.zeros_like(temps)
            power_matrix[cpu_index] = powers
            temps = template.step_many(1.0, power_matrix, temps)
            for j, s in enumerate(scalar):
                s.step(1.0, {"cpu": float(powers[j])})
                assert np.array_equal(temps[:, j], s.network.temperatures_vector)

    def test_blocked_mode_matches_to_1e10(self):
        scalar = self._solvers(3)
        template = ThermalSolver(build_nexus4_network())
        temps = np.stack([s.network.temperatures_vector for s in scalar], axis=1)
        for _ in range(50):
            power_matrix = np.zeros_like(temps)
            power_matrix[0] = (1.0, 2.0, 3.0)
            temps = template.step_many(1.0, power_matrix, temps, exact=False)
        for j, s in enumerate(scalar):
            for _ in range(50):
                s.step(1.0, {s.network.internal_names[0]: float(j + 1)})
            np.testing.assert_allclose(
                temps[:, j], s.network.temperatures_vector, rtol=0, atol=1e-10
            )

    def test_requires_implicit_method(self):
        solver = ThermalSolver(build_nexus4_network(), method="explicit")
        with pytest.raises(ValueError, match="implicit"):
            solver.step_many(1.0, np.zeros((6, 2)), np.zeros((6, 2)))

    def test_rejects_mismatched_shapes(self):
        solver = ThermalSolver(build_nexus4_network())
        with pytest.raises(ValueError, match="shape"):
            solver.step_many(1.0, np.zeros((6, 2)), np.zeros((6, 3)))


class TestSimulationKernel:
    def test_simulator_run_equals_manual_kernel_loop(self):
        trace = build_benchmark("youtube", seed=0, duration_s=90)
        p1 = DevicePlatform(seed=0)
        result = Simulator(platform=p1, governor=OndemandGovernor(table=p1.freq_table)).run(trace)

        p2 = DevicePlatform(seed=0)
        kernel = SimulationKernel(platform=p2, governor=OndemandGovernor(table=p2.freq_table))
        kernel.reset()
        manual = SimulationResult(
            workload_name=trace.name, governor_name=kernel.governor_label(), dt_s=trace.sample_period_s
        )
        for sample in trace:
            manual.append(kernel.step(sample, trace.sample_period_s, trace.name))
        assert result.records == manual.records
        assert result.governor_name == manual.governor_name

    def test_governor_label_includes_manager(self):
        platform = DevicePlatform(seed=0)
        kernel = SimulationKernel(
            platform=platform,
            governor=OndemandGovernor(table=platform.freq_table),
            thermal_manager=ThresholdManager(),
        )
        assert kernel.governor_label() == "thresh+ondemand"


class TestExperimentPlan:
    def test_from_product_grid(self):
        plan = ExperimentPlan.from_product(
            benchmarks=("skype", "youtube"),
            governors=("ondemand",),
            managers={"baseline": None, "thresh": ThresholdManager},
            seeds=(0, 1),
            duration_scale=0.1,
        )
        assert len(plan) == 2 * 1 * 2 * 2
        ids = [cell.cell_id for cell in plan]
        assert "skype/ondemand/baseline/seed0" in ids
        assert "youtube/ondemand/thresh/seed1" in ids
        cell = next(iter(plan))
        assert cell.metadata["benchmark"] == "skype"

    def test_duplicate_cell_ids_rejected(self):
        cell = ExperimentCell(cell_id="x", benchmark="skype")
        with pytest.raises(ValueError, match="duplicate"):
            ExperimentPlan([cell, cell])
        plan = ExperimentPlan([cell])
        with pytest.raises(ValueError, match="duplicate"):
            plan.add(ExperimentCell(cell_id="x", benchmark="youtube"))

    def test_cell_requires_workload(self):
        with pytest.raises(ValueError, match="benchmark name or an explicit trace"):
            ExperimentCell(cell_id="x")

    def test_population_plan_shares_trace(self):
        trace = build_benchmark("skype", seed=0, duration_s=30)
        plan = ExperimentPlan.population(
            trace, managers={"a": None, "b": None}, seeds=(0, 1)
        )
        assert len(plan) == 4
        assert all(cell.trace is trace for cell in plan)

    def test_with_metadata_merges(self):
        cell = ExperimentCell(cell_id="x", benchmark="skype", metadata={"a": 1})
        enriched = cell.with_metadata(b=2)
        assert enriched.metadata == {"a": 1, "b": 2}
        assert cell.metadata == {"a": 1}


class TestResultStore:
    def test_lookup_and_select(self):
        from repro.runtime.store import CellResult

        store = ResultStore()
        for name, scheme in (("a", "baseline"), ("b", "usta")):
            cell = ExperimentCell(cell_id=name, benchmark="skype", metadata={"scheme": scheme})
            result = SimulationResult(workload_name="skype", governor_name="x", dt_s=1.0)
            store.append(CellResult(cell=cell, result=result))
        assert store.get("a").cell.cell_id == "a"
        assert store.result_of("b").governor_name == "x"
        assert len(store.select(scheme="usta")) == 1
        assert store.one(scheme="baseline").cell.cell_id == "a"
        with pytest.raises(LookupError):
            store.one(scheme="missing")

    def test_duplicate_append_rejected(self):
        from repro.runtime.store import CellResult

        store = ResultStore()
        cell = ExperimentCell(cell_id="a", benchmark="skype")
        result = SimulationResult(workload_name="skype", governor_name="x", dt_s=1.0)
        store.append(CellResult(cell=cell, result=result))
        with pytest.raises(ValueError, match="duplicate"):
            store.append(CellResult(cell=cell, result=result))


def _reference_results(cells):
    """Sequential Simulator.run references for a list of cells."""
    references = []
    for cell in cells:
        trace = cell.build_trace()
        platform = DevicePlatform(seed=cell.seed)
        governor = (
            cell.governor
            if not isinstance(cell.governor, str)
            else create_governor(cell.governor, table=platform.freq_table)
        )
        simulator = Simulator(
            platform=platform,
            governor=governor,
            thermal_manager=cell.build_manager(),
        )
        references.append(simulator.run(trace))
    return references


def _parity_cells():
    trace = build_benchmark("skype", seed=0, duration_s=120)
    return [
        ExperimentCell(cell_id="baseline", trace=trace, governor="ondemand", seed=0),
        ExperimentCell(
            cell_id="managed",
            trace=trace,
            governor="ondemand",
            manager_factory=ThresholdManager,
            seed=0,
        ),
        ExperimentCell(cell_id="other-seed", trace=trace, governor="ondemand", seed=7),
        ExperimentCell(cell_id="bench", benchmark="youtube", duration_s=60, seed=1),
    ]


class TestExecutorParity:
    @pytest.mark.parametrize(
        "executor",
        [
            SerialExecutor(),
            ProcessPoolCellExecutor(max_workers=2),
            VectorizedExecutor(),
        ],
        ids=["serial", "process-pool", "vectorized"],
    )
    def test_bitwise_identical_to_sequential_simulator(self, executor):
        cells = _parity_cells()
        references = _reference_results(cells)
        store = BatchRunner(executor=executor).run(ExperimentPlan(cells))
        assert len(store) == len(cells)
        for cell, reference, entry in zip(cells, references, store):
            assert entry.cell.cell_id == cell.cell_id
            assert entry.result.governor_name == reference.governor_name
            assert entry.result.records == reference.records

    def test_vectorized_batches_whole_heterogeneous_plan(self):
        # Under the heterogeneous engine the whole plan — same-trace cells
        # *and* the different-benchmark cell — forms one SoA batch.
        cells = _parity_cells()
        plan = VectorizedExecutor().batch_plan(cells)
        assert plan.batches == [[0, 1, 2, 3]]
        assert plan.scalar == []

    def test_vectorized_falls_back_for_governor_instances(self):
        trace = build_benchmark("skype", seed=0, duration_s=60)
        platform = DevicePlatform(seed=0)
        cells = [
            ExperimentCell(
                cell_id="inst",
                trace=trace,
                governor=ConservativeGovernor(table=platform.freq_table),
                seed=0,
            )
        ]
        references = _reference_results(cells)
        store = BatchRunner(executor=VectorizedExecutor()).run(ExperimentPlan(cells))
        assert store.result_of("inst").records == references[0].records

    def test_for_jobs_selects_executor(self):
        assert isinstance(BatchRunner.for_jobs(None).executor, VectorizedExecutor)
        assert isinstance(BatchRunner.for_jobs(1).executor, VectorizedExecutor)
        pool_runner = BatchRunner.for_jobs(3)
        assert isinstance(pool_runner.executor, ProcessPoolCellExecutor)
        assert pool_runner.executor.max_workers == 3

    def test_logger_round_trip_through_executors(self):
        trace = build_benchmark("youtube", seed=0, duration_s=60)
        cells = [
            ExperimentCell(cell_id="logged", trace=trace, seed=0, log_period_s=3.0),
            ExperimentCell(cell_id="logged2", trace=trace, seed=1, log_period_s=3.0),
        ]
        serial = BatchRunner(executor=SerialExecutor()).run(ExperimentPlan(cells))
        vectorized = BatchRunner(executor=VectorizedExecutor()).run(ExperimentPlan(cells))
        pooled = BatchRunner(executor=ProcessPoolCellExecutor(max_workers=2)).run(
            ExperimentPlan(cells)
        )
        for store in (serial, vectorized, pooled):
            assert store.get("logged").logger is not None
            assert store.get("logged").logger.records == serial.get("logged").logger.records

    @pytest.mark.parametrize(
        "durations,log_period_s,window_steps",
        [
            pytest.param((60, 41, 23), 3.0, None, id="mixed-lengths"),
            pytest.param((60, 47, 23), 3.0, 7, id="window-not-a-multiple-of-the-period"),
            pytest.param((60, 44), 2.5, None, id="fractional-period"),
        ],
    )
    def test_vectorized_logs_equal_serial_logs(self, durations, log_period_s, window_steps):
        # The vectorized engine samples its record columns for the logger
        # after each window; the serial engine logs tick by tick.
        names = ("youtube", "game", "charging")
        cells = [
            ExperimentCell(
                cell_id=f"logged{i}",
                trace=build_benchmark(names[i], seed=i, duration_s=duration),
                seed=i,
                log_period_s=log_period_s,
            )
            for i, duration in enumerate(durations)
        ]
        plan = ExperimentPlan(cells)
        vectorized = VectorizedExecutor(window_steps=window_steps)
        assert len(vectorized.batch_plan(cells).batches) == 1
        serial = BatchRunner(executor=SerialExecutor()).run(plan)
        collected = BatchRunner(executor=vectorized).run(plan)
        streamed = CollectorSink()
        BatchRunner(executor=vectorized).run_stream(plan, streamed)
        for index, cell in enumerate(cells):
            expected = serial.get(cell.cell_id).logger.records
            # 1 s ticks: both periods fall due on every third tick.
            assert len(expected) == -(-durations[index] // 3)
            assert collected.get(cell.cell_id).logger.records == expected
            assert streamed.results[index].logger.records == expected


class TestVectorizedPopulation:
    def _members(self, trace_unused, count=3, manager=False):
        members = []
        for seed in range(count):
            platform = DevicePlatform(seed=seed)
            members.append(
                PopulationMember(
                    platform=platform,
                    governor=OndemandGovernor(table=platform.freq_table),
                    thermal_manager=ThresholdManager(33.0 + seed) if manager else None,
                )
            )
        return members

    def test_bitwise_parity_with_sequential_runs(self):
        trace = build_benchmark("antutu_tester", seed=2, duration_s=150)
        members = self._members(trace, count=3, manager=True)
        results = simulate_population(trace, members)
        for seed, result in enumerate(results):
            platform = DevicePlatform(seed=seed)
            reference = Simulator(
                platform=platform,
                governor=OndemandGovernor(table=platform.freq_table),
                thermal_manager=ThresholdManager(33.0 + seed),
            ).run(trace)
            assert result.records == reference.records
            assert result.governor_name == reference.governor_name

    def test_state_write_back_allows_reuse(self):
        trace = build_benchmark("skype", seed=0, duration_s=60)
        members = self._members(trace, count=2)
        first = simulate_population(trace, members)
        second = simulate_population(trace, members)
        for a, b in zip(first, second):
            assert a.records == b.records

    def test_platform_state_is_warm_after_run(self):
        trace = build_benchmark("skype", seed=0, duration_s=60)
        members = self._members(trace, count=2)
        results = simulate_population(trace, members)
        for member, result in zip(members, results):
            last = result.records[-1]
            assert member.platform.temperatures()["back_cover"] == last.skin_temp_c
            assert member.platform.time_s == last.time_s

    def test_rejects_mismatched_hardware(self):
        trace = build_benchmark("skype", seed=0, duration_s=30)
        params = Nexus4ThermalParameters(cpu_capacitance=9.0)
        odd = DevicePlatform(seed=1, thermal_params=params)
        members = [
            PopulationMember(
                platform=DevicePlatform(seed=0),
                governor=OndemandGovernor(),
            ),
            PopulationMember(platform=odd, governor=OndemandGovernor()),
        ]
        with pytest.raises(VectorizationError, match="thermal networks"):
            simulate_population(trace, members)

    def test_rejects_mismatched_ambient(self):
        # Same matrices, different boundary temperatures: integrating against
        # the template's ambient would silently produce wrong physics.
        from repro.thermal import AmbientConditions

        trace = build_benchmark("skype", seed=0, duration_s=30)
        params = Nexus4ThermalParameters(ambient=AmbientConditions(air_temp_c=40.0))
        hot = DevicePlatform(seed=1, thermal_params=params)
        members = [
            PopulationMember(platform=DevicePlatform(seed=0), governor=OndemandGovernor()),
            PopulationMember(platform=hot, governor=OndemandGovernor()),
        ]
        with pytest.raises(VectorizationError, match="boundary temperatures"):
            simulate_population(trace, members)

    def test_rejects_shared_governor_instance(self):
        trace = build_benchmark("skype", seed=0, duration_s=30)
        governor = OndemandGovernor()
        members = [
            PopulationMember(platform=DevicePlatform(seed=0), governor=governor),
            PopulationMember(platform=DevicePlatform(seed=1), governor=governor),
        ]
        with pytest.raises(VectorizationError, match="governor instance"):
            simulate_population(trace, members)

    def test_rejects_boundary_initial_temps(self):
        trace = build_benchmark("skype", seed=0, duration_s=30)
        members = [
            PopulationMember(
                platform=DevicePlatform(seed=0),
                governor=OndemandGovernor(),
                initial_temps={"ambient": 30.0},
            ),
            PopulationMember(platform=DevicePlatform(seed=1), governor=OndemandGovernor()),
        ]
        with pytest.raises(VectorizationError, match="boundary"):
            simulate_population(trace, members)

    def test_mixed_governors_take_slow_path_and_match(self):
        trace = build_benchmark("skype", seed=0, duration_s=90)
        members = []
        for seed, cls in enumerate((OndemandGovernor, ConservativeGovernor)):
            platform = DevicePlatform(seed=seed)
            members.append(
                PopulationMember(platform=platform, governor=cls(table=platform.freq_table))
            )
        results = simulate_population(trace, members)
        for seed, (cls, result) in enumerate(zip((OndemandGovernor, ConservativeGovernor), results)):
            platform = DevicePlatform(seed=seed)
            reference = Simulator(
                platform=platform, governor=cls(table=platform.freq_table)
            ).run(trace)
            assert result.records == reference.records

    def test_touch_and_charge_toggles_match_sequential(self):
        # Hand contact changes the thermal matrices mid-run (factorization
        # invalidation) and charging flips the battery-heat branch.
        samples = []
        for i in range(90):
            samples.append(
                WorkloadSample(
                    cpu_demand=0.9 if i % 3 else 0.2,
                    touching=(i // 10) % 2 == 0,
                    charging=(i // 15) % 2 == 1,
                )
            )
        trace = WorkloadTrace.from_samples("toggles", samples)
        members = self._members(trace, count=3, manager=True)
        results = simulate_population(trace, members)
        for seed, result in enumerate(results):
            platform = DevicePlatform(seed=seed)
            reference = Simulator(
                platform=platform,
                governor=OndemandGovernor(table=platform.freq_table),
                thermal_manager=ThresholdManager(33.0 + seed),
            ).run(trace)
            assert result.records == reference.records

    def test_initial_temps_respected(self):
        trace = build_benchmark("skype", seed=0, duration_s=30)
        warm = {"cpu": 45.0, "back_cover": 34.0}
        members = [
            PopulationMember(
                platform=DevicePlatform(seed=0),
                governor=OndemandGovernor(),
                initial_temps=warm,
            )
        ]
        results = simulate_population(trace, members)
        platform = DevicePlatform(seed=0)
        reference = Simulator(platform=platform, governor=OndemandGovernor()).run(
            trace, initial_temps=warm
        )
        assert results[0].records == reference.records


class TestCompareRunsRewire:
    def test_compare_runs_matches_sequential(self):
        from repro.sim.experiments import compare_runs, run_workload

        trace = build_benchmark("skype", seed=0, duration_s=90)
        comparison = compare_runs(
            trace, treatment_manager=ThresholdManager(31.0), seed=3
        )
        baseline = run_workload(trace, governor="ondemand", seed=3)
        treatment = run_workload(
            trace, governor="ondemand", thermal_manager=ThresholdManager(31.0), seed=3
        )
        assert comparison.baseline.records == baseline.records
        assert comparison.treatment.records == treatment.records

    def test_constant_manager_factory_returns_instance(self):
        manager = ThresholdManager(30.0)
        factory = ConstantManagerFactory(manager)
        assert factory() is manager
