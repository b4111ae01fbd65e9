"""Tests for the heterogeneous structure-of-arrays batch engine.

The contract under test: a *mixed-trace* plan — different benchmarks,
different lengths, adaptive and static cells — runs through one vectorized
batch and produces records bit-identical (and, on disk, byte-identical) to
the serial executor, under both the batch (``run``) and the streaming
(``run_stream`` → :class:`StreamingResultStore`) paths, where every executor
— fleet included — writes the same ``index.jsonl`` stamps; and the batch
planner's eligibility rules (the ``--explain-batching`` surface) are
structural only — per-member state such as feedback-model seeds never forces
a scalar fallback.
"""

import json

import numpy as np
import pytest

from repro.api.specs import AdapterSpec, ManagerSpec, PolicySpec
from repro.device.platform import DevicePlatform
from repro.fleet import FleetCoordinator, stores_byte_identical
from repro.governors import ConservativeGovernor, OndemandGovernor
from repro.runtime import (
    BatchRunner,
    ExperimentCell,
    ExperimentPlan,
    PopulationMember,
    SerialExecutor,
    StreamingResultStore,
    VectorizedExecutor,
    batch_ineligibility,
    plan_batches,
    simulate_population_mixed,
)
from repro.core.usta import USTAController
from repro.device.freq_table import nexus4_frequency_table
from repro.ml.linear import LinearRegression
from repro.runtime.streamstore import INDEX_NAME
from repro.runtime.vectorized import (
    _columnwise_linear_form,
    manager_vectorization_ineligibility,
)
from repro.sim.engine import Simulator
from repro.sim.results import ColumnarRecordBuffer
from repro.users.adaptation import (
    WARM_START_TEMPS,
    AdaptiveComfortManager,
    QuantileTracker,
    UserFeedbackModel,
)
from repro.workloads.benchmarks import build_benchmark
from repro.workloads.trace import WorkloadSample, WorkloadTrace


def _toggle_trace(steps: int = 77) -> WorkloadTrace:
    """A trace whose hand contact and charging state flip mid-run."""
    samples = [
        WorkloadSample(
            cpu_demand=0.9 if i % 3 else 0.2,
            touching=(i // 10) % 2 == 0,
            charging=(i // 15) % 2 == 1,
        )
        for i in range(steps)
    ]
    return WorkloadTrace.from_samples("toggles", samples)


def _mixed_plan(linear_predictor) -> ExperimentPlan:
    """≥3 different traces, different lengths, adaptive + static + bare cells."""
    adaptive = PolicySpec(
        manager=ManagerSpec("usta", params={"skin_limit_c": 37.0}),
        adapter=AdapterSpec(
            "feedback_step",
            feedback={"true_limit_c": 34.3, "report_period_s": 9.0},
        ),
    )
    static = PolicySpec(manager=ManagerSpec("usta", params={"skin_limit_c": 33.0}))
    plan = ExperimentPlan()
    plan.add(
        ExperimentCell(
            cell_id="skype/adaptive",
            benchmark="skype",
            duration_s=120.0,
            policy=adaptive,
            predictor=linear_predictor,
            seed=0,
            initial_temps=WARM_START_TEMPS,
        )
    )
    plan.add(
        ExperimentCell(
            cell_id="youtube/usta",
            benchmark="youtube",
            duration_s=90.0,
            policy=static,
            predictor=linear_predictor,
            seed=1,
        )
    )
    plan.add(
        ExperimentCell(
            cell_id="toggles/bare",
            trace=_toggle_trace(),
            governor="conservative",
            seed=2,
        )
    )
    plan.add(
        ExperimentCell(
            cell_id="tester/bare",
            benchmark="antutu_tester",
            duration_s=150.0,
            seed=3,
        )
    )
    return plan


class TestMixedTraceParity:
    def test_batch_run_bit_identical_to_serial(self, linear_predictor):
        plan = _mixed_plan(linear_predictor)
        serial = BatchRunner(executor=SerialExecutor()).run(plan)
        vectorized = BatchRunner(executor=VectorizedExecutor()).run(plan)
        assert len(vectorized) == len(plan)
        for cell in plan:
            expected = serial.get(cell.cell_id).result
            actual = vectorized.get(cell.cell_id).result
            assert actual.governor_name == expected.governor_name
            assert actual.records == expected.records

    def test_batched_cells_build_no_platform(self, linear_predictor, monkeypatch):
        # Members are state on the shared HardwareSpec: a batched cell must
        # not pay for a DevicePlatform (network assembly, sensor suite, table).
        built = []
        original = DevicePlatform.__post_init__
        monkeypatch.setattr(
            DevicePlatform, "__post_init__", lambda self: (built.append(self), original(self))
        )
        results = list(VectorizedExecutor().execute(list(_mixed_plan(linear_predictor))))
        assert len(results) == 4
        assert built == []

    def test_executor_matches_public_members_and_serial_runs(self, linear_predictor):
        # The executor's members against the public API path and a full
        # platform per cell run sequentially: same records, bit for bit.
        cells = list(_mixed_plan(linear_predictor))
        members = [
            PopulationMember(
                governor=cell.build_governor(),
                thermal_manager=cell.build_manager(),
                initial_temps=cell.initial_temps,
                seed=cell.seed,
            )
            for cell in cells
        ]
        public = simulate_population_mixed([cell.build_trace() for cell in cells], members)
        executed = list(VectorizedExecutor().execute(cells))
        for cell, got, expected in zip(cells, executed, public):
            serial = Simulator(
                platform=DevicePlatform(seed=cell.seed),
                governor=cell.build_governor(),
                thermal_manager=cell.build_manager(),
            ).run(cell.build_trace(), initial_temps=cell.initial_temps)
            assert got.result.governor_name == expected.governor_name
            assert got.result.records == expected.records == serial.records

    def test_whole_plan_is_one_batch(self, linear_predictor):
        plan = _mixed_plan(linear_predictor)
        batch_plan = VectorizedExecutor().batch_plan(list(plan))
        assert batch_plan.batches == [[0, 1, 2, 3]]
        assert batch_plan.scalar == []

    def test_streamed_shards_byte_identical_to_serial(self, tmp_path, linear_predictor):
        plan = _mixed_plan(linear_predictor)

        def cell_lines(directory):
            lines = {}
            for path in sorted(directory.glob("shard-*.jsonl")):
                for line in path.read_text(encoding="utf-8").splitlines():
                    lines[json.loads(line)["cell"]["cell_id"]] = line
            return lines

        serial_store = StreamingResultStore(tmp_path / "serial", max_cells_per_shard=2)
        BatchRunner(executor=SerialExecutor()).run_stream(plan, serial_store)
        serial_store.close()
        vector_store = StreamingResultStore(tmp_path / "vector", max_cells_per_shard=2)
        BatchRunner(executor=VectorizedExecutor()).run_stream(plan, vector_store)
        vector_store.close()

        serial_lines = cell_lines(tmp_path / "serial")
        vector_lines = cell_lines(tmp_path / "vector")
        assert serial_lines.keys() == vector_lines.keys() == {c.cell_id for c in plan}
        for cell_id, line in serial_lines.items():
            assert vector_lines[cell_id] == line

    def test_every_executor_writes_the_same_index_stamps(self, tmp_path, linear_predictor):
        """Stores of one plan are identical by stamp, whichever path wrote them."""
        plan = _mixed_plan(linear_predictor)
        executors = {
            "serial": SerialExecutor(),
            "vectorized": VectorizedExecutor(),
            # 8-step windows over 77..150-step traces: the spool path.
            "windowed": VectorizedExecutor(window_steps=8),
        }
        for name, executor in executors.items():
            store = StreamingResultStore(tmp_path / name, max_cells_per_shard=2)
            BatchRunner(executor=executor).run_stream(plan, store)
            store.close()
        FleetCoordinator(plan, tmp_path / "fleet", workers=2, max_cells_per_shard=2).run()

        reference = (tmp_path / "serial" / INDEX_NAME).read_bytes()
        entries = [json.loads(line) for line in reference.splitlines()]
        assert [entry["cell_id"] for entry in entries] == [cell.cell_id for cell in plan]
        assert all(len(entry["sha256"]) == 64 for entry in entries)
        for name in [*executors, "fleet"]:
            assert (tmp_path / name / INDEX_NAME).read_bytes() == reference, name
            assert stores_byte_identical(tmp_path / name, tmp_path / "serial") is None

    def test_early_finishers_leave_the_live_set(self):
        # Three very different lengths; each member's record count must match
        # its own trace, and each result must match its own sequential run.
        traces = [
            build_benchmark("skype", seed=0, duration_s=40),
            build_benchmark("youtube", seed=1, duration_s=150),
            build_benchmark("skype", seed=2, duration_s=90),
        ]
        members = [
            PopulationMember(seed=seed, governor=OndemandGovernor()) for seed in range(3)
        ]
        results = simulate_population_mixed(traces, members)
        for seed, (trace, result) in enumerate(zip(traces, results)):
            assert len(result.records) == len(trace)
            platform = DevicePlatform(seed=seed)
            reference = Simulator(
                platform=platform, governor=OndemandGovernor(table=platform.freq_table)
            ).run(trace)
            assert result.records == reference.records

    def test_mixed_touch_states_within_one_tick(self):
        # One member touching, one not, at the same tick: the solve must
        # select between the two canonical step maps per member and still
        # match the per-member scalar runs bitwise.
        held = WorkloadTrace.constant(
            "held", 60, WorkloadSample(cpu_demand=0.8, touching=True)
        )
        on_table = WorkloadTrace.constant(
            "table", 60, WorkloadSample(cpu_demand=0.8, touching=False)
        )
        members = [
            PopulationMember(seed=seed, governor=OndemandGovernor()) for seed in range(2)
        ]
        results = simulate_population_mixed([held, on_table], members)
        for seed, trace in enumerate((held, on_table)):
            platform = DevicePlatform(seed=seed)
            reference = Simulator(
                platform=platform, governor=OndemandGovernor(table=platform.freq_table)
            ).run(trace)
            assert results[seed].records == reference.records

    def test_rejects_mismatched_sample_periods(self):
        fast = WorkloadTrace.constant(
            "fast", 10, WorkloadSample(cpu_demand=0.5), sample_period_s=0.5
        )
        slow = WorkloadTrace.constant("slow", 10, WorkloadSample(cpu_demand=0.5))
        members = [
            PopulationMember(seed=s, governor=OndemandGovernor()) for s in range(2)
        ]
        from repro.runtime import VectorizationError

        with pytest.raises(VectorizationError, match="sample period"):
            simulate_population_mixed([fast, slow], members)


class TestAdapterSeedRegression:
    """Feedback-model seeds are per-member state, not structure.

    Adapter-bearing cells whose feedback models differ only by seed (or by
    any other noise knob) must batch together — a structural comparison that
    rejected them would silently push every user of a noisy-feedback sweep
    onto the scalar path.
    """

    def _adaptive_cell(self, cell_id, seed, feedback_seed, linear_predictor):
        policy = PolicySpec(manager=ManagerSpec("usta", params={"skin_limit_c": 37.0}))
        adapter = AdapterSpec(
            "quantile_tracker",
            feedback={
                "true_limit_c": 34.3,
                "report_period_s": 9.0,
                "flip_probability": 0.2,
                "seed": feedback_seed,
            },
        )
        return ExperimentCell(
            cell_id=cell_id,
            benchmark="skype",
            duration_s=90.0,
            policy=policy,
            adapter=adapter,
            predictor=linear_predictor,
            seed=seed,
            initial_temps=WARM_START_TEMPS,
        )

    def test_seed_only_feedback_differences_batch_together(self, linear_predictor):
        cells = [
            self._adaptive_cell(f"user{i}", seed=i, feedback_seed=100 + i, linear_predictor=linear_predictor)
            for i in range(3)
        ]
        batch_plan = plan_batches(cells)
        assert batch_plan.batches == [[0, 1, 2]]
        assert batch_plan.scalar == []

    def test_seed_only_feedback_members_simulate_and_match_serial(self, linear_predictor):
        cells = [
            self._adaptive_cell(f"user{i}", seed=i, feedback_seed=100 + i, linear_predictor=linear_predictor)
            for i in range(3)
        ]
        plan = ExperimentPlan(cells)
        serial = BatchRunner(executor=SerialExecutor()).run(plan)
        vectorized = BatchRunner(executor=VectorizedExecutor()).run(plan)
        for cell in plan:
            assert (
                vectorized.get(cell.cell_id).result.records
                == serial.get(cell.cell_id).result.records
            )
        # The whole plan really went through the batch engine, not a fallback:
        # fallback would rebuild cells via run_cell one at a time, which the
        # planner exposes up front.
        assert VectorizedExecutor().batch_plan(cells).batches == [[0, 1, 2]]


class TestBatchPlanner:
    def test_structural_ineligibility_reasons(self):
        trace = build_benchmark("skype", seed=0, duration_s=30)
        eligible = ExperimentCell(cell_id="ok", trace=trace, seed=0)
        custom_platform = ExperimentCell(
            cell_id="custom", trace=trace, platform_factory=DevicePlatform, seed=0
        )
        governor_instance = ExperimentCell(
            cell_id="inst", trace=trace, governor=ConservativeGovernor(), seed=0
        )
        assert batch_ineligibility(eligible) is None
        assert "platform" in batch_ineligibility(custom_platform)
        assert "governor instance" in batch_ineligibility(governor_instance)

        batch_plan = plan_batches([eligible, custom_platform, governor_instance])
        # One eligible cell alone at its sample period: scalar, with a reason.
        assert batch_plan.batches == []
        reasons = dict(batch_plan.scalar)
        assert set(reasons) == {0, 1, 2}
        assert "only batchable cell" in reasons[0]

    def test_sample_period_partition(self):
        slow = build_benchmark("skype", seed=0, duration_s=30)
        fast = WorkloadTrace.constant(
            "fast", 10, WorkloadSample(cpu_demand=0.5), sample_period_s=0.5
        )
        cells = [
            ExperimentCell(cell_id="s0", trace=slow, seed=0),
            ExperimentCell(cell_id="f0", trace=fast, seed=0),
            ExperimentCell(cell_id="s1", trace=slow, seed=1),
            ExperimentCell(cell_id="f1", trace=fast, seed=1),
        ]
        batch_plan = plan_batches(cells)
        assert sorted(map(sorted, batch_plan.batches)) == [[0, 2], [1, 3]]
        assert batch_plan.scalar == []

    def test_max_batch_members_splits_groups(self):
        trace = build_benchmark("skype", seed=0, duration_s=30)
        cells = [
            ExperimentCell(cell_id=f"c{i}", trace=trace, seed=i) for i in range(5)
        ]
        batch_plan = plan_batches(cells, max_batch_members=2)
        assert all(len(batch) <= 2 for batch in batch_plan.batches)
        assert sorted(i for batch in batch_plan.batches for i in batch) == [0, 1, 2, 3, 4]
        with pytest.raises(ValueError, match="at least 2"):
            plan_batches(cells, max_batch_members=1)

    def test_scalar_fallback_reuses_planned_trace(self, monkeypatch):
        # Planning builds the trace to learn its sample period; a singleton
        # fallback must not pay the build a second time inside run_cell.
        calls = {"n": 0}
        original = ExperimentCell.build_trace

        def counting(cell):
            calls["n"] += 1
            return original(cell)

        monkeypatch.setattr(ExperimentCell, "build_trace", counting)
        solo = ExperimentCell(
            cell_id="solo",
            trace=WorkloadTrace.constant(
                "fast", 5, WorkloadSample(cpu_demand=0.3), sample_period_s=0.5
            ),
            seed=0,
        )
        results = list(VectorizedExecutor().execute([solo]))
        assert len(results) == 1 and len(results[0].result.records) == 10
        assert calls["n"] == 1

    def test_default_batch_cap_bounds_live_batches(self):
        trace = WorkloadTrace.constant("tiny", 3, WorkloadSample(cpu_demand=0.1))
        cells = [ExperimentCell(cell_id=f"c{i}", trace=trace, seed=i) for i in range(300)]
        batch_plan = VectorizedExecutor().batch_plan(cells)
        cap = VectorizedExecutor.DEFAULT_MAX_BATCH_MEMBERS
        assert len(batch_plan.batches) == 2
        assert all(len(batch) <= cap for batch in batch_plan.batches)
        assert batch_plan.scalar == []

    def test_describe_names_batches_and_reasons(self):
        trace = build_benchmark("skype", seed=0, duration_s=30)
        cells = [
            ExperimentCell(cell_id="a", trace=trace, seed=0),
            ExperimentCell(cell_id="b", trace=trace, seed=1),
            ExperimentCell(
                cell_id="inst", trace=trace, governor=ConservativeGovernor(), seed=2
            ),
        ]
        text = plan_batches(cells).describe(cells)
        assert "batch 0: 2 cells" in text
        assert "a " in text and "b " in text
        assert "inst" in text and "governor instance" in text


class TestColumnarBuffer:
    def test_records_match_scalar_construction(self):
        from repro.sim.results import StepRecord

        # Columns are step-major: [step, member].
        buf = ColumnarRecordBuffer(2, 3, with_decisions=True)
        buf.frequency_khz[:, 0] = (384000, 486000, 594000)
        buf.frequency_level[:, 0] = (0, 1, 2)
        buf.level_cap[:, 0] = (11, 11, 3)
        buf.utilization[:, 0] = (0.25, 0.5, 1.0)
        buf.demand[:, 0] = (0.2, 0.5, 0.9)
        buf.delivered_work[:, 0] = (0.2, 0.5, 0.4)
        buf.power_w[:, 0] = (1.0, 2.0, 3.0)
        for name in (
            "cpu_temp_c",
            "battery_temp_c",
            "skin_temp_c",
            "screen_temp_c",
            "sensor_cpu_temp_c",
            "sensor_battery_temp_c",
            "sensor_skin_temp_c",
            "sensor_screen_temp_c",
        ):
            getattr(buf, name)[:, 0] = (30.0, 31.5, 33.25)
        buf.usta_active[2, 0] = True
        # A decision value counts only where its presence flag is set.
        buf.predicted_skin_temp_c[2, 0] = 34.125
        buf.comfort_limit_c[2, 0] = 36.5
        buf.predicted_screen_temp_c[2, 0] = 99.0
        buf.decision_present[0, 2, 0] = True
        buf.decision_present[2, 2, 0] = True
        records = list(buf.iter_records(0, [1.0, 2.0, 3.0], 3))
        assert len(records) == 3
        assert records[2] == StepRecord(
            time_s=3.0,
            frequency_khz=594000,
            frequency_level=2,
            level_cap=3,
            utilization=1.0,
            demand=0.9,
            delivered_work=0.4,
            power_w=3.0,
            cpu_temp_c=33.25,
            battery_temp_c=33.25,
            skin_temp_c=33.25,
            screen_temp_c=33.25,
            sensor_cpu_temp_c=33.25,
            sensor_battery_temp_c=33.25,
            sensor_skin_temp_c=33.25,
            sensor_screen_temp_c=33.25,
            predicted_skin_temp_c=34.125,
            predicted_screen_temp_c=None,
            usta_active=True,
            comfort_limit_c=36.5,
        )
        # Values come back as plain Python scalars, not numpy scalars.
        assert type(records[0].frequency_khz) is int
        assert type(records[0].utilization) is float
        assert records[0].usta_active is False

    def test_decision_columns_absent_without_managers(self):
        buf = ColumnarRecordBuffer(1, 2, with_decisions=False)
        buf.utilization[:, 0] = (0.1, 0.2)
        records = list(buf.iter_records(0, [1.0, 2.0], 2))
        assert records[0].predicted_skin_temp_c is None
        assert records[0].usta_active is False
        assert records[0].comfort_limit_c is None


class TestTraceArrays:
    def test_columns_mirror_samples(self):
        trace = _toggle_trace(20)
        arrays = trace.as_arrays()
        assert len(arrays) == 20
        assert arrays.sample_period_s == trace.sample_period_s
        for i, sample in enumerate(trace):
            assert arrays.cpu_demand[i] == sample.cpu_demand
            assert arrays.touching[i] == sample.touching
            assert arrays.charging[i] == sample.charging
            assert arrays.screen_on[i] == sample.screen_on
        # Cached: the same object comes back while the trace is unchanged.
        assert trace.as_arrays() is arrays


class TestResumeIndexSidecar:
    def _populated(self, directory, linear_predictor, max_cells_per_shard=2):
        plan = _mixed_plan(linear_predictor)
        store = StreamingResultStore(directory, max_cells_per_shard=max_cells_per_shard)
        BatchRunner(executor=SerialExecutor()).run_stream(plan, store)
        store.close()
        return plan

    def test_open_via_index_reads_no_early_shard_lines(self, tmp_path, linear_predictor):
        """The acceptance check: resume no longer reads every shard line.

        A mid-store line is damaged *in place* (byte length preserved).  The
        full scan would reject the directory outright; the indexed open never
        reads the line, so the store opens cleanly — and a truncated final
        line is still recovered from the sidecar's offsets alone.
        """
        directory = tmp_path / "s"
        plan = self._populated(directory, linear_predictor)
        shards = sorted(directory.glob("shard-*.jsonl"))
        assert len(shards) >= 2

        # Damage an early shard without changing its size.
        raw = bytearray(shards[0].read_bytes())
        raw[5:15] = b"X" * 10
        shards[0].write_bytes(bytes(raw))
        # And corrupt only the final line with an unterminated crash artifact.
        with open(shards[-1], "a", encoding="utf-8") as fh:
            fh.write('{"cell":{"cell_id":"tester/bare","benchmark"')

        store = StreamingResultStore(directory, max_cells_per_shard=2)
        assert store.resumed_via_index
        assert store.recovered_tail is not None
        assert store.completed_cell_ids == {c.cell_id for c in plan}
        store.close()

        # The in-place damage surfaces only when the damaged line is read.
        from repro.runtime import StoreCorruptionError

        with pytest.raises(StoreCorruptionError, match="read time"):
            list(StreamingResultStore(directory).iter_results())

    def test_truncated_final_line_recovered_on_index_path(self, tmp_path, linear_predictor):
        directory = tmp_path / "s"
        plan = self._populated(directory, linear_predictor)
        shards = sorted(directory.glob("shard-*.jsonl"))
        last = shards[-1]
        # Chop the final committed line in half: the sidecar's last entry now
        # points past EOF, so the index is stale and the full scan recovers.
        data = last.read_bytes()
        last.write_bytes(data[: len(data) // 2])

        store = StreamingResultStore(directory, max_cells_per_shard=2)
        assert not store.resumed_via_index  # index said more than the shard holds
        assert store.recovered_tail is not None
        assert len(store.completed_cell_ids) == len(plan) - 1
        # The full scan rewrote the sidecar; the next open is indexed again.
        store.close()
        reopened = StreamingResultStore(directory, max_cells_per_shard=2)
        assert reopened.resumed_via_index
        assert reopened.completed_cell_ids == store.completed_cell_ids
        reopened.close()

    def test_missing_index_full_scans_then_rebuilds(self, tmp_path, linear_predictor):
        directory = tmp_path / "s"
        plan = self._populated(directory, linear_predictor)
        (directory / "index.jsonl").unlink()
        store = StreamingResultStore(directory, max_cells_per_shard=2)
        assert not store.resumed_via_index
        assert store.completed_cell_ids == {c.cell_id for c in plan}
        assert (directory / "index.jsonl").exists()
        store.close()
        reopened = StreamingResultStore(directory, max_cells_per_shard=2)
        assert reopened.resumed_via_index
        reopened.close()

    def test_stale_by_one_index_self_heals(self, tmp_path, linear_predictor):
        # A crash between the shard flush and the index flush: the last
        # committed cell has a shard line but no sidecar entry.
        directory = tmp_path / "s"
        plan = self._populated(directory, linear_predictor)
        index = directory / "index.jsonl"
        lines = index.read_text(encoding="utf-8").splitlines()
        index.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")

        store = StreamingResultStore(directory, max_cells_per_shard=2)
        assert store.resumed_via_index
        assert store.completed_cell_ids == {c.cell_id for c in plan}
        assert len(index.read_text(encoding="utf-8").splitlines()) == len(plan)
        store.close()

    def test_partial_index_line_truncated_before_appends(self, tmp_path, linear_predictor):
        # Crash mid index write: a partial line at the sidecar tail.  The
        # next open must truncate it off the *file* (not just skip it at
        # parse time) — the tail self-heal and every later end_cell reopen
        # the sidecar in append mode and would fuse onto the fragment,
        # corrupting the line they write.
        directory = tmp_path / "s"
        plan = self._populated(directory, linear_predictor)
        index = directory / "index.jsonl"
        lines = index.read_text(encoding="utf-8").splitlines(keepends=True)
        index.write_text("".join(lines[:-1]) + lines[-1][:20], encoding="utf-8")

        store = StreamingResultStore(directory, max_cells_per_shard=2)
        assert store.resumed_via_index  # dropped entry re-registered from the tail
        assert store.completed_cell_ids == {c.cell_id for c in plan}
        store.close()
        # Every sidecar line parses again — nothing fused onto the fragment.
        healed = index.read_text(encoding="utf-8").splitlines()
        assert len(healed) == len(plan)
        for line in healed:
            json.loads(line)
        reopened = StreamingResultStore(directory, max_cells_per_shard=2)
        assert reopened.resumed_via_index
        assert reopened.completed_cell_ids == {c.cell_id for c in plan}
        reopened.close()

    def test_resume_reruns_only_missing_cells_after_index_recovery(
        self, tmp_path, linear_predictor
    ):
        directory = tmp_path / "s"
        plan = self._populated(directory, linear_predictor)
        batch = BatchRunner(executor=SerialExecutor()).run(plan)
        shards = sorted(directory.glob("shard-*.jsonl"))
        with open(shards[-1], "a", encoding="utf-8") as fh:
            fh.write('{"cell":{"cell_id":"half-written"')

        store = StreamingResultStore(directory, max_cells_per_shard=2)
        assert store.resumed_via_index
        executed = BatchRunner(executor=VectorizedExecutor()).run_stream(
            plan, store, skip=store.completed_cell_ids
        )
        store.close()
        assert executed == 0  # every real cell was already committed
        loaded = StreamingResultStore(directory).load()
        for cell in plan:
            assert loaded.get(cell.cell_id).result.records == batch.get(
                cell.cell_id
            ).result.records


class _DelegatingUSTA(USTAController):
    """A behaviour-identical subclass that nevertheless overrides ``observe``.

    The policy plane must refuse it (override detection is by identity, not
    behaviour) and route it through the scalar per-member loop — which makes
    it the perfect probe for plane/scalar coexistence: parity must hold even
    though only *some* manager rows ride the plane.
    """

    def observe(self, *args, **kwargs):
        return USTAController.observe(self, *args, **kwargs)


def _plane_traces():
    """Three distinct traces of different lengths sharing one sample period."""
    return [
        build_benchmark("skype", seed=0, duration_s=90.0),
        build_benchmark("youtube", seed=1, duration_s=60.0),
        _toggle_trace(70),
        build_benchmark("game", seed=2, duration_s=75.0),
    ]


def _managed_member(
    predictor,
    seed,
    *,
    true_limit_c=35.5,
    predict_screen=False,
    prediction_period_s=1.0,
    flip_probability=0.0,
    delay_s=0.0,
    controller_cls=USTAController,
):
    manager = AdaptiveComfortManager(
        inner=controller_cls(
            predictor=predictor,
            skin_limit_c=37.0,
            prediction_period_s=prediction_period_s,
            predict_screen=predict_screen,
        ),
        adapter=QuantileTracker(initial_limit_c=37.0),
        feedback=UserFeedbackModel(
            true_limit_c=true_limit_c,
            report_period_s=10.0,
            flip_probability=flip_probability,
            delay_s=delay_s,
            seed=seed,
        ),
    )
    return PopulationMember(seed=seed, governor=OndemandGovernor(), thermal_manager=manager)


def _assert_three_way_parity(traces, make_members):
    """Plane, scalar-manager batch and per-member serial runs agree bitwise.

    ``make_members`` is called once per executor: members are stateful, so
    each arm needs a fresh set.
    """
    plane = simulate_population_mixed(traces, make_members())
    scalar = simulate_population_mixed(
        traces, make_members(), vectorize_managers=False
    )
    serial = [
        Simulator(
            platform=DevicePlatform(seed=m.seed),
            governor=m.governor,
            thermal_manager=m.thermal_manager,
        ).run(t)
        for t, m in zip(traces, make_members())
    ]
    for got_plane, got_scalar, got_serial in zip(plane, scalar, serial):
        assert got_plane.records == got_serial.records
        assert got_scalar.records == got_serial.records


class TestPolicyPlaneParity:
    """Bit-parity of the vectorized manager fast path against both fallbacks."""

    def test_managed_mixed_population(self, linear_predictor):
        traces = _plane_traces()
        _assert_three_way_parity(
            traces,
            lambda: [
                _managed_member(
                    linear_predictor, seed=i, true_limit_c=34.5 + (i % 3) * 0.8
                )
                for i in range(len(traces))
            ],
        )

    def test_noisy_feedback_models(self, linear_predictor):
        """Contradictory and delayed reports stay bit-identical on the plane."""
        traces = _plane_traces()
        _assert_three_way_parity(
            traces,
            lambda: [
                _managed_member(
                    linear_predictor,
                    seed=i,
                    true_limit_c=34.0 + i * 0.5,
                    flip_probability=0.25,
                    delay_s=12.0,
                )
                for i in range(len(traces))
            ],
        )

    def test_screen_predictions_on_the_plane(self, linear_predictor):
        traces = _plane_traces()
        _assert_three_way_parity(
            traces,
            lambda: [
                _managed_member(linear_predictor, seed=i, predict_screen=True)
                for i in range(len(traces))
            ],
        )

    def test_mixed_managed_and_unmanaged_members(self, linear_predictor):
        """Bare members and plane members share one batch without interfering."""
        traces = _plane_traces()

        def build():
            members = [
                _managed_member(linear_predictor, seed=i) for i in range(2)
            ]
            members.extend(
                PopulationMember(seed=seed, governor=OndemandGovernor()) for seed in (7, 8)
            )
            return members

        _assert_three_way_parity(traces, build)

    def test_scalar_fallback_rows_coexist_with_plane_rows(self, linear_predictor):
        """One plan mixing plane-eligible and override-ineligible managers."""
        traces = _plane_traces()

        def build():
            members = [
                _managed_member(linear_predictor, seed=i) for i in range(2)
            ]
            members.append(
                _managed_member(
                    linear_predictor, seed=5, controller_cls=_DelegatingUSTA
                )
            )
            members.append(_managed_member(linear_predictor, seed=6))
            return members

        sample = build()
        assert (
            manager_vectorization_ineligibility(sample[0].thermal_manager) is None
        )
        reason = manager_vectorization_ineligibility(sample[2].thermal_manager)
        assert reason is not None and "observe" in reason
        _assert_three_way_parity(traces, build)

    def test_heterogeneous_prediction_periods(self, linear_predictor):
        """Per-member periods break the uniform due clock; parity must survive."""
        traces = _plane_traces()
        _assert_three_way_parity(
            traces,
            lambda: [
                _managed_member(
                    linear_predictor, seed=i, prediction_period_s=1.0 + i
                )
                for i in range(len(traces))
            ],
        )


class TestManagerEligibility:
    def test_stock_stack_is_eligible(self, linear_predictor):
        member = _managed_member(linear_predictor, seed=0)
        assert manager_vectorization_ineligibility(member.thermal_manager) is None

    def test_bare_usta_is_eligible(self, linear_predictor):
        assert (
            manager_vectorization_ineligibility(
                USTAController(predictor=linear_predictor)
            )
            is None
        )

    def test_override_subclass_is_refused(self, linear_predictor):
        reason = manager_vectorization_ineligibility(
            _DelegatingUSTA(predictor=linear_predictor)
        )
        assert reason is not None and "_DelegatingUSTA" in reason

    def test_custom_adapter_is_refused(self, linear_predictor):
        class _Tracker(QuantileTracker):
            pass

        manager = AdaptiveComfortManager(
            inner=USTAController(predictor=linear_predictor),
            adapter=_Tracker(initial_limit_c=37.0),
        )
        reason = manager_vectorization_ineligibility(manager)
        assert reason is not None and "_Tracker" in reason

    def test_explain_batching_reports_the_plane(self, linear_predictor):
        """The dry-run plan surfaces plane rows and scalar-manager reasons."""
        spec = PolicySpec(manager=ManagerSpec("usta", params={"skin_limit_c": 37.0}))
        plan = ExperimentPlan()
        plan.add(
            ExperimentCell(
                cell_id="fast",
                benchmark="skype",
                duration_s=30.0,
                policy=spec,
                predictor=linear_predictor,
            )
        )
        plan.add(
            ExperimentCell(
                cell_id="slow",
                benchmark="youtube",
                duration_s=30.0,
                manager_factory=_DelegatingFactory(linear_predictor),
            )
        )
        batch_plan = plan_batches(list(plan))
        text = batch_plan.describe(list(plan))
        assert "policy plane: 1 of 2 managed cell(s)" in text
        assert "scalar manager fallback" in text
        assert "slow" in text and "observe" in text


class _DelegatingFactory:
    """Picklable manager factory building the override-ineligible subclass."""

    def __init__(self, predictor):
        self.predictor = predictor

    def __call__(self):
        return _DelegatingUSTA(predictor=self.predictor, skin_limit_c=36.0)


class TestLinearSweepInvariance:
    """The order-fixed LinearRegression sweep and its plane fast-path probe."""

    def test_matrix_predict_equals_per_row_bitwise(self, linear_predictor):
        model = linear_predictor.skin_model
        rng = np.random.default_rng(7)
        matrix = rng.uniform(-1.0, 1.0, (257, 4)) * np.exp2(
            rng.integers(-20, 21, (257, 4)).astype(float)
        )
        whole = model.predict(matrix)
        rows = np.array(
            [model.predict(matrix[i : i + 1])[0] for i in range(len(matrix))]
        )
        assert np.array_equal(whole, rows)
        assert LinearRegression.batch_row_invariant

    def test_predict_batch_arrays_exact_keeps_one_call(self, linear_predictor):
        rng = np.random.default_rng(11)
        matrix = np.column_stack(
            [
                rng.uniform(25.0, 60.0, 64),
                rng.uniform(22.0, 58.0, 64),
                rng.uniform(0.0, 1.0, 64),
                rng.choice(
                    nexus4_frequency_table().frequencies_khz, 64
                ).astype(float),
            ]
        )
        # Row-invariant models keep the one-call matrix predict.
        batched = linear_predictor.predict_batch_arrays(matrix)
        skin, screen = linear_predictor.skin_model, linear_predictor.screen_model
        assert np.array_equal(batched.skin_temp_c, skin.predict(matrix))
        assert np.array_equal(batched.screen_temp_c, screen.predict(matrix))

    def test_columnwise_form_accepts_stock_fitted_model(self, linear_predictor):
        form = _columnwise_linear_form(linear_predictor.skin_model)
        assert form is not None
        coef, intercept = form
        assert np.array_equal(coef, linear_predictor.skin_model.coefficients)
        assert intercept == linear_predictor.skin_model.intercept

    def test_columnwise_form_rejects_unfitted_and_foreign_models(self):
        assert _columnwise_linear_form(LinearRegression()) is None
        assert _columnwise_linear_form(object()) is None

    def test_columnwise_form_rejects_non_four_feature_models(self):
        from repro.ml.dataset import Dataset

        rng = np.random.default_rng(3)
        features = rng.uniform(0.0, 1.0, (50, 2))
        data = Dataset(
            features=features,
            target=features @ np.array([1.5, -0.5]) + 0.25,
            feature_names=("a", "b"),
            target_name="y",
        )
        assert _columnwise_linear_form(LinearRegression().fit(data)) is None
