"""Tests for windowed streaming execution of the vectorized engine.

The contract under test: the engine can replay traces in fixed-size step
windows through one reused set of staging buffers — sized explicitly
(``window_steps``) or from a byte budget (``max_window_bytes``) — and the
results stay *bit-identical* to the unwindowed engine and the serial
executor, for bare, managed (policy-plane) and mixed-length populations.
With a ``window_drain`` the record buffer is drained at every window
boundary, so the live footprint stops scaling with trace length; the
executor's spool-and-replay streaming path must then produce shards
byte-identical to the unwindowed :class:`StreamingResultStore` output.
"""

import json

import numpy as np
import pytest

from repro.device.platform import DevicePlatform
from repro.governors import OndemandGovernor
from repro.core.usta import USTAController
from repro.runtime import (
    BatchRunner,
    ExperimentCell,
    ExperimentPlan,
    PopulationMember,
    SerialExecutor,
    StreamingResultStore,
    VectorizedExecutor,
    simulate_population_mixed,
)
from repro.runtime import executors as executors_module
from repro.runtime import vectorized as vectorized_module
from repro.runtime.vectorized import (
    DEFAULT_MAX_WINDOW_BYTES,
    describe_window_plan,
    resolve_window_steps,
    window_bytes_per_step,
)
from repro.sim.engine import Simulator
from repro.sim.results import ColumnarRecordBuffer
from repro.users.adaptation import (
    AdaptiveComfortManager,
    QuantileTracker,
    UserFeedbackModel,
)
from repro.workloads.benchmarks import build_benchmark
from repro.workloads.trace import WorkloadSample, WorkloadTrace


def _toggle_trace(steps: int = 77) -> WorkloadTrace:
    samples = [
        WorkloadSample(
            cpu_demand=0.9 if i % 3 else 0.2,
            touching=(i // 10) % 2 == 0,
            charging=(i // 15) % 2 == 1,
        )
        for i in range(steps)
    ]
    return WorkloadTrace.from_samples("toggles", samples)


def _mixed_traces():
    shared = build_benchmark("skype", seed=0, duration_s=90.0)
    # The same trace object twice: window staging must dedup it exactly like
    # the full stack does.
    return [
        shared,
        build_benchmark("youtube", seed=1, duration_s=60.0),
        _toggle_trace(70),
        shared,
    ]


def _bare_members(n):
    return [PopulationMember(seed=seed, governor=OndemandGovernor()) for seed in range(n)]


def _managed_members(linear_predictor, n):
    members = []
    for seed in range(n):
        manager = AdaptiveComfortManager(
            inner=USTAController(
                predictor=linear_predictor,
                skin_limit_c=37.0,
                prediction_period_s=1.0,
            ),
            adapter=QuantileTracker(initial_limit_c=37.0),
            feedback=UserFeedbackModel(
                true_limit_c=35.5, report_period_s=10.0, seed=seed
            ),
        )
        members.append(
            PopulationMember(seed=seed, governor=OndemandGovernor(), thermal_manager=manager)
        )
    return members


class TestTraceWindows:
    def test_windows_concatenate_to_full_arrays(self):
        trace = _toggle_trace(77)
        full = trace.as_arrays()
        for window in (2, 8, 33, 77, 100):
            chunks = list(trace.iter_windows(window))
            assert [w0 for w0, _ in chunks] == list(range(0, 77, window))
            for name in (
                "cpu_demand",
                "gpu_activity",
                "radio_activity",
                "brightness",
                "screen_on",
                "charging",
                "touching",
            ):
                joined = np.concatenate([getattr(a, name) for _, a in chunks])
                assert np.array_equal(joined, getattr(full, name))

    def test_window_views_are_bit_identical_slices(self):
        trace = _toggle_trace(40)
        fresh = trace.arrays_window(5, 25)  # no cache yet: built from samples
        full = trace.as_arrays()
        cached = trace.arrays_window(5, 25)  # answered as views into the cache
        assert np.array_equal(fresh.cpu_demand, full.cpu_demand[5:25])
        assert cached.cpu_demand.base is not None  # zero-copy view
        assert np.array_equal(cached.cpu_demand, fresh.cpu_demand)

    def test_rejects_bad_ranges(self):
        trace = _toggle_trace(10)
        with pytest.raises(ValueError, match="invalid trace window"):
            trace.arrays_window(-1, 5)
        with pytest.raises(ValueError, match="invalid trace window"):
            trace.arrays_window(6, 5)
        with pytest.raises(ValueError, match="window_steps"):
            list(trace.iter_windows(0))


class TestWindowResolution:
    def test_explicit_steps_win_and_clamp(self):
        assert resolve_window_steps(4, 100, window_steps=8) == 8
        assert resolve_window_steps(4, 100, window_steps=500) == 100
        # Explicit steps ignore the budget entirely.
        assert resolve_window_steps(4, 100, window_steps=8, max_window_bytes=1) == 8

    def test_budget_sizing(self):
        per_step = window_bytes_per_step(4)
        assert resolve_window_steps(4, 100, max_window_bytes=per_step * 10) == 10
        # A budget below two steps still yields the floor of 2.
        assert resolve_window_steps(4, 100, max_window_bytes=1) == 2
        # A roomy budget disables windowing.
        assert resolve_window_steps(4, 100, max_window_bytes=per_step * 1000) == 100
        # No parameters at all: unwindowed.
        assert resolve_window_steps(4, 100) == 100

    def test_default_budget_keeps_paper_scale_unwindowed(self):
        # 10 users x one paper benchmark is far below 64 MiB of staging.
        steps = resolve_window_steps(
            10, 3600, max_window_bytes=DEFAULT_MAX_WINDOW_BYTES, n_noisy_sensors=5
        )
        assert steps == 3600

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            resolve_window_steps(4, 100, window_steps=1)
        with pytest.raises(ValueError, match="must be positive"):
            resolve_window_steps(4, 100, max_window_bytes=0)

    def test_engine_surfaces_bad_window_args(self):
        # Plain ValueError, not VectorizationError: bad arguments must not
        # trigger the silent scalar fallback.
        traces = [_toggle_trace(10)]
        with pytest.raises(ValueError, match="at least 2"):
            simulate_population_mixed(traces, _bare_members(1), window_steps=1)
        with pytest.raises(ValueError, match="must be positive"):
            simulate_population_mixed(traces, _bare_members(1), max_window_bytes=-5)

    def test_describe_window_plan(self):
        off = describe_window_plan(4, 100)
        assert off.startswith("windowing: off")
        explicit = describe_window_plan(4, 100, window_steps=8)
        assert "13 windows x 8 steps" in explicit
        assert "window_steps=8" in explicit
        # describe_window_plan sizes against the default instrumented sensor
        # suite (5 noisy sensors).
        per_step = window_bytes_per_step(4, n_noisy_sensors=5, with_decisions=True)
        budget = describe_window_plan(4, 100, max_window_bytes=per_step * 10)
        assert "10 windows x 10 steps" in budget
        assert "budget" in budget


class TestWindowedEngineParity:
    @pytest.mark.parametrize("window", [2, 8, 33, 70])
    def test_bare_population_bit_identical(self, window):
        traces = _mixed_traces()
        expected = simulate_population_mixed(traces, _bare_members(len(traces)))
        got = simulate_population_mixed(
            traces, _bare_members(len(traces)), window_steps=window
        )
        for want, have in zip(expected, got):
            assert have.records == want.records

    @pytest.mark.parametrize("window", [2, 33, 90])
    def test_managed_population_bit_identical(self, window, linear_predictor):
        traces = _mixed_traces()
        expected = simulate_population_mixed(
            traces, _managed_members(linear_predictor, len(traces))
        )
        got = simulate_population_mixed(
            traces,
            _managed_members(linear_predictor, len(traces)),
            window_steps=window,
        )
        for want, have in zip(expected, got):
            assert have.records == want.records

    def test_budget_windowing_matches_serial(self):
        traces = _mixed_traces()
        budget = window_bytes_per_step(len(traces), n_noisy_sensors=5) * 16
        got = simulate_population_mixed(
            traces, _bare_members(len(traces)), max_window_bytes=budget
        )
        for seed, (trace, have) in enumerate(zip(traces, got)):
            platform = DevicePlatform(seed=seed)
            reference = Simulator(
                platform=platform, governor=OndemandGovernor(table=platform.freq_table)
            ).run(trace)
            assert have.records == reference.records


class _CollectingDrain:
    def __init__(self):
        self.records = {}
        self.done = {}

    def emit_member_window(self, index, records, done):
        self.records.setdefault(index, []).extend(records)
        self.done.setdefault(index, []).append(done)


class TestWindowDrain:
    def test_drained_records_match_unwindowed(self):
        traces = _mixed_traces()
        expected = simulate_population_mixed(traces, _bare_members(len(traces)))
        drain = _CollectingDrain()
        got = simulate_population_mixed(
            traces, _bare_members(len(traces)), window_steps=8, window_drain=drain
        )
        for index, want in enumerate(expected):
            assert drain.records[index] == want.records
            # done fires exactly once per member, on its last window.
            assert drain.done[index].count(True) == 1
            assert drain.done[index][-1] is True
            # Drained results carry no records — that is the point.
            assert got[index].records == []

    def test_drain_window_is_iter_records_under_the_pinned_order(self):
        # drain_window must go through the same positionally-pinned column
        # order as iter_records; a column reorder would corrupt both, and
        # _check_field_order guards the order at import time.
        buf = ColumnarRecordBuffer(2, 5, with_decisions=False)
        buf.frequency_khz[:3, 1] = [100, 200, 300]
        buf.skin_temp_c[:3, 1] = [30.0, 31.0, 32.0]
        times = [0.0, 1.0, 2.0]
        drained = list(buf.drain_window(1, times, 3))
        rebuilt = list(buf.iter_records(1, times, 3))
        assert drained == rebuilt
        assert [r.frequency_khz for r in drained] == [100, 200, 300]
        assert [r.skin_temp_c for r in drained] == [30.0, 31.0, 32.0]
        assert [r.time_s for r in drained] == times


class TestWindowedStreamingShards:
    def _plan(self, linear_predictor):
        from repro.api.specs import ManagerSpec, PolicySpec

        plan = ExperimentPlan()
        plan.add(
            ExperimentCell(
                cell_id="skype/usta",
                benchmark="skype",
                duration_s=90.0,
                policy=PolicySpec(
                    manager=ManagerSpec("usta", params={"skin_limit_c": 37.0})
                ),
                predictor=linear_predictor,
                seed=0,
            )
        )
        plan.add(
            ExperimentCell(
                cell_id="toggles/bare",
                trace=_toggle_trace(70),
                seed=1,
            )
        )
        plan.add(
            ExperimentCell(
                cell_id="youtube/bare",
                benchmark="youtube",
                duration_s=60.0,
                seed=2,
            )
        )
        return plan

    @staticmethod
    def _cell_lines(directory):
        lines = {}
        for path in sorted(directory.glob("shard-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                lines[json.loads(line)["cell"]["cell_id"]] = line
        return lines

    def test_windowed_shards_byte_identical_to_unwindowed(
        self, tmp_path, linear_predictor, monkeypatch
    ):
        plan = self._plan(linear_predictor)

        plain_store = StreamingResultStore(tmp_path / "plain", max_cells_per_shard=2)
        BatchRunner(executor=VectorizedExecutor()).run_stream(plan, plain_store)
        plain_store.close()

        spools = []
        original = executors_module._WindowSpoolDrain.__init__

        def counting(self, n_members):
            spools.append(n_members)
            original(self, n_members)

        monkeypatch.setattr(executors_module._WindowSpoolDrain, "__init__", counting)
        windowed_store = StreamingResultStore(
            tmp_path / "windowed", max_cells_per_shard=2
        )
        BatchRunner(executor=VectorizedExecutor(window_steps=8)).run_stream(
            plan, windowed_store
        )
        windowed_store.close()
        assert spools == [len(plan)]  # the spool path actually ran

        plain = self._cell_lines(tmp_path / "plain")
        windowed = self._cell_lines(tmp_path / "windowed")
        assert plain.keys() == windowed.keys() == {c.cell_id for c in plan}
        for cell_id, line in plain.items():
            assert windowed[cell_id] == line

    def test_unwindowed_executor_skips_the_spool(self, tmp_path, monkeypatch):
        plan = ExperimentPlan()
        plan.add(ExperimentCell(cell_id="a", trace=_toggle_trace(20), seed=0))
        plan.add(ExperimentCell(cell_id="b", trace=_toggle_trace(20), seed=1))

        def boom(self, n_members):  # pragma: no cover - guard
            raise AssertionError("spool must not be built for unwindowed plans")

        monkeypatch.setattr(executors_module._WindowSpoolDrain, "__init__", boom)
        store = StreamingResultStore(tmp_path / "out")
        BatchRunner(executor=VectorizedExecutor()).run_stream(plan, store)
        store.close()
        assert len(store.completed_cell_ids) == 2


class TestTraceStackCacheBytes:
    def _clear(self):
        vectorized_module._TRACE_STACK_CACHE.clear()

    def test_oversized_stack_is_not_cached(self, monkeypatch):
        self._clear()
        monkeypatch.setenv("REPRO_TRACE_STACK_CACHE_BYTES", "64")
        traces = [_toggle_trace(50)]
        vectorized_module._stack_trace_arrays(traces, 50)
        assert len(vectorized_module._TRACE_STACK_CACHE) == 0

    def test_byte_lru_eviction(self, monkeypatch):
        self._clear()
        one = [_toggle_trace(40)]
        size = sum(
            column.nbytes
            for column in vectorized_module._stack_trace_arrays(one, 40).values()
        )
        self._clear()
        # Budget fits two stacks of this size but not three.
        monkeypatch.setenv("REPRO_TRACE_STACK_CACHE_BYTES", str(size * 2))
        a, b, c = [_toggle_trace(40)], [_toggle_trace(40)], [_toggle_trace(40)]
        vectorized_module._stack_trace_arrays(a, 40)
        vectorized_module._stack_trace_arrays(b, 40)
        assert len(vectorized_module._TRACE_STACK_CACHE) == 2
        vectorized_module._stack_trace_arrays(c, 40)
        assert len(vectorized_module._TRACE_STACK_CACHE) == 2
        remaining = [key for key in vectorized_module._TRACE_STACK_CACHE]
        # Oldest (a) evicted; b and c remain.
        assert all(id(a[0]) not in key[1] for key in remaining)
        self._clear()

    def test_cache_hits_survive_the_byte_bound(self, monkeypatch):
        self._clear()
        monkeypatch.setenv("REPRO_TRACE_STACK_CACHE_BYTES", str(1 << 20))
        traces = [_toggle_trace(40)]
        first = vectorized_module._stack_trace_arrays(traces, 40)
        second = vectorized_module._stack_trace_arrays(traces, 40)
        assert first is second  # same cached dict, not a rebuild
        self._clear()


class TestMemberCapWindowComposition:
    def test_split_batches_each_window_independently(self):
        # max_batch_members and the window cap compose: the member cap splits
        # the group, then every split batch windows its own longest trace.
        trace = _toggle_trace(30)
        cells = [ExperimentCell(cell_id=f"c{i}", trace=trace, seed=i) for i in range(5)]
        executor = VectorizedExecutor(max_batch_members=4, window_steps=8)
        batch_plan = executor.batch_plan(cells)
        assert [len(batch) for batch in batch_plan.batches] == [3, 2]

        description = batch_plan.describe(
            cells,
            window_steps=executor.window_steps,
            max_window_bytes=executor.max_window_bytes,
        )
        assert description.count("split by max_batch_members") == 2
        assert description.count("windowing: 4 windows x 8 steps") == 2

        results = executor.execute(cells)
        for seed, entry in enumerate(results):
            platform = DevicePlatform(seed=seed)
            reference = Simulator(
                platform=platform, governor=OndemandGovernor(table=platform.freq_table)
            ).run(trace)
            assert entry.result.records == reference.records

    def test_streaming_with_both_caps_matches_serial(self, tmp_path):
        trace = _toggle_trace(30)
        cells = [ExperimentCell(cell_id=f"c{i}", trace=trace, seed=i) for i in range(5)]
        plan = ExperimentPlan(cells)

        serial_store = StreamingResultStore(tmp_path / "serial", max_cells_per_shard=2)
        BatchRunner(executor=SerialExecutor()).run_stream(plan, serial_store)
        serial_store.close()

        capped_store = StreamingResultStore(tmp_path / "capped", max_cells_per_shard=2)
        BatchRunner(
            executor=VectorizedExecutor(max_batch_members=4, window_steps=8)
        ).run_stream(plan, capped_store)
        capped_store.close()

        serial = TestWindowedStreamingShards._cell_lines(tmp_path / "serial")
        capped = TestWindowedStreamingShards._cell_lines(tmp_path / "capped")
        assert serial.keys() == capped.keys()
        for cell_id, line in serial.items():
            assert capped[cell_id] == line


class TestCliWindowFlags:
    def test_parser_accepts_window_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["sweep", "--window-steps", "64"])
        assert args.window_steps == 64
        args = build_parser().parse_args(["sweep", "--window-bytes", "1048576"])
        assert args.window_bytes == 1048576
        assert build_parser().parse_args(["sweep"]).window_steps is None

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", "--window-steps", "1"], "at least 2"),
            (["sweep", "--window-bytes", "0"], "must be positive"),
            (["sweep", "--window-bytes", "-4"], "must be positive"),
            (["fig1", "--window-steps", "8"], "--window-steps only applies to 'sweep'"),
            (["golden", "--window-bytes", "8"], "--window-bytes only applies to 'sweep'"),
            (
                ["sweep", "--window-steps", "8", "--window-bytes", "8"],
                "different window sizings",
            ),
            (
                ["sweep", "--window-bytes", "4096", "--fleet", "2", "--stream-to", "out"],
                "--window-bytes tunes the in-process vectorized runner",
            ),
            (
                ["sweep", "--window-steps", "8", "--fleet", "2", "--stream-to", "out"],
                "not --fleet shards",
            ),
        ],
    )
    def test_window_flag_validation(self, argv, message):
        from repro.cli import main

        with pytest.raises(SystemExit, match=message):
            main(argv)

    def test_for_jobs_threads_window_settings(self):
        runner = BatchRunner.for_jobs(None, window_steps=16)
        assert isinstance(runner.executor, VectorizedExecutor)
        assert runner.executor.window_steps == 16
        runner = BatchRunner.for_jobs(1, window_bytes=4096)
        assert runner.executor.max_window_bytes == 4096
        # Defaults untouched when no flags are passed.
        runner = BatchRunner.for_jobs(None)
        assert runner.executor.window_steps is None
        assert runner.executor.max_window_bytes == DEFAULT_MAX_WINDOW_BYTES
