"""Tests for the streaming results pipeline.

The contract: streamed execution — records flowing from the simulation
kernel through a :class:`RecordSink` into a sharded on-disk
:class:`StreamingResultStore` — is bit-identical to the in-memory batch path
under every executor, holds no more than ~one cell's records live at a time,
and survives crashes: a truncated final shard line is detected, dropped and
re-run on ``--resume`` instead of being loaded as garbage.
"""

import gc
import json
import weakref

import pytest

from repro.analysis.streaming import SummarySink, stream_summaries, summarize_records
from repro.api.specs import AdapterSpec, GovernorSpec, ManagerSpec, PolicySpec
from repro.fleet import FleetCoordinator
from repro.runtime import (
    BatchRunner,
    CollectorSink,
    ExperimentCell,
    ExperimentPlan,
    ResultStore,
    SerialExecutor,
    StoreCorruptionError,
    StreamingResultStore,
    TeeSink,
    VectorizedExecutor,
    run_cell,
    stream_cell,
)
from repro.users.adaptation import WARM_START_TEMPS
from repro.users.comfort import analyse_comfort, analyse_comfort_stream
from repro.workloads.benchmarks import build_benchmark


def _plan(trace, linear_predictor):
    """A small mixed plan: bare governor, static USTA, adaptive USTA, benchmark."""
    adaptive = PolicySpec(
        manager=ManagerSpec("usta", params={"skin_limit_c": 37.0}),
        adapter=AdapterSpec(
            "feedback_step",
            feedback={"true_limit_c": 34.3, "report_period_s": 9.0},
        ),
    )
    plan = ExperimentPlan()
    plan.add(
        ExperimentCell(
            cell_id="baseline",
            trace=trace,
            policy=PolicySpec(governor=GovernorSpec("ondemand")),
            seed=2,
            metadata={"scheme": "baseline", "user_id": "b"},
        )
    )
    plan.add(
        ExperimentCell(
            cell_id="usta",
            trace=trace,
            policy=PolicySpec(manager=ManagerSpec("usta", params={"skin_limit_c": 33.0})),
            predictor=linear_predictor,
            seed=2,
            metadata={"scheme": "usta", "user_id": "b"},
        )
    )
    plan.add(
        ExperimentCell(
            cell_id="adaptive",
            trace=trace,
            policy=adaptive,
            predictor=linear_predictor,
            seed=2,
            initial_temps=WARM_START_TEMPS,
            metadata={"scheme": "adaptive", "user_id": "b"},
        )
    )
    plan.add(
        ExperimentCell(
            cell_id="bench",
            benchmark="youtube",
            duration_s=60.0,
            seed=7,
            metadata={"scheme": "bench", "user_id": "b"},
        )
    )
    return plan


@pytest.fixture()
def trace():
    return build_benchmark("skype", seed=2, duration_s=120)


class TestStreamedExecutorParity:
    @pytest.mark.parametrize(
        "executor",
        [
            SerialExecutor(),
            VectorizedExecutor(),
        ],
        ids=["serial", "vectorized"],
    )
    def test_streamed_store_bit_identical_to_batch(
        self, tmp_path, trace, linear_predictor, executor
    ):
        plan = _plan(trace, linear_predictor)
        batch = BatchRunner(executor=SerialExecutor()).run(plan)
        store = StreamingResultStore(tmp_path / "stream", max_cells_per_shard=2)
        executed = BatchRunner(executor=executor).run_stream(plan, store)
        store.close()
        assert executed == len(plan)

        loaded = StreamingResultStore(tmp_path / "stream").load()
        assert len(loaded) == len(plan)
        for cell in plan:
            got = loaded.get(cell.cell_id)
            want = batch.get(cell.cell_id)
            assert got.result.records == want.result.records
            assert got.result.governor_name == want.result.governor_name
            assert got.result.dt_s == want.result.dt_s

    @pytest.mark.parametrize(
        "streamer",
        ["serial", "vectorized", "vectorized-windowed", "fleet-2"],
    )
    def test_shard_lines_byte_identical_to_batch_save(
        self, tmp_path, trace, linear_predictor, streamer
    ):
        plan = _plan(trace, linear_predictor)
        batch = BatchRunner(executor=SerialExecutor()).run(plan)
        save_path = tmp_path / "batch.jsonl"
        batch.save(save_path)

        directory = tmp_path / "stream"
        if streamer == "fleet-2":
            FleetCoordinator(plan, directory, workers=2, max_cells_per_shard=3).run()
        else:
            executor = {
                "serial": SerialExecutor(),
                "vectorized": VectorizedExecutor(),
                # 8-step windows over the 120-step traces: the spool path.
                "vectorized-windowed": VectorizedExecutor(window_steps=8),
            }[streamer]
            store = StreamingResultStore(directory, max_cells_per_shard=3)
            BatchRunner(executor=executor).run_stream(plan, store)
            store.close()

        def by_cell(lines):
            return {json.loads(line)["cell"]["cell_id"]: line for line in lines}

        saved = by_cell(save_path.read_text().splitlines())
        shard_lines = []
        for shard in sorted(directory.glob("shard-*.jsonl")):
            shard_lines.extend(shard.read_text().splitlines())
        assert by_cell(shard_lines) == saved

    def test_shard_rotation_and_completed_ids(self, tmp_path, trace, linear_predictor):
        plan = _plan(trace, linear_predictor)
        store = StreamingResultStore(tmp_path / "s", max_cells_per_shard=2)
        BatchRunner(executor=SerialExecutor()).run_stream(plan, store)
        store.close()
        shards = sorted(p.name for p in (tmp_path / "s").glob("shard-*.jsonl"))
        assert shards == ["shard-00000.jsonl", "shard-00001.jsonl"]
        reopened = StreamingResultStore(tmp_path / "s")
        assert reopened.completed_cell_ids == {cell.cell_id for cell in plan}
        assert len(reopened) == len(plan)

    def test_duplicate_cell_rejected(self, tmp_path):
        trace = build_benchmark("skype", seed=0, duration_s=30)
        cell = ExperimentCell(cell_id="x", trace=trace, seed=0)
        store = StreamingResultStore(tmp_path / "s")
        stream_cell(cell, store)
        with pytest.raises(ValueError, match="duplicate"):
            stream_cell(cell, store)
        store.close()


class TestBoundedMemory:
    @pytest.mark.parametrize(
        "executor", [SerialExecutor(), VectorizedExecutor()], ids=["serial", "vectorized"]
    )
    def test_live_record_footprint_stays_under_one_cell(self, tmp_path, executor):
        """A multi-cell streamed sweep never holds more than ~one cell's records."""
        trace = build_benchmark("skype", seed=0, duration_s=120)
        cells = [
            ExperimentCell(cell_id=f"c{i}", trace=trace, seed=i) for i in range(4)
        ]
        steps_per_cell = len(trace)

        refs = []
        peak = 0

        class Watcher:
            """Tee-side sink tracking how many emitted records are still alive."""

            def begin_cell(self, cell, workload_name, governor_name, dt_s):
                pass

            def emit(self, record):
                nonlocal peak
                refs.append(weakref.ref(record))
                alive = sum(1 for ref in refs if ref() is not None)
                peak = max(peak, alive)

            def end_cell(self, logger=None):
                pass

        store = StreamingResultStore(tmp_path / "s")
        BatchRunner(executor=executor).run_stream(
            ExperimentPlan(cells), TeeSink(store, Watcher())
        )
        store.close()
        gc.collect()

        assert len(refs) == 4 * steps_per_cell  # every record was emitted ...
        assert peak <= steps_per_cell  # ... but never a full cell was live at once
        # The streamed records are written out and dropped, not retained.
        assert sum(1 for ref in refs if ref() is not None) == 0


class TestCrashSafeResume:
    def _populate(self, directory, plan, upto):
        """Stream the first ``upto`` cells of the plan into the directory."""
        store = StreamingResultStore(directory, max_cells_per_shard=2)
        for cell in list(plan)[:upto]:
            stream_cell(cell, store)
        store.close()
        return store

    def test_truncated_final_line_is_recovered_and_rerun(
        self, tmp_path, trace, linear_predictor
    ):
        plan = _plan(trace, linear_predictor)
        batch = BatchRunner(executor=SerialExecutor()).run(plan)
        directory = tmp_path / "s"
        self._populate(directory, plan, upto=3)

        # Simulate a crash mid-cell: an unterminated, half-written line.
        shards = sorted(directory.glob("shard-*.jsonl"))
        with open(shards[-1], "a", encoding="utf-8") as fh:
            fh.write('{"cell":{"cell_id":"bench","benchmark":"youtube"')

        store = StreamingResultStore(directory, max_cells_per_shard=2)
        assert store.recovered_tail is not None
        assert "bench" in store.recovered_tail
        assert store.completed_cell_ids == {"baseline", "usta", "adaptive"}

        executed = BatchRunner(executor=SerialExecutor()).run_stream(
            plan, store, skip=store.completed_cell_ids
        )
        store.close()
        assert executed == 1  # only the interrupted cell re-ran
        loaded = StreamingResultStore(directory).load()
        for cell in plan:
            assert loaded.get(cell.cell_id).result.records == batch.get(
                cell.cell_id
            ).result.records

    def test_corrupt_terminated_final_line_is_dropped(self, tmp_path, trace, linear_predictor):
        plan = _plan(trace, linear_predictor)
        directory = tmp_path / "s"
        self._populate(directory, plan, upto=2)
        shards = sorted(directory.glob("shard-*.jsonl"))
        with open(shards[-1], "a", encoding="utf-8") as fh:
            fh.write('{"cell": not json}\n')
        store = StreamingResultStore(directory)
        assert store.recovered_tail is not None
        assert store.completed_cell_ids == {"baseline", "usta"}
        # The recovered store loads cleanly — no garbage cell.
        assert {e.cell.cell_id for e in store.iter_results()} == {"baseline", "usta"}

    def test_mid_store_corruption_raises(self, tmp_path, trace, linear_predictor):
        plan = _plan(trace, linear_predictor)
        directory = tmp_path / "s"
        self._populate(directory, plan, upto=3)
        first = sorted(directory.glob("shard-*.jsonl"))[0]
        lines = first.read_text().splitlines()
        lines[0] = lines[0][: len(lines[0]) // 2]  # damage a non-final line
        first.write_text("\n".join(lines) + "\n")
        with pytest.raises(StoreCorruptionError, match="not the store's final line"):
            StreamingResultStore(directory)

    def test_resume_skips_and_totals_match_full_batch(self, tmp_path, trace, linear_predictor):
        plan = _plan(trace, linear_predictor)
        batch = BatchRunner(executor=SerialExecutor()).run(plan)
        directory = tmp_path / "s"
        self._populate(directory, plan, upto=2)

        store = StreamingResultStore(directory, max_cells_per_shard=2)
        executed = BatchRunner(executor=VectorizedExecutor()).run_stream(
            plan, store, skip=store.completed_cell_ids
        )
        store.close()
        assert executed == 2
        loaded = StreamingResultStore(directory).load()
        assert len(loaded) == len(plan)
        for cell in plan:
            assert loaded.get(cell.cell_id).result.records == batch.get(
                cell.cell_id
            ).result.records


class TestWorkloadFieldRoundTrip:
    def test_save_load_save_is_stable_for_trace_cells(self, tmp_path, trace, linear_predictor):
        """A loaded detached-trace cell must re-save as workload="trace"."""
        plan = _plan(trace, linear_predictor)
        store = BatchRunner(executor=SerialExecutor()).run(plan)
        first = tmp_path / "one.jsonl"
        second = tmp_path / "two.jsonl"
        store.save(first)
        ResultStore.load(first).save(second)
        assert first.read_text() == second.read_text()
        reloaded = ResultStore.load(second)
        assert reloaded.get("baseline").cell.detached_trace
        with pytest.raises(ValueError, match="cannot be re-executed"):
            reloaded.get("baseline").cell.build_trace()


class TestStreamingAggregates:
    def test_summary_matches_batch_reductions(self, trace, linear_predictor):
        entry = run_cell(
            ExperimentCell(
                cell_id="usta",
                trace=trace,
                policy=PolicySpec(manager=ManagerSpec("usta", params={"skin_limit_c": 33.0})),
                predictor=linear_predictor,
                seed=2,
            )
        )
        result = entry.result
        summary = summarize_records(result.records, result.dt_s, limit_c=33.0)
        # Maxima, counts and over-limit times are exact.
        assert summary.max_skin_temp_c == result.max_skin_temp_c
        assert summary.max_screen_temp_c == result.max_screen_temp_c
        assert summary.max_cpu_temp_c == result.max_cpu_temp_c
        assert summary.usta_active_fraction == result.usta_active_fraction
        assert summary.time_over_limit_s == result.comfort_against(33.0).time_over_limit_s
        assert summary.n_records == len(result)
        assert summary.final_comfort_limit_c == result.records[-1].comfort_limit_c
        # Running means agree with numpy's pairwise sums to float precision.
        assert summary.average_frequency_ghz == pytest.approx(
            result.average_frequency_ghz, rel=1e-12
        )
        assert summary.average_power_w == pytest.approx(result.average_power_w, rel=1e-12)
        assert summary.throughput_ratio == pytest.approx(result.throughput_ratio, rel=1e-12)

    def test_summary_sink_collects_per_cell(self, tmp_path, trace, linear_predictor):
        plan = _plan(trace, linear_predictor)
        sink = SummarySink(limit_for=lambda cell: 34.0)
        store = StreamingResultStore(tmp_path / "s")
        BatchRunner(executor=SerialExecutor()).run_stream(plan, TeeSink(store, sink))
        store.close()
        assert set(sink.by_id) == {cell.cell_id for cell in plan}
        # The post-hoc streaming pass over the shards reproduces the live sink.
        replay = stream_summaries(
            StreamingResultStore(tmp_path / "s"), limit_for=lambda cell: 34.0
        )
        for cell_id, entry in sink.by_id.items():
            assert replay[cell_id].summary.max_skin_temp_c == entry.summary.max_skin_temp_c
            assert replay[cell_id].summary.time_over_limit_s == entry.summary.time_over_limit_s

    def test_analyse_comfort_stream_matches_array_form(self):
        temps = [30.0, 33.5, 36.2, 38.9, 37.1, 33.0, 41.5, 29.9]
        batch = analyse_comfort(temps, 36.0, dt_s=2.0, user_id="u")
        stream = analyse_comfort_stream(iter(temps), 36.0, dt_s=2.0, user_id="u")
        assert stream.time_over_limit_s == batch.time_over_limit_s
        assert stream.peak_temp_c == batch.peak_temp_c
        assert stream.peak_exceedance_c == batch.peak_exceedance_c
        assert stream.onset_time_s == batch.onset_time_s
        assert stream.duration_s == batch.duration_s
        assert stream.mean_exceedance_c == pytest.approx(batch.mean_exceedance_c, rel=1e-12)
        with pytest.raises(ValueError, match="empty"):
            analyse_comfort_stream(iter([]), 36.0)

    def test_collector_sink_reproduces_run_cell(self, trace):
        cell = ExperimentCell(cell_id="x", trace=trace, seed=3)
        collector = CollectorSink()
        stream_cell(cell, collector)
        assert collector.results[0].result.records == run_cell(cell).result.records


class TestStreamedTable1AndFrontier:
    def test_reproduce_table1_streaming_matches_batch(self, tmp_path, small_context):
        from repro.analysis.table1 import reproduce_table1

        kwargs = dict(benchmarks=("skype", "youtube"), duration_scale=0.02)
        batch_rows = reproduce_table1(small_context, **kwargs)
        stream_rows = reproduce_table1(
            small_context, stream_to=tmp_path / "t1", **kwargs
        )
        for b, s in zip(batch_rows, stream_rows):
            assert s.benchmark == b.benchmark
            assert s.baseline_max_skin_c == b.baseline_max_skin_c
            assert s.usta_max_skin_c == b.usta_max_skin_c
            assert s.baseline_avg_freq_ghz == pytest.approx(b.baseline_avg_freq_ghz, rel=1e-12)
        # Refuses to clobber a populated directory without resume ...
        with pytest.raises(ValueError, match="resume"):
            reproduce_table1(small_context, stream_to=tmp_path / "t1", **kwargs)
        # ... and resumes it without re-running anything, to the same rows.
        resumed = reproduce_table1(
            small_context, stream_to=tmp_path / "t1", resume=True, **kwargs
        )
        for s, r in zip(stream_rows, resumed):
            assert r.baseline_max_skin_c == s.baseline_max_skin_c
            assert r.usta_max_skin_c == s.usta_max_skin_c

    def test_frontier_streaming_matches_batch(self, tmp_path, small_context):
        from repro.analysis.adaptation import comfort_performance_frontier

        kwargs = dict(
            adapters=("quantile_tracker",),
            duration_s=90.0,
            user_ids=("b", "g"),
        )
        batch_points = comfort_performance_frontier(small_context, **kwargs)
        stream_points = comfort_performance_frontier(
            small_context, stream_to=tmp_path / "fr", **kwargs
        )
        assert len(stream_points) == len(batch_points)
        for b, s in zip(batch_points, stream_points):
            assert (s.user_id, s.scheme) == (b.user_id, b.scheme)
            assert s.discomfort_minutes == b.discomfort_minutes
            assert s.final_limit_c == b.final_limit_c
            assert s.throughput_loss == pytest.approx(b.throughput_loss, rel=1e-12)
        # A populated directory is refused without resume ...
        with pytest.raises(ValueError, match="resume"):
            comfort_performance_frontier(small_context, stream_to=tmp_path / "fr", **kwargs)
        # ... and with resume, foreign cells another plan left behind are
        # ignored (regression: they used to crash the summary fold).
        foreign = ExperimentCell(
            cell_id="foreign", benchmark="youtube", duration_s=20.0, seed=9,
            metadata={"scheme": "other"},  # note: no user_id
        )
        extra = StreamingResultStore(tmp_path / "fr")
        stream_cell(foreign, extra)
        extra.close()
        resumed = comfort_performance_frontier(
            small_context, stream_to=tmp_path / "fr", resume=True, **kwargs
        )
        for s, r in zip(stream_points, resumed):
            assert r.discomfort_minutes == s.discomfort_minutes
            assert r.final_limit_c == s.final_limit_c
