"""Tests for the columnar record path.

The contract: a batch engine's records travel to sinks as
:class:`~repro.sim.results.RecordColumns`, and every form built from them is
bit-identical to the per-record path it replaces — the column blocks to the
blocks of the same records written one by one, the column fold to
:meth:`StreamingCellSummary.add`, the columnar read-back to the record
read-back — while a vectorized stream into a store and a summary builds no
:class:`StepRecord` at all.
"""

import json
from dataclasses import asdict

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.sim.results as results_module
from repro.analysis.streaming import (
    StreamingCellSummary,
    SummarySink,
    stream_summaries,
    summarize_records,
)
from repro.api.specs import GovernorSpec, ManagerSpec, PolicySpec
from repro.runtime import (
    BatchRunner,
    ExperimentCell,
    ExperimentPlan,
    ResultStore,
    SerialExecutor,
    StreamingResultStore,
    TeeSink,
    VectorizedExecutor,
)
from repro.runtime.golden import record_to_jsonable
from repro.runtime.store import CellLineWriter, CellResult
from repro.runtime.stream import forward_columns, push_cell_result
from repro.sim.results import RecordColumns, SimulationResult, StepRecord
from repro.workloads.benchmarks import build_benchmark

_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
#: Grid values shared by temperatures and limits, so ties (where ``>`` and
#: ``>=`` part ways) and repeated maxima actually occur.
_GRID = [33.0, 35.5]
_TEMPS = st.one_of(
    st.floats(min_value=20.0, max_value=60.0),
    st.sampled_from([float("nan"), -0.0, 0.0] + _GRID),
)
_LIMITS = st.one_of(
    st.none(), st.floats(min_value=30.0, max_value=45.0), st.sampled_from(_GRID)
)


@st.composite
def _records(draw, max_size=40):
    """Step records with the value shapes the engines and old files produce."""
    n = draw(st.integers(min_value=0, max_value=max_size))
    optional = st.one_of(st.none(), _TEMPS)
    return [
        StepRecord(
            time_s=draw(_FLOATS),
            frequency_khz=draw(st.integers(min_value=0, max_value=3_000_000)),
            frequency_level=draw(st.integers(min_value=0, max_value=12)),
            level_cap=draw(st.integers(min_value=0, max_value=12)),
            utilization=draw(_FLOATS),
            demand=draw(st.floats(min_value=0.0, max_value=2.0)),
            delivered_work=draw(st.floats(min_value=0.0, max_value=2.0)),
            power_w=draw(st.floats(min_value=0.0, max_value=8.0)),
            cpu_temp_c=draw(_TEMPS),
            battery_temp_c=draw(_TEMPS),
            skin_temp_c=draw(_TEMPS),
            screen_temp_c=draw(_TEMPS),
            sensor_cpu_temp_c=draw(_TEMPS),
            sensor_battery_temp_c=draw(_TEMPS),
            sensor_skin_temp_c=draw(_TEMPS),
            sensor_screen_temp_c=draw(_TEMPS),
            predicted_skin_temp_c=draw(optional),
            predicted_screen_temp_c=draw(optional),
            usta_active=draw(st.booleans()),
            comfort_limit_c=draw(optional),
        )
        for _ in range(n)
    ]


def _columns(records):
    return RecordColumns(
        [[getattr(r, name) for r in records] for name in results_module._RECORD_FIELDS]
    )


def _line(feed):
    """The stored line a :class:`CellLineWriter` writes when ``feed(writer)`` adds."""
    out = []
    writer = CellLineWriter(out.append)
    writer.begin_cell(ExperimentCell("c0", benchmark="skype"), "skype", "ondemand", 1.0)
    feed(writer)
    writer.end_cell()
    return "".join(out)


class TestSerialization:
    @given(_records(), st.lists(st.integers(min_value=1, max_value=8), max_size=6))
    def test_columns_store_like_the_records_one_by_one(self, records, cuts):
        def by_record(writer):
            for record in records:
                writer.emit(record)

        def by_columns(writer):
            start = 0
            for size in cuts + [len(records)]:
                writer.emit_columns(_columns(records[start : start + size]))
                start += size

        assert _line(by_columns) == _line(by_record)

    @given(_records(max_size=5))
    def test_record_to_jsonable_matches_asdict(self, records):
        for record in records:
            got = record_to_jsonable(record)
            assert list(got) == list(asdict(record))
            assert json.dumps(got) == json.dumps(asdict(record))

    @given(_records())
    def test_block_round_trips_to_the_same_records(self, records):
        block = json.loads(_columns(records).to_block())
        back = list(RecordColumns.from_blocks([block]))
        # repr compares NaNs and signed zeros bit-for-bit where == cannot.
        assert repr(back) == repr(records)

    def test_missing_optional_fields_take_dataclass_defaults(self):
        record = asdict(_columns_one())
        for name in ("predicted_skin_temp_c", "usta_active", "comfort_limit_c"):
            del record[name]
        (rebuilt,) = RecordColumns.from_jsonable([record])
        assert rebuilt == StepRecord(**record)

    def test_unknown_field_is_rejected_with_the_cell_id(self, tmp_path):
        trace = build_benchmark("skype", seed=0, duration_s=10)
        store = ResultStore()
        store.append(
            BatchRunner().run(ExperimentPlan([ExperimentCell("c0", trace=trace)])).get("c0")
        )
        path = tmp_path / "s.jsonl"
        store.save(path)
        payload = json.loads(path.read_text())
        payload["result"]["blocks"][0]["bogus"] = "AA=="
        path.write_text(json.dumps(payload) + "\n")
        with pytest.raises(ValueError, match=r"unknown step-record field.*'c0'"):
            ResultStore.load(path)


def _columns_one():
    return StepRecord(
        time_s=1.0, frequency_khz=384000, frequency_level=0, level_cap=11,
        utilization=0.5, demand=0.4, delivered_work=0.4, power_w=1.2,
        cpu_temp_c=40.0, battery_temp_c=31.0, skin_temp_c=33.5, screen_temp_c=32.0,
        sensor_cpu_temp_c=40.1, sensor_battery_temp_c=31.1, sensor_skin_temp_c=33.4,
        sensor_screen_temp_c=32.1,
    )


def _state(summary):
    """Every running aggregate, with floats compared bit-for-bit via repr."""
    return repr(vars(summary))


class TestColumnFold:
    @given(
        _records(),
        _LIMITS,
        st.lists(st.integers(min_value=1, max_value=15), max_size=6),
    )
    def test_column_fold_equals_record_fold(self, records, limit_c, cuts):
        by_record = summarize_records(records, dt_s=1.0, limit_c=limit_c)
        by_columns = StreamingCellSummary(1.0, limit_c=limit_c)
        # Fold in arbitrary runs, as window replays and column blocks do.
        start = 0
        for size in cuts + [len(records)]:
            by_columns.add_columns(_columns(records[start : start + size]))
            start += size
        assert _state(by_columns) == _state(by_record)

    def test_empty_run_is_a_no_op(self):
        summary = StreamingCellSummary(1.0, limit_c=35.0)
        summary.add_columns(_columns([]))
        assert summary.n_records == 0 and summary.final_comfort_limit_c is None


class _ColumnSpy:
    def __init__(self):
        self.got = []

    def begin_cell(self, *args, **kwargs):
        pass

    def emit_columns(self, columns):
        self.got.append(("columns", columns))

    def end_cell(self, *args, **kwargs):
        pass


class _RecordSpy(_ColumnSpy):
    emit_columns = None

    def emit(self, record):
        self.got.append(("record", record))


class TestDispatch:
    def test_tee_hands_each_child_its_own_form_built_once(self, monkeypatch):
        records = [_columns_one()] * 3
        columns = _columns(records)
        calls = []
        real = results_module._fast_records
        monkeypatch.setattr(
            results_module, "_fast_records", lambda series: calls.append(1) or real(series)
        )
        spies = [_ColumnSpy(), _RecordSpy(), _RecordSpy()]
        TeeSink(*spies).emit_columns(columns)
        assert spies[0].got == [("columns", columns)]
        assert [r for _, r in spies[1].got] == [r for _, r in spies[2].got] == records
        assert len(calls) == 1  # records built once for both record takers

    def test_single_sinks_get_the_same_forms(self):
        records = [_columns_one()] * 2
        column_spy, record_spy = _ColumnSpy(), _RecordSpy()
        forward_columns(column_spy, _columns(records))
        result = SimulationResult("w", "g", 1.0)
        result.defer_columns(lambda: _columns(records))
        push_cell_result(record_spy, CellResult(cell=None, result=result))
        assert list(column_spy.got[0][1]) == records
        assert [r for _, r in record_spy.got] == records
        # Pushing never materialises the result's record list.
        assert result.__dict__["records"] is None


def _managed_plan(linear_predictor, n=4):
    trace = build_benchmark("skype", seed=1, duration_s=60)
    plan = ExperimentPlan()
    for i in range(n):
        policy = (
            PolicySpec(governor=GovernorSpec("ondemand"))
            if i % 2 == 0
            else PolicySpec(manager=ManagerSpec("usta", params={"skin_limit_c": 33.0}))
        )
        plan.add(
            ExperimentCell(
                cell_id=f"c{i}",
                trace=trace,
                policy=policy,
                predictor=linear_predictor if i % 2 else None,
                seed=i,
                metadata={"limit": 33.0},
            )
        )
    return plan


class _Proxy:
    """A timing-proxy-shaped wrapper: begin/emit/emit_serialized/end only."""

    def __init__(self, sink):
        self._sink = sink
        self.begin_cell = sink.begin_cell
        self.emit = sink.emit
        self.end_cell = sink.end_cell
        fast = getattr(sink, "emit_serialized", None)
        if fast is not None:
            self.emit_serialized = fast


def _shard_lines(directory):
    lines = []
    for shard in sorted(directory.glob("shard-*.jsonl")):
        lines.extend(shard.read_text().splitlines())
    return lines


class TestStreamedColumns:
    def _count_records(self, monkeypatch):
        built = [0]
        fast = results_module._fast_records
        init = StepRecord.__init__

        def counting_fast(series):
            for record in fast(series):
                built[0] += 1
                yield record

        def counting_init(self, *args, **kwargs):
            built[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(results_module, "_fast_records", counting_fast)
        monkeypatch.setattr(StepRecord, "__init__", counting_init)
        return built

    def test_vectorized_stream_into_store_and_summary_builds_no_records(
        self, tmp_path, linear_predictor, monkeypatch
    ):
        plan = _managed_plan(linear_predictor)
        built = self._count_records(monkeypatch)
        # The counter sees the records a serial run builds ...
        serial = StreamingResultStore(tmp_path / "serial")
        BatchRunner(executor=SerialExecutor()).run_stream(plan, TeeSink(serial, SummarySink()))
        serial.close()
        assert built[0] == sum(len(c.build_trace()) for c in plan)
        # ... and the vectorized run builds none.
        built[0] = 0
        store = StreamingResultStore(tmp_path / "vec")
        summaries = SummarySink(limit_for=lambda cell: cell.metadata["limit"])
        BatchRunner(executor=VectorizedExecutor()).run_stream(plan, TeeSink(store, summaries))
        store.close()
        assert built[0] == 0
        assert len(summaries.entries) == len(plan)
        # The read-back folds columns too.
        stream_summaries(StreamingResultStore(tmp_path / "vec"))
        assert built[0] == 0

    def test_proxied_sinks_write_the_same_shards_and_summaries(
        self, tmp_path, linear_predictor
    ):
        plan = _managed_plan(linear_predictor)
        runs = {}
        for name, wrap in (("direct", lambda s: s), ("proxied", _Proxy)):
            store = StreamingResultStore(tmp_path / name)
            summaries = SummarySink(limit_for=lambda cell: cell.metadata["limit"])
            BatchRunner(executor=VectorizedExecutor()).run_stream(
                plan, TeeSink(wrap(store), wrap(summaries))
            )
            store.close()
            runs[name] = (
                _shard_lines(tmp_path / name),
                [_state(e.summary) for e in summaries.entries],
            )
        assert runs["direct"] == runs["proxied"]

    def test_columnar_read_back_equals_record_read_back(self, tmp_path, linear_predictor):
        plan = _managed_plan(linear_predictor)
        store = StreamingResultStore(tmp_path / "s")
        live = SummarySink(limit_for=lambda cell: cell.metadata["limit"])
        BatchRunner(executor=VectorizedExecutor()).run_stream(plan, TeeSink(store, live))
        store.close()
        store = StreamingResultStore(tmp_path / "s")
        read_back = stream_summaries(store, limit_for=lambda cell: cell.metadata["limit"])
        for entry in store.iter_results():
            folded = summarize_records(entry.result.records, entry.result.dt_s, limit_c=33.0)
            assert _state(read_back[entry.cell.cell_id].summary) == _state(folded)
            assert _state(live.by_id[entry.cell.cell_id].summary) == _state(folded)
