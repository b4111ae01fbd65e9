"""Tests for column-backed simulation results.

A batch engine's :class:`SimulationResult` keeps its records in the engine's
column buffer.  ``len``, the time series and every summary read single fields
from there, and ``records`` is a :class:`RecordsView` until something needs
the whole list.  The contract: every read is bit-identical to the same read
over materialised records, and the view behaves like the list it stands for.
"""

import collections.abc
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.results as results_module
from repro.api.specs import AdapterSpec, ManagerSpec, PolicySpec
from repro.cli import _SweepRow
from repro.runtime import BatchRunner, ExperimentCell, ExperimentPlan, VectorizedExecutor
from repro.sim.results import (
    ColumnarRecordBuffer,
    RecordColumns,
    RecordsView,
    SimulationResult,
    StepRecord,
)
from repro.users import paper_population
from repro.workloads.benchmarks import build_benchmark

SERIES = (
    "times_s",
    "skin_temps_c",
    "screen_temps_c",
    "cpu_temps_c",
    "battery_temps_c",
    "frequencies_khz",
    "utilizations",
    "power_w",
)
SUMMARIES = (
    "duration_s",
    "max_skin_temp_c",
    "max_screen_temp_c",
    "max_cpu_temp_c",
    "average_frequency_ghz",
    "average_power_w",
    "total_energy_j",
    "demanded_work",
    "delivered_work",
    "throughput_ratio",
    "usta_active_fraction",
)
#: Lengths around numpy's 8192-element reduction buffer and pairwise blocks.
LENGTHS = st.one_of(
    st.integers(min_value=0, max_value=40), st.sampled_from([128, 129, 8192, 8193, 9000])
)


def _bits(value) -> bytes:
    return struct.pack("<d", value)


def _fill_buffer(n_members, n_steps, with_decisions, seed, specials):
    """A buffer with seeded values: temperatures around a comfort limit,
    optional NaN/±0.0/inf, USTA toggling, None and float decision fields."""
    rng = np.random.default_rng(seed)
    buf = ColumnarRecordBuffer(n_members, n_steps, with_decisions=with_decisions)
    shape = (n_steps, n_members)
    for name in ColumnarRecordBuffer._FLOAT_COLUMNS:
        column = rng.normal(35.0, 4.0, shape)
        if specials and n_steps:
            picks = rng.integers(0, n_steps, size=4)
            column[picks, rng.integers(0, n_members, size=4)] = [np.nan, -0.0, 0.0, np.inf]
        setattr(buf, name, column)
    for name in ColumnarRecordBuffer._INT_COLUMNS:
        setattr(buf, name, rng.integers(300_000, 2_300_000, shape))
    if with_decisions:
        buf.usta_active[...] = rng.random(shape) < rng.random()
        for name, present in zip(ColumnarRecordBuffer._DECISION_COLUMNS, buf.decision_present):
            getattr(buf, name)[...] = rng.normal(36.0, 1.0, shape)
            present[...] = rng.random(shape) >= 0.3
    times = (np.arange(n_steps) * 0.5).tolist()
    return buf, times


@st.composite
def _cells(draw):
    n_steps = draw(LENGTHS)
    n_members = draw(st.integers(min_value=1, max_value=3))
    buf, times = _fill_buffer(
        n_members,
        n_steps,
        with_decisions=draw(st.booleans()),
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        specials=draw(st.booleans()),
    )
    member = draw(st.integers(min_value=0, max_value=n_members - 1))
    count = draw(st.integers(min_value=0, max_value=n_steps))
    return buf, times, member, count


def _results(buf, times, member, count):
    """(buffer-backed, columns-backed, eager) results over the same records."""
    backed = buf.extend_result(SimulationResult("w", "g", 0.5), member, times, count)
    columns = buf.member_columns(member, times, count)
    from_columns = SimulationResult("w", "g", 0.5)
    from_columns.defer_columns(lambda: columns)
    eager = SimulationResult("w", "g", 0.5, records=list(columns))
    return backed, from_columns, eager


def _assert_reads_equal(result, eager, limit_c):
    assert len(result) == len(eager)
    for name in SERIES:
        got, want = getattr(result, name)(), getattr(eager, name)()
        assert got.dtype == want.dtype, name
        assert got.flags.c_contiguous, name
        assert got.tobytes() == want.tobytes(), name
    for name in SUMMARIES:
        assert _bits(getattr(result, name)) == _bits(getattr(eager, name)), name
    assert {k: _bits(v) for k, v in result.summary().items()} == {
        k: _bits(v) for k, v in eager.summary().items()
    }
    if len(eager):
        # repr tells NaN and -0.0 apart where == cannot.
        assert repr(result.comfort_against(limit_c)) == repr(eager.comfort_against(limit_c))
        assert _bits(result.percent_time_over(limit_c)) == _bits(
            eager.percent_time_over(limit_c)
        )
        assert repr(result.records[-1]) == repr(eager.records[-1])
        assert repr(result.records[0]) == repr(eager.records[0])
    else:
        with pytest.raises(ValueError):
            result.comfort_against(limit_c)


class TestColumnReads:
    @settings(max_examples=60, deadline=None)
    @given(_cells(), st.sampled_from([33.0, 35.0, 37.5]))
    def test_every_read_matches_materialised_records(self, cell, limit_c):
        backed, from_columns, eager = _results(*cell)
        for result in (backed, from_columns):
            _assert_reads_equal(result, eager, limit_c)
            # The reads left the records unbuilt.
            assert result.__dict__["records"] is None
        # And materialising gives the same list.
        assert repr(backed.records) == repr(eager.records)
        assert repr(list(from_columns.records)) == repr(eager.records)

    def test_series_are_copies_not_buffer_views(self):
        buf, times = _fill_buffer(1, 5, with_decisions=False, seed=0, specials=False)
        result = buf.extend_result(SimulationResult("w", "g", 1.0), 0, times, 5)
        before = buf.skin_temp_c[:, 0].copy()
        result.skin_temps_c()[:] = 0.0
        assert buf.skin_temp_c[:, 0].tobytes() == before.tobytes()

    def test_manager_less_buffer_reports_no_usta(self):
        buf, times = _fill_buffer(2, 10, with_decisions=False, seed=1, specials=False)
        result = buf.extend_result(SimulationResult("w", "g", 1.0), 1, times, 10)
        assert result.usta_active_fraction == 0.0
        assert result.records[-1].comfort_limit_c is None
        assert result.records[-1].usta_active is False


def _view(n=6, seed=3):
    buf, times = _fill_buffer(2, n, with_decisions=True, seed=seed, specials=False)
    result = buf.extend_result(SimulationResult("w", "g", 0.5), 1, times, n)
    return result, list(buf.iter_records(1, times, n))


class TestRecordsView:
    def test_is_a_sequence_view_until_materialised(self):
        result, records = _view()
        view = result.records
        assert isinstance(view, RecordsView)
        assert isinstance(view, collections.abc.Sequence)
        assert len(view) == len(records) and bool(view)
        assert result.__dict__["records"] is None

    def test_indexing_builds_single_records(self):
        result, records = _view()
        for index in range(-len(records), len(records)):
            assert result.records[index] == records[index]
        for bad in (len(records), -len(records) - 1):
            with pytest.raises(IndexError):
                result.records[bad]
        assert result.__dict__["records"] is None

    def test_slices_materialise(self):
        result, records = _view()
        assert result.records[1:-1] == records[1:-1]
        assert result.records[::-2] == records[::-2]
        assert isinstance(result.__dict__["records"], list)
        assert result.records[-1] == records[-1]

    def test_equality_with_a_list_both_ways(self):
        result, records = _view()
        assert result.records == records
        assert records == result.records
        assert not (result.records != records)
        assert result.records != records[:-1]
        assert records[:-1] != result.records
        other, _ = _view()
        assert result.records == other.records
        assert result == SimulationResult("w", "g", 0.5, records=records)

    def test_pickle_round_trip_yields_a_list(self):
        result, records = _view()
        back = pickle.loads(pickle.dumps(result.records))
        assert type(back) is list and back == records
        result, records = _view()
        copy = pickle.loads(pickle.dumps(result))
        assert type(copy.records) is list and copy.records == records

    def test_append_materialises_first(self):
        result, records = _view()
        extra = records[0]
        result.records.append(extra)
        assert result.__dict__["records"] == records + [extra]
        result, records = _view()
        result.append(extra)
        assert list(result.records) == records + [extra]
        assert len(result) == len(records) + 1

    def test_assignment_replaces_the_source(self):
        result, records = _view()
        result.records = records[:2]
        assert result.records is result.__dict__["records"]
        assert len(result) == 2 and result.record_columns() is None

    def test_iteration_materialises_once(self):
        result, records = _view()
        assert list(result.records) == records
        materialised = result.__dict__["records"]
        assert result.records is materialised
        assert list(result.records) == records

    def test_repr_is_the_list_repr(self):
        result, records = _view(n=2)
        assert repr(result.records) == repr(records)

    def test_columns_source_indexes_too(self):
        _, records = _view()
        columns = RecordColumns(
            [[getattr(r, name) for r in records] for name in results_module._RECORD_FIELDS]
        )
        result = SimulationResult("w", "g", 0.5)
        result.defer_columns(lambda: columns)
        assert result.records[-2] == records[-2]
        assert result.records == records


class TestSweepReportBuildsNoRecords:
    def test_sweep_row_builds_at_most_one_record_per_member(
        self, linear_predictor, monkeypatch
    ):
        population = list(paper_population())
        policy = PolicySpec(
            manager=ManagerSpec("usta", params={"skin_limit_c": 36.0}),
            adapter=AdapterSpec("feedback_step"),
        )
        traces = [build_benchmark(name, seed=1, duration_s=40) for name in ("skype", "game")]
        plan = ExperimentPlan()
        for i in range(6):
            plan.add(
                ExperimentCell(
                    cell_id=f"m{i}",
                    trace=traces[i % 2],
                    policy=policy.for_user(population[i]),
                    predictor=linear_predictor,
                    seed=i,
                )
            )
        store = BatchRunner(executor=VectorizedExecutor()).run(plan)

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
        rows = [
            _SweepRow.from_result(entry.result, population[i])
            for i, entry in enumerate(store)
        ]
        assert len(rows) == len(plan)
        assert 0 < built[0] <= len(plan)
        assert all(entry.result.__dict__["records"] is None for entry in store)
        # The rows equal the same rows read from materialised records.
        monkeypatch.undo()
        for i, (row, entry) in enumerate(zip(rows, store)):
            eager = SimulationResult("w", "g", entry.result.dt_s, records=list(entry.result.records))
            want = _SweepRow.from_result(eager, population[i])
            assert vars(row) == vars(want)
