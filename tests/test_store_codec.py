"""Property tests for the store's column-block codec (store format 3).

The contract: a run of step records encoded as column blocks decodes to the
same values with the same Python types — bit for bit, NaN payloads and
signed zeros included — and a cell line's bytes depend only on its records,
not on how they reached the writer (one record at a time, column chunks of
any size, or a windowed spool replay).  Values that do not fit their field
are refused with an error naming the field and the cell, never narrowed.
"""

import json
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.runtime.store as store_module
import repro.sim.results as results_module
from repro.runtime import ExperimentCell, StreamingResultStore
from repro.runtime.executors import _WindowSpoolDrain
from repro.runtime.store import CellLineWriter
from repro.sim.results import BLOCK_ROWS, ColumnarRecordBuffer, RecordColumns

_FIELDS = results_module._RECORD_FIELDS
_INTS = ColumnarRecordBuffer._INT_COLUMNS
_DECISIONS = ColumnarRecordBuffer._DECISION_COLUMNS


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


_SPECIAL_FLOATS = [
    _from_bits(0x7FF8000000000001),  # quiet NaN with a payload
    _from_bits(0xFFF8000000000000),  # negative NaN
    _from_bits(0x7FF4000000000000),  # signalling-pattern NaN
    float("nan"),
    -0.0,
    0.0,
    float("inf"),
    float("-inf"),
    5e-324,  # smallest subnormal
    -2.2250738585072009e-308,  # largest negative subnormal
    1.7976931348623157e308,
]
_F = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(_SPECIAL_FLOATS))
_I = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.sampled_from([-(2**63), 2**63 - 1, 0, -1]),
)


def _field_strategy(name):
    if name in _INTS:
        return _I
    if name in _DECISIONS:
        return st.one_of(st.none(), _F)
    if name == "usta_active":
        return st.booleans()
    return _F


@st.composite
def _columns(draw, max_rows=30):
    """Field-ordered columns of every value shape the codec must carry."""
    n = draw(st.integers(min_value=0, max_value=max_rows))
    columns = []
    for name in _FIELDS:
        values = st.lists(_field_strategy(name), min_size=n, max_size=n)
        if name in _DECISIONS:
            # All-None, None-free and mixed decision columns all occur.
            values = st.one_of(values, st.just([None] * n))
        columns.append(draw(values))
    return columns


@st.composite
def _partition(draw, n):
    """Chunk sizes summing to ``n`` (a random arrival pattern)."""
    sizes = []
    left = n
    while left:
        size = draw(st.integers(min_value=1, max_value=left))
        sizes.append(size)
        left -= size
    return sizes


def _exact(columns):
    """Each value as (type, bits): ``==`` on this is bitwise equality."""
    return [
        [(type(v), struct.pack("<d", v) if isinstance(v, float) else v) for v in column]
        for column in columns
    ]


def _cell():
    return ExperimentCell(cell_id="c0", benchmark="skype", seed=0)


def _chunks(columns, sizes):
    start = 0
    for size in sizes:
        yield RecordColumns([column[start : start + size] for column in columns])
        start += size


def _store_line(directory, feed):
    """The bytes of one cell line a store writes when ``feed(store)`` emits."""
    store = StreamingResultStore(directory)
    store.begin_cell(_cell(), "skype", "ondemand", 1.0)
    feed(store)
    store.end_cell()
    store.close()
    return (Path(directory) / "shard-00000.jsonl").read_bytes()


def _three_arrivals(columns, sizes):
    """The line written per record, in column chunks, and through a window spool."""
    lines = []
    with tempfile.TemporaryDirectory() as root:
        root = Path(root)

        def per_record(store):
            for record in RecordColumns(columns):
                store.emit(record)

        def chunked(store):
            for chunk in _chunks(columns, sizes):
                store.emit_columns(chunk)

        def spooled(store):
            spool = _WindowSpoolDrain(1)
            try:
                chunks = list(_chunks(columns, sizes)) or [RecordColumns(columns)]
                for index, chunk in enumerate(chunks):
                    spool.emit_member_window(0, chunk, index == len(chunks) - 1)
                spool.replay_member(0, store)
            finally:
                spool.cleanup()

        for name, feed in (("record", per_record), ("chunk", chunked), ("spool", spooled)):
            lines.append(_store_line(root / name, feed))
    return lines


class TestBlockRoundTrip:
    @given(_columns())
    def test_block_round_trip_is_bitwise_and_type_exact(self, columns):
        block = json.loads(RecordColumns(columns).to_block())
        back = RecordColumns.from_blocks([block])
        assert _exact(back.columns) == _exact(columns)

    @given(_columns(), st.data())
    def test_blocks_concatenate_to_the_whole_run(self, columns, data):
        n = len(columns[0])
        sizes = data.draw(_partition(n))
        blocks = [json.loads(chunk.to_block()) for chunk in _chunks(columns, sizes)]
        assert _exact(RecordColumns.from_blocks(blocks).columns) == _exact(columns)

    def test_empty_run_round_trips(self):
        columns = [[] for _ in _FIELDS]
        block = json.loads(RecordColumns(columns).to_block())
        assert block["rows"] == 0
        assert RecordColumns.from_blocks([block]).columns == columns
        assert RecordColumns.from_blocks([]).columns == columns

    def test_decision_field_forms(self):
        columns = [[0.0, 1.0, 2.0] for _ in _FIELDS]
        columns[_FIELDS.index("frequency_khz")] = [1, 2, 3]
        columns[_FIELDS.index("frequency_level")] = [1, 2, 3]
        columns[_FIELDS.index("level_cap")] = [1, 2, 3]
        columns[_FIELDS.index("usta_active")] = [True, False, True]
        columns[_FIELDS.index("predicted_skin_temp_c")] = [None, None, None]
        columns[_FIELDS.index("predicted_screen_temp_c")] = [None, float("nan"), 3.0]
        block = json.loads(RecordColumns(columns).to_block())
        assert block["predicted_skin_temp_c"] is None
        assert isinstance(block["comfort_limit_c"], str)
        assert set(block["predicted_screen_temp_c"]) == {"values", "none"}
        back = RecordColumns.from_blocks([block])
        assert _exact(back.columns) == _exact(columns)


class TestArrivalIndependence:
    @given(_columns(), st.integers(min_value=1, max_value=7), st.data())
    def test_line_bytes_do_not_depend_on_arrival(self, columns, block_rows, data):
        sizes = data.draw(_partition(len(columns[0])))
        with mock.patch.object(store_module, "BLOCK_ROWS", block_rows):
            by_record, by_chunk, by_spool = _three_arrivals(columns, sizes)
        assert by_record == by_chunk == by_spool
        result = json.loads(by_record)["result"]
        rows = [block["rows"] for block in result["blocks"]]
        assert all(r == block_rows for r in rows[:-1]) and rows[-1:] != [0]
        assert result["n"] == len(columns[0])
        back = RecordColumns.from_blocks(result["blocks"])
        assert _exact(back.columns) == _exact(columns)

    def test_real_block_size_rechunks_long_cells(self):
        n = 2 * BLOCK_ROWS + 700
        rng = np.random.default_rng(3)
        columns = []
        for name in _FIELDS:
            if name in _INTS:
                columns.append(rng.integers(0, 12, n).tolist())
            elif name == "usta_active":
                columns.append((rng.random(n) < 0.5).tolist())
            else:
                columns.append(rng.normal(35.0, 3.0, n).tolist())
        sizes = [1] * 5 + [BLOCK_ROWS - 3, 17, BLOCK_ROWS, n - 2 * BLOCK_ROWS - 19]
        assert sum(sizes) == n
        lines = _three_arrivals(columns, sizes)
        assert lines[0] == lines[1] == lines[2]
        blocks = json.loads(lines[0])["result"]["blocks"]
        assert [block["rows"] for block in blocks] == [BLOCK_ROWS, BLOCK_ROWS, 700]


def _one_row(**overrides):
    row = {name: 1.5 for name in _FIELDS}
    row.update({name: 3 for name in _INTS})
    row.update(usta_active=False, predicted_skin_temp_c=None)
    row.update(overrides)
    return RecordColumns([[row[name]] for name in _FIELDS])


class TestStrictEncoding:
    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("frequency_khz", 384000.0, TypeError),  # a float in an int field
            ("level_cap", True, TypeError),  # a bool is not an int here
            ("usta_active", 1, TypeError),  # a non-bool flag
            ("usta_active", np.bool_(True), TypeError),
            ("comfort_limit_c", 37, TypeError),  # a non-float decision value
            ("predicted_skin_temp_c", "36.5", TypeError),
            ("skin_temp_c", None, TypeError),  # None outside the decision fields
            ("skin_temp_c", 33, TypeError),
            ("frequency_level", 2**63, ValueError),  # beyond int64
            ("frequency_khz", -(2**63) - 1, ValueError),
        ],
    )
    def test_misfit_value_is_refused_naming_field_and_cell(self, field, value, error, tmp_path):
        store = StreamingResultStore(tmp_path / "s")
        store.begin_cell(_cell(), "skype", "ondemand", 1.0)
        store.emit_columns(_one_row(**{field: value}))
        with pytest.raises(error, match=rf"{field}.*cell 'c0'"):
            store.end_cell()
        store.close()
        # Nothing was committed: the half-written line is a crash artifact.
        reopened = StreamingResultStore(tmp_path / "s")
        assert reopened.completed_cell_ids == frozenset()
        assert reopened.recovered_tail is not None

    def test_int64_extremes_are_kept(self):
        text = _one_row(frequency_khz=2**63 - 1, level_cap=-(2**63)).to_block()
        back = RecordColumns.from_blocks([json.loads(text)])
        assert back["frequency_khz"] == [2**63 - 1] and back["level_cap"] == [-(2**63)]

    def test_writer_refuses_per_record_misfits_too(self):
        out = []
        writer = CellLineWriter(out.append)
        writer.begin_cell(_cell(), "skype", "ondemand", 1.0)
        (record,) = list(_one_row())
        object.__setattr__(record, "frequency_level", 2.0)
        writer.emit(record)
        with pytest.raises(TypeError, match="frequency_level.*cell 'c0'"):
            writer.end_cell()


class TestStrictDecoding:
    def _block(self):
        return json.loads(_one_row().to_block())

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda b: b.update(bogus="AA=="), "unknown step-record field"),
            (lambda b: b.pop("power_w"), "missing step-record field"),
            (lambda b: b.update(rows=2), "time_s: 8 bytes for 2 rows"),
            (lambda b: b.update(power_w="@@@@"), "base64"),
            (lambda b: b.update(usta_active="Ag=="), "flag byte"),
            (lambda b: b.update(comfort_limit_c={"values": "AA=="}), "masked column"),
        ],
    )
    def test_malformed_block_raises_value_error(self, damage, message):
        block = self._block()
        damage(block)
        with pytest.raises(ValueError, match=message):
            RecordColumns.from_blocks([block])
