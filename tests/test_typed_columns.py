"""Typed record columns against an independent per-value reference.

Batch engines hand the store and the summaries typed numpy columns; the
store decodes to the same typed columns.  The reference here encodes one
Python value at a time with :mod:`struct` — the list form every earlier
store line was written from — so the contract is checked without trusting
numpy: a typed run encodes to exactly the reference bytes, decodes to the
same arrays and records, and folds to exactly the state of one
:meth:`StreamingCellSummary.add` per record.
"""

import base64
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.sim.results as results_module
from repro.analysis.streaming import StreamingCellSummary, summarize_records
from repro.runtime import ExperimentCell, StreamingResultStore
from repro.runtime.store import CellLineWriter
from repro.sim.results import BLOCK_ROWS, ColumnarRecordBuffer, RecordColumns

_FIELDS = results_module._RECORD_FIELDS
_INTS = ColumnarRecordBuffer._INT_COLUMNS
_DECISIONS = ColumnarRecordBuffer._DECISION_COLUMNS


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


_SPECIALS = [
    _from_bits(0x7FF8000000000001),  # quiet NaN with a payload
    _from_bits(0xFFF8000000000000),  # negative NaN
    float("nan"),
    -0.0,
    0.0,
    float("inf"),
    float("-inf"),
    5e-324,
]
_F = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(_SPECIALS))
_I = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.sampled_from([-(2**63), 2**63 - 1, 0, -1]),
)


def _field_values(name):
    if name in _INTS:
        return _I
    if name in _DECISIONS:
        return st.one_of(st.none(), _F)
    if name == "usta_active":
        return st.booleans()
    return _F


@st.composite
def _lists(draw, max_rows=24):
    """Field-ordered Python lists; decision fields all, none or some None."""
    n = draw(st.integers(min_value=0, max_value=max_rows))
    columns = []
    for name in _FIELDS:
        values = st.lists(_field_values(name), min_size=n, max_size=n)
        if name in _DECISIONS:
            values = st.one_of(
                values,
                st.just([None] * n),
                st.lists(_F, min_size=n, max_size=n),
            )
        columns.append(draw(values))
    return columns


def _typed(columns):
    """The same run as typed arrays, built without the list checker."""
    arrays = []
    present = []
    for name, values in zip(_FIELDS, columns):
        if name in _DECISIONS:
            present.append([value is not None for value in values])
            # Unset rows hold junk: only the presence mask may matter.
            values = [np.nan if value is None else value for value in values]
        dtype = np.int64 if name in _INTS else bool if name == "usta_active" else np.float64
        arrays.append(np.array(values, dtype=dtype))
    return RecordColumns.of_arrays(arrays, np.array(present, dtype=bool).reshape(3, -1))


def _pack(fmt, values):
    return base64.b64encode(b"".join(struct.pack(fmt, v) for v in values)).decode("ascii")


def _reference_block(columns) -> str:
    """One block encoded value by value (store format 3)."""
    parts = [f'{{"rows":{len(columns[0])}']
    for name, values in zip(_FIELDS, columns):
        if name in _INTS:
            text = f'"{_pack("<q", values)}"'
        elif name == "usta_active":
            text = f'"{_pack("<B", values)}"'
        elif name in _DECISIONS and all(value is None for value in values):
            text = "null"
        elif name in _DECISIONS and None in values:
            bits = [value is None for value in values]
            packed = bytes(
                sum(bit << (7 - i) for i, bit in enumerate(bits[k : k + 8]))
                for k in range(0, len(bits), 8)
            )
            text = (
                f'{{"values":"{_pack("<d", [0.0 if v is None else v for v in values])}",'
                f'"none":"{base64.b64encode(packed).decode("ascii")}"}}'
            )
        else:
            text = f'"{_pack("<d", values)}"'
        parts.append(f',"{name}":{text}')
    return "".join(parts) + "}"


def _bits(values):
    """Each value as (type, bits): ``==`` on this is bitwise equality."""
    return [(type(v), struct.pack("<d", v) if isinstance(v, float) else v) for v in values]


def _cell():
    return ExperimentCell(cell_id="c0", benchmark="skype", seed=0)


def _line(feed) -> str:
    out = []
    writer = CellLineWriter(out.append)
    writer.begin_cell(_cell(), "skype", "ondemand", 1.0)
    feed(writer)
    writer.end_cell()
    return "".join(out)


class TestTypedEncoding:
    @given(_lists())
    def test_typed_block_is_the_reference_bytes(self, columns):
        reference = _reference_block(columns)
        assert _typed(columns).to_block() == reference
        assert RecordColumns(columns).to_block() == reference

    @given(_lists())
    def test_decoded_arrays_and_records_round_trip(self, columns):
        typed = _typed(columns)
        back = RecordColumns.from_blocks([json.loads(typed.to_block())])
        for name, values in zip(_FIELDS, columns):
            array = back.column(name)
            assert array.dtype == typed.column(name).dtype, name
            if name in _DECISIONS:
                present = back.present(name)
                assert present.tolist() == [value is not None for value in values]
                assert array[present].tobytes() == typed.column(name)[present].tobytes()
            else:
                assert array.tobytes() == typed.column(name).tobytes(), name
            assert _bits(back[name]) == _bits(values), name
        # repr tells NaN payloads and signed zeros apart where == cannot.
        assert repr(list(back)) == repr(list(RecordColumns(columns)))

    def test_long_cell_rechunks_whole_and_in_uneven_runs(self):
        n = 2 * BLOCK_ROWS + 301
        rng = np.random.default_rng(7)
        columns = []
        for name in _FIELDS:
            if name in _INTS:
                columns.append(rng.integers(-(2**63), 2**63 - 1, n).tolist())
            elif name == "usta_active":
                columns.append((rng.random(n) < 0.5).tolist())
            elif name in _DECISIONS:
                values = rng.normal(36.0, 1.0, n).tolist()
                columns.append([None if rng.random() < 0.2 else v for v in values])
            else:
                values = rng.normal(35.0, 3.0, n)
                values[rng.integers(0, n, 6)] = [np.nan, -0.0, 0.0, np.inf, -np.inf, 5e-324]
                columns.append(values.tolist())
        typed = _typed(columns)
        reference = [
            _reference_block([column[start : start + BLOCK_ROWS] for column in columns])
            for start in range(0, n, BLOCK_ROWS)
        ]
        cuts = [0, 1, 5, BLOCK_ROWS - 3, BLOCK_ROWS + 11, 2 * BLOCK_ROWS, n]

        def uneven(writer):
            for start, stop in zip(cuts, cuts[1:]):
                writer.emit_columns(typed.slice(start, stop))

        whole = _line(lambda writer: writer.emit_columns(typed))
        assert whole == _line(uneven)
        blocks = json.loads(whole)["result"]["blocks"]
        assert [json.dumps(b, separators=(",", ":")) for b in blocks] == reference
        back = RecordColumns.from_blocks(blocks)
        for name in _FIELDS:
            assert _bits(back[name]) == _bits(columns[_FIELDS.index(name)]), name

    def test_buffer_rows_encode_like_their_records(self):
        buf = ColumnarRecordBuffer(2, 4, with_decisions=True)
        buf.frequency_khz[:, 1] = [384000, 2**63 - 1, -(2**63), 0]
        buf.skin_temp_c[:, 1] = [np.nan, -0.0, 0.0, 33.5]
        buf.usta_active[:, 1] = [True, False, True, False]
        buf.predicted_skin_temp_c[:, 1] = [1.0, 2.0, 3.0, 4.0]
        buf.decision_present[0, :, 1] = [False, True, False, True]
        buf.comfort_limit_c[:, 1] = 37.0
        buf.decision_present[2, :, 1] = True
        run = buf.member_columns(1, [1.0, 2.0, 3.0, 4.0], 4)
        records = list(run)
        assert [r.predicted_skin_temp_c for r in records] == [None, 2.0, None, 4.0]
        assert [r.predicted_screen_temp_c for r in records] == [None] * 4
        lists = [[getattr(r, name) for r in records] for name in _FIELDS]
        assert run.to_block() == _reference_block(lists)


def _one_row(**overrides):
    row = {name: 1.5 for name in _FIELDS}
    row.update({name: 3 for name in _INTS})
    row.update(usta_active=False, predicted_skin_temp_c=None)
    row.update(overrides)
    return [[row[name]] for name in _FIELDS]


class TestListInput:
    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("frequency_khz", 384000.0, TypeError),
            ("usta_active", 1, TypeError),
            ("comfort_limit_c", 37, TypeError),
            ("frequency_level", 2**63, ValueError),
        ],
    )
    def test_misfit_in_a_sliced_run_names_field_and_cell(self, field, value, error):
        # A run longer than the staged block's room is sliced on arrival:
        # its lists are checked there, still naming the cell.
        rows = [_one_row() for _ in range(BLOCK_ROWS + 1)]
        columns = [[row[i][0] for row in rows] for i in range(len(_FIELDS))]
        columns[_FIELDS.index(field)][-1] = value
        out = []
        writer = CellLineWriter(out.append)
        writer.begin_cell(_cell(), "skype", "ondemand", 1.0)
        writer.emit(next(iter(RecordColumns(_one_row()))))
        with pytest.raises(error, match=rf"{field}.*cell 'c0'"):
            writer.emit_columns(RecordColumns(columns))

    def test_from_jsonable_checks_types(self):
        record = dict(zip(_FIELDS, (column[0] for column in _one_row())))
        record["level_cap"] = 2.0
        with pytest.raises(TypeError, match="level_cap"):
            RecordColumns.from_jsonable([record])

    def test_store_refuses_a_misfit_per_record(self, tmp_path):
        store = StreamingResultStore(Path(tmp_path) / "s")
        store.begin_cell(_cell(), "skype", "ondemand", 1.0)
        (record,) = list(RecordColumns(_one_row()))
        object.__setattr__(record, "comfort_limit_c", 37)
        store.emit(record)
        with pytest.raises(TypeError, match="comfort_limit_c.*cell 'c0'"):
            store.end_cell()
        store.close()


_TEMPS = st.one_of(
    st.floats(min_value=30.0, max_value=45.0), st.sampled_from([np.nan, -0.0, 0.0, 37.0])
)


@st.composite
def _fold_runs(draw):
    n = draw(st.integers(min_value=0, max_value=30))
    temps = st.lists(_TEMPS, min_size=n, max_size=n)
    limits = draw(
        st.one_of(
            st.lists(st.one_of(st.none(), _TEMPS), min_size=n, max_size=n),
            st.just([None] * n),
        )
    )
    if n and draw(st.booleans()):
        limits[-1] = None  # the run ends on a None limit
    columns = []
    for name in _FIELDS:
        if name in ("skin_temp_c", "screen_temp_c", "cpu_temp_c"):
            columns.append(draw(temps))
        elif name == "comfort_limit_c":
            columns.append(limits)
        elif name in _INTS:
            columns.append(draw(st.lists(st.integers(0, 3_000_000), min_size=n, max_size=n)))
        elif name == "usta_active":
            columns.append(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        elif name in _DECISIONS:
            columns.append([None] * n)
        else:
            columns.append(draw(st.lists(_F, min_size=n, max_size=n)))
    return columns


class TestArrayFold:
    @given(
        _fold_runs(),
        st.one_of(st.none(), st.sampled_from([36.0, 37.0, 0.0, -0.0])),
        st.lists(st.integers(min_value=1, max_value=9), max_size=5),
    )
    def test_array_fold_state_equals_the_record_loop(self, columns, limit_c, cuts):
        typed = _typed(columns)
        records = list(RecordColumns(columns))
        by_record = summarize_records(records, dt_s=1.0, limit_c=limit_c)
        by_arrays = StreamingCellSummary(1.0, limit_c=limit_c)
        start = 0
        for size in cuts + [len(records)]:
            by_arrays.add_columns(typed.slice(start, min(start + size, len(records))))
            start = min(start + size, len(records))
        # repr compares every float bit for bit (NaN, ±0.0) and its type.
        assert repr(vars(by_arrays)) == repr(vars(by_record))

    def test_signed_zero_and_nan_maxima_keep_the_first(self):
        rows = [(-0.0, np.nan), (0.0, np.nan), (-0.0, 1.0)]
        typed = RecordColumns.concat(
            [RecordColumns(_one_row(skin_temp_c=skin, cpu_temp_c=cpu)) for skin, cpu in rows]
        )
        summary = StreamingCellSummary(1.0)
        summary.add_columns(typed)
        assert repr(summary.max_skin_temp_c) == "-0.0"
        assert summary.max_cpu_temp_c == 1.0
