"""Simulation results: per-step records and summary metrics.

The summary metrics mirror the three rows of the paper's Table 1 (maximum
screen temperature, maximum skin temperature, average frequency) plus the
quantities needed by Figures 2 and 4 (time series, time over a comfort limit)
and by the satisfaction model (delivered vs demanded work).
"""

from __future__ import annotations

import base64
import collections.abc
import operator
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

from ..users.comfort import ComfortAnalysis, analyse_comfort

__all__ = [
    "BLOCK_ROWS",
    "ColumnarRecordBuffer",
    "RecordColumns",
    "RecordsView",
    "StepRecord",
    "SimulationResult",
]


@dataclass(frozen=True)
class StepRecord:
    """Everything recorded about one simulation step."""

    time_s: float
    frequency_khz: int
    frequency_level: int
    level_cap: int
    utilization: float
    demand: float
    delivered_work: float
    power_w: float
    cpu_temp_c: float
    battery_temp_c: float
    skin_temp_c: float
    screen_temp_c: float
    sensor_cpu_temp_c: float
    sensor_battery_temp_c: float
    sensor_skin_temp_c: float
    sensor_screen_temp_c: float
    predicted_skin_temp_c: Optional[float] = None
    predicted_screen_temp_c: Optional[float] = None
    usta_active: bool = False
    #: Live skin comfort limit the manager decided against (None = no manager
    #: or a manager without one); adaptive policies move it over the run.
    comfort_limit_c: Optional[float] = None


class ColumnarRecordBuffer:
    """Structure-of-arrays staging area for a batch of record streams.

    The hot loop of the heterogeneous population engine writes one numpy
    column per :class:`StepRecord` field and allocates no per-member-step
    Python objects; at the batch/record-sink boundary each member leaves as
    :class:`RecordColumns` of views into these columns
    (:meth:`member_columns`), which the store encodes and the summaries fold
    without a Python value in between.

    Columns are *step-major* (shape ``(n_steps, n_members)``): the engine
    writes one step across the live member prefix per tick, and a step-major
    layout makes that write a contiguous row instead of a strided column.

    The node and sensor temperature fields are the rows of two ``(4, n_steps,
    n_members)`` blocks, :attr:`node_temps` and :attr:`sensor_temps`.
    ``demand`` may alias a caller-owned array.

    The three ``None``-able decision fields (predictions and the live comfort
    limit) are the rows of a float block, :attr:`decision_values`, beside a
    presence block of the same shape, :attr:`decision_present` (``False``
    is ``None``; the value in such a row is ignored).  Both, like
    ``usta_active``, are allocated only when the batch carries thermal
    managers at all; without managers every member's records use the
    dataclass defaults.
    """

    _FLOAT_COLUMNS = (
        "utilization",
        "demand",
        "delivered_work",
        "power_w",
        "cpu_temp_c",
        "battery_temp_c",
        "skin_temp_c",
        "screen_temp_c",
        "sensor_cpu_temp_c",
        "sensor_battery_temp_c",
        "sensor_skin_temp_c",
        "sensor_screen_temp_c",
    )
    _INT_COLUMNS = ("frequency_khz", "frequency_level", "level_cap")
    _DECISION_COLUMNS = (
        "predicted_skin_temp_c",
        "predicted_screen_temp_c",
        "comfort_limit_c",
    )

    #: The fields of the node_temps and sensor_temps rows, in row order.
    _NODE_FIELDS = ("cpu_temp_c", "battery_temp_c", "skin_temp_c", "screen_temp_c")
    _SENSOR_FIELDS = tuple("sensor_" + name for name in _NODE_FIELDS)

    def __init__(self, n_members: int, n_steps: int, with_decisions: bool = False, demand=None):
        shape = (n_steps, n_members)
        for name in self._INT_COLUMNS:
            setattr(self, name, np.zeros(shape, dtype=np.int64))
        self.node_temps = np.zeros((4,) + shape)
        self.sensor_temps = np.zeros((4,) + shape)
        names = self._NODE_FIELDS + self._SENSOR_FIELDS
        blocks = dict(zip(names, [*self.node_temps, *self.sensor_temps]))
        if demand is not None:
            blocks["demand"] = demand
        for name in self._FLOAT_COLUMNS:
            setattr(self, name, blocks[name] if name in blocks else np.zeros(shape))
        self.with_decisions = with_decisions
        if with_decisions:
            self.usta_active = np.zeros(shape, dtype=bool)
            self.decision_values = np.zeros((3,) + shape)
            self.decision_present = np.zeros((3,) + shape, dtype=bool)
            for name, column in zip(self._DECISION_COLUMNS, self.decision_values):
                setattr(self, name, column)
        else:
            self.usta_active = self.decision_values = self.decision_present = None
            for name in self._DECISION_COLUMNS:
                setattr(self, name, None)

    def member_columns(
        self, member: int, times_s: Sequence[float], count: int, start: int = 0
    ) -> "RecordColumns":
        """One member's steps ``[start, count)`` as typed column views.

        The columns are views into the buffer (a batch without managers gets
        fresh default columns for the decision fields), so they are only
        valid while the buffer rows stay unwritten.  The column order is
        pinned to the dataclass field order by ``_check_field_order`` below.

        Args:
            member: column index of the member in the batch.
            times_s: shared per-step timestamps (``times_s[t]`` is the time of
                step ``t``; members that finished early use a prefix).
            count: number of steps this member actually ran.
            start: first step to extract.
        """
        rows = slice(start, count)
        arrays = [np.asarray(times_s[rows], dtype=np.float64)]
        arrays.extend(
            getattr(self, name)[rows, member]
            for name in self._INT_COLUMNS + self._FLOAT_COLUMNS
        )
        if self.with_decisions:
            skin, screen, limit = (
                getattr(self, name)[rows, member] for name in self._DECISION_COLUMNS
            )
            active = self.usta_active[rows, member]
            present = self.decision_present[:, rows, member]
        else:
            n = len(arrays[0])
            skin = screen = limit = np.zeros(n)
            active = np.zeros(n, dtype=bool)
            present = np.zeros((3, n), dtype=bool)
        arrays += [skin, screen, active, limit]
        return RecordColumns.of_arrays(arrays, present)

    def iter_records(
        self, member: int, times_s: Sequence[float], count: int
    ) -> Iterator[StepRecord]:
        """Materialise one member's first ``count`` steps as :class:`StepRecord`s
        (arguments as for :meth:`member_columns`)."""
        return iter(self.member_columns(member, times_s, count))

    def drain_window(
        self, member: int, times_s: Sequence[float], count: int
    ) -> "RecordColumns":
        """Incremental drain: one member's rows of the *current window*.

        The windowed population engine reuses one window-sized buffer across
        windows: at each window boundary it drains every live member's filled
        rows through this method (into a spool or a
        :class:`~repro.runtime.stream.RecordSink` adapter) and then overwrites
        the buffer with the next window.  ``member``/``count`` address buffer
        rows ``[0, count)`` exactly like :meth:`member_columns` — the caller
        passes the window's absolute timestamps as ``times_s`` — so drained
        rows are bit-identical to batch-boundary ones.  The returned columns
        are views, so a drain must encode or copy them before the next window
        overwrites the buffer.
        """
        return self.member_columns(member, times_s, count)

    def extend_result(
        self,
        result: "SimulationResult",
        member: int,
        times_s: Sequence[float],
        count: int,
    ) -> "SimulationResult":
        """Back ``result``'s records by one member's rows (returns it for chaining).

        Nothing is built here: the result reads the rows field by field when
        asked (see :class:`_MemberRows` and
        :meth:`SimulationResult.defer_columns`).  The buffer must then stay
        unmodified for the result's lifetime — the batch engines satisfy this
        by never writing to a buffer after the run ends.
        """
        result.defer_columns(_MemberRows(self, member, times_s, count))
        return result


class _MemberRows:
    """One member's rows of a :class:`ColumnarRecordBuffer`: a deferred
    result's record source.

    Calling it hands out the rows as :class:`RecordColumns` views (what
    :meth:`SimulationResult.record_columns` returns); :meth:`array` copies
    one field and :meth:`record` builds one step, so a result read only for
    its summaries converts no column to Python objects.
    """

    __slots__ = ("buffer", "member", "times_s", "count")

    def __init__(
        self, buffer: ColumnarRecordBuffer, member: int, times_s: Sequence[float], count: int
    ):
        self.buffer = buffer
        self.member = member
        self.times_s = times_s
        self.count = count

    def __call__(self) -> "RecordColumns":
        return self.buffer.member_columns(self.member, self.times_s, self.count)

    def __len__(self) -> int:
        return self.count

    def record(self, index: int) -> StepRecord:
        """Step ``index`` (``0 <= index < len(self)``) as one record, read
        one item per field in :meth:`ColumnarRecordBuffer.member_columns`'s
        field order."""
        buffer, at = self.buffer, (index, self.member)
        row = [float(self.times_s[index])]
        row += [
            getattr(buffer, name).item(at)
            for name in buffer._INT_COLUMNS + buffer._FLOAT_COLUMNS
        ]
        if buffer.with_decisions:
            cell = (slice(None),) + at
            decided = [
                value if here else None
                for value, here in zip(
                    buffer.decision_values[cell].tolist(), buffer.decision_present[cell].tolist()
                )
            ]
            active = buffer.usta_active.item(at)
        else:
            decided, active = [None] * 3, False
        skin, screen, limit = decided
        row += [skin, screen, active, limit]
        return next(_fast_records([[value] for value in row]))

    def array(self, name: str) -> np.ndarray:
        """One field, as ``np.array`` over the records' values would give it."""
        count = self.count
        buffer = self.buffer
        if name == "time_s":
            return _values_array(np.asarray(self.times_s[:count], dtype=np.float64), None)
        if name in _FIELD_DEFAULTS and not buffer.with_decisions:
            return np.array([_FIELD_DEFAULTS[name]] * count)  # a batch without managers
        index = _DECISION_INDEX.get(name)
        present = None if index is None else buffer.decision_present[index, :count, self.member]
        return _values_array(getattr(buffer, name)[:count, self.member], present)


#: StepRecord field names in declaration order — the key order of every
#: fast-built record's ``__dict__`` (identical to constructor-built records).
_RECORD_FIELDS = tuple(f.name for f in fields(StepRecord))
_FIELD_INDEX = {name: index for index, name in enumerate(_RECORD_FIELDS)}
_FIELD_DEFAULTS = {f.name: f.default for f in fields(StepRecord) if f.default is not MISSING}
#: Row of each ``None``-able decision field in a run's presence block.
_DECISION_INDEX = {
    name: index for index, name in enumerate(ColumnarRecordBuffer._DECISION_COLUMNS)
}


def _values_array(values: np.ndarray, present: Optional[np.ndarray]) -> np.ndarray:
    """A typed field as ``np.array`` over its Python values would give it.

    Numeric columns are int64/float64/bool, exactly the dtypes ``np.array``
    infers from the values, and the copy is contiguous — so reductions over
    it match reductions over materialised records bit for bit.  A decision
    field with ``None`` rows is an object array, as ``np.array`` makes it.
    """
    if not len(values):
        return np.array([])  # what np.array gives for no records at all
    if present is not None and not present.all():
        return np.array(nullable_list(values, present))
    return values.copy()


def nullable_list(values: np.ndarray, present: Optional[np.ndarray]) -> list:
    """A typed column as Python values, ``None`` where ``present`` is False
    (``present=None``: every value is present)."""
    column = values.tolist()
    if present is not None and not present.all():
        for index in np.flatnonzero(~present).tolist():
            column[index] = None
    return column


class RecordColumns:
    """A run of step records held as one typed numpy column per :class:`StepRecord` field.

    This is the form batch engines hand to record sinks and the store
    decodes: ``<f8`` floats, ``<i8`` ints and a bool ``usta_active``, and
    for each ``None``-able decision field a ``<f8`` value column beside a
    row of the presence block (``False`` is ``None``).  Sinks that fold or
    store records read the arrays (:meth:`column`, :meth:`present`,
    :meth:`to_block`); Python values exist only when something asks for
    records (iteration, :meth:`record`) or lists (``run[name]``,
    :attr:`columns`).

    ``RecordColumns(lists)`` takes hand-built field-ordered Python lists.
    They are type-checked when first read as arrays — a value of the wrong
    type, or an int beyond the int64 range, raises naming its field — so a
    store writing them names the cell too.  Values are never narrowed.
    """

    __slots__ = ("_lists", "_arrays", "_present")

    def __init__(self, columns: List[list]):
        self._lists = columns
        self._arrays: Optional[List[np.ndarray]] = None
        self._present: Optional[np.ndarray] = None

    @classmethod
    def of_arrays(cls, arrays: List[np.ndarray], present: np.ndarray) -> "RecordColumns":
        """A run of typed arrays in field order (decision fields as values)
        and its ``(3, rows)`` presence block, in decision-field order."""
        run = cls.__new__(cls)
        run._lists = None
        run._arrays = arrays
        run._present = present
        return run

    @classmethod
    def from_jsonable(cls, records: Sequence[Dict[str, object]]) -> "RecordColumns":
        """Columns of parsed record dictionaries (what legacy store lines hold).

        Missing optional fields take the dataclass defaults, exactly as
        ``StepRecord(**record)`` would.

        Raises:
            ValueError: a record carries a field :class:`StepRecord` lacks,
                or an int beyond the int64 range.
            TypeError: a value's type does not match its field.
        """
        known = _FIELD_INDEX.keys()
        for record in records:
            if not record.keys() <= known:
                unknown = sorted(set(record) - set(known))
                raise ValueError(f"unknown step-record field(s) {unknown}")
        run = cls(
            [
                [record[name] for record in records]
                if name not in _FIELD_DEFAULTS
                else [record.get(name, _FIELD_DEFAULTS[name]) for record in records]
                for name in _RECORD_FIELDS
            ]
        )
        run._typed()  # checked now: a misfit stored value is refused at load
        return run

    def _typed(self) -> List[np.ndarray]:
        if self._arrays is None:
            self._arrays, self._present = _check_lists(self._lists)
            self._lists = None
        return self._arrays

    def __len__(self) -> int:
        if self._arrays is None:
            return len(self._lists[0])
        return len(self._arrays[0])

    def column(self, name: str) -> np.ndarray:
        """One field's typed array (a decision field's values, ``None`` rows unset)."""
        return self._typed()[_FIELD_INDEX[name]]

    def present(self, name: str) -> np.ndarray:
        """A decision field's presence mask (``False`` where the value is ``None``)."""
        self._typed()
        return self._present[_DECISION_INDEX[name]]

    def _mask(self, name: str) -> Optional[np.ndarray]:
        index = _DECISION_INDEX.get(name)
        return None if index is None else self._present[index]

    def __getitem__(self, name: str) -> list:
        """One field as Python values (``None`` in a decision field's unset rows)."""
        return nullable_list(self.column(name), self._mask(name))

    @property
    def columns(self) -> List[list]:
        """Every field as Python values, in field order (built on each read)."""
        arrays = self._typed()
        return [
            nullable_list(array, self._mask(name))
            for name, array in zip(_RECORD_FIELDS, arrays)
        ]

    def __iter__(self) -> Iterator[StepRecord]:
        return _fast_records(self.columns)

    def record(self, index: int) -> StepRecord:
        """Record ``index`` alone."""
        row = [array.item(index) for array in self._typed()]
        for name, k in _DECISION_INDEX.items():
            if not self._present[k, index]:
                row[_FIELD_INDEX[name]] = None
        return next(_fast_records([[value] for value in row]))

    def array(self, name: str) -> np.ndarray:
        """One field as an array (``np.array`` over the records' values)."""
        return _values_array(self.column(name), self._mask(name))

    def slice(self, start: int, stop: int) -> "RecordColumns":
        """Rows ``[start, stop)`` as views."""
        arrays = self._typed()
        return RecordColumns.of_arrays(
            [array[start:stop] for array in arrays], self._present[:, start:stop]
        )

    @classmethod
    def concat(cls, runs: Sequence["RecordColumns"]) -> "RecordColumns":
        """The runs one after another, as one run of fresh arrays."""
        typed = [run._typed() for run in runs]
        return cls.of_arrays(
            [np.concatenate(parts) for parts in zip(*typed)],
            np.concatenate([run._present for run in runs], axis=1),
        )

    # -- the column-block codec (store format 3) ----------------------------------

    def to_block(self) -> str:
        """The run as one column block: compact JSON text, fields in order.

        ``{"rows":R,"time_s":"<base64>",...}``: each field's array as
        little-endian bytes in base64 — ``<f8`` floats, ``<i8`` ints, one
        byte per ``usta_active`` flag.  A decision field is ``null`` when
        every row is ``None``, plain ``<f8`` text when none is, and otherwise
        ``{"values":"<f8>","none":"<packed mask>"}`` with ``0.0`` in the
        masked rows.  :meth:`from_blocks` gives back exactly the values put
        in (NaN payloads and signed zeros included).

        Raises:
            TypeError: a hand-built list value's type does not match its field.
            ValueError: a hand-built list int beyond the int64 range.
        """
        arrays = self._typed()
        parts = [f'{{"rows":{len(arrays[0])}']
        for name, array in zip(_RECORD_FIELDS, arrays):
            parts.append(f',"{name}":{_column_text(name, array, self._mask(name))}')
        parts.append("}")
        return "".join(parts)

    @classmethod
    def from_blocks(cls, blocks: Sequence[Dict[str, object]]) -> "RecordColumns":
        """Typed columns of parsed :meth:`to_block` objects, concatenated in order.

        Raises:
            ValueError: a block is malformed (unknown or missing fields,
                bad base64, a byte count that does not match ``rows``).
        """
        if not isinstance(blocks, list):
            raise ValueError("column blocks are not a list")
        runs = [_decode_block(block) for block in blocks]
        if len(runs) == 1:
            return runs[0]
        return cls.concat(runs) if runs else cls([[] for _ in _RECORD_FIELDS])


#: Rows per column block of a stored cell line.  The store re-chunks every
#: run it receives into blocks of exactly this many rows (only a cell's last
#: block is shorter), so a line's bytes do not depend on how its records
#: arrived — per record, per window or per cell.
BLOCK_ROWS = 2048

_F8 = np.dtype("<f8")
_I8 = np.dtype("<i8")
_BOOL = np.dtype(np.bool_)
_U1 = np.dtype("u1")


def _is_float(kind) -> bool:
    return issubclass(kind, float)


def _is_int(kind) -> bool:
    return issubclass(kind, int) and not issubclass(kind, bool)


def _field_codec(name: str):
    """(array dtype, accepted list value type, what to call it in errors)."""
    if name in ColumnarRecordBuffer._INT_COLUMNS:
        return _I8, _is_int, "an int"
    if name == "usta_active":
        return _BOOL, lambda kind: kind is bool, "a bool"
    return _F8, _is_float, "a float"


_FIELD_CODECS = {name: _field_codec(name) for name in _RECORD_FIELDS}
_BLOCK_KEYS = frozenset(_RECORD_FIELDS) | {"rows"}


def _check_lists(columns: List[list]):
    """Hand-built field-ordered lists as typed arrays and a presence block.

    Raises:
        TypeError: a value's type does not match its field.
        ValueError: an int beyond the int64 range.
    """
    arrays = []
    present = []
    for name, values in zip(_RECORD_FIELDS, columns):
        dtype, accepted, what = _FIELD_CODECS[name]
        if name in _DECISION_INDEX:
            mask = [value is not None for value in values]
            present.append(mask)
            if not all(mask):
                values = [0.0 if value is None else value for value in values]
        for kind in set(map(type, values)):
            if not accepted(kind):
                raise TypeError(f"{name}: {kind.__name__} value in {what} field")
        try:
            arrays.append(np.array(values, dtype=dtype))
        except OverflowError:
            raise ValueError(f"{name}: int value beyond the int64 range") from None
    return arrays, np.array(present, dtype=bool).reshape(3, len(arrays[0]))


def _b64(array: np.ndarray) -> str:
    return base64.b64encode(array.tobytes()).decode("ascii")


def _column_text(name: str, array: np.ndarray, present: Optional[np.ndarray]) -> str:
    """One field's array as block JSON (see :meth:`RecordColumns.to_block`)."""
    none = None
    if present is not None:
        if not present.any():
            return "null"
        if not present.all():
            none = ~present
            array = np.where(present, array, 0.0)
    # On a little-endian host the cast is a no-op; a bool array's bytes are
    # its 0/1 flag bytes.
    text = f'"{_b64(array.astype(_FIELD_CODECS[name][0], copy=False))}"'
    if none is None:
        return text
    return f'{{"values":{text},"none":"{_b64(np.packbits(none))}"}}'


def _raw(name: str, text: object, dtype: np.dtype, rows: int) -> np.ndarray:
    if not isinstance(text, str):
        raise ValueError(f"{name}: column is not base64 text")
    data = base64.b64decode(text, validate=True)
    if len(data) != rows * dtype.itemsize:
        raise ValueError(f"{name}: {len(data)} bytes for {rows} rows")
    return np.frombuffer(data, dtype)


def _column_array(name: str, value: object, rows: int):
    """The inverse of :func:`_column_text`: (typed array, presence or None)."""
    dtype = _FIELD_CODECS[name][0]
    if name in _DECISION_INDEX:
        if value is None:
            return np.zeros(rows), np.zeros(rows, dtype=bool)
        present = np.ones(rows, dtype=bool)
        if isinstance(value, dict):
            if value.keys() != {"values", "none"}:
                raise ValueError(f"{name}: masked column needs exactly 'values' and 'none'")
            mask = _raw(name, value["none"], _U1, (rows + 7) // 8)
            present = ~np.unpackbits(mask, count=rows).view(np.bool_)
            value = value["values"]
        return _raw(name, value, _F8, rows), present
    if dtype is _BOOL:
        flags = _raw(name, value, _U1, rows)
        if rows and flags.max() > 1:
            raise ValueError(f"{name}: flag byte other than 0 or 1")
        return flags.view(np.bool_), None
    return _raw(name, value, dtype, rows), None


def _decode_block(block: object) -> RecordColumns:
    """One :meth:`RecordColumns.to_block` object back to a typed run."""
    if not isinstance(block, dict):
        raise ValueError("column block is not an object")
    if block.keys() != _BLOCK_KEYS:
        unknown = sorted(set(block) - _BLOCK_KEYS)
        if unknown:
            raise ValueError(f"unknown step-record field(s) {unknown}")
        raise ValueError(f"missing step-record field(s) {sorted(_BLOCK_KEYS - set(block))}")
    rows = block["rows"]
    if type(rows) is not int or rows < 0:
        raise ValueError(f"block row count {rows!r} is not a count")
    arrays, masks = zip(*(_column_array(name, block[name], rows) for name in _RECORD_FIELDS))
    present = np.stack([mask for mask in masks if mask is not None])
    return RecordColumns.of_arrays(list(arrays), present)


def _fast_records(series: List[list]) -> Iterator[StepRecord]:
    """Build :class:`StepRecord` rows from full columns, bypassing ``__init__``.

    A frozen dataclass pays one guarded ``object.__setattr__`` per field per
    instance; installing the instance ``__dict__`` in one shot produces an
    identical object (attribute storage, equality, hash and pickling all go
    through ``__dict__``) at a fraction of the cost.  ``series`` must carry
    one column per :class:`StepRecord` field, in field order.
    """
    new = StepRecord.__new__
    set_attr = object.__setattr__
    names = _RECORD_FIELDS
    for values in zip(*series):
        record = new(StepRecord)
        set_attr(record, "__dict__", dict(zip(names, values)))
        yield record


def _check_field_order() -> None:
    """Pin the buffer's positional column order to the dataclass field order."""
    expected = _RECORD_FIELDS
    positional = (
        ("time_s",)
        + ColumnarRecordBuffer._INT_COLUMNS
        + ColumnarRecordBuffer._FLOAT_COLUMNS
        + (
            "predicted_skin_temp_c",
            "predicted_screen_temp_c",
            "usta_active",
            "comfort_limit_c",
        )
    )
    if positional != expected:
        raise AssertionError(
            "ColumnarRecordBuffer's positional column order no longer matches "
            f"StepRecord's field order: {positional} != {expected}"
        )


_check_field_order()


@dataclass
class SimulationResult:
    """Outcome of replaying one workload trace under one DVFS configuration.

    ``records`` is normally a plain eager list, but a producer that already
    holds the data in columnar form can install a deferred column source via
    :meth:`defer_columns`.  ``records`` is then a read-only
    :class:`RecordsView`, and :meth:`record_columns` hands the columns out
    without building any :class:`StepRecord`.  ``len``, the time series and
    the summary metrics read the source field by field, so the batched
    engines' in-memory sweeps reduce each member without building the
    per-step objects they would never read.
    """

    workload_name: str
    governor_name: str
    dt_s: float
    records: List[StepRecord] = field(default_factory=list)

    def defer_columns(self, thunk: Callable[[], "RecordColumns"]) -> None:
        """Install a callable returning this result's records as columns.

        ``records`` materialises its list from the callable on first full
        read (once); assigning ``records`` directly discards it.  A source
        that also reads single fields and steps (a batch buffer's member
        rows) answers summaries and ``records[i]`` without being called.
        Pickling materialises first (closures over numpy buffers would not
        serialise, and the bytes on the wire should not depend on when the
        records were built).
        """
        self.__dict__["records"] = None
        self.__dict__["_columns_thunk"] = thunk

    def record_columns(self) -> Optional["RecordColumns"]:
        """The deferred records as columns, or ``None`` once they are a list.

        Nothing is cached: a streamed cell's columns live only as long as the
        caller holds them.
        """
        thunk = self.__dict__.get("_columns_thunk")
        return thunk() if thunk is not None else None

    def _reader(self):
        """What answers field and step reads of deferred records (or None)."""
        thunk = self.__dict__.get("_columns_thunk")
        if thunk is None or isinstance(thunk, _MemberRows):
            return thunk
        return thunk()

    def _materialise(self) -> List[StepRecord]:
        thunk = self.__dict__.get("_columns_thunk")
        if thunk is not None:
            self.__dict__["_columns_thunk"] = None
            self.__dict__["records"] = list(thunk())
        return self.__dict__["records"]

    def __getstate__(self):
        self._materialise()  # thunks do not pickle
        state = dict(self.__dict__)
        state.pop("_columns_thunk", None)
        return state

    # -- container protocol --------------------------------------------------------

    def __len__(self) -> int:
        reader = self._reader()
        return len(reader if reader is not None else self.records)

    def append(self, record: StepRecord) -> None:
        """Add one step record."""
        self._materialise().append(record)

    # -- time series -----------------------------------------------------------------

    def _series(self, name: str) -> np.ndarray:
        reader = self._reader()
        if reader is not None:
            return reader.array(name)
        return np.array([getattr(r, name) for r in self.records])

    def times_s(self) -> np.ndarray:
        """Step timestamps (seconds)."""
        return self._series("time_s")

    def skin_temps_c(self) -> np.ndarray:
        """True skin (back-cover mid) temperature series."""
        return self._series("skin_temp_c")

    def screen_temps_c(self) -> np.ndarray:
        """True screen temperature series."""
        return self._series("screen_temp_c")

    def cpu_temps_c(self) -> np.ndarray:
        """True CPU die temperature series."""
        return self._series("cpu_temp_c")

    def battery_temps_c(self) -> np.ndarray:
        """True battery temperature series."""
        return self._series("battery_temp_c")

    def frequencies_khz(self) -> np.ndarray:
        """Selected CPU frequency series (kHz)."""
        return self._series("frequency_khz")

    def utilizations(self) -> np.ndarray:
        """Observed CPU utilization series."""
        return self._series("utilization")

    def power_w(self) -> np.ndarray:
        """Total platform power series (Watts)."""
        return self._series("power_w")

    # -- summary metrics (Table 1 rows) ---------------------------------------------------

    @property
    def duration_s(self) -> float:
        """Simulated duration."""
        return len(self) * self.dt_s

    @property
    def max_skin_temp_c(self) -> float:
        """Maximum skin temperature (Table 1, "Max Skin Temp")."""
        return float(np.max(self.skin_temps_c())) if len(self) else float("nan")

    @property
    def max_screen_temp_c(self) -> float:
        """Maximum screen temperature (Table 1, "Max Screen Temp")."""
        return float(np.max(self.screen_temps_c())) if len(self) else float("nan")

    @property
    def max_cpu_temp_c(self) -> float:
        """Maximum CPU die temperature."""
        return float(np.max(self.cpu_temps_c())) if len(self) else float("nan")

    @property
    def average_frequency_ghz(self) -> float:
        """Average CPU frequency in GHz (Table 1, "Average Freq.")."""
        if not len(self):
            return float("nan")
        return float(np.mean(self.frequencies_khz())) / 1e6

    @property
    def average_power_w(self) -> float:
        """Average platform power."""
        return float(np.mean(self.power_w())) if len(self) else float("nan")

    @property
    def total_energy_j(self) -> float:
        """Total platform energy over the run (Joules)."""
        return float(np.sum(self.power_w()) * self.dt_s) if len(self) else 0.0

    @property
    def demanded_work(self) -> float:
        """Total work the workload asked for (full-speed window equivalents)."""
        return float(np.sum(self._series("demand")))

    @property
    def delivered_work(self) -> float:
        """Total work actually executed."""
        return float(np.sum(self._series("delivered_work")))

    @property
    def throughput_ratio(self) -> float:
        """Delivered / demanded work (1.0 = no slowdown)."""
        demanded = self.demanded_work
        if demanded <= 0:
            return 1.0
        return min(1.0, self.delivered_work / demanded)

    @property
    def usta_active_fraction(self) -> float:
        """Fraction of steps in which USTA had a frequency cap installed."""
        if not len(self):
            return 0.0
        return float(np.mean(self._series("usta_active").astype(bool).astype(float)))

    # -- comfort ------------------------------------------------------------------------

    def comfort_against(self, limit_c: float, user_id: str = "default") -> ComfortAnalysis:
        """Analyse the skin-temperature series against a comfort limit."""
        return analyse_comfort(self.skin_temps_c(), limit_c, dt_s=self.dt_s, user_id=user_id)

    def percent_time_over(self, limit_c: float) -> float:
        """Percentage of the run spent with the skin temperature above ``limit_c``."""
        return self.comfort_against(limit_c).percent_time_over_limit

    # -- export --------------------------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """Headline metrics in one dictionary (used by the benchmark harness)."""
        return {
            "max_skin_temp_c": self.max_skin_temp_c,
            "max_screen_temp_c": self.max_screen_temp_c,
            "max_cpu_temp_c": self.max_cpu_temp_c,
            "average_frequency_ghz": self.average_frequency_ghz,
            "average_power_w": self.average_power_w,
            "throughput_ratio": self.throughput_ratio,
            "usta_active_fraction": self.usta_active_fraction,
        }

    def to_records(self) -> List[Dict[str, float]]:
        """Per-step records as plain dictionaries (for ML training / export)."""
        return [
            {
                "time_s": r.time_s,
                "frequency_khz": float(r.frequency_khz),
                "utilization": r.utilization,
                "cpu_temp_c": r.sensor_cpu_temp_c,
                "battery_temp_c": r.sensor_battery_temp_c,
                "skin_temp_c": r.sensor_skin_temp_c,
                "screen_temp_c": r.sensor_screen_temp_c,
                "true_skin_temp_c": r.skin_temp_c,
                "true_screen_temp_c": r.screen_temp_c,
                "power_w": r.power_w,
            }
            for r in self.records
        ]


class RecordsView(collections.abc.Sequence):
    """``SimulationResult.records`` while the records are still columns.

    Length and ``view[i]`` (negative indices too) read the column source and
    build at most one :class:`StepRecord`.  Everything that needs the whole
    run — iteration, slicing, comparison, ``repr``, pickling and ``append``
    — materialises the result's real list once and works on it,
    so the view equals (and pickles to) a plain list.
    """

    __slots__ = ("_result",)

    def __init__(self, result: SimulationResult):
        self._result = result

    def _list(self) -> List[StepRecord]:
        return self._result._materialise()

    def __len__(self) -> int:
        return len(self._result)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._list()[index]
        reader = self._result._reader()
        if reader is None:
            return self._list()[index]
        n = len(reader)
        position = operator.index(index)
        if position < 0:
            position += n
        if not 0 <= position < n:
            raise IndexError("list index out of range")
        return reader.record(position)

    def __iter__(self) -> Iterator[StepRecord]:
        return iter(self._list())

    def __eq__(self, other) -> bool:
        if isinstance(other, RecordsView):
            other = other._list()
        return self._list() == other

    def __repr__(self) -> str:
        return repr(self._list())

    def __reduce__(self):
        return (list, (self._list(),))

    def append(self, record: StepRecord) -> None:
        self._list().append(record)


def _records_get(self) -> Sequence[StepRecord]:
    if self.__dict__.get("_columns_thunk") is not None:
        return RecordsView(self)
    return self.__dict__["records"]


def _records_set(self, value: List[StepRecord]) -> None:
    self.__dict__["records"] = value
    self.__dict__["_columns_thunk"] = None


# ``records`` stays an ordinary dataclass field (init/repr/eq all see it),
# but attribute access goes through a data descriptor so a deferred column
# source installed by defer_columns() answers through a RecordsView until
# something needs the whole list.
SimulationResult.records = property(_records_get, _records_set)
