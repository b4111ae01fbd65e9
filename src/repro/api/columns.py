"""Columnar telemetry batches: one ``feed_batch`` tick held as columns.

A ``feed_batch`` request carries one telemetry sample per session.  Building a
:class:`~repro.api.types.TelemetrySample` per sample costs more than the policy
plane's whole tick, so :class:`SampleColumns` decodes the request in one pass
into float columns (``time_s``, ``utilization``, ``frequency_khz``, the
``cpu`` and ``battery`` sensor channels with presence masks) plus the felt
``skin`` channel as a list holding ``None`` where a sample has none.  The
plane reads features and felt skin straight from those columns; only rows
that leave it (sessions off the plane, rows carrying feedback) get a sample
object, through :meth:`SampleColumns.sample`.

Wire rules, enforced for single samples by :func:`sample_from_wire` and for
whole batches by :meth:`SampleColumns.from_wire` (same acceptance, same
errors): a sample is a JSON object with ``time_s``, ``utilization`` and
``frequency_khz``; ``sensors`` is optional (omitted or ``null`` means none)
and otherwise an object of channel → reading.  Every number is a finite JSON
number — an ``int`` or a ``float``, never a ``bool``, a string or ``null``.
A refusal is a ``ValueError`` naming the session and the field.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from operator import itemgetter
from typing import List, Mapping, Optional

import numpy as np

from .types import TelemetrySample

__all__ = ["SampleColumns", "refuse_missing_channel", "sample_from_wire", "wire_number"]

_FIELDS = ("time_s", "utilization", "frequency_khz")
_NUMBER_TYPES = frozenset((int, float))
#: Shared by every sample without sensors; sample readings are never mutated.
_NO_SENSORS: Mapping[str, float] = {}
_GET_FIELDS = tuple(itemgetter(field) for field in _FIELDS)


def wire_number(value, session_id, field: str):
    """``value`` when it is a finite JSON number, else a ``ValueError``
    naming the session and the field."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return value
        except OverflowError:  # an int beyond the float range
            pass
        problem = "is not finite"
    else:
        problem = "must be a JSON number"
    raise ValueError(f"session {session_id!r}: {field} {problem}, got {value!r}")


def refuse_missing_channel(session_id, readings: Mapping[str, float]) -> None:
    """Raise when a prediction-due sample's ``readings`` lack a predictor
    channel; the ``ValueError`` names the session (when it has an id) and
    the channel."""
    for channel in ("cpu", "battery"):
        if channel not in readings:
            available = ", ".join(sorted(readings)) or "none"
            where = "" if session_id is None else f"session {session_id!r}: "
            raise ValueError(
                f"{where}a prediction is due and needs sensor channel {channel!r} "
                f"(channels present: {available})"
            )


def sample_from_wire(session_id, payload) -> TelemetrySample:
    """One wire sample as a :class:`TelemetrySample` (the wire rules above).

    The sensors object is adopted, not copied: the request owns it and
    nothing downstream mutates sample readings.
    """
    if not isinstance(payload, Mapping):
        raise ValueError(
            f"session {session_id!r}: a sample must be a JSON object, "
            f"got {type(payload).__name__}"
        )
    values = []
    for field in _FIELDS:
        if field not in payload:
            raise ValueError(f"session {session_id!r}: sample lacks {field!r}")
        values.append(float(wire_number(payload[field], session_id, field)))
    sensors = payload.get("sensors")
    if sensors is None:
        sensors = _NO_SENSORS
    elif not isinstance(sensors, Mapping):
        raise ValueError(
            f"session {session_id!r}: sensors must be a JSON object of channel "
            f"readings, got {type(sensors).__name__}"
        )
    for channel, value in sensors.items():
        wire_number(value, session_id, f"sensors.{channel}")
    return TelemetrySample(
        time_s=values[0], utilization=values[1], frequency_khz=values[2], sensor_readings=sensors
    )


class SampleColumns:
    """One telemetry sample per session, held as columns in batch order.

    Attributes:
        ids: the session ids, in batch order.
        time_raw: ``time_s`` as given (an ``int`` stays an ``int``, as the
            decision log writes it).
        time_s, utilization, frequency_khz: float columns.
        cpu, battery: float columns, NaN where the channel is absent.
        has_cpu, has_battery: presence masks of those two channels.
        complete: every sample carries both ``cpu`` and ``battery``.
        skin: the felt skin reading per sample, ``None`` where absent.
        any_skin: some sample carries a skin reading.
        sensors: each sample's sensor mapping (for :meth:`sample`).
    """

    __slots__ = (
        "ids",
        "time_raw",
        "time_s",
        "utilization",
        "frequency_khz",
        "cpu",
        "battery",
        "has_cpu",
        "has_battery",
        "complete",
        "skin",
        "any_skin",
        "sensors",
        "_samples",
    )

    def __init__(
        self,
        ids: List,
        time_raw: List,
        utilization: List,
        frequency_khz: List,
        sensors: List[Mapping],
        cpu: List,
        battery: List,
        skin: List,
        samples: Optional[List[TelemetrySample]] = None,
    ) -> None:
        self.ids = ids
        self.time_raw = time_raw
        self.time_s = np.array(time_raw, dtype=float)
        self.utilization = np.array(utilization, dtype=float)
        self.frequency_khz = np.array(frequency_khz, dtype=float)
        self.sensors = sensors
        # Absent readings (None) become NaN.
        self.cpu = np.array(cpu, dtype=float)
        self.battery = np.array(battery, dtype=float)
        self.has_cpu = ~np.isnan(self.cpu)
        self.has_battery = ~np.isnan(self.battery)
        self.complete = bool(self.has_cpu.all() and self.has_battery.all())
        self.skin = skin
        self.any_skin = skin.count(None) < len(skin)
        self._samples = samples

    @classmethod
    def from_wire(cls, samples) -> "SampleColumns":
        """Decode a ``feed_batch`` ``samples`` object, validating every row.

        Every number of the batch — the three fields and every sensor
        reading, whatever its channel — is checked array-wide: one type set
        and one finiteness test.  A batch the checks refuse is decoded again
        row by row through :func:`sample_from_wire`, which names the first
        bad session and field.
        """
        if not isinstance(samples, Mapping):
            raise ValueError(
                "feed_batch samples must be a JSON object of session id -> sample, "
                f"got {type(samples).__name__}"
            )
        ids = list(samples)
        rows = list(samples.values())
        try:
            fields = [list(map(get, rows)) for get in _GET_FIELDS]
            sensors = list(map(dict.get, rows, repeat("sensors"), repeat(_NO_SENSORS)))
            if None in sensors:  # "sensors": null means none
                sensors = [_NO_SENSORS if values is None else values for values in sensors]
            numbers = list(chain(*fields, chain.from_iterable(map(dict.values, sensors))))
            # The type set first: numpy would read a numeric string as a float.
            valid = set(map(type, numbers)) <= _NUMBER_TYPES and bool(
                np.isfinite(np.array(numbers, dtype=float)).all()
            )
        # A missing field, a row or sensors that is not an object, or an int
        # beyond the float range.
        except (KeyError, TypeError, OverflowError):
            valid = False
        if not valid:
            return cls._from_rows(ids, rows)
        channels = [
            list(map(dict.get, sensors, repeat(channel))) for channel in ("cpu", "battery", "skin")
        ]
        return cls(ids, *fields, sensors, *channels)

    @classmethod
    def _from_rows(cls, ids: List, rows: List) -> "SampleColumns":
        """The row-by-row decode: raises on the first bad row."""
        samples = [sample_from_wire(sid, row) for sid, row in zip(ids, rows)]
        columns = cls.from_samples(dict(zip(ids, samples)))
        columns.time_raw = [row["time_s"] for row in rows]
        return columns

    @classmethod
    def from_samples(cls, samples: Mapping[str, TelemetrySample]) -> "SampleColumns":
        """Columns over already-built samples (``SessionPool.feed_many``'s
        other input form); :meth:`sample` hands the originals back."""
        ids = list(samples)
        objects = list(samples.values())
        readings = [sample.sensor_readings for sample in objects]
        return cls(
            ids,
            [sample.time_s for sample in objects],
            [sample.utilization for sample in objects],
            [sample.frequency_khz for sample in objects],
            readings,
            [values.get("cpu") for values in readings],
            [values.get("battery") for values in readings],
            [values.get("skin") for values in readings],
            samples=objects,
        )

    def sample(self, j: int) -> TelemetrySample:
        """Row ``j`` as a :class:`TelemetrySample` (for rows off the plane)."""
        if self._samples is not None:
            return self._samples[j]
        return TelemetrySample(
            time_s=float(self.time_s[j]),
            utilization=float(self.utilization[j]),
            frequency_khz=float(self.frequency_khz[j]),
            sensor_readings=self.sensors[j],
        )

    def refuse_incomplete(self, due: np.ndarray) -> None:
        """Raise when a prediction-due row lacks a predictor channel.

        ``due`` is a mask over the rows.  The error names the first such
        session and the channel; callers check before any row mutates.
        """
        if self.complete:
            return
        lacking = due & ~(self.has_cpu & self.has_battery)
        if not lacking.any():
            return
        j = int(np.flatnonzero(lacking)[0])
        refuse_missing_channel(self.ids[j], self.sensors[j])

