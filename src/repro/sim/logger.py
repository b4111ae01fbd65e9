"""The system-level logging application.

The paper instruments the phone with "an application to periodically log
system level information, such as CPU temperature, battery temperature, CPU
utilization, and CPU frequency", and pairs those logs with the external
thermistor measurements to build the training set for the skin/screen
temperature predictors.

:class:`SystemLogger` reproduces that data-collection path: it samples the
simulated device at a fixed period and emits log records containing the
on-device sensor readings (the predictor's features) together with the
thermistor readings (the prediction targets).  The scalar engine offers it
every tick (:meth:`SystemLogger.maybe_log`); the batched engine hands it a
window of its per-tick record columns at a time
(:meth:`SystemLogger.log_columns`), which logs the same rows.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..ml.dataset import Dataset

__all__ = ["LogRecord", "SystemLogger", "FEATURE_NAMES", "SKIN_TARGET", "SCREEN_TARGET"]

#: The predictor features the paper lists: CPU temperature, battery
#: temperature, CPU utilization and CPU frequency.
FEATURE_NAMES = ("cpu_temp_c", "battery_temp_c", "utilization", "frequency_khz")
SKIN_TARGET = "skin_temp_c"
SCREEN_TARGET = "screen_temp_c"


@dataclass(frozen=True)
class LogRecord:
    """One row of the logging application's output."""

    time_s: float
    benchmark: str
    cpu_temp_c: float
    battery_temp_c: float
    utilization: float
    frequency_khz: float
    skin_temp_c: float
    screen_temp_c: float

    def as_dict(self) -> Dict[str, float]:
        """The record as a feature/target dictionary."""
        return {
            "time_s": self.time_s,
            "cpu_temp_c": self.cpu_temp_c,
            "battery_temp_c": self.battery_temp_c,
            "utilization": self.utilization,
            "frequency_khz": self.frequency_khz,
            "skin_temp_c": self.skin_temp_c,
            "screen_temp_c": self.screen_temp_c,
        }


#: LogRecord fields in declaration order (the logger's column layout).
_FIELDS = tuple(f.name for f in fields(LogRecord))


@dataclass
class SystemLogger:
    """Periodic system-level logger.

    The log is kept as one list per :class:`LogRecord` field; :attr:`records`
    builds the record objects on demand and :meth:`to_dataset` reads the
    columns directly.

    Attributes:
        period_s: logging period (the paper logs every few seconds; 3 s
            matches USTA's prediction window).
    """

    period_s: float = 3.0
    _columns: Dict[str, List] = field(
        default_factory=lambda: {name: [] for name in _FIELDS}, init=False, repr=False
    )

    def __post_init__(self) -> None:
        if not 0.0 < self.period_s < math.inf:
            raise ValueError("period_s must be positive and finite")
        self._last_log_time: Optional[float] = None

    def __len__(self) -> int:
        return len(self._columns["time_s"])

    @property
    def records(self) -> List[LogRecord]:
        """The collected log rows, oldest first."""
        return list(map(LogRecord, *(self._columns[name] for name in _FIELDS)))

    def append(self, record: LogRecord) -> None:
        """Append one log row (does not touch the logging clock)."""
        for name in _FIELDS:
            self._columns[name].append(getattr(record, name))

    def reset(self) -> None:
        """Drop collected records and restart the logging clock."""
        for column in self._columns.values():
            column.clear()
        self._last_log_time = None

    def should_log(self, time_s: float) -> bool:
        """True when at least one period has elapsed since the last record."""
        if self._last_log_time is None:
            return True
        return time_s - self._last_log_time >= self.period_s - 1e-9

    def maybe_log(
        self,
        time_s: float,
        benchmark: str,
        sensor_readings: Dict[str, float],
        utilization: float,
        frequency_khz: float,
    ) -> Optional[LogRecord]:
        """Log a record if the logging period has elapsed.

        The sensor readings must contain the ``cpu``, ``battery``, ``skin``
        and ``screen`` channels produced by
        :meth:`repro.device.sensors.SensorSuite.read_all`.
        """
        if not self.should_log(time_s):
            return None
        record = LogRecord(
            time_s=time_s,
            benchmark=benchmark,
            cpu_temp_c=sensor_readings["cpu"],
            battery_temp_c=sensor_readings["battery"],
            utilization=utilization,
            frequency_khz=float(frequency_khz),
            skin_temp_c=sensor_readings["skin"],
            screen_temp_c=sensor_readings["screen"],
        )
        self.append(record)
        self._last_log_time = time_s
        return record

    def log_columns(
        self,
        times_s: Sequence[float],
        benchmark: str,
        cpu_temp_c: np.ndarray,
        battery_temp_c: np.ndarray,
        utilization: np.ndarray,
        frequency_khz: np.ndarray,
        skin_temp_c: np.ndarray,
        screen_temp_c: np.ndarray,
    ) -> None:
        """Log the due ticks of a run's per-tick columns, in tick order.

        Logs exactly the rows :meth:`maybe_log` would log if it were called at
        every tick with these readings, and carries the logging clock on, so
        a run fed window by window logs what one call over the whole run does.
        """
        due: List[int] = []
        last = self._last_log_time
        threshold = self.period_s - 1e-9
        tick, n = 0, len(times_s)
        while tick < n:
            if last is not None:
                # ``t - last >= threshold`` is monotone in the ascending
                # times: bisect close to the first due tick, then settle on
                # it with the exact comparison.
                floor = tick
                tick = bisect_left(times_s, last + threshold, tick)
                while tick > floor and times_s[tick - 1] - last >= threshold:
                    tick -= 1
                while tick < n and not times_s[tick] - last >= threshold:
                    tick += 1
                if tick == n:
                    break
            due.append(tick)
            last = times_s[tick]
            tick += 1
        if not due:
            return
        self._last_log_time = last
        columns = self._columns
        columns["time_s"].extend(times_s[i] for i in due)
        columns["benchmark"].extend([benchmark] * len(due))
        for name, values in zip(
            _FIELDS[2:],
            (cpu_temp_c, battery_temp_c, utilization, frequency_khz, skin_temp_c, screen_temp_c),
        ):
            columns[name].extend(np.asarray(values, dtype=float)[due].tolist())

    # -- dataset export -------------------------------------------------------------

    def to_dataset(self, target: str = SKIN_TARGET) -> Dataset:
        """Convert the collected log into an ML dataset.

        Args:
            target: ``"skin_temp_c"`` or ``"screen_temp_c"``.
        """
        if target not in (SKIN_TARGET, SCREEN_TARGET):
            raise ValueError(f"target must be {SKIN_TARGET!r} or {SCREEN_TARGET!r}")
        if not len(self):
            raise ValueError("the logger has no records to convert")
        features = np.array([self._columns[name] for name in FEATURE_NAMES], dtype=float)
        return Dataset(
            features=np.ascontiguousarray(features.T),
            target=np.array(self._columns[target], dtype=float),
            feature_names=FEATURE_NAMES,
            target_name=target,
        )

    def extend(self, other: "SystemLogger") -> None:
        """Append another logger's records (used to pool benchmarks into one set)."""
        for name in _FIELDS:
            self._columns[name].extend(other._columns[name])
