"""Workload traces.

A *workload trace* is the time series of activity a benchmark or application
imposes on the device: CPU demand (fraction of maximum-frequency capacity),
GPU activity, radio/camera activity, screen state and brightness, charging
state and whether the user is holding the phone.  Traces are sampled at a
fixed period (1 s by default) and are what the simulation engine replays
against the :class:`~repro.device.platform.DevicePlatform`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from ..device.platform import DeviceActivity

__all__ = ["TraceArrays", "WorkloadSample", "WorkloadTrace"]


@dataclass(frozen=True)
class TraceArrays:
    """A workload trace materialised as one numpy column per sample field.

    This is the structure-of-arrays view the batched runtime consumes: the
    heterogeneous population engine stacks each member's columns into padded
    ``(n_members, n_steps)`` matrices and advances every member with array
    arithmetic instead of per-sample attribute access.  Values are exactly the
    sample fields (floats bit-identical to the scalar path; flags as booleans),
    so array math that mirrors the scalar model's operation order stays
    bit-exact.
    """

    cpu_demand: np.ndarray
    gpu_activity: np.ndarray
    radio_activity: np.ndarray
    brightness: np.ndarray
    screen_on: np.ndarray
    charging: np.ndarray
    touching: np.ndarray
    sample_period_s: float

    def __len__(self) -> int:
        return len(self.cpu_demand)

    @classmethod
    def from_samples(
        cls, samples: Sequence["WorkloadSample"], sample_period_s: float
    ) -> "TraceArrays":
        """The columns of a sample sequence."""
        return cls(
            **{
                name: np.array(
                    [getattr(s, name) for s in samples],
                    dtype=bool if name in ("screen_on", "charging", "touching") else float,
                )
                for name in TRACE_COLUMNS
            },
            sample_period_s=sample_period_s,
        )

    def to_samples(self) -> List["WorkloadSample"]:
        """One :class:`WorkloadSample` per row."""
        columns = [getattr(self, f.name).tolist() for f in fields(WorkloadSample)]
        return [WorkloadSample(*row) for row in zip(*columns)]

    def window(self, start: int, stop: int, copy: bool = False) -> "TraceArrays":
        """The samples in ``[start, stop)``: zero-copy views, or copies."""
        columns = {name: getattr(self, name)[start:stop] for name in TRACE_COLUMNS}
        if copy:
            columns = {name: column.copy() for name, column in columns.items()}
        return TraceArrays(**columns, sample_period_s=self.sample_period_s)


#: The per-sample column names of :class:`TraceArrays`.
TRACE_COLUMNS = tuple(f.name for f in fields(TraceArrays) if f.name != "sample_period_s")


@dataclass(frozen=True)
class WorkloadSample:
    """Activity requested during one trace sample."""

    cpu_demand: float = 0.0
    gpu_activity: float = 0.0
    radio_activity: float = 0.0
    screen_on: bool = True
    brightness: float = 0.7
    charging: bool = False
    touching: bool = True

    def __post_init__(self) -> None:
        for name in ("cpu_demand", "gpu_activity", "radio_activity", "brightness"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")

    def to_activity(self) -> DeviceActivity:
        """Convert to the device-facing :class:`DeviceActivity`."""
        return DeviceActivity(
            cpu_demand=self.cpu_demand,
            gpu_activity=self.gpu_activity,
            radio_activity=self.radio_activity,
            screen_on=self.screen_on,
            brightness=self.brightness,
            charging=self.charging,
            touching=self.touching,
        )


def _check_sample_period(sample_period_s: float) -> None:
    # The period is every simulation's step size: a NaN or infinite one must
    # not reach the thermal solver as a step.
    if not (sample_period_s > 0 and math.isfinite(sample_period_s)):
        raise ValueError(f"sample_period_s must be finite and positive, got {sample_period_s!r}")


@dataclass
class WorkloadTrace:
    """A named, fixed-period sequence of :class:`WorkloadSample` entries.

    Attributes:
        name: workload identifier (e.g. ``"skype"``).
        samples: the activity samples in playback order.
        sample_period_s: trace sampling period in seconds.
        description: optional human-readable description.
    """

    name: str
    samples: List[WorkloadSample] = field(default_factory=list)
    sample_period_s: float = 1.0
    description: str = ""

    def __post_init__(self) -> None:
        _check_sample_period(self.sample_period_s)

    @classmethod
    def from_arrays(cls, name: str, arrays: TraceArrays, description: str = "") -> "WorkloadTrace":
        """A trace backed by its columns (the :meth:`as_arrays` cache).

        Generators and the batched runtime only ever read columns, so the
        per-sample :class:`WorkloadSample` list is built on first access.
        """
        _check_sample_period(arrays.sample_period_s)
        trace = cls.__new__(cls)
        trace.name = name
        trace.sample_period_s = arrays.sample_period_s
        trace.description = description
        trace._arrays_cache = arrays
        return trace

    def __getattr__(self, attribute: str):
        # Only reached for attributes the instance lacks: the sample list of a
        # trace built by from_arrays, materialised from the columns once.
        if attribute != "samples" or "_arrays_cache" not in self.__dict__:
            raise AttributeError(attribute)
        self.samples = self._arrays_cache.to_samples()
        return self.samples

    def _columns_only(self) -> bool:
        """True while the trace is backed by columns and no sample list exists."""
        return "samples" not in self.__dict__

    # -- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        if self._columns_only():
            return len(self._arrays_cache)
        return len(self.samples)

    def __iter__(self) -> Iterator[WorkloadSample]:
        return iter(self.samples)

    def __getitem__(self, index: int) -> WorkloadSample:
        return self.samples[index]

    # -- properties -----------------------------------------------------------

    @property
    def duration_s(self) -> float:
        """Total trace duration in seconds."""
        return len(self) * self.sample_period_s

    @property
    def mean_cpu_demand(self) -> float:
        """Average CPU demand over the trace."""
        if not self.samples:
            return 0.0
        return sum(s.cpu_demand for s in self.samples) / len(self.samples)

    @property
    def peak_cpu_demand(self) -> float:
        """Maximum CPU demand over the trace."""
        if not self.samples:
            return 0.0
        return max(s.cpu_demand for s in self.samples)

    def as_arrays(self) -> TraceArrays:
        """Materialise the trace as a :class:`TraceArrays` column set.

        The result is cached on the trace (keyed on the current sample count,
        so `samples` appended after the first call invalidate it); traces are
        treated as immutable once replayed — every trace-algebra method
        returns a copy rather than mutating in place.
        """
        cached = getattr(self, "_arrays_cache", None)
        if cached is not None and (self._columns_only() or len(cached) == len(self.samples)):
            return cached
        arrays = TraceArrays.from_samples(self.samples, self.sample_period_s)
        self._arrays_cache = arrays
        return arrays

    def arrays_window(self, start: int, stop: int) -> TraceArrays:
        """Materialise just the samples in ``[start, stop)`` as columns.

        The windowed population engine replays long traces in fixed-size step
        windows, so the full :meth:`as_arrays` materialisation (O(len) numpy
        columns per trace) is never required.  When a full-trace cache already
        exists the window is answered as zero-copy views into it; otherwise the
        window's columns are built from the sample slice and *not* cached —
        windows are consumed once, and caching them would defeat the bounded
        memory the windowed engine exists to provide.  Values are bit-identical
        to the corresponding ``as_arrays()`` slices either way.
        """
        if start < 0 or stop < start:
            raise ValueError(f"invalid trace window [{start}, {stop})")
        cached = getattr(self, "_arrays_cache", None)
        if cached is not None and (self._columns_only() or len(cached) == len(self.samples)):
            return cached.window(start, stop)
        return TraceArrays.from_samples(self.samples[start:stop], self.sample_period_s)

    def iter_windows(
        self, window_steps: int, start: int = 0, stop: Optional[int] = None
    ) -> Iterator[tuple]:
        """Yield ``(window_start, TraceArrays)`` chunks of ``window_steps`` samples.

        The chunked counterpart of :meth:`as_arrays`: the concatenation of the
        yielded columns equals the full materialisation exactly, but at most
        one window of columns is live at a time (see :meth:`arrays_window`).
        The final window may be shorter.
        """
        if window_steps < 1:
            raise ValueError("window_steps must be at least 1")
        end = len(self) if stop is None else min(stop, len(self))
        for w0 in range(start, end, window_steps):
            yield w0, self.arrays_window(w0, min(w0 + window_steps, end))

    def sample_at(self, time_s: float) -> WorkloadSample:
        """The sample active at absolute trace time ``time_s`` (clamped)."""
        if not self.samples:
            raise ValueError(f"trace {self.name!r} is empty")
        index = int(time_s / self.sample_period_s)
        index = max(0, min(len(self.samples) - 1, index))
        return self.samples[index]

    # -- trace algebra ----------------------------------------------------------

    def truncated_length(self, duration_s: float) -> int:
        """``len(self.truncated(duration_s))``, without building the copy."""
        return min(len(self), max(1, int(round(duration_s / self.sample_period_s))))

    def truncated(self, duration_s: float) -> "WorkloadTrace":
        """A copy of the trace limited to the first ``duration_s`` seconds."""
        count = self.truncated_length(duration_s)
        if self._columns_only():
            # Copies, so a short prefix does not keep the full columns alive.
            return WorkloadTrace.from_arrays(
                self.name, self._arrays_cache.window(0, count, copy=True), self.description
            )
        return WorkloadTrace(
            name=self.name,
            samples=list(self.samples[:count]),
            sample_period_s=self.sample_period_s,
            description=self.description,
        )

    def repeated(self, times: int) -> "WorkloadTrace":
        """A copy with the sample sequence repeated ``times`` times."""
        if times < 1:
            raise ValueError("times must be at least 1")
        return WorkloadTrace(
            name=self.name,
            samples=list(self.samples) * times,
            sample_period_s=self.sample_period_s,
            description=self.description,
        )

    def concatenated(self, other: "WorkloadTrace", name: Optional[str] = None) -> "WorkloadTrace":
        """This trace followed by another (periods must match)."""
        if abs(other.sample_period_s - self.sample_period_s) > 1e-9:
            raise ValueError("cannot concatenate traces with different sample periods")
        return WorkloadTrace(
            name=name or f"{self.name}+{other.name}",
            samples=list(self.samples) + list(other.samples),
            sample_period_s=self.sample_period_s,
            description=self.description,
        )

    def scaled_demand(self, factor: float, name: Optional[str] = None) -> "WorkloadTrace":
        """A copy with CPU demand multiplied by ``factor`` (clipped to [0, 1])."""
        if factor < 0:
            raise ValueError("factor must be non-negative")
        samples = [
            replace(s, cpu_demand=min(1.0, s.cpu_demand * factor)) for s in self.samples
        ]
        return WorkloadTrace(
            name=name or self.name,
            samples=samples,
            sample_period_s=self.sample_period_s,
            description=self.description,
        )

    def mapped(
        self, transform: Callable[[WorkloadSample], WorkloadSample], name: Optional[str] = None
    ) -> "WorkloadTrace":
        """A copy with every sample passed through ``transform``."""
        return WorkloadTrace(
            name=name or self.name,
            samples=[transform(s) for s in self.samples],
            sample_period_s=self.sample_period_s,
            description=self.description,
        )

    @classmethod
    def from_samples(
        cls,
        name: str,
        samples: Iterable[WorkloadSample],
        sample_period_s: float = 1.0,
        description: str = "",
    ) -> "WorkloadTrace":
        """Build a trace from any iterable of samples."""
        return cls(
            name=name,
            samples=list(samples),
            sample_period_s=sample_period_s,
            description=description,
        )

    @classmethod
    def constant(
        cls,
        name: str,
        duration_s: float,
        sample: WorkloadSample,
        sample_period_s: float = 1.0,
        description: str = "",
    ) -> "WorkloadTrace":
        """Build a trace that repeats one sample for ``duration_s`` seconds."""
        count = max(1, int(round(duration_s / sample_period_s)))
        return cls(
            name=name,
            samples=[sample] * count,
            sample_period_s=sample_period_s,
            description=description,
        )
