"""Synthetic workload generators.

The paper drives the phone with real Android applications; offline we need
activity traces with the same qualitative structure.  The generators in this
module produce seeded, reproducible traces of the common application shapes:

* :class:`ConstantLoad` — steady activity (video playback, video call);
* :class:`BurstyLoad` — alternating busy bursts and quieter gaps with jitter
  (benchmark suites, games with loading screens);
* :class:`PeriodicLoad` — square-wave activity (benchmark sub-tests run
  back-to-back);
* :class:`RampLoad` — demand rising (or falling) linearly over the trace
  (warm-up phases, progressive benchmark stages);
* :class:`PhasedLoad` — an arbitrary sequence of named phases, each with its
  own generator, concatenated.

Every generator draws per-sample jitter from a seeded
:class:`numpy.random.Generator`, so a (generator, seed) pair always produces
the same trace.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .trace import TRACE_COLUMNS, TraceArrays, WorkloadSample, WorkloadTrace

__all__ = [
    "LoadGenerator",
    "ConstantLoad",
    "BurstyLoad",
    "PeriodicLoad",
    "RampLoad",
    "PhasedLoad",
]


@dataclass
class LoadGenerator(abc.ABC):
    """Base class for trace generators.

    Attributes:
        duration_s: length of the generated trace in seconds.
        sample_period_s: sampling period of the generated trace.
        base_sample: template for the non-CPU fields (GPU, radio, screen,
            charging, touching); generators vary ``cpu_demand`` around it.
        demand_jitter: standard deviation of gaussian jitter added to the CPU
            demand of every sample.
        seed: RNG seed.
    """

    duration_s: float = 600.0
    sample_period_s: float = 1.0
    base_sample: WorkloadSample = field(default_factory=WorkloadSample)
    demand_jitter: float = 0.03
    seed: int = 0

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.sample_period_s <= 0:
            raise ValueError("sample_period_s must be positive")
        if self.demand_jitter < 0:
            raise ValueError("demand_jitter must be non-negative")

    @property
    def num_samples(self) -> int:
        """Number of samples the generator will emit."""
        return max(1, int(round(self.duration_s / self.sample_period_s)))

    def generate(self, name: str, description: str = "") -> WorkloadTrace:
        """Generate the trace, column by column.

        The jitter is one block draw of ``num_samples`` normals, which
        consumes the seeded generator exactly like one draw per sample.
        """
        count = self.num_samples
        index = np.arange(count)
        demand = self._demand_column(index, index * self.sample_period_s)
        if self.demand_jitter > 0:
            rng = np.random.default_rng(self.seed)
            demand = demand + rng.normal(0.0, self.demand_jitter, count)
        # min(1.0, max(0.0, demand)) with Python's min/max tie semantics.
        demand = np.where(demand > 0.0, demand, 0.0)
        demand = np.where(demand < 1.0, demand, 1.0)
        base = self.base_sample
        arrays = TraceArrays(
            cpu_demand=demand,
            gpu_activity=np.full(count, base.gpu_activity, dtype=float),
            radio_activity=np.full(count, base.radio_activity, dtype=float),
            brightness=np.full(count, base.brightness, dtype=float),
            screen_on=np.full(count, base.screen_on, dtype=bool),
            charging=np.full(count, base.charging, dtype=bool),
            touching=np.full(count, base.touching, dtype=bool),
            sample_period_s=self.sample_period_s,
        )
        return WorkloadTrace.from_arrays(name, arrays, description)

    @abc.abstractmethod
    def _demand_column(self, index: np.ndarray, time_s: np.ndarray) -> np.ndarray:
        """CPU demand (before jitter) at every sample index / time."""


@dataclass
class ConstantLoad(LoadGenerator):
    """Steady CPU demand (video call, playback, sustained compute)."""

    demand: float = 0.5

    def _demand_column(self, index: np.ndarray, time_s: np.ndarray) -> np.ndarray:
        return np.full(len(index), self.demand, dtype=float)


@dataclass
class BurstyLoad(LoadGenerator):
    """Alternating busy bursts and quiet gaps with randomized lengths.

    Attributes:
        busy_demand: CPU demand during a burst.
        idle_demand: CPU demand between bursts.
        busy_duration_s: mean burst length.
        idle_duration_s: mean gap length.
        duration_jitter: fractional jitter applied to each burst/gap length.
    """

    busy_demand: float = 0.95
    idle_demand: float = 0.15
    busy_duration_s: float = 30.0
    idle_duration_s: float = 10.0
    duration_jitter: float = 0.3

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.busy_duration_s <= 0 or self.idle_duration_s <= 0:
            raise ValueError("burst and gap durations must be positive")

    def _build_schedule(self, rng: np.random.Generator) -> List[Tuple[float, float, float]]:
        """Build contiguous (start, end, demand) segments covering the whole trace."""
        schedule: List[Tuple[float, float, float]] = []
        time_s = 0.0
        busy = True
        while time_s < self.duration_s:
            mean = self.busy_duration_s if busy else self.idle_duration_s
            jitter = 1.0 + float(rng.uniform(-self.duration_jitter, self.duration_jitter))
            length = max(self.sample_period_s, mean * jitter)
            demand = self.busy_demand if busy else self.idle_demand
            schedule.append((time_s, time_s + length, demand))
            time_s += length
            busy = not busy
        return schedule

    def _demand_column(self, index: np.ndarray, time_s: np.ndarray) -> np.ndarray:
        # The burst schedule has its own RNG stream, so the per-sample jitter
        # stream is the same whatever the schedule draws.
        schedule = self._build_schedule(np.random.default_rng(self.seed + 1))
        ends = np.array([end for _, end, _ in schedule])
        demands = np.array([demand for _, _, demand in schedule])
        # Segments are contiguous from 0, so the segment holding t is the
        # first one ending after t; samples past the last end keep its demand.
        segment = np.searchsorted(ends, time_s, side="right")
        return demands[np.minimum(segment, len(schedule) - 1)]


@dataclass
class PeriodicLoad(LoadGenerator):
    """Deterministic square wave between a high and a low demand."""

    high_demand: float = 0.9
    low_demand: float = 0.2
    period_s: float = 60.0
    duty_cycle: float = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.period_s <= 0:
            raise ValueError("period_s must be positive")
        if not 0.0 < self.duty_cycle < 1.0:
            raise ValueError("duty_cycle must be strictly between 0 and 1")

    def _demand_column(self, index: np.ndarray, time_s: np.ndarray) -> np.ndarray:
        phase = (time_s % self.period_s) / self.period_s
        return np.where(phase < self.duty_cycle, self.high_demand, self.low_demand)


@dataclass
class RampLoad(LoadGenerator):
    """Demand interpolated linearly from ``start_demand`` to ``end_demand``."""

    start_demand: float = 0.1
    end_demand: float = 1.0

    def _demand_column(self, index: np.ndarray, time_s: np.ndarray) -> np.ndarray:
        if self.num_samples <= 1:
            return np.full(len(index), self.end_demand, dtype=float)
        progress = index / (self.num_samples - 1)
        return self.start_demand + progress * (self.end_demand - self.start_demand)


@dataclass
class PhasedLoad(LoadGenerator):
    """A sequence of named phases, each produced by its own generator.

    The phase generators keep their own durations; the outer ``duration_s`` is
    ignored (it is recomputed from the phases).
    """

    phases: Sequence[Tuple[str, LoadGenerator]] = ()

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("PhasedLoad needs at least one phase")
        self.duration_s = sum(gen.duration_s for _, gen in self.phases)
        super().__post_init__()

    def generate(self, name: str, description: str = "") -> WorkloadTrace:
        phases = [generator.generate(f"{name}:{phase}") for phase, generator in self.phases]
        period = phases[0].sample_period_s
        if any(abs(trace.sample_period_s - period) > 1e-9 for trace in phases):
            raise ValueError("cannot concatenate traces with different sample periods")
        columns = [trace.as_arrays() for trace in phases]
        arrays = TraceArrays(
            **{
                field_name: np.concatenate([getattr(column, field_name) for column in columns])
                for field_name in TRACE_COLUMNS
            },
            sample_period_s=period,
        )
        return WorkloadTrace.from_arrays(name, arrays, description)

    def _demand_column(self, index: np.ndarray, time_s: np.ndarray) -> np.ndarray:
        raise NotImplementedError("PhasedLoad delegates generation to its phases")
