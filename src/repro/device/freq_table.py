"""DVFS operating-point table for the simulated platform.

The paper's test device is a Google Nexus 4 (Qualcomm APQ8064, Krait cores).
Its cpufreq driver exposes twelve operating points between 384 MHz and
1.512 GHz.  A DVFS *operating point* (OPP) couples a clock frequency with the
minimum supply voltage required to run at that frequency; dynamic power grows
with ``C * V^2 * f`` so the table is the basic currency shared by the power
model, the governors and USTA's frequency-cap policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

__all__ = [
    "OperatingPoint",
    "FrequencyTable",
    "NEXUS4_FREQUENCIES_KHZ",
    "NEXUS4_VOLTAGES_MV",
    "nexus4_frequency_table",
]


# The twelve Nexus 4 frequency steps (kHz), 384 MHz .. 1.512 GHz, as stated in
# the paper ("For Nexus 4, there are twelve frequency levels between 384MHz and
# 1.512GHz").  The intermediate steps follow the stock APQ8064 frequency table.
NEXUS4_FREQUENCIES_KHZ: Tuple[int, ...] = (
    384_000,
    486_000,
    594_000,
    702_000,
    810_000,
    918_000,
    1_026_000,
    1_134_000,
    1_242_000,
    1_350_000,
    1_458_000,
    1_512_000,
)

# Representative per-step supply voltages (mV).  Values follow the publicly
# documented Krait voltage/frequency curve: roughly linear in frequency with a
# floor near 0.95 V and a ceiling near 1.25 V.
NEXUS4_VOLTAGES_MV: Tuple[int, ...] = (
    950,
    975,
    1000,
    1025,
    1050,
    1075,
    1100,
    1125,
    1150,
    1175,
    1225,
    1250,
)


@dataclass(frozen=True)
class OperatingPoint:
    """A single DVFS operating point.

    Attributes:
        index: position in the frequency table (0 = slowest).
        frequency_khz: core clock frequency in kHz.
        voltage_mv: supply voltage in millivolts.
    """

    index: int
    frequency_khz: int
    voltage_mv: int

    @property
    def frequency_hz(self) -> float:
        """Clock frequency in Hz."""
        return self.frequency_khz * 1e3

    @property
    def frequency_ghz(self) -> float:
        """Clock frequency in GHz."""
        return self.frequency_khz / 1e6

    @property
    def voltage_v(self) -> float:
        """Supply voltage in volts."""
        return self.voltage_mv / 1e3

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"OPP[{self.index}] {self.frequency_khz / 1000:.0f} MHz @ {self.voltage_v:.3f} V"


class FrequencyTable:
    """Ordered collection of :class:`OperatingPoint` entries.

    The table is sorted by ascending frequency and indexable both by *level*
    (integer position) and by frequency (with nearest-level snapping), which is
    what governors need when they clamp requests into the legal range.
    """

    def __init__(self, frequencies_khz: Sequence[int], voltages_mv: Sequence[int]):
        if len(frequencies_khz) != len(voltages_mv):
            raise ValueError(
                "frequencies and voltages must have the same length "
                f"({len(frequencies_khz)} != {len(voltages_mv)})"
            )
        if len(frequencies_khz) < 2:
            raise ValueError("a frequency table needs at least two operating points")
        if list(frequencies_khz) != sorted(frequencies_khz):
            raise ValueError("frequencies must be sorted in ascending order")
        if len(set(frequencies_khz)) != len(frequencies_khz):
            raise ValueError("frequencies must be unique")
        if any(f <= 0 for f in frequencies_khz):
            raise ValueError("frequencies must be positive")
        if any(v <= 0 for v in voltages_mv):
            raise ValueError("voltages must be positive")

        self._points: List[OperatingPoint] = [
            OperatingPoint(index=i, frequency_khz=int(f), voltage_mv=int(v))
            for i, (f, v) in enumerate(zip(frequencies_khz, voltages_mv))
        ]
        self._frequencies_khz = tuple(p.frequency_khz for p in self._points)

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[OperatingPoint]:
        return iter(self._points)

    def __getitem__(self, level: int) -> OperatingPoint:
        return self._points[level]

    # -- lookups -------------------------------------------------------------

    @property
    def min_level(self) -> int:
        """Lowest level index (always 0)."""
        return 0

    @property
    def max_level(self) -> int:
        """Highest level index."""
        return len(self._points) - 1

    @property
    def min_frequency_khz(self) -> int:
        """Lowest available frequency in kHz."""
        return self._points[0].frequency_khz

    @property
    def max_frequency_khz(self) -> int:
        """Highest available frequency in kHz."""
        return self._points[-1].frequency_khz

    @property
    def frequencies_khz(self) -> Tuple[int, ...]:
        """All frequencies in ascending order (kHz)."""
        return self._frequencies_khz

    def level_of(self, frequency_khz: int) -> int:
        """Return the level whose frequency is closest to ``frequency_khz``.

        Requests outside the table range snap to the boundary levels, matching
        cpufreq's behaviour of clamping userspace requests into the legal
        min/max window.
        """
        if frequency_khz <= self.min_frequency_khz:
            return 0
        if frequency_khz >= self.max_frequency_khz:
            return self.max_level
        best_level = 0
        best_delta = abs(self._points[0].frequency_khz - frequency_khz)
        for point in self._points[1:]:
            delta = abs(point.frequency_khz - frequency_khz)
            if delta < best_delta:
                best_level = point.index
                best_delta = delta
        return best_level

    def floor_level(self, frequency_khz: int) -> int:
        """Return the highest level whose frequency does not exceed the request."""
        level = 0
        for point in self._points:
            if point.frequency_khz <= frequency_khz:
                level = point.index
            else:
                break
        return level

    def ceil_level(self, frequency_khz: int) -> int:
        """Return the lowest level whose frequency is at least the request."""
        for point in self._points:
            if point.frequency_khz >= frequency_khz:
                return point.index
        return self.max_level

    def clamp_level(self, level: int) -> int:
        """Clamp an arbitrary integer to a valid level index."""
        return max(self.min_level, min(self.max_level, int(level)))

    def frequency_at(self, level: int) -> int:
        """Frequency (kHz) of a clamped level."""
        return self._points[self.clamp_level(level)].frequency_khz

    def voltage_at(self, level: int) -> float:
        """Voltage (V) of a clamped level."""
        return self._points[self.clamp_level(level)].voltage_v

    def scale_for_utilization(self, utilization: float) -> int:
        """Return the lowest level able to serve ``utilization`` of full speed.

        This is the classic ondemand "frequency proportional to load" target:
        the requested capacity is ``utilization * f_max`` and the governor picks
        the smallest frequency at or above it.
        """
        utilization = min(max(utilization, 0.0), 1.0)
        target_khz = utilization * self.max_frequency_khz
        return self.ceil_level(int(round(target_khz)))


def nexus4_frequency_table() -> FrequencyTable:
    """Build the stock Nexus 4 (APQ8064) twelve-entry frequency table."""
    return FrequencyTable(NEXUS4_FREQUENCIES_KHZ, NEXUS4_VOLTAGES_MV)
