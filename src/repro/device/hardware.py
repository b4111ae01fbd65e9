"""A handset's hardware as one immutable, hashed configuration.

A population sweep replays many users on *one* phone model: members share
the frequency/voltage table, CPU, power and battery constants, thermal
network and sensor layout, and differ only in state (sensor seed, initial
temperatures).  :class:`HardwareSpec` holds the shared part once; its
:attr:`~HardwareSpec.key` digests every constant, so whether two specs are
the same hardware is a bytes comparison (the batch engine keys its cached
hand-state step maps by it).
"""

from __future__ import annotations

import copy
import functools
import hashlib
from dataclasses import astuple, dataclass, field, replace
from types import SimpleNamespace
from typing import Mapping, NamedTuple, Optional, Tuple

import numpy as np

from ..thermal import HandContact, ThermalNetwork, build_nexus4_network
from .battery import Battery
from .cpu import Cpu
from .freq_table import FrequencyTable, nexus4_frequency_table
from .power import PlatformPowerModel
from .sensors import SensorSuite

__all__ = ["HardwareSpec", "SensorLayout"]


class SensorLayout(NamedTuple):
    """Where one sensor sits and how it reads (its seed is member state)."""

    name: str
    node: str
    noise_std_c: float
    quantization_c: float
    offset_c: float


def _canon(value):
    """Constants as comparable data: an int reads as the float it acts as."""
    if isinstance(value, tuple):
        return tuple(_canon(item) for item in value)
    return float(value) if type(value) is int else value


@dataclass(frozen=True, eq=False)
class HardwareSpec:
    """The hardware a batch of simulated handsets shares.

    Build one with :meth:`nexus4` (cached per process) or derive one from a
    platform with :meth:`of`.  The spec copies every mutable part (the
    frequency table is immutable and shared), so later changes to a
    platform never leak into it; treat the parts as read-only.

    Attributes:
        freq_table: the DVFS operating points (the batch's governors and
            managers share it).
        carry_over, max_backlog: the CPU's backlog model.
        power_model: CPU, GPU, display, radio and charger constants.
        battery: battery constants (its charge is the reset value).
        network: the thermal network — node names, C, G, boundary coupling,
            boundary and reset temperatures — with :attr:`hand` applied.
        hand: hand-contact node and conductance, in the canonical
            not-touching state (touch state is per-tick member state).
        sensors: the sensor layout, in read order.
        key: digest of all of the above.
    """

    freq_table: FrequencyTable
    carry_over: bool
    max_backlog: float
    power_model: PlatformPowerModel
    battery: Battery
    network: ThermalNetwork = field(repr=False)
    hand: HandContact
    sensors: Tuple[SensorLayout, ...]
    key: bytes = field(init=False, repr=False)

    def __post_init__(self) -> None:
        digest = hashlib.sha256()
        for label, data in self._sections():
            digest.update(label.encode() + b"\0" + data + b"\0")
        object.__setattr__(self, "key", digest.digest())

    @classmethod
    def of(cls, platform) -> "HardwareSpec":
        """The hardware of a :class:`~repro.device.platform.DevicePlatform`.

        Reads the network in its current boundary state, so derive the spec
        from a freshly built or freshly reset platform.  Hand contact is
        per-tick state (the engine picks each step's map from the trace's
        ``touching`` column, and a reset keeps whatever state the last trace
        left), so the network and ``hand`` are described not touching.
        """
        hand = replace(platform.hand, touching=False)
        network = copy.deepcopy(platform.network)
        hand.apply(network)
        return cls(
            freq_table=platform.freq_table,
            carry_over=bool(platform.cpu.carry_over),
            max_backlog=float(platform.cpu.max_backlog),
            power_model=copy.deepcopy(platform.power_model),
            battery=copy.copy(platform.battery),
            network=network,
            hand=hand,
            sensors=tuple(
                SensorLayout(s.name, s.node, s.noise_std_c, s.quantization_c, s.offset_c)
                for s in platform.sensors.sensors.values()
            ),
        )

    @staticmethod
    @functools.lru_cache(maxsize=1)
    def nexus4() -> "HardwareSpec":
        """The stock Nexus 4, from its parts (built once per process, then shared)."""
        table = nexus4_frequency_table()
        parts = SimpleNamespace(
            freq_table=table,
            cpu=Cpu(table=table),
            power_model=PlatformPowerModel(),
            battery=Battery(),
            network=build_nexus4_network(),
            hand=HandContact(),
            sensors=SensorSuite.nexus4_instrumented(),
        )
        return HardwareSpec.of(parts)

    # -- key ----------------------------------------------------------------------

    def _sections(self) -> Tuple[Tuple[str, bytes], ...]:
        """Every constant as ``(label, bytes)`` parts, in key order."""
        net = self.network
        arrays = (
            net.capacitances,
            net.conductance_matrix,
            net.boundary_coupling,
            net.boundary_temperatures_vector,
            net.initial_temperatures_vector,
        )
        shapes = repr((net.internal_names, net.boundary_names, [a.shape for a in arrays]))
        table = tuple((p.frequency_khz, p.voltage_mv) for p in self.freq_table)
        return (
            ("thermal networks", shapes.encode() + b"".join(a.tobytes() for a in arrays[:3])),
            ("boundary temperatures (ambient/hand)", arrays[3].tobytes()),
            ("reset temperatures", arrays[4].tobytes()),
            ("power models", repr(_canon(astuple(self.power_model))).encode()),
            ("hand-contact models", repr(_canon(astuple(self.hand))).encode()),
            ("battery models", repr(_canon(astuple(self.battery))).encode()),
            ("CPU/frequency tables", repr((table, self.carry_over, self.max_backlog)).encode()),
            ("sensor configurations", repr(_canon(self.sensors)).encode()),
        )

    # -- per-member state ---------------------------------------------------------

    @property
    def n_noisy_sensors(self) -> int:
        """How many sensors add noise (one seeded stream each per member)."""
        return sum(1 for s in self.sensors if s.noise_std_c > 0)

    def initial_temperatures(self, overrides: Optional[Mapping[str, float]] = None) -> np.ndarray:
        """The internal temperature vector a reset with ``overrides`` leaves."""
        temps = self.network.initial_temperatures_vector
        names = self.network.internal_names
        for name, value in (overrides or {}).items():
            if name not in names:
                raise KeyError(f"unknown internal node {name!r}")
            temps[names.index(name)] = float(value)
        return temps
