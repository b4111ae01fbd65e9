"""Ambient and hand-contact boundary conditions.

The paper's §III.A checks whether human touch changes the exterior temperature
of the device and finds the effect is small when the phone is active.  To
reproduce that ablation the thermal model exposes the hand as a boundary node
whose coupling to the back cover can be switched on (phone held in the palm)
or off (phone on a table), plus the ambient air temperature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .network import ThermalNetwork

__all__ = ["AmbientConditions", "HandContact"]

AMBIENT_NODE = "ambient"
HAND_NODE = "hand"


@dataclass
class AmbientConditions:
    """Environment the phone sits in.

    Attributes:
        air_temp_c: ambient air temperature (°C); the paper's lab is ~23 °C.
        hand_temp_c: palm skin temperature (°C); human palms sit near 33 °C.
    """

    air_temp_c: float = 23.0
    hand_temp_c: float = 33.0

    def apply(self, network: ThermalNetwork) -> None:
        """Impose the boundary temperatures on an assembled network."""
        network.set_boundary_temperature(AMBIENT_NODE, self.air_temp_c)
        if HAND_NODE in network.boundary_names:
            network.set_boundary_temperature(HAND_NODE, self.hand_temp_c)


@dataclass
class HandContact:
    """Models whether (and how firmly) the user's palm touches the back cover.

    A palm pressed against the back cover adds a conduction path to a ~33 °C
    reservoir; it warms a cold idle phone slightly and shaves a little off the
    peak of a hot one, but — as the paper observes — does not change the
    exterior temperature much while the phone is active, because the
    palm-to-cover conductance is small compared to the internal heat flow.

    Attributes:
        contact_node: the back-cover node the palm touches.
        conductance_w_per_c: palm-to-cover conductance while touching.
        touching: current contact state.
    """

    contact_node: str = "back_cover"
    conductance_w_per_c: float = 0.05
    touching: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= (g := self.conductance_w_per_c) < math.inf:
            raise ValueError(f"conductance_w_per_c must be finite and >= 0, got {g!r}")

    def apply(self, network: ThermalNetwork) -> None:
        """Set the hand coupling on an assembled network according to the state."""
        if HAND_NODE not in network.boundary_names:
            return
        value = self.conductance_w_per_c if self.touching else 0.0
        network.set_conductance(self.contact_node, HAND_NODE, value)

    def touch(self, network: ThermalNetwork) -> None:
        """Start touching the device."""
        self.touching = True
        self.apply(network)

    def release(self, network: ThermalNetwork) -> None:
        """Stop touching the device."""
        self.touching = False
        self.apply(network)
