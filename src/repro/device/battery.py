"""Battery state-of-charge model.

The paper uses the battery temperature sensor as one of the predictor features
and includes a "Charging" benchmark, so the platform needs a battery whose
state of charge responds to the platform draw and to the charger.  Electrical
fidelity requirements are modest: the thermal side (heat generated while
charging / discharging) is handled by :class:`repro.device.power.ChargerPowerModel`;
this module tracks the state of charge so that traces and logs carry a
realistic battery level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Battery", "RESET_STATE_OF_CHARGE"]

#: The charge fraction a platform reset restores.
RESET_STATE_OF_CHARGE = 0.85


@dataclass
class Battery:
    """Simple coulomb-counting battery model.

    Attributes:
        capacity_wh: usable energy capacity (the Nexus 4 ships a 2100 mAh /
            3.8 V pack, roughly 8 Wh).
        state_of_charge: current charge fraction in [0, 1].
        nominal_voltage_v: pack voltage used for current book-keeping.
        charge_power_w: power delivered by the charger when plugged in.
        charge_efficiency: fraction of charger power that ends up stored.
    """

    capacity_wh: float = 8.0
    state_of_charge: float = RESET_STATE_OF_CHARGE
    nominal_voltage_v: float = 3.8
    charge_power_w: float = 5.0
    charge_efficiency: float = 0.82

    def __post_init__(self) -> None:
        # Chained comparisons are False for NaN, so these also refuse NaN/inf.
        if not 0.0 < self.capacity_wh < math.inf:
            raise ValueError(f"capacity_wh must be finite and positive, got {self.capacity_wh!r}")
        if not 0.0 <= self.state_of_charge <= 1.0:
            raise ValueError("state_of_charge must be within [0, 1]")
        if not 0.0 < self.nominal_voltage_v < math.inf:
            raise ValueError(f"nominal_voltage_v must be finite, > 0: {self.nominal_voltage_v!r}")
        if not 0.0 <= self.charge_power_w < math.inf:
            raise ValueError(f"charge_power_w must be finite and >= 0: {self.charge_power_w!r}")
        if not 0.0 <= self.charge_efficiency <= 1.0:
            raise ValueError(f"charge_efficiency must be within [0, 1]: {self.charge_efficiency!r}")

    @property
    def energy_wh(self) -> float:
        """Stored energy in watt-hours."""
        return self.state_of_charge * self.capacity_wh

    @property
    def is_full(self) -> bool:
        """True when the pack is effectively full (>= 99.5%)."""
        return self.state_of_charge >= 0.995

    @property
    def is_empty(self) -> bool:
        """True when the pack is effectively empty (<= 0.5%)."""
        return self.state_of_charge <= 0.005

    def step(self, dt_s: float, platform_draw_w: float, charging: bool) -> float:
        """Advance the battery by ``dt_s`` seconds.

        Args:
            dt_s: timestep in seconds.
            platform_draw_w: total platform power drawn from the pack.
            charging: whether the charger is connected.

        Returns:
            The net power (W) flowing *into* the pack (negative when
            discharging), useful for diagnostics.
        """
        if dt_s < 0:
            raise ValueError("dt_s must be non-negative")
        net_w = -max(platform_draw_w, 0.0)
        if charging and not self.is_full:
            net_w += self.charge_power_w * self.charge_efficiency
        delta_wh = net_w * dt_s / 3600.0
        self.state_of_charge = min(1.0, max(0.0, self.state_of_charge + delta_wh / self.capacity_wh))
        return net_w
