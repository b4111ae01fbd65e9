"""The simulated handset: CPU + power + battery + thermal network + sensors.

:class:`DevicePlatform` is the hardware abstraction the rest of the library
talks to.  One call to :meth:`DevicePlatform.step` advances the device by one
simulation window: the CPU executes the demanded work at its current
frequency, the power model converts activity into heat, the thermal network
integrates that heat, the battery tracks its charge, and the sensor suite
produces the (noisy) readings that governors, loggers and the skin-temperature
predictor observe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..thermal import (
    AmbientConditions,
    HandContact,
    Nexus4ThermalParameters,
    ThermalSolver,
    build_nexus4_network,
)
from ..thermal.nexus4 import BACK_COVER_NODE, BATTERY_NODE, CPU_NODE, SCREEN_NODE
from .battery import RESET_STATE_OF_CHARGE, Battery
from .cpu import Cpu, CpuState
from .freq_table import FrequencyTable, nexus4_frequency_table
from .power import PlatformPowerModel, PowerBreakdown
from .sensors import SensorSuite

__all__ = ["DeviceActivity", "DeviceStepResult", "DevicePlatform"]


@dataclass(frozen=True)
class DeviceActivity:
    """Activity requested from the platform during one window.

    This is the device-facing view of one workload sample: how much CPU work
    the foreground app wants, how busy the GPU/radio are, whether the screen is
    on, whether the charger is plugged in, and whether the user is holding the
    phone.
    """

    cpu_demand: float = 0.0
    gpu_activity: float = 0.0
    radio_activity: float = 0.0
    screen_on: bool = True
    brightness: float = 0.7
    charging: bool = False
    touching: bool = True


@dataclass(frozen=True)
class DeviceStepResult:
    """Everything observable after one platform step."""

    time_s: float
    cpu_state: CpuState
    power: PowerBreakdown
    node_temps_c: Dict[str, float]
    sensor_readings_c: Dict[str, float]
    battery_soc: float

    @property
    def skin_temp_c(self) -> float:
        """True (un-noised) back-cover mid temperature — the paper's "skin temperature"."""
        return self.node_temps_c[BACK_COVER_NODE]

    @property
    def screen_temp_c(self) -> float:
        """True screen temperature."""
        return self.node_temps_c[SCREEN_NODE]

    @property
    def cpu_temp_c(self) -> float:
        """True CPU die temperature."""
        return self.node_temps_c[CPU_NODE]

    @property
    def battery_temp_c(self) -> float:
        """True battery temperature."""
        return self.node_temps_c[BATTERY_NODE]


@dataclass
class DevicePlatform:
    """A complete simulated Nexus-4-class handset.

    Attributes:
        freq_table: DVFS operating points (defaults to the Nexus 4 table).
        cpu: CPU execution model.
        power_model: activity → Watts conversion.
        battery: state-of-charge model.
        thermal_params: thermal network parameters.
        sensors: sensor suite (noise/quantization of observable temperatures).
        hand: hand-contact boundary condition.
        seed: seed forwarded to the sensor suite for reproducible noise.
    """

    freq_table: FrequencyTable = field(default_factory=nexus4_frequency_table)
    cpu: Optional[Cpu] = None
    power_model: PlatformPowerModel = field(default_factory=PlatformPowerModel)
    battery: Battery = field(default_factory=Battery)
    thermal_params: Nexus4ThermalParameters = field(default_factory=Nexus4ThermalParameters)
    sensors: Optional[SensorSuite] = None
    hand: HandContact = field(default_factory=HandContact)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.cpu is None:
            self.cpu = Cpu(table=self.freq_table)
        if self.sensors is None:
            self.sensors = SensorSuite.nexus4_instrumented(seed=self.seed)
        self.network = build_nexus4_network(self.thermal_params)
        self.solver = ThermalSolver(self.network)
        self.hand.apply(self.network)
        self._time_s = 0.0

    # -- state ------------------------------------------------------------------

    @property
    def time_s(self) -> float:
        """Simulated time elapsed since the last reset (seconds)."""
        return self._time_s

    @property
    def ambient(self) -> AmbientConditions:
        """The ambient conditions of the thermal model."""
        return self.thermal_params.ambient

    def temperatures(self) -> Dict[str, float]:
        """Current true temperatures of every thermal node."""
        return self.network.temperatures()

    def reset(self, initial_temps: Optional[Dict[str, float]] = None, seed: Optional[int] = None) -> None:
        """Reset time, thermal state, CPU backlog, battery and sensors."""
        self._time_s = 0.0
        self.network.reset(initial_temps)
        self.thermal_params.ambient.apply(self.network)
        self.hand.apply(self.network)
        self.cpu.reset(level=self.freq_table.min_level)
        self.battery.state_of_charge = RESET_STATE_OF_CHARGE
        self.sensors.reset(seed if seed is not None else self.seed)

    # -- frequency control --------------------------------------------------------

    def set_frequency_level(self, level: int) -> None:
        """Set the CPU operating level (used by governors)."""
        self.cpu.set_level(level)

    @property
    def frequency_level(self) -> int:
        """Current CPU operating level."""
        return self.cpu.level

    @property
    def frequency_khz(self) -> int:
        """Current CPU frequency in kHz."""
        return self.cpu.frequency_khz

    # -- simulation ----------------------------------------------------------------

    def step(self, activity: DeviceActivity, dt_s: float = 1.0) -> DeviceStepResult:
        """Advance the device by one window of ``dt_s`` seconds.

        The order of operations matches a real system: the CPU runs the window
        at the frequency the governor chose *before* the window, the resulting
        power heats the phone during the window, and the sensors are sampled at
        the end of the window.
        """
        if dt_s <= 0:
            raise ValueError("dt_s must be positive")

        # Hand contact can change between windows (e.g. pick up / put down).
        if activity.touching != self.hand.touching:
            self.hand.touching = activity.touching
            self.hand.apply(self.network)

        cpu_state = self.cpu.run_window(activity.cpu_demand, dt_s)
        die_temp = self.network.temperature_of(CPU_NODE)
        power = self.power_model.evaluate(
            opp=self.cpu.operating_point,
            cpu_utilization=cpu_state.utilization,
            die_temp_c=die_temp,
            gpu_activity=activity.gpu_activity,
            screen_on=activity.screen_on,
            brightness=activity.brightness,
            radio_activity=activity.radio_activity,
            charging=activity.charging,
        )

        # Heat placement: CPU+GPU dissipate in the SoC die; the display panel
        # heats the screen but its driver/backlight electronics sit on the
        # board; radios/camera ISP are board components; charger losses heat
        # the battery.
        node_power = {
            CPU_NODE: power.soc_w,
            SCREEN_NODE: 0.65 * power.display_w,
            "board": power.radio_w + 0.35 * power.display_w,
            BATTERY_NODE: power.battery_w,
        }
        node_temps = self.solver.step(dt_s, node_power)
        self.battery.step(dt_s, power.total_w - power.battery_w, activity.charging)
        readings = self.sensors.read_all(node_temps)

        self._time_s += dt_s
        return DeviceStepResult(
            time_s=self._time_s,
            cpu_state=cpu_state,
            power=power,
            node_temps_c=dict(node_temps),
            sensor_readings_c=readings,
            battery_soc=self.battery.state_of_charge,
        )
