"""Simulated Nexus-4-class handset substrate (CPU, power, battery, sensors)."""

from .battery import Battery
from .cpu import Cpu, CpuState
from .freq_table import (
    NEXUS4_FREQUENCIES_KHZ,
    NEXUS4_VOLTAGES_MV,
    FrequencyTable,
    OperatingPoint,
    nexus4_frequency_table,
)
from .hardware import HardwareSpec, SensorLayout
from .platform import DeviceActivity, DevicePlatform, DeviceStepResult
from .power import (
    ChargerPowerModel,
    CpuPowerModel,
    DisplayPowerModel,
    GpuPowerModel,
    PlatformPowerModel,
    PowerBreakdown,
    RadioPowerModel,
)
from .sensors import SensorSuite, TemperatureSensor

__all__ = [
    "Battery",
    "Cpu",
    "CpuState",
    "NEXUS4_FREQUENCIES_KHZ",
    "NEXUS4_VOLTAGES_MV",
    "FrequencyTable",
    "HardwareSpec",
    "SensorLayout",
    "OperatingPoint",
    "nexus4_frequency_table",
    "DeviceActivity",
    "DevicePlatform",
    "DeviceStepResult",
    "ChargerPowerModel",
    "CpuPowerModel",
    "DisplayPowerModel",
    "GpuPowerModel",
    "PlatformPowerModel",
    "PowerBreakdown",
    "RadioPowerModel",
    "SensorSuite",
    "TemperatureSensor",
]
