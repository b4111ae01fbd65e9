"""Temperature sensor models.

Two kinds of sensors appear in the paper:

* **On-device sensors** — the CPU (SoC junction) and battery thermal sensors
  exposed by the kernel.  These feed the run-time predictor and are polled by
  the logging application.  Real sensors are quantized (typically to 1 °C or
  0.1 °C) and slightly noisy.
* **External thermistors** — attached by the authors to the back cover
  (upper + middle) and to the screen to obtain ground-truth skin and screen
  temperatures during model training.  They are more precise but still carry
  measurement noise.

Both are modelled here as a quantizing, noisy view of a node of the thermal
network.  Noise is generated from a seeded :class:`numpy.random.Generator` so
experiments are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

__all__ = ["TemperatureSensor", "SensorSuite"]


@dataclass
class TemperatureSensor:
    """A noisy, quantized temperature sensor attached to a thermal node.

    Attributes:
        name: sensor identifier (e.g. ``"cpu"``, ``"battery"``, ``"skin"``).
        node: name of the thermal-network node the sensor observes.
        noise_std_c: standard deviation of additive gaussian noise (°C).
        quantization_c: reporting resolution (°C); 0 disables quantization.
        offset_c: constant calibration offset (°C).
        seed: RNG seed for reproducible noise.
    """

    name: str
    node: str
    noise_std_c: float = 0.1
    quantization_c: float = 0.1
    offset_c: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        # Chained comparisons are False for NaN: a NaN must not silently read
        # as "noiseless" or "unquantized".
        if not 0.0 <= self.noise_std_c < math.inf:
            raise ValueError(f"noise_std_c must be finite and >= 0, got {self.noise_std_c!r}")
        if not 0.0 <= self.quantization_c < math.inf:
            raise ValueError(f"quantization_c must be finite and >= 0, got {self.quantization_c!r}")
        if not -math.inf < self.offset_c < math.inf:
            raise ValueError(f"offset_c must be finite, got {self.offset_c!r}")
        self._rng = np.random.default_rng(self.seed)
        self._rng_fresh = True
        self._last_reading: Optional[float] = None

    @property
    def last_reading(self) -> Optional[float]:
        """The most recent reading, or ``None`` before the first read."""
        return self._last_reading

    def read(self, true_temp_c: float) -> float:
        """Produce a sensor reading for the given true temperature."""
        value = true_temp_c + self.offset_c
        if self.noise_std_c > 0:
            self._rng_fresh = False
            value += float(self._rng.normal(0.0, self.noise_std_c))
        if self.quantization_c > 0:
            value = round(value / self.quantization_c) * self.quantization_c
        self._last_reading = value
        return value

    def reset(self, seed: Optional[int] = None) -> None:
        """Reset the RNG (optionally with a new seed) and clear the last reading.

        Rebuilding a ``Generator`` is surprisingly expensive (seed-sequence
        entropy mixing), so an untouched generator at the right seed is kept
        as-is — it is bitwise indistinguishable from a fresh one.
        """
        if seed is not None and seed != self.seed:
            self.seed = seed
            self._rng = np.random.default_rng(seed)
            self._rng_fresh = True
        elif not self._rng_fresh:
            self._rng = np.random.default_rng(self.seed)
            self._rng_fresh = True
        self._last_reading = None


@dataclass
class SensorSuite:
    """The full set of sensors on the instrumented device.

    The default configuration mirrors the paper's setup: built-in CPU and
    battery sensors plus external thermistors on the back cover (upper and
    middle positions) and on the screen.
    """

    sensors: Dict[str, TemperatureSensor] = field(default_factory=dict)

    @classmethod
    def nexus4_instrumented(cls, seed: int = 0) -> "SensorSuite":
        """Build the instrumented Nexus 4 sensor set used in the paper."""
        specs = [
            # name, thermal node, noise, quantization
            ("cpu", "cpu", 0.25, 1.0),          # kernel thermal zone, coarse
            ("battery", "battery", 0.15, 0.1),  # fuel gauge thermistor
            ("skin", "back_cover", 0.10, 0.05),       # external thermistor (mid back)
            ("skin_upper", "back_cover_upper", 0.10, 0.05),
            ("screen", "screen", 0.10, 0.05),         # external thermistor (screen)
        ]
        sensors = {
            name: TemperatureSensor(
                name=name,
                node=node,
                noise_std_c=noise,
                quantization_c=quant,
                seed=seed + idx,
            )
            for idx, (name, node, noise, quant) in enumerate(specs)
        }
        return cls(sensors=sensors)

    def __contains__(self, name: str) -> bool:
        return name in self.sensors

    def __getitem__(self, name: str) -> TemperatureSensor:
        return self.sensors[name]

    def add(self, sensor: TemperatureSensor) -> None:
        """Register an additional sensor."""
        self.sensors[sensor.name] = sensor

    def read_all(self, node_temps_c: Dict[str, float]) -> Dict[str, float]:
        """Read every sensor against the current thermal-node temperatures.

        Sensors whose node is missing from ``node_temps_c`` are skipped, which
        lets the same suite be used with reduced thermal networks in tests.
        """
        readings: Dict[str, float] = {}
        for name, sensor in self.sensors.items():
            if sensor.node in node_temps_c:
                readings[name] = sensor.read(node_temps_c[sensor.node])
        return readings

    def reset(self, seed: Optional[int] = None) -> None:
        """Reset every sensor (optionally re-seeding them deterministically)."""
        for idx, sensor in enumerate(self.sensors.values()):
            sensor.reset(None if seed is None else seed + idx)
