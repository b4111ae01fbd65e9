"""USTA: the User-specific Skin Temperature-Aware DVFS controller.

USTA sits on top of the baseline ondemand governor.  Every
``prediction_period_s`` (3 s in the paper) it predicts the skin temperature
from on-device signals and compares it against the user's comfort limit:

* prediction more than 2 °C below the limit → USTA stays out of the way and
  the ondemand governor optimises for power alone;
* within 2 °C → the maximum allowed frequency is lowered by one level;
* within 1 °C → lowered by two levels;
* within 0.5 °C or above the limit → the maximum frequency is clamped to the
  minimum level.

The controller implements the :class:`~repro.sim.engine.ThermalManager`
protocol, so it plugs directly into the simulation engine; on a real device
the same logic would run in a userspace daemon writing
``scaling_max_freq``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..api.registry import register_manager
from ..device.freq_table import FrequencyTable, nexus4_frequency_table
from ..sim.engine import ManagerDecision
from ..users.population import ThermalComfortProfile
from .policy import ThrottlePolicy
from .predictor import PredictionFeatures, RuntimePredictor, SkinScreenPrediction

__all__ = ["USTAController", "USTAControllerFactory"]


@dataclass(frozen=True)
class USTAControllerFactory:
    """Builds fresh USTA controllers for batched-runtime experiment cells.

    Carries only what a controller needs (the trained predictor and a comfort
    limit), so a pickled cell carries a small payload instead of
    whatever object graph a bound method would drag along.
    """

    predictor: RuntimePredictor
    skin_limit_c: float = 37.0

    def __call__(self) -> "USTAController":
        return USTAController(predictor=self.predictor, skin_limit_c=self.skin_limit_c)


@register_manager("usta")
@dataclass
class USTAController:
    """The skin-temperature-aware DVFS layer.

    Attributes:
        predictor: the trained run-time skin/screen temperature predictor.
        skin_limit_c: the user's skin temperature comfort limit (°C); the paper
            uses 37 °C for the "default" user and each participant's own limit
            in the user-specific experiments.
        policy: margin → frequency-cap rules (the paper's by default).
        prediction_period_s: how often the prediction runs (3 s in the paper).
        table: the platform's frequency table.
        predict_screen: also predict the screen temperature at every window
            (costs extra latency; USTA's control decision only needs the skin).
    """

    predictor: RuntimePredictor
    skin_limit_c: float = 37.0
    policy: ThrottlePolicy = field(default_factory=ThrottlePolicy)
    prediction_period_s: float = 3.0
    table: FrequencyTable = field(default_factory=nexus4_frequency_table)
    predict_screen: bool = False

    #: Name used in result labels ("usta+ondemand").
    name: str = "usta"

    # Constructor params that come from a user's comfort profile, as
    # (param_name, profile_attribute) pairs — the contract ManagerSpec.for_user
    # uses to configure per-user cells/sessions.  Deliberately not a dataclass
    # field (no annotation): it describes the class, not an instance.
    profile_params = (("skin_limit_c", "skin_limit_c"),)

    def __post_init__(self) -> None:
        # Chained comparisons are false for NaN, so NaN and ±inf fail too.
        if not 0.0 < self.prediction_period_s < math.inf:
            raise ValueError("prediction_period_s must be positive and finite")
        if not 25.0 < self.skin_limit_c < 60.0:
            raise ValueError("skin_limit_c must be a plausible skin-temperature limit")
        self._last_prediction_time: Optional[float] = None
        self._current_cap: Optional[int] = None
        self._last_prediction: Optional[float] = None
        self._last_screen_prediction: Optional[float] = None
        self._total_latency_s: float = 0.0
        self._prediction_count: int = 0
        # The live limit the cap computation reads.  It starts at (and resets
        # to) the configured profile value; a comfort adapter moves it through
        # set_skin_limit as the user-feedback loop learns.
        self._live_limit_c: float = self.skin_limit_c

    # -- configuration helpers ---------------------------------------------------------

    @classmethod
    def for_user(
        cls,
        predictor: RuntimePredictor,
        profile: ThermalComfortProfile,
        **kwargs,
    ) -> "USTAController":
        """Configure USTA for a specific user's comfort limit."""
        return cls(predictor=predictor, skin_limit_c=profile.skin_limit_c, **kwargs)

    @property
    def activation_temp_c(self) -> float:
        """Skin temperature above which USTA starts intervening (live limit)."""
        return self.current_skin_limit_c - self.policy.activation_margin_c

    @property
    def current_skin_limit_c(self) -> float:
        """The live comfort limit the cap computation uses.

        Equal to the configured ``skin_limit_c`` until a comfort adapter
        (:mod:`repro.users.adaptation`) moves it via :meth:`set_skin_limit`.
        """
        return self._live_limit_c

    def set_skin_limit(self, limit_c: float) -> None:
        """Install a new live comfort limit (the user-feedback loop's knob).

        The configured ``skin_limit_c`` is untouched — :meth:`reset` returns
        to it — so a run always starts from the declared profile value.
        """
        if not 25.0 < limit_c < 60.0:
            raise ValueError("skin limit must be a plausible skin-temperature limit")
        self._live_limit_c = float(limit_c)

    # -- run-time statistics --------------------------------------------------------------

    @property
    def prediction_count(self) -> int:
        """Number of predictions performed since the last reset."""
        return self._prediction_count

    @property
    def average_prediction_latency_s(self) -> float:
        """Mean wall-clock latency per prediction (the paper's overhead metric)."""
        if self._prediction_count == 0:
            return 0.0
        return self._total_latency_s / self._prediction_count

    @property
    def last_prediction_c(self) -> Optional[float]:
        """Most recent skin-temperature prediction."""
        return self._last_prediction

    @property
    def current_cap(self) -> Optional[int]:
        """Currently requested frequency-level cap (``None`` = no cap)."""
        return self._current_cap

    # -- ThermalManager protocol ---------------------------------------------------------------

    def reset(self) -> None:
        """Clear controller state before a new run."""
        self._last_prediction_time = None
        self._current_cap = None
        self._last_prediction = None
        self._last_screen_prediction = None
        self._total_latency_s = 0.0
        self._prediction_count = 0
        self._live_limit_c = self.skin_limit_c

    def observe(
        self,
        time_s: float,
        sensor_readings: Dict[str, float],
        utilization: float,
        frequency_khz: float,
    ) -> ManagerDecision:
        """Run the periodic skin-temperature check and return the desired cap.

        Between prediction windows the previously decided cap is kept in
        place; the prediction (and hence any change of the cap) happens every
        ``prediction_period_s`` seconds.
        """
        if self.prediction_due(time_s):
            features = PredictionFeatures.from_readings(sensor_readings, utilization, frequency_khz)
            prediction = self.predictor.predict(features, predict_screen=self.predict_screen)
            return self.apply_prediction(time_s, prediction)
        return self.held_decision()

    # -- the two halves of observe() ------------------------------------------------
    #
    # observe() above is prediction_due() → predict → apply_prediction().  The
    # split serves observe itself and the policy plane's eligibility check
    # (runtime/plane.py refuses subclasses that override either half); a
    # session also reads prediction_due() to refuse a sample lacking a
    # predictor channel before anything mutates.

    def prediction_due(self, time_s: float) -> bool:
        """True when the periodic prediction window has elapsed."""
        return (
            self._last_prediction_time is None
            or time_s - self._last_prediction_time >= self.prediction_period_s - 1e-9
        )

    def apply_prediction(self, time_s: float, prediction: SkinScreenPrediction) -> ManagerDecision:
        """Consume one (possibly batch-computed) prediction and update the cap."""
        self._last_prediction_time = time_s
        self._last_prediction = prediction.skin_temp_c
        self._last_screen_prediction = prediction.screen_temp_c
        self._total_latency_s += prediction.latency_s
        self._prediction_count += 1
        self._current_cap = self._cap_for(prediction)
        return self.held_decision()

    def restore_batch_state(
        self,
        *,
        last_prediction_time: Optional[float],
        last_prediction: Optional[float],
        last_screen_prediction: Optional[float],
        total_latency_s: float,
        prediction_count: int,
        current_cap: Optional[int],
        live_limit_c: float,
    ) -> None:
        """Install state accumulated by a vectorized policy plane.

        The SoA engine keeps this controller's per-tick state in arrays and
        writes it back through here once at the batch boundary, leaving the
        controller exactly as if :meth:`apply_prediction` had run every
        window.  ``live_limit_c`` goes through :meth:`set_skin_limit` so the
        plausibility guard still applies.
        """
        self._last_prediction_time = last_prediction_time
        self._last_prediction = last_prediction
        self._last_screen_prediction = last_screen_prediction
        self._total_latency_s = total_latency_s
        self._prediction_count = prediction_count
        self._current_cap = current_cap
        self.set_skin_limit(live_limit_c)

    def held_decision(self) -> ManagerDecision:
        """The decision currently in force (kept between prediction windows)."""
        return ManagerDecision(
            level_cap=self._current_cap,
            predicted_skin_temp_c=self._last_prediction,
            predicted_screen_temp_c=self._last_screen_prediction,
            comfort_limit_c=self._live_limit_c,
        )

    def _cap_for(self, prediction: SkinScreenPrediction) -> Optional[int]:
        """Map one prediction onto a frequency-level cap (subclass hook)."""
        return self.policy.cap_for_prediction(
            prediction.skin_temp_c, self.current_skin_limit_c, self.table
        )
