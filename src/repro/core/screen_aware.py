"""Screen-aware extension of USTA.

The paper's comfort study (Fig. 1) records a *screen* comfort limit for every
participant as well as the skin limit, and its predictor estimates both
temperatures, but the published controller only acts on the skin temperature.
This module implements the natural extension the paper leaves open: a
controller that predicts both exterior temperatures every window and applies
the throttle policy to whichever surface is closest to its own limit.

It is exercised by the ``examples/custom_policy.py`` workflow and by the
``bench_ablation_margin`` family of ablations; the default reproduction of the
paper's figures continues to use the published skin-only controller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..api.registry import register_manager
from ..users.population import ThermalComfortProfile
from .predictor import RuntimePredictor, SkinScreenPrediction
from .usta import USTAController

__all__ = ["ScreenAwareUSTAController"]


@register_manager("usta-screen")
@dataclass
class ScreenAwareUSTAController(USTAController):
    """USTA variant that also enforces a screen-temperature limit.

    Attributes:
        screen_limit_c: the user's screen comfort limit (°C).  The governor cap
            is the tighter of the skin-margin cap and the screen-margin cap.
    """

    screen_limit_c: float = 35.0

    #: Name used in result labels ("usta-screen+ondemand").
    name: str = "usta-screen"

    # Per-user parameterization contract (see USTAController.profile_params):
    # this variant also takes the participant's screen comfort limit.
    profile_params = (
        ("skin_limit_c", "skin_limit_c"),
        ("screen_limit_c", "screen_limit_c"),
    )

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 25.0 < self.screen_limit_c < 60.0:
            raise ValueError("screen_limit_c must be a plausible screen-temperature limit")
        if self.predictor.screen_model is None:
            raise ValueError("ScreenAwareUSTAController needs a predictor with a screen model")
        # The screen prediction is required every window, whatever the caller
        # passed for predict_screen.
        self.predict_screen = True

    @classmethod
    def for_user(
        cls,
        predictor: RuntimePredictor,
        profile: ThermalComfortProfile,
        **kwargs,
    ) -> "ScreenAwareUSTAController":
        """Configure the controller from both of a participant's limits."""
        return cls(
            predictor=predictor,
            skin_limit_c=profile.skin_limit_c,
            screen_limit_c=profile.screen_limit_c,
            **kwargs,
        )

    def _cap_for(self, prediction: SkinScreenPrediction) -> Optional[int]:
        """The tighter of the skin-margin cap and the screen-margin cap.

        The periodic scheduling (prediction_due → predict →
        apply_prediction) lives in the base class; this hook only changes
        how one prediction maps onto a cap.
        """
        skin_cap = self.policy.cap_for_prediction(
            prediction.skin_temp_c, self.current_skin_limit_c, self.table
        )
        screen_cap: Optional[int] = None
        if prediction.screen_temp_c is not None:
            screen_cap = self.policy.cap_for_prediction(
                prediction.screen_temp_c, self.screen_limit_c, self.table
            )
        return self._tighter_cap(skin_cap, screen_cap)

    @staticmethod
    def _tighter_cap(skin_cap: Optional[int], screen_cap: Optional[int]) -> Optional[int]:
        """The stricter (lower) of two optional level caps."""
        if skin_cap is None:
            return screen_cap
        if screen_cap is None:
            return skin_cap
        return min(skin_cap, screen_cap)
