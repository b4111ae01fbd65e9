"""USTA's frequency-throttling policy.

From the paper (§III.B):

    "USTA has a threshold for activation which is set to 2°C below the skin
    temperature limit of the user.  If the difference between the predicted
    skin temperature and the temperature limit is between 1°C and 2°C, the
    maximum allowed CPU frequency is decreased by one level (...).  If the
    difference between the prediction and the temperature limit is between
    0.5°C and 1°C, then, the maximum allowed CPU frequency is decreased by two
    levels.  Finally, if the prediction is closer than 0.5°C to the limit or
    it is exceeding the limit, then, the maximum CPU frequency is set to the
    minimum frequency level."

:class:`ThrottlePolicy` encodes exactly those rules, parameterised so the
ablation benchmarks can vary the margins and the step sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..device.freq_table import FrequencyTable

__all__ = ["ThrottleStep", "ThrottlePolicy"]


@dataclass(frozen=True)
class ThrottleStep:
    """One rule of the throttle policy.

    Attributes:
        margin_above_c: the rule applies while ``limit - prediction`` is
            *less than* this margin (and at least the next rule's margin).
        levels_below_max: how many levels below the maximum to cap the
            frequency at; ``None`` means "cap at the minimum level".
    """

    margin_above_c: float
    levels_below_max: Optional[int]


@dataclass
class ThrottlePolicy:
    """Maps the predicted margin to the comfort limit onto a frequency cap.

    The default steps are the paper's: activation at a 2 °C margin, one level
    down inside 2 °C, two levels down inside 1 °C, minimum frequency inside
    0.5 °C (or when the limit is exceeded).
    """

    #: Sentinel used by the array variants (:meth:`caps_for_margins`,
    #: :meth:`cap_for_predictions`) where the scalar API returns ``None``:
    #: "no cap installed".  Integer so the result stays a plain int64 array.
    NO_CAP = -1

    steps: Tuple[ThrottleStep, ...] = (
        ThrottleStep(margin_above_c=2.0, levels_below_max=1),
        ThrottleStep(margin_above_c=1.0, levels_below_max=2),
        ThrottleStep(margin_above_c=0.5, levels_below_max=None),
    )

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("a throttle policy needs at least one step")
        margins = [s.margin_above_c for s in self.steps]
        if margins != sorted(margins, reverse=True):
            raise ValueError("steps must be ordered by strictly decreasing margin")
        if len(set(margins)) != len(margins):
            raise ValueError("step margins must be distinct")
        for step in self.steps:
            if step.levels_below_max is not None and step.levels_below_max < 0:
                raise ValueError("levels_below_max must be non-negative or None")

    @property
    def activation_margin_c(self) -> float:
        """USTA intervenes only when the prediction is within this margin of the limit."""
        return self.steps[0].margin_above_c

    def cap_for_margin(self, margin_c: float, table: FrequencyTable) -> Optional[int]:
        """Frequency-level cap for a given margin ``limit - prediction``.

        Returns ``None`` when no cap should be installed (the prediction is
        comfortably below the activation threshold) and otherwise the highest
        level the governor may select.
        """
        if margin_c >= self.activation_margin_c:
            return None
        # Walk the rules from the loosest margin to the tightest; the last rule
        # whose margin the prediction has crossed wins.  Boundaries are
        # inclusive on the hotter side (a margin of exactly 1.0 °C uses the
        # two-level rule).
        cap_levels: Optional[int] = self.steps[0].levels_below_max
        for step in self.steps:
            if margin_c <= step.margin_above_c:
                cap_levels = step.levels_below_max
            else:
                break
        if cap_levels is None:
            return table.min_level
        return table.clamp_level(table.max_level - cap_levels)

    def cap_for_prediction(
        self, predicted_skin_temp_c: float, limit_c: float, table: FrequencyTable
    ) -> Optional[int]:
        """Convenience wrapper taking the prediction and the limit directly."""
        return self.cap_for_margin(limit_c - predicted_skin_temp_c, table)

    def caps_for_margins(self, margins_c: np.ndarray, table: FrequencyTable) -> np.ndarray:
        """Vectorized :meth:`cap_for_margin` over an array of margins.

        Returns an int64 array where :data:`NO_CAP` stands in for the scalar
        API's ``None``.  Element-for-element identical to calling
        :meth:`cap_for_margin` on each margin: because the steps are ordered
        by strictly decreasing margin, the rules a margin has crossed form a
        prefix of the step list, so the winning rule is simply the last
        satisfied one (``count - 1``).  A NaN margin satisfies no comparison
        and, exactly like the scalar walk, falls back to the first step.
        """
        margins = np.asarray(margins_c, dtype=float)
        step_caps = np.array(
            [
                table.min_level
                if step.levels_below_max is None
                else table.clamp_level(table.max_level - step.levels_below_max)
                for step in self.steps
            ],
            dtype=np.int64,
        )
        thresholds = np.array([step.margin_above_c for step in self.steps], dtype=float)
        counts = (margins[:, None] <= thresholds[None, :]).sum(axis=1)
        caps = step_caps[np.maximum(counts - 1, 0)]
        return np.where(margins >= self.activation_margin_c, np.int64(self.NO_CAP), caps)

    def cap_for_predictions(
        self,
        predicted_skin_temps_c: np.ndarray,
        limits_c: np.ndarray,
        table: FrequencyTable,
    ) -> np.ndarray:
        """Vectorized :meth:`cap_for_prediction` over arrays of rows.

        ``limits_c`` broadcasts against the predictions, so one shared limit
        or one limit per row both work.  See :meth:`caps_for_margins` for the
        ``None`` → :data:`NO_CAP` convention.
        """
        predicted = np.asarray(predicted_skin_temps_c, dtype=float)
        limits = np.asarray(limits_c, dtype=float)
        return self.caps_for_margins(limits - predicted, table)

    # -- declarative spec round-trip ---------------------------------------------------

    def to_spec(self) -> Dict[str, object]:
        """The policy as a JSON-serializable dictionary (see :meth:`from_spec`)."""
        return {
            "steps": [
                {"margin_above_c": step.margin_above_c, "levels_below_max": step.levels_below_max}
                for step in self.steps
            ]
        }

    @classmethod
    def from_spec(cls, spec: Mapping) -> "ThrottlePolicy":
        """Rebuild a policy from its :meth:`to_spec` dictionary.

        Raises:
            ValueError: for non-mapping specs, unknown keys, or step tables
                that violate the policy invariants.
        """
        if not isinstance(spec, Mapping):
            raise ValueError(f"a throttle-policy spec must be a mapping, got {type(spec).__name__}")
        unknown = set(spec) - {"steps"}
        if unknown:
            raise ValueError(
                f"unknown key(s) {sorted(unknown)} in throttle-policy spec; valid keys: steps"
            )
        if "steps" not in spec:
            raise ValueError("a throttle-policy spec requires the key 'steps'")
        steps = []
        for entry in spec["steps"]:
            if not isinstance(entry, Mapping):
                raise ValueError(f"each throttle step must be a mapping, got {entry!r}")
            bad = set(entry) - {"margin_above_c", "levels_below_max"}
            if bad:
                raise ValueError(
                    f"unknown key(s) {sorted(bad)} in throttle step; "
                    "valid keys: margin_above_c, levels_below_max"
                )
            if "margin_above_c" not in entry:
                raise ValueError("each throttle step requires 'margin_above_c'")
            levels = entry.get("levels_below_max")
            steps.append(
                ThrottleStep(
                    margin_above_c=float(entry["margin_above_c"]),
                    levels_below_max=None if levels is None else int(levels),
                )
            )
        return cls(steps=tuple(steps))

    # -- alternative policies for ablation studies -----------------------------------

    @classmethod
    def paper_default(cls) -> "ThrottlePolicy":
        """The exact policy described in the paper."""
        return cls()

    @classmethod
    def aggressive(cls) -> "ThrottlePolicy":
        """Throttle earlier and harder (3 °C activation, bigger steps)."""
        return cls(
            steps=(
                ThrottleStep(margin_above_c=3.0, levels_below_max=2),
                ThrottleStep(margin_above_c=1.5, levels_below_max=4),
                ThrottleStep(margin_above_c=0.75, levels_below_max=None),
            )
        )

    @classmethod
    def gentle(cls) -> "ThrottlePolicy":
        """Throttle later and in smaller steps (1 °C activation)."""
        return cls(
            steps=(
                ThrottleStep(margin_above_c=1.0, levels_below_max=1),
                ThrottleStep(margin_above_c=0.5, levels_below_max=2),
                ThrottleStep(margin_above_c=0.0, levels_below_max=4),
            )
        )

    @classmethod
    def with_activation_margin(cls, activation_margin_c: float) -> "ThrottlePolicy":
        """The paper's step structure, scaled to a different activation margin.

        Used by the margin-ablation benchmark: the three break points keep the
        same proportions (100%, 50% and 25% of the activation margin).
        """
        if not 0.0 < activation_margin_c < math.inf:
            raise ValueError("activation_margin_c must be positive and finite")
        return cls(
            steps=(
                ThrottleStep(margin_above_c=activation_margin_c, levels_below_max=1),
                ThrottleStep(margin_above_c=activation_margin_c * 0.5, levels_below_max=2),
                ThrottleStep(margin_above_c=activation_margin_c * 0.25, levels_below_max=None),
            )
        )
