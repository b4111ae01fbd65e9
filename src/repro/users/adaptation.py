"""Online adaptation of the comfort limit — the paper's user-feedback loop.

The paper's defining claim is that the skin-temperature cap should be
*user-specific*, and it sketches how the limit would be obtained in practice:
start from a population default and adapt as the user reports discomfort (or
its absence).  This module makes that loop a first-class, pluggable component:

* :class:`ComfortAdapter` — the strategy protocol: consume one
  :class:`~repro.api.types.FeedbackEvent`, expose the live ``current_limit_c``;
* :class:`FixedLimit` — the no-op baseline (a static per-profile limit,
  exactly what the reproduction hard-coded before this module);
* :class:`FeedbackStep` — AIMD-style stepping: shift the limit down by a
  large step on discomfort, creep it back up by a small step on comfort,
  with a refractory hold-off (hysteresis) and hard clamp bounds;
* :class:`QuantileTracker` — converge the limit toward the temperature at
  which the user's satisfaction flips, by pulling the estimate toward the
  felt temperature of near-limit reports with asymmetric, decaying gains
  (the quantile parameter weights the "too hot" side against the "fine"
  side, so low quantiles learn conservative limits);
* :class:`UserFeedbackModel` — the satisfaction-driven event generator for
  simulated users: every report period it compares the felt skin temperature
  against the profile's true limit and emits discomfort above it or comfort
  just below it (far-below temperatures elicit no report — users do not
  volunteer "my phone is pleasantly cold");
* :class:`AdaptiveComfortManager` — the thermal-manager wrapper that threads
  the loop through every execution surface: it generates (or receives)
  feedback, lets the adapter update the limit, pushes the live limit into
  the wrapped USTA controller via ``set_skin_limit``, and then defers the
  cap decision to it.  Because it implements the plain
  :class:`~repro.sim.engine.ThermalManager` protocol it runs unchanged under
  the scalar kernel, the fleet's workers and the vectorized population engine.

Simulated users "feel" the *skin sensor reading* rather than the internal
node temperature: it is the only skin signal present on every execution path
(scalar telemetry and vectorized population alike), and its noise doubles as
perception noise.  This is what makes adaptive cells bit-identical across
every executor and the fleet.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Deque, Optional, Protocol, Tuple, runtime_checkable

from ..api.registry import register_adapter
from ..api.types import FeedbackEvent

__all__ = [
    "ComfortAdapter",
    "FixedLimit",
    "FeedbackStep",
    "QuantileTracker",
    "UserFeedbackModel",
    "AdaptiveComfortManager",
    "WARM_START_TEMPS",
]

#: Internal node temperatures of a device that has been busy for a while —
#: the shared warm-start profile for adaptation experiments (the analysis
#: frontier, the golden sweep scenario, parity tests), so short traces reach
#: comfort-relevant skin temperatures immediately.
WARM_START_TEMPS = {
    "cpu": 48.0,
    "board": 40.0,
    "battery": 37.0,
    "back_cover": 34.5,
    "screen": 33.5,
}


@runtime_checkable
class ComfortAdapter(Protocol):
    """Protocol implemented by comfort-limit adaptation strategies."""

    def observe(self, event: FeedbackEvent) -> float:
        """Consume one feedback event and return the (possibly updated) limit."""
        ...

    def reset(self) -> None:
        """Return to the initial limit before a fresh run."""
        ...

    @property
    def current_limit_c(self) -> float:
        """The live comfort limit (°C)."""
        ...


def _check_bounds(min_limit_c: float, max_limit_c: float, initial_limit_c: float) -> None:
    if not min_limit_c < max_limit_c:
        raise ValueError("min_limit_c must be strictly below max_limit_c")
    if not (25.0 < min_limit_c and max_limit_c < 60.0):
        raise ValueError("clamp bounds must lie in the plausible (25, 60) °C range")
    if not (min_limit_c <= initial_limit_c <= max_limit_c):
        raise ValueError("initial_limit_c must lie within the clamp bounds")


@register_adapter("fixed")
@dataclass
class FixedLimit:
    """The no-op baseline: the limit never moves, whatever the user reports.

    This is exactly the pre-adaptation behaviour (a frozen per-profile
    ``skin_limit_c``), kept as a registered strategy so static and adaptive
    policies differ by one spec field and nothing else.
    """

    initial_limit_c: float = 37.0

    #: Registry/label name (no annotation: class attribute, not a field).
    name = "fixed"

    def __post_init__(self) -> None:
        if not 25.0 < self.initial_limit_c < 60.0:
            raise ValueError("initial_limit_c must be a plausible skin-temperature limit")
        self._limit_c = self.initial_limit_c

    @property
    def current_limit_c(self) -> float:
        return self._limit_c

    def observe(self, event: FeedbackEvent) -> float:
        return self._limit_c

    def snapshot_batch_state(self) -> dict:
        """JSON-able state, symmetric with :meth:`restore_batch_state`."""
        return {"limit_c": self._limit_c}

    def restore_batch_state(self, *, limit_c: float) -> None:
        """Install persisted state (a fixed limit can still be pinned)."""
        self._limit_c = float(limit_c)

    def reset(self) -> None:
        self._limit_c = self.initial_limit_c


@register_adapter("feedback_step")
@dataclass
class FeedbackStep:
    """AIMD stepping with hysteresis: big steps down on discomfort, small creep up.

    Attributes:
        initial_limit_c: starting limit (typically the mis-specified
            population default the loop must correct).
        step_down_c: °C removed from the limit per acted-on discomfort report.
        step_up_c: °C added per acted-on comfort report (keep well below
            ``step_down_c`` so the loop probes upward gently).
        hold_off_s: refractory period after any adjustment; reports inside it
            are ignored (hysteresis — one hot spell is one correction, not a
            correction per report).
        min_limit_c / max_limit_c: hard clamp bounds on the live limit.
    """

    initial_limit_c: float = 37.0
    step_down_c: float = 0.5
    step_up_c: float = 0.1
    hold_off_s: float = 30.0
    min_limit_c: float = 30.0
    max_limit_c: float = 45.0

    #: Registry/label name (no annotation: class attribute, not a field).
    name = "feedback_step"

    def __post_init__(self) -> None:
        _check_bounds(self.min_limit_c, self.max_limit_c, self.initial_limit_c)
        # Chained comparisons are false for NaN, so NaN and ±inf fail too.
        if not (0.0 < self.step_down_c < math.inf and 0.0 < self.step_up_c < math.inf):
            raise ValueError("step sizes must be positive and finite")
        if not 0.0 <= self.hold_off_s < math.inf:
            raise ValueError("hold_off_s must be non-negative and finite")
        self._limit_c = self.initial_limit_c
        self._last_change_s: Optional[float] = None

    @property
    def current_limit_c(self) -> float:
        return self._limit_c

    def observe(self, event: FeedbackEvent) -> float:
        if (
            self._last_change_s is not None
            and event.time_s - self._last_change_s < self.hold_off_s
        ):
            return self._limit_c
        if event.is_discomfort:
            adjusted = max(self.min_limit_c, self._limit_c - self.step_down_c)
        else:
            adjusted = min(self.max_limit_c, self._limit_c + self.step_up_c)
        if adjusted != self._limit_c:
            self._limit_c = adjusted
            self._last_change_s = event.time_s
        return self._limit_c

    def restore_batch_state(
        self, *, limit_c: float, last_change_s: Optional[float]
    ) -> None:
        """Install state accumulated by the vectorized policy plane.

        The SoA engine mirrors this adapter's two state variables in arrays
        and writes them back once at the batch boundary.
        """
        self._limit_c = float(limit_c)
        self._last_change_s = last_change_s

    def snapshot_batch_state(self) -> dict:
        """JSON-able state, symmetric with :meth:`restore_batch_state`.

        This is also the persistence form the fleet
        :class:`~repro.fleet.state.SessionStateStore` writes per user.
        """
        return {"limit_c": self._limit_c, "last_change_s": self._last_change_s}

    def reset(self) -> None:
        self._limit_c = self.initial_limit_c
        self._last_change_s = None


@register_adapter("quantile_tracker")
@dataclass
class QuantileTracker:
    """Track the temperature at which the user's satisfaction flips.

    Feedback events near the current estimate are the informative ones: a
    discomfort report *below* the estimate means the limit is too high and
    pulls it down toward the felt temperature; a comfort report *above* the
    estimate means the limit is too low and pulls it up.  Reports far on the
    expected side of the estimate (comfort well below it, discomfort well
    above it) carry no new information and leave it unchanged, so the
    estimate is pinched toward the flip temperature from both sides.

    The ``quantile`` parameter sets the asymmetry: downward corrections are
    weighted ``1 - quantile`` and upward corrections ``quantile``, so low
    quantiles converge to a conservative (cooler) point of the flip region
    and ``0.5`` splits it.  The per-event gain decays as ``gain_c / (1 +
    decay * n_events)`` (stochastic approximation), which damps jitter from
    noisy feedback as evidence accumulates.

    Reports farther than ``trust_window_c`` from the current estimate are
    normally discarded as outliers.  An ideal reporter rarely produces them
    (its informative reports cluster at the flip temperature, which the
    estimate approaches), but a *contradictory* reporter does — a flipped
    "feels fine" filed at a scorching 44 °C would otherwise yank the
    estimate toward it with full gain.  Rejection is not absolute: after
    ``trust_streak_limit`` consecutive rejections the next far report is
    trusted anyway — a *persistent* stream of far reports is signal, not
    noise (a user whose true limit sits well outside the window would
    otherwise freeze the tracker forever), while sporadic flips stay
    filtered.  The stress suites document the resulting robustness: on the
    standard probe the tracker stays within **0.5 °C** of every user's true
    limit with an ideal or arbitrarily-delayed (≤ 30 s) reporter — including
    users whose limits start far outside the window — and within its **trust
    window (3 °C)** when up to 20 % of reports are contradictory (without
    the filter, single far flips could drag it arbitrarily toward the clamp
    bounds).

    Attributes:
        initial_limit_c: starting estimate.
        quantile: flip-region quantile to converge to, in (0, 1).
        gain_c: initial fraction of the error corrected per event.
        decay: gain decay rate per observed event.
        min_limit_c / max_limit_c: hard clamp bounds on the live limit.
        trust_window_c: outlier rejection radius around the estimate
            (``None`` disables rejection).
        trust_streak_limit: consecutive rejections after which a far report
            is trusted anyway (the escape hatch above).
    """

    initial_limit_c: float = 37.0
    quantile: float = 0.5
    gain_c: float = 0.7
    decay: float = 0.01
    min_limit_c: float = 30.0
    max_limit_c: float = 45.0
    trust_window_c: Optional[float] = 3.0
    trust_streak_limit: int = 8

    #: Registry/label name (no annotation: class attribute, not a field).
    name = "quantile_tracker"

    def __post_init__(self) -> None:
        _check_bounds(self.min_limit_c, self.max_limit_c, self.initial_limit_c)
        if not 0.0 < self.quantile < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        if not 0.0 < self.gain_c <= 1.0:
            raise ValueError("gain_c must be in (0, 1]")
        if not 0.0 <= self.decay < math.inf:
            raise ValueError("decay must be non-negative and finite")
        if self.trust_window_c is not None and not 0.0 < self.trust_window_c < math.inf:
            raise ValueError("trust_window_c must be positive and finite (or None to disable)")
        if self.trust_streak_limit < 1:
            raise ValueError("trust_streak_limit must be at least 1")
        self._limit_c = self.initial_limit_c
        self._event_count = 0
        self._rejection_streak = 0

    @property
    def current_limit_c(self) -> float:
        return self._limit_c

    @property
    def event_count(self) -> int:
        """Feedback events consumed since the last reset."""
        return self._event_count

    def observe(self, event: FeedbackEvent) -> float:
        temp = event.skin_temp_c
        if temp is None:
            # Without a felt temperature there is nothing to track toward.
            return self._limit_c
        if self.trust_window_c is not None and abs(temp - self._limit_c) > self.trust_window_c:
            # Outside the trust window: an isolated far report is treated as
            # contradiction noise and ignored — but a persistent streak of
            # them means the flip point genuinely sits far away, so the
            # escape hatch lets every trust_streak_limit-th one through.
            self._rejection_streak += 1
            if self._rejection_streak < self.trust_streak_limit:
                return self._limit_c
        self._rejection_streak = 0
        self._event_count += 1
        gain = self.gain_c / (1.0 + self.decay * self._event_count)
        if event.is_discomfort:
            if temp < self._limit_c:
                self._limit_c += (1.0 - self.quantile) * gain * (temp - self._limit_c)
        else:
            if temp > self._limit_c:
                self._limit_c += self.quantile * gain * (temp - self._limit_c)
        self._limit_c = min(self.max_limit_c, max(self.min_limit_c, self._limit_c))
        return self._limit_c

    def restore_batch_state(
        self, *, limit_c: float, event_count: int, rejection_streak: int
    ) -> None:
        """Install state accumulated by the vectorized policy plane.

        The SoA engine mirrors this adapter's three state variables in
        arrays and writes them back once at the batch boundary.
        """
        self._limit_c = float(limit_c)
        self._event_count = int(event_count)
        self._rejection_streak = int(rejection_streak)

    def snapshot_batch_state(self) -> dict:
        """JSON-able state, symmetric with :meth:`restore_batch_state`.

        This is also the persistence form the fleet
        :class:`~repro.fleet.state.SessionStateStore` writes per user, so a
        returning user's tracker resumes mid-convergence (same gain decay)
        instead of starting over.
        """
        return {
            "limit_c": self._limit_c,
            "event_count": self._event_count,
            "rejection_streak": self._rejection_streak,
        }

    def reset(self) -> None:
        self._limit_c = self.initial_limit_c
        self._event_count = 0
        self._rejection_streak = 0


@dataclass
class UserFeedbackModel:
    """Deterministic satisfaction-driven feedback for a simulated user.

    Every ``report_period_s`` the user compares the felt skin temperature
    against their *true* comfort limit (the quantity the adapter must learn):

    * above the limit → a discomfort report;
    * within ``comfort_band_c`` below the limit → a comfort report ("warm
      but fine" — the informative kind for threshold tracking);
    * cooler than that → silence.

    Real users are messier than that, and two adversarial knobs model the
    mess (both default *off*, leaving the ideal model bit-identical to
    before):

    * ``flip_probability`` — contradictory reports: each generated report's
      verdict is inverted with this probability ("too hot" filed while
      actually comfortable and vice versa), drawn from a seeded generator so
      runs stay reproducible;
    * ``delay_s`` — lagged reports: a report reaches the adapter ``delay_s``
      after the moment it describes, carrying the *stale* felt temperature
      (the user reacts to how the phone felt half a minute ago), delivered
      with a monotonically increasing timestamp.

    The stress suites (``tests/test_properties_adaptation.py``) document the
    tolerance the trackers keep under this adversity: ``quantile_tracker``
    still converges to within **0.5 °C** of the true limit on the standard
    probe with reports delayed up to 30 s, and stays within its **trust
    window (3 °C)** with up to 20 % contradictory reports (vs. 0.5 °C for an
    ideal reporter; typical contradictory-report error is well under 2 °C,
    worst observed ≈2.7 °C).

    Attributes:
        true_limit_c: the user's actual flip temperature (e.g.
            :attr:`~repro.users.population.ThermalComfortProfile.skin_limit_c`).
        report_period_s: minimum time between reports.
        comfort_band_c: width of the "warm but fine" band below the limit in
            which comfort is reported.
        flip_probability: chance each report's verdict is inverted, in [0, 1].
        delay_s: delivery lag between feeling and filing a report (seconds).
        seed: seed of the contradictory-report generator.
    """

    true_limit_c: float
    report_period_s: float = 15.0
    comfort_band_c: float = 3.0
    flip_probability: float = 0.0
    delay_s: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 25.0 < self.true_limit_c < 60.0:
            raise ValueError("true_limit_c must be a plausible skin-temperature limit")
        if not 0.0 < self.report_period_s < math.inf:
            raise ValueError("report_period_s must be positive and finite")
        if not 0.0 < self.comfort_band_c < math.inf:
            raise ValueError("comfort_band_c must be positive and finite")
        if not 0.0 <= self.flip_probability <= 1.0:
            raise ValueError("flip_probability must lie in [0, 1]")
        if not 0.0 <= self.delay_s < math.inf:
            raise ValueError("delay_s must be non-negative and finite")
        self._last_report_s: Optional[float] = None
        self._rng = random.Random(self.seed)
        self._pending: Deque[Tuple[float, FeedbackEvent]] = deque()

    def observe(self, time_s: float, skin_temp_c: float) -> Optional[FeedbackEvent]:
        """The user's report for this instant, or ``None`` when they say nothing."""
        generated = self._generate(time_s, skin_temp_c)
        if generated is not None and self.delay_s > 0:
            self._pending.append((time_s + self.delay_s, generated))
            generated = None
        if generated is not None:
            return generated
        if self._pending and self._pending[0][0] <= time_s + 1e-9:
            deliver_time, event = self._pending.popleft()
            # Filed now, about how the device felt delay_s ago: the stale
            # temperature is the point; the timestamp stays monotonic.
            return replace(event, time_s=time_s)
        return None

    def _generate(self, time_s: float, skin_temp_c: float) -> Optional[FeedbackEvent]:
        """The ideal model's report for this instant (plus the flip noise)."""
        if (
            self._last_report_s is not None
            and time_s - self._last_report_s < self.report_period_s - 1e-9
        ):
            return None
        if skin_temp_c > self.true_limit_c:
            event = FeedbackEvent.discomfort(time_s, skin_temp_c)
        elif skin_temp_c > self.true_limit_c - self.comfort_band_c:
            event = FeedbackEvent.comfort(time_s, skin_temp_c)
        else:
            return None
        self._last_report_s = time_s
        if self.flip_probability > 0 and self._rng.random() < self.flip_probability:
            flipped = (
                FeedbackEvent.COMFORT if event.is_discomfort else FeedbackEvent.DISCOMFORT
            )
            event = replace(event, kind=flipped)
        return event

    def reset(self) -> None:
        """Forget the report clock, pending reports and noise stream."""
        self._last_report_s = None
        self._rng = random.Random(self.seed)
        self._pending.clear()


@dataclass
class AdaptiveComfortManager:
    """Thermal manager that closes the user-feedback loop around USTA.

    One instance couples an inner manager exposing a live comfort limit
    (:meth:`~repro.core.usta.USTAController.set_skin_limit`) with a
    :class:`ComfortAdapter` and, for simulated users, a
    :class:`UserFeedbackModel`.  On every observation it first lets the
    simulated user report (from the skin sensor reading), applies any report
    to the adapter, pushes the adapter's limit into the inner manager, and
    only then lets the inner manager decide the cap.  External feedback
    (a real user tapping "too hot") arrives through :meth:`apply_feedback` —
    this is what :meth:`~repro.api.session.PolicySession.feed` routes
    ``feedback=`` events into.

    Attributes:
        inner: the wrapped manager (USTA or a compatible subclass).
        adapter: the comfort-limit adaptation strategy.
        feedback: optional simulated-user report generator (``None`` when
            feedback only arrives externally, e.g. in a live service).
    """

    inner: object
    adapter: ComfortAdapter
    feedback: Optional[UserFeedbackModel] = None

    def __post_init__(self) -> None:
        if not hasattr(self.inner, "set_skin_limit"):
            raise TypeError(
                f"{type(self.inner).__name__} does not expose a live comfort limit "
                "(set_skin_limit); adaptive policies need a USTA-style manager"
            )
        self.inner.set_skin_limit(self.adapter.current_limit_c)

    @property
    def name(self) -> str:
        """Result label, e.g. ``"feedback_step+usta"``."""
        adapter_name = getattr(self.adapter, "name", type(self.adapter).__name__)
        inner_name = getattr(self.inner, "name", type(self.inner).__name__)
        return f"{adapter_name}+{inner_name}"

    @property
    def table(self):
        """The inner manager's frequency table (so sessions resolve cap→frequency)."""
        return getattr(self.inner, "table", None)

    @property
    def current_limit_c(self) -> float:
        """The live (adapted) comfort limit."""
        return self.adapter.current_limit_c

    def apply_feedback(self, event: FeedbackEvent) -> float:
        """Consume one feedback event and sync the inner manager's limit."""
        limit = self.adapter.observe(event)
        self.inner.set_skin_limit(limit)
        return limit

    # -- ThermalManager protocol -------------------------------------------------

    def observe(self, time_s, sensor_readings, utilization, frequency_khz):
        """Let the simulated user report, adapt the limit, then decide the cap."""
        felt = None if self.feedback is None else sensor_readings.get("skin")
        if felt is not None:
            event = self.feedback.observe(time_s, felt)
            if event is not None:
                self.apply_feedback(event)
        return self.inner.observe(
            time_s=time_s,
            sensor_readings=sensor_readings,
            utilization=utilization,
            frequency_khz=frequency_khz,
        )

    def reset(self) -> None:
        """Reset the inner manager, the adapter and the feedback clock."""
        self.inner.reset()
        self.adapter.reset()
        if self.feedback is not None:
            self.feedback.reset()
        self.inner.set_skin_limit(self.adapter.current_limit_c)

    # -- prediction schedule -----------------------------------------------------

    def prediction_due(self, time_s) -> bool:
        """Forward the inner controller's prediction schedule (a session
        reads it to refuse a sample lacking a predictor channel before the
        feedback step runs)."""
        return self.inner.prediction_due(time_s)
