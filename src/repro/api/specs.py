"""Declarative, JSON round-trippable policy specifications.

A *policy* couples a baseline cpufreq governor with an optional thermal
manager (USTA).  Historically every call site hand-constructed
``Governor``/``USTAController``/``RuntimePredictor`` objects with bespoke
wiring; a :class:`PolicySpec` instead *describes* that construction as plain
data:

* JSON/dict round-trippable — ``spec.to_spec()`` / ``PolicySpec.from_spec``
  and ``to_json`` / ``from_json`` are inverses, so a policy can live in a
  ``policy.json`` file, an experiment-cell payload, or a service config;
* registry-backed — component names resolve through the
  :mod:`repro.api.registry` registries, so third-party governors/managers
  participate by decorating themselves;
* validated — unknown keys raise :class:`SpecError` with a did-you-mean hint
  instead of being silently ignored.

Heavy artifacts (a trained :class:`~repro.core.predictor.RuntimePredictor`)
are *not* embedded in the JSON.  A :class:`ManagerSpec` either names a
deterministic predictor recipe (:class:`PredictorSpec`, e.g. kind
``"trained"``) or has the predictor injected at build time
(``spec.build_manager(predictor=...)``), which is what the experiment runtime
and the session layer do with the shared context predictor.
"""

from __future__ import annotations

import difflib
import json
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Union

from ..core.policy import ThrottlePolicy
from .registry import ADAPTERS, GOVERNORS, MANAGERS, PREDICTORS, UnknownComponentError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.predictor import RuntimePredictor
    from ..device.freq_table import FrequencyTable
    from ..governors.base import Governor
    from ..sim.engine import ThermalManager
    from ..users.adaptation import ComfortAdapter, UserFeedbackModel
    from ..users.population import ThermalComfortProfile

__all__ = [
    "SpecError",
    "GovernorSpec",
    "PredictorSpec",
    "ManagerSpec",
    "AdapterSpec",
    "PolicySpec",
]


class SpecError(ValueError):
    """A policy spec is malformed (unknown keys, missing fields, bad values)."""


def _check_keys(
    kind: str,
    spec: Mapping,
    allowed: Sequence[str],
    required: Sequence[str] = (),
) -> None:
    """Reject non-mappings, unknown keys (with a suggestion) and missing keys."""
    if not isinstance(spec, Mapping):
        raise SpecError(f"a {kind} spec must be a mapping, got {type(spec).__name__}")
    for key in spec:
        if key not in allowed:
            close = difflib.get_close_matches(str(key), allowed, n=1)
            hint = f" (did you mean {close[0]!r}?)" if close else ""
            raise SpecError(
                f"unknown key {key!r} in {kind} spec{hint}; "
                f"valid keys: {', '.join(sorted(allowed))}"
            )
    for key in required:
        if key not in spec:
            raise SpecError(f"a {kind} spec requires the key {key!r}")


def _require_name(kind: str, value) -> str:
    if not isinstance(value, str) or not value:
        raise SpecError(f"a {kind} spec's 'name' must be a non-empty string, got {value!r}")
    return value


@dataclass(frozen=True)
class GovernorSpec:
    """Declarative description of a cpufreq governor.

    Attributes:
        name: registry name (``"ondemand"``, ``"conservative"``, ...).
        params: constructor keyword arguments (e.g. ``up_threshold``).
    """

    name: str = "ondemand"
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require_name("governor", self.name)
        object.__setattr__(self, "params", dict(self.params))

    def build(self, table: Optional["FrequencyTable"] = None) -> "Governor":
        """Instantiate the governor (optionally on a specific frequency table)."""
        try:
            return GOVERNORS.create(self.name, table=table, **self.params)
        except UnknownComponentError as exc:
            raise SpecError(str(exc)) from exc
        except (TypeError, ValueError) as exc:
            raise SpecError(f"invalid params for governor {self.name!r}: {exc}") from exc

    def to_spec(self) -> dict:
        """The spec as a JSON-serializable dictionary."""
        spec: dict = {"name": self.name}
        if self.params:
            spec["params"] = dict(self.params)
        return spec

    @classmethod
    def from_spec(cls, spec: Union[str, Mapping]) -> "GovernorSpec":
        """Parse a dictionary (or a bare governor-name shorthand)."""
        if isinstance(spec, str):
            return cls(name=spec)
        _check_keys("governor", spec, ("name", "params"), required=("name",))
        return cls(name=_require_name("governor", spec["name"]), params=spec.get("params", {}))


@dataclass(frozen=True)
class PredictorSpec:
    """Declarative recipe for a run-time skin/screen predictor.

    The default kind, ``"trained"``, reproduces the paper's offline pipeline
    deterministically (collect logging data under the baseline governor, train
    the named learner); params are forwarded to the registered builder
    (``model``, ``seed``, ``duration_scale``, ``benchmarks``, ...).
    """

    kind: str = "trained"
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require_name("predictor", self.kind)
        object.__setattr__(self, "params", dict(self.params))

    def build(self) -> "RuntimePredictor":
        """Build (usually: train) the predictor this spec describes."""
        try:
            return PREDICTORS.create(self.kind, **self.params)
        except UnknownComponentError as exc:
            raise SpecError(str(exc)) from exc
        except (TypeError, ValueError) as exc:
            raise SpecError(f"invalid params for predictor {self.kind!r}: {exc}") from exc

    def to_spec(self) -> dict:
        spec: dict = {"kind": self.kind}
        if self.params:
            spec["params"] = dict(self.params)
        return spec

    @classmethod
    def from_spec(cls, spec: Union[str, Mapping]) -> "PredictorSpec":
        if isinstance(spec, str):
            return cls(kind=spec)
        _check_keys("predictor", spec, ("kind", "params"), required=("kind",))
        return cls(kind=_require_name("predictor", spec["kind"]), params=spec.get("params", {}))


@dataclass(frozen=True)
class ManagerSpec:
    """Declarative description of a thermal manager (USTA layer).

    Attributes:
        name: registry name (``"usta"``, ``"usta-screen"``).
        params: constructor keyword arguments other than the predictor and the
            throttle policy (``skin_limit_c``, ``prediction_period_s``, ...).
        policy: optional :meth:`ThrottlePolicy.to_spec` dictionary (the
            paper's default steps when omitted).
        predictor: optional predictor recipe; when omitted, a predictor must
            be injected at :meth:`build` time.
    """

    name: str = "usta"
    params: Mapping[str, object] = field(default_factory=dict)
    policy: Optional[Mapping[str, object]] = None
    predictor: Optional[PredictorSpec] = None

    def __post_init__(self) -> None:
        _require_name("manager", self.name)
        object.__setattr__(self, "params", dict(self.params))
        if self.policy is not None:
            # Validate eagerly and normalise to the canonical dictionary form.
            try:
                object.__setattr__(self, "policy", ThrottlePolicy.from_spec(self.policy).to_spec())
            except ValueError as exc:
                raise SpecError(f"bad throttle policy in manager {self.name!r} spec: {exc}") from exc

    def throttle_policy(self) -> Optional[ThrottlePolicy]:
        """The manager's throttle policy, when the spec overrides the default."""
        return ThrottlePolicy.from_spec(self.policy) if self.policy is not None else None

    def for_user(
        self, profile: "ThermalComfortProfile", exclude: Sequence[str] = ()
    ) -> "ManagerSpec":
        """A copy of the spec with the comfort limit(s) of one study participant.

        The registered manager declares which constructor params come from a
        user profile via a ``profile_params`` class attribute — a tuple of
        ``(param_name, profile_attribute)`` pairs (``USTAController`` maps
        ``skin_limit_c``; the screen-aware variant adds ``screen_limit_c``).
        Managers that declare nothing are returned unchanged, so third-party
        managers without per-user limits survive population sweeps.

        Args:
            exclude: profile params to leave at the spec's configured value
                (adaptive policies exclude the limit the feedback loop learns).
        """
        try:
            factory = MANAGERS.get(self.name)
        except UnknownComponentError as exc:
            raise SpecError(str(exc)) from exc
        mapping = [
            (param, attribute)
            for param, attribute in getattr(factory, "profile_params", ())
            if param not in exclude
        ]
        if not mapping:
            return self
        params = dict(self.params)
        for param, attribute in mapping:
            params[param] = getattr(profile, attribute)
        return replace(self, params=params)

    def build(
        self,
        predictor: Optional["RuntimePredictor"] = None,
        table: Optional["FrequencyTable"] = None,
    ) -> "ThermalManager":
        """Instantiate the manager.

        Args:
            predictor: trained predictor to deploy (overrides the spec's
                ``predictor`` recipe; required when the spec has none).
            table: optional platform frequency table.
        """
        resolved = predictor
        if resolved is None and self.predictor is not None:
            resolved = self.predictor.build()
        if resolved is None:
            # A registered manager may opt out of the predictor requirement
            # (class attribute requires_predictor = False): the trip-point
            # throttler reads the sensor channel directly.
            try:
                factory = MANAGERS.get(self.name)
            except UnknownComponentError as exc:
                raise SpecError(str(exc)) from exc
            if getattr(factory, "requires_predictor", True):
                raise SpecError(
                    f"manager {self.name!r} needs a predictor: inject one via "
                    "build(predictor=...) or set the spec's 'predictor' recipe"
                )
        kwargs = dict(self.params)
        if self.policy is not None:
            kwargs["policy"] = ThrottlePolicy.from_spec(self.policy)
        if table is not None:
            kwargs["table"] = table
        try:
            return MANAGERS.create(self.name, predictor=resolved, **kwargs)
        except UnknownComponentError as exc:
            raise SpecError(str(exc)) from exc
        except (TypeError, ValueError) as exc:
            raise SpecError(f"invalid params for manager {self.name!r}: {exc}") from exc

    def to_spec(self) -> dict:
        spec: dict = {"name": self.name}
        if self.params:
            spec["params"] = dict(self.params)
        if self.policy is not None:
            spec["policy"] = dict(self.policy)
        if self.predictor is not None:
            spec["predictor"] = self.predictor.to_spec()
        return spec

    @classmethod
    def from_spec(cls, spec: Union[str, Mapping]) -> "ManagerSpec":
        if isinstance(spec, str):
            return cls(name=spec)
        _check_keys("manager", spec, ("name", "params", "policy", "predictor"), required=("name",))
        predictor = spec.get("predictor")
        return cls(
            name=_require_name("manager", spec["name"]),
            params=spec.get("params", {}),
            policy=spec.get("policy"),
            predictor=PredictorSpec.from_spec(predictor) if predictor is not None else None,
        )


#: Keys accepted in an AdapterSpec's simulated-user ``feedback`` mapping;
#: they mirror :class:`~repro.users.adaptation.UserFeedbackModel`'s fields
#: (including the adversarial noise/lag knobs).
_FEEDBACK_KEYS = (
    "true_limit_c",
    "report_period_s",
    "comfort_band_c",
    "flip_probability",
    "delay_s",
    "seed",
)


@dataclass(frozen=True)
class AdapterSpec:
    """Declarative description of a comfort-limit adapter (user-feedback loop).

    Attributes:
        name: registry name (``"fixed"``, ``"feedback_step"``,
            ``"quantile_tracker"``).
        params: strategy constructor keyword arguments (``step_down_c``,
            ``quantile``, clamp bounds, ...).  ``initial_limit_c`` may be set
            explicitly; otherwise the manager's configured limit is used.
        feedback: optional simulated-user report-model configuration
            (:class:`~repro.users.adaptation.UserFeedbackModel` fields).  Its
            ``true_limit_c`` is what :meth:`for_user` fills in from a study
            participant; omit the whole mapping for sessions whose feedback
            arrives externally (a real user).
    """

    name: str = "feedback_step"
    params: Mapping[str, object] = field(default_factory=dict)
    feedback: Optional[Mapping[str, object]] = None

    def __post_init__(self) -> None:
        _require_name("adapter", self.name)
        object.__setattr__(self, "params", dict(self.params))
        if self.feedback is not None:
            _check_keys("adapter feedback", self.feedback, _FEEDBACK_KEYS)
            object.__setattr__(self, "feedback", dict(self.feedback))

    def for_user(self, profile: "ThermalComfortProfile") -> "AdapterSpec":
        """The same adapter with the participant's *true* limit as feedback truth.

        Note the asymmetry with :meth:`ManagerSpec.for_user`: an adaptive
        policy deliberately keeps the manager's (possibly mis-specified)
        initial limit — the profile's real limit goes into the simulated
        user's feedback model, and the loop has to learn it.
        """
        feedback = dict(self.feedback) if self.feedback is not None else {}
        feedback["true_limit_c"] = profile.skin_limit_c
        return replace(self, feedback=feedback)

    def build(self, initial_limit_c: Optional[float] = None) -> "ComfortAdapter":
        """Instantiate the adaptation strategy.

        Args:
            initial_limit_c: starting limit, used when ``params`` does not
                pin one (callers pass the manager's configured limit so the
                loop starts exactly where the static policy would sit).
        """
        kwargs = dict(self.params)
        if initial_limit_c is not None:
            kwargs.setdefault("initial_limit_c", initial_limit_c)
        try:
            return ADAPTERS.create(self.name, **kwargs)
        except UnknownComponentError as exc:
            raise SpecError(str(exc)) from exc
        except (TypeError, ValueError) as exc:
            raise SpecError(f"invalid params for adapter {self.name!r}: {exc}") from exc

    def build_feedback(self) -> Optional["UserFeedbackModel"]:
        """The simulated-user report model, when the spec configures one."""
        if self.feedback is None:
            return None
        if "true_limit_c" not in self.feedback:
            raise SpecError(
                f"adapter {self.name!r} feedback config needs 'true_limit_c' "
                "(call for_user(profile) or set it explicitly)"
            )
        from ..users.adaptation import UserFeedbackModel

        try:
            return UserFeedbackModel(**self.feedback)
        except (TypeError, ValueError) as exc:
            raise SpecError(f"bad feedback config in adapter {self.name!r}: {exc}") from exc

    def to_spec(self) -> dict:
        spec: dict = {"name": self.name}
        if self.params:
            spec["params"] = dict(self.params)
        if self.feedback is not None:
            spec["feedback"] = dict(self.feedback)
        return spec

    @classmethod
    def from_spec(cls, spec: Union[str, Mapping]) -> "AdapterSpec":
        if isinstance(spec, str):
            return cls(name=spec)
        _check_keys("adapter", spec, ("name", "params", "feedback"), required=("name",))
        return cls(
            name=_require_name("adapter", spec["name"]),
            params=spec.get("params", {}),
            feedback=spec.get("feedback"),
        )


@dataclass(frozen=True)
class PolicySpec:
    """One complete DVFS policy: a governor plus an optional thermal manager.

    This is the unit the CLI's ``--policy policy.json`` consumes, the payload
    an :class:`~repro.runtime.plan.ExperimentCell` carries, and what
    :func:`~repro.api.session.open_session` builds an online session from.
    An optional :class:`AdapterSpec` turns the manager's comfort limit into a
    live, feedback-adapted quantity.
    """

    governor: GovernorSpec = field(default_factory=GovernorSpec)
    manager: Optional[ManagerSpec] = None
    adapter: Optional[AdapterSpec] = None
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.adapter is not None and self.manager is None:
            raise SpecError(
                "a policy adapter needs a thermal manager to act on "
                "(set 'manager' alongside 'adapter')"
            )

    def for_user(self, profile: "ThermalComfortProfile") -> "PolicySpec":
        """The same policy configured for one participant.

        Static policies get the participant's comfort limit(s) frozen into
        the manager spec.  Adaptive policies keep the manager's initial
        *skin* limit — that is the quantity the feedback loop must learn,
        pointed at the participant's true value via
        :meth:`AdapterSpec.for_user` — while every other per-user manager
        param (e.g. ``usta-screen``'s screen limit, which no adapter
        touches) is still personalised.
        """
        if self.adapter is not None:
            return replace(
                self,
                manager=self.manager.for_user(profile, exclude=("skin_limit_c",)),
                adapter=self.adapter.for_user(profile),
            )
        if self.manager is None:
            return self
        return replace(self, manager=self.manager.for_user(profile))

    def validate_registered(self) -> "PolicySpec":
        """Fail fast when any component name is not in its registry.

        Spec parsing deliberately does not resolve names (a spec may be read
        before a plugin module registers its components); call this before
        expensive work — the CLI does it right after loading a policy file —
        to turn a late ``UnknownComponentError`` deep inside a run into an
        upfront :class:`SpecError`.

        Returns ``self`` so the call chains.
        """
        try:
            GOVERNORS.get(self.governor.name)
            if self.manager is not None:
                MANAGERS.get(self.manager.name)
                if self.manager.predictor is not None:
                    PREDICTORS.get(self.manager.predictor.kind)
            if self.adapter is not None:
                ADAPTERS.get(self.adapter.name)
        except UnknownComponentError as exc:
            raise SpecError(str(exc)) from exc
        return self

    # -- construction -----------------------------------------------------------

    def build_governor(self, table: Optional["FrequencyTable"] = None) -> "Governor":
        """Instantiate the baseline governor."""
        return self.governor.build(table=table)

    def build_manager(
        self,
        predictor: Optional["RuntimePredictor"] = None,
        table: Optional["FrequencyTable"] = None,
    ) -> Optional["ThermalManager"]:
        """Instantiate the thermal manager (``None`` for a bare-governor policy).

        With an :class:`AdapterSpec` present the manager comes back wrapped in
        an :class:`~repro.users.adaptation.AdaptiveComfortManager` whose
        adapter starts at the manager's configured limit.
        """
        if self.manager is None:
            return None
        manager = self.manager.build(predictor=predictor, table=table)
        if self.adapter is None:
            return manager
        from ..users.adaptation import AdaptiveComfortManager

        adapter = self.adapter.build(
            initial_limit_c=getattr(manager, "skin_limit_c", None)
        )
        try:
            return AdaptiveComfortManager(
                inner=manager,
                adapter=adapter,
                feedback=self.adapter.build_feedback(),
            )
        except TypeError as exc:
            raise SpecError(
                f"adapter {self.adapter.name!r} cannot wrap manager "
                f"{self.manager.name!r}: {exc}"
            ) from exc

    # -- serialization ----------------------------------------------------------

    def to_spec(self) -> dict:
        """The policy as a JSON-serializable dictionary."""
        spec: dict = {"governor": self.governor.to_spec()}
        if self.manager is not None:
            spec["manager"] = self.manager.to_spec()
        if self.adapter is not None:
            spec["adapter"] = self.adapter.to_spec()
        if self.label is not None:
            spec["label"] = self.label
        return spec

    @classmethod
    def from_spec(cls, spec: Mapping) -> "PolicySpec":
        """Parse a dictionary produced by :meth:`to_spec` (or hand-written)."""
        _check_keys("policy", spec, ("governor", "manager", "adapter", "label"))
        manager = spec.get("manager")
        adapter = spec.get("adapter")
        label = spec.get("label")
        if label is not None and not isinstance(label, str):
            raise SpecError(f"a policy spec's 'label' must be a string, got {label!r}")
        return cls(
            governor=GovernorSpec.from_spec(spec.get("governor", "ondemand")),
            manager=ManagerSpec.from_spec(manager) if manager is not None else None,
            adapter=AdapterSpec.from_spec(adapter) if adapter is not None else None,
            label=label,
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The policy as a JSON document."""
        return json.dumps(self.to_spec(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PolicySpec":
        """Parse a JSON document produced by :meth:`to_json` (or hand-written)."""
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"policy spec is not valid JSON: {exc}") from exc
        return cls.from_spec(spec)

    @classmethod
    def from_file(cls, path) -> "PolicySpec":
        """Load a policy from a ``policy.json`` file."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())
