"""The unified policy API.

Two complementary interfaces over the same components:

* **Declarative specs** (:mod:`repro.api.specs`): :class:`PolicySpec` /
  :class:`GovernorSpec` / :class:`ManagerSpec` / :class:`PredictorSpec` are
  JSON round-trippable descriptions of a DVFS policy, resolved through the
  decorator-based registries of :mod:`repro.api.registry`.  Experiment cells,
  ``policy.json`` CLI files and service configs all speak this form.
* **Online sessions** (:mod:`repro.api.session`): ``open_session(spec,
  user_profile)`` returns a :class:`PolicySession` whose
  ``feed(TelemetrySample) → CapDecision`` loop is the USTA daemon decoupled
  from the simulator; :class:`SessionPool` batches predictions across
  thousands of concurrent sessions (fed a columnar
  :class:`~repro.api.columns.SampleColumns` batch per tick), and
  :mod:`repro.api.serve` drives that at population scale.

Only the leaf modules (registries and wire types) are imported eagerly; the
spec and session layers load on first attribute access, because they sit
*above* the component packages that register themselves here.
"""

from __future__ import annotations

import importlib

from .registry import (
    ADAPTERS,
    GOVERNORS,
    MANAGERS,
    PREDICTORS,
    ComponentRegistry,
    UnknownComponentError,
    register_adapter,
    register_governor,
    register_manager,
    register_predictor,
)
from .types import CapDecision, FeedbackEvent, TelemetrySample

_LAZY_EXPORTS = {
    "SpecError": "specs",
    "GovernorSpec": "specs",
    "PredictorSpec": "specs",
    "ManagerSpec": "specs",
    "AdapterSpec": "specs",
    "PolicySpec": "specs",
    "SampleColumns": "columns",
    "PolicySession": "session",
    "SessionPool": "session",
    "open_session": "session",
    "ServeReport": "serve",
    "replay_telemetry": "serve",
    "run_serve": "serve",
}

__all__ = [
    "ComponentRegistry",
    "UnknownComponentError",
    "GOVERNORS",
    "MANAGERS",
    "PREDICTORS",
    "ADAPTERS",
    "register_governor",
    "register_manager",
    "register_predictor",
    "register_adapter",
    "CapDecision",
    "TelemetrySample",
    "FeedbackEvent",
    *sorted(_LAZY_EXPORTS),
]


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
