"""Shared experiment context.

Reproducing the paper's figures requires a trained skin-temperature predictor
and the user population; training the predictor means running the benchmark
suite to collect data, which is the most expensive part of the pipeline.
:class:`ReproductionContext` builds those shared pieces once and hands them to
every table/figure function, and :func:`default_context` caches one instance
per (seed, scale) so the benchmark harness does not retrain for every figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Optional, Tuple

from ..api.specs import GovernorSpec, ManagerSpec, PolicySpec
from ..core.pipeline import (
    TrainingData,
    collect_training_data,
    train_runtime_predictor,
)
from ..core.predictor import RuntimePredictor
from ..core.usta import USTAController, USTAControllerFactory
from ..users.population import ThermalComfortProfile, UserPopulation, paper_population

__all__ = ["ReproductionContext", "default_context"]


@dataclass
class ReproductionContext:
    """Everything the paper-reproduction experiments share.

    Attributes:
        predictor: trained run-time skin/screen predictor.
        training_data: the pooled dataset the predictor was trained on.
        population: the ten-user study population.
        seed: base seed used for workloads, sensors and fold assignment.
        duration_scale: benchmark-duration scaling used when collecting the
            training data (1.0 = the paper's full durations).
    """

    predictor: RuntimePredictor
    training_data: TrainingData
    population: UserPopulation
    seed: int = 0
    duration_scale: float = 1.0

    @classmethod
    def build(
        cls,
        seed: int = 0,
        duration_scale: float = 1.0,
        model_name: str = "reptree",
    ) -> "ReproductionContext":
        """Collect training data, train the predictor and assemble the context."""
        data = collect_training_data(seed=seed, duration_scale=duration_scale)
        predictor = train_runtime_predictor(data, model_name=model_name, seed=seed)
        return cls(
            predictor=predictor,
            training_data=data,
            population=paper_population(),
            seed=seed,
            duration_scale=duration_scale,
        )

    def usta_for_limit(self, skin_limit_c: float, **kwargs) -> USTAController:
        """A USTA controller enforcing an explicit comfort limit."""
        return USTAController(predictor=self.predictor, skin_limit_c=skin_limit_c, **kwargs)

    def usta_for_user(self, profile: ThermalComfortProfile, **kwargs) -> USTAController:
        """A USTA controller configured for one study participant."""
        return USTAController.for_user(self.predictor, profile, **kwargs)

    def usta_default(self, **kwargs) -> USTAController:
        """USTA configured for the default (population-average) user."""
        return self.usta_for_limit(self.population.default_user().skin_limit_c, **kwargs)

    def usta_factory_for_limit(self, skin_limit_c: float) -> USTAControllerFactory:
        """A lean, picklable per-cell controller factory for an explicit limit.

        Prefer this over ``partial(context.usta_for_limit, ...)`` in
        :class:`~repro.runtime.plan.ExperimentCell` definitions: it carries
        only the predictor and the limit, not the whole context (training
        data included), which matters when cells cross process boundaries.
        """
        return USTAControllerFactory(predictor=self.predictor, skin_limit_c=skin_limit_c)

    def usta_factory_for_user(self, profile: ThermalComfortProfile) -> USTAControllerFactory:
        """A lean, picklable per-cell controller factory for one participant."""
        return USTAControllerFactory(
            predictor=self.predictor, skin_limit_c=profile.skin_limit_c
        )

    # -- declarative policy specs ---------------------------------------------------

    @staticmethod
    def baseline_policy_spec(governor: str = "ondemand") -> PolicySpec:
        """The bare baseline-governor policy as a declarative spec."""
        return PolicySpec(governor=GovernorSpec(governor), label=governor)

    @staticmethod
    def usta_policy_spec(
        skin_limit_c: Optional[float] = None,
        profile: Optional[ThermalComfortProfile] = None,
        governor: str = "ondemand",
    ) -> PolicySpec:
        """USTA over a baseline governor, as a declarative spec.

        The spec carries no trained artifact — pair it with this context's
        ``predictor`` at build time (``ExperimentCell(policy=spec,
        predictor=context.predictor)`` or ``open_session(spec,
        predictor=context.predictor)``).

        Args:
            skin_limit_c: explicit comfort limit (37 °C default-user when
                neither argument is given).  Ignored when ``profile`` is set.
            profile: configure the limit from one study participant.
            governor: baseline cpufreq governor name.
        """
        if profile is not None:
            limit = profile.skin_limit_c
        elif skin_limit_c is not None:
            limit = skin_limit_c
        else:
            limit = 37.0
        return PolicySpec(
            governor=GovernorSpec(governor),
            manager=ManagerSpec("usta", params={"skin_limit_c": limit}),
            label=f"usta+{governor}",
        )


@lru_cache(maxsize=4)
def default_context(seed: int = 0, duration_scale: float = 1.0) -> ReproductionContext:
    """A cached shared context (training runs once per (seed, scale) pair)."""
    return ReproductionContext.build(seed=seed, duration_scale=duration_scale)
