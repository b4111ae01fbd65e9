"""End-to-end construction of the predictor and the USTA controller.

This module reproduces the paper's offline framework (§III.A):

1. run the benchmark suite on the (simulated) instrumented device under the
   baseline ondemand governor while the logging application records CPU
   temperature, battery temperature, utilization and frequency alongside the
   thermistor ground truth (:func:`collect_training_data`);
2. pool all benchmarks into one global dataset and evaluate the four candidate
   learners with 10-fold cross-validation (:func:`evaluate_prediction_models`
   — this is Figure 3);
3. train the chosen learner on the full dataset and wrap it into a
   :class:`~repro.core.predictor.RuntimePredictor`
   (:func:`train_runtime_predictor`);
4. configure a :class:`~repro.core.usta.USTAController` with a comfort limit
   (:func:`build_usta_controller`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..device.platform import DevicePlatform
from ..ml.base import Regressor, create_model
from ..ml.crossval import CrossValidationResult, cross_validate
from ..ml.dataset import Dataset
from ..ml.linear import LinearRegression
from ..ml.m5p import M5ModelTree
from ..ml.mlp import MultilayerPerceptron
from ..ml.reptree import RepTree
from ..sim.logger import SCREEN_TARGET, SKIN_TARGET, SystemLogger
from ..users.population import ThermalComfortProfile
from ..workloads.benchmarks import BENCHMARK_NAMES, build_benchmark
from .predictor import RuntimePredictor
from .usta import USTAController

__all__ = [
    "PAPER_MODEL_NAMES",
    "TrainingData",
    "collect_training_data",
    "evaluate_prediction_models",
    "train_runtime_predictor",
    "build_usta_controller",
    "default_model_factories",
]

#: The four WEKA algorithms the paper compares (Figure 3), by registry name.
PAPER_MODEL_NAMES: Tuple[str, ...] = (
    "linear_regression",
    "multilayer_perceptron",
    "m5p",
    "reptree",
)


def default_model_factories(seed: int = 0) -> Dict[str, Callable[[], Regressor]]:
    """Factories for the four paper models with sensible default hyper-parameters."""
    return {
        "linear_regression": lambda: LinearRegression(),
        "multilayer_perceptron": lambda: MultilayerPerceptron(
            hidden_sizes=(12,), epochs=120, learning_rate=0.02, seed=seed
        ),
        "m5p": lambda: M5ModelTree(min_leaf=8),
        "reptree": lambda: RepTree(min_leaf=5, seed=seed),
    }


@dataclass
class TrainingData:
    """The pooled, global training set built from all benchmarks."""

    logger: SystemLogger
    benchmarks: Tuple[str, ...]

    @property
    def num_records(self) -> int:
        """Number of logged samples."""
        return len(self.logger)

    def skin_dataset(self) -> Dataset:
        """Features + skin-temperature target."""
        return self.logger.to_dataset(SKIN_TARGET)

    def screen_dataset(self) -> Dataset:
        """Features + screen-temperature target."""
        return self.logger.to_dataset(SCREEN_TARGET)


def collect_training_data(
    benchmarks: Optional[Sequence[str]] = None,
    seed: int = 0,
    log_period_s: float = 3.0,
    duration_scale: float = 1.0,
    platform_factory: Optional[Callable[[], DevicePlatform]] = None,
    runner: Optional["BatchRunner"] = None,
) -> TrainingData:
    """Run the benchmark suite under the baseline governor and log predictor data.

    The benchmark runs are declared as one
    :class:`~repro.runtime.plan.ExperimentPlan` (one logging cell per
    benchmark) and executed through a
    :class:`~repro.runtime.runner.BatchRunner`, so the most expensive stage
    of the pipeline integrates as one vectorized population.

    Args:
        benchmarks: benchmark names to run (all thirteen by default).
        seed: base seed for workload generation and sensor noise.
        log_period_s: logging application period.
        duration_scale: multiply every benchmark's duration by this factor
            (useful to build smaller datasets in tests and quick examples).
        platform_factory: custom platform constructor (defaults to a fresh
            Nexus-4 platform per benchmark).
        runner: custom batch runner (default: the in-process vectorized one).

    Returns:
        A :class:`TrainingData` whose logger pools the records of every
        benchmark, mirroring the paper's single global dataset.
    """
    from ..api.specs import PolicySpec
    from ..runtime import BatchRunner, ExperimentCell, ExperimentPlan

    # Chained, so NaN fails too: max(log_period_s, nan) would cut every trace
    # to one logging period below.
    if not 0.0 < duration_scale < math.inf:
        raise ValueError(f"duration_scale must be finite and positive, got {duration_scale!r}")
    names = tuple(benchmarks) if benchmarks is not None else BENCHMARK_NAMES

    baseline_policy = PolicySpec(label="ondemand-logging")
    plan = ExperimentPlan()
    for index, name in enumerate(names):
        trace = build_benchmark(name, seed=seed + index)
        if duration_scale != 1.0:
            trace = trace.truncated(max(log_period_s, trace.duration_s * duration_scale))
        plan.add(
            ExperimentCell(
                cell_id=name,
                trace=trace,
                policy=baseline_policy,
                seed=seed + index,
                log_period_s=log_period_s,
                platform_factory=platform_factory,
                metadata={"benchmark": name},
            )
        )
    store = (runner if runner is not None else BatchRunner.for_jobs(None)).run(plan)

    pooled = SystemLogger(period_s=log_period_s)
    for cell_result in store:
        pooled.extend(cell_result.logger)
    return TrainingData(logger=pooled, benchmarks=names)


def evaluate_prediction_models(
    data: TrainingData,
    model_names: Sequence[str] = PAPER_MODEL_NAMES,
    folds: int = 10,
    seed: int = 0,
    model_factories: Optional[Dict[str, Callable[[], Regressor]]] = None,
) -> Dict[str, Dict[str, CrossValidationResult]]:
    """10-fold cross-validation of the candidate learners (Figure 3).

    Returns:
        ``{model_name: {"skin": result, "screen": result}}`` with the paper's
        error-rate metric available on each
        :class:`~repro.ml.crossval.CrossValidationResult`.
    """
    factories = model_factories or default_model_factories(seed=seed)
    skin_data = data.skin_dataset()
    screen_data = data.screen_dataset()

    results: Dict[str, Dict[str, CrossValidationResult]] = {}
    for name in model_names:
        if name not in factories:
            raise KeyError(f"no factory registered for model {name!r}")
        factory = factories[name]
        results[name] = {
            "skin": cross_validate(factory, skin_data, folds=folds, seed=seed),
            "screen": cross_validate(factory, screen_data, folds=folds, seed=seed),
        }
    return results


def train_runtime_predictor(
    data: TrainingData,
    model_name: str = "reptree",
    include_screen: bool = True,
    seed: int = 0,
    model_factories: Optional[Dict[str, Callable[[], Regressor]]] = None,
) -> RuntimePredictor:
    """Train the deployed predictor on the full global dataset.

    The paper deploys REPTree; pass ``model_name="m5p"`` (or any registered
    model) to study alternatives.
    """
    factories = model_factories or default_model_factories(seed=seed)
    if model_name in factories:
        make = factories[model_name]
    else:
        make = lambda: create_model(model_name)  # noqa: E731 - tiny adapter

    skin_model = make().fit(data.skin_dataset())
    screen_model = make().fit(data.screen_dataset()) if include_screen else None
    return RuntimePredictor(skin_model=skin_model, screen_model=screen_model)


def build_usta_controller(
    predictor: RuntimePredictor,
    skin_limit_c: float = 37.0,
    profile: Optional[ThermalComfortProfile] = None,
    **kwargs,
) -> USTAController:
    """Build a USTA controller for a default or user-specific comfort limit.

    Args:
        predictor: the trained run-time predictor.
        skin_limit_c: the comfort limit to enforce (37 °C = the paper's
            default user).  Ignored when ``profile`` is given.
        profile: configure USTA for a specific participant instead.
        **kwargs: forwarded to :class:`USTAController` (policy, period, ...).
    """
    if profile is not None:
        return USTAController.for_user(predictor, profile, **kwargs)
    return USTAController(predictor=predictor, skin_limit_c=skin_limit_c, **kwargs)
