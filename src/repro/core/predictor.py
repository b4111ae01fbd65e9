"""Run-time skin and screen temperature predictor.

The predictor is the piece USTA queries every 3 seconds: it takes the signals
available on a stock phone — CPU temperature, battery temperature, CPU
utilization and CPU frequency — and estimates the back-cover ("skin") and
screen temperatures that would otherwise require external thermistors.

The models behind it are the regressors of :mod:`repro.ml`; the paper deploys
REPTree (fast to build, no halting) and notes M5P is slightly better once
sub-1 °C errors are ignored.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..api.registry import register_predictor
from ..ml.base import Regressor
from ..sim.logger import FEATURE_NAMES

__all__ = [
    "PredictionFeatures",
    "SkinScreenPrediction",
    "BatchPredictionArrays",
    "RuntimePredictor",
    "build_trained_predictor",
]


@dataclass(frozen=True)
class PredictionFeatures:
    """The on-device signals the predictor consumes."""

    cpu_temp_c: float
    battery_temp_c: float
    utilization: float
    frequency_khz: float

    def as_vector(self) -> np.ndarray:
        """Feature vector in the canonical column order used for training."""
        return np.array(
            [self.cpu_temp_c, self.battery_temp_c, self.utilization, self.frequency_khz],
            dtype=float,
        )

    @classmethod
    def from_readings(
        cls,
        sensor_readings: Mapping[str, float],
        utilization: float,
        frequency_khz: float,
    ) -> "PredictionFeatures":
        """Build features from the sensor suite's readings plus CPU state.

        Raises ``ValueError`` naming the offending channel when a required
        sensor is missing or any input is non-finite — a NaN here would fold
        silently into the regression and come back as a NaN "prediction" that
        disables throttling without a trace.
        """
        try:
            cpu = float(sensor_readings["cpu"])
            battery = float(sensor_readings["battery"])
        except KeyError as exc:
            available = ", ".join(sorted(sensor_readings)) or "none"
            raise ValueError(
                f"predictor features need sensor channel {exc.args[0]!r} "
                f"(channels present: {available})"
            ) from None
        features = cls(
            cpu_temp_c=cpu,
            battery_temp_c=battery,
            utilization=float(utilization),
            frequency_khz=float(frequency_khz),
        )
        bad = [
            name
            for name, value in (
                ("cpu", features.cpu_temp_c),
                ("battery", features.battery_temp_c),
                ("utilization", features.utilization),
                ("frequency_khz", features.frequency_khz),
            )
            if not math.isfinite(value)
        ]
        if bad:
            raise ValueError(
                f"non-finite predictor feature(s) {', '.join(bad)}: a HAL "
                "placeholder/NaN reading must be dropped or interpolated "
                "before prediction, never folded into the model"
            )
        return features


@dataclass(frozen=True)
class SkinScreenPrediction:
    """One prediction of the exterior temperatures."""

    skin_temp_c: float
    screen_temp_c: Optional[float]
    latency_s: float


@dataclass(frozen=True)
class BatchPredictionArrays:
    """Column-wise result of one batched prediction.

    The array counterpart of a list of :class:`SkinScreenPrediction`: row
    ``i`` of each array is sample ``i``'s prediction, and ``latency_s`` is
    the amortized per-sample wall-clock of the batch (the batch wall-clock
    divided by its rows: the latency each plane row reports).
    """

    skin_temp_c: np.ndarray
    screen_temp_c: Optional[np.ndarray]
    latency_s: float


@dataclass
class RuntimePredictor:
    """Wraps the trained skin (and optionally screen) regression models.

    Attributes:
        skin_model: fitted regressor predicting the back-cover temperature.
        screen_model: optional fitted regressor for the screen temperature
            (the paper notes it can be predicted selectively, e.g. only during
            phone calls, to save overhead).
        feature_names: order of the feature columns the models were trained on.
    """

    skin_model: Regressor
    screen_model: Optional[Regressor] = None
    feature_names: Tuple[str, ...] = FEATURE_NAMES

    def __post_init__(self) -> None:
        if not self.skin_model.is_fitted:
            raise ValueError("skin_model must be fitted")
        if self.screen_model is not None and not self.screen_model.is_fitted:
            raise ValueError("screen_model must be fitted when provided")
        if tuple(self.feature_names) != FEATURE_NAMES:
            raise ValueError(f"feature_names must be {FEATURE_NAMES}")

    @property
    def model_name(self) -> str:
        """Name of the underlying skin model (e.g. ``"reptree"``)."""
        return self.skin_model.name

    def predict(self, features: PredictionFeatures, predict_screen: bool = True) -> SkinScreenPrediction:
        """Predict the exterior temperatures from on-device signals.

        Args:
            features: the current on-device signals.
            predict_screen: also predict the screen temperature when a screen
                model is available (disable to halve the run-time cost, as the
                paper suggests).
        """
        vector = features.as_vector().reshape(1, -1)
        start = time.perf_counter()
        skin = float(self.skin_model.predict(vector)[0])
        screen: Optional[float] = None
        if predict_screen and self.screen_model is not None:
            screen = float(self.screen_model.predict(vector)[0])
        latency = time.perf_counter() - start
        return SkinScreenPrediction(skin_temp_c=skin, screen_temp_c=screen, latency_s=latency)

    def predict_batch_arrays(
        self, features: np.ndarray, predict_screen: bool = True
    ) -> BatchPredictionArrays:
        """Predict for a whole batch of feature rows at once, as columns.

        This is the policy plane's predict: when N rows hit their prediction
        window on the same tick, one call replaces N scalar :meth:`predict`
        calls, and the skin (and optionally screen) predictions stay arrays
        instead of N ``SkinScreenPrediction`` objects.  ``features`` is an
        ``(n_samples, n_features)`` matrix in the canonical column order
        (see :meth:`PredictionFeatures.as_vector`).

        Every row carries exactly the bits of a single-row :meth:`predict`,
        whatever else is in the batch.  Models declaring
        ``batch_row_invariant`` (trees; the order-fixed linear sweep)
        guarantee that for a whole-matrix predict, so they run as one call.
        Any other model is evaluated one row at a time: a whole-matrix
        predict may differ from N single-row predicts in the last ulp when
        its batched evaluation depends on the row count (a BLAS matmul picks
        different kernels by shape), which would make a decision depend on
        which other rows shared its batch.
        """
        matrix = np.atleast_2d(np.asarray(features, dtype=float))
        if matrix.shape[1] != len(self.feature_names):
            raise ValueError(
                f"feature matrix must have {len(self.feature_names)} columns, "
                f"got {matrix.shape[1]}"
            )
        start = time.perf_counter()
        want_screen = predict_screen and self.screen_model is not None
        screen: Optional[np.ndarray] = None

        # The matrix is validated once, here: the models skip re-validation.
        def _rows(model) -> np.ndarray:
            predict = model.predict_matrix
            if len(matrix) > 1 and not getattr(model, "batch_row_invariant", False):
                return np.array([predict(matrix[i : i + 1])[0] for i in range(len(matrix))])
            return np.asarray(predict(matrix), dtype=float)

        skin = _rows(self.skin_model)
        if want_screen:
            screen = _rows(self.screen_model)
        latency = (time.perf_counter() - start) / len(matrix)
        return BatchPredictionArrays(skin_temp_c=skin, screen_temp_c=screen, latency_s=latency)

    def predict_from_readings(
        self,
        sensor_readings: Mapping[str, float],
        utilization: float,
        frequency_khz: float,
        predict_screen: bool = True,
    ) -> SkinScreenPrediction:
        """Predict directly from a sensor-suite reading dictionary."""
        features = PredictionFeatures.from_readings(sensor_readings, utilization, frequency_khz)
        return self.predict(features, predict_screen=predict_screen)

    def measure_overhead(
        self, features: Sequence[PredictionFeatures], repeats: int = 10
    ) -> Dict[str, float]:
        """Measure the prediction latency (the paper reports ~12 ms per window).

        Returns mean per-prediction latency for the skin model alone and for
        skin + screen together, in seconds.
        """
        if not features:
            raise ValueError("need at least one feature sample to measure overhead")
        vectors = np.vstack([f.as_vector() for f in features])

        start = time.perf_counter()
        for _ in range(repeats):
            for row in vectors:
                self.skin_model.predict(row.reshape(1, -1))
        skin_latency = (time.perf_counter() - start) / (repeats * len(features))

        both_latency = skin_latency
        if self.screen_model is not None:
            start = time.perf_counter()
            for _ in range(repeats):
                for row in vectors:
                    self.screen_model.predict(row.reshape(1, -1))
            screen_latency = (time.perf_counter() - start) / (repeats * len(features))
            both_latency = skin_latency + screen_latency

        return {
            "skin_latency_s": skin_latency,
            "total_latency_s": both_latency,
        }


#: Cache of deterministically trained predictors, keyed by recipe parameters,
#: so many spec-built experiment cells in one process train at most once.
_TRAINED_CACHE: Dict[Tuple, RuntimePredictor] = {}

#: Per-process cache traffic of :func:`build_trained_predictor` — how often a
#: recipe was answered from memory, resolved from the disk artifact cache, or
#: actually collected-and-trained (the expensive path the cache exists to
#: avoid).  Read via :func:`predictor_cache_stats`.
_CACHE_STATS: Dict[str, int] = {"memory_hits": 0, "disk_hits": 0, "trained": 0, "stored": 0}


def predictor_cache_stats() -> Dict[str, int]:
    """This process's trained-predictor cache counters (a copy)."""
    return dict(_CACHE_STATS)


def reset_predictor_caches() -> None:
    """Clear the in-memory recipe cache and counters (testing hook).

    The disk artifact cache is untouched — point ``REPRO_ARTIFACT_DIR``
    somewhere else (or at ``off``) to isolate it.
    """
    _TRAINED_CACHE.clear()
    for name in _CACHE_STATS:
        _CACHE_STATS[name] = 0


@register_predictor("trained")
def build_trained_predictor(
    model: str = "reptree",
    seed: int = 0,
    duration_scale: float = 1.0,
    benchmarks: Optional[Sequence[str]] = None,
    include_screen: bool = True,
    log_period_s: float = 3.0,
) -> RuntimePredictor:
    """Reproduce the paper's offline pipeline deterministically from a recipe.

    This is the registered builder behind ``PredictorSpec(kind="trained")``:
    collect logging data by running the benchmark suite under the baseline
    governor, then train the named learner on the pooled dataset.  The same
    recipe always yields the same predictor, which is what makes spec-built
    policies reproducible without shipping model weights.

    Resolution is two-level: an in-process memo (many cells of one sweep
    share one training run), then the content-addressed disk cache of
    :mod:`repro.runtime.artifacts` (many *processes* — fleet workers, repeated
    sweeps, ``repro serve`` restarts — share one trained artifact).  Only a
    cold miss on both levels collects data and trains.
    """
    key = (
        model,
        seed,
        duration_scale,
        tuple(benchmarks) if benchmarks is not None else None,
        include_screen,
        log_period_s,
    )
    if key in _TRAINED_CACHE:
        _CACHE_STATS["memory_hits"] += 1
        return _TRAINED_CACHE[key]

    # Imported lazily: the runtime and pipeline layers sit above this module.
    from ..runtime.artifacts import (
        configured_artifact_cache,
        predictor_content_key,
        training_data_sha,
    )

    cache = configured_artifact_cache()
    content_key = predictor_content_key(
        "trained",
        {
            "model": model,
            "seed": seed,
            "duration_scale": duration_scale,
            "benchmarks": list(benchmarks) if benchmarks is not None else None,
            "include_screen": include_screen,
            "log_period_s": log_period_s,
        },
    )
    if cache is not None:
        cached = cache.resolve(content_key)
        if cached is not None:
            _CACHE_STATS["disk_hits"] += 1
            _TRAINED_CACHE[key] = cached
            return cached

    from .pipeline import collect_training_data, train_runtime_predictor

    data = collect_training_data(
        benchmarks=benchmarks,
        seed=seed,
        log_period_s=log_period_s,
        duration_scale=duration_scale,
    )
    predictor = train_runtime_predictor(
        data, model_name=model, include_screen=include_screen, seed=seed
    )
    _CACHE_STATS["trained"] += 1
    if cache is not None:
        cache.store(content_key, training_data_sha(data), predictor)
        _CACHE_STATS["stored"] += 1
    _TRAINED_CACHE[key] = predictor
    return predictor
