"""Common interface for the regression models (the WEKA-algorithm substitutes)."""

from __future__ import annotations

import abc
from typing import Dict, Type

import numpy as np

from .dataset import Dataset

__all__ = ["Regressor", "MODEL_REGISTRY", "register_model", "create_model"]


class Regressor(abc.ABC):
    """Base class for all regression models.

    The interface intentionally mirrors how WEKA classifiers are used in the
    paper: ``fit`` on a training :class:`Dataset`, then ``predict`` feature
    rows.  Models must raise ``RuntimeError`` when asked to predict before
    being fitted.
    """

    #: Name used by the registry / benchmark harness (mirrors the WEKA name).
    name: str = "regressor"

    def __init__(self) -> None:
        self._fitted = False

    @property
    def is_fitted(self) -> bool:
        """True once :meth:`fit` has completed."""
        return self._fitted

    def fit(self, data: Dataset) -> "Regressor":
        """Train the model on a dataset and return ``self``."""
        if data.is_empty:
            raise ValueError("cannot fit on an empty dataset")
        self._fit(data)
        self._fitted = True
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict targets for a (n_samples, n_features) feature matrix."""
        return self.predict_matrix(np.atleast_2d(np.asarray(features, dtype=float)))

    def predict_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Predict for a 2-D float64 feature matrix the caller has already
        validated (no conversion, no copy)."""
        if not self._fitted:
            raise RuntimeError(f"{type(self).__name__} must be fitted before predicting")
        return self._predict(matrix)

    def predict_one(self, features: np.ndarray) -> float:
        """Predict a single row of features."""
        return float(self.predict(np.atleast_2d(features))[0])

    @abc.abstractmethod
    def _fit(self, data: Dataset) -> None:
        """Model-specific training."""

    @abc.abstractmethod
    def _predict(self, features: np.ndarray) -> np.ndarray:
        """Model-specific prediction on a validated 2-D feature matrix."""


#: Registry of model name → class, mirroring the four WEKA algorithms the paper uses.
MODEL_REGISTRY: Dict[str, Type[Regressor]] = {}


def register_model(cls: Type[Regressor]) -> Type[Regressor]:
    """Class decorator adding a model to :data:`MODEL_REGISTRY`."""
    MODEL_REGISTRY[cls.name] = cls
    return cls


def create_model(name: str, **kwargs) -> Regressor:
    """Instantiate a registered model by name."""
    try:
        cls = MODEL_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(MODEL_REGISTRY))
        raise KeyError(f"unknown model {name!r}; known models: {known}") from None
    return cls(**kwargs)
