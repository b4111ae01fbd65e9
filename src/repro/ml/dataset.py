"""Tabular dataset container for the regression models.

WEKA's ARFF instances are replaced by a small NumPy-backed :class:`Dataset`
that couples a feature matrix with a target vector and keeps feature names
around so trained trees / linear models can be printed meaningfully.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Dataset"]


@dataclass
class Dataset:
    """A regression dataset: features ``X``, target ``y`` and their names.

    Attributes:
        features: (n_samples, n_features) float array.
        target: (n_samples,) float array.
        feature_names: one name per feature column.
        target_name: name of the predicted quantity.
    """

    features: np.ndarray
    target: np.ndarray
    feature_names: Tuple[str, ...]
    target_name: str = "target"

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=float)
        self.target = np.asarray(self.target, dtype=float)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if self.target.ndim != 1:
            raise ValueError("target must be a 1-D array")
        if self.features.shape[0] != self.target.shape[0]:
            raise ValueError("features and target must have the same number of rows")
        if len(self.feature_names) != self.features.shape[1]:
            raise ValueError("feature_names must match the number of feature columns")
        self.feature_names = tuple(self.feature_names)
        # A NaN or inf silently corrupts every learner (RepTree fits a garbage
        # tree, M5P's least squares fail inside LAPACK), so refuse it here.
        if not np.isfinite(self.features).all():
            row, column = (int(i) for i in np.argwhere(~np.isfinite(self.features))[0])
            raise ValueError(
                f"non-finite feature at row {row}, column {column} "
                f"({self.feature_names[column]!r}): {self.features[row, column]}"
            )
        if not np.isfinite(self.target).all():
            row = int(np.flatnonzero(~np.isfinite(self.target))[0])
            raise ValueError(
                f"non-finite target at row {row} ({self.target_name!r}): {self.target[row]}"
            )

    # -- basic protocol -----------------------------------------------------------

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        """Number of feature columns."""
        return self.features.shape[1]

    @property
    def is_empty(self) -> bool:
        """True when there are no rows."""
        return len(self) == 0

    # -- construction ---------------------------------------------------------------

    @classmethod
    def from_records(
        cls,
        records: Iterable[Mapping[str, float]],
        feature_names: Sequence[str],
        target_name: str,
    ) -> "Dataset":
        """Build a dataset from dict-like records (e.g. system-log rows)."""
        rows: List[List[float]] = []
        targets: List[float] = []
        for record in records:
            rows.append([float(record[name]) for name in feature_names])
            targets.append(float(record[target_name]))
        features = np.array(rows, dtype=float) if rows else np.empty((0, len(feature_names)))
        return cls(
            features=features,
            target=np.array(targets, dtype=float),
            feature_names=tuple(feature_names),
            target_name=target_name,
        )

    # -- manipulation -----------------------------------------------------------------

    def subset(self, indices: Sequence[int] | np.ndarray) -> "Dataset":
        """A new dataset containing only the given row indices."""
        idx = np.asarray(indices, dtype=int)
        return Dataset(
            features=self.features[idx],
            target=self.target[idx],
            feature_names=self.feature_names,
            target_name=self.target_name,
        )

    def shuffled(self, seed: int = 0) -> "Dataset":
        """A row-shuffled copy (deterministic for a given seed)."""
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(self))
        return self.subset(order)

    def split(self, fraction: float, seed: Optional[int] = None) -> Tuple["Dataset", "Dataset"]:
        """Split into two datasets: the first gets ``fraction`` of the rows.

        When ``seed`` is given the rows are shuffled first; otherwise the split
        preserves row order (useful for time-ordered data).
        """
        if not 0.0 < fraction < 1.0:
            raise ValueError("fraction must be strictly between 0 and 1")
        data = self.shuffled(seed) if seed is not None else self
        cut = int(round(fraction * len(data)))
        cut = max(1, min(len(data) - 1, cut))
        first = data.subset(np.arange(cut))
        second = data.subset(np.arange(cut, len(data)))
        return first, second

    def with_target(self, target: np.ndarray, target_name: str) -> "Dataset":
        """A copy of this dataset with a different target column."""
        return Dataset(
            features=self.features,
            target=np.asarray(target, dtype=float),
            feature_names=self.feature_names,
            target_name=target_name,
        )

    def feature_column(self, name: str) -> np.ndarray:
        """The values of one feature column, by name."""
        try:
            index = self.feature_names.index(name)
        except ValueError:
            raise KeyError(f"unknown feature {name!r}") from None
        return self.features[:, index]

    def describe(self) -> Dict[str, Dict[str, float]]:
        """Per-column summary statistics (min / max / mean / std)."""
        summary: Dict[str, Dict[str, float]] = {}
        for i, name in enumerate(self.feature_names):
            column = self.features[:, i]
            summary[name] = {
                "min": float(np.min(column)) if len(column) else float("nan"),
                "max": float(np.max(column)) if len(column) else float("nan"),
                "mean": float(np.mean(column)) if len(column) else float("nan"),
                "std": float(np.std(column)) if len(column) else float("nan"),
            }
        summary[self.target_name] = {
            "min": float(np.min(self.target)) if len(self.target) else float("nan"),
            "max": float(np.max(self.target)) if len(self.target) else float("nan"),
            "mean": float(np.mean(self.target)) if len(self.target) else float("nan"),
            "std": float(np.std(self.target)) if len(self.target) else float("nan"),
        }
        return summary
