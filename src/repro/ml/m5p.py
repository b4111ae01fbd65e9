"""M5P: a model tree with linear regression models in its leaves.

The second-best (and, with the 1 °C deadband, best) learner in the paper.  The
algorithm follows Quinlan's M5 as implemented in WEKA's ``M5P``:

1. grow a binary tree using *standard deviation reduction* as the split
   criterion;
2. fit a linear model in every interior node and leaf (using the features that
   appear in the subtree below the node);
3. prune bottom-up: replace a subtree with its node's linear model when the
   complexity-penalised estimated error of the linear model is no worse than
   that of the subtree;
4. smooth predictions along the path from the leaf to the root, blending each
   node's linear model with the prediction coming from below
   (``p' = (n*p + k*q) / (n + k)`` with the standard k = 15).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from .base import Regressor, register_model
from .dataset import Dataset
from .splitting import grow_tree

__all__ = ["M5ModelTree"]


@dataclass
class _LinearModel:
    """A per-node linear model restricted to a subset of features."""

    feature_indices: Tuple[int, ...]
    coefficients: np.ndarray
    intercept: float

    def predict(self, row: np.ndarray) -> float:
        if not self.feature_indices:
            return self.intercept
        return float(row[list(self.feature_indices)] @ self.coefficients + self.intercept)

    def predict_many(self, features: np.ndarray) -> np.ndarray:
        if not self.feature_indices:
            return np.full(features.shape[0], self.intercept)
        return features[:, list(self.feature_indices)] @ self.coefficients + self.intercept

    @property
    def num_parameters(self) -> int:
        return len(self.feature_indices) + 1


def _fit_linear(
    features: np.ndarray, target: np.ndarray, feature_indices: Sequence[int], ridge: float = 1e-6
) -> _LinearModel:
    """Fit a ridge-stabilised linear model on a subset of feature columns."""
    indices = tuple(sorted(set(int(i) for i in feature_indices)))
    if not indices or len(target) == 0:
        value = float(np.mean(target)) if len(target) else 0.0
        return _LinearModel(feature_indices=(), coefficients=np.empty(0), intercept=value)
    x = features[:, list(indices)]
    n, d = x.shape
    xb = np.hstack([x, np.ones((n, 1))])
    gram = xb.T @ xb + ridge * np.eye(d + 1)
    solution, *_ = np.linalg.lstsq(gram, xb.T @ target, rcond=None)
    return _LinearModel(
        feature_indices=indices,
        coefficients=solution[:d],
        intercept=float(solution[d]),
    )


@dataclass
class _Node:
    """One node of the model tree."""

    mean: float
    count: int
    model: Optional[_LinearModel] = None
    feature_index: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None or self.right is None

    def to_leaf(self) -> None:
        self.left = None
        self.right = None
        self.feature_index = -1

    def subtree_features(self) -> Set[int]:
        """Indices of the split features used anywhere below (and at) this node."""
        features: Set[int] = set()
        if not self.is_leaf:
            features.add(self.feature_index)
            features |= self.left.subtree_features()
            features |= self.right.subtree_features()
        return features


@register_model
class M5ModelTree(Regressor):
    """M5-style model tree.

    Attributes:
        min_leaf: minimum instances per leaf.
        max_depth: optional depth cap.
        prune: enable complexity-penalised pruning.
        smoothing: enable Quinlan's path smoothing.
        smoothing_constant: the ``k`` in the smoothing formula (WEKA uses 15).
    """

    name = "m5p"

    def __init__(
        self,
        min_leaf: int = 8,
        max_depth: Optional[int] = None,
        prune: bool = True,
        smoothing: bool = True,
        smoothing_constant: float = 15.0,
    ):
        super().__init__()
        if min_leaf < 2:
            raise ValueError("min_leaf must be at least 2 (a leaf fits a linear model)")
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be at least 1 when given")
        if smoothing_constant <= 0:
            raise ValueError("smoothing_constant must be positive")
        self.min_leaf = min_leaf
        self.max_depth = max_depth
        self.prune = prune
        self.smoothing = smoothing
        self.smoothing_constant = smoothing_constant
        self._root: Optional[_Node] = None
        self._feature_names: Tuple[str, ...] = ()
        self._global_std: float = 1.0

    # -- training ---------------------------------------------------------------------

    def _fit(self, data: Dataset) -> None:
        self._feature_names = data.feature_names
        self._global_std = float(np.std(data.target)) or 1.0
        self._root = self._grow(data.features, data.target)
        self._attach_models(self._root, data.features, data.target)
        if self.prune:
            self._prune(self._root, data.features, data.target)

    def _grow(self, features: np.ndarray, target: np.ndarray) -> _Node:
        # M5 stops splitting when the node is nearly pure relative to the
        # global spread (the classic 5% rule) or too small.
        return grow_tree(
            features,
            target,
            self.min_leaf,
            _Node,
            max_depth=self.max_depth,
            min_std=0.05 * self._global_std,
        )

    def _attach_models(self, node: _Node, features: np.ndarray, target: np.ndarray) -> None:
        """Fit a linear model at every node, restricted to its subtree's split features."""
        subtree_features = node.subtree_features()
        node.model = _fit_linear(features, target, subtree_features)
        if node.is_leaf:
            return
        mask = features[:, node.feature_index] <= node.threshold
        self._attach_models(node.left, features[mask], target[mask])
        self._attach_models(node.right, features[~mask], target[~mask])

    def _prune(self, node: _Node, features: np.ndarray, target: np.ndarray) -> float:
        """Bottom-up pruning; returns the (penalised) error estimate of the node."""
        n = max(len(target), 1)
        model_error = self._penalised_error(node.model, features, target)
        if node.is_leaf:
            return model_error

        mask = features[:, node.feature_index] <= node.threshold
        left_error = self._prune(node.left, features[mask], target[mask])
        right_error = self._prune(node.right, features[~mask], target[~mask])
        left_n = max(int(mask.sum()), 1)
        right_n = max(n - int(mask.sum()), 1)
        subtree_error = (left_n * left_error + right_n * right_error) / n

        if model_error <= subtree_error:
            node.to_leaf()
            return model_error
        return subtree_error

    def _penalised_error(
        self, model: Optional[_LinearModel], features: np.ndarray, target: np.ndarray
    ) -> float:
        """Mean absolute error inflated by the M5 complexity factor (n+v)/(n-v)."""
        if model is None or len(target) == 0:
            return 0.0
        predictions = model.predict_many(features)
        mae = float(np.mean(np.abs(target - predictions)))
        n = len(target)
        v = model.num_parameters
        if n > v:
            return mae * (n + v) / (n - v)
        return mae * 2.0

    # -- prediction -------------------------------------------------------------------

    #: Each row is predicted on its own (see _predict), so a matrix predict
    #: equals row-by-row predicts bit-for-bit.
    batch_row_invariant = True

    def _predict(self, features: np.ndarray) -> np.ndarray:
        assert self._root is not None
        return np.array([self._predict_row(row) for row in features])

    def _predict_row(self, row: np.ndarray) -> float:
        assert self._root is not None
        path: List[_Node] = []
        node = self._root
        while not node.is_leaf:
            path.append(node)
            node = node.left if row[node.feature_index] <= node.threshold else node.right

        prediction = node.model.predict(row) if node.model else node.mean
        if not self.smoothing:
            return prediction

        # Quinlan smoothing: blend the prediction upward along the path.
        child_count = node.count
        for parent in reversed(path):
            parent_prediction = parent.model.predict(row) if parent.model else parent.mean
            prediction = (
                child_count * prediction + self.smoothing_constant * parent_prediction
            ) / (child_count + self.smoothing_constant)
            child_count = parent.count
        return prediction

    # -- introspection ------------------------------------------------------------------

    @property
    def num_leaves(self) -> int:
        """Number of leaf linear models."""
        def walk(node: Optional[_Node]) -> int:
            if node is None:
                return 0
            if node.is_leaf:
                return 1
            return walk(node.left) + walk(node.right)

        if self._root is None:
            raise RuntimeError("model is not fitted")
        return walk(self._root)

    @property
    def depth(self) -> int:
        """Depth of the fitted tree."""
        def walk(node: Optional[_Node]) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        if self._root is None:
            raise RuntimeError("model is not fitted")
        return walk(self._root)
