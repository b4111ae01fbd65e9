"""REPTree: a fast regression tree with reduced-error pruning.

This is the model the paper ends up deploying on the phone ("REPtree builds
faster than M5P and does not cause halting.  Thus, we have chosen REPtree to
implement").  The WEKA algorithm:

1. grow a binary regression tree by variance reduction, with a minimum number
   of instances per leaf and an optional maximum depth;
2. hold out a fraction of the training data as a *pruning set* and replace any
   subtree whose pruning-set error is not better than that of a leaf with that
   leaf (reduced-error pruning).

Prediction at a leaf is the mean training target of the leaf.  The fitted
tree is kept as flat node arrays: a large feature matrix descends it one tree
level at a time, a small one walks it row by row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .base import Regressor, register_model
from .dataset import Dataset
from .splitting import grow_tree, segment_sums

__all__ = ["RepTree"]


@dataclass
class _Node:
    """One node of the regression tree."""

    prediction: float
    count: int
    feature_index: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None or self.right is None

    def to_leaf(self) -> None:
        """Collapse this node into a leaf."""
        self.left = None
        self.right = None
        self.feature_index = -1


@register_model
class RepTree(Regressor):
    """Variance-reduction regression tree with reduced-error pruning.

    Attributes:
        min_leaf: minimum instances per leaf.
        max_depth: depth cap (``None`` = unlimited).
        prune: whether to perform reduced-error pruning.
        prune_fraction: fraction of training data held out as the pruning set.
        seed: seed for the train/prune split.
    """

    name = "reptree"

    def __init__(
        self,
        min_leaf: int = 5,
        max_depth: Optional[int] = None,
        prune: bool = True,
        prune_fraction: float = 0.25,
        seed: int = 0,
    ):
        super().__init__()
        if min_leaf < 1:
            raise ValueError("min_leaf must be at least 1")
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be at least 1 when given")
        if not 0.0 < prune_fraction < 1.0:
            raise ValueError("prune_fraction must be strictly between 0 and 1")
        self.min_leaf = min_leaf
        self.max_depth = max_depth
        self.prune = prune
        self.prune_fraction = prune_fraction
        self.seed = seed
        self._feature_names: Tuple[str, ...] = ()
        self._value: Optional[np.ndarray] = None

    # -- training --------------------------------------------------------------------

    def _fit(self, data: Dataset) -> None:
        self._feature_names = data.feature_names
        if self.prune and len(data) >= 4 * self.min_leaf:
            grow_set, prune_set = data.split(1.0 - self.prune_fraction, seed=self.seed)
        else:
            grow_set, prune_set = data, None

        root = self._grow(grow_set.features, grow_set.target)
        if prune_set is not None and not prune_set.is_empty:
            self._reduced_error_prune(root, prune_set.features, prune_set.target)
        self._flatten(root)

    def _grow(self, features: np.ndarray, target: np.ndarray) -> _Node:
        return grow_tree(features, target, self.min_leaf, _Node, max_depth=self.max_depth)

    def _reduced_error_prune(self, root: _Node, features: np.ndarray, target: np.ndarray) -> None:
        """Reduced-error pruning against the held-out pruning set.

        The pruning rows descend the grown tree one level at a time, which
        gives every node's leaf error (squared error of its prediction over
        the rows reaching it, summed in row order).  Then, bottom-up, a
        subtree whose error is not below its root's leaf error collapses into
        that leaf (``<=``, as WEKA does).
        """
        leaf_error = {}
        level = [root]
        rows = np.arange(len(target))
        counts = np.array([len(target)])
        while level:
            starts = np.cumsum(counts) - counts
            predictions = np.repeat([node.prediction for node in level], counts)
            errors = segment_sums(np.square(target[rows] - predictions), starts, counts)
            for node, error in zip(level, errors.tolist()):
                leaf_error[id(node)] = error
            is_split = np.array([not node.is_leaf for node in level])
            segment = np.repeat(np.arange(len(level)), counts)
            routed = is_split[segment]
            rows, segment = rows[routed], segment[routed]
            feature = np.array([node.feature_index for node in level])[segment]
            threshold = np.array([node.threshold for node in level])[segment]
            # Children in level order, left then right, rows kept in order.
            child = 2 * (np.cumsum(is_split) - 1)[segment] + ~(features[rows, feature] <= threshold)
            rows = rows[np.argsort(child, kind="stable")]
            counts = np.bincount(child, minlength=2 * int(is_split.sum()))
            level = [side for node in level if not node.is_leaf for side in (node.left, node.right)]

        def collapse(node: _Node) -> float:
            error = leaf_error[id(node)]
            if node.is_leaf:
                return error
            subtree_error = collapse(node.left) + collapse(node.right)
            if error <= subtree_error:
                node.to_leaf()
                return error
            return subtree_error

        collapse(root)

    # -- prediction -------------------------------------------------------------------

    #: Matrix predictions equal row-by-row predictions bit-for-bit: every row
    #: takes the same comparisons down the same flat tree and lands on the
    #: same stored leaf float, however rows are batched.
    batch_row_invariant = True

    #: Batches this large descend as arrays; smaller ones walk row by row.
    #: The descent pays a fixed numpy cost per tree level, which a walk over
    #: Python lists beats below ~80 rows (18-level tree, 2-core x86 host).
    #: Both paths make the same comparisons and return the same leaf floats.
    DESCENT_MIN_ROWS = 64

    def _flatten(self, root: _Node) -> None:
        """Store the fitted tree as parallel arrays, nodes in pre-order.

        A leaf's children point to itself, so a level-by-level descent of
        every row (:meth:`_predict`) can run a fixed number of steps.
        """
        feature: List[int] = []
        threshold: List[float] = []
        left: List[int] = []
        right: List[int] = []
        value: List[float] = []
        count: List[int] = []
        depth = 0

        def add(node: _Node, level: int) -> int:
            nonlocal depth
            depth = max(depth, level)
            index = len(value)
            feature.append(max(node.feature_index, 0))
            threshold.append(node.threshold)
            left.append(index)
            right.append(index)
            value.append(node.prediction)
            count.append(node.count)
            if not node.is_leaf:
                left[index] = add(node.left, level + 1)
                right[index] = add(node.right, level + 1)
            return index

        add(root, 0)
        self._feature = np.array(feature, dtype=np.intp)
        self._threshold = np.array(threshold, dtype=float)
        self._left = np.array(left, dtype=np.intp)
        self._right = np.array(right, dtype=np.intp)
        self._value = np.array(value, dtype=float)
        self._count = count
        self._depth = depth
        # The same nodes as Python scalars, for the row-by-row walk.
        self._nodes = tuple(
            array.tolist()
            for array in (self._feature, self._threshold, self._left, self._right, self._value)
        )

    def _predict(self, features: np.ndarray) -> np.ndarray:
        assert self._value is not None
        if len(features) < self.DESCENT_MIN_ROWS:
            feature, threshold, left, right, value = self._nodes
            leaves = []
            for row in features.tolist():
                node = 0
                while left[node] != node:
                    node = left[node] if row[feature[node]] <= threshold[node] else right[node]
                leaves.append(value[node])
            return np.array(leaves, dtype=float)
        rows = np.arange(len(features))
        node = np.zeros(len(features), dtype=np.intp)
        for _ in range(self._depth):
            go_left = features[rows, self._feature[node]] <= self._threshold[node]
            node = np.where(go_left, self._left[node], self._right[node])
        return self._value[node]

    # -- introspection -------------------------------------------------------------------

    def _require_fitted(self) -> None:
        if self._value is None:
            raise RuntimeError("model is not fitted")

    @property
    def depth(self) -> int:
        """Depth of the fitted tree (a single leaf has depth 0)."""
        self._require_fitted()
        return self._depth

    @property
    def num_leaves(self) -> int:
        """Number of leaves of the fitted tree."""
        self._require_fitted()
        return int(np.count_nonzero(self._left == np.arange(len(self._left))))

    def describe(self, max_depth: int = 4) -> str:
        """A textual rendering of the top of the tree (for debugging / docs)."""
        if self._value is None:
            return "RepTree (not fitted)"
        lines: List[str] = []

        def walk(index: int, depth: int, prefix: str) -> None:
            indent = "  " * depth
            left = int(self._left[index])
            if left == index or depth >= max_depth:
                lines.append(
                    f"{indent}{prefix}-> {self._value[index]:.2f} (n={self._count[index]})"
                )
                return
            name = self._feature_names[self._feature[index]]
            lines.append(f"{indent}{prefix}{name} <= {self._threshold[index]:.3f}?")
            walk(left, depth + 1, "yes: ")
            walk(int(self._right[index]), depth + 1, "no:  ")

        walk(0, 0, "")
        return "\n".join(lines)
