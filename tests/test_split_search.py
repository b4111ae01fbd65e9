"""The vectorized split search and level-wise grower against the scalar search.

``oracle_find_best_split`` is the per-threshold Python loop the tree learners
used before the search was vectorized.  The vectorized search must return the
same candidate (same score and threshold bits) and the level-wise grower must
build the same trees as a recursive grower calling the oracle on every node
(and, for REPTree, pruning recursively on the split-filtered pruning rows).
The oracle growers keep a node whose split mask sends every row left as a
leaf, like the grower does (recursing on it again never terminates).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from hypothesis import given, strategies as st

from repro.ml.dataset import Dataset
from repro.ml.m5p import M5ModelTree
from repro.ml.m5p import _Node as M5Node
from repro.ml.reptree import RepTree
from repro.ml.reptree import _Node as RepNode
from repro.ml.splitting import SplitCandidate, find_best_split


def oracle_find_best_split(
    features: np.ndarray, target: np.ndarray, min_leaf: int
) -> Optional[SplitCandidate]:
    n, d = features.shape
    if n < 2 * min_leaf:
        return None
    total_var = float(np.var(target))
    if total_var <= 0.0:
        return None

    best: Optional[SplitCandidate] = None
    total_sum = float(target.sum())
    total_sq = float(np.square(target).sum())

    for feature_index in range(d):
        column = features[:, feature_index]
        order = np.argsort(column, kind="mergesort")
        sorted_values = column[order]
        sorted_target = target[order]

        prefix_sum = np.cumsum(sorted_target)
        prefix_sq = np.cumsum(np.square(sorted_target))

        for i in range(min_leaf - 1, n - min_leaf):
            if sorted_values[i] == sorted_values[i + 1]:
                continue
            left_n = i + 1
            right_n = n - left_n
            left_sum = float(prefix_sum[i])
            left_sq = float(prefix_sq[i])
            right_sum = total_sum - left_sum
            right_sq = total_sq - left_sq

            left_var = left_sq / left_n - (left_sum / left_n) ** 2
            right_var = right_sq / right_n - (right_sum / right_n) ** 2
            weighted = (left_n * left_var + right_n * right_var) / n
            reduction = total_var - weighted
            if reduction <= 0:
                continue

            if best is None or reduction > best.score:
                threshold = 0.5 * (sorted_values[i] + sorted_values[i + 1])
                best = SplitCandidate(
                    feature_index=feature_index,
                    threshold=float(threshold),
                    score=float(reduction),
                    left_count=left_n,
                    right_count=right_n,
                )
    return best


class OracleRepTree(RepTree):
    """RepTree grown and pruned recursively, with the oracle search."""

    def _reduced_error_prune(self, node, features, target):
        leaf_error = float(np.sum((target - node.prediction) ** 2)) if len(target) else 0.0
        if node.is_leaf:
            return leaf_error
        mask = features[:, node.feature_index] <= node.threshold
        left_error = self._reduced_error_prune(node.left, features[mask], target[mask])
        right_error = self._reduced_error_prune(node.right, features[~mask], target[~mask])
        subtree_error = left_error + right_error
        if leaf_error <= subtree_error:
            node.to_leaf()
            return leaf_error
        return subtree_error

    def _grow(self, features, target, depth=0):
        node = RepNode(prediction=float(np.mean(target)), count=len(target))
        if self.max_depth is not None and depth >= self.max_depth:
            return node
        split = oracle_find_best_split(features, target, self.min_leaf)
        if split is None:
            return node
        mask = features[:, split.feature_index] <= split.threshold
        if mask.all():
            return node
        node.feature_index = split.feature_index
        node.threshold = split.threshold
        node.left = self._grow(features[mask], target[mask], depth + 1)
        node.right = self._grow(features[~mask], target[~mask], depth + 1)
        return node


class OracleM5ModelTree(M5ModelTree):
    """M5ModelTree grown recursively with the oracle search."""

    def _grow(self, features, target, depth=0):
        node = M5Node(mean=float(np.mean(target)), count=len(target))
        if (
            len(target) < 2 * self.min_leaf
            or float(np.std(target)) < 0.05 * self._global_std
            or (self.max_depth is not None and depth >= self.max_depth)
        ):
            return node
        split = oracle_find_best_split(features, target, self.min_leaf)
        if split is None:
            return node
        mask = features[:, split.feature_index] <= split.threshold
        if mask.all():
            return node
        node.feature_index = split.feature_index
        node.threshold = split.threshold
        node.left = self._grow(features[mask], target[mask], depth + 1)
        node.right = self._grow(features[~mask], target[~mask], depth + 1)
        return node


def _bits(candidate: Optional[SplitCandidate]):
    if candidate is None:
        return None
    return (
        candidate.feature_index,
        candidate.threshold.hex(),
        candidate.score.hex(),
        candidate.left_count,
        candidate.right_count,
    )


# Few distinct values per column: heavy ties, and targets that repeat.
tied = st.sampled_from([-2.0, 0.0, 0.5, 1.0, 3.25, 40.1])
spread = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def nodes(draw, max_rows=40):
    d = draw(st.integers(1, 4))
    min_leaf = draw(st.integers(1, 6))
    # Bias the row count towards the 2 * min_leaf boundary.
    n = draw(
        st.one_of(
            st.integers(max(1, 2 * min_leaf - 1), 2 * min_leaf + 2),
            st.integers(1, max_rows),
        )
    )
    values = draw(st.sampled_from([tied, spread]))
    features = np.array(
        draw(st.lists(st.lists(values, min_size=d, max_size=d), min_size=n, max_size=n))
    ).reshape(n, d)
    if draw(st.booleans()):
        target = np.full(n, draw(spread))
    else:
        target = np.array(draw(st.lists(st.one_of(tied, spread), min_size=n, max_size=n)))
    return features, target, min_leaf


@given(nodes())
def test_vectorized_search_matches_the_scalar_oracle(node):
    features, target, min_leaf = node
    assert _bits(find_best_split(features, target, min_leaf)) == _bits(
        oracle_find_best_split(features, target, min_leaf)
    )


def test_search_on_a_single_feature_with_ties():
    x = np.array([[1.0], [1.0], [2.0], [2.0], [2.0], [5.0], [5.0], [9.0]])
    y = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
    for min_leaf in (1, 2, 3, 4, 5):
        assert _bits(find_best_split(x, y, min_leaf)) == _bits(
            oracle_find_best_split(x, y, min_leaf)
        )


def _rep_arrays(model: RepTree):
    return [
        getattr(model, name).tobytes()
        for name in ("_feature", "_threshold", "_left", "_right", "_value")
    ] + [model._count]


def _dataset(features, target):
    names = tuple(f"x{i}" for i in range(features.shape[1]))
    return Dataset(features=features, target=target, feature_names=names)


@given(nodes(max_rows=120), st.booleans(), st.sampled_from([None, 1, 3]))
def test_reptree_fit_equals_the_oracle_grown_tree(node, prune, max_depth):
    features, target, min_leaf = node
    data = _dataset(features, target)
    params = dict(min_leaf=min_leaf, prune=prune, max_depth=max_depth, seed=3)
    fast = RepTree(**params).fit(data)
    oracle = OracleRepTree(**params).fit(data)
    assert _rep_arrays(fast) == _rep_arrays(oracle)


@given(nodes(max_rows=120), st.sampled_from([None, 2]))
def test_m5p_fit_equals_the_oracle_grown_tree(node, max_depth):
    features, target, min_leaf = node
    data = _dataset(features, target)
    params = dict(min_leaf=max(2, min_leaf), max_depth=max_depth)
    fast = M5ModelTree(**params).fit(data)
    oracle = OracleM5ModelTree(**params).fit(data)
    assert (fast.num_leaves, fast.depth) == (oracle.num_leaves, oracle.depth)
    assert fast.predict(features).tobytes() == oracle.predict(features).tobytes()


def test_deep_trees_equal_the_oracle_on_tied_sensor_like_data():
    rng = np.random.default_rng(7)
    n = 1500
    features = np.column_stack(
        [
            np.round(rng.normal(45.0, 6.0, n), 1),
            np.round(rng.normal(33.0, 2.0, n), 1),
            np.clip(np.round(rng.uniform(0, 1.2, n), 2), 0, 1),
            rng.choice([384e3, 594e3, 810e3, 1026e3, 1512e3], n),
        ]
    )
    target = 0.3 * features[:, 0] + 0.5 * features[:, 1] + rng.normal(0, 0.4, n)
    data = _dataset(features, target)
    assert _rep_arrays(RepTree(seed=1).fit(data)) == _rep_arrays(OracleRepTree(seed=1).fit(data))
    fast = M5ModelTree().fit(data)
    oracle = OracleM5ModelTree().fit(data)
    assert fast.predict(features).tobytes() == oracle.predict(features).tobytes()


def test_a_threshold_rounding_onto_the_upper_value_leaves_a_leaf():
    # 0.5 * (a + b) == b for these neighbouring floats, so the mask sends
    # every row left; growing that "split" would repeat the node forever.
    a = 1.0 + np.spacing(1.0)
    b = a + np.spacing(a)
    assert 0.5 * (a + b) == b
    features = np.array([[a]] * 3 + [[b]] * 3)
    target = np.array([0.0, 0.0, 0.0, 5.0, 5.0, 5.0])
    data = _dataset(features, target)
    tree = RepTree(min_leaf=1, prune=False).fit(data)
    assert tree.depth == 0
    assert tree.predict(features).tolist() == [2.5] * 6
    assert M5ModelTree(min_leaf=2).fit(data).depth == 0
