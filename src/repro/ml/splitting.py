"""Shared split-search machinery for the tree learners (REPTree, M5P).

Both tree learners grow binary regression trees by picking, at every node, the
(feature, threshold) pair that maximally reduces the target variance of the
node.  The search is exact and runs as array operations:

* every feature column is stably sorted once, at the root; a child's sorted
  order is its parent's order filtered by the split mask, which is exactly the
  order a fresh stable sort of the child would give (ties keep row order), so
  the prefix sums add in the same order a per-node sort would;
* :func:`grow_tree` grows level by level: the nodes of one depth are searched
  together, padded into ``(nodes, features, positions)`` blocks (nodes of
  similar size share a block, so padding at most doubles the work);
* every threshold of every feature is scored at once, with the scalar
  formula's elementwise order (``left_sq / n - (left_sum / n) ** 2``, the
  ``**`` being libm ``pow`` like Python's), and ties go to the first maximum
  in (feature, position) order.

Per-node totals (mean, sum, sum of squares, variance) are numpy pairwise sums
over the node's targets in row order; nodes of equal size are summed as the
rows of one matrix, which numpy reduces row by row with the same pairwise
kernel.  A grown tree is therefore bit-identical to one grown recursively by
calling :func:`find_best_split` on every node's own rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

__all__ = ["SplitCandidate", "find_best_split", "grow_tree", "segment_sums"]


@dataclass(frozen=True)
class SplitCandidate:
    """The best split found for a node."""

    feature_index: int
    threshold: float
    score: float
    left_count: int
    right_count: int


def segment_sums(values: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``np.sum`` of every contiguous segment ``values[start:start + count]``.

    Bit for bit: segments of one size are summed as the rows of one matrix,
    which numpy reduces row by row with the same pairwise kernel it uses on a
    lone segment.  An empty segment sums to 0.0.
    """
    sums = np.zeros(len(counts))
    for size in np.unique(counts).tolist():
        segments = np.flatnonzero(counts == size)
        sums[segments] = values[starts[segments, None] + np.arange(size)].sum(axis=1)
    return sums


def _node_totals(
    targets: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-node ``(mean, sum, sum of squares, variance)`` of contiguous segments.

    Each value equals what ``np.mean``/``sum``/``np.square(..).sum()``/
    ``np.var`` return on the node's own target array.
    """
    sums = segment_sums(targets, starts, counts)
    squares = segment_sums(np.square(targets), starts, counts)
    with np.errstate(invalid="ignore", divide="ignore"):
        means = sums / counts
        deviations = np.square(targets - np.repeat(means, counts))
        variances = segment_sums(deviations, starts, counts) / counts
    return means, sums, squares, variances


def _best_splits(
    values: np.ndarray,
    targets: np.ndarray,
    counts: np.ndarray,
    sums: np.ndarray,
    squares: np.ndarray,
    variances: np.ndarray,
    min_leaf: int,
) -> Tuple[np.ndarray, ...]:
    """Score every threshold of a padded block of nodes and pick each node's best.

    Args:
        values, targets: ``(nodes, features, width)`` sorted feature values and
            the matching targets; entries past a node's count are padding.
        counts, sums, squares, variances: per-node totals.

    Returns:
        ``(node, feature, position, threshold, score)`` arrays, one entry per
        node that has an improving split; ``position`` is the last row index
        of the left side in the node's sorted order.
    """
    prefix_sum = np.cumsum(targets, axis=2)
    prefix_sq = np.cumsum(np.square(targets), axis=2)
    position = np.arange(values.shape[2] - 1)
    in_range = (position >= min_leaf - 1) & (position < (counts - min_leaf)[:, None])
    valid = (values[:, :, :-1] != values[:, :, 1:]) & in_range[:, None, :]
    node, feature, position = np.nonzero(valid)
    n = counts[node]
    left_n = position + 1
    right_n = n - left_n
    left_sum = prefix_sum[node, feature, position]
    left_sq = prefix_sq[node, feature, position]
    right_sum = sums[node] - left_sum
    right_sq = squares[node] - left_sq
    left_var = left_sq / left_n - np.float_power(left_sum / left_n, 2)
    right_var = right_sq / right_n - np.float_power(right_sum / right_n, 2)
    weighted = (left_n * left_var + right_n * right_var) / n
    reduction = variances[node] - weighted

    improving = reduction > 0
    node = node[improving]
    feature = feature[improving]
    position = position[improving]
    reduction = reduction[improving]
    if node.size == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty, empty, np.empty(0), np.empty(0)
    # First maximum per node, in (feature, position) order (np.nonzero order).
    starts = np.flatnonzero(np.r_[True, node[1:] != node[:-1]])
    best = np.maximum.reduceat(reduction, starts)
    hits = np.flatnonzero(reduction == np.repeat(best, np.diff(np.r_[starts, node.size])))
    first = hits[np.r_[True, node[hits][1:] != node[hits][:-1]]]
    node = node[first]
    feature = feature[first]
    position = position[first]
    threshold = 0.5 * (values[node, feature, position] + values[node, feature, position + 1])
    return node, feature, position, threshold, reduction[first]


def find_best_split(
    features: np.ndarray,
    target: np.ndarray,
    min_leaf: int,
) -> Optional[SplitCandidate]:
    """Find the variance-reduction-maximising binary split of a node.

    Args:
        features: (n, d) feature matrix of the node's instances.
        target: (n,) target values of the node's instances.
        min_leaf: minimum number of instances each side must keep.

    Returns:
        The best :class:`SplitCandidate`, or ``None`` when no legal split
        improves on the unsplit node (e.g. all targets equal, or too few
        instances).
    """
    n, d = features.shape
    if n < 2 * min_leaf:
        return None
    counts = np.array([n])
    _, sums, squares, variances = _node_totals(target, np.zeros(1, dtype=np.intp), counts)
    if variances[0] <= 0.0:
        return None
    order = np.argsort(features, axis=0, kind="stable").T
    values = np.take_along_axis(features.T, order, axis=1)
    node, feature, position, threshold, score = _best_splits(
        values[None], target[order][None], counts, sums, squares, variances, min_leaf
    )
    if node.size == 0:
        return None
    left_n = int(position[0]) + 1
    return SplitCandidate(
        feature_index=int(feature[0]),
        threshold=float(threshold[0]),
        score=float(score[0]),
        left_count=left_n,
        right_count=n - left_n,
    )


def grow_tree(
    features: np.ndarray,
    target: np.ndarray,
    min_leaf: int,
    make_node: Callable[[float, int], object],
    max_depth: Optional[int] = None,
    min_std: float = 0.0,
):
    """Grow a variance-reduction tree level by level; returns the root node.

    ``make_node(mean, count)`` builds each node (``mean`` as ``np.mean`` of
    the node's targets); split nodes get ``feature_index``, ``threshold``,
    ``left`` and ``right`` set.  A node becomes a leaf when it is at
    ``max_depth``, holds fewer than ``2 * min_leaf`` rows, its target standard
    deviation is below ``min_std``, no split improves on it, or the split
    mask ``features[:, feature_index] <= threshold`` keeps every row on one
    side.  The tree equals the one a recursive grower builds with
    :func:`find_best_split` and that mask.
    """
    features = np.asarray(features, dtype=float)
    target = np.asarray(target, dtype=float)
    n_rows, d = features.shape
    columns = np.ascontiguousarray(features.T)
    feature_axis = np.arange(d)[None, :, None]
    # The level's rows, grouped by node (nodes in level order, rows ascending
    # within a node), and per feature the same rows sorted by that feature.
    rows = np.arange(n_rows)
    order = np.argsort(features, axis=0, kind="stable").T
    counts = np.array([n_rows])
    parents = [None]
    root = None
    depth = 0
    while counts.size:
        starts = np.cumsum(counts) - counts
        means, sums, squares, variances = _node_totals(target[rows], starts, counts)
        nodes = [make_node(m, c) for m, c in zip(means.tolist(), counts.tolist())]
        for i, node in enumerate(nodes):
            parent = parents[i // 2]
            if parent is None:
                root = node
            elif i % 2 == 0:
                parent.left = node
            else:
                parent.right = node
        if max_depth is not None and depth >= max_depth:
            break
        with np.errstate(invalid="ignore"):
            searchable = (
                (counts >= 2 * min_leaf) & (variances > 0.0) & ~(np.sqrt(variances) < min_std)
            )
        candidates = np.flatnonzero(searchable)
        candidates = candidates[np.argsort(-counts[candidates], kind="stable")]

        split_feature = np.full(len(counts), -1)
        split_threshold = np.zeros(len(counts))
        first = 0
        while first < candidates.size:
            # One padded block per run of nodes at least half the largest's size.
            width = int(counts[candidates[first]])
            last = first + int(np.count_nonzero(counts[candidates[first:]] * 2 >= width))
            block = candidates[first:last]
            first = last
            index = np.minimum(starts[block, None] + np.arange(width), len(rows) - 1)
            block_order = order[:, index].transpose(1, 0, 2)
            node, feature, _, threshold, _ = _best_splits(
                columns[feature_axis, block_order],
                target[block_order],
                counts[block],
                sums[block],
                squares[block],
                variances[block],
                min_leaf,
            )
            split_feature[block[node]] = feature
            split_threshold[block[node]] = threshold

        # Route the rows of every split node.  A threshold can round up onto
        # the next value (0.5 * (a + b) == b for neighbouring floats) and send
        # a whole node one way; such a node stays a leaf instead of repeating
        # itself one level down forever.
        segment = np.repeat(np.arange(len(counts)), counts)
        routed = split_feature[segment] >= 0
        goes_left = np.zeros(n_rows, dtype=bool)
        goes_left[rows[routed]] = (
            columns[split_feature[segment[routed]], rows[routed]]
            <= split_threshold[segment[routed]]
        )
        n_left = np.bincount(segment[routed & goes_left[rows]], minlength=len(counts))
        split_feature[(n_left == 0) | (n_left == counts)] = -1

        split = np.flatnonzero(split_feature >= 0)
        for i, f, t in zip(
            split.tolist(), split_feature[split].tolist(), split_threshold[split].tolist()
        ):
            nodes[i].feature_index = f
            nodes[i].threshold = t
        parents = [nodes[i] for i in split.tolist()]
        if not parents:
            break

        # Partition the split nodes' rows into children, left then right, each
        # keeping its parent's row order and per-feature sorted order.
        keep = split_feature[segment] >= 0
        rows = rows[keep]
        order = order[:, keep]
        segment = segment[keep]
        rank = np.cumsum(split_feature >= 0) - 1
        child_base = 2 * rank[segment]
        child = child_base + ~goes_left[rows]
        rows = rows[np.argsort(child, kind="stable")]
        child_of_order = child_base + ~goes_left[order]
        order = np.take_along_axis(order, np.argsort(child_of_order, axis=1, kind="stable"), 1)
        counts = np.bincount(child, minlength=2 * len(parents))
        depth += 1
    return root
