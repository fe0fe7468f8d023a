"""Decision tree with binary numeric splits chosen by information gain
ratio and optional pessimistic error pruning.

Split candidates are midpoints between consecutive distinct sorted values of
a column. Ties on gain ratio go to the lowest column index, then the lowest
threshold, so refits are reproducible. Leaves hold raw class counts; the
majority tie-break is the fixed class order Support < Deny < Query < Comment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional

import numpy as np

from ..errors import ModelError
from .base import (
    CLASS_NAMES,
    N_CLASSES,
    TrainedModel,
    is_finite_number,
    is_index,
    training_matrix,
)

_GAIN_EPS = 1e-12
_PRUNE_SLACK = 0.1


@dataclass(frozen=True)
class TreeParams:
    pruning: bool = True
    confidence: float = 0.25
    min_leaf: int = 2
    max_depth: Optional[int] = None

    def __post_init__(self):
        if not 0 < self.confidence < 1:
            raise ValueError("confidence must be in (0, 1)")
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")


def _entropy(counts) -> float:
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def info_gain_ratio(values, labels, threshold: float) -> float:
    """Gain ratio of the binary split value <= threshold vs. > threshold.

    Returns 0.0 when the split puts everything on one side (zero split
    entropy). Inputs must be equal-length with at least two items.
    """
    if len(values) != len(labels):
        raise ValueError(f"got {len(values)} values but {len(labels)} labels")
    if len(values) < 2:
        raise ValueError("need at least two rows to score a split")
    classes = {}
    left_counts: list = []
    right_counts: list = []
    all_counts: list = []
    for value, label in zip(values, labels):
        if label not in classes:
            classes[label] = len(classes)
            left_counts.append(0)
            right_counts.append(0)
            all_counts.append(0)
        k = classes[label]
        all_counts[k] += 1
        if value <= threshold:
            left_counts[k] += 1
        else:
            right_counts[k] += 1
    n = len(values)
    n_left = sum(left_counts)
    n_right = n - n_left
    if n_left == 0 or n_right == 0:
        return 0.0
    gain = _entropy(all_counts) \
        - (n_left / n) * _entropy(left_counts) \
        - (n_right / n) * _entropy(right_counts)
    split_info = _entropy([n_left, n_right])
    if split_info <= 0:
        return 0.0
    return gain / split_info


def _entropy_rows(counts: np.ndarray) -> np.ndarray:
    totals = counts.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = counts / totals
        terms = np.where(counts > 0, p * np.log2(p), 0.0)
    return -terms.sum(axis=1)


def _best_split_in_column(v: np.ndarray, y: np.ndarray, min_leaf: int,
                          parent_entropy: float):
    """(gain_ratio, threshold) of the best admissible midpoint split, or
    None when the column offers no split with positive gain."""
    n = len(v)
    order = np.argsort(v, kind="stable")
    sv = v[order]
    sy = y[order]
    onehot = np.zeros((n, N_CLASSES), dtype=np.float64)
    onehot[np.arange(n), sy] = 1.0
    cum = np.cumsum(onehot, axis=0)
    total = cum[-1]

    boundaries = np.nonzero(sv[1:] > sv[:-1])[0]
    if boundaries.size == 0:
        return None
    left_sizes = boundaries + 1
    admissible = (left_sizes >= min_leaf) & (n - left_sizes >= min_leaf)
    boundaries = boundaries[admissible]
    if boundaries.size == 0:
        return None
    left_sizes = boundaries + 1
    right_sizes = n - left_sizes

    left_counts = cum[boundaries]
    right_counts = total - left_counts
    weighted = (left_sizes / n) * _entropy_rows(left_counts) \
        + (right_sizes / n) * _entropy_rows(right_counts)
    gain = parent_entropy - weighted

    pl = left_sizes / n
    pr = right_sizes / n
    split_info = -(pl * np.log2(pl) + pr * np.log2(pr))
    ratio = np.where(gain > _GAIN_EPS, gain / split_info, -np.inf)

    best = int(np.argmax(ratio))
    if not np.isfinite(ratio[best]):
        return None
    threshold = (sv[boundaries[best]] + sv[boundaries[best] + 1]) / 2.0
    return float(ratio[best]), float(threshold)


class _Node:
    __slots__ = ("counts", "column", "threshold", "left", "right")

    def __init__(self, counts):
        self.counts = counts
        self.column = None
        self.threshold = None
        self.left = None
        self.right = None

    @property
    def is_leaf(self) -> bool:
        return self.column is None

    def to_leaf(self) -> None:
        self.column = None
        self.threshold = None
        self.left = None
        self.right = None


def _class_counts(y: np.ndarray) -> np.ndarray:
    return np.bincount(y, minlength=N_CLASSES).astype(np.float64)


def grow_tree(X: np.ndarray, y: np.ndarray, params: TreeParams,
              columns_for_node=None) -> _Node:
    """Recursive construction over row-index subsets. columns_for_node, when
    given, supplies the candidate column indices for each node (used by the
    forest for per-split feature subsampling); it must return a sorted array."""

    def build(rows: np.ndarray, depth: int) -> _Node:
        yr = y[rows]
        node = _Node(_class_counts(yr))
        if node.counts.max() == len(rows):
            return node
        if len(rows) < 2 * params.min_leaf:
            return node
        if params.max_depth is not None and depth >= params.max_depth:
            return node
        parent_entropy = _entropy(node.counts)
        candidates = np.arange(X.shape[1]) if columns_for_node is None \
            else columns_for_node()
        best_ratio = -np.inf
        best_column = None
        best_threshold = None
        for column in candidates:
            found = _best_split_in_column(X[rows, column], yr,
                                          params.min_leaf, parent_entropy)
            if found is None:
                continue
            ratio, threshold = found
            if ratio > best_ratio:
                best_ratio = ratio
                best_column = int(column)
                best_threshold = threshold
        if best_column is None:
            return node
        mask = X[rows, best_column] <= best_threshold
        node.column = best_column
        node.threshold = best_threshold
        node.left = build(rows[mask], depth + 1)
        node.right = build(rows[~mask], depth + 1)
        return node

    return build(np.arange(len(y)), 0)


# --- pessimistic error pruning -------------------------------------------------


def added_errors(n: float, e: float, confidence: float) -> float:
    """Upper-confidence-bound correction added to e observed errors out of
    n, via the normal approximation to the binomial with the low-count
    special cases interpolated."""
    if e < 1.0:
        base = n * (1.0 - confidence ** (1.0 / n))
        if e == 0.0:
            return base
        return base + e * (added_errors(n, 1.0, confidence) - base)
    if e + 0.5 >= n:
        return max(n - e, 0.0)
    z = NormalDist().inv_cdf(1.0 - confidence)
    f = (e + 0.5) / n
    r = (f + z * z / (2.0 * n)
         + z * math.sqrt(f / n - f * f / n + z * z / (4.0 * n * n))) \
        / (1.0 + z * z / n)
    return r * n - e


def _estimated_errors(counts: np.ndarray, confidence: float) -> float:
    n = float(counts.sum())
    e = n - float(counts.max())
    return e + added_errors(n, e, confidence)


def prune_tree(root: _Node, confidence: float) -> None:
    """Bottom-up subtree replacement: collapse a split whenever predicting
    the majority class here is estimated to err no worse (within a small
    slack) than the subtree's summed leaf estimates."""

    def walk(node: _Node) -> float:
        if node.is_leaf:
            return _estimated_errors(node.counts, confidence)
        subtree = walk(node.left) + walk(node.right)
        as_leaf = _estimated_errors(node.counts, confidence)
        if as_leaf <= subtree + _PRUNE_SLACK:
            node.to_leaf()
            return as_leaf
        return subtree

    walk(root)


# --- public fit/predict ----------------------------------------------------------


def _node_to_payload(node: _Node) -> dict:
    if node.is_leaf:
        return {"kind": "leaf", "counts": [float(c) for c in node.counts]}
    return {
        "kind": "split",
        "column": node.column,
        "threshold": node.threshold,
        "left": _node_to_payload(node.left),
        "right": _node_to_payload(node.right),
    }


def fit_tree(X, y=None, params: TreeParams = TreeParams(), *,
             schema=None, n_features=None) -> TrainedModel:
    """Fit on FeatureVectors (labels taken from them unless y is given).
    Pass either the schema or an explicit column count."""
    fingerprint, n_features, dense, indices = training_matrix(
        "a tree", X, y, schema, n_features)
    root = grow_tree(dense, indices, params)
    if params.pruning:
        prune_tree(root, params.confidence)
    return TrainedModel(
        kind="tree",
        schema_fingerprint=fingerprint,
        n_features=n_features,
        classes=CLASS_NAMES,
        payload={
            "root": _node_to_payload(root),
            "params": {
                "pruning": params.pruning,
                "confidence": params.confidence,
                "min_leaf": params.min_leaf,
                "max_depth": params.max_depth,
            },
        },
    )


def tree_distribution(node: dict, row: np.ndarray) -> np.ndarray:
    while node["kind"] == "split":
        node = node["left"] if row[node["column"]] <= node["threshold"] \
            else node["right"]
    counts = np.asarray(node["counts"], dtype=np.float64)
    return counts / counts.sum()


def check_tree(root, n_features: int) -> None:
    """Raise ModelError unless `root` is a tree payload over n_features
    columns: splits on an existing column at a finite threshold, leaves
    with one finite non-negative count per class and a positive total."""
    stack = [root]
    while stack:
        node = stack.pop()
        kind = node.get("kind") if isinstance(node, dict) else None
        if kind == "split":
            column, threshold = node.get("column"), node.get("threshold")
            if not (is_index(column, n_features) and is_finite_number(threshold)):
                raise ModelError(f"tree split on column {column!r} at threshold {threshold!r}; "
                                 f"needs a column below {n_features} and a finite threshold")
            stack += [node.get("left"), node.get("right")]
        elif kind == "leaf":
            counts = node.get("counts")
            if not (isinstance(counts, list) and len(counts) == N_CLASSES
                    and all(is_finite_number(c) and c >= 0 for c in counts)
                    and sum(counts) > 0):
                raise ModelError(f"tree leaf counts {counts!r} are not {N_CLASSES} "
                                 "finite non-negative numbers with a positive sum")
        else:
            raise ModelError(f"tree node of unknown kind {kind!r}")
