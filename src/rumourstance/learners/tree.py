"""Decision tree with binary numeric splits chosen by information gain
ratio and optional pessimistic error pruning.

Split candidates are midpoints between consecutive distinct sorted values of
a column. Ties on gain ratio go to the lowest column index, then the lowest
threshold, so refits are reproducible. Leaves hold raw class counts; the
majority tie-break is the fixed class order Support < Deny < Query < Comment.

A node scores all its candidate columns at once: columns constant on the
node's rows are skipped, two-valued columns (one midpoint each) are scored
by one product, and columns with three or more values are sorted together,
with one cumulative class count per column, and every boundary between
their distinct values is scored in one call.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from statistics import NormalDist
from typing import Optional

import numpy as np

from ..errors import ModelError
from .base import N_CLASSES, is_finite_number, is_index, is_int

_GAIN_EPS = 1e-12
_PRUNE_SLACK = 0.1


@dataclass(frozen=True)
class TreeParams:
    pruning: bool = True
    confidence: float = 0.25
    min_leaf: int = 2
    max_depth: Optional[int] = None

    def __post_init__(self):
        if not isinstance(self.pruning, bool):
            raise ValueError("pruning must be true or false")
        if not (is_finite_number(self.confidence) and 0 < self.confidence < 1):
            raise ValueError("confidence must be a number in (0, 1)")
        if not (is_int(self.min_leaf) and self.min_leaf >= 1):
            raise ValueError("min_leaf must be an integer >= 1")
        if not (self.max_depth is None or is_int(self.max_depth) and self.max_depth >= 0):
            raise ValueError("max_depth must be null or an integer >= 0")


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


def _gain_ratios(left_counts: np.ndarray, left_sizes: np.ndarray, total: np.ndarray,
                 n: int, min_leaf: int, parent_entropy: float) -> np.ndarray:
    """Gain ratio of each binary split of n rows with class counts `total`
    whose left side holds left_sizes[i] rows with class counts
    left_counts[i]; -inf where a side has fewer than min_leaf rows or the
    gain is not positive. Both sides must be non-empty."""
    right_sizes = n - left_sizes
    entropies = _entropy_rows(np.concatenate([left_counts, total - left_counts]))
    pl = left_sizes / n
    pr = right_sizes / n
    weighted = pl * entropies[:len(pl)] + pr * entropies[len(pl):]
    gain = parent_entropy - weighted
    split_info = -(pl * np.log2(pl) + pr * np.log2(pr))
    admissible = (left_sizes >= min_leaf) & (right_sizes >= min_leaf) & (gain > _GAIN_EPS)
    return np.where(admissible, gain / split_info, -np.inf)


def _best_split(X: np.ndarray, rows: np.ndarray, yr: np.ndarray,
                candidates: np.ndarray, min_leaf: int, parent_entropy: float):
    """(column, threshold) of the best admissible split of `rows` over the
    sorted candidate columns, or None. Constant columns are skipped;
    two-valued columns are scored by one product, the rest by sorting them
    together and scoring every boundary between distinct sorted values.
    Each column keeps its first maximum, the lowest threshold, and
    np.argmax over columns takes the first maximum, the lowest column."""
    sub = X[rows[:, None], candidates]
    lo, hi = sub.min(axis=0), sub.max(axis=0)
    varying = np.flatnonzero(lo < hi)
    if varying.size == 0:
        return None
    sub, lo, hi = sub[:, varying], lo[varying], hi[varying]
    at_lo = sub == lo
    two_valued = (at_lo | (sub == hi)).all(axis=0)
    ratios = np.full(varying.size, -np.inf)
    thresholds = (lo + hi) / 2.0
    n = len(rows)
    onehot = np.eye(N_CLASSES)[yr]
    total = onehot.sum(axis=0)

    two = np.flatnonzero(two_valued)
    if two.size:
        left = at_lo[:, two]
        ratios[two] = _gain_ratios(left.T.astype(np.float64) @ onehot,
                                   np.count_nonzero(left, axis=0), total, n,
                                   min_leaf, parent_entropy)

    many = np.flatnonzero(~two_valued)
    if many.size:
        values, columns = sub[:, many], np.arange(many.size)
        order = np.argsort(values, axis=0)
        sv = values[order, columns]
        cum = onehot[order].cumsum(axis=0)
        at, col = np.nonzero(sv[1:] > sv[:-1])
        scored = np.full((n - 1, many.size), -np.inf)
        scored[at, col] = _gain_ratios(cum[at, col], at + 1, total, n, min_leaf,
                                       parent_entropy)
        first = scored.argmax(axis=0)
        ratios[many] = scored[first, columns]
        thresholds[many] = (sv[first, columns] + sv[first + 1, columns]) / 2.0

    best = int(np.argmax(ratios))
    if ratios[best] == -np.inf:
        return None
    return int(candidates[varying[best]]), float(thresholds[best])


def grow_tree(X: np.ndarray, y: np.ndarray, rows: np.ndarray, params: TreeParams,
              columns_for_node=None) -> dict:
    """The tree payload grown on the rows `rows` of X and y; a row listed
    twice (a bootstrap draw) counts twice. columns_for_node, when given,
    supplies the candidate column indices for each node (used by the forest
    for per-split feature subsampling); it must return a sorted array.

    With pruning on, a split collapses to a leaf as soon as both its
    subtrees are grown, whenever predicting the majority class there is
    estimated to err no worse (within a small slack) than the subtrees'
    summed estimates: bottom-up subtree replacement, done during growth."""
    return _grow(X, y, rows, 0, params, columns_for_node)[0]


def _grow(X, y, rows: np.ndarray, depth: int, params: TreeParams,
          columns_for_node) -> tuple:
    """(payload, estimated errors) of the subtree on `rows`; the estimate
    is 0 with pruning off. A module function, not a closure over itself:
    such a closure is a reference cycle that keeps X alive until the cycle
    collector runs."""
    yr = y[rows]
    counts = np.bincount(yr, minlength=N_CLASSES).astype(np.float64)
    as_leaf = _estimated_errors(counts, params.confidence) if params.pruning else 0.0
    leaf = {"kind": "leaf", "counts": [float(c) for c in counts]}, as_leaf
    if counts.max() == len(rows) or len(rows) < 2 * params.min_leaf:
        return leaf
    if params.max_depth is not None and depth >= params.max_depth:
        return leaf
    parent_entropy = _entropy(counts)
    candidates = np.arange(X.shape[1]) if columns_for_node is None \
        else columns_for_node()
    found = _best_split(X, rows, yr, candidates, params.min_leaf, parent_entropy)
    if found is None:
        return leaf
    best_column, best_threshold = found
    mask = X[rows, best_column] <= best_threshold
    left, left_errors = _grow(X, y, rows[mask], depth + 1, params, columns_for_node)
    right, right_errors = _grow(X, y, rows[~mask], depth + 1, params, columns_for_node)
    subtree = left_errors + right_errors
    if params.pruning and as_leaf <= subtree + _PRUNE_SLACK:
        return leaf
    return {"kind": "split", "column": best_column, "threshold": best_threshold,
            "left": left, "right": right}, subtree


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


# --- public fit/predict ----------------------------------------------------------


def fit_tree(X: np.ndarray, y: np.ndarray, params: TreeParams) -> dict:
    """The tree payload fitted on the rows of X, whose class indices are y."""
    return {"root": grow_tree(X, y, np.arange(len(y)), params),
            "params": asdict(params)}


def tree_distribution(node: dict, row: np.ndarray) -> np.ndarray:
    while node["kind"] == "split":
        node = node["left"] if row[node["column"]] <= node["threshold"] \
            else node["right"]
    counts = np.asarray(node["counts"], dtype=np.float64)
    return counts / counts.sum()


def check_tree(root, n_features: int) -> None:
    """Raise ModelError unless `root` is a tree payload over n_features
    columns: splits on an existing column at a finite threshold, leaves with
    one finite non-negative count per class and a finite positive total."""
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
            with np.errstate(over="ignore"):  # an overflowing total reads inf
                ok = (isinstance(counts, list) and len(counts) == N_CLASSES
                      and all(is_finite_number(c) and c >= 0 for c in counts)
                      and 0 < np.sum(counts, dtype=np.float64) < np.inf)
            if not ok:
                raise ModelError(f"tree leaf counts {counts!r} are not {N_CLASSES} "
                                 "finite non-negative numbers with a finite positive sum")
        else:
            raise ModelError(f"tree node of unknown kind {kind!r}")
