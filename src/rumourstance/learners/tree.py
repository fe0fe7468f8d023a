"""Decision tree with binary numeric splits chosen by information gain
ratio and optional pessimistic error pruning.

Split candidates are midpoints between consecutive distinct sorted values of
a column. Ties on gain ratio go to the lowest column index, then the lowest
threshold, so refits are reproducible. Leaves hold raw class counts; the
majority tie-break is the fixed class order Support < Deny < Query < Comment.

Trees grow in lockstep (`grow_trees`): each keeps a depth-first stack, and
on every step one batched search (`_best_splits`) scores the node each tree
is at. A search skips (node, column) pairs constant on the node's rows,
scores the two-valued pairs (one midpoint each) by one matrix product, and
sorts the pairs with three or more values together, with one cumulative
class count each, scoring every boundary between their distinct values in
one call. The standalone tree is a batch of one with every column a
candidate; with pruning on, a post-order pass over the grown payload
collapses splits bottom-up.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from statistics import NormalDist
from typing import Optional

import numpy as np

from ..corpus import is_finite_number, is_index, is_int
from ..errors import ModelError
from .base import N_CLASSES

_GAIN_EPS = 1e-12
_PRUNE_SLACK = 0.1
_BATCH_CELLS = 1 << 16  # (row, candidate) cells per batched split search


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
                 n: np.ndarray, min_leaf: int, parent_entropy: np.ndarray) -> np.ndarray:
    """Gain ratio of each binary split i of n[i] rows with class counts
    total[i] whose left side holds left_sizes[i] rows with class counts
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


def _best_splits(X: np.ndarray, y: np.ndarray, nodes: list, min_leaf: int) -> list:
    """(column, threshold) of the best admissible split of each node, or
    None. A node is (rows, candidates): row indices into X and y (a row
    listed twice counts twice) and sorted distinct candidate columns, as
    many for every node. The rows are stacked side by side in class
    blocks, padded so that each position holds one class in every node;
    pad cells read as the column's maximum on the node, so they are never
    left of a split. Each pair keeps its first maximum, the lowest
    threshold, and each node its first maximal pair, the lowest column."""
    sizes = np.array([len(rows) for rows, _ in nodes])
    n_nodes = len(nodes)
    flat = np.concatenate([rows for rows, _ in nodes])
    node_of = np.repeat(np.arange(n_nodes), sizes)
    order = np.lexsort((y[flat], node_of))
    flat, labels = flat[order], y[flat[order]]
    counts = np.bincount(node_of * N_CLASSES + labels,
                         minlength=n_nodes * N_CLASSES).reshape(n_nodes, N_CLASSES)
    block = counts.max(axis=0)  # rows of class c: the most any node has
    block_start = np.cumsum(block) - block
    group_start = (np.cumsum(counts) - counts.ravel()).reshape(counts.shape)
    rank = np.arange(len(flat)) - group_start[node_of, labels]
    n_pad = int(block.sum())
    padded = np.repeat(flat[np.cumsum(sizes) - sizes][None, :], n_pad, axis=0)
    padded[block_start[labels] + rank, node_of] = flat
    onehot = np.repeat(np.eye(N_CLASSES), block, axis=0)
    parent_entropy = _entropy_rows(counts.astype(np.float64))

    candidates = np.stack([columns for _, columns in nodes])
    width = candidates.shape[1]
    if width == X.shape[1]:  # every column: gather whole rows
        values = X[padded]
    else:
        values = X[padded[:, :, None], candidates[None, :, :]]
    values = values.reshape(n_pad, n_nodes * width)
    lo, hi = values.min(axis=0), values.max(axis=0)  # pads repeat a row of the node
    varying = np.flatnonzero(lo < hi)
    if varying.size == 0:
        return [None] * n_nodes
    node, lo, hi = varying // width, lo[varying], hi[varying]
    values = values[:, varying]
    if n_pad * n_nodes > len(flat):
        block_rank = np.arange(n_pad) - np.repeat(block_start, block)
        real = block_rank[:, None] < counts[:, np.repeat(np.arange(N_CLASSES), block)].T
        values = np.where(real[:, node], values, hi)
    n, total, parent = sizes[node], counts[node].astype(np.float64), parent_entropy[node]
    at_lo = values == lo
    two_valued = (at_lo | (values == hi)).all(axis=0)
    ratios = np.full(n_nodes * width, -np.inf)
    thresholds = np.zeros(n_nodes * width)
    thresholds[varying] = (lo + hi) / 2.0

    two = np.flatnonzero(two_valued)
    if two.size:
        left = at_lo[:, two].T.astype(np.float64) @ onehot
        ratios[varying[two]] = _gain_ratios(left, left.sum(axis=1), total[two], n[two],
                                            min_leaf, parent[two])

    many = np.flatnonzero(~two_valued)
    if many.size:
        columns = np.arange(many.size)
        order = np.argsort(values[:, many], axis=0)
        sv = values[order, many]
        cum = onehot[order].cumsum(axis=0)
        at, col = np.nonzero(sv[1:] > sv[:-1])
        pair = many[col]
        scored = np.full((n_pad - 1, many.size), -np.inf)
        scored[at, col] = _gain_ratios(cum[at, col], at + 1, total[pair], n[pair],
                                       min_leaf, parent[pair])
        first = scored.argmax(axis=0)
        ratios[varying[many]] = scored[first, columns]
        thresholds[varying[many]] = (sv[first, columns] + sv[first + 1, columns]) / 2.0

    ratios, thresholds = ratios.reshape(n_nodes, width), thresholds.reshape(n_nodes, width)
    best = ratios.argmax(axis=1)
    return [(int(candidates[i, b]), float(thresholds[i, b])) if ratios[i, b] > -np.inf
            else None for i, b in enumerate(best)]


def grow_trees(X: np.ndarray, y: np.ndarray, roots: list, params: TreeParams,
               draws: list) -> list:
    """The unpruned payloads of trees grown in lockstep, tree t on the rows
    roots[t] of X and y; draws[t]() gives the sorted candidate columns of
    each node of tree t that is searched, in pre-order, as many for every
    tree. On each step every tree pops nodes off its depth-first stack
    until one needs a split search (pure nodes, nodes too small for two
    leaves and nodes at max_depth become leaves without a draw), one
    batched search scores those nodes, and each split pushes its right,
    then its left child."""
    holders = [{} for _ in roots]
    stacks = [[(rows, 0, holder, "root")] for rows, holder in zip(roots, holders)]
    while True:
        searched = []
        for tree, stack in enumerate(stacks):
            while stack:
                rows, depth, parent, side = stack.pop()
                counts = np.bincount(y[rows], minlength=N_CLASSES).tolist()
                parent[side] = {"kind": "leaf", "counts": [float(c) for c in counts]}
                if max(counts) < len(rows) and len(rows) >= 2 * params.min_leaf \
                        and (params.max_depth is None or depth < params.max_depth):
                    searched.append((tree, rows, depth, parent, side, draws[tree]()))
                    break
        if not searched:
            return [holder["root"] for holder in holders]
        splits, batch, cells = [], [], 0
        for _, rows, _, _, _, columns in searched:
            if batch and cells + len(rows) * len(columns) > _BATCH_CELLS:
                splits += _best_splits(X, y, batch, params.min_leaf)
                batch, cells = [], 0
            batch.append((rows, columns))
            cells += len(rows) * len(columns)
        splits += _best_splits(X, y, batch, params.min_leaf)
        for (tree, rows, depth, parent, side, _), split in zip(searched, splits):
            if split is None:
                continue
            column, threshold = split
            node = parent[side] = {"kind": "split", "column": column, "threshold": threshold,
                                   "left": None, "right": None}
            goes_left = X[rows, column] <= threshold
            stacks[tree] += [(rows[~goes_left], depth + 1, node, "right"),
                             (rows[goes_left], depth + 1, node, "left")]


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


def _prune(node: dict, confidence: float) -> tuple:
    """(pruned node, estimated errors, class counts) of a grown subtree,
    post-order: a split's class counts are the sums of the leaf counts
    below it, and it collapses to a leaf whenever predicting the majority
    class there is estimated to err no worse (within a small slack) than
    its pruned subtrees' summed estimates."""
    if node["kind"] == "leaf":
        counts = np.array(node["counts"])
        return node, _estimated_errors(counts, confidence), counts
    left, left_errors, left_counts = _prune(node["left"], confidence)
    right, right_errors, right_counts = _prune(node["right"], confidence)
    counts = left_counts + right_counts
    as_leaf = _estimated_errors(counts, confidence)
    subtree = left_errors + right_errors
    if as_leaf <= subtree + _PRUNE_SLACK:
        return {"kind": "leaf", "counts": [float(c) for c in counts]}, as_leaf, counts
    node["left"], node["right"] = left, right
    return node, subtree, counts


# --- public fit/predict ----------------------------------------------------------


def fit_tree(X: np.ndarray, y: np.ndarray, params: TreeParams) -> dict:
    """The tree payload fitted on the rows of X, whose class indices are y;
    every column is a candidate at every node."""
    columns = np.arange(X.shape[1])
    root, = grow_trees(X, y, [np.arange(len(y))], params, [lambda: columns])
    if params.pruning:
        root = _prune(root, params.confidence)[0]
    return {"root": root, "params": asdict(params)}


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
