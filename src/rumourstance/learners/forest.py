"""Random forest: bagged unpruned trees with per-split feature subsampling.

Every random draw for tree i comes from a counter-based stream keyed by
(seed, i), so the fitted forest is a pure function of (data, params, seed),
and growing more trees keeps the earlier ones. The trees are independent,
so they grow in lockstep, one batched split search per step covering the
current node of every tree; each tree still draws in pre-order from its
own stream, as if grown alone.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ..corpus import is_int
from ..errors import ModelError
from .tree import TreeParams, check_tree, grow_trees, tree_distribution

_FEATURE_RULES = ("log2", "sqrt", "all")
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 50
    features_per_split: str = "log2"
    bagging: bool = True
    seed: int = 0

    def __post_init__(self):
        if not (is_int(self.n_trees) and self.n_trees >= 1):
            raise ValueError("n_trees must be an integer >= 1")
        if not isinstance(self.bagging, bool):
            raise ValueError("bagging must be true or false")
        if self.features_per_split not in _FEATURE_RULES:
            raise ValueError(f"features_per_split must be one of {_FEATURE_RULES}")


def subset_size(rule: str, n_features: int) -> int:
    if n_features == 0:
        return 0
    if rule == "log2":
        return min(n_features, int(math.log2(n_features)) + 1)
    if rule == "sqrt":
        return max(1, int(math.sqrt(n_features)))
    return n_features


def _tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, tree_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _column_draw(rng: np.random.Generator, n_columns: int, k: int):
    """The candidate columns of each searched node of a tree: k of the
    n_columns, sorted, drawn from its stream, or all without a draw."""
    if k >= n_columns:
        columns = np.arange(n_columns)
        return lambda: columns
    return lambda: np.sort(rng.permutation(n_columns)[:k])


def fit_forest(X: np.ndarray, y: np.ndarray, params: ForestParams) -> dict:
    """The payload of n_trees unpruned trees fitted on the rows of X, whose
    class indices are y. Tree i draws its bootstrap rows, then its
    candidate columns node by node, from the stream keyed by (seed, i)."""
    k = subset_size(params.features_per_split, X.shape[1])
    roots, draws = [], []
    for i in range(params.n_trees):
        rng = _tree_rng(params.seed, i)
        roots.append(rng.integers(0, len(y), size=len(y)) if params.bagging
                     else np.arange(len(y)))
        draws.append(_column_draw(rng, X.shape[1], k))
    # unpruned, same leaf floor as the standalone tree so a 1-tree forest
    # without bagging degenerates to it exactly
    return {"trees": grow_trees(X, y, roots, TreeParams(pruning=False), draws),
            "params": asdict(params)}


def forest_distribution(payload: dict, row: np.ndarray) -> np.ndarray:
    trees = payload["trees"]
    return sum(tree_distribution(tree, row) for tree in trees) / len(trees)


def check_forest(payload: dict, n_features: int) -> None:
    trees = payload.get("trees")
    if not isinstance(trees, list) or not trees:
        raise ModelError("forest payload holds no trees")
    for tree in trees:
        check_tree(tree, n_features)
