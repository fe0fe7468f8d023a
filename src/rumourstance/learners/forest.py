"""Random forest: bagged unpruned trees with per-split feature subsampling.

Every random draw for tree i comes from a counter-based stream keyed by
(seed, i), so the fitted forest is a pure function of (data, params, seed),
and growing more trees keeps the earlier ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ModelError
from .base import CLASS_NAMES, TrainedModel, training_matrix
from .tree import TreeParams, _node_to_payload, check_tree, grow_tree, tree_distribution

_FEATURE_RULES = ("log2", "sqrt", "all")
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 50
    features_per_split: str = "log2"
    bagging: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
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


def _fit_one_tree(X: np.ndarray, y: np.ndarray, params: ForestParams,
                  tree_index: int, tree_params: TreeParams) -> dict:
    rng = _tree_rng(params.seed, tree_index)
    if params.bagging:
        rows = rng.integers(0, len(y), size=len(y))
        Xb, yb = X[rows], y[rows]
    else:
        Xb, yb = X, y
    k = subset_size(params.features_per_split, X.shape[1])

    def draw_columns() -> np.ndarray:
        if k >= X.shape[1]:
            return np.arange(X.shape[1])
        return np.sort(rng.permutation(X.shape[1])[:k])

    root = grow_tree(Xb, yb, tree_params, columns_for_node=draw_columns)
    return _node_to_payload(root)


def fit_forest(X, y=None, params: ForestParams = ForestParams(), *,
               schema=None, n_features=None) -> TrainedModel:
    """Fit n_trees unpruned trees."""
    fingerprint, n_features, dense, indices = training_matrix(
        "a forest", X, y, schema, n_features)
    # unpruned, same leaf floor as the standalone tree so a 1-tree forest
    # without bagging degenerates to it exactly
    tree_params = TreeParams(pruning=False)
    trees = [_fit_one_tree(dense, indices, params, i, tree_params)
             for i in range(params.n_trees)]
    return TrainedModel(
        kind="forest",
        schema_fingerprint=fingerprint,
        n_features=n_features,
        classes=CLASS_NAMES,
        payload={
            "trees": trees,
            "params": {
                "n_trees": params.n_trees,
                "features_per_split": params.features_per_split,
                "bagging": params.bagging,
                "seed": params.seed,
            },
        },
    )


def forest_distribution(payload: dict, row: np.ndarray) -> np.ndarray:
    acc = None
    for tree in payload["trees"]:
        dist = tree_distribution(tree, row)
        acc = dist if acc is None else acc + dist
    return acc / len(payload["trees"])


def check_forest(payload: dict, n_features: int) -> None:
    trees = payload.get("trees")
    if not isinstance(trees, list) or not trees:
        raise ModelError("forest payload holds no trees")
    for tree in trees:
        check_tree(tree, n_features)
