"""Native classifiers over dense feature matrices: pruned decision tree,
random forest and distance-weighted k-NN, and the learner table, which
holds everything that depends on the classifier kind.

Each table entry builds the kind's params from a settings dict and the run
seed, fits an in-memory payload on a dense matrix, scores the rows of a
dense matrix, encodes a payload for model.json, and checks a payload read
from model.json and returns its in-memory form: the same object for tree
and forest, the normalized training matrix for k-NN. The fit functions are
looked up by name when called, so wrappers installed on them (by a tracer,
say) see every fit. `fit_model` wraps a fitted payload into the TrainedModel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ModelError
from .base import N_CLASSES, TrainedModel
from .forest import ForestParams, check_forest, fit_forest, forest_distribution
from .knn import KnnParams, encode_knn, fit_knn, knn_scores, load_knn
from .tree import TreeParams, check_tree, fit_tree, tree_distribution


@dataclass(frozen=True)
class Learner:
    params: Callable        # (settings dict, seed) -> params object
    fit: Callable           # (dense X, class indices y, params object) -> payload
    scores: Callable        # (model, dense X) -> per-row scores summing to 1
    load: Callable          # (JSON payload, n_features) -> in-memory payload;
                            # raises ModelError (checks return None)
    encode: Callable = lambda payload: payload  # in-memory payload -> JSON payload


LEARNERS = {
    "tree": Learner(
        params=lambda settings, seed: TreeParams(**settings),
        fit=lambda X, y, params: fit_tree(X, y, params),
        scores=lambda model, X: [tree_distribution(model.payload["root"], row) for row in X],
        load=lambda payload, n_features: check_tree(payload.get("root"), n_features) or payload,
    ),
    "forest": Learner(
        params=lambda settings, seed: ForestParams(seed=seed, **settings),
        fit=lambda X, y, params: fit_forest(X, y, params),
        scores=lambda model, X: [forest_distribution(model.payload, row) for row in X],
        load=lambda payload, n_features: check_forest(payload, n_features) or payload,
    ),
    "knn": Learner(
        params=lambda settings, seed: KnnParams(**settings),
        fit=lambda X, y, params: fit_knn(X, y, params),
        scores=lambda model, X: knn_scores(model.payload, X),
        load=load_knn,
        encode=encode_knn,
    ),
}


def fit_model(kind: str, X: np.ndarray, y: np.ndarray, params,
              schema_fingerprint: int) -> TrainedModel:
    """The `kind` model fitted on the rows of X, whose class indices are y,
    with the kind's params object; it records the fingerprint of the schema
    that X's columns follow."""
    if not len(y):
        raise ValueError(f"cannot fit {kind} on an empty training set")
    return TrainedModel(kind=kind, schema_fingerprint=schema_fingerprint,
                        n_features=X.shape[1], payload=LEARNERS[kind].fit(X, y, params))


def predict_many(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    """The (len(X), N_CLASSES) matrix of per-class scores of the rows of X,
    in CLASS_NAMES order, each row summing to 1. A row's label is its first
    maximum (np.argmax), so ties go to the earlier class."""
    if X.shape[1] != model.n_features:
        raise ModelError(f"got {X.shape[1]} columns for a model over {model.n_features}")
    rows = LEARNERS[model.kind].scores(model, X)
    return np.array(rows, dtype=np.float64).reshape(len(X), N_CLASSES)
