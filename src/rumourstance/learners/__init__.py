"""Native classifiers over dense feature matrices: pruned decision tree,
random forest, distance-weighted k-NN, plus the model container."""

from __future__ import annotations

import numpy as np

from ..errors import ModelError
from .base import N_CLASSES, TrainedModel
from .forest import ForestParams, fit_forest
from .io import MODEL_MAGIC, MODEL_VERSION, load_model, save_model
from .knn import KnnParams, fit_knn
from .table import LEARNERS
from .tree import TreeParams, fit_tree, info_gain_ratio

__all__ = [
    "LEARNERS", "MODEL_MAGIC", "MODEL_VERSION", "TrainedModel",
    "TreeParams", "ForestParams", "KnnParams",
    "fit_tree", "fit_forest", "fit_knn", "fit_model",
    "info_gain_ratio", "predict_many",
    "save_model", "load_model",
]


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

