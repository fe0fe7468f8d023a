"""Native classifiers over sparse feature vectors: pruned decision tree,
random forest, distance-weighted k-NN, plus the model container."""

from __future__ import annotations

from ..errors import ModelError
from .base import TrainedModel, argmax_label, scores_dict, to_dense
from .forest import ForestParams, fit_forest, forest_distribution
from .io import MODEL_MAGIC, MODEL_VERSION, load_model, save_model
from .knn import KnnParams, fit_knn
from .table import LEARNERS
from .tree import TreeParams, fit_tree, info_gain_ratio, tree_distribution

__all__ = [
    "LEARNERS", "MODEL_MAGIC", "MODEL_VERSION", "TrainedModel",
    "TreeParams", "ForestParams", "KnnParams",
    "fit_tree", "fit_forest", "fit_knn",
    "info_gain_ratio", "predict", "predict_many",
    "save_model", "load_model",
]


def predict_many(model: TrainedModel, vectors) -> list:
    """(label, per-class scores summing to 1) for each feature vector."""
    for vector in vectors:
        if vector.schema_fingerprint != model.schema_fingerprint:
            raise ModelError(
                "vector schema fingerprint does not match the model; "
                "refeaturize with the schema the model was trained under")
    rows = LEARNERS[model.kind].scores(model, to_dense(vectors, model.n_features))
    return [(argmax_label(scores), scores_dict(scores)) for scores in rows]


def predict(model: TrainedModel, vector) -> tuple:
    """predict_many() of one vector."""
    return predict_many(model, [vector])[0]
