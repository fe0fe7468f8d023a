"""The learner table: everything that depends on the classifier kind.

Each entry builds the kind's params from a settings dict and the run seed,
fits an in-memory payload on a dense matrix, scores the rows of a dense
matrix, encodes a payload for model.json, and checks a payload read from
model.json and returns its in-memory form: the same object for tree and
forest, the normalized training matrix for k-NN. The fit functions are
looked up by name when called, so wrappers installed on them (by a tracer,
say) see every fit.
`learners.fit_model` wraps a fitted payload into the TrainedModel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .forest import ForestParams, check_forest, fit_forest, forest_distribution
from .knn import KnnParams, encode_knn, fit_knn, knn_scores, load_knn
from .tree import TreeParams, check_tree, fit_tree, tree_distribution


@dataclass(frozen=True)
class Learner:
    params: Callable        # (settings dict, seed) -> params object
    fit: Callable           # (dense X, class indices y, params object) -> payload
    scores: Callable        # (model, dense X) -> per-row scores summing to 1
    encode: Callable        # in-memory payload -> JSON payload
    load: Callable          # (JSON payload, n_features) -> in-memory payload;
                            # raises ModelError (checks return None)


LEARNERS = {
    "tree": Learner(
        params=lambda settings, seed: TreeParams(**settings),
        fit=lambda X, y, params: fit_tree(X, y, params),
        scores=lambda model, X: [tree_distribution(model.payload["root"], row) for row in X],
        encode=lambda payload: payload,
        load=lambda payload, n_features: check_tree(payload.get("root"), n_features) or payload,
    ),
    "forest": Learner(
        params=lambda settings, seed: ForestParams(seed=seed, **settings),
        fit=lambda X, y, params: fit_forest(X, y, params),
        scores=lambda model, X: [forest_distribution(model.payload, row) for row in X],
        encode=lambda payload: payload,
        load=lambda payload, n_features: check_forest(payload, n_features) or payload,
    ),
    "knn": Learner(
        params=lambda settings, seed: KnnParams(**settings),
        fit=lambda X, y, params: fit_knn(X, y, params),
        scores=lambda model, X: knn_scores(model.payload, X),
        encode=encode_knn,
        load=load_knn,
    ),
}
