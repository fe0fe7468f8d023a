"""The learner table: everything that depends on the classifier kind.

Each entry builds the kind's params from a settings dict and the run seed,
fits a model, scores the rows of a dense matrix, and checks a loaded payload. The fit
functions are looked up by name when called, so wrappers installed on them
(by a tracer, say) see every fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .forest import ForestParams, check_forest, fit_forest, forest_distribution
from .knn import KnnParams, check_knn, fit_knn, knn_scores
from .tree import TreeParams, check_tree, fit_tree, tree_distribution


@dataclass(frozen=True)
class Learner:
    params: Callable        # (settings dict, seed) -> params object
    fit: Callable           # (vectors, params object, schema) -> TrainedModel
    scores: Callable        # (model, dense rows) -> per-row scores summing to 1
    check: Callable         # (payload, n_features) -> None; raises ModelError


LEARNERS = {
    "tree": Learner(
        params=lambda settings, seed: TreeParams(**settings),
        fit=lambda vectors, params, schema: fit_tree(vectors, params=params, schema=schema),
        scores=lambda model, X: [tree_distribution(model.payload["root"], row) for row in X],
        check=lambda payload, n_features: check_tree(payload.get("root"), n_features),
    ),
    "forest": Learner(
        params=lambda settings, seed: ForestParams(seed=seed, **settings),
        fit=lambda vectors, params, schema: fit_forest(vectors, params=params, schema=schema),
        scores=lambda model, X: [forest_distribution(model.payload, row) for row in X],
        check=check_forest,
    ),
    "knn": Learner(
        params=lambda settings, seed: KnnParams(**settings),
        fit=lambda vectors, params, schema: fit_knn(vectors, params=params, schema=schema),
        scores=lambda model, X: knn_scores(model.payload, X, model.n_features),
        check=check_knn,
    ),
}
