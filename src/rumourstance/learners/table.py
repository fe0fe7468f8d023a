"""The learner table: everything that depends on the classifier kind.

Each entry builds the kind's params from a settings dict and the run seed,
fits a payload on a dense matrix, scores the rows of a dense matrix, and
checks a loaded payload. The fit functions are looked up by name when
called, so wrappers installed on them (by a tracer, say) see every fit.
`learners.fit_model` wraps a fitted payload into the TrainedModel.
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
    fit: Callable           # (dense X, class indices y, params object) -> payload
    scores: Callable        # (model, dense X) -> per-row scores summing to 1
    check: Callable         # (payload, n_features) -> None; raises ModelError


LEARNERS = {
    "tree": Learner(
        params=lambda settings, seed: TreeParams(**settings),
        fit=lambda X, y, params: fit_tree(X, y, params),
        scores=lambda model, X: [tree_distribution(model.payload["root"], row) for row in X],
        check=lambda payload, n_features: check_tree(payload.get("root"), n_features),
    ),
    "forest": Learner(
        params=lambda settings, seed: ForestParams(seed=seed, **settings),
        fit=lambda X, y, params: fit_forest(X, y, params),
        scores=lambda model, X: [forest_distribution(model.payload, row) for row in X],
        check=check_forest,
    ),
    "knn": Learner(
        params=lambda settings, seed: KnnParams(**settings),
        fit=lambda X, y, params: fit_knn(X, y, params),
        scores=lambda model, X: knn_scores(model.payload, X, model.n_features),
        check=check_knn,
    ),
}
