"""Shared learner plumbing: dense conversion, label indexing, TrainedModel."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..corpus import CLASS_ORDER

# learners speak plain label strings and class indices in this order
CLASS_NAMES = tuple(label.value for label in CLASS_ORDER)
N_CLASSES = len(CLASS_NAMES)


@dataclass(frozen=True)
class TrainedModel:
    """A fitted classifier plus what is needed to police its inputs.

    context is JSON-serializable metadata: evaluation.train_model writes it
    and evaluation.label_tweets reads it; learners never read it.
    """

    kind: str
    schema_fingerprint: int
    n_features: int
    payload: dict
    context: dict = field(default_factory=dict)


def label_indices(items) -> np.ndarray:
    """Class index of each item's `StanceLabel` label (a tweet record or
    analysis); ValueError for a missing one."""
    return np.array([CLASS_ORDER.index(item.label) for item in items], dtype=np.int64)


def to_dense(rows, n_features: int) -> np.ndarray:
    """The float64 matrix of sparse `{column index: value}` rows."""
    X = np.zeros((len(rows), n_features), dtype=np.float64)
    for i, row in enumerate(rows):
        for index, value in row.items():
            X[i, index] = value
    return X

