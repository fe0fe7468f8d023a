"""Shared learner plumbing: dense conversion, label indexing, TrainedModel."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from ..corpus import CLASS_ORDER, StanceLabel, encodable

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


def label_indices(vectors) -> np.ndarray:
    """Class index of each vector's label, given as a string or an enum;
    ValueError for a missing or unknown label."""
    return np.array([CLASS_ORDER.index(StanceLabel(v.label)) for v in vectors],
                    dtype=np.int64)


def is_finite_number(value) -> bool:
    """A real JSON number (not a bool) within the finite float range."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def is_strings(value) -> bool:
    """A list of strings, none holding a lone surrogate."""
    return (isinstance(value, list) and all(isinstance(v, str) for v in value)
            and encodable(value))


def is_int(value) -> bool:
    """A real int, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_index(value, size: int) -> bool:
    return is_int(value) and 0 <= value < size


def to_dense(vectors, n_features: int) -> np.ndarray:
    X = np.zeros((len(vectors), n_features), dtype=np.float64)
    for row, vector in enumerate(vectors):
        for index, value in vector.values.items():
            X[row, index] = value
    return X

