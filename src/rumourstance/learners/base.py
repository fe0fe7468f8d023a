"""Shared learner plumbing: dense conversion, label indexing, TrainedModel."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..corpus import CLASS_ORDER, StanceLabel

# learners speak plain label strings; enums are accepted and normalized
CLASS_NAMES = tuple(label.value for label in CLASS_ORDER)
LABEL_INDEX = {name: i for i, name in enumerate(CLASS_NAMES)}
N_CLASSES = len(CLASS_NAMES)


@dataclass(frozen=True)
class TrainedModel:
    """A fitted classifier plus everything predict needs to police inputs.

    context is free-form JSON-serializable metadata the caller may attach
    (resolved params, dictionaries, schema text); learners never read it.
    """

    kind: str
    schema_fingerprint: int
    n_features: int
    classes: tuple
    payload: dict
    context: dict = field(default_factory=dict)


def resolve_labels(vectors, y=None) -> list:
    if y is None:
        y = [v.label for v in vectors]
    if len(y) != len(vectors):
        raise ValueError(f"got {len(vectors)} vectors but {len(y)} labels")
    out = []
    for i, label in enumerate(y):
        if label is None:
            raise ValueError(f"vector {i} has no label; supply y explicitly")
        if isinstance(label, StanceLabel):
            label = label.value
        if label not in LABEL_INDEX:
            raise ValueError(f"unknown label {label!r} at position {i}")
        out.append(label)
    return out


def is_finite_number(value) -> bool:
    """A real JSON number (not a bool) that is neither infinite nor NaN."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def is_index(value, size: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < size


def to_dense(vectors, n_features: int) -> np.ndarray:
    X = np.zeros((len(vectors), n_features), dtype=np.float64)
    for row, vector in enumerate(vectors):
        for index, value in vector.values.items():
            X[row, index] = value
    return X


def labels_to_indices(y) -> np.ndarray:
    return np.array([LABEL_INDEX[label] for label in y], dtype=np.int64)


def training_matrix(what: str, X, y, schema, n_features) -> tuple:
    """(schema fingerprint, column count, dense matrix, label indices) of a
    training set: labels come from the vectors unless y is given, and the
    column count from the schema unless n_features is given."""
    if not X:
        raise ValueError(f"cannot fit {what} on an empty training set")
    if n_features is None:
        if schema is None:
            raise ValueError("supply schema or n_features")
        n_features = len(schema)
    fingerprint = schema.fingerprint if schema is not None else X[0].schema_fingerprint
    indices = labels_to_indices(resolve_labels(X, y))
    return fingerprint, n_features, to_dense(X, n_features), indices


def argmax_label(scores: np.ndarray) -> str:
    # np.argmax takes the first maximum, which is the fixed class order
    return CLASS_NAMES[int(np.argmax(scores))]


def scores_dict(scores: np.ndarray) -> dict:
    return {name: float(scores[i]) for i, name in enumerate(CLASS_NAMES)}
