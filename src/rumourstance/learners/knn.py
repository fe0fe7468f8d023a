"""k-nearest-neighbour classifier with inverse-distance vote weighting.

Distances are Euclidean over min-max-normalized columns; the ranges come
from the training data only. Zero-range columns normalize to 0 so constant
features never contribute to distance. Neighbour ties on distance resolve
by training order, vote ties by the fixed class order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ..errors import ModelError
from .base import N_CLASSES, is_finite_number, is_index, is_int

log = logging.getLogger(__name__)

_WEIGHTINGS = ("inverse_distance", "uniform")
DISTANCE_FLOOR = 1e-9


@dataclass(frozen=True)
class KnnParams:
    k: int = 10
    weighting: str = "inverse_distance"

    def __post_init__(self):
        if not (is_int(self.k) and self.k >= 1):
            raise ValueError("k must be an integer >= 1")
        if self.weighting not in _WEIGHTINGS:
            raise ValueError(f"weighting must be one of {_WEIGHTINGS}")


def normalize_columns(X: np.ndarray, mins: np.ndarray,
                      ranges: np.ndarray) -> np.ndarray:
    out = np.zeros_like(X)
    nonzero = ranges > 0
    out[:, nonzero] = (X[:, nonzero] - mins[nonzero]) / ranges[nonzero]
    return out


def fit_knn(X: np.ndarray, y: np.ndarray, params: KnnParams) -> dict:
    """The k-NN payload of the rows of X, whose class indices are y: each
    row normalized and stored sparsely, in training order."""
    k = params.k
    if k > len(y):
        log.warning("k=%d exceeds the %d training instances; clamping", k, len(y))
        k = len(y)
    mins = X.min(axis=0)
    ranges = X.max(axis=0) - mins
    instances = []
    for row in normalize_columns(X, mins, ranges):
        nz = np.nonzero(row)[0]
        instances.append({str(int(i)): float(row[i]) for i in nz})
    return {
        "instances": instances,
        "labels": [int(i) for i in y],
        "mins": [float(v) for v in mins],
        "ranges": [float(v) for v in ranges],
        "k": k,
        "weighting": params.weighting,
    }


def knn_scores(payload: dict, X: np.ndarray, n_features: int) -> list:
    """Class scores of each row of X."""
    matrix = np.zeros((len(payload["instances"]), n_features), dtype=np.float64)
    for row, sparse in enumerate(payload["instances"]):
        for index_text, value in sparse.items():
            matrix[row, int(index_text)] = value
    mins, ranges = np.asarray(payload["mins"]), np.asarray(payload["ranges"])
    out = []
    for row in X:
        query = normalize_columns(row.reshape(1, -1), mins, ranges)[0]
        with np.errstate(over="ignore"):  # an overflowing distance reads inf
            distances = np.sqrt(((matrix - query) ** 2).sum(axis=1))
        # stable sort keeps training order among equal distances
        order = np.argsort(distances, kind="stable")[:payload["k"]]
        votes = np.zeros(N_CLASSES, dtype=np.float64)
        for i in order:
            weight = 1.0 if payload["weighting"] == "uniform" \
                else 1.0 / (distances[i] + DISTANCE_FLOOR)
            votes[payload["labels"][i]] += weight
        total = votes.sum()
        if not 0 < total < np.inf:  # every neighbour at infinite distance
            raise ModelError(f"k-NN vote total {total} is not finite and positive")
        out.append(votes / total)
    return out


def check_knn(payload: dict, n_features: int) -> None:
    """Raise ModelError unless the payload holds one class label per stored
    instance, instances over the model's columns, n_features finite mins
    and ranges, 1 <= k <= the instance count and a known weighting."""
    instances, labels = payload.get("instances"), payload.get("labels")
    if not (isinstance(instances, list) and isinstance(labels, list)
            and len(instances) == len(labels)
            and all(is_index(label, N_CLASSES) for label in labels)):
        raise ModelError("k-NN payload must hold one class label per instance")
    if not all(isinstance(sparse, dict)
               and all(key.isdecimal() and int(key) < n_features and is_finite_number(value)
                       for key, value in sparse.items())
               for sparse in instances):
        raise ModelError("k-NN instance with a column outside the model or a non-finite value")
    for key in ("mins", "ranges"):
        values = payload.get(key)
        if not (isinstance(values, list) and len(values) == n_features
                and all(is_finite_number(v) for v in values)):
            raise ModelError(f"k-NN {key} must hold {n_features} finite numbers")
    k = payload.get("k")
    if not (is_index(k, len(instances) + 1) and k >= 1
            and payload.get("weighting") in _WEIGHTINGS):
        raise ModelError(f"k-NN needs 1 <= k <= {len(instances)} instances and a "
                         f"weighting in {_WEIGHTINGS}; got k={k!r}, "
                         f"weighting={payload.get('weighting')!r}")
