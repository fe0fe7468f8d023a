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
_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny
# below about 2.5 rows per neighbour, measuring every row was faster (1,200
# columns, 50 nonzero per row, k=10)
_FILTER_ROWS_PER_NEIGHBOUR = 3


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
    return np.divide(X - mins, ranges, out=np.zeros_like(X), where=ranges > 0)


def fit_knn(X: np.ndarray, y: np.ndarray, params: KnnParams) -> dict:
    """The in-memory k-NN payload of the rows of X, whose class indices are
    y: the normalized training matrix, in training order, with its labels."""
    k = params.k
    if k > len(y):
        log.warning("k=%d exceeds the %d training instances; clamping", k, len(y))
        k = len(y)
    mins = X.min(axis=0)
    ranges = X.max(axis=0) - mins
    return {"matrix": normalize_columns(X, mins, ranges), "labels": np.asarray(y, dtype=np.int64),
            "mins": mins, "ranges": ranges, "k": k, "weighting": params.weighting}


def _candidates(matrix, row_norms, max_norm, query, k):
    """Indices, ascending, of the training rows that can be among the k
    nearest to a normalized query, or None when every row must be measured.

    The filter ranks rows by the approximate squared distance
    |m|^2 + |q|^2 - 2 m.q, taken over the query's nonzero columns. E =
    4(n+4) eps (max |m|^2 + |q|^2) bounds its gap to the exact form over n
    columns (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., 3.1: |fl(x.y) - x.y| <= n eps |x|.|y|), and a tiny-number term
    per column covers underflow. A row of the exact top k is then within 2E
    of a_k, the k-th smallest approximation; scaling by 1 + 8 eps keeps too
    the rows whose exact distance differs from the k-th by less than its
    square root's rounding, which tie with it after `np.sqrt`. A non-finite
    approximation sends the query down the exact path (None), and so do
    fewer than _FILTER_ROWS_PER_NEIGHBOUR training rows per neighbour: the
    refine measures at least k rows, so there the filter costs more than it
    saves."""
    if len(matrix) < _FILTER_ROWS_PER_NEIGHBOUR * k:
        return None
    n = matrix.shape[1]
    nz = np.flatnonzero(query)
    q = query[nz]
    # einsum multiplies element-wise: no BLAS call, so no OpenBLAS threads
    query_norm = float(np.einsum("i,i->", q, q))
    approx = row_norms + query_norm - 2.0 * np.einsum("ij,j->i", matrix[:, nz], q)
    if not np.isfinite(approx).all():
        return None
    bound = 4 * (n + 4) * _EPS * (max_norm + query_norm) + n * _TINY
    a_k = np.partition(approx, k - 1)[k - 1]
    return np.flatnonzero(approx <= (a_k + 2.0 * bound) * (1.0 + 8.0 * _EPS))


def knn_scores(payload: dict, X: np.ndarray) -> list:
    """Class scores of each row of X. Only the rows that `_candidates` keeps
    get the exact distance, so neighbour order, distances and votes are
    those of measuring every row. A neighbour at a non-finite distance is a
    ModelError."""
    matrix, labels, k = payload["matrix"], payload["labels"], payload["k"]
    with np.errstate(over="ignore"):  # an overflowing norm fails the filter
        row_norms = np.einsum("ij,ij->i", matrix, matrix)
    max_norm = float(row_norms.max())
    out = []
    for row in X:  # row by row: temporaries grow with the training rows, not with X
        # an overflow fails the filter, or reads as an infinite distance
        with np.errstate(over="ignore", invalid="ignore"):
            query = normalize_columns(row, payload["mins"], payload["ranges"])
            rows = _candidates(matrix, row_norms, max_norm, query, k)
            measured = matrix if rows is None else matrix[rows]
            distances = np.sqrt(((measured - query) ** 2).sum(axis=1))
        # stable sort keeps training order among equal distances
        order = np.argsort(distances, kind="stable")[:k]
        if not np.isfinite(distances[order]).all():
            raise ModelError("k-NN neighbour at a non-finite distance (the distance overflows)")
        weights = np.ones(len(order)) if payload["weighting"] == "uniform" \
            else 1.0 / (distances[order] + DISTANCE_FLOOR)
        votes = np.zeros(N_CLASSES, dtype=np.float64)
        neighbours = order if rows is None else rows[order]
        np.add.at(votes, labels[neighbours], weights)  # summed in neighbour order
        out.append(votes / votes.sum())
    return out


def encode_knn(payload: dict) -> dict:
    """The JSON form of an in-memory k-NN payload: each training row stored
    sparsely as {column: value}."""
    instances = []
    for row in payload["matrix"]:
        nz = np.nonzero(row)[0]
        instances.append(dict(zip(map(str, nz.tolist()), row[nz].tolist())))
    return {"instances": instances, "labels": payload["labels"].tolist(),
            "mins": payload["mins"].tolist(), "ranges": payload["ranges"].tolist(),
            "k": payload["k"], "weighting": payload["weighting"]}


def load_knn(payload: dict, n_features: int) -> dict:
    """The in-memory form of a checked JSON k-NN payload."""
    check_knn(payload, n_features)
    matrix = np.zeros((len(payload["instances"]), n_features), dtype=np.float64)
    for row, sparse in enumerate(payload["instances"]):
        matrix[row, [int(key) for key in sparse]] = list(sparse.values())
    return {"matrix": matrix, "labels": np.array(payload["labels"], dtype=np.int64),
            "mins": np.array(payload["mins"], float), "ranges": np.array(payload["ranges"], float),
            "k": payload["k"], "weighting": payload["weighting"]}


def check_knn(payload: dict, n_features: int) -> None:
    """Raise ModelError unless the payload holds one class label per stored
    instance, n_features finite mins and non-negative ranges, instances
    keyed as encode_knn keys them, 1 <= k <= the instance count and a known
    weighting."""
    instances, labels = payload.get("instances"), payload.get("labels")
    if not (isinstance(instances, list) and isinstance(labels, list)
            and len(instances) == len(labels)
            and all(is_index(label, N_CLASSES) for label in labels)):
        raise ModelError("k-NN payload must hold one class label per instance")
    # normalize_columns reads a negative range as a constant column
    for key, kind in (("mins", "finite"), ("ranges", "finite non-negative")):
        values = payload.get(key)
        if not (isinstance(values, list) and len(values) == n_features
                and all(is_finite_number(v) and (key == "mins" or v >= 0) for v in values)):
            raise ModelError(f"k-NN {key} must hold {n_features} {kind} numbers")
    # one plain decimal key per column; checked after the mins, which bound n_features
    keys = set(map(str, range(n_features)))
    if not all(isinstance(sparse, dict)
               and all(key in keys and is_finite_number(value)
                       for key, value in sparse.items())
               for sparse in instances):
        raise ModelError("k-NN instance with a column outside the model or a non-finite value")
    k = payload.get("k")
    if not (is_index(k, len(instances) + 1) and k >= 1
            and payload.get("weighting") in _WEIGHTINGS):
        raise ModelError(f"k-NN needs 1 <= k <= {len(instances)} instances and a "
                         f"weighting in {_WEIGHTINGS}; got k={k!r}, "
                         f"weighting={payload.get('weighting')!r}")
