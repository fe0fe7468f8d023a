"""k-NN: min-max normalisation, neighbour choice, and weighting, against a
brute-force oracle."""
from __future__ import annotations

import numpy as np
import pytest

from rumourstance.features import FeatureVector
from rumourstance.learners import KnnParams, fit_knn, fit_model, predict_many
from rumourstance.learners.base import label_indices, to_dense

CLASSES = ("support", "deny", "query", "comment")


def make_vectors(rng, n, m):
    labels = rng.choice(CLASSES, size=n).tolist()
    X = rng.uniform(-3, 3, size=(n, m))
    vecs = [
        FeatureVector(
            tweet_id=str(i),
            values={j: float(v) for j, v in enumerate(row)},
            label=lab,
        )
        for i, (row, lab) in enumerate(zip(X, labels))
    ]
    return X, labels, vecs


def fit_vectors(vecs, params, n_features):
    """The k-NN model of labelled vectors, as `stance train` fits one."""
    return fit_model("knn", to_dense(vecs, n_features), label_indices(vecs), params, 0)


def predict_one(model, vector):
    """predict_many() of one feature vector."""
    return predict_many(model, to_dense([vector], model.n_features))[0]


def oracle_predict(X, labels, x, k, weighting):
    """Brute-force nearest-neighbour vote on min-max scaled coordinates."""
    mins = X.min(axis=0)
    ranges = X.max(axis=0) - mins
    safe = np.where(ranges == 0.0, 1.0, ranges)

    def norm(row):
        scaled = (row - mins) / safe
        return np.where(ranges == 0.0, 0.0, scaled)

    train = np.array([norm(row) for row in X])
    q = norm(x)
    dists = np.sqrt(((train - q) ** 2).sum(axis=1))
    order = np.argsort(dists, kind="stable")[:k]
    votes = np.zeros(len(CLASSES))
    for idx in order:
        if weighting == "inverse_distance":
            w = 1.0 / (dists[idx] + 1e-9)
        else:
            w = 1.0
        votes[CLASSES.index(labels[idx])] += w
    return CLASSES[int(np.argmax(votes))]


@pytest.mark.parametrize("weighting", ["inverse_distance", "uniform"])
@pytest.mark.parametrize("k", [1, 3, 10])
def test_predictions_match_oracle(k, weighting):
    rng = np.random.default_rng(100 + k)
    X, labels, vecs = make_vectors(rng, 40, 5)
    model = fit_vectors(vecs, KnnParams(k=k, weighting=weighting), 5)
    probes = rng.uniform(-3, 3, size=(25, 5))
    for row in probes:
        vec = FeatureVector(
            tweet_id="p", values=dict(enumerate(map(float, row))), label=None
        )
        got, _ = predict_one(model, vec)
        want = oracle_predict(X, labels, row, k, weighting)
        assert got == want


def test_exact_duplicate_dominates_inverse_distance():
    rng = np.random.default_rng(5)
    X, labels, vecs = make_vectors(rng, 20, 4)
    model = fit_vectors(vecs, KnnParams(k=5, weighting="inverse_distance"), 4)
    label, scores = predict_one(model, vecs[3])
    assert label == labels[3]
    assert scores[labels[3]] > 0.99


def test_k_of_n_uniform_is_class_frequency():
    rng = np.random.default_rng(6)
    X, labels, vecs = make_vectors(rng, 24, 3)
    model = fit_vectors(vecs, KnnParams(k=24, weighting="uniform"), 3)
    probe = FeatureVector(tweet_id="p", values={0: 0.1}, label=None)
    _, scores = predict_one(model, probe)
    for name in CLASSES:
        assert scores[name] == pytest.approx(labels.count(name) / len(labels))


def test_k_larger_than_n_means_all_neighbours():
    rng = np.random.default_rng(7)
    X, labels, vecs = make_vectors(rng, 6, 3)
    big = fit_vectors(vecs, KnnParams(k=50, weighting="uniform"), 3)
    all_of_them = fit_vectors(vecs, KnnParams(k=6, weighting="uniform"), 3)
    probe = FeatureVector(tweet_id="p", values={1: 0.5}, label=None)
    assert predict_one(big, probe) == predict_one(all_of_them, probe)


def test_constant_column_is_ignored():
    # a feature with zero range must not contribute to distances
    base = [
        FeatureVector(tweet_id="a", values={0: 0.0, 1: 7.0}, label="support"),
        FeatureVector(tweet_id="b", values={0: 1.0, 1: 7.0}, label="deny"),
    ]
    model = fit_vectors(base, KnnParams(k=1), 2)
    near_a = FeatureVector(tweet_id="p", values={0: 0.1, 1: -100.0}, label=None)
    assert predict_one(model, near_a)[0] == "support"


def test_deterministic():
    rng = np.random.default_rng(8)
    _, _, vecs = make_vectors(rng, 15, 4)
    a = fit_knn(to_dense(vecs, 4), label_indices(vecs), KnnParams(k=3))
    b = fit_knn(to_dense(vecs, 4), label_indices(vecs), KnnParams(k=3))
    assert a == b
