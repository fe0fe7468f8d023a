"""Random forest: seeding, bagging, feature sampling, vote aggregation."""
from __future__ import annotations

import numpy as np
import pytest

from rumourstance.features import FeatureVector
from rumourstance.learners import (
    ForestParams,
    TreeParams,
    fit_forest,
    fit_tree,
    predict,
)


def make_vectors(rng, n, m, classes=("support", "deny", "query", "comment")):
    labels = rng.choice(classes, size=n).tolist()
    return [
        FeatureVector(
            tweet_id=str(i),
            schema_fingerprint=0,
            values={j: float(v) for j, v in enumerate(rng.normal(size=m))},
            label=lab,
        )
        for i, lab in enumerate(labels)
    ]


def test_same_seed_same_forest():
    rng = np.random.default_rng(1)
    vecs = make_vectors(rng, 30, 5)
    a = fit_forest(vecs, params=ForestParams(n_trees=7, seed=42), n_features=5)
    b = fit_forest(vecs, params=ForestParams(n_trees=7, seed=42), n_features=5)
    assert a.payload == b.payload


def test_different_seed_different_forest():
    rng = np.random.default_rng(1)
    vecs = make_vectors(rng, 30, 5)
    a = fit_forest(vecs, params=ForestParams(n_trees=7, seed=42), n_features=5)
    b = fit_forest(vecs, params=ForestParams(n_trees=7, seed=43), n_features=5)
    assert a.payload != b.payload


def test_tree_streams_are_a_prefix():
    """Per-tree counter-based randomness: growing the forest keeps earlier trees."""
    rng = np.random.default_rng(2)
    vecs = make_vectors(rng, 30, 5)
    small = fit_forest(vecs, params=ForestParams(n_trees=3, seed=9), n_features=5)
    large = fit_forest(vecs, params=ForestParams(n_trees=8, seed=9), n_features=5)
    assert large.payload["trees"][:3] == small.payload["trees"]


def test_degenerate_forest_equals_unpruned_tree():
    """One tree, no bagging, all features considered: the forest is that tree."""
    rng = np.random.default_rng(4)
    vecs = make_vectors(rng, 25, 4)
    forest = fit_forest(
        vecs,
        params=ForestParams(n_trees=1, bagging=False, features_per_split="all", seed=0),
        n_features=4,
    )
    tree = fit_tree(vecs, params=TreeParams(pruning=False), n_features=4)
    assert forest.payload["trees"][0] == tree.payload["root"]
    for probe in make_vectors(rng, 10, 4):
        assert predict(forest, probe) == predict(tree, probe)


def test_forest_votes_average_distributions():
    rng = np.random.default_rng(7)
    vecs = make_vectors(rng, 30, 4, classes=("support", "deny"))
    model = fit_forest(vecs, params=ForestParams(n_trees=5, seed=1), n_features=4)
    probe = vecs[0]
    from rumourstance.learners.base import to_dense
    from rumourstance.learners.forest import forest_distribution
    from rumourstance.learners.tree import tree_distribution

    row = to_dense([probe], 4)[0]
    per_tree = [tree_distribution(t, row) for t in model.payload["trees"]]
    want = np.mean(per_tree, axis=0)
    got = forest_distribution(model.payload, row)
    assert np.allclose(got, want)
    label, scores = predict(model, probe)
    assert scores["support"] == pytest.approx(float(want[0]))


def test_scores_sum_to_one():
    rng = np.random.default_rng(8)
    vecs = make_vectors(rng, 30, 4)
    model = fit_forest(vecs, params=ForestParams(n_trees=9, seed=2), n_features=4)
    for probe in vecs[:10]:
        _, scores = predict(model, probe)
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-9)
        assert list(scores) == ["support", "deny", "query", "comment"]


def test_single_class_forest_is_constant():
    rng = np.random.default_rng(9)
    vecs = make_vectors(rng, 12, 3, classes=("comment",))
    model = fit_forest(vecs, params=ForestParams(n_trees=4, seed=0), n_features=3)
    for probe in vecs:
        label, scores = predict(model, probe)
        assert label == "comment"
        assert scores["comment"] == 1.0
