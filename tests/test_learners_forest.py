"""Random forest: seeding, bagging, feature sampling, vote aggregation."""
from __future__ import annotations

import numpy as np
import pytest

from rumourstance.learners import (
    ForestParams,
    TreeParams,
    fit_forest,
    fit_model,
    fit_tree,
    predict_many,
)
from rumourstance.learners.base import CLASS_NAMES, to_dense


def make_data(rng, n, m, classes=("support", "deny", "query", "comment")):
    """(X, class indices, the rows of X as sparse rows)."""
    labels = rng.choice(classes, size=n).tolist()
    X = rng.normal(size=(n, m))
    rows = [{j: float(v) for j, v in enumerate(row)} for row in X]
    return X, np.array([CLASS_NAMES.index(lab) for lab in labels]), rows


def predict_one(model, row):
    """(label, {class: score}) of one sparse row by predict_many()."""
    scores = predict_many(model, to_dense([row], model.n_features))[0]
    return CLASS_NAMES[int(scores.argmax())], dict(zip(CLASS_NAMES, scores.tolist()))


def test_same_seed_same_forest():
    rng = np.random.default_rng(1)
    X, y, _ = make_data(rng, 30, 5)
    a = fit_forest(X, y, ForestParams(n_trees=7, seed=42))
    b = fit_forest(X, y, ForestParams(n_trees=7, seed=42))
    assert a == b


def test_different_seed_different_forest():
    rng = np.random.default_rng(1)
    X, y, _ = make_data(rng, 30, 5)
    a = fit_forest(X, y, ForestParams(n_trees=7, seed=42))
    b = fit_forest(X, y, ForestParams(n_trees=7, seed=43))
    assert a != b


def test_tree_streams_are_a_prefix():
    """Per-tree counter-based randomness: growing the forest keeps earlier trees."""
    rng = np.random.default_rng(2)
    X, y, _ = make_data(rng, 30, 5)
    small = fit_forest(X, y, ForestParams(n_trees=3, seed=9))
    large = fit_forest(X, y, ForestParams(n_trees=8, seed=9))
    assert large["trees"][:3] == small["trees"]


def test_degenerate_forest_equals_unpruned_tree():
    """One tree, no bagging, all features considered: the forest is that tree."""
    rng = np.random.default_rng(4)
    X, y, _ = make_data(rng, 25, 4)
    forest = fit_model(
        "forest", X, y,
        ForestParams(n_trees=1, bagging=False, features_per_split="all", seed=0), 0,
    )
    tree = fit_model("tree", X, y, TreeParams(pruning=False), 0)
    assert forest.payload["trees"][0] == tree.payload["root"]
    for probe in make_data(rng, 10, 4)[2]:
        assert predict_one(forest, probe) == predict_one(tree, probe)


def test_forest_votes_average_distributions():
    rng = np.random.default_rng(7)
    X, y, rows = make_data(rng, 30, 4, classes=("support", "deny"))
    model = fit_model("forest", X, y, ForestParams(n_trees=5, seed=1), 0)
    probe = rows[0]
    from rumourstance.learners.forest import forest_distribution
    from rumourstance.learners.tree import tree_distribution

    row = X[0]
    per_tree = [tree_distribution(t, row) for t in model.payload["trees"]]
    want = np.mean(per_tree, axis=0)
    got = forest_distribution(model.payload, row)
    assert np.allclose(got, want)
    label, scores = predict_one(model, probe)
    assert scores["support"] == pytest.approx(float(want[0]))


def test_scores_sum_to_one():
    rng = np.random.default_rng(8)
    X, y, rows = make_data(rng, 30, 4)
    model = fit_model("forest", X, y, ForestParams(n_trees=9, seed=2), 0)
    for probe in rows[:10]:
        _, scores = predict_one(model, probe)
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-9)
        assert list(scores) == ["support", "deny", "query", "comment"]


def test_single_class_forest_is_constant():
    rng = np.random.default_rng(9)
    X, y, rows = make_data(rng, 12, 3, classes=("comment",))
    model = fit_model("forest", X, y, ForestParams(n_trees=4, seed=0), 0)
    for probe in rows:
        label, scores = predict_one(model, probe)
        assert label == "comment"
        assert scores["comment"] == 1.0
