"""Decision tree: split scoring oracles, pruning arithmetic, determinism."""
from __future__ import annotations

import math
from collections import Counter
from statistics import NormalDist

import numpy as np
import pytest

import rumourstance.learners.tree as tree
from rumourstance.features import FeatureVector, featurize_corpus, resolve_now
from rumourstance.learners import (
    ForestParams,
    ModelError,
    TreeParams,
    fit_forest,
    fit_model,
    fit_tree,
    predict_many,
)
from rumourstance.learners.base import CLASS_NAMES, label_indices, to_dense
from rumourstance.learners.tree import (
    _best_split,
    _entropy,
    _gain_ratios,
    added_errors,
    info_gain_ratio,
)


def entropy(labels):
    n = len(labels)
    total = 0.0
    for count in Counter(labels).values():
        p = count / n
        total -= p * math.log2(p)
    return total


def oracle_gain_ratio(values, labels, threshold):
    """Straight transcription of the C4.5 gain-ratio definition."""
    left = [l for v, l in zip(values, labels) if v <= threshold]
    right = [l for v, l in zip(values, labels) if v > threshold]
    if not left or not right:
        return 0.0
    n = len(labels)
    wl, wr = len(left) / n, len(right) / n
    gain = entropy(labels) - wl * entropy(left) - wr * entropy(right)
    split_info = -(wl * math.log2(wl) + wr * math.log2(wr))
    if split_info == 0.0:
        return 0.0
    return gain / split_info


def oracle_added_errors(n, e, cf):
    """Pessimistic error count from the normal approximation to the binomial
    upper confidence bound, the same published recipe the pruner uses."""
    if e < 1.0:
        base = n * (1.0 - cf ** (1.0 / n))
        if e == 0.0:
            return base
        return base + e * (oracle_added_errors(n, 1.0, cf) - base)
    if e + 0.5 >= n:
        return max(n - e, 0.0)
    z = NormalDist().inv_cdf(1.0 - cf)
    f = (e + 0.5) / n
    upper = (
        f + z * z / (2 * n) + z * math.sqrt(f / n - f * f / n + z * z / (4 * n * n))
    ) / (1 + z * z / n)
    return upper * n - e


def random_column(rng, n):
    values = rng.normal(size=n).round(3).tolist()
    labels = rng.choice(["support", "deny", "query", "comment"], size=n).tolist()
    return values, labels


def classes(labels):
    return np.array([CLASS_NAMES.index(label) for label in labels])


def fit_vectors(vecs, params, n_features):
    """The tree model of labelled vectors, as `stance train` fits one."""
    return fit_model("tree", to_dense(vecs, n_features), label_indices(vecs), params, 0)


def predict_one(model, vector):
    """predict_many() of one feature vector."""
    return predict_many(model, to_dense([vector], model.n_features))[0]


def make_vectors(X, labels):
    return [
        FeatureVector(
            tweet_id=str(i),
            values={j: float(v) for j, v in enumerate(row) if v != 0.0},
            label=lab,
        )
        for i, (row, lab) in enumerate(zip(X, labels))
    ]


def test_gain_ratio_matches_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        values, labels = random_column(rng, n)
        threshold = float(rng.choice(values))
        got = info_gain_ratio(values, labels, threshold)
        want = oracle_gain_ratio(values, labels, threshold)
        assert got == pytest.approx(want, abs=1e-12)


def test_gain_ratio_perfect_split():
    assert info_gain_ratio([0.0, 0.1, 0.9, 1.0], ["support"] * 2 + ["deny"] * 2, 0.5) == 1.0


def test_gain_ratio_one_sided_is_zero():
    assert info_gain_ratio([1, 2, 3], ["support", "deny", "query"], 5.0) == 0.0


def admissible_midpoints(values, min_leaf):
    """Every midpoint between consecutive distinct values that leaves at
    least min_leaf rows on each side, ascending."""
    distinct = sorted(set(values))
    midpoints = [(a + b) / 2.0 for a, b in zip(distinct, distinct[1:])]
    return [t for t in midpoints
            if min_leaf <= sum(v <= t for v in values) <= len(values) - min_leaf]


def test_best_split_in_column_is_the_best_gain_ratio_midpoint():
    """`_best_split` on one-column nodes."""
    rng = np.random.default_rng(23)
    found = mirrored = 0
    for trial in range(300):
        n = int(rng.integers(2, 25))
        values = rng.normal(size=n).round(int(rng.integers(0, 3)))
        y = rng.integers(0, int(rng.integers(2, 5)), size=n)
        mirror = trial % 3 == 0
        if mirror:
            # each row twice, at v and -v: a split at t and its mirror at -t
            # swap sides, so every best midpoint ties with its mirror
            values, y = np.concatenate([values, -values]), np.concatenate([y, y])
        labels = [CLASS_NAMES[k] for k in y]
        min_leaf = int(rng.integers(1, 4))
        parent = _entropy(np.bincount(y, minlength=len(CLASS_NAMES)))
        got = _best_split(values[:, None], np.arange(len(y)), y, np.array([0]),
                          min_leaf, parent)
        scored = [(info_gain_ratio(values.tolist(), labels, t), t)
                  for t in admissible_midpoints(values.tolist(), min_leaf)]
        if got is None:
            assert all(ratio <= 1e-9 for ratio, _ in scored)
            continue
        found += 1
        column, threshold = got
        best = max(ratio for ratio, _ in scored)
        assert column == 0
        assert abs(info_gain_ratio(values.tolist(), labels, threshold) - best) <= 1e-12
        assert threshold in [t for ratio, t in scored if ratio >= best - 1e-12]
        if mirror:
            # the lower of the two tied midpoints
            assert threshold <= 0.0
            mirrored += threshold < 0.0
    assert found > 200 and mirrored > 50


def best_split_in_column(v, y, min_leaf, parent_entropy):
    """(gain_ratio, threshold) of the best admissible midpoint split of one
    column, or None when it offers no split with positive gain."""
    n = len(v)
    order = np.argsort(v, kind="stable")
    sv = v[order]
    cum = np.cumsum(np.eye(len(CLASS_NAMES))[y[order]], axis=0)
    boundaries = np.nonzero(sv[1:] > sv[:-1])[0]
    if boundaries.size == 0:
        return None
    ratio = _gain_ratios(cum[boundaries], boundaries + 1, cum[-1], n, min_leaf,
                         parent_entropy)
    best = int(np.argmax(ratio))
    if not np.isfinite(ratio[best]):
        return None
    threshold = (sv[boundaries[best]] + sv[boundaries[best] + 1]) / 2.0
    return float(ratio[best]), float(threshold)


def scan_columns(X, rows, yr, candidates, min_leaf, parent_entropy):
    """Reference for `_best_split`: each candidate column's best midpoint
    in turn, kept only when its ratio is strictly higher."""
    best_ratio, best = -np.inf, None
    for column in candidates:
        found = best_split_in_column(X[rows, column], yr, min_leaf, parent_entropy)
        if found is not None and found[0] > best_ratio:
            best_ratio, best = found[0], (int(column), found[1])
    return best


def random_node_matrix(rng, n):
    """Constant, 0/1, 0/2, negative two-valued and real columns, with some
    columns duplicated so that gain ratios tie across columns."""
    makers = [
        lambda: np.full(n, float(rng.choice([0.0, 1.0, -3.5]))),
        lambda: rng.integers(0, 2, size=n).astype(float),
        lambda: 2.0 * rng.integers(0, 2, size=n),
        lambda: rng.choice([-1.5, 0.25], size=n),
        lambda: rng.normal(size=n).round(1),
        lambda: rng.integers(0, 4, size=n).astype(float),
    ]
    columns = [makers[int(rng.integers(len(makers)))]() for _ in range(int(rng.integers(1, 14)))]
    for _ in range(int(rng.integers(0, 4))):
        columns.insert(int(rng.integers(len(columns) + 1)),
                       columns[int(rng.integers(len(columns)))].copy())
    return np.column_stack(columns)


def test_node_scorer_equals_the_per_column_scan():
    rng = np.random.default_rng(31)
    split = tied = 0
    for trial in range(600):
        n = int(rng.integers(2, 40))
        X = random_node_matrix(rng, n)
        y = rng.integers(0, int(rng.integers(1, 5)), size=n)
        if trial % 2:
            rows = np.sort(rng.integers(0, n, size=n))  # a bootstrap draw
        else:
            rows = np.arange(n)
        m = X.shape[1]
        if trial % 3:
            candidates = np.sort(rng.permutation(m)[: int(rng.integers(1, m + 1))])
        else:
            candidates = np.arange(m)
        yr = y[rows]
        parent = _entropy(np.bincount(yr, minlength=len(CLASS_NAMES)))
        min_leaf = int(rng.integers(1, 4))
        want = scan_columns(X, rows, yr, candidates, min_leaf, parent)
        got = _best_split(X, rows, yr, candidates, min_leaf, parent)
        assert got == want, trial
        if got is not None:
            split += 1
            # a later candidate equal on the node's rows scores the same
            tied += any(np.array_equal(X[rows, got[0]], X[rows, c])
                        for c in candidates if c > got[0])
    assert split > 300 and tied > 40


def test_fitted_trees_split_as_the_per_column_scan(monkeypatch, micro, bundle):
    """Every split search of a micro tree fit and of a 5-tree forest fit,
    replayed through the per-column scan."""
    _, schema, vectors = featurize_corpus(micro, bundle, None, resolve_now(None, micro))
    vectors = [v for v in vectors if v.label is not None]
    X, y = to_dense(vectors, len(schema)), label_indices(vectors)
    calls = []

    def recording(*args):
        found = _best_split(*args)
        calls.append((args, found))
        return found

    monkeypatch.setattr(tree, "_best_split", recording)
    fit_tree(X, y, TreeParams())
    n_tree = len(calls)
    fit_forest(X, y, ForestParams(n_trees=5, seed=1))
    assert n_tree == 4 and len(calls) - n_tree > 40
    many_valued = 0
    for args, found in calls:
        assert found == scan_columns(*args)
        X_, rows, _, candidates = args[:4]
        many_valued += any(len(np.unique(X_[rows, c])) > 2 for c in candidates)
    assert many_valued > 10


LABELS = ["support", "deny", "query", "comment", "comment", "deny", "comment",
          "support", "query"]


@pytest.mark.parametrize("n_features, values", [(0, {}), (3, {0: 1.0, 2: -2.5})],
                         ids=["no-columns", "constant-columns"])
def test_no_varying_column_gives_leaves(n_features, values):
    X = np.zeros((len(LABELS), n_features))
    for column, value in values.items():
        X[:, column] = value
    tree = fit_tree(X, classes(LABELS), TreeParams())
    assert tree["root"] == {"kind": "leaf", "counts": [2.0, 2.0, 2.0, 3.0]}
    forest = fit_forest(X, classes(LABELS), ForestParams(n_trees=3, seed=7))
    assert forest["trees"] == [
        {"kind": "leaf", "counts": [1.0, 1.0, 3.0, 4.0]},
        {"kind": "leaf", "counts": [1.0, 1.0, 1.0, 6.0]},
        {"kind": "leaf", "counts": [3.0, 0.0, 2.0, 4.0]},
    ]


def test_added_errors_matches_oracle():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 60))
        e = float(rng.integers(0, n + 1))
        got = added_errors(n, e, 0.25)
        want = oracle_added_errors(n, e, 0.25)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_added_errors_fractional_e():
    # e in (0, 1) interpolates between the e=0 and e=1 cases
    lo = added_errors(20, 0.0, 0.25)
    hi = added_errors(20, 1.0, 0.25)
    mid = added_errors(20, 0.5, 0.25)
    assert lo < mid < hi
    assert mid == pytest.approx((lo + hi) / 2, rel=1e-9)


def test_tree_learns_clean_split():
    rng = np.random.default_rng(2)
    X = np.zeros((40, 3))
    labels = []
    for i in range(40):
        if i % 2 == 0:
            X[i, 1] = rng.uniform(2.0, 3.0)
            labels.append("support")
        else:
            X[i, 1] = rng.uniform(-3.0, -2.0)
            labels.append("deny")
        X[i, 0] = rng.normal()
    model = fit_model("tree", X, classes(labels), TreeParams(), 0)
    for vec, lab in zip(make_vectors(X, labels), labels):
        assert predict_one(model, vec)[0] == lab


def test_tree_deterministic():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 4))
    labels = rng.choice(["support", "deny", "query"], size=30).tolist()
    a = fit_tree(X, classes(labels), TreeParams())
    b = fit_tree(X, classes(labels), TreeParams())
    assert a == b


def count_nodes(node):
    if node["kind"] == "leaf":
        return 1
    return 1 + count_nodes(node["left"]) + count_nodes(node["right"])


def test_pruning_never_grows_the_tree():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(60, 5))
    labels = rng.choice(["support", "deny", "query", "comment"], size=60).tolist()
    pruned = fit_tree(X, classes(labels), TreeParams(pruning=True))
    raw = fit_tree(X, classes(labels), TreeParams(pruning=False))
    assert count_nodes(pruned["root"]) <= count_nodes(raw["root"])


def post_hoc_prune(node, X, labels, rows, confidence):
    """Pessimistic error pruning as a second pass over a grown payload:
    route the training rows down for each node's class counts, then
    collapse splits bottom-up. Returns (pruned node, estimated errors)."""
    counts = [float(sum(labels[r] == name for r in rows)) for name in CLASS_NAMES]
    n = sum(counts)
    e = n - max(counts)
    as_leaf = e + added_errors(n, e, confidence)
    if node["kind"] == "leaf":
        assert node["counts"] == counts
        return node, as_leaf
    go_left = [r for r in rows if X[r, node["column"]] <= node["threshold"]]
    go_right = [r for r in rows if X[r, node["column"]] > node["threshold"]]
    left, left_errors = post_hoc_prune(node["left"], X, labels, go_left, confidence)
    right, right_errors = post_hoc_prune(node["right"], X, labels, go_right, confidence)
    subtree = left_errors + right_errors
    if as_leaf <= subtree + 0.1:
        return {"kind": "leaf", "counts": counts}, as_leaf
    return dict(node, left=left, right=right), subtree


def test_pruning_during_growth_equals_post_hoc_pruning():
    collapsed = kept = 0
    for seed in range(4):
        rng = np.random.default_rng(100 + seed)
        n = 70
        X = np.hstack([rng.integers(0, 2, size=(n, 3)).astype(float),
                       rng.normal(size=(n, 3)).round(2)])
        labels = np.where(X[:, 0] + X[:, 3] > 0.5, "support", "comment")
        noisy = rng.random(n) < 0.3
        labels[noisy] = rng.choice(list(CLASS_NAMES), size=int(noisy.sum()))
        for confidence in (0.1, 0.25, 0.5):
            for min_leaf in (1, 2, 3):
                for max_depth in (None, 2):
                    settings = dict(confidence=confidence, min_leaf=min_leaf,
                                    max_depth=max_depth)
                    raw = fit_tree(X, classes(labels),
                                   TreeParams(pruning=False, **settings))["root"]
                    want, _ = post_hoc_prune(raw, X, labels, range(n), confidence)
                    got = fit_tree(X, classes(labels),
                                   TreeParams(pruning=True, **settings))["root"]
                    assert got == want, (seed, settings)
                    collapsed += count_nodes(raw) > count_nodes(got)
                    kept += got["kind"] == "split"
    # the cases both prune some splits and keep others
    assert collapsed and kept


def min_leaf_ok(node, min_leaf):
    if node["kind"] == "leaf":
        return sum(node["counts"]) >= min_leaf or sum(node["counts"]) == 0
    return min_leaf_ok(node["left"], min_leaf) and min_leaf_ok(node["right"], min_leaf)


def test_min_leaf_respected():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(50, 4))
    labels = rng.choice(["support", "deny"], size=50).tolist()
    payload = fit_tree(X, classes(labels), TreeParams(min_leaf=5))
    assert min_leaf_ok(payload["root"], 5)


def test_single_class_input_gives_constant_tree():
    X = np.arange(12, dtype=float).reshape(6, 2)
    model = fit_model("tree", X, classes(["query"] * 6), TreeParams(), 0)
    root = model.payload["root"]
    assert root["kind"] == "leaf"
    for row in X:
        vec = FeatureVector(
            tweet_id="p", values=dict(enumerate(map(float, row))), label=None
        )
        label, scores = predict_one(model, vec)
        assert label == "query"
        assert scores["query"] == 1.0


def test_missing_columns_read_as_zero():
    vecs = [
        FeatureVector(tweet_id="a", values={0: 5.0}, label="support"),
        FeatureVector(tweet_id="b", values={}, label="deny"),
        FeatureVector(tweet_id="c", values={0: 5.0}, label="support"),
        FeatureVector(tweet_id="d", values={}, label="deny"),
        FeatureVector(tweet_id="e", values={0: 5.0}, label="support"),
        FeatureVector(tweet_id="f", values={}, label="deny"),
    ]
    model = fit_vectors(vecs, TreeParams(min_leaf=1), 1)
    dense_zero = FeatureVector(tweet_id="z", values={0: 0.0}, label=None)
    sparse_zero = FeatureVector(tweet_id="s", values={}, label=None)
    assert predict_one(model, dense_zero) == predict_one(model, sparse_zero)
    assert predict_one(model, sparse_zero)[0] == "deny"


def test_tie_break_prefers_class_order():
    # perfectly balanced leaf: Support wins the argmax by order
    vecs = [
        FeatureVector(tweet_id=str(i), values={}, label=lab)
        for i, lab in enumerate(["comment", "support", "comment", "support"])
    ]
    model = fit_vectors(vecs, TreeParams(), 1)
    probe = FeatureVector(tweet_id="p", values={}, label=None)
    assert predict_one(model, probe)[0] == "support"


def test_matrix_of_another_width_is_rejected():
    model = fit_model("tree", np.zeros((4, 1)), classes(["support"] * 4), TreeParams(), 0)
    assert predict_many(model, np.zeros((1, 1)))[0][0] == "support"
    with pytest.raises(ModelError):
        predict_many(model, np.zeros((1, 2)))
