"""Decision tree: split scoring oracles, pruning arithmetic, determinism."""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict
from statistics import NormalDist

import numpy as np
import pytest

import rumourstance.learners.tree as tree
from rumourstance.evaluation import _labelled_rows
from rumourstance.features import featurize_corpus, resolve_now
from rumourstance.learners import (
    ForestParams,
    ModelError,
    TreeParams,
    fit_forest,
    fit_model,
    fit_tree,
    predict_many,
)
from rumourstance.learners.base import CLASS_NAMES, to_dense
from rumourstance.learners.forest import _tree_rng, subset_size
from rumourstance.learners.tree import (
    _best_splits,
    _entropy,
    _estimated_errors,
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


def fit_rows(rows, labels, params, n_features):
    """The tree model of labelled sparse rows, as `stance train` fits one."""
    return fit_model("tree", to_dense(rows, n_features), classes(labels), params, 0)


def predict_one(model, row):
    """(label, {class: score}) of one sparse row by predict_many()."""
    scores = predict_many(model, to_dense([row], model.n_features))[0]
    return CLASS_NAMES[int(scores.argmax())], dict(zip(CLASS_NAMES, scores.tolist()))


def make_rows(X):
    return [{j: float(v) for j, v in enumerate(row) if v != 0.0} for row in X]


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
    """`_best_splits` on one-column nodes."""
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
        got, = _best_splits(values[:, None], y, [(np.arange(len(y)), np.array([0]))], min_leaf)
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
    """Reference for one node of `_best_splits`: each candidate column's
    best midpoint in turn, kept only when its ratio is strictly higher."""
    best_ratio, best = -np.inf, None
    for column in candidates:
        found = best_split_in_column(X[rows, column], yr, min_leaf, parent_entropy)
        if found is not None and found[0] > best_ratio:
            best_ratio, best = found[0], (int(column), found[1])
    return best


def scan_node(X, y, rows, candidates, min_leaf):
    """scan_columns() of one node of a `_best_splits` batch."""
    yr = y[rows]
    parent = _entropy(np.bincount(yr, minlength=len(CLASS_NAMES)))
    return scan_columns(X, rows, yr, candidates, min_leaf, parent)


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


def random_rows(rng, n_rows, size, bootstrap):
    """`size` row indices of an n_rows matrix in random order: a bootstrap
    draw (with duplicates) or distinct rows, sometimes sorted."""
    rows = rng.integers(0, n_rows, size=size) if bootstrap \
        else rng.permutation(n_rows)[:size]
    return np.sort(rows) if rng.random() < 0.5 else rows


def test_node_scorer_equals_the_per_column_scan():
    """Single nodes on all rows, and batches of 1-8 nodes of different row
    counts: each node's answer is the scan of that node alone."""
    rng = np.random.default_rng(31)
    split = tied = batched = 0
    for trial in range(600):
        n = int(rng.integers(2, 40))
        X = random_node_matrix(rng, n)
        y = rng.integers(0, int(rng.integers(1, 5)), size=n)
        m = X.shape[1]
        width = int(rng.integers(1, m + 1)) if trial % 3 else m
        if trial % 4:
            nodes = [(random_rows(rng, n, int(rng.integers(2, n + 1)), bool(rng.integers(2))),
                      np.sort(rng.permutation(m)[:width]))
                     for _ in range(int(rng.integers(1, 9)))]
        else:
            nodes = [(np.arange(n), np.sort(rng.permutation(m)[:width]))]
        min_leaf = int(rng.integers(1, 4))
        got = _best_splits(X, y, nodes, min_leaf)
        assert len(got) == len(nodes)
        for (rows, candidates), found in zip(nodes, got):
            assert found == scan_node(X, y, rows, candidates, min_leaf), trial
            if found is not None:
                split += 1
                batched += len(nodes) > 1 and len({len(r) for r, _ in nodes}) > 1
                # a later candidate equal on the node's rows scores the same
                tied += any(np.array_equal(X[rows, found[0]], X[rows, c])
                            for c in candidates if c > found[0])
    assert split > 1000 and tied > 150 and batched > 500


def recorded_searches(monkeypatch):
    """A list that gains (X, y, node, min_leaf, answer) for every node of
    every `_best_splits` call from now on."""
    searches = []

    def recording(X, y, nodes, min_leaf):
        found = _best_splits(X, y, nodes, min_leaf)
        searches.extend((X, y, node, min_leaf, answer) for node, answer in zip(nodes, found))
        return found

    monkeypatch.setattr(tree, "_best_splits", recording)
    return searches


@pytest.fixture(scope="module")
def micro_matrix(micro, bundle):
    """(X, y) of the labelled micro tweets, as `stance train` fits them."""
    _, schema, analyses = featurize_corpus(micro, bundle, None,
                                                      resolve_now(None, micro))
    return _labelled_rows(analyses, schema)[:2]


def test_fitted_trees_split_as_the_per_column_scan(monkeypatch, micro_matrix):
    """Every node of every batched split search of a micro tree fit and of
    a 5-tree forest fit, replayed alone through the per-column scan."""
    X, y = micro_matrix
    searches = recorded_searches(monkeypatch)
    fit_tree(X, y, TreeParams())
    n_tree = len(searches)
    fit_forest(X, y, ForestParams(n_trees=5, seed=1))
    assert n_tree == 4 and len(searches) - n_tree > 40
    many_valued = 0
    for X_, y_, (rows, candidates), min_leaf, found in searches:
        assert found == scan_node(X_, y_, rows, candidates, min_leaf)
        many_valued += any(len(np.unique(X_[rows, c])) > 2 for c in candidates)
    assert many_valued > 10


def reference_grow(X, y, rows, depth, params, columns_for_node):
    """The recursive grower that the lockstep one replaced, with its
    on-the-fly pruning: (payload, estimated errors) of the subtree on
    `rows`, each node searched by the per-column scan. columns_for_node()
    gives the sorted candidate columns of each searched node."""
    yr = y[rows]
    counts = np.bincount(yr, minlength=len(CLASS_NAMES)).astype(np.float64)
    as_leaf = _estimated_errors(counts, params.confidence) if params.pruning else 0.0
    leaf = {"kind": "leaf", "counts": [float(c) for c in counts]}, as_leaf
    if counts.max() == len(rows) or len(rows) < 2 * params.min_leaf:
        return leaf
    if params.max_depth is not None and depth >= params.max_depth:
        return leaf
    found = scan_columns(X, rows, yr, columns_for_node(), params.min_leaf, _entropy(counts))
    if found is None:
        return leaf
    column, threshold = found
    mask = X[rows, column] <= threshold
    left, left_errors = reference_grow(X, y, rows[mask], depth + 1, params, columns_for_node)
    right, right_errors = reference_grow(X, y, rows[~mask], depth + 1, params, columns_for_node)
    subtree = left_errors + right_errors
    if params.pruning and as_leaf <= subtree + 0.1:
        return leaf
    return {"kind": "split", "column": column, "threshold": threshold,
            "left": left, "right": right}, subtree


def reference_tree(X, y, params):
    root, _ = reference_grow(X, y, np.arange(len(y)), 0, params, lambda: np.arange(X.shape[1]))
    return {"root": root, "params": asdict(params)}


def reference_forest(X, y, params):
    """One tree after another, each drawing from its own stream."""
    k = subset_size(params.features_per_split, X.shape[1])
    trees = []
    for i in range(params.n_trees):
        rng = _tree_rng(params.seed, i)
        rows = rng.integers(0, len(y), size=len(y)) if params.bagging else np.arange(len(y))

        def draw_columns(rng=rng):
            if k >= X.shape[1]:
                return np.arange(X.shape[1])
            return np.sort(rng.permutation(X.shape[1])[:k])

        trees.append(reference_grow(X, y, rows, 0, TreeParams(pruning=False), draw_columns)[0])
    return {"trees": trees, "params": asdict(params)}


def grower_inputs(micro_matrix):
    """(name, X, y): micro with the columns that vary on it, and random
    node matrices."""
    X, y = micro_matrix
    yield "micro", X[:, X.min(axis=0) < X.max(axis=0)], y
    rng = np.random.default_rng(41)
    for i in range(3):
        n = int(rng.integers(8, 60))
        yield f"random-{i}", random_node_matrix(rng, n), rng.integers(0, 4, size=n)


def test_tree_equals_the_recursive_reference(micro_matrix):
    split = 0
    for name, X, y in grower_inputs(micro_matrix):
        for pruning in (True, False):
            for max_depth in (0, 2, None):
                for min_leaf in (1, 2, 3):
                    params = TreeParams(pruning=pruning, min_leaf=min_leaf, max_depth=max_depth)
                    got = fit_tree(X, y, params)
                    assert got == reference_tree(X, y, params), (name, params)
                    split += got["root"]["kind"] == "split"
    assert split > 40


def test_forest_equals_the_recursive_reference(micro_matrix):
    for name, X, y in grower_inputs(micro_matrix):
        for bagging in (True, False):
            for rule in ("log2", "sqrt", "all"):
                for seed in (0, 5):
                    params = ForestParams(n_trees=7, features_per_split=rule,
                                          bagging=bagging, seed=seed)
                    want = reference_forest(X, y, params)
                    assert fit_forest(X, y, params) == want, (name, params)
                    # the reference grows tree i from stream (seed, i) alone
                    one = ForestParams(n_trees=1, features_per_split=rule,
                                       bagging=bagging, seed=seed)
                    assert fit_forest(X, y, one) == {"trees": want["trees"][:1],
                                                     "params": asdict(one)}, (name, one)


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
    for row, lab in zip(make_rows(X), labels):
        assert predict_one(model, row)[0] == lab


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
    """The pruned fit equals pruning the unpruned fit with each node's
    class counts taken by routing the training rows down it."""
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
        label, scores = predict_one(model, dict(enumerate(map(float, row))))
        assert label == "query"
        assert scores["query"] == 1.0


def test_missing_columns_read_as_zero():
    rows = [{0: 5.0}, {}] * 3
    model = fit_rows(rows, ["support", "deny"] * 3, TreeParams(min_leaf=1), 1)
    dense_zero = {0: 0.0}
    sparse_zero = {}
    assert predict_one(model, dense_zero) == predict_one(model, sparse_zero)
    assert predict_one(model, sparse_zero)[0] == "deny"


def test_tie_break_prefers_class_order():
    # perfectly balanced leaf: Support wins the argmax by order
    model = fit_rows([{}] * 4, ["comment", "support", "comment", "support"], TreeParams(), 1)
    assert predict_one(model, {})[0] == "support"


def test_matrix_of_another_width_is_rejected():
    model = fit_model("tree", np.zeros((4, 1)), classes(["support"] * 4), TreeParams(), 0)
    assert predict_many(model, np.zeros((1, 1)))[0].argmax() == 0
    with pytest.raises(ModelError):
        predict_many(model, np.zeros((1, 2)))
