"""k-NN: min-max normalisation, neighbour choice, and weighting, against a
brute-force oracle; the candidate filter against the per-row loop."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumourstance.errors import ModelError
from rumourstance.evaluation import _labelled_rows
from rumourstance.features import featurize_corpus, resolve_now, vectorize
from rumourstance.learners import KnnParams, fit_knn, fit_model, predict_many
from rumourstance.learners.base import CLASS_NAMES, to_dense
from rumourstance.learners.knn import (
    DISTANCE_FLOOR,
    _candidates,
    encode_knn,
    knn_scores,
    load_knn,
    normalize_columns,
)

CLASSES = ("support", "deny", "query", "comment")


def classes(labels):
    return np.array([CLASSES.index(label) for label in labels])


def make_rows(rng, n, m):
    """(X, its labels, the rows of X as sparse rows)."""
    labels = rng.choice(CLASSES, size=n).tolist()
    X = rng.uniform(-3, 3, size=(n, m))
    return X, labels, [{j: float(v) for j, v in enumerate(row)} for row in X]


def fit_rows(rows, labels, params, n_features):
    """The k-NN model of labelled sparse rows, as `stance train` fits one."""
    return fit_model("knn", to_dense(rows, n_features), classes(labels), params, 0)


def per_row_scores(payload, X):
    """Class scores of each row of X, every training row measured exactly:
    the loop that the candidate filter must agree with bit for bit."""
    matrix, labels, k = payload["matrix"], payload["labels"], payload["k"]
    out = []
    for row in X:
        with np.errstate(over="ignore"):
            query = normalize_columns(row, payload["mins"], payload["ranges"])
            distances = np.sqrt(((matrix - query) ** 2).sum(axis=1))
        order = np.argsort(distances, kind="stable")[:k]
        if not np.isfinite(distances[order]).all():
            raise ModelError("k-NN neighbour at a non-finite distance (the distance overflows)")
        weights = np.ones(len(order)) if payload["weighting"] == "uniform" \
            else 1.0 / (distances[order] + DISTANCE_FLOOR)
        votes = np.zeros(len(CLASSES))
        np.add.at(votes, labels[order], weights)
        out.append(votes / votes.sum())
    return out


def scores_or_error(score, payload, X):
    try:
        return score(payload, X)
    except ModelError as exc:
        return str(exc)


def assert_scores_equal_per_row(payload, X):
    """knn_scores gives the per-row loop's scores, or raises its ModelError."""
    got, want = scores_or_error(knn_scores, payload, X), scores_or_error(per_row_scores, payload, X)
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
        return
    assert len(got) == len(want) == len(X)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def predict_one(model, row):
    """(label, {class: score}) of one sparse row by predict_many(),
    whose scores must be the per-row loop's."""
    X = to_dense([row], model.n_features)
    assert_scores_equal_per_row(model.payload, X)
    scores = predict_many(model, X)[0]
    return CLASS_NAMES[int(scores.argmax())], dict(zip(CLASS_NAMES, scores.tolist()))


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
    X, labels, rows = make_rows(rng, 40, 5)
    model = fit_rows(rows, labels, KnnParams(k=k, weighting=weighting), 5)
    probes = rng.uniform(-3, 3, size=(25, 5))
    for row in probes:
        got, _ = predict_one(model, dict(enumerate(map(float, row))))
        want = oracle_predict(X, labels, row, k, weighting)
        assert got == want


def test_exact_duplicate_dominates_inverse_distance():
    rng = np.random.default_rng(5)
    X, labels, rows = make_rows(rng, 20, 4)
    model = fit_rows(rows, labels, KnnParams(k=5, weighting="inverse_distance"), 4)
    label, scores = predict_one(model, rows[3])
    assert label == labels[3]
    assert scores[labels[3]] > 0.99


def test_k_of_n_uniform_is_class_frequency():
    rng = np.random.default_rng(6)
    X, labels, rows = make_rows(rng, 24, 3)
    model = fit_rows(rows, labels, KnnParams(k=24, weighting="uniform"), 3)
    _, scores = predict_one(model, {0: 0.1})
    for name in CLASSES:
        assert scores[name] == pytest.approx(labels.count(name) / len(labels))


def test_k_larger_than_n_means_all_neighbours():
    rng = np.random.default_rng(7)
    X, labels, rows = make_rows(rng, 6, 3)
    big = fit_rows(rows, labels, KnnParams(k=50, weighting="uniform"), 3)
    all_of_them = fit_rows(rows, labels, KnnParams(k=6, weighting="uniform"), 3)
    probe = {1: 0.5}
    assert predict_one(big, probe) == predict_one(all_of_them, probe)


def test_constant_column_is_ignored():
    # a feature with zero range must not contribute to distances
    base = [{0: 0.0, 1: 7.0}, {0: 1.0, 1: 7.0}]
    model = fit_rows(base, ["support", "deny"], KnnParams(k=1), 2)
    near_a = {0: 0.1, 1: -100.0}
    assert predict_one(model, near_a)[0] == "support"


def test_deterministic():
    rng = np.random.default_rng(8)
    _, labels, rows = make_rows(rng, 15, 4)
    a = fit_knn(to_dense(rows, 4), classes(labels), KnnParams(k=3))
    b = fit_knn(to_dense(rows, 4), classes(labels), KnnParams(k=3))
    assert encode_knn(a) == encode_knn(b)
    assert all(np.array_equal(a[key], b[key]) for key in ("matrix", "labels", "mins", "ranges"))


# "1" names column 1 of two; each key below spells it another way or names
# no column, so a model file cannot give one column two values
@pytest.mark.parametrize("key", ["01", "\u0661", "\uff11", "1 ", "+1", "-1", "2", "a",
                                 pytest.param("1" * 5000, id="5000-digits")])
def test_instance_key_must_be_a_canonical_column_number(key):
    payload = {"instances": [{"1": 0.5, key: 0.75}], "labels": [0],
               "mins": [0.0, 0.0], "ranges": [1.0, 1.0], "k": 1, "weighting": "uniform"}
    assert load_knn({**payload, "instances": [{"1": 0.5}]}, 2)["matrix"].tolist() == [[0, 0.5]]
    with pytest.raises(ModelError, match="column outside the model"):
        load_knn(payload, 2)


# ------------------------- the kept matrix against the per-row dict path


def reference_normalize(row, mins, ranges):
    """One row min-max normalized; zero-range columns read 0."""
    out = np.zeros_like(row)
    varies = ranges > 0
    out[varies] = (row[varies] - mins[varies]) / ranges[varies]
    return out


def reference_fit(X, y, params):
    """The JSON k-NN payload, each normalized training row turned into a
    {column: value} dict as it is fitted."""
    mins = X.min(axis=0)
    ranges = X.max(axis=0) - mins
    instances = []
    for row in X:
        row = reference_normalize(row, mins, ranges)
        instances.append({str(int(i)): float(row[i]) for i in np.nonzero(row)[0]})
    return {"instances": instances, "labels": [int(i) for i in y],
            "mins": [float(v) for v in mins], "ranges": [float(v) for v in ranges],
            "k": min(params.k, len(y)), "weighting": params.weighting}


def reference_scores(payload, X, n_features):
    """Class scores of each row of X under a JSON k-NN payload: the
    training matrix rebuilt from its dicts on every call, each query
    normalized alone, and the votes added one neighbour at a time."""
    matrix = np.zeros((len(payload["instances"]), n_features))
    for row, sparse in enumerate(payload["instances"]):
        for index_text, value in sparse.items():
            matrix[row, int(index_text)] = value
    mins, ranges = np.asarray(payload["mins"]), np.asarray(payload["ranges"])
    out = []
    for x in X:
        query = reference_normalize(x, mins, ranges)
        distances = np.sqrt(((matrix - query) ** 2).sum(axis=1))
        votes = np.zeros(len(CLASSES))
        for i in np.argsort(distances, kind="stable")[:payload["k"]]:
            weight = 1.0 if payload["weighting"] == "uniform" else 1.0 / (distances[i] + 1e-9)
            votes[payload["labels"][i]] += weight
        out.append(votes / votes.sum())
    return out


def assert_kept_matrix_matches_reference(X, y, queries, params):
    kept = fit_knn(X, y, params)
    reference = reference_fit(X, y, params)
    assert encode_knn(kept) == reference
    assert_scores_equal_per_row(kept, queries)
    got = knn_scores(kept, queries)
    want = reference_scores(reference, queries, X.shape[1])
    assert len(got) == len(want) == len(queries)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("weighting", ["inverse_distance", "uniform"])
@pytest.mark.parametrize("k", [1, 3, 10, 50])
def test_kept_matrix_scores_equal_the_dict_path(k, weighting):
    rng = np.random.default_rng(200 + k)
    X = rng.uniform(-3, 3, size=(30, 6))
    X[rng.random(X.shape) < 0.5] = 0.0
    X[:, 2] = 4.0                     # a constant column
    X[10:15] = X[:5]                  # duplicate rows tie on distance
    y = rng.integers(0, len(CLASSES), size=30)
    y[10:15] = (y[:5] + 1) % len(CLASSES)
    queries = np.vstack([rng.uniform(-4, 4, size=(20, 6)), X[:5], np.zeros((1, 6))])
    assert_kept_matrix_matches_reference(X, y, queries, KnnParams(k=k, weighting=weighting))


@pytest.fixture(scope="module")
def micro_matrix(micro, bundle):
    """(X, y) of the labelled micro tweets and the matrix of every micro
    tweet, as `stance train` and `stance predict` build them."""
    _, schema, analyses = featurize_corpus(micro, bundle, None,
                                                      resolve_now(None, micro))
    X, y, _ = _labelled_rows(analyses, schema)
    return X, y, to_dense([vectorize(a, schema) for a in analyses], len(schema))


@pytest.mark.parametrize("weighting", ["inverse_distance", "uniform"])
@pytest.mark.parametrize("k", [1, 3, 10, 500])
def test_kept_matrix_scores_equal_the_dict_path_on_micro(micro_matrix, k, weighting):
    X, y, queries = micro_matrix
    assert len(y) < 500  # so the last k takes every neighbour
    assert_kept_matrix_matches_reference(X, y, queries, KnnParams(k=k, weighting=weighting))


# ------------------------- the candidate filter against the per-row loop


def exact_payload(matrix, labels, k, weighting="inverse_distance"):
    """A k-NN payload whose normalization leaves every query as it is, so
    that a case can place training rows and queries bit by bit."""
    matrix = np.asarray(matrix, dtype=np.float64)
    n_cols = matrix.shape[1]
    return {"matrix": matrix, "labels": np.asarray(labels, dtype=np.int64),
            "mins": np.zeros(n_cols), "ranges": np.ones(n_cols), "k": k,
            "weighting": weighting}


def _one_ulp_apart(rng):
    base = rng.uniform(0, 1, size=8)
    base[rng.random(8) < 0.4] = 0.0
    rows = [base.copy() for _ in range(12)]
    for i, column in enumerate((0, 3, 3, 5, 7, 1)):
        rows[2 * i + 1][column] = np.nextafter(base[column], np.inf if i % 2 else -np.inf)
    queries = np.vstack([base, base + 1.0, base * 1e6, np.nextafter(base, 2.0)])
    return np.array(rows), queries


def _duplicates(rng):
    rows = rng.uniform(0, 1, size=(4, 6))
    rows[rng.random(rows.shape) < 0.5] = 0.0
    matrix = np.vstack([rows, rows[::-1], rows, rows[:1]])
    return matrix, np.vstack([rows, rng.uniform(0, 1, size=(3, 6))])


def _zero_and_far_queries(rng):
    matrix = rng.uniform(0, 1, size=(20, 7))
    matrix[rng.random(matrix.shape) < 0.6] = 0.0
    far = np.zeros((5, 7))
    far[0, 2] = 1e6
    far[1] = -1e150
    far[2, :3] = [1e100, -1e100, 1e100]
    far[3] = 1e-300
    far[4, 6] = 3e153
    return matrix, np.vstack([np.zeros((1, 7)), far])


NEAR_TIES = {"duplicate-rows": _duplicates, "one-ulp-apart": _one_ulp_apart,
             "zero-and-far-queries": _zero_and_far_queries}


@pytest.mark.parametrize("weighting", ["inverse_distance", "uniform"])
@pytest.mark.parametrize("k", [1, 2, 3, 5, "all"])
@pytest.mark.parametrize("case", sorted(NEAR_TIES))
def test_filter_equals_the_per_row_loop_on_near_ties(case, k, weighting):
    rng = np.random.default_rng(sorted(NEAR_TIES).index(case))
    matrix, queries = NEAR_TIES[case](rng)
    labels = np.arange(len(matrix)) % len(CLASSES)
    k = len(matrix) if k == "all" else k
    assert_scores_equal_per_row(exact_payload(matrix, labels, k, weighting), queries)


def test_filter_keeps_the_top_k_and_prunes_the_rest_on_micro(micro_matrix):
    X, y, queries = micro_matrix
    payload = fit_knn(X, y, KnnParams(k=3))
    matrix = payload["matrix"]
    row_norms = np.einsum("ij,ij->i", matrix, matrix)
    kept = 0
    for row in queries:
        query = normalize_columns(row, payload["mins"], payload["ranges"])
        rows = _candidates(matrix, row_norms, float(row_norms.max()), query, 3)
        distances = np.sqrt(((matrix - query) ** 2).sum(axis=1))
        assert set(np.argsort(distances, kind="stable")[:3]) <= set(rows)
        kept += len(rows)
    assert kept < 2 * 3 * len(queries)  # about k rows a query, of 96


_sparse_values = st.one_of(st.just(0.0), st.just(0.0), st.sampled_from([1.0, 0.5, 1 / 3]),
                           st.floats(-1e6, 1e6, allow_subnormal=False))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n_rows=st.integers(1, 25), n_cols=st.integers(1, 10),
       weighting=st.sampled_from(["inverse_distance", "uniform"]))
def test_filter_equals_the_per_row_loop_on_sparse_matrices(data, n_rows, n_cols, weighting):
    values = st.lists(_sparse_values, min_size=n_cols, max_size=n_cols)
    X = np.array(data.draw(st.lists(values, min_size=n_rows, max_size=n_rows)))
    repeats = data.draw(st.lists(st.integers(0, n_rows - 1), max_size=5))
    X = np.vstack([X, X[repeats]])  # repeated rows tie on distance
    queries = np.array(data.draw(st.lists(values, min_size=1, max_size=6)))
    y = np.array(data.draw(st.lists(st.integers(0, len(CLASSES) - 1),
                                    min_size=len(X), max_size=len(X))))
    k = data.draw(st.integers(1, len(X)))
    payload = fit_knn(X, y, KnnParams(k=k, weighting=weighting))
    assert_scores_equal_per_row(payload, np.vstack([queries, X]))
