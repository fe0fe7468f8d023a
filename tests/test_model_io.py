"""Model persistence: round trips, header checks, corruption handling."""
from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumourstance.bundled import micro_corpus_path
from rumourstance.cli import main
from rumourstance.errors import StanceError
from rumourstance.evaluation import _labelled_rows
from rumourstance.features import featurize_corpus, resolve_now, vectorize
from rumourstance.learners import (
    LEARNERS,
    ForestParams,
    KnnParams,
    ModelError,
    TreeParams,
    fit_model,
    load_model,
    predict_many,
    save_model,
)
from rumourstance.learners.base import to_dense


@pytest.fixture()
def sample():
    """(24 sparse rows over 5 columns, their class indices)."""
    rng = np.random.default_rng(0)
    rows = [{j: float(v) for j, v in enumerate(rng.normal(size=5))} for _ in range(24)]
    return rows, np.arange(24) % 4


def fit(kind, sample, params):
    rows, y = sample
    return fit_model(kind, to_dense(rows, 5), y, params, 4242)


@pytest.mark.parametrize("kind", ["tree", "forest", "knn"])
def test_round_trip_preserves_predictions(kind, sample, tmp_path):
    if kind == "tree":
        model = fit("tree", sample, TreeParams())
    elif kind == "forest":
        model = fit("forest", sample, ForestParams(n_trees=5, seed=3))
    else:
        model = fit("knn", sample, KnnParams(k=3))
    model.context["note"] = "round-trip"
    path = tmp_path / "model.json"
    save_model(model, path)
    again = load_model(path)
    assert again.kind == model.kind
    assert again.schema_fingerprint == model.schema_fingerprint
    assert again.n_features == model.n_features
    encode = LEARNERS[kind].encode
    assert json.loads(path.read_text())["payload"] == encode(model.payload)
    if kind == "knn":
        # the in-memory payload holds arrays; the file holds sparse rows
        for key in ("matrix", "labels", "mins", "ranges"):
            assert again.payload[key].dtype == model.payload[key].dtype
            assert np.array_equal(again.payload[key], model.payload[key])
        assert encode(again.payload) == encode(model.payload)
    else:
        assert again.payload == model.payload
    assert again.context == model.context
    X = to_dense(sample[0], 5)
    assert np.array_equal(predict_many(again, X), predict_many(model, X))


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("drawn")


_cells = st.just(0.0) | st.floats(-10, 10).map(lambda v: round(v, 3))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["tree", "forest", "knn"]),
       n_rows=st.integers(1, 12), n_features=st.integers(1, 4))
def test_round_trip_keeps_predictions_on_drawn_matrices(model_dir, data, kind, n_rows,
                                                        n_features):
    X = np.array(data.draw(st.lists(st.lists(_cells, min_size=n_features, max_size=n_features),
                                    min_size=n_rows + 1, max_size=n_rows + 6)))
    y = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n_rows, max_size=n_rows)))
    if kind == "tree":
        params = TreeParams()
    elif kind == "forest":
        params = ForestParams(n_trees=3, seed=data.draw(st.integers(0, 9)))
    else:
        params = KnnParams(k=data.draw(st.integers(1, n_rows + 2)),
                           weighting=data.draw(st.sampled_from(["inverse_distance", "uniform"])))
    model = fit_model(kind, X[:n_rows], y, params, 7)
    save_model(model, model_dir / kind)
    # the training rows and one to six rows the model was not fitted on
    assert np.array_equal(predict_many(load_model(model_dir / kind), X), predict_many(model, X))


def test_saved_file_is_json_with_header(sample, tmp_path):
    model = fit("tree", sample, TreeParams())
    path = tmp_path / "model.json"
    save_model(model, path)
    obj = json.loads(path.read_text())
    from rumourstance.learners import MODEL_MAGIC, MODEL_VERSION

    assert obj["magic"] == MODEL_MAGIC
    assert obj["version"] == MODEL_VERSION


def test_wrong_magic_rejected(sample, tmp_path):
    model = fit("tree", sample, TreeParams())
    path = tmp_path / "model.json"
    save_model(model, path)
    obj = json.loads(path.read_text())
    obj["magic"] = "something-else"
    path.write_text(json.dumps(obj))
    with pytest.raises(ModelError):
        load_model(path)


def test_wrong_version_rejected(sample, tmp_path):
    model = fit("tree", sample, TreeParams())
    path = tmp_path / "model.json"
    save_model(model, path)
    obj = json.loads(path.read_text())
    obj["version"] = obj["version"] + 999
    path.write_text(json.dumps(obj))
    with pytest.raises(ModelError):
        load_model(path)


def test_truncated_file_rejected(sample, tmp_path):
    model = fit("forest", sample, ForestParams(n_trees=3, seed=0))
    path = tmp_path / "model.json"
    save_model(model, path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(ModelError):
        load_model(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ModelError):
        load_model(tmp_path / "nope.json")


def test_unknown_kind_rejected(sample, tmp_path):
    model = fit("knn", sample, KnnParams(k=2))
    path = tmp_path / "model.json"
    save_model(model, path)
    obj = json.loads(path.read_text())
    obj["kind"] = "perceptron"
    path.write_text(json.dumps(obj))
    with pytest.raises(ModelError):
        load_model(path)


# ------------------------------------------------- tampered models at predict


@pytest.fixture(scope="module")
def micro_models(tmp_path_factory):
    root = tmp_path_factory.mktemp("models")
    for kind in ("tree", "knn"):
        code = main(["train", "--dataset", str(micro_corpus_path()), "--classifier", kind,
                     "--seed", "1", "--out", str(root / kind)])
        assert code == 0
    return {kind: json.loads((root / kind / "model.json").read_text())
            for kind in ("tree", "knn")}


def first_split(node):
    assert node["kind"] == "split"
    return node


def leaves(node):
    if node["kind"] == "leaf":
        return [node]
    return leaves(node["left"]) + leaves(node["right"])


def drop_threshold(model):
    del first_split(model["payload"]["root"])["threshold"]


def three_features(model):
    model["n_features"] = 3


def drop_one_label(model):
    model["payload"]["labels"].pop()


def zero_every_leaf(model):
    for leaf in leaves(model["payload"]["root"]):
        leaf["counts"] = [0, 0, 0, 0]


def extra_features(model):
    model["n_features"] += 1


def now_not_a_number(model):
    model["context"]["now"] = "abc"


def bow_vocab_not_a_list(model):
    model["context"]["bow_vocab"] = 5


def provenance_not_a_list(model):
    model["context"]["provenance"] = 7


def posng_vocab_not_strings(model):
    model["context"]["posng_vocab"] = [1, [2]]


def lone_surrogate_bow_word(model):
    # json.dumps escapes it; UTF-8 cannot encode it into the schema text
    model["context"]["bow_vocab"][0] = "\udc80"


def drop_first_bow_word(model):
    # the schema rebuilt from the shorter vocabulary differs from the model's
    model["context"]["bow_vocab"].pop(0)


def other_fingerprint(model):
    model["schema_fingerprint"] += 1


def tiny_ranges(model):
    # every normalized distance overflows, so no neighbour gets a vote
    ranges = model["payload"]["ranges"]
    model["payload"]["ranges"] = [1e-300 if r > 0 else r for r in ranges]


def tiny_ranges_uniform(model):
    # every distance overflows, and equal votes would label by training order
    tiny_ranges(model)
    model["payload"]["weighting"] = "uniform"


def negative_ranges(model):
    # normalize_columns would read every column as constant
    model["payload"]["ranges"] = [-1.0] * len(model["payload"]["ranges"])


def unknown_feature_group(model):
    model["context"]["feature_groups"] = ["BOW", "NOPE"]


def overflowing_leaf_counts(model):
    for leaf in leaves(model["payload"]["root"]):
        leaf["counts"] = [1e308, 1e308, 0, 0]


@pytest.mark.parametrize("kind, mutate", [
    ("tree", drop_threshold),
    ("tree", three_features),
    ("knn", drop_one_label),
    ("tree", zero_every_leaf),
    ("tree", extra_features),
    ("tree", now_not_a_number),
    ("tree", bow_vocab_not_a_list),
    ("tree", provenance_not_a_list),
    ("tree", posng_vocab_not_strings),
    ("tree", lone_surrogate_bow_word),
    ("tree", drop_first_bow_word),
    ("tree", other_fingerprint),
    ("knn", tiny_ranges),
    ("knn", tiny_ranges_uniform),
    ("tree", overflowing_leaf_counts),
    ("knn", negative_ranges),
    ("tree", unknown_feature_group),
])
def test_tampered_model_is_a_one_line_runtime_error(kind, mutate, micro_models,
                                                    tmp_path, capsys):
    model = json.loads(json.dumps(micro_models[kind]))
    mutate(model)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    capsys.readouterr()
    code = main(["predict", "--model", str(path), "--input", str(micro_corpus_path())])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: ")
    assert not re.search(r"\bnan\b", captured.err.lower())


# ------------------------------------------- any one edit of a saved model


@pytest.fixture(scope="module")
def micro_saved(micro, bundle, tmp_path_factory):
    """(the micro matrix, a directory holding a model of each kind trained
    on it, each saved under the kind's name)."""
    dictionaries, schema, analyses = featurize_corpus(micro, bundle, None,
                                                      resolve_now(None, micro))
    X, y, _ = _labelled_rows(analyses, dictionaries, schema)
    root = tmp_path_factory.mktemp("saved")
    for kind, params in (("tree", TreeParams()), ("forest", ForestParams(n_trees=3, seed=1)),
                         ("knn", KnnParams())):
        model = fit_model(kind, X, y, params, schema.fingerprint)
        save_model(model, root / kind)
    return to_dense([vectorize(a, dictionaries, schema) for a in analyses], len(schema)), root


# 10**400 is a JSON number that no float can hold; scalars are drawn as
# often as containers
_json_scalars = (st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats()
                 | st.text(max_size=4))
_json_values = _json_scalars | st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)


def key_paths(node) -> list:
    """The path of keys and indices to each value inside the JSON value
    `node`."""
    paths, stack = [], [((), node)]
    while stack:
        prefix, value = stack.pop()
        keys = value if isinstance(value, dict) else \
            range(len(value)) if isinstance(value, list) else ()
        for key in keys:
            paths.append(prefix + (key,))
            stack.append((paths[-1], value[key]))
    return paths


@settings(max_examples=200, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["tree", "forest", "knn"]),
       value=_json_values, drop=st.booleans())
def test_edited_model_fails_cleanly_or_scores_finitely(micro_saved, data, kind, value, drop):
    X, root = micro_saved
    model = json.loads((root / kind).read_text())
    # a depth first, so that shallow keys are drawn as often as deep ones
    by_depth = {}
    for key_path in key_paths(model):
        by_depth.setdefault(len(key_path), []).append(key_path)
    depth = data.draw(st.sampled_from(sorted(by_depth)))
    *parents, key = data.draw(st.sampled_from(by_depth[depth]))
    node = model
    for parent in parents:
        node = node[parent]
    if drop:
        del node[key]
    else:
        node[key] = value
    path = root / "edited.json"
    path.write_text(json.dumps(model))
    try:
        rows = predict_many(load_model(path), X)
    except StanceError:
        return
    for scores in rows:
        assert all(math.isfinite(v) for v in scores)
        assert abs(sum(scores) - 1.0) <= 1e-9
