"""Model persistence: round trips, header checks, corruption handling."""
from __future__ import annotations

import json
import re

import numpy as np
import pytest

from rumourstance.bundled import micro_corpus_path
from rumourstance.cli import main
from rumourstance.features import FeatureVector
from rumourstance.learners import (
    ForestParams,
    KnnParams,
    ModelError,
    TreeParams,
    fit_model,
    load_model,
    predict_many,
    save_model,
)
from rumourstance.learners.base import label_indices, to_dense


@pytest.fixture()
def vectors():
    rng = np.random.default_rng(0)
    return [
        FeatureVector(
            tweet_id=str(i),
            schema_fingerprint=4242,
            values={j: float(v) for j, v in enumerate(rng.normal(size=5))},
            label=["support", "deny", "query", "comment"][i % 4],
        )
        for i in range(24)
    ]


def fit(kind, vectors, params):
    return fit_model(kind, to_dense(vectors, 5), label_indices(vectors), params, 4242)


@pytest.mark.parametrize("kind", ["tree", "forest", "knn"])
def test_round_trip_preserves_predictions(kind, vectors, tmp_path):
    if kind == "tree":
        model = fit("tree", vectors, TreeParams())
    elif kind == "forest":
        model = fit("forest", vectors, ForestParams(n_trees=5, seed=3))
    else:
        model = fit("knn", vectors, KnnParams(k=3))
    model.context["note"] = "round-trip"
    path = tmp_path / "model.json"
    save_model(model, path)
    again = load_model(path)
    assert again.kind == model.kind
    assert again.schema_fingerprint == model.schema_fingerprint
    assert again.n_features == model.n_features
    assert again.classes == model.classes
    assert again.payload == model.payload
    assert again.context == model.context
    X = to_dense(vectors, 5)
    assert predict_many(again, X) == predict_many(model, X)


def test_saved_file_is_json_with_header(vectors, tmp_path):
    model = fit("tree", vectors, TreeParams())
    path = tmp_path / "model.json"
    save_model(model, path)
    obj = json.loads(path.read_text())
    from rumourstance.learners import MODEL_MAGIC, MODEL_VERSION

    assert obj["magic"] == MODEL_MAGIC
    assert obj["version"] == MODEL_VERSION


def test_wrong_magic_rejected(vectors, tmp_path):
    model = fit("tree", vectors, TreeParams())
    path = tmp_path / "model.json"
    save_model(model, path)
    obj = json.loads(path.read_text())
    obj["magic"] = "something-else"
    path.write_text(json.dumps(obj))
    with pytest.raises(ModelError):
        load_model(path)


def test_wrong_version_rejected(vectors, tmp_path):
    model = fit("tree", vectors, TreeParams())
    path = tmp_path / "model.json"
    save_model(model, path)
    obj = json.loads(path.read_text())
    obj["version"] = obj["version"] + 999
    path.write_text(json.dumps(obj))
    with pytest.raises(ModelError):
        load_model(path)


def test_truncated_file_rejected(vectors, tmp_path):
    model = fit("forest", vectors, ForestParams(n_trees=3, seed=0))
    path = tmp_path / "model.json"
    save_model(model, path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(ModelError):
        load_model(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ModelError):
        load_model(tmp_path / "nope.json")


def test_unknown_kind_rejected(vectors, tmp_path):
    model = fit("knn", vectors, KnnParams(k=2))
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
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not re.search(r"\bnan\b", captured.err.lower())
