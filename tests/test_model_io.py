"""Model persistence: round trips, header checks, corruption handling."""
from __future__ import annotations

import json

import numpy as np
import pytest

from rumourstance.bundled import micro_corpus_path
from rumourstance.cli import main
from rumourstance.features import FeatureVector
from rumourstance.learners import (
    ForestParams,
    KnnParams,
    ModelError,
    fit_forest,
    fit_knn,
    fit_tree,
    load_model,
    predict_many,
    save_model,
)


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


@pytest.mark.parametrize("kind", ["tree", "forest", "knn"])
def test_round_trip_preserves_predictions(kind, vectors, tmp_path):
    if kind == "tree":
        model = fit_tree(vectors, n_features=5)
    elif kind == "forest":
        model = fit_forest(vectors, params=ForestParams(n_trees=5, seed=3), n_features=5)
    else:
        model = fit_knn(vectors, params=KnnParams(k=3), n_features=5)
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
    assert predict_many(again, vectors) == predict_many(model, vectors)


def test_saved_file_is_json_with_header(vectors, tmp_path):
    model = fit_tree(vectors, n_features=5)
    path = tmp_path / "model.json"
    save_model(model, path)
    obj = json.loads(path.read_text())
    from rumourstance.learners import MODEL_MAGIC, MODEL_VERSION

    assert obj["magic"] == MODEL_MAGIC
    assert obj["version"] == MODEL_VERSION


def test_wrong_magic_rejected(vectors, tmp_path):
    model = fit_tree(vectors, n_features=5)
    path = tmp_path / "model.json"
    save_model(model, path)
    obj = json.loads(path.read_text())
    obj["magic"] = "something-else"
    path.write_text(json.dumps(obj))
    with pytest.raises(ModelError):
        load_model(path)


def test_wrong_version_rejected(vectors, tmp_path):
    model = fit_tree(vectors, n_features=5)
    path = tmp_path / "model.json"
    save_model(model, path)
    obj = json.loads(path.read_text())
    obj["version"] = obj["version"] + 999
    path.write_text(json.dumps(obj))
    with pytest.raises(ModelError):
        load_model(path)


def test_truncated_file_rejected(vectors, tmp_path):
    model = fit_forest(vectors, params=ForestParams(n_trees=3, seed=0), n_features=5)
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
    model = fit_knn(vectors, params=KnnParams(k=2), n_features=5)
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


@pytest.mark.parametrize("kind, mutate", [
    ("tree", drop_threshold),
    ("tree", three_features),
    ("knn", drop_one_label),
    ("tree", zero_every_leaf),
    ("tree", extra_features),
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
    assert "nan" not in captured.err.lower()
