"""Command-line interface: exit codes, config precedence, artifacts."""
from __future__ import annotations

import json

import pytest

from rumourstance.bundled import micro_corpus_path
from rumourstance.cli import main


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def out(tmp_path):
    return tmp_path / "out"


def read_json(path):
    return json.loads(path.read_text())


# ------------------------------------------------------------------ exit codes


def test_missing_dataset_is_a_config_error(out, capsys):
    code = run(["eval-loo", "--dataset", "/nowhere/missing.jsonl", "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert "missing.jsonl" in err


def test_unknown_config_key_rejected(tmp_path, out, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": str(micro_corpus_path()), "tree_count": 3}))
    code = run(["eval-loo", "--config", cfg, "--out", out])
    assert code == 2
    assert "tree_count" in capsys.readouterr().err


def test_malformed_config_rejected(tmp_path, out, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    code = run(["eval-loo", "--config", cfg, "--out", out])
    assert code == 2


def test_bad_group_name_rejected(out, capsys):
    code = run([
        "eval-loo", "--dataset", micro_corpus_path(), "--groups", "BOW,NOPE", "--out", out,
    ])
    assert code == 2
    assert "NOPE" in capsys.readouterr().err


def test_corrupt_model_is_a_runtime_error(tmp_path, out, capsys):
    model = tmp_path / "model.json"
    model.write_text('{"magic": "junk"}')
    code = run([
        "predict", "--model", model, "--input", micro_corpus_path(), "--out", out,
    ])
    assert code == 1


@pytest.mark.parametrize("params", ['{"bogus": 1}', '{"k": 0}'])
def test_bad_classifier_params_are_a_runtime_error(params, out, capsys):
    code = run([
        "eval-loo", "--dataset", micro_corpus_path(), "--classifier", "knn",
        "--params", params, "--out", out,
    ])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: bad knn params")


# ------------------------------------------------------------------ config file


def test_flag_overrides_config_file(tmp_path, out):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "dataset": str(micro_corpus_path()),
        "classifier": "knn",
        "classifier_params": {"k": 3},
        "seed": 11,
    }))
    code = run(["eval-loo", "--config", cfg, "--seed", 99, "--out", out])
    assert code == 0
    echo = read_json(out / "resolved_config.json")
    assert echo["seed"] == 99
    assert echo["classifier"] == "knn"


def test_resolved_config_contents(out):
    code = run([
        "eval-loo", "--dataset", micro_corpus_path(), "--classifier", "knn",
        "--params", '{"k": 3}', "--seed", 5, "--jobs", 2, "--out", out,
    ])
    assert code == 0
    echo = read_json(out / "resolved_config.json")
    assert echo["seed"] == 5
    assert echo["protocol"] == "loo_by_event"
    assert "bundle_hash" in echo
    assert "jobs" not in echo  # worker count must not change recorded results


# -------------------------------------------------------------------- commands


def test_ingest_produces_loadable_corpus(tmp_path, out):
    code = run([
        "ingest", "--input", micro_corpus_path(), "--out", out,
    ])
    assert code == 0
    from rumourstance.corpus import load_dataset

    ds = load_dataset(out / "normalized.jsonl")
    assert len(ds.tweets) == 96


def test_featurize_artifacts(out):
    code = run(["featurize", "--dataset", micro_corpus_path(), "--out", out])
    assert code == 0
    assert (out / "schema.tsv").exists()
    assert (out / "vectors.tsv").exists()
    echo = read_json(out / "resolved_config.json")
    n_cols = int(echo["n_columns"])
    header_less_rows = sum(1 for _ in open(out / "schema.tsv"))
    assert n_cols in (header_less_rows, header_less_rows - 1)


def test_train_then_predict_round_trip(tmp_path, out):
    train_out = out / "train"
    code = run([
        "train", "--dataset", micro_corpus_path(), "--classifier", "knn",
        "--params", '{"k": 3}', "--out", train_out,
    ])
    assert code == 0
    model_path = train_out / "model.json"
    assert model_path.exists()

    pred_out = out / "pred"
    code = run([
        "predict", "--model", model_path, "--input", micro_corpus_path(),
        "--out", pred_out,
    ])
    assert code == 0
    lines = (pred_out / "predictions.tsv").read_text().splitlines()
    assert len(lines) == 96
    for line in lines:
        tweet_id, label, scores = line.split("\t")
        assert label in ("support", "deny", "query", "comment")
        parts = dict(p.split(":") for p in scores.split(" "))
        assert set(parts) == {"support", "deny", "query", "comment"}
        total = sum(float(v) for v in parts.values())
        assert abs(total - 1.0) < 5e-6
        for v in parts.values():
            whole, frac = v.split(".")
            assert len(frac) == 6


def test_predict_is_deterministic(out):
    train_out = out / "train"
    run([
        "train", "--dataset", micro_corpus_path(), "--classifier", "forest",
        "--params", '{"n_trees": 5}', "--seed", 3, "--out", train_out,
    ])
    a_out, b_out = out / "a", out / "b"
    for dest in (a_out, b_out):
        code = run([
            "predict", "--model", train_out / "model.json",
            "--input", micro_corpus_path(), "--out", dest,
        ])
        assert code == 0
    assert (a_out / "predictions.tsv").read_bytes() == (b_out / "predictions.tsv").read_bytes()


def test_eval_loo_writes_reports(out):
    code = run([
        "eval-loo", "--dataset", micro_corpus_path(), "--classifier", "knn",
        "--params", '{"k": 3}', "--protocol", "loo_global", "--out", out,
    ])
    assert code == 0
    report = read_json(out / "report.json")
    assert report["protocol"] == "loo_global"
    assert len(report["per_fold"]) == 6
    text = (out / "report.txt").read_text()
    assert "accuracy" in text.lower()


def test_eval_split_command(micro, tmp_path, out):
    from rumourstance.corpus import save_dataset, subset_by_rumours

    rumours = sorted(micro.rumours)
    train_path = tmp_path / "train.jsonl"
    test_path = tmp_path / "test.jsonl"
    save_dataset(subset_by_rumours(micro, tuple(rumours[:4])), train_path)
    save_dataset(subset_by_rumours(micro, tuple(rumours[4:])), test_path)
    code = run([
        "eval-split", "--dataset", train_path, "--test-dataset", test_path,
        "--classifier", "knn", "--params", '{"k": 3}', "--out", out,
    ])
    assert code == 0
    report = read_json(out / "report.json")
    assert report["protocol"] == "split"


def test_ablate_reports_deltas(out):
    code = run([
        "ablate", "--dataset", micro_corpus_path(), "--classifier", "knn",
        "--params", '{"k": 3}', "--protocol", "loo_global",
        "--remove", "AF", "--out", out,
    ])
    assert code == 0
    report = read_json(out / "ablation.json")
    assert report["rows"][0]["removed"] == "AF"
    assert "delta" in report["rows"][0]
    assert (out / "ablation.txt").exists()


def test_jobs_flag_does_not_change_artifacts(tmp_path):
    outs = []
    for jobs, sub in ((1, "j1"), (8, "j8")):
        dest = tmp_path / sub
        code = run([
            "eval-loo", "--dataset", micro_corpus_path(), "--classifier", "forest",
            "--params", '{"n_trees": 10}', "--seed", 1, "--jobs", jobs,
            "--protocol", "loo_global", "--out", dest,
        ])
        assert code == 0
        outs.append(dest)
    for name in ("report.json", "report.txt", "resolved_config.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
