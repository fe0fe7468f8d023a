"""Command-line interface: exit codes, config precedence, artifacts."""
from __future__ import annotations

import json
import threading

import pytest

from rumourstance.bundled import micro_corpus_path
from rumourstance.cli import main
from rumourstance.features import AF_GROUPS


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def out(tmp_path):
    return tmp_path / "out"


def read_json(path):
    return json.loads(path.read_text())


# ------------------------------------------------------------------ exit codes


def test_missing_dataset_is_a_config_error(tmp_path, out, capsys):
    code = run(["eval-loo", "--dataset", "/nowhere/missing.jsonl", "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert "missing.jsonl" in err
    # so is an --out that names a file, or a path under one
    assert run(["train", "--dataset", micro_corpus_path(), "--classifier", "knn",
                "--out", out]) == 0
    afile = tmp_path / "afile"
    afile.write_text("kept")
    for command in (["featurize", "--dataset", micro_corpus_path()],
                    ["ingest", "--input", micro_corpus_path()],
                    ["predict", "--model", out / "model.json", "--input", micro_corpus_path()]):
        for dest, problem in ((afile, "File exists"), (afile / "sub", "Not a directory")):
            capsys.readouterr()
            assert run([*command, "--out", dest]) == 2, command[0]
            captured = capsys.readouterr()
            assert captured.out == "", command[0]  # predict labels nothing first
            assert captured.err == f"error: cannot create output directory {dest}: {problem}\n"
    assert afile.read_text() == "kept"


def test_unknown_config_key_rejected(tmp_path, out, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": str(micro_corpus_path()), "tree_count": 3}))
    code = run(["eval-loo", "--config", cfg, "--out", out])
    assert code == 2
    assert "tree_count" in capsys.readouterr().err


DEEP = "[" * 200_000 + "]" * 200_000   # nested past Python's recursion limit


def test_malformed_config_rejected(tmp_path, out, capsys):
    cfg = tmp_path / "cfg.json"
    for text in ("{not json", DEEP,
                 json.dumps({"dataset": str(micro_corpus_path()), "classifier_params": DEEP}),
                 *(json.dumps({"dataset": str(micro_corpus_path()), **setting})
                   for setting in ({"classifier": "svm"}, {"seed": "3"}, {"seed": True},
                                   {"feature_groups": ["NOPE"]}))):
        cfg.write_text(text)
        code = run(["eval-loo", "--config", cfg, "--out", out])
        assert code == 2, text[:40]
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_bad_group_name_rejected(out, capsys):
    code = run([
        "eval-loo", "--dataset", micro_corpus_path(), "--groups", "BOW,NOPE", "--out", out,
    ])
    assert code == 2
    assert "NOPE" in capsys.readouterr().err
    # groups are checked before params, so bad params do not hide a bad group
    code = run(["eval-loo", "--dataset", micro_corpus_path(), "--classifier", "knn",
                "--params", '{"k": 0}', "--groups", "BOW,NOPE", "--out", out])
    assert code == 2
    assert capsys.readouterr().err == "error: unknown feature groups: 'NOPE'\n"


@pytest.mark.parametrize("spec", ["NOPE", "+", "AF+NOPE"])
def test_bad_removal_spec_rejected(spec, out, capsys):
    code = run(["ablate", "--dataset", micro_corpus_path(), "--remove", spec, "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown feature groups: ") and len(err.splitlines()) == 1
    # the specs are checked before params, so bad params do not hide a bad spec
    code = run(["ablate", "--dataset", micro_corpus_path(), "--classifier", "knn",
                "--params", '{"k": 0}', "--remove", spec, "--out", out])
    assert code == 2
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("case", ["bad-remove", "malformed-corpus", "fingerprint-mismatch",
                                  "ingest-bad-line", "ingest-two-sources",
                                  "eval-loo-empty-corpus", "ablate-empty-corpus",
                                  "split-no-labelled-test"])
def test_failed_run_leaves_no_out_directory(case, micro_split, tmp_path, out, capsys):
    bad_corpus = tmp_path / "bad.jsonl"
    bad_corpus.write_text(micro_corpus_path().read_text() + "{not json\n")
    bad_raw, two_sources, empty, unlabelled = (
        tmp_path / name for name in
        ("bad_raw.jsonl", "two_sources.jsonl", "empty.jsonl", "unlabelled.jsonl"))
    bad_raw.write_text("{not json\n")
    source = json.loads(micro_corpus_path().read_text().splitlines()[0])
    two_sources.write_text(json.dumps(source) + "\n"
                           + json.dumps({**source, "tweet_id": "a1-s2"}) + "\n")
    empty.write_text("")
    unlabelled.write_text("".join(json.dumps({**json.loads(line), "label": None}) + "\n"
                                  for line in micro_split[1].read_text().splitlines()))
    assert run(["train", "--dataset", micro_corpus_path(), "--classifier", "knn",
                "--out", tmp_path / "train"]) == 0
    container = read_json(tmp_path / "train" / "model.json")
    container["schema_fingerprint"] += 1
    mismatched = tmp_path / "mismatched.json"
    mismatched.write_text(json.dumps(container))
    argv, code, problem = {
        "bad-remove": (["ablate", "--dataset", micro_corpus_path(), "--remove", "NOPE"], 2,
                       "unknown feature groups: 'NOPE'"),
        "malformed-corpus": (["eval-loo", "--dataset", bad_corpus], 1, f"{bad_corpus}:97: "),
        "fingerprint-mismatch": (
            ["predict", "--model", mismatched, "--input", micro_corpus_path()], 1,
            "rebuilt feature schema does not match the model"),
        # the rest fail once --out exists
        "ingest-bad-line": (["ingest", "--input", bad_raw], 1, f"{bad_raw}:1: invalid JSON"),
        "ingest-two-sources": (["ingest", "--input", two_sources], 1,
                               "rumour 'a1' has multiple source tweets: a1-t00, a1-s2"),
        "eval-loo-empty-corpus": (["eval-loo", "--dataset", empty], 1,
                                  "leave-one-out needs at least 2 rumours"),
        "ablate-empty-corpus": (["ablate", "--dataset", empty], 1,
                                "leave-one-out needs at least 2 rumours"),
        "split-no-labelled-test": (
            ["eval-split", "--dataset", micro_split[0], "--test-dataset", unlabelled], 1,
            "no labelled test tweets"),
    }[case]
    capsys.readouterr()
    assert run([*argv, "--out", out / "sub"]) == code
    assert problem in capsys.readouterr().err
    assert not out.exists()


def leaf_model(**changes):
    """The JSON text of a one-leaf tree model with `changes` applied."""
    container = {
        "magic": "STANCEMODEL", "version": 1, "kind": "tree",
        "schema_fingerprint": 0, "n_features": 1,
        "classes": ["support", "deny", "query", "comment"],
        "payload": {"root": {"kind": "leaf", "counts": [1, 0, 0, 0]}}, "context": {},
    }
    return json.dumps({**container, **changes})


def test_corrupt_model_is_a_runtime_error(tmp_path, out, capsys):
    model = tmp_path / "model.json"
    for text, problem in (
            ('{"magic": "junk"}', "not a stance model file"),
            (DEEP, "corrupted model file: maximum recursion depth"),
            (leaf_model(schema_fingerprint=True), "schema_fingerprint is not an integer"),
            (leaf_model(n_features=True), "bad n_features True"),
            (leaf_model(classes=["deny", "support", "query", "comment"]),
             "classes are not ['support', 'deny', 'query', 'comment']")):
        model.write_text(text)
        code = run([
            "predict", "--model", model, "--input", micro_corpus_path(), "--out", out,
        ])
        assert code == 1, problem
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert problem in err


@pytest.mark.parametrize("classifier, params", [
    ("knn", '{"bogus": 1}'),
    ("knn", '{"k": 0}'),
    ("knn", '{"k": 2.5}'),
    ("knn", '{"k": true}'),
    ("forest", '{"n_trees": 2.5}'),
    ("forest", '{"bagging": "no"}'),
    ("tree", '{"pruning": "no"}'),
    ("tree", '{"min_leaf": 1.5}'),
    ("tree", '{"max_depth": 1.5}'),
])
def test_bad_classifier_params_are_a_runtime_error(classifier, params, out, capsys):
    code = run([
        "eval-loo", "--dataset", micro_corpus_path(), "--classifier", classifier,
        "--params", params, "--out", out,
    ])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: bad {classifier} params")


@pytest.mark.parametrize("command", ["train", "eval-loo", "ablate"])
def test_unknown_classifier_flag_is_a_config_error(command, out, capsys):
    code = run([command, "--dataset", micro_corpus_path(), "--classifier", "svm",
                "--out", out])
    assert code == 2
    assert capsys.readouterr().err == ("error: unknown classifier 'svm'; "
                                       "expected one of ('tree', 'forest', 'knn')\n")
    assert not out.exists()


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


@pytest.mark.parametrize("command", [
    (["ingest", "--input", micro_corpus_path()], "normalized.jsonl"),
    (["featurize", "--dataset", micro_corpus_path()], "vectors.tsv"),
    (["train", "--dataset", micro_corpus_path(), "--classifier", "knn"], "model.json"),
    (["eval-loo", "--dataset", micro_corpus_path(), "--classifier", "knn"], "report.json"),
    (["eval-split", "--classifier", "knn"], "report.json"),
    (["ablate", "--dataset", micro_corpus_path(), "--classifier", "knn"], "ablation.json"),
    (["predict", "--input", micro_corpus_path()], "predictions.tsv"),
], ids=lambda command: command[0][0])
def test_every_command_writes_to_the_config_file_out(command, micro_split, tmp_path):
    argv, artifact = command
    if argv[0] == "eval-split":
        argv = [*argv, "--dataset", micro_split[0], "--test-dataset", micro_split[1]]
    if argv[0] == "predict":
        assert run(["train", "--dataset", micro_corpus_path(), "--classifier", "knn",
                    "--out", tmp_path / "train"]) == 0
        argv = [*argv, "--model", tmp_path / "train" / "model.json"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": str(tmp_path / "from-config")}))
    assert run([*argv, "--config", cfg]) == 0
    assert (tmp_path / "from-config" / artifact).is_file()


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


@pytest.mark.parametrize("setting", [
    {"classifier_params": [1]},
    {"feature_groups": 5},
    {"feature_groups": [5]},
    {"now": [1]},
    {"now": True},
    {"dataset": 5},
    {"bundle": 5},
    {"out": 5},
    {"classifier": [1]},
], ids=json.dumps)
def test_config_value_of_wrong_type_is_a_config_error(setting, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": str(micro_corpus_path()),
                               "out": str(tmp_path / "out"), **setting}))
    code = run(["eval-loo", "--config", cfg])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    key = next(iter(setting))
    assert len(err) == 1 and err[0].startswith(f"error: config key {key} must be")


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


@pytest.mark.parametrize("command", [
    ["featurize"],
    ["train", "--classifier", "tree"],
    ["eval-loo", "--classifier", "knn"],
], ids=lambda argv: argv[0])
def test_command_tokenizes_each_text_once(command, micro, out, tokenized_texts):
    assert run([*command, "--dataset", micro_corpus_path(), "--out", out]) == 0
    assert len(tokenized_texts) == len(micro.tweets)
    assert sorted(tokenized_texts) == sorted(t.text for t in micro.tweets)


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


def test_predict_on_a_corpus_without_tweets_writes_nothing(tmp_path, out, capsys):
    run(["train", "--dataset", micro_corpus_path(), "--classifier", "knn", "--out", out / "train"])
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    capsys.readouterr()
    code = run(["predict", "--model", out / "train" / "model.json", "--input", empty,
                "--out", out / "pred"])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert (out / "pred" / "predictions.tsv").read_bytes() == b""


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


def test_eval_split_command(micro_split, out):
    train_path, test_path = micro_split
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


def test_ablate_with_an_equal_drop_on_every_fold_writes_strict_json(out):
    # knn over the AF groups alone scores 1.0 on every micro fold, and 0.375
    # with no column left, so the paired t-test has zero variance and t=inf
    code = run([
        "ablate", "--dataset", micro_corpus_path(), "--classifier", "knn",
        "--groups", ",".join(AF_GROUPS), "--remove", "AF", "--out", out,
    ])
    assert code == 0

    def reject(constant):
        raise AssertionError(f"ablation.json holds {constant}")

    report = json.loads((out / "ablation.json").read_text(), parse_constant=reject)
    t_test = report["rows"][0]["t_test"]
    assert t_test == {"t": None, "p": 0.0, "significant_at_001": True,
                      "degenerate_variance": True}
    text = (out / "ablation.txt").read_text()
    assert ("paired t-test, all groups vs. without AF: t=inf p=0.000000 "
            "significant(p<0.001)=True\n  warning: zero variance across folds") in text


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


def test_loo_starts_no_thread(monkeypatch, out):
    def refuse(thread):
        raise AssertionError(f"started thread {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    code = run([
        "eval-loo", "--dataset", micro_corpus_path(), "--classifier", "knn",
        "--params", '{"k": 3}', "--jobs", 8, "--out", out,
    ])
    assert code == 0
