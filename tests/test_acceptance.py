"""Acceptance gate: nine criteria, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines inline; under
a default run they are still printed to the real stdout via capsys.disabled().
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import time
from collections import Counter

import numpy as np
import pytest

from rumourstance.bundled import micro_corpus_path
from rumourstance.cli import main as cli_main
from rumourstance.corpus import Thread, TweetRecord, UserStats, build_threads, thread_index
from rumourstance.errors import LeakageError
from rumourstance.evaluation import (
    RunConfig,
    ablate,
    build_fold_dictionaries,
    check_leakage,
    make_loo_folds,
    paired_t_test,
    run_loo,
    student_t_two_sided_p,
)
from rumourstance.features import analyse, content_words
from rumourstance.learners import (
    ForestParams,
    KnnParams,
    TreeParams,
    fit_model,
    predict_many,
)
from rumourstance.learners.base import CLASS_NAMES, to_dense
from rumourstance.learners.tree import info_gain_ratio
from rumourstance.resources import EmbeddingTable
from rumourstance.text import tokenize

CLASSES = ("support", "deny", "query", "comment")


@contextlib.contextmanager
def criterion(capsys, tag, detail=""):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {tag} FAIL ({time.monotonic() - started:.1f}s)")
        raise
    with capsys.disabled():
        suffix = f" — {detail}" if detail else ""
        print(f"ACCEPTANCE {tag} PASS{suffix} ({time.monotonic() - started:.1f}s)")


def sparse(row):
    return {j: float(v) for j, v in enumerate(row) if v != 0.0}


def classes(labels):
    return np.array([CLASSES.index(label) for label in labels])


def predict_one(model, row):
    """(label, {class: score}) of one sparse row by predict_many()."""
    scores = predict_many(model, to_dense([row], model.n_features))[0]
    return CLASS_NAMES[int(scores.argmax())], dict(zip(CLASS_NAMES, scores.tolist()))


# --------------------------------------------------------------- criterion 1


def entropy(labels):
    n = len(labels)
    h = 0.0
    for c in Counter(labels).values():
        p = c / n
        h -= p * math.log2(p)
    return h


def brute_gain_ratio(values, labels, threshold):
    left = [l for v, l in zip(values, labels) if v <= threshold]
    right = [l for v, l in zip(values, labels) if v > threshold]
    if not left or not right:
        return 0.0
    n = len(labels)
    wl, wr = len(left) / n, len(right) / n
    gain = entropy(labels) - wl * entropy(left) - wr * entropy(right)
    split_info = -(wl * math.log2(wl) + wr * math.log2(wr))
    return gain / split_info if split_info else 0.0


def brute_knn(X, labels, x, k, weighting):
    mins = X.min(axis=0)
    ranges = X.max(axis=0) - mins
    safe = np.where(ranges == 0.0, 1.0, ranges)

    def norm(row):
        return np.where(ranges == 0.0, 0.0, (row - mins) / safe)

    train = np.array([norm(r) for r in X])
    dists = np.sqrt(((train - norm(x)) ** 2).sum(axis=1))
    order = np.argsort(dists, kind="stable")[:k]
    votes = np.zeros(len(CLASSES))
    for idx in order:
        w = 1.0 / (dists[idx] + 1e-9) if weighting == "inverse_distance" else 1.0
        votes[CLASSES.index(labels[idx])] += w
    return CLASSES[int(np.argmax(votes))]


def test_c1_oracle_equivalence(capsys):
    with criterion(capsys, "C1", "gain-ratio within 1e-12 on 120 instances; "
                                 "k-NN matches brute-force oracle on 120 queries"):
        started = time.monotonic()
        rng = np.random.default_rng(101)
        for _ in range(120):
            n = int(rng.integers(2, 9))
            values = rng.normal(size=n).round(2).tolist()
            labels = rng.choice(CLASSES[: int(rng.integers(2, 5))], size=n).tolist()
            threshold = float(rng.choice(values))
            got = info_gain_ratio(values, labels, threshold)
            want = brute_gain_ratio(values, labels, threshold)
            assert abs(got - want) <= 1e-12

        for trial in range(24):
            n, m = int(rng.integers(5, 30)), int(rng.integers(1, 4))
            X = rng.uniform(-2, 2, size=(n, m))
            labels = rng.choice(CLASSES, size=n).tolist()
            k = int(rng.integers(1, n + 1))
            weighting = ("inverse_distance", "uniform")[trial % 2]
            model = fit_model("knn", X, classes(labels), KnnParams(k=k, weighting=weighting), 0)
            for row in rng.uniform(-2, 2, size=(5, m)):
                probe = dict(enumerate(map(float, row)))
                assert predict_one(model, probe)[0] == brute_knn(X, labels, row, k, weighting)
        assert time.monotonic() - started < 10.0


# --------------------------------------------------------------- criterion 2


def test_c2_degeneracy_ladder(capsys):
    with criterion(capsys, "C2", "forest(1 tree, no bagging, all features) == unpruned tree "
                                 "on 50 datasets; k=|X| uniform k-NN == majority; "
                                 "single-class models are constant"):
        rng = np.random.default_rng(202)
        for _ in range(50):
            n, m = int(rng.integers(4, 40)), int(rng.integers(1, 6))
            X = rng.normal(size=(n, m)).round(2)
            labels = rng.choice(CLASSES, size=n).tolist()
            forest = fit_model(
                "forest", X, classes(labels),
                ForestParams(n_trees=1, bagging=False, features_per_split="all", seed=0), 0,
            )
            tree = fit_model("tree", X, classes(labels), TreeParams(pruning=False), 0)
            probes = [sparse(row) for row in X] + [sparse(row) for row in
                                                   rng.normal(size=(10, m)).round(2)]
            for probe in probes:
                assert predict_one(forest, probe) == predict_one(tree, probe)

        for _ in range(10):
            n, m = int(rng.integers(4, 25)), int(rng.integers(1, 4))
            X = rng.normal(size=(n, m))
            labels = rng.choice(CLASSES, size=n).tolist()
            counts = Counter(labels)
            majority = max(CLASSES, key=lambda c: (counts.get(c, 0), -CLASSES.index(c)))
            model = fit_model("knn", X, classes(labels), KnnParams(k=n, weighting="uniform"), 0)
            probe = dict(enumerate(map(float, rng.normal(size=m))))
            assert predict_one(model, probe)[0] == majority

        X = np.arange(20, dtype=float).reshape(10, 2)
        constant = classes(["deny"] * 10)
        fits = (
            fit_model("tree", X, constant, TreeParams(), 0),
            fit_model("forest", X, constant, ForestParams(n_trees=3, seed=1), 0),
            fit_model("knn", X, constant, KnnParams(k=3), 0),
        )
        probe = {0: 3.0}
        for model in fits:
            label, scores = predict_one(model, probe)
            assert label == "deny"
            assert scores["deny"] == 1.0


# --------------------------------------------------------------- criterion 3


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main([str(a) for a in argv])
    return code, buf.getvalue()


def test_c3_parallel_determinism(capsys, tmp_path):
    with criterion(capsys, "C3", "eval-loo artifacts byte-identical at --jobs 1 and --jobs 8"):
        started = time.monotonic()
        dirs = []
        for jobs, name in ((1, "j1"), (8, "j8")):
            out = tmp_path / name
            code, _ = run_cli([
                "eval-loo", "--dataset", micro_corpus_path(), "--classifier", "forest",
                "--seed", 1, "--jobs", jobs, "--out", out,
            ])
            assert code == 0
            dirs.append(out)
        for artifact in ("report.json", "report.txt", "resolved_config.json"):
            assert (dirs[0] / artifact).read_bytes() == (dirs[1] / artifact).read_bytes()
        assert time.monotonic() - started < 30.0


# --------------------------------------------------------------- criterion 4


def test_c4_fold_and_leakage_invariants(capsys, micro, bundle, micro_analyses,
                                        monkeypatch):
    with criterion(capsys, "C4", "LOO folds partition the rumour set; leakage guard passes "
                                 "honest folds and trips when dictionaries span test rumours"):
        for scope in ("global", "by_event"):
            folds = make_loo_folds(micro, scope=scope)
            tested = [r for fold in folds for r in fold.test_rumour_ids]
            assert sorted(tested) == sorted(micro.rumours)
            for fold in folds:
                assert not set(fold.train_rumour_ids) & set(fold.test_rumour_ids)
                dicts = build_fold_dictionaries(micro, fold, micro_analyses)
                check_leakage(dicts, fold)

        def leaky(dataset, fold, analyses):
            from rumourstance.features import build_dictionaries

            return build_dictionaries(
                list(analyses.values()), provenance=tuple(sorted(dataset.rumours))
            )

        import rumourstance.evaluation as evaluation

        monkeypatch.setattr(evaluation, "build_fold_dictionaries", leaky)
        config = RunConfig(classifier="knn", params={"k": 3}, groups=None, seed=0, now=None)
        with pytest.raises(LeakageError):
            evaluation.run_loo(micro, bundle, config, scope="global")


# --------------------------------------------------------------- criterion 5


def toy_user():
    return UserStats(
        statuses_count=1, verified=False, followers=1, followees=1,
        favourites_count=0, account_created=0.0, geo_enabled=False, description=None,
    )


def toy_tweet(tweet_id, text, reply_to=None, at=0.0):
    return TweetRecord(
        tweet_id=tweet_id, text=text, created_at=at, in_reply_to=reply_to,
        rumour_id="r", event_id="e", user=toy_user(), label=None,
    )


def test_c5_af_features(capsys, bundle, micro):
    with criterion(capsys, "C5", "AF scores match the averaging+cosine oracle within 1e-9; "
                                 "source ITS = 1.0; cosine features bounded over the corpus"):
        table = EmbeddingTable(3, {
            "sun": np.array([1.0, 0.0, 0.0]),
            "moon": np.array([0.0, 1.0, 0.0]),
            "star": np.array([0.0, 0.0, 1.0]),
            "sky": np.array([1.0, 1.0, 0.0]),
            "cloud": np.array([0.5, 0.0, 0.5]),
        })
        lexicons = dataclasses.replace(
            bundle.lexicons,
            af_lists={
                "support": ("sun", "sky"),
                "doubt": ("moon",),
                "nodoubt": ("star", "cloud"),
                "surprise": ("cloud",),
            },
        )
        toy_bundle = dataclasses.replace(bundle, embeddings=table, lexicons=lexicons)

        source = toy_tweet("s", "the sun is out", at=0.0)
        reply = toy_tweet("a", "moon and star tonight", reply_to="s", at=60.0)
        echo = toy_tweet("b", "the sun is out", reply_to="s", at=120.0)
        thread = Thread(source=source, replies=(reply, echo))

        def mean_vec(words):
            rows = [table.get(w) for w in words]
            rows = [r for r in rows if r is not None]
            return np.mean(rows, axis=0) if rows else np.zeros(3)

        def ref_cos(u, v):
            nu, nv = np.linalg.norm(u), np.linalg.norm(v)
            return 0.0 if nu == 0 or nv == 0 else float(np.dot(u, v) / (nu * nv))

        def columns(tweet, thread, r):
            # a tweet's named columns, read from its analysis; absent is 0
            named = dict(analyse(tweet, thread, r, now=0.0).named)
            return lambda name: named.get(name, 0.0)

        for tweet in (source, reply, echo):
            toks = tokenize(tweet.text, toy_bundle.lexicons.all_emoticons)
            tweet_vec = mean_vec(content_words(toks, toy_bundle))
            got = columns(tweet, thread, toy_bundle)
            assert abs(got("supportScore") - ref_cos(tweet_vec, mean_vec(("sun", "sky")))) <= 1e-9
            assert abs(got("doubtScore") - ref_cos(tweet_vec, mean_vec(("moon",)))) <= 1e-9
            assert abs(got("noDoubtScore")
                       - ref_cos(tweet_vec, mean_vec(("star", "cloud")))) <= 1e-9
            assert abs(got("surpriseScore") - ref_cos(tweet_vec, mean_vec(("cloud",)))) <= 1e-9

        assert columns(source, thread, toy_bundle)("initialTweetSim") == 1.0
        # the echo's text equals the source's
        assert columns(echo, thread, toy_bundle)("initialTweetSim") == 1.0
        src_vec = mean_vec(content_words(tokenize(source.text), toy_bundle))
        rep_vec = mean_vec(content_words(tokenize(reply.text), toy_bundle))
        assert abs(columns(reply, thread, toy_bundle)("initialTweetSim")
                   - ref_cos(rep_vec, src_vec)) <= 1e-9

        bound = 1.0 + 1e-12
        cosine_columns = ("surpriseScore", "doubtScore", "noDoubtScore", "supportScore",
                          "initialTweetSim", *(f"mood_{m}" for m in bundle.lexicons.mood_lists))
        threads = thread_index(build_threads(micro))
        for tweet in micro.tweets:
            got = columns(tweet, threads[tweet.rumour_id], bundle)
            for name in cosine_columns:
                assert -bound <= got(name) <= bound


# --------------------------------------------------------------- criterion 6


def test_c6_event_export_label_counts(capsys, ottawa):
    with criterion(capsys, "C6", "Ottawa export: 58 rumours, S=161 D=76 Q=64 C=481"):
        assert len(ottawa.rumours) == 58
        counts = Counter(t.label.value for t in ottawa.tweets if t.label is not None)
        assert counts["support"] == 161
        assert counts["deny"] == 76
        assert counts["query"] == 64
        assert counts["comment"] == 481


# --------------------------------------------------------------- criterion 7


def test_c7_directional_ablation(capsys, micro, bundle):
    with criterion(capsys, "C7", "removing AF drops forest LOO accuracy by >= 2 points "
                                 "and the paired t-test is reported"):
        config = RunConfig(classifier="forest", params={}, groups=None, seed=0, now=None)
        report = ablate(micro, bundle, config, removals=("AF",), scope="by_event")
        row = report.rows[0]
        drop_points = (report.baseline.headline_accuracy - row["accuracy"]) * 100.0
        assert drop_points >= 2.0, f"AF removal dropped accuracy by only {drop_points:.2f} points"
        assert "t" in row["t_test"] and "p" in row["t_test"]


# --------------------------------------------------------------- criterion 8


def test_c8_t_test_anchor(capsys):
    with criterion(capsys, "C8", "t=2.262, df=9 gives p = 0.0500 +/- 1e-3; "
                                 "p<0.001 flag follows the reporting convention"):
        assert abs(student_t_two_sided_p(2.262, 9) - 0.0500) <= 1e-3

        # build a 10-pair sample whose t statistic is exactly the anchor
        target_t = 2.262
        pattern = np.array([1.5, -0.5, 0.8, -1.2, 0.3, -0.9, 1.1, -0.2, 0.6, -1.5])
        pattern -= pattern.mean()
        pattern /= pattern.std(ddof=1)
        diffs = pattern + target_t / math.sqrt(10)
        result = paired_t_test(diffs.tolist(), [0.0] * 10)
        assert abs(result.t - target_t) <= 1e-9
        assert abs(result.p - 0.0500) <= 1e-3
        assert not result.significant_at_001

        strong = paired_t_test([x + 9.0 for x in pattern], [0.0] * 10)
        assert strong.p < 0.001
        assert strong.significant_at_001


# --------------------------------------------------------------- criterion 9


def test_c9_end_to_end_pipeline(capsys, tmp_path):
    with criterion(capsys, "C9", "ingest -> featurize -> train -> eval-loo -> ablate "
                                 "exits 0 with all artifacts present"):
        started = time.monotonic()
        ingest_out = tmp_path / "ingest"
        code, _ = run_cli(["ingest", "--input", micro_corpus_path(), "--out", ingest_out])
        assert code == 0
        corpus = ingest_out / "normalized.jsonl"
        assert corpus.exists()

        feat_out = tmp_path / "featurize"
        code, _ = run_cli(["featurize", "--dataset", corpus, "--out", feat_out])
        assert code == 0
        assert (feat_out / "schema.tsv").exists()
        assert (feat_out / "vectors.tsv").exists()

        train_out = tmp_path / "train"
        code, _ = run_cli([
            "train", "--dataset", corpus, "--classifier", "forest",
            "--seed", 1, "--jobs", 8, "--out", train_out,
        ])
        assert code == 0
        assert (train_out / "model.json").exists()

        eval_out = tmp_path / "eval"
        code, _ = run_cli([
            "eval-loo", "--dataset", corpus, "--classifier", "forest",
            "--seed", 1, "--jobs", 8, "--out", eval_out,
        ])
        assert code == 0
        assert (eval_out / "report.json").exists()
        assert (eval_out / "report.txt").exists()

        ablate_out = tmp_path / "ablate"
        code, _ = run_cli([
            "ablate", "--dataset", corpus, "--classifier", "forest",
            "--seed", 1, "--jobs", 8, "--remove", "AF", "--out", ablate_out,
        ])
        assert code == 0
        assert (ablate_out / "ablation.json").exists()
        assert (ablate_out / "ablation.txt").exists()

        for out in (ingest_out, feat_out, train_out, eval_out, ablate_out):
            assert (out / "resolved_config.json").exists()
        assert time.monotonic() - started < 60.0
