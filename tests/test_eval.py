"""Fold construction, leakage guard, metrics, and the native t-test."""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import replace
from hashlib import blake2b

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rumourstance.evaluation as evaluation
import rumourstance.features as features
from rumourstance.bundled import micro_corpus_path, ottawa_path
from rumourstance.cli import main
from rumourstance.corpus import Dataset, build_threads, load_dataset, thread_index
from rumourstance.errors import ConfigError, EvalError, LeakageError
from rumourstance.evaluation import (
    AblationReport,
    EvalReport,
    FoldSpec,
    RunConfig,
    TTestResult,
    ablate,
    build_fold_dictionaries,
    check_leakage,
    expand_removal,
    fold_seed,
    label_tweets,
    make_loo_folds,
    paired_t_test,
    regularized_incomplete_beta,
    run_loo,
    run_split,
    student_t_two_sided_p,
)
from rumourstance.features import (
    AF_GROUPS,
    GROUPS,
    FeatureDictionaries,
    _bow_terms,
    _pos_ngrams,
    analyse_many,
    assemble,
    build_schema,
    featurize_corpus,
    resolve_now,
    vectorize,
)
from rumourstance.learners import LEARNERS, predict_many
from rumourstance.learners.base import CLASS_NAMES, to_dense
from rumourstance.reports import ablation_report_text, eval_report_json
from rumourstance.text import pos_tag, tokenize


# --------------------------------------------------------------------- folds


def test_global_folds_partition(micro):
    folds = make_loo_folds(micro, scope="global")
    assert len(folds) == len(micro.rumours)
    tested = []
    for fold in folds:
        assert len(fold.test_rumour_ids) == 1
        assert not set(fold.train_rumour_ids) & set(fold.test_rumour_ids)
        assert set(fold.train_rumour_ids) | set(fold.test_rumour_ids) == set(micro.rumours)
        tested.extend(fold.test_rumour_ids)
    assert sorted(tested) == sorted(micro.rumours)


def test_by_event_folds_train_on_siblings(micro):
    event_of = {t.rumour_id: t.event_id for t in micro.tweets}
    for fold in make_loo_folds(micro, scope="by_event"):
        test_event = event_of[fold.test_rumour_ids[0]]
        assert fold.train_rumour_ids
        assert all(event_of[r] == test_event for r in fold.train_rumour_ids)


def test_folds_over_an_empty_dataset_are_an_eval_error():
    empty = Dataset("empty", [], {}, {})
    for scope in ("by_event", "global"):
        with pytest.raises(EvalError, match="^leave-one-out needs at least 2 rumours$"):
            make_loo_folds(empty, scope)


def test_fold_order_is_deterministic(micro):
    a = make_loo_folds(micro, scope="global")
    b = make_loo_folds(micro, scope="global")
    assert a == b


def test_fold_seed_derivation():
    for seed, fold_id in ((0, "a1"), (123, "a1"), (123, "zz"), (2**31, "x")):
        digest = blake2b(f"{seed}\x1f{fold_id}".encode(), digest_size=8).digest()
        assert fold_seed(seed, fold_id) == int.from_bytes(digest, "big")
    assert fold_seed(1, "a") != fold_seed(1, "b")
    assert fold_seed(1, "a") != fold_seed(2, "a")


# ------------------------------------------------------------- leakage guard


def test_fold_dictionaries_scoped_to_train(micro, micro_analyses):
    fold = make_loo_folds(micro, scope="global")[0]
    dicts = build_fold_dictionaries(micro, fold, micro_analyses)
    assert dicts.provenance == tuple(sorted(fold.train_rumour_ids))
    check_leakage(dicts, fold)  # passes quietly


def test_check_leakage_raises_on_test_provenance(micro, bundle):
    fold = make_loo_folds(micro, scope="global")[0]
    leaky = FeatureDictionaries(
        bow_vocab={},
        posng_vocab={},
        provenance=tuple(sorted(fold.train_rumour_ids + fold.test_rumour_ids)),
    )
    with pytest.raises(LeakageError):
        check_leakage(leaky, fold)


# ------------------------------------------------------------------- metrics


def t_pdf(s, df):
    c = math.gamma((df + 1) / 2) / (math.sqrt(df * math.pi) * math.gamma(df / 2))
    return c * (1 + s * s / df) ** (-(df + 1) / 2)


def oracle_t_p(t, df):
    """Two-sided p by direct quadrature of the t density over (|t|, inf)."""
    nodes, weights = np.polynomial.legendre.leggauss(400)
    # map w in (0,1) to s = |t| + w/(1-w)
    w = (nodes + 1) / 2
    s = abs(t) + w / (1 - w)
    integrand = np.array([t_pdf(v, df) for v in s]) / (1 - w) ** 2
    tail = float(np.dot(weights / 2, integrand))
    return min(1.0, 2 * tail)


@pytest.mark.parametrize("t,df", [(2.262, 9), (1.0, 5), (3.5, 12), (0.7, 3), (2.0, 30)])
def test_student_t_against_quadrature(t, df):
    assert student_t_two_sided_p(t, df) == pytest.approx(oracle_t_p(t, df), abs=1e-9)


def test_student_t_table_anchors():
    # classic two-sided 5% critical values
    assert student_t_two_sided_p(2.262, 9) == pytest.approx(0.05, abs=1e-3)
    assert student_t_two_sided_p(12.706, 1) == pytest.approx(0.05, abs=1e-3)
    assert student_t_two_sided_p(4.303, 2) == pytest.approx(0.05, abs=1e-3)


def test_student_t_sign_and_zero():
    assert student_t_two_sided_p(0.0, 9) == 1.0
    assert student_t_two_sided_p(-2.0, 9) == student_t_two_sided_p(2.0, 9)
    assert student_t_two_sided_p(50.0, 9) < 1e-6


def oracle_reg_beta(a, b, x):
    """I_x(a, b) by quadrature after the t = u**2 substitution (tames the
    left endpoint for a >= 0.5)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    nodes, weights = np.polynomial.legendre.leggauss(600)
    hi = math.sqrt(x)
    u = (nodes + 1) / 2 * hi
    vals = u ** (2 * a - 1) * (1 - u * u) ** (b - 1) * 2
    integral = float(np.dot(weights * hi / 2, vals))
    lbeta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return integral / math.exp(lbeta)


@pytest.mark.parametrize(
    "a,b,x",
    [(4.5, 0.5, 0.6), (1.0, 1.0, 0.3), (2.0, 3.0, 0.5), (0.5, 0.5, 0.25), (6.0, 0.5, 0.9)],
)
def test_regularized_beta_against_quadrature(a, b, x):
    assert regularized_incomplete_beta(a, b, x) == pytest.approx(
        oracle_reg_beta(a, b, x), abs=1e-8
    )


def test_regularized_beta_edges():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    # complement identity
    a, b, x = 2.5, 1.5, 0.35
    total = regularized_incomplete_beta(a, b, x) + regularized_incomplete_beta(b, a, 1 - x)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_paired_t_hand_example():
    a = [0.62, 0.58, 0.71, 0.66, 0.60]
    b = [0.55, 0.52, 0.70, 0.58, 0.53]
    d = np.array(a) - np.array(b)
    want_t = d.mean() / (d.std(ddof=1) / math.sqrt(len(d)))
    result = paired_t_test(a, b)
    assert result.t == pytest.approx(float(want_t), abs=1e-12)
    assert result.p == pytest.approx(oracle_t_p(float(want_t), len(d) - 1), abs=1e-9)
    assert not result.degenerate_variance


def test_paired_t_identical_lists():
    result = paired_t_test([0.5, 0.6, 0.7], [0.5, 0.6, 0.7])
    assert result == TTestResult(t=0.0, p=1.0, significant_at_001=False)


def test_paired_t_zero_variance_nonzero_mean():
    # diffs are exactly 0.5 each, so the sample variance is exactly zero
    result = paired_t_test([1.5, 2.5, 3.5], [1.0, 2.0, 3.0])
    assert result.degenerate_variance
    assert result.p == 0.0
    assert math.isinf(result.t)
    # JSON holds no infinity: the dict has t null, and the text the signed limit
    baseline = EvalReport("loo_by_event", [{"accuracy": 0.5}] * 3, {}, 0.5, 0.5, 0.5,
                          [], {}, {}, {})
    for ablated, shown in ((0.25, "t=inf"), (0.75, "t=-inf")):
        t_test = paired_t_test([0.5] * 3, [ablated] * 3).to_dict()
        assert t_test["t"] is None and t_test["p"] == 0.0
        row = {"removed": "AF", "accuracy": ablated, "delta": ablated - 0.5,
               "per_fold_accuracy": [ablated] * 3, "t_test": t_test}
        text = ablation_report_text(AblationReport(baseline, [row], {}))
        assert f"without AF: {shown} p=0.000000" in text


def test_paired_t_input_validation():
    with pytest.raises(EvalError):
        paired_t_test([1.0], [1.0])
    with pytest.raises(EvalError):
        paired_t_test([1.0, 2.0], [1.0])


def loop_fold_result(fold_id, event_id, test_rumours, gold, scores):
    """The per-row count that the score-matrix fold result replaced: each
    row's label string (its first maximum) is mapped back to its index."""
    index_of = {name: i for i, name in enumerate(CLASS_NAMES)}
    confusion = [[0 for _ in CLASS_NAMES] for _ in CLASS_NAMES]
    for label, row in zip(gold, scores):
        confusion[label][index_of[CLASS_NAMES[int(np.argmax(row))]]] += 1
    correct = sum(confusion[i][i] for i in range(len(CLASS_NAMES)))
    return {"fold_id": fold_id, "event_id": event_id, "test_rumours": list(test_rumours),
            "n_test": len(gold), "n_correct": correct, "accuracy": correct / len(gold),
            "confusion": confusion}


def loop_reduce_report(protocol, fold_results, config_echo):
    """The list-of-lists reduction that the array sums replaced."""
    n = len(CLASS_NAMES)
    confusion = [[0 for _ in CLASS_NAMES] for _ in CLASS_NAMES]
    per_fold = []
    by_event = {}
    for result in fold_results:
        for i in range(n):
            for j in range(n):
                confusion[i][j] += result["confusion"][i][j]
        per_fold.append({k: result[k] for k in
                         ("fold_id", "event_id", "test_rumours", "n_test", "n_correct",
                          "accuracy")})
        bucket = by_event.setdefault(result["event_id"],
                                     {"n_test": 0, "n_correct": 0, "n_folds": 0})
        bucket["n_test"] += result["n_test"]
        bucket["n_correct"] += result["n_correct"]
        bucket["n_folds"] += 1
    per_event = {event: {**by_event[event], "accuracy": by_event[event]["n_correct"]
                         / by_event[event]["n_test"]} for event in sorted(by_event)}
    macro = sum(e["accuracy"] for e in per_event.values()) / len(per_event)
    overall = sum(confusion[i][i] for i in range(n)) / sum(sum(row) for row in confusion)
    precision, recall = {}, {}
    for i, name in enumerate(CLASS_NAMES):
        gold = sum(confusion[i])
        predicted = sum(confusion[j][i] for j in range(n))
        precision[name] = confusion[i][i] / predicted if predicted else 0.0
        recall[name] = confusion[i][i] / gold if gold else 0.0
    return EvalReport(protocol=protocol, per_fold=per_fold, per_event=per_event,
                      macro_mean=macro, overall_accuracy=overall,
                      headline_accuracy=macro if protocol.startswith("loo") else overall,
                      confusion=confusion, precision=precision, recall=recall,
                      config=config_echo)


@st.composite
def drawn_folds(draw):
    """(event id, gold class indices, score matrix) per fold. Scores come
    from three values, so rows tie often; gold and predicted classes come
    from drawn subsets, so some classes are never gold or never predicted."""
    gold_classes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True))
    scored_classes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True))
    folds = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(1, 9))
        gold = draw(st.lists(st.sampled_from(gold_classes), min_size=n, max_size=n))
        scores = np.zeros((n, len(CLASS_NAMES)))
        for row in scores:
            for column in scored_classes:
                row[column] = draw(st.sampled_from([0.25, 0.5, 1.0]))
        folds.append((draw(st.sampled_from(["ea", "eb", "ec"])),
                      np.array(gold, dtype=np.int64), scores))
    return folds


@settings(max_examples=200, deadline=None)
@given(folds=drawn_folds(), protocol=st.sampled_from(["loo_by_event", "split"]))
def test_reduction_equals_the_per_row_loops(folds, protocol):
    results, expected = [], []
    for i, (event, gold, scores) in enumerate(folds):
        args = (f"{event}/r{i}", event, [f"r{i}"], gold, scores)
        results.append(evaluation._fold_result(*args))
        expected.append(loop_fold_result(*args))
        assert results[-1]["confusion"].tolist() == expected[-1]["confusion"]
    report = evaluation._reduce_report(protocol, results, {"seed": 0})
    want = loop_reduce_report(protocol, expected, {"seed": 0})
    assert report == want
    # a stray numpy integer would not serialize
    assert eval_report_json(report) == eval_report_json(want)


# ------------------------------------------------------------------ protocols


@pytest.fixture(scope="module")
def knn_config():
    return RunConfig(classifier="knn", params={"k": 3}, groups=None, seed=7, now=None)


def test_run_loo_accounting(micro, bundle, knn_config):
    report = run_loo(micro, bundle, knn_config, scope="global")
    assert report.protocol == "loo_global"
    assert len(report.per_fold) == len(micro.rumours)
    labelled = sum(1 for t in micro.tweets if t.label is not None)
    assert sum(f["n_test"] for f in report.per_fold) == labelled
    for fold in report.per_fold:
        assert 0.0 <= fold["accuracy"] <= 1.0
        assert fold["n_correct"] <= fold["n_test"]
    total_correct = sum(f["n_correct"] for f in report.per_fold)
    assert report.overall_accuracy == pytest.approx(total_correct / labelled)
    confusion_total = sum(sum(row) for row in report.confusion)
    assert confusion_total == labelled


def test_run_loo_deterministic(micro, bundle, knn_config):
    a = run_loo(micro, bundle, knn_config, scope="global")
    b = run_loo(micro, bundle, knn_config, scope="global")
    assert a == b


def test_run_loo_by_event_reports_events(micro, bundle, knn_config):
    report = run_loo(micro, bundle, knn_config, scope="by_event")
    assert report.protocol == "loo_by_event"
    assert set(report.per_event) == set(micro.events)
    macro = sum(e["accuracy"] for e in report.per_event.values()) / len(report.per_event)
    assert report.macro_mean == pytest.approx(macro)


def test_run_split_disjoint_sets(micro_split, bundle, knn_config):
    train, test = (load_dataset(path) for path in micro_split)
    report = run_split(train, test, bundle, knn_config)
    assert report.protocol == "split"
    labelled = sum(1 for t in test.tweets if t.label is not None)
    assert sum(sum(row) for row in report.confusion) == labelled
    assert 0.0 <= report.headline_accuracy <= 1.0


def test_eval_split_agrees_with_train_then_predict(micro_split, tmp_path, capsys):
    # tree fitting draws no random numbers, so the split's own fold seed
    # and train's config seed give the same tree
    train_path, test_path = (str(path) for path in micro_split)
    pinned = ["--classifier", "tree", "--now", "2015-03-02T00:00:00Z"]
    assert main(["eval-split", "--dataset", train_path, "--test-dataset", test_path,
                 *pinned, "--out", str(tmp_path / "split")]) == 0
    assert main(["train", "--dataset", train_path, *pinned,
                 "--out", str(tmp_path / "train")]) == 0
    capsys.readouterr()
    assert main(["predict", "--model", str(tmp_path / "train" / "model.json"),
                 "--input", test_path]) == 0
    predicted = dict(line.split("\t")[:2] for line in capsys.readouterr().out.splitlines())
    n_correct = Counter()
    for tweet in load_dataset(test_path).labelled():
        n_correct[tweet.event_id] += predicted[tweet.tweet_id] == tweet.label.value
    report = json.loads((tmp_path / "split" / "report.json").read_text())
    assert {event: row["n_correct"] for event, row in report["per_event"].items()} \
        == dict(n_correct)


@pytest.fixture(scope="module")
def three_chunks(tmp_path_factory):
    """The first 2 * LABEL_CHUNK_ROWS + 1 Ottawa tweets: two full chunks and
    a chunk of one."""
    lines = ottawa_path().read_text(encoding="utf-8").splitlines(keepends=True)
    path = tmp_path_factory.mktemp("chunks") / "three_chunks.jsonl"
    path.write_text("".join(lines[:2 * evaluation.LABEL_CHUNK_ROWS + 1]), encoding="utf-8")
    return load_dataset(path)


@pytest.mark.parametrize("classifier, params", [("tree", {}), ("forest", {"n_trees": 5}),
                                                ("knn", {})])
def test_label_tweets_scores_one_chunk_at_a_time(classifier, params, micro, bundle,
                                                 three_chunks, monkeypatch):
    now = resolve_now(None, micro)
    config = RunConfig(classifier=classifier, params=params, seed=3)
    model, _, _ = evaluation.train_model(micro, bundle, config, now, 3)
    # the unchunked path: every tweet featurized, densified and scored at once
    dictionaries, schema, _ = featurize_corpus(micro, bundle, None, now)
    threads = thread_index(build_threads(three_chunks))
    rows = [vectorize(a, dictionaries, schema)
            for a in analyse_many(three_chunks.tweets, threads, bundle, now)]
    unchunked = predict_many(model, to_dense(rows, len(schema)))

    chunk_rows = []

    def recording(model, X):
        chunk_rows.append(len(X))
        return predict_many(model, X)

    monkeypatch.setattr(evaluation, "predict_many", recording)
    assert np.array_equal(label_tweets(model, three_chunks, bundle), unchunked)
    chunk = evaluation.LABEL_CHUNK_ROWS
    assert chunk_rows == [chunk, chunk, 1]
    chunk_rows.clear()
    assert label_tweets(model, Dataset("empty", [], {}, {}), bundle).shape == (0, 4)
    assert chunk_rows == []


def test_run_split_rejects_overlap(micro, bundle, knn_config):
    with pytest.raises(EvalError):
        run_split(micro, micro, bundle, knn_config)


def test_ablation_rows(micro, bundle, knn_config):
    report = ablate(micro, bundle, knn_config, removals=("AF",), scope="global")
    baseline = run_loo(micro, bundle, knn_config, scope="global")
    assert report.baseline.headline_accuracy == pytest.approx(baseline.headline_accuracy)
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row["removed"] == "AF"
    assert "accuracy" in row and "delta" in row
    assert row["delta"] == pytest.approx(row["accuracy"] - report.baseline.headline_accuracy)
    assert "t" in row["t_test"] and "p" in row["t_test"]


@pytest.mark.parametrize("settings", [
    {"classifier": "svm"}, {"seed": -1}, {"seed": "3"}, {"seed": True}, {"groups": ("NOPE",)},
], ids=json.dumps)
def test_run_config_rejects_bad_settings(settings):
    with pytest.raises(ConfigError):
        RunConfig(**settings)


def test_ablate_checks_every_removal_spec_before_featurizing(micro, bundle, knn_config,
                                                             monkeypatch):
    def refuse(*args):
        raise AssertionError("featurized before every removal spec was checked")

    monkeypatch.setattr(evaluation, "featurize_corpus", refuse)
    for spec in ("NOPE", "+", "AF+NOPE", "AF_SS,AF_DS"):
        with pytest.raises(ConfigError, match="^unknown feature groups: "):
            ablate(micro, bundle, knn_config, removals=("MOOD", spec))


def test_removal_spec_is_af_or_tags_joined_by_plus():
    assert expand_removal("AF") == ("AF", AF_GROUPS)
    assert expand_removal("MOOD") == ("MOOD", ("MOOD",))
    assert expand_removal("BOW+POSNG") == ("BOW+POSNG", ("BOW", "POSNG"))
    spelled_out = "+".join(reversed(AF_GROUPS))
    assert expand_removal(spelled_out) == ("AF", tuple(reversed(AF_GROUPS)))


# ------------------------------------------------- one analysis per LOO run


@pytest.fixture(scope="module")
def part_unlabelled(micro):
    """micro with every third reply's label cleared. No bundled corpus has
    an unlabelled tweet, yet vocabularies must count them."""
    replies = [t for t in micro.tweets if t.in_reply_to is not None]
    cleared = {t.tweet_id for t in replies[::3]}
    tweets = [replace(t, label=None) if t.tweet_id in cleared else t
              for t in micro.tweets]
    return Dataset(name=micro.name, tweets=tweets, rumours=micro.rumours,
                   events=micro.events)


def oracle_dictionaries(tweets, bundle, provenance):
    """Vocabularies counted afresh from the texts: tokenize, take the BOW
    terms and POS n-grams, keep those counted at least twice, sorted."""
    bow, posng = Counter(), Counter()
    for t in tweets:
        tokens = tokenize(t.text, bundle.lexicons.all_emoticons)
        bow.update(_bow_terms(tokens))
        posng.update(_pos_ngrams([tag.value for tag in pos_tag(tokens)]))

    def vocab(counts):
        return {w: i for i, w in enumerate(sorted(w for w, c in counts.items() if c >= 2))}

    return FeatureDictionaries(bow_vocab=vocab(bow), posng_vocab=vocab(posng),
                               provenance=tuple(sorted(provenance)))


def in_order(d):
    return list(d.bow_vocab.items()), list(d.posng_vocab.items()), d.provenance


@pytest.mark.parametrize("scope", ["by_event", "global"])
def test_fold_dictionaries_count_unlabelled_tweets(part_unlabelled, bundle,
                                                   monkeypatch, scope):
    built = []
    build = evaluation.build_fold_dictionaries

    def recording(dataset, fold, analyses):
        built.append((fold, build(dataset, fold, analyses)))
        return built[-1][1]

    monkeypatch.setattr(evaluation, "build_fold_dictionaries", recording)
    run_loo(part_unlabelled, bundle, RunConfig(classifier="knn", params={"k": 3}),
            scope=scope)
    assert [fold for fold, _ in built] == make_loo_folds(part_unlabelled, scope)
    labelled_only_differs = False
    for fold, dicts in built:
        training = [t for r in fold.train_rumour_ids
                    for t in part_unlabelled.rumour_tweets(r)]
        want = oracle_dictionaries(training, bundle, fold.train_rumour_ids)
        assert in_order(dicts) == in_order(want)
        labelled = oracle_dictionaries([t for t in training if t.label is not None],
                                       bundle, fold.train_rumour_ids)
        labelled_only_differs |= in_order(labelled) != in_order(want)
    assert labelled_only_differs


def test_train_vocabulary_counts_unlabelled_tweets(part_unlabelled, bundle, tmp_path):
    cleared = {t.tweet_id for t in part_unlabelled.tweets if t.label is None}
    corpus = tmp_path / "corpus.jsonl"
    with corpus.open("w", encoding="utf-8") as fh:
        for line in micro_corpus_path().read_text(encoding="utf-8").splitlines(keepends=True):
            obj = json.loads(line)
            fh.write(json.dumps({**obj, "label": None}) + "\n"
                     if obj["tweet_id"] in cleared else line)
    assert load_dataset(corpus).tweets == part_unlabelled.tweets
    out = tmp_path / "out"
    assert main(["train", "--dataset", str(corpus), "--classifier", "tree",
                 "--out", str(out)]) == 0
    context = json.loads((out / "model.json").read_text())["context"]
    want = oracle_dictionaries(part_unlabelled.tweets, bundle, part_unlabelled.rumours)
    assert context["bow_vocab"] == list(want.bow_vocab)
    assert context["posng_vocab"] == list(want.posng_vocab)
    assert context["provenance"] == list(want.provenance)


@pytest.mark.parametrize("scope", ["by_event", "global"])
def test_loo_vectors_equal_fresh_per_fold_assembly(part_unlabelled, bundle,
                                                   monkeypatch, scope):
    # every fold of the baseline and of the AF-removed rerun, as the
    # learner table receives them, against assembling each tweet afresh per
    # fold under vocabularies counted afresh
    dataset = part_unlabelled
    seen = []
    learner = LEARNERS["knn"]

    def recording_fit(X, y, params):
        seen.append([X, y])
        return learner.fit(X, y, params)

    def recording_scores(model, X):
        seen[-1] += [model.schema_fingerprint, X]
        return learner.scores(model, X)

    monkeypatch.setitem(LEARNERS, "knn", replace(learner, fit=recording_fit,
                                                 scores=recording_scores))
    ablate(dataset, bundle, RunConfig(classifier="knn", params={"k": 3}),
           removals=("AF",), scope=scope)

    folds = make_loo_folds(dataset, scope)
    no_af = tuple(g for g in GROUPS if g not in AF_GROUPS)
    runs = [(groups, fold) for fold in folds for groups in (None, no_af)]
    assert len(seen) == len(runs)
    threads = thread_index(build_threads(dataset))
    now = resolve_now(None, dataset)
    for (groups, fold), (train_X, train_y, fingerprint, test_X) in zip(runs, seen):
        dicts = oracle_dictionaries(
            [t for r in fold.train_rumour_ids for t in dataset.rumour_tweets(r)],
            bundle, fold.train_rumour_ids)
        schema = build_schema(dicts, bundle, groups)
        assert fingerprint == schema.fingerprint
        for rumours, X in ((fold.train_rumour_ids, train_X),
                           (fold.test_rumour_ids, test_X)):
            tweets = [t for r in rumours for t in dataset.rumour_tweets(r)
                      if t.label is not None]
            want = to_dense([assemble(t, threads[t.rumour_id], dicts, bundle, schema, now)
                             for t in tweets], len(schema))
            assert X.shape == want.shape and (X == want).all()
            assert X.tobytes() == want.tobytes()
        train = [t for r in fold.train_rumour_ids for t in dataset.rumour_tweets(r)
                 if t.label is not None]
        assert train_y.tolist() == [CLASS_NAMES.index(t.label.value) for t in train]


def test_ablation_builds_each_fold_dictionaries_once(micro, bundle, monkeypatch):
    # the baseline and the AF-removed rerun share each fold's dictionaries
    built = []
    build = evaluation.build_fold_dictionaries

    def recording(dataset, fold, analyses):
        built.append(fold)
        return build(dataset, fold, analyses)

    monkeypatch.setattr(evaluation, "build_fold_dictionaries", recording)
    ablate(micro, bundle, RunConfig(classifier="knn", params={"k": 3}), removals=("AF",))
    assert built == make_loo_folds(micro, "by_event")


def test_ablation_vectorizes_each_labelled_tweet_once(micro, part_unlabelled, bundle,
                                                      monkeypatch):
    # train_model too, and neither vectorizes an unlabelled tweet
    vectorized = []
    original = features.vectorize

    def recording(analysis, *args):
        vectorized.append(analysis.tweet_id)
        return original(analysis, *args)

    for module in (features, evaluation):
        monkeypatch.setattr(module, "vectorize", recording)
    config = RunConfig(classifier="knn", params={"k": 3})
    for dataset in (micro, part_unlabelled):
        for run in (lambda: ablate(dataset, bundle, config, removals=("AF",)),
                    lambda: evaluation.train_model(dataset, bundle, config,
                                                   resolve_now(None, dataset), 0)):
            vectorized.clear()
            run()
            assert sorted(vectorized) == sorted(t.tweet_id for t in dataset.labelled())


def test_ablation_analyses_each_tweet_once(micro, bundle, analysed_texts,
                                           tokenized_chunks):
    ablate(micro, bundle, RunConfig(classifier="knn", params={"k": 3}),
           removals=("AF",))
    assert sorted(analysed_texts) == sorted(t.text for t in micro.tweets)
    assert sorted(tokenized_chunks) == sorted({chunk for t in micro.tweets
                                               for chunk in t.text.split()})
