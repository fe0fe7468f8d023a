"""Experiment protocols (leave-one-rumour-out, fixed split, feature-group
ablation), pooled metrics, a native paired t-test, and the one path that
trains a model on a corpus and labels tweets with it through its context.

A leave-one-rumour-out run analyses every tweet once, as `train` does, and
vectorizes only the labelled ones, into a run matrix over all groups and the
vocabularies of every tweet. A fold's schema, built from its training
rumours' vocabularies and ablated or not, is an order-preserving subset of
those columns, and no value depends on the fold, so each fold fits and
predicts on the rows (by tweet id) and columns (by name) it slices from that
matrix.

Reproducibility contract: identical (dataset, config, seed, resource bundle)
produce byte-identical reports. Folds run one after another in fold list
order, and every random draw is keyed off the config seed and a fold id.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from hashlib import blake2b
from itertools import islice
from typing import Optional

import numpy as np

from .corpus import (
    Dataset, build_threads, is_finite_number, is_int, is_strings, thread_index)
from .errors import ConfigError, EvalError, LeakageError, ModelError
from .features import (
    AF_GROUPS,
    GROUPS,
    FeatureDictionaries,
    analyse_many,
    build_dictionaries,
    assemble,  # noqa: F401  (bound here for the perfbench tracer test)
    build_schema,
    check_groups,
    featurize_corpus,
    resolve_now,
    vectorize,
)
from .learners import LEARNERS, fit_model, predict_many
from .learners.base import CLASS_NAMES, N_CLASSES, TrainedModel, label_indices, to_dense
from .resources import ResourceBundle

log = logging.getLogger(__name__)

# rows that label_tweets featurizes, densifies and scores at a time
LABEL_CHUNK_ROWS = 64

# components whose published-tool counterparts are replaced by native
# stand-ins; echoed in every report so numbers are read with that in mind
SUBSTITUTED_COMPONENTS = (
    "sentiment: lexicon scorer (0-4 buckets) in place of an external tool",
    "negation: token-level cue ratio in place of dependency parsing",
    "mood: embedding-cosine scores in place of an external tool",
    "pos: rule/lexicon coarse tagger",
)


@dataclass(frozen=True)
class FoldSpec:
    fold_id: str
    train_rumour_ids: tuple
    test_rumour_ids: tuple

    def __post_init__(self):
        overlap = set(self.train_rumour_ids) & set(self.test_rumour_ids)
        if overlap:
            raise EvalError(f"fold {self.fold_id}: train/test overlap {sorted(overlap)}")


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines an experiment's outcome. `params` holds
    classifier-specific overrides; `groups` of None means all feature
    groups; `now` of None pins to the dataset's newest tweet."""

    classifier: str = "forest"
    params: dict = field(default_factory=dict)
    groups: Optional[tuple] = None
    seed: int = 0
    now: Optional[float] = None

    def __post_init__(self):
        # params last: they are an EvalError (exit 1), which must not hide a bad setting
        if self.classifier not in LEARNERS:
            raise ConfigError(f"unknown classifier {self.classifier!r}; "
                              f"expected one of {tuple(LEARNERS)}")
        if not (is_int(self.seed) and self.seed >= 0):
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.groups is not None:
            check_groups(self.groups, ConfigError)
        try:
            LEARNERS[self.classifier].params(self.params, self.seed)
        except (TypeError, ValueError) as exc:
            raise EvalError(f"bad {self.classifier} params {self.params!r}: {exc}") from None


@dataclass
class EvalReport:
    protocol: str
    per_fold: list
    per_event: dict
    macro_mean: float
    overall_accuracy: float
    headline_accuracy: float
    confusion: list
    precision: dict
    recall: dict
    config: dict

    def to_dict(self) -> dict:
        return {**vars(self), "substituted_components": list(SUBSTITUTED_COMPONENTS)}


@dataclass
class AblationReport:
    baseline: EvalReport
    rows: list
    config: dict

    def to_dict(self) -> dict:
        return {
            "baseline_accuracy": self.baseline.headline_accuracy,
            "rows": self.rows,
            "config": self.config,
            "substituted_components": list(SUBSTITUTED_COMPONENTS),
        }


# --- folds and leakage -----------------------------------------------------------


def make_loo_folds(dataset: Dataset, scope: str = "by_event") -> list:
    """One fold per rumour, held out against the remaining rumours of its
    universe: the same event (by_event) or the whole dataset (global)."""
    if scope not in ("by_event", "global"):
        raise EvalError(f"unknown LOO scope {scope!r}")
    universes = dataset.events if scope == "by_event" else \
        {None: [r for rumours in dataset.events.values() for r in rumours]}
    folds = []
    for event, rumours in universes.items():
        if len(rumours) < 2:
            raise EvalError("leave-one-out needs at least 2 rumours" if event is None else
                            f"event {event!r} has {len(rumours)} rumour(s); "
                            "leave-one-out needs at least 2 per event")
        for rumour in rumours:
            folds.append(FoldSpec(fold_id=rumour if event is None else f"{event}/{rumour}",
                                  train_rumour_ids=tuple(r for r in rumours if r != rumour),
                                  test_rumour_ids=(rumour,)))
    if not folds:  # by_event over a dataset with no events
        raise EvalError("leave-one-out needs at least 2 rumours")
    return folds


def build_fold_dictionaries(dataset: Dataset, fold: FoldSpec,
                            analyses: dict) -> FeatureDictionaries:
    """Vocabularies from the analyses (tweet id -> TweetAnalysis) of the
    fold's training rumours only, labelled or not; provenance records those
    rumour ids for the leakage audit."""
    training = [analyses[tweet_id] for rumour in fold.train_rumour_ids
                for tweet_id in dataset.rumours[rumour]]
    return build_dictionaries(training, provenance=fold.train_rumour_ids)


def check_leakage(dictionaries: FeatureDictionaries, fold: FoldSpec) -> None:
    """Hard assertion that no test rumour contributed to the dictionaries."""
    leaked = set(dictionaries.provenance) & set(fold.test_rumour_ids)
    if leaked:
        raise LeakageError(
            f"fold {fold.fold_id}: dictionaries were built from test "
            f"rumour(s) {sorted(leaked)}")


# --- metrics ---------------------------------------------------------------------


@dataclass(frozen=True)
class TTestResult:
    t: float
    p: float
    significant_at_001: bool
    degenerate_variance: bool = False

    def to_dict(self) -> dict:
        # JSON holds no infinity; degenerate_variance says why t is missing
        return {"t": self.t if math.isfinite(self.t) else None, "p": self.p,
                "significant_at_001": self.significant_at_001,
                "degenerate_variance": self.degenerate_variance}


def _betacf(a: float, b: float, x: float) -> float:
    # continued-fraction evaluation of the incomplete beta (Lentz's method)
    max_iterations = 200
    tiny = 1e-300
    eps = 3e-15
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iterations + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise EvalError("incomplete beta continued fraction failed to converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(1.0 - x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, df: int) -> float:
    x = df / (df + t * t)
    return regularized_incomplete_beta(df / 2.0, 0.5, x)


def paired_t_test(a, b) -> TTestResult:
    """Two-sided paired t-test over matched per-fold scores.

    All-zero differences give the defined result (t=0, p=1). Zero variance
    with a nonzero mean is reported as p approaching 0 with a warning.
    """
    if len(a) != len(b):
        raise EvalError(f"paired t-test needs matched lists, got {len(a)} and {len(b)}")
    n = len(a)
    if n < 2:
        raise EvalError("paired t-test needs at least 2 pairs")
    d = [x - y for x, y in zip(a, b)]
    mean = sum(d) / n
    variance = sum((v - mean) ** 2 for v in d) / (n - 1)
    sd = math.sqrt(variance)
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(t=0.0, p=1.0, significant_at_001=False)
        log.warning("paired t-test: zero variance with nonzero mean %g; "
                    "reporting p -> 0", mean)
        t = math.inf if mean > 0 else -math.inf
        return TTestResult(t=t, p=0.0, significant_at_001=True,
                           degenerate_variance=True)
    t = mean * math.sqrt(n) / sd
    p = student_t_two_sided_p(t, n - 1)
    return TTestResult(t=t, p=p, significant_at_001=p < 0.001)


# --- experiment execution ---------------------------------------------------------


def fold_seed(seed: int, fold_id: str) -> int:
    digest = blake2b(f"{seed}\x1f{fold_id}".encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


def fit_classifier(config: RunConfig, X, y, schema_fingerprint: int, seed: int):
    """The config's classifier, with its params under `seed`, fitted on the
    rows of X with class indices y."""
    params = LEARNERS[config.classifier].params(config.params, seed)
    return fit_model(config.classifier, X, y, params, schema_fingerprint)


def _resolved_config(config: RunConfig, dataset: Dataset,
                     resources: ResourceBundle, protocol: str, now: float) -> dict:
    groups = list(GROUPS) if config.groups is None else list(config.groups)
    return {
        "protocol": protocol,
        "classifier": config.classifier,
        "classifier_params": dict(sorted(config.params.items())),
        "feature_groups": groups,
        "seed": config.seed,
        "now": now,
        "dataset": dataset.name,
        "n_tweets": len(dataset),
        "bundle_hash": resources.content_hash,
    }


def _fold_result(fold_id: str, event_id: str, test_rumours, gold, scores) -> dict:
    """The result of one fold, from its gold class indices and score matrix."""
    confusion = np.bincount(gold * N_CLASSES + scores.argmax(1),
                            minlength=N_CLASSES * N_CLASSES).reshape(N_CLASSES, N_CLASSES)
    correct = int(confusion.trace())
    return {
        "fold_id": fold_id,
        "event_id": event_id,
        "test_rumours": list(test_rumours),
        "n_test": len(gold),
        "n_correct": correct,
        "accuracy": correct / len(gold),
        "confusion": confusion,
    }


def _labelled_rows(analyses, dictionaries, schema) -> tuple:
    """(X, class indices y, tweet ids) of the labelled analyses, in order:
    only they are vectorized, under the dictionaries and the schema."""
    labelled = [a for a in analyses if a.label is not None]
    rows = [vectorize(a, dictionaries, schema) for a in labelled]
    return to_dense(rows, len(schema)), label_indices(labelled), [a.tweet_id for a in labelled]


def _evaluate_fold(dataset, analyses, run_matrix, resources, configs, fold) -> list:
    """One result per config of one fold: the fold's dictionaries are built
    and leakage-checked, and its rows mapped, once for all of them."""
    X, y, row_of, column_of = run_matrix
    dictionaries = build_fold_dictionaries(dataset, fold, analyses)
    check_leakage(dictionaries, fold)
    # run-matrix rows of the labelled tweets of the fold's training, then test, rumours
    train_rows, test_rows = ([row_of[t] for r in rumours for t in dataset.rumours[r]
                              if t in row_of]
                             for rumours in (fold.train_rumour_ids, fold.test_rumour_ids))
    if not train_rows:
        raise EvalError(f"fold {fold.fold_id}: no labelled training tweets")
    if not test_rows:
        raise EvalError(f"fold {fold.fold_id}: no labelled test tweets")
    event = dataset.event_of_rumour(fold.test_rumour_ids[0])
    results = []
    for config in configs:
        schema = build_schema(dictionaries, resources, config.groups)
        columns = [column_of[name] for name, _ in schema.columns]
        model = fit_classifier(config, X[np.ix_(train_rows, columns)], y[train_rows],
                               schema.fingerprint, fold_seed(config.seed, fold.fold_id))
        scores = predict_many(model, X[np.ix_(test_rows, columns)])
        results.append(_fold_result(fold.fold_id, event, fold.test_rumour_ids,
                                    y[test_rows], scores))
    return results


def _reduce_report(protocol, fold_results, config_echo) -> EvalReport:
    per_fold = []
    by_event: dict = {}
    for result in fold_results:
        per_fold.append({k: result[k] for k in
                         ("fold_id", "event_id", "test_rumours",
                          "n_test", "n_correct", "accuracy")})
        bucket = by_event.setdefault(result["event_id"],
                                     {"n_test": 0, "n_correct": 0, "n_folds": 0})
        bucket["n_test"] += result["n_test"]
        bucket["n_correct"] += result["n_correct"]
        bucket["n_folds"] += 1
    per_event = {}
    for event in sorted(by_event):
        bucket = by_event[event]
        per_event[event] = {**bucket, "accuracy": bucket["n_correct"] / bucket["n_test"]}
    macro = sum(e["accuracy"] for e in per_event.values()) / len(per_event)
    confusion = sum(result["confusion"] for result in fold_results)
    # Python ints, so each ratio below is a plain Python division
    hits, gold, predicted = (counts.tolist() for counts in
                             (confusion.diagonal(), confusion.sum(1), confusion.sum(0)))
    overall = sum(hits) / sum(gold)
    precision = {name: h / p if p else 0.0 for name, h, p in zip(CLASS_NAMES, hits, predicted)}
    recall = {name: h / g if g else 0.0 for name, h, g in zip(CLASS_NAMES, hits, gold)}
    headline = macro if protocol.startswith("loo") else overall
    return EvalReport(
        protocol=protocol,
        per_fold=per_fold,
        per_event=per_event,
        macro_mean=macro,
        overall_accuracy=overall,
        headline_accuracy=headline,
        confusion=confusion.tolist(),
        precision=precision,
        recall=recall,
        config=config_echo,
    )


def _run_loo(dataset: Dataset, resources: ResourceBundle, configs,
             scope: str) -> list:
    """One leave-one-rumour-out report per config, in order. The configs
    share `now`, so `featurize_corpus` analyses every tweet once, into a
    table that all their folds count vocabularies from (unlabelled tweets
    are in it because vocabularies count them), and the labelled analyses,
    vectorized one by one, make the run matrix that all their folds slice;
    both are dropped on return. Folds run one after another, each fitting
    every config in order. _evaluate_fold is looked up by name on each call,
    so wrappers installed on it (by a tracer, say) see every fold."""
    folds = make_loo_folds(dataset, scope)
    now = resolve_now(configs[0].now, dataset)
    dictionaries, schema, analyses = featurize_corpus(dataset, resources, None, now)
    X, y, tweet_ids = _labelled_rows(analyses, dictionaries, schema)
    run_matrix = X, y, {t: i for i, t in enumerate(tweet_ids)}, schema.name_to_index
    analyses = {a.tweet_id: a for a in analyses}
    protocol = f"loo_{scope}"
    by_fold = [_evaluate_fold(dataset, analyses, run_matrix, resources, configs, fold)
               for fold in folds]
    return [_reduce_report(protocol, results,
                           _resolved_config(config, dataset, resources, protocol, now))
            for config, results in zip(configs, zip(*by_fold))]


def run_loo(dataset: Dataset, resources: ResourceBundle,
            config: RunConfig = RunConfig(), scope: str = "by_event") -> EvalReport:
    """Leave-one-rumour-out over the dataset, one fold after another."""
    return _run_loo(dataset, resources, [config], scope)[0]


def train_model(dataset: Dataset, resources: ResourceBundle, config: RunConfig,
                now: float, seed: int) -> tuple:
    """(model, schema, training tweet count): the config's classifier, with
    its params under `seed`, fitted on the labelled tweets of the dataset
    under vocabularies counted from all of its tweets. The model's context
    records what `label_tweets` rebuilds the schema and `now` from."""
    if not dataset.labelled():
        raise EvalError("no labelled tweets to train on")
    dictionaries, schema, analyses = featurize_corpus(dataset, resources, config.groups, now)
    X, y, tweet_ids = _labelled_rows(analyses, dictionaries, schema)
    model = fit_classifier(config, X, y, schema.fingerprint, seed)
    model.context.update({
        "bow_vocab": list(dictionaries.bow_vocab),
        "posng_vocab": list(dictionaries.posng_vocab),
        "provenance": list(dictionaries.provenance),
        "feature_groups": None if config.groups is None else list(config.groups),
        "bundle_hash": resources.content_hash,
        "now": now,
        "trained_on": dataset.name,
        "seed": seed,
    })
    return model, schema, len(tweet_ids)


def _check_context(context: dict) -> None:
    """Raise ModelError unless each context entry label_tweets reads is
    absent, null or of its type."""
    for key, what, expected, ok in (
            ("bow_vocab", "BOW vocabulary", "a list of strings", is_strings),
            ("posng_vocab", "POS n-gram vocabulary", "a list of strings", is_strings),
            ("provenance", "training rumour list", "a list of strings", is_strings),
            ("feature_groups", "feature group list", "null or a list of strings", is_strings),
            ("now", "reference time", "a number", is_finite_number),
            ("bundle_hash", "bundle hash", "a string", lambda v: isinstance(v, str))):
        if context.get(key) is not None and not ok(context[key]):
            raise ModelError(f"corrupted model file: its {what} is not {expected}")
    if context.get("feature_groups") is not None:
        check_groups(context["feature_groups"], ModelError)


def label_tweets(model: TrainedModel, dataset: Dataset, resources: ResourceBundle) -> np.ndarray:
    """The score matrix (see `predict_many`) of the dataset's tweets, in order,
    by a model from `train_model`: each tweet is featurized in the context of
    its thread under the schema and `now` rebuilt from the model's context.
    Tweets are featurized, densified and scored LABEL_CHUNK_ROWS at a time,
    so memory grows with the chunk and not with the dataset's rows x columns.
    A context of the wrong shape, or one that does not fit the bundle or the
    model, is a ModelError."""
    context = model.context
    _check_context(context)
    stored_hash = context.get("bundle_hash")
    if stored_hash is not None and stored_hash != resources.content_hash:
        raise ModelError(
            "model was trained against a different resource bundle "
            f"(stored hash {stored_hash}, loaded {resources.content_hash})")
    dictionaries = FeatureDictionaries(
        bow_vocab={w: i for i, w in enumerate(context.get("bow_vocab") or ())},
        posng_vocab={g: i for i, g in enumerate(context.get("posng_vocab") or ())},
        provenance=tuple(context.get("provenance") or ()),
    )
    groups = context.get("feature_groups")
    schema = build_schema(dictionaries, resources, None if groups is None else tuple(groups))
    if schema.fingerprint != model.schema_fingerprint:
        raise ModelError(
            "rebuilt feature schema does not match the model "
            f"(model {model.schema_fingerprint}, rebuilt {schema.fingerprint})")
    if len(schema) != model.n_features:  # checked here too, for an input with no chunk
        raise ModelError(f"got {len(schema)} columns for a model over {model.n_features}")
    now = float(resolve_now(context.get("now"), dataset))
    threads = thread_index(build_threads(dataset))
    analyses = analyse_many(dataset.tweets, threads, resources, now)
    scores = [np.empty((0, N_CLASSES))]
    while chunk := list(islice(analyses, LABEL_CHUNK_ROWS)):
        rows = [vectorize(a, dictionaries, schema) for a in chunk]
        scores.append(predict_many(model, to_dense(rows, len(schema))))
    return np.concatenate(scores)


def run_split(train: Dataset, test: Dataset, resources: ResourceBundle,
              config: RunConfig = RunConfig()) -> EvalReport:
    """Fixed train/test split: a model trained on the training dataset
    labels the test dataset, and the report covers its labelled tweets."""
    overlap = {t.tweet_id for t in train.tweets} & {t.tweet_id for t in test.tweets}
    if overlap:
        raise EvalError(f"train and test share {len(overlap)} tweet id(s), "
                        f"e.g. {sorted(overlap)[:3]}")
    if not test.labelled():
        raise EvalError("no labelled test tweets")
    now = resolve_now(config.now, train, test)
    model, _, _ = train_model(train, resources, config, now, fold_seed(config.seed, "split"))
    scores = label_tweets(model, test, resources)
    by_event: dict = {}
    for row, record in enumerate(test.tweets):
        if record.label is not None:
            by_event.setdefault(record.event_id, []).append(row)
    results = []
    for event in sorted(by_event):
        rows = by_event[event]
        records = [test.tweets[row] for row in rows]
        results.append(_fold_result(f"split/{event}", event,
                                    sorted({r.rumour_id for r in records}),
                                    label_indices(records), scores[rows]))
    echo = _resolved_config(config, train, resources, "split", now)
    echo["test_dataset"] = test.name
    echo["n_test_tweets"] = len(test)
    return _reduce_report("split", results, echo)


# --- ablation ---------------------------------------------------------------------


def expand_removal(spec: str) -> tuple:
    """(label, removed groups) of a removal spec: "AF" for the six AF
    groups, or group tags joined by "+" (a ConfigError names unknown ones).
    The label is the spec, or "AF" when the tags are the six AF groups."""
    removed = AF_GROUPS if spec == "AF" else check_groups(spec.split("+"), ConfigError)
    return "AF" if set(removed) == set(AF_GROUPS) else spec, removed


def ablate(dataset: Dataset, resources: ResourceBundle,
           config: RunConfig = RunConfig(), removals=("AF",),
           scope: str = "by_event") -> AblationReport:
    """Baseline run plus one rerun per removal spec (see expand_removal;
    all are checked before any tweet is featurized) under identical folds
    and per-fold seeds; deltas are measured on the headline accuracy. The
    all-AF removal row also carries a paired t-test over per-fold scores."""
    base_groups = tuple(GROUPS) if config.groups is None else tuple(config.groups)
    expanded = [expand_removal(spec) for spec in removals]
    configs = [replace(config, groups=tuple(g for g in base_groups if g not in removed))
               for _, removed in expanded]
    baseline, *reports = _run_loo(dataset, resources, [config, *configs], scope)
    baseline_folds = [f["accuracy"] for f in baseline.per_fold]
    rows = []
    for (label, removed), report in zip(expanded, reports):
        row = {
            "removed": label,
            "removed_groups": list(removed),
            "accuracy": report.headline_accuracy,
            "delta": report.headline_accuracy - baseline.headline_accuracy,
            "per_fold_accuracy": [f["accuracy"] for f in report.per_fold],
        }
        if set(removed) == set(AF_GROUPS):
            if len(baseline_folds) >= 2:
                row["t_test"] = paired_t_test(baseline_folds, row["per_fold_accuracy"]).to_dict()
            else:
                row["t_test"] = None
                row["t_test_note"] = "needs at least 2 folds"
        rows.append(row)
    return AblationReport(baseline=baseline, rows=rows,
                          config=dict(baseline.config))
