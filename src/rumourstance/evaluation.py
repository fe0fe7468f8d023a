"""Experiment protocols: leave-one-rumour-out and fixed-split evaluation,
pooled metrics, a native paired t-test, and the feature-group ablation
harness.

Reproducibility contract: identical (dataset, config, seed, resource bundle)
produce byte-identical reports, independent of --jobs. Every random draw is
keyed off the config seed and a fold id, never off scheduling order.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from hashlib import blake2b
from typing import Optional

from .corpus import CLASS_ORDER, Dataset, build_threads, thread_index
from .errors import EvalError, LeakageError
from .features import (
    AF_GROUPS,
    GROUPS,
    FeatureDictionaries,
    build_dictionaries,
    assemble,  # noqa: F401  (bound here for the perfbench tracer test)
    build_schema,
    corpus_dictionaries,
    featurize,
    resolve_now,
)
from .learners import LEARNERS, predict_many
from .resources import ResourceBundle

log = logging.getLogger(__name__)

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
    jobs: int = 1

    def __post_init__(self):
        if self.classifier not in LEARNERS:
            raise EvalError(f"unknown classifier {self.classifier!r}; "
                            f"expected one of {tuple(LEARNERS)}")
        try:
            LEARNERS[self.classifier].params(self.params, self.seed)
        except (TypeError, ValueError) as exc:
            raise EvalError(f"bad {self.classifier} params {self.params!r}: {exc}") from None
        if self.seed < 0:
            raise EvalError("seed must be non-negative")
        if self.jobs < 1:
            raise EvalError("jobs must be >= 1")
        if self.groups is not None:
            unknown = set(self.groups) - set(GROUPS)
            if unknown:
                raise EvalError(f"unknown feature groups: {sorted(unknown)}")


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
    notes: tuple = SUBSTITUTED_COMPONENTS

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "notes"}
        out["substituted_components"] = list(self.notes)
        return out


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
    folds = []
    if scope == "global":
        universe = [r for rumours in dataset.events.values() for r in rumours]
        if len(universe) < 2:
            raise EvalError("leave-one-out needs at least 2 rumours")
        for rumour in universe:
            train = tuple(r for r in universe if r != rumour)
            folds.append(FoldSpec(fold_id=rumour, train_rumour_ids=train,
                                  test_rumour_ids=(rumour,)))
        return folds
    for event, rumours in dataset.events.items():
        if len(rumours) < 2:
            raise EvalError(
                f"event {event!r} has {len(rumours)} rumour(s); "
                "leave-one-out needs at least 2 per event")
        for rumour in rumours:
            train = tuple(r for r in rumours if r != rumour)
            folds.append(FoldSpec(fold_id=f"{event}/{rumour}",
                                  train_rumour_ids=train,
                                  test_rumour_ids=(rumour,)))
    return folds


def build_fold_dictionaries(dataset: Dataset, fold: FoldSpec,
                            resources: ResourceBundle) -> FeatureDictionaries:
    """Vocabularies from the fold's training rumours only; provenance
    records those rumour ids for the leakage audit."""
    training = [t for rumour in fold.train_rumour_ids
                for t in dataset.rumour_tweets(rumour)]
    return build_dictionaries(training, resources,
                              provenance=fold.train_rumour_ids)


def check_leakage(dictionaries: FeatureDictionaries, fold: FoldSpec) -> None:
    """Hard assertion that no test rumour contributed to the dictionaries."""
    leaked = set(dictionaries.provenance) & set(fold.test_rumour_ids)
    if leaked:
        raise LeakageError(
            f"fold {fold.fold_id}: dictionaries were built from test "
            f"rumour(s) {sorted(leaked)}")


# --- metrics ---------------------------------------------------------------------


def accuracy(pred, gold) -> float:
    if len(pred) != len(gold):
        raise EvalError(f"got {len(pred)} predictions for {len(gold)} gold labels")
    if not gold:
        raise EvalError("accuracy of an empty label list is undefined")
    return sum(p == g for p, g in zip(pred, gold)) / len(gold)


@dataclass(frozen=True)
class TTestResult:
    t: float
    p: float
    significant_at_001: bool
    degenerate_variance: bool = False

    def to_dict(self) -> dict:
        return {"t": self.t, "p": self.p,
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


def fit_classifier(classifier: str, vectors, schema, params: dict, seed: int):
    learner = LEARNERS[classifier]
    return learner.fit(vectors, learner.params(params, seed), schema)


def _labelled(records) -> list:
    return [t for t in records if t.label is not None]


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


def _empty_confusion() -> list:
    return [[0 for _ in CLASS_ORDER] for _ in CLASS_ORDER]


_LABEL_INDEX = {label.value: i for i, label in enumerate(CLASS_ORDER)}


def _fold_result(fold_id: str, event_id: str, test_rumours, records,
                 predictions) -> dict:
    confusion = _empty_confusion()
    for record, (predicted, _) in zip(records, predictions):
        confusion[_LABEL_INDEX[record.label.value]][_LABEL_INDEX[predicted]] += 1
    correct = sum(confusion[i][i] for i in range(len(CLASS_ORDER)))
    return {
        "fold_id": fold_id,
        "event_id": event_id,
        "test_rumours": list(test_rumours),
        "n_test": len(records),
        "n_correct": correct,
        "accuracy": correct / len(records),
        "confusion": confusion,
    }


def _evaluate_fold(dataset, threads, resources, config, fold, now):
    dictionaries = build_fold_dictionaries(dataset, fold, resources)
    check_leakage(dictionaries, fold)
    schema = build_schema(dictionaries, resources, config.groups)
    train = _labelled([t for r in fold.train_rumour_ids
                       for t in dataset.rumour_tweets(r)])
    test = _labelled([t for r in fold.test_rumour_ids
                      for t in dataset.rumour_tweets(r)])
    if not train:
        raise EvalError(f"fold {fold.fold_id}: no labelled training tweets")
    if not test:
        raise EvalError(f"fold {fold.fold_id}: no labelled test tweets")
    train_vectors = featurize(train, threads, dictionaries, resources, schema, now)
    test_vectors = featurize(test, threads, dictionaries, resources, schema, now)
    model = fit_classifier(config.classifier, train_vectors, schema, config.params,
                           fold_seed(config.seed, fold.fold_id))
    predictions = predict_many(model, test_vectors)
    events = {dataset.event_of_rumour(r) for r in fold.test_rumour_ids}
    if len(events) != 1:
        raise EvalError(f"fold {fold.fold_id}: test rumours span events {sorted(events)}")
    return _fold_result(fold.fold_id, events.pop(), fold.test_rumour_ids, test,
                        predictions)


def _reduce_report(protocol, fold_results, config_echo) -> EvalReport:
    confusion = _empty_confusion()
    per_fold = []
    by_event: dict = {}
    for result in fold_results:
        for i in range(len(CLASS_ORDER)):
            for j in range(len(CLASS_ORDER)):
                confusion[i][j] += result["confusion"][i][j]
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
    total = sum(sum(row) for row in confusion)
    overall = sum(confusion[i][i] for i in range(len(CLASS_ORDER))) / total
    precision = {}
    recall = {}
    for i, label in enumerate(CLASS_ORDER):
        gold = sum(confusion[i])
        predicted = sum(confusion[j][i] for j in range(len(CLASS_ORDER)))
        hits = confusion[i][i]
        precision[label.value] = hits / predicted if predicted else 0.0
        recall[label.value] = hits / gold if gold else 0.0
    headline = macro if protocol.startswith("loo") else overall
    return EvalReport(
        protocol=protocol,
        per_fold=per_fold,
        per_event=per_event,
        macro_mean=macro,
        overall_accuracy=overall,
        headline_accuracy=headline,
        confusion=confusion,
        precision=precision,
        recall=recall,
        config=config_echo,
    )


def run_loo(dataset: Dataset, resources: ResourceBundle,
            config: RunConfig = RunConfig(), scope: str = "by_event") -> EvalReport:
    """Leave-one-rumour-out over the dataset. Folds evaluate independently,
    possibly in parallel; the reduction is ordered by fold list position."""
    folds = make_loo_folds(dataset, scope)
    now = resolve_now(config.now, dataset)
    threads = thread_index(build_threads(dataset))
    protocol = f"loo_{scope}"

    def run_fold(fold):
        return _evaluate_fold(dataset, threads, resources, config, fold, now)

    if config.jobs > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            futures = [pool.submit(run_fold, fold) for fold in folds]
            results = [future.result() for future in futures]
    else:
        results = [run_fold(fold) for fold in folds]
    echo = _resolved_config(config, dataset, resources, protocol, now)
    return _reduce_report(protocol, results, echo)


def run_split(train: Dataset, test: Dataset, resources: ResourceBundle,
              config: RunConfig = RunConfig()) -> EvalReport:
    """Fixed train/test split: dictionaries and model from the training
    dataset only, report over the test dataset."""
    overlap = {t.tweet_id for t in train.tweets} & {t.tweet_id for t in test.tweets}
    if overlap:
        raise EvalError(f"train and test share {len(overlap)} tweet id(s), "
                        f"e.g. {sorted(overlap)[:3]}")
    now = resolve_now(config.now, train, test)
    train_records = train.labelled()
    if not train_records:
        raise EvalError("no labelled training tweets")
    # vocabularies need no labels, so unlabelled training tweets count too
    dictionaries = corpus_dictionaries(train, resources)
    schema = build_schema(dictionaries, resources, config.groups)
    train_vectors = featurize(train_records, thread_index(build_threads(train)),
                              dictionaries, resources, schema, now)
    test_records = test.labelled()
    if not test_records:
        raise EvalError("no labelled test tweets")
    test_vectors = featurize(test_records, thread_index(build_threads(test)),
                             dictionaries, resources, schema, now)
    model = fit_classifier(config.classifier, train_vectors, schema, config.params,
                           fold_seed(config.seed, "split"))
    by_event: dict = {}
    for record, prediction in zip(test_records, predict_many(model, test_vectors)):
        by_event.setdefault(record.event_id, []).append((record, prediction))
    results = []
    for event in sorted(by_event):
        records, predictions = zip(*by_event[event])
        results.append(_fold_result(f"split/{event}", event,
                                    sorted({r.rumour_id for r in records}),
                                    records, predictions))
    echo = _resolved_config(config, train, resources, "split", now)
    echo["test_dataset"] = test.name
    echo["n_test_tweets"] = len(test)
    return _reduce_report("split", results, echo)


# --- ablation ---------------------------------------------------------------------


def _expand_removal(spec) -> tuple:
    """A removal spec is a group tag, the alias "AF" for all six AF groups,
    or an explicit list of tags. Returns (label, removed_groups)."""
    if isinstance(spec, str):
        if spec == "AF":
            return "AF", tuple(AF_GROUPS)
        if spec not in GROUPS:
            raise EvalError(f"unknown feature group {spec!r}")
        return spec, (spec,)
    removed = tuple(spec)
    unknown = set(removed) - set(GROUPS)
    if unknown:
        raise EvalError(f"unknown feature groups: {sorted(unknown)}")
    if not removed:
        raise EvalError("empty removal spec")
    label = "AF" if set(removed) == set(AF_GROUPS) else "+".join(removed)
    return label, removed


def ablate(dataset: Dataset, resources: ResourceBundle,
           config: RunConfig = RunConfig(), removals=("AF",),
           scope: str = "by_event") -> AblationReport:
    """Baseline run plus one rerun per removal spec under identical folds
    and per-fold seeds; deltas are measured on the headline accuracy. The
    all-AF removal row also carries a paired t-test over per-fold scores."""
    base_groups = tuple(GROUPS) if config.groups is None else tuple(config.groups)
    baseline = run_loo(dataset, resources, config, scope)
    baseline_folds = [f["accuracy"] for f in baseline.per_fold]
    rows = []
    for spec in removals:
        label, removed = _expand_removal(spec)
        kept = tuple(g for g in base_groups if g not in removed)
        report = run_loo(dataset, resources, replace(config, groups=kept), scope)
        row = {
            "removed": label,
            "removed_groups": list(removed),
            "accuracy": report.headline_accuracy,
            "delta": report.headline_accuracy - baseline.headline_accuracy,
            "per_fold_accuracy": [f["accuracy"] for f in report.per_fold],
        }
        if set(removed) == set(AF_GROUPS):
            ablated_folds = row["per_fold_accuracy"]
            if len(baseline_folds) >= 2:
                row["t_test"] = paired_t_test(baseline_folds, ablated_folds).to_dict()
            else:
                row["t_test"] = None
                row["t_test_note"] = "needs at least 2 folds"
        rows.append(row)
    return AblationReport(baseline=baseline, rows=rows,
                          config=dict(baseline.config))
