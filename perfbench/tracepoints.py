"""Where the traced run records spans, and the per-layer metrics it derives
from them. The layers are the modules of `rumourstance`.

A trace point names a function by the module that defines it. Installing
it wraps that function at every `rumourstance` module attribute bound to
it, since callers such as `evaluation` and `cli` import names directly. A
trace point whose module or function no longer exists is reported absent;
the metrics it feeds then read 0.
"""

from __future__ import annotations

import importlib
import os
import statistics
import sys
from collections import defaultdict

from spans import Span, self_times


def _tweet(span, args, kwargs, result):
    span.attrs["tweet"] = args[0].tweet_id


def _rows(span, args, kwargs, result):
    span.attrs["rows"] = len(result)


def _density(span, args, kwargs, result):
    span.attrs["nonzero"] = int((result != 0).sum())
    span.attrs["cells"] = int(result.size)


def _model_bytes(span, args, kwargs, result):
    span.attrs["bytes"] = os.path.getsize(args[1])


def _records(span, args, kwargs, result):
    span.attrs["records"] = result["kept"] + result["dropped"]


# (span name, defining module, function, inspect, record process CPU)
TRACE_POINTS = (
    ("cli.main", "rumourstance.cli", "main", None, False),
    ("corpus.load", "rumourstance.corpus", "load_dataset", None, False),
    ("corpus.threads", "rumourstance.corpus", "build_threads", None, False),
    ("resources.load_bundle", "rumourstance.resources", "load_bundle", None, False),
    ("resources.cumvec", "rumourstance.resources", "cumulative_vector", None, False),
    ("text.tokenize", "rumourstance.text", "tokenize", None, False),
    ("features.dicts", "rumourstance.features", "build_dictionaries", None, False),
    ("features.schema", "rumourstance.features", "build_schema", None, False),
    ("features.assemble", "rumourstance.features", "assemble", _tweet, False),
    ("learners.fit", "rumourstance.learners.tree", "fit_tree", None, False),
    ("learners.fit", "rumourstance.learners.forest", "fit_forest", None, False),
    ("learners.fit", "rumourstance.learners.knn", "fit_knn", None, False),
    ("learners.predict", "rumourstance.learners", "predict_many", _rows, False),
    ("learners.dense", "rumourstance.learners.base", "to_dense", _density, False),
    ("learners.io.save", "rumourstance.learners.io", "save_model", _model_bytes, False),
    ("learners.io.load", "rumourstance.learners.io", "load_model", None, False),
    ("ingest", "rumourstance.ingest", "ingest_file", _records, False),
    ("evaluation.ablate", "rumourstance.evaluation", "ablate", None, False),
    ("evaluation.run_loo", "rumourstance.evaluation", "run_loo", None, True),
    ("evaluation.fold", "rumourstance.evaluation", "_evaluate_fold", None, False),
    ("reports", "rumourstance.reports", "eval_report_json", None, False),
    ("reports", "rumourstance.reports", "eval_report_text", None, False),
    ("reports", "rumourstance.reports", "ablation_report_json", None, False),
    ("reports", "rumourstance.reports", "ablation_report_text", None, False),
)


def install(recorder, points=TRACE_POINTS) -> list:
    """Wrap every trace point at each `rumourstance` module attribute bound
    to it; return the trace points that could not be found."""
    absent = []
    for name, module_name, func_name, inspect, cpu in points:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            absent.append(f"{module_name}.{func_name}")
            continue
        original = getattr(module, func_name, None)
        if not callable(original):
            absent.append(f"{module_name}.{func_name}")
            continue
        traced = recorder.wrapper(name, original, inspect, cpu)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "rumourstance"
                                   or mod_name.startswith("rumourstance.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    recorder.patch(mod, attr, traced)
    return absent


# --- per-layer metrics --------------------------------------------------------

PER_LAYER_UNITS = {
    "features.assemble_calls": "count",
    "features.assemble_s": "s",
    "features.tweets_per_s": "1/s",
    "features.assemble_per_tweet": "ratio",
    "features.dicts_calls": "count",
    "features.dicts_s": "s",
    "features.schema_s": "s",
    "text.tokenize_s": "s",
    "text.tokenize_per_tweet": "ratio",
    "resources.cumvec_per_tweet": "ratio",
    "resources.load_bundle_s": "s",
    "corpus.load_s": "s",
    "corpus.threads_s": "s",
    "learners.fit_calls": "count",
    "learners.fit_s": "s",
    "learners.predict_s": "s",
    "learners.predict_rows_per_s": "1/s",
    "learners.dense_s": "s",
    "learners.dense_density": "ratio",
    "learners.io.save_s": "s",
    "learners.io.load_s": "s",
    "learners.io.model_bytes": "bytes",
    "ingest.s": "s",
    "ingest.records_per_s": "1/s",
    "evaluation.folds": "count",
    "evaluation.fold_p50_s": "s",
    "evaluation.fold_tail_s": "s",
    "evaluation.self_s": "s",
    "evaluation.cpu_util": "ratio",
    "reports.s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(span_lists) -> tuple:
    """Per-layer metrics of one traced pass, given the spans of each of its
    commands; also returns the pass's fold durations and the shares of
    the commands' time spent in featurization and in the learners."""
    spans = defaultdict(list)
    layer_self = defaultdict(float)
    for raw in span_lists:
        listed = [s if isinstance(s, Span) else Span(**s) for s in raw]
        for span, own in zip(listed, self_times(listed)):
            spans[span.name].append(span)
            layer_self[span.name.split(".")[0]] += own

    def count(name):
        return len(spans[name])

    def seconds(name):
        return sum(s.duration for s in spans[name])

    def attr(name, key):
        return sum(s.attrs.get(key, 0) for s in spans[name])

    assembles = count("features.assemble")
    tweets = len({s.attrs["tweet"] for s in spans["features.assemble"]})
    metrics = {
        "features.assemble_calls": assembles,
        "features.assemble_s": seconds("features.assemble"),
        "features.tweets_per_s": _ratio(assembles, seconds("features.assemble")),
        "features.assemble_per_tweet": _ratio(assembles, tweets),
        "features.dicts_calls": count("features.dicts"),
        "features.dicts_s": seconds("features.dicts"),
        "features.schema_s": seconds("features.schema"),
        "text.tokenize_s": seconds("text.tokenize"),
        "text.tokenize_per_tweet": _ratio(count("text.tokenize"), assembles),
        "resources.cumvec_per_tweet": _ratio(count("resources.cumvec"), assembles),
        "resources.load_bundle_s": seconds("resources.load_bundle"),
        "corpus.load_s": seconds("corpus.load"),
        "corpus.threads_s": seconds("corpus.threads"),
        "learners.fit_calls": count("learners.fit"),
        "learners.fit_s": seconds("learners.fit"),
        "learners.predict_s": seconds("learners.predict"),
        "learners.predict_rows_per_s": _ratio(attr("learners.predict", "rows"),
                                              seconds("learners.predict")),
        "learners.dense_s": seconds("learners.dense"),
        "learners.dense_density": _ratio(attr("learners.dense", "nonzero"),
                                         attr("learners.dense", "cells")),
        "learners.io.save_s": seconds("learners.io.save"),
        "learners.io.load_s": seconds("learners.io.load"),
        "learners.io.model_bytes": attr("learners.io.save", "bytes"),
        "ingest.s": seconds("ingest"),
        "ingest.records_per_s": _ratio(attr("ingest", "records"), seconds("ingest")),
        "evaluation.folds": count("evaluation.fold"),
        "evaluation.self_s": layer_self["evaluation"],
        "evaluation.cpu_util": _ratio(attr("evaluation.run_loo", "cpu_s"),
                                      seconds("evaluation.run_loo")),
        "reports.s": seconds("reports"),
        "cli.self_s": layer_self["cli"],
    }
    cli_s = seconds("cli.main")
    shares = {
        "features": _ratio(seconds("features.assemble") + seconds("features.dicts")
                           + seconds("features.schema"), cli_s),
        "learners": _ratio(seconds("learners.fit") + seconds("learners.predict")
                           + seconds("learners.io.save")
                           + seconds("learners.io.load"), cli_s),
    }
    return metrics, [s.duration for s in spans["evaluation.fold"]], shares


def tail_percentile(n: int) -> int:
    """The highest whole percentile, at least the median, that leaves ten
    or more of `n` samples beyond it; 0 when there are too few samples."""
    if n < 20:
        return 0
    return max(50, min(99, int(100 * (1 - 10 / n))))


def run_metrics(passes, fold_durations) -> tuple:
    """Median of each per-pass metric across the traced passes, plus the
    median fold time and the fold time at `tail_percentile` over the folds
    of all of them; also returns that percentile."""
    out = {name: statistics.median(p[name] for p in passes)
           for name in passes[0]}
    out["evaluation.fold_p50_s"] = (statistics.median(fold_durations)
                                    if fold_durations else 0.0)
    tail = tail_percentile(len(fold_durations))
    out["evaluation.fold_tail_s"] = (
        statistics.quantiles(fold_durations, n=100, method="inclusive")[tail - 1]
        if tail else 0.0)
    return out, tail
