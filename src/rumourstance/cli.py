"""Command line front end for the stance classification pipeline.

Every experiment setting can live in a JSON config file (--config) or be
given as a flag; flags win. Commands that produce artifacts write them into
--out together with resolved_config.json, the fully materialized settings
actually used, so a run can be reproduced from its output directory alone.

Exit codes: 0 success, 1 runtime failure (bad data, model mismatch),
2 invalid configuration (unknown settings, missing files).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bundled import default_bundle_path
from .corpus import build_threads, load_dataset, parse_rfc3339, thread_index
from .errors import ConfigError, StanceError
from .evaluation import (
    RunConfig,
    ablate,
    fit_classifier,
    run_loo,
    run_split,
)
from .features import (
    GROUPS,
    FeatureDictionaries,
    build_schema,
    assemble,  # noqa: F401  (bound here for the perfbench tracer test)
    corpus_dictionaries,
    featurize,
    resolve_now,
    write_schema_file,
    write_vectors,
)
from .ingest import ingest_file
from .learners import LEARNERS, predict_many
from .learners.io import load_model, save_model
from .reports import (
    ablation_report_json,
    ablation_report_text,
    eval_report_json,
    eval_report_text,
)
from .resources import load_bundle, missing_bundle_files

CONFIG_KEYS = frozenset({
    "dataset", "test_dataset", "bundle", "classifier", "classifier_params",
    "feature_groups", "protocol", "seed", "jobs", "now", "out",
})

_EVAL_PROTOCOLS = ("loo_by_event", "loo_global")


def _read_config_file(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        obj = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(obj) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return obj


def _setting(ns: argparse.Namespace, file_cfg: dict, key: str, default=None):
    value = getattr(ns, key, None)
    if value is not None:
        return value
    if key in file_cfg and file_cfg[key] is not None:
        return file_cfg[key]
    return default


def _parse_groups(value) -> tuple:
    if isinstance(value, str):
        value = [g.strip() for g in value.split(",") if g.strip()]
    groups = tuple(value)
    unknown = sorted(set(groups) - set(GROUPS))
    if unknown:
        raise ConfigError(f"unknown feature groups: {', '.join(unknown)}")
    return groups


def _parse_params(value) -> dict:
    if isinstance(value, dict):
        return value
    try:
        obj = json.loads(value)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--params is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("--params must be a JSON object")
    return obj


def _parse_now(value) -> float:
    if isinstance(value, (int, float)):
        return float(value)
    try:
        return parse_rfc3339(value)
    except StanceError as exc:
        raise ConfigError(f"bad --now timestamp: {exc}") from exc


def _require_int(value, name: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return value


def _existing_file(value, flag: str) -> Path:
    if value is None:
        raise ConfigError(f"missing required setting {flag}")
    p = Path(value)
    if not p.is_file():
        raise ConfigError(f"{flag} file not found: {p}")
    return p


def _resolve_bundle_path(ns: argparse.Namespace, file_cfg: dict) -> Path:
    bundle = Path(_setting(ns, file_cfg, "bundle", default_bundle_path()))
    if not bundle.is_dir():
        raise ConfigError(f"resource bundle directory not found: {bundle}")
    missing = missing_bundle_files(bundle)
    if missing:
        raise ConfigError(
            f"resource bundle {bundle} is missing {len(missing)} file(s): "
            + ", ".join(str(m) for m in missing))
    return bundle


def _resolve_run_config(ns: argparse.Namespace, file_cfg: dict) -> RunConfig:
    groups = _setting(ns, file_cfg, "feature_groups")
    params = _setting(ns, file_cfg, "classifier_params", {})
    now = _setting(ns, file_cfg, "now")
    return RunConfig(
        classifier=_setting(ns, file_cfg, "classifier", "forest"),
        params=_parse_params(params),
        groups=None if groups is None else _parse_groups(groups),
        seed=_require_int(_setting(ns, file_cfg, "seed", 0), "seed", 0),
        now=None if now is None else _parse_now(now),
        jobs=_require_int(_setting(ns, file_cfg, "jobs", 1), "jobs", 1),
    )


def _out_dir(ns: argparse.Namespace, file_cfg: dict) -> Path:
    out = _setting(ns, file_cfg, "out")
    if out is None:
        raise ConfigError("missing required setting --out")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _write_config_echo(out: Path, config: dict) -> None:
    _write(out / "resolved_config.json",
           json.dumps(config, indent=2, sort_keys=True) + "\n")


def _write_eval_report(out: Path, report) -> None:
    _write(out / "report.json", eval_report_json(report))
    _write(out / "report.txt", eval_report_text(report))
    _write_config_echo(out, report.config)


# --- commands ---------------------------------------------------------------------


def cmd_ingest(ns: argparse.Namespace, file_cfg: dict) -> int:
    raw = _existing_file(ns.input, "--input")
    out = _out_dir(ns, file_cfg)
    summary = ingest_file(raw, out / "normalized.jsonl", default_event=ns.event)
    _write_config_echo(out, {"command": "ingest", "input": str(raw),
                             "default_event": ns.event, **summary})
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _load_inputs(ns: argparse.Namespace, file_cfg: dict):
    dataset_path = _existing_file(_setting(ns, file_cfg, "dataset"), "--dataset")
    bundle_path = _resolve_bundle_path(ns, file_cfg)
    return load_dataset(dataset_path), load_bundle(bundle_path)


def _featurize_corpus(dataset, resources, config: RunConfig, tweets) -> tuple:
    """(dictionaries, schema, now, vectors of `tweets`) for a command that
    builds its vocabulary from the whole corpus."""
    dictionaries = corpus_dictionaries(dataset, resources)
    schema = build_schema(dictionaries, resources, config.groups)
    now = resolve_now(config.now, dataset)
    vectors = featurize(tweets, thread_index(build_threads(dataset)),
                        dictionaries, resources, schema, now)
    return dictionaries, schema, now, vectors


def cmd_featurize(ns: argparse.Namespace, file_cfg: dict) -> int:
    dataset, resources = _load_inputs(ns, file_cfg)
    config = _resolve_run_config(ns, file_cfg)
    out = _out_dir(ns, file_cfg)
    _, schema, now, vectors = _featurize_corpus(dataset, resources, config,
                                                dataset.tweets)
    write_schema_file(schema, out / "schema.tsv")
    write_vectors(vectors, out / "vectors.tsv")
    _write_config_echo(out, {
        "dataset": dataset.name,
        "bundle_hash": resources.content_hash,
        "feature_groups": sorted(schema.groups_present),
        "n_columns": len(schema.columns),
        "n_vectors": len(vectors),
        "now": now,
        "schema_fingerprint": schema.fingerprint,
    })
    print(f"wrote {len(vectors)} vectors over {len(schema.columns)} columns to {out}")
    return 0


def cmd_train(ns: argparse.Namespace, file_cfg: dict) -> int:
    dataset, resources = _load_inputs(ns, file_cfg)
    config = _resolve_run_config(ns, file_cfg)
    out = _out_dir(ns, file_cfg)
    labelled = dataset.labelled()
    if not labelled:
        raise StanceError("no labelled tweets to train on")
    dictionaries, schema, now, vectors = _featurize_corpus(
        dataset, resources, config, labelled)
    model = fit_classifier(config.classifier, vectors, schema, config.params,
                           config.seed)
    model.context.update({
        "bow_vocab": list(dictionaries.bow_vocab),
        "posng_vocab": list(dictionaries.posng_vocab),
        "provenance": list(dictionaries.provenance),
        "feature_groups": (None if config.groups is None
                           else list(config.groups)),
        "bundle_hash": resources.content_hash,
        "now": now,
        "trained_on": dataset.name,
        "seed": config.seed,
    })
    save_model(model, out / "model.json")
    _write_config_echo(out, {
        "classifier": config.classifier,
        "classifier_params": dict(sorted(config.params.items())),
        "dataset": dataset.name,
        "bundle_hash": resources.content_hash,
        "feature_groups": sorted(schema.groups_present),
        "n_training_vectors": len(vectors),
        "now": now,
        "seed": config.seed,
    })
    print(f"trained {config.classifier} on {len(vectors)} tweets -> {out / 'model.json'}")
    return 0


def _eval_protocol(ns: argparse.Namespace, file_cfg: dict) -> str:
    protocol = _setting(ns, file_cfg, "protocol", "loo_by_event")
    if protocol not in _EVAL_PROTOCOLS:
        raise ConfigError(
            f"eval-loo protocol must be one of {_EVAL_PROTOCOLS}, got {protocol!r}")
    return protocol


def cmd_eval_loo(ns: argparse.Namespace, file_cfg: dict) -> int:
    dataset, resources = _load_inputs(ns, file_cfg)
    config = _resolve_run_config(ns, file_cfg)
    protocol = _eval_protocol(ns, file_cfg)
    out = _out_dir(ns, file_cfg)
    report = run_loo(dataset, resources, config,
                     scope=protocol.removeprefix("loo_"))
    _write_eval_report(out, report)
    print(f"headline accuracy {report.headline_accuracy:.4f} "
          f"({protocol}, {len(report.per_fold)} folds) -> {out}")
    return 0


def cmd_eval_split(ns: argparse.Namespace, file_cfg: dict) -> int:
    train_path = _existing_file(_setting(ns, file_cfg, "dataset"), "--dataset")
    test_path = _existing_file(_setting(ns, file_cfg, "test_dataset"),
                               "--test-dataset")
    bundle_path = _resolve_bundle_path(ns, file_cfg)
    config = _resolve_run_config(ns, file_cfg)
    out = _out_dir(ns, file_cfg)
    report = run_split(load_dataset(train_path), load_dataset(test_path),
                       load_bundle(bundle_path), config)
    _write_eval_report(out, report)
    print(f"headline accuracy {report.headline_accuracy:.4f} (split) -> {out}")
    return 0


def cmd_ablate(ns: argparse.Namespace, file_cfg: dict) -> int:
    dataset, resources = _load_inputs(ns, file_cfg)
    config = _resolve_run_config(ns, file_cfg)
    protocol = _eval_protocol(ns, file_cfg)
    out = _out_dir(ns, file_cfg)
    removals = tuple(spec if "+" not in spec else tuple(spec.split("+"))
                     for spec in (ns.remove or ["AF"]))
    report = ablate(dataset, resources, config, removals=removals,
                    scope=protocol.removeprefix("loo_"))
    _write(out / "ablation.json", ablation_report_json(report))
    _write(out / "ablation.txt", ablation_report_text(report))
    _write_config_echo(out, report.baseline.config)
    drops = ", ".join(f"{row['removed']}: {row['delta'] * 100:+.2f}"
                      for row in report.rows)
    print(f"baseline {report.baseline.headline_accuracy:.4f}; deltas in points: {drops}")
    print(f"reports -> {out}")
    return 0


def cmd_predict(ns: argparse.Namespace, file_cfg: dict) -> int:
    model_path = _existing_file(ns.model, "--model")
    input_path = _existing_file(ns.input, "--input")
    bundle_path = _resolve_bundle_path(ns, file_cfg)
    model = load_model(model_path)
    resources = load_bundle(bundle_path)
    context = model.context
    stored_hash = context.get("bundle_hash")
    if stored_hash is not None and stored_hash != resources.content_hash:
        raise StanceError(
            "model was trained against a different resource bundle "
            f"(stored hash {stored_hash}, loaded {resources.content_hash})")
    dictionaries = FeatureDictionaries(
        bow_vocab={w: i for i, w in enumerate(context.get("bow_vocab", ()))},
        posng_vocab={g: i for i, g in enumerate(context.get("posng_vocab", ()))},
        provenance=tuple(context.get("provenance", ())),
    )
    groups = context.get("feature_groups")
    schema = build_schema(dictionaries, resources,
                          None if groups is None else tuple(groups))
    if schema.fingerprint != model.schema_fingerprint:
        raise StanceError(
            "rebuilt feature schema does not match the model "
            f"(model {model.schema_fingerprint}, rebuilt {schema.fingerprint})")
    if model.n_features != len(schema):
        raise StanceError(
            f"model has {model.n_features} columns but its feature schema "
            f"has {len(schema)}")
    dataset = load_dataset(input_path)
    now = float(resolve_now(context.get("now"), dataset))
    vectors = featurize(dataset.tweets, thread_index(build_threads(dataset)),
                        dictionaries, resources, schema, now)
    lines = []
    for tweet, (label, scores) in zip(dataset.tweets,
                                      predict_many(model, vectors)):
        cells = " ".join(f"{name}:{value:.6f}" for name, value in scores.items())
        lines.append(f"{tweet.tweet_id}\t{label}\t{cells}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if ns.out is not None:
        out = Path(ns.out)
        out.mkdir(parents=True, exist_ok=True)
        _write(out / "predictions.tsv", text)
    return 0


# --- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stance",
        description="Stance classification experiments over rumour threads.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override it")
    common.add_argument("--out", help="output directory for artifacts")

    experiment = argparse.ArgumentParser(add_help=False, parents=[common])
    experiment.add_argument("--dataset", help="normalized JSONL corpus")
    experiment.add_argument("--bundle", help="resource bundle directory "
                                             "(default: built-in)")
    experiment.add_argument("--classifier", choices=tuple(LEARNERS))
    experiment.add_argument("--params", dest="classifier_params",
                            help="classifier parameters as a JSON object")
    experiment.add_argument("--groups", dest="feature_groups",
                            help="comma-separated feature groups to keep")
    experiment.add_argument("--seed", type=int)
    experiment.add_argument("--jobs", type=int)
    experiment.add_argument("--now", help="reference RFC3339 time for user "
                                          "account ages")

    p = sub.add_parser("ingest", parents=[common],
                       help="normalize a raw tweet export")
    p.add_argument("--input", required=True, help="raw JSONL export")
    p.add_argument("--event", default="unknown",
                   help="event id for records that lack one")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("featurize", parents=[experiment],
                       help="write schema and sparse vectors")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", parents=[experiment],
                       help="fit one classifier on a full corpus")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval-loo", parents=[experiment],
                       help="leave-one-rumour-out evaluation")
    p.add_argument("--protocol", choices=_EVAL_PROTOCOLS)
    p.set_defaults(func=cmd_eval_loo)

    p = sub.add_parser("eval-split", parents=[experiment],
                       help="fixed train/test split evaluation")
    p.add_argument("--test-dataset", dest="test_dataset",
                   help="normalized JSONL test corpus")
    p.set_defaults(func=cmd_eval_split)

    p = sub.add_parser("ablate", parents=[experiment],
                       help="re-run evaluation with feature groups removed")
    p.add_argument("--protocol", choices=_EVAL_PROTOCOLS)
    p.add_argument("--remove", action="append",
                   help="feature group, AF for all confidence groups, or "
                        "G1+G2 to drop several at once; repeatable")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("predict", parents=[common],
                       help="label tweets with a trained model")
    p.add_argument("--model", required=True, help="model.json from train")
    p.add_argument("--input", required=True, help="normalized JSONL corpus")
    p.add_argument("--bundle", help="resource bundle directory "
                                    "(default: built-in)")
    p.set_defaults(func=cmd_predict)

    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        file_cfg = _read_config_file(ns.config) if ns.config else {}
        return ns.func(ns, file_cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
