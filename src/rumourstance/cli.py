"""Command line front end for the stance classification pipeline.

Every experiment setting can live in a JSON config file (--config) or be
given as a flag; flags win, and `main` merges the two into one settings dict
that is all a command reads. A command checks every setting it reads before
it reads any input, and creates --out only once its inputs have loaded; a
failed run removes the --out directories it created and left empty.
Commands that produce artifacts write them into
--out together with resolved_config.json, the fully materialized settings
actually used, so a run can be reproduced from its output directory alone.

Each command imports the pipeline modules it runs only when it runs, so
`ingest`, `--help` and the settings checks start without numpy.

Exit codes: 0 success, 1 runtime failure (bad data, model mismatch),
2 invalid configuration (unknown settings, missing files).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .bundled import default_bundle_path
from .corpus import is_finite_number, is_strings, load_dataset, parse_rfc3339
from .errors import ConfigError, ModelError, StanceError

CONFIG_KEYS = frozenset({
    "dataset", "test_dataset", "bundle", "classifier", "classifier_params",
    "feature_groups", "protocol", "seed", "jobs", "now", "out",
})

_EVAL_PROTOCOLS = ("loo_by_event", "loo_global")


def __getattr__(name: str):
    """`cli.assemble` is `features.assemble`, read on each access, so that
    the benchmark tracer test sees the wrapper the tracer installs there."""
    if name != "assemble":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import features
    return getattr(features, name)


# (what it must be, test) for each config-file value whose type no later
# step checks; a null value counts as absent
_CONFIG_TYPES = {
    **{key: ("a string", lambda v: isinstance(v, str))
       for key in ("dataset", "test_dataset", "bundle", "out", "classifier")},
    "classifier_params": ("an object or a JSON string",
                          lambda v: isinstance(v, (dict, str))),
    "feature_groups": ("a string or a list of strings",
                       lambda v: isinstance(v, str) or is_strings(v)),
    "now": ("a number or an RFC 3339 string",
            lambda v: isinstance(v, str) or is_finite_number(v)),
}


def _read_config_file(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        obj = json.loads(p.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(obj) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for key, value in obj.items():
        if value is not None and key in _CONFIG_TYPES:
            expected, ok = _CONFIG_TYPES[key]
            if not ok(value):
                raise ConfigError(f"config key {key} must be {expected}, got {value!r}")
    return obj


def _parse_groups(value) -> tuple:
    if isinstance(value, str):
        value = [g.strip() for g in value.split(",") if g.strip()]
    return tuple(value)


def _parse_params(value) -> dict:
    if isinstance(value, dict):
        return value
    try:
        obj = json.loads(value)
    except (ValueError, RecursionError) as exc:
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


def _required(settings: dict, key: str):
    if key not in settings:
        raise ConfigError(f"missing required setting --{key.replace('_', '-')}")
    return settings[key]


def _existing_file(settings: dict, key: str) -> Path:
    path = Path(_required(settings, key))
    if not path.is_file():
        raise ConfigError(f"--{key.replace('_', '-')} file not found: {path}")
    return path


def _bundle_path(settings: dict) -> Path:
    from .resources import missing_bundle_files
    bundle = Path(settings.get("bundle", default_bundle_path()))
    if not bundle.is_dir():
        raise ConfigError(f"resource bundle directory not found: {bundle}")
    missing = missing_bundle_files(bundle)
    if missing:
        raise ConfigError(
            f"resource bundle {bundle} is missing {len(missing)} file(s): "
            + ", ".join(str(m) for m in missing))
    return bundle


def _loo_scope(settings: dict) -> str:
    protocol = settings.get("protocol", "loo_by_event")
    if protocol not in _EVAL_PROTOCOLS:
        raise ConfigError(
            f"eval-loo protocol must be one of {_EVAL_PROTOCOLS}, got {protocol!r}")
    return protocol.removeprefix("loo_")


def _run_config(settings: dict):
    from .evaluation import RunConfig
    groups = settings.get("feature_groups")
    now = settings.get("now")
    # checked so that saved configs stay valid, but folds always run serially
    _require_int(settings.get("jobs", 1), "jobs", 1)
    return RunConfig(
        classifier=settings.get("classifier", "forest"),
        params=_parse_params(settings.get("classifier_params", {})),
        groups=None if groups is None else _parse_groups(groups),
        seed=settings.get("seed", 0),
        now=None if now is None else _parse_now(now),
    )


def _make_dir(out) -> Path:
    try:
        Path(out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc.strerror}") from None
    return Path(out)


def _start_run(settings: dict, datasets=("dataset",), loo: bool = False) -> tuple:
    """(run config, LOO scope or None, resource bundle, out directory,
    *datasets) of an experiment command. It checks every setting the
    command reads first: the input paths, the LOO protocol when `loo`, each
    --remove spec, --out and the run config, whose params (exit 1) come
    last. It then loads the inputs, and only then creates --out, so that a
    run stopped by a setting or an input leaves no directory behind."""
    from .evaluation import expand_removal
    from .resources import load_bundle
    paths = [_existing_file(settings, key) for key in datasets]
    bundle_path = _bundle_path(settings)
    scope = _loo_scope(settings) if loo else None
    for spec in settings.get("remove", ()):
        expand_removal(spec)
    out = _required(settings, "out")
    config = _run_config(settings)
    loaded = [load_dataset(path) for path in paths]
    resources = load_bundle(bundle_path)
    return config, scope, resources, _make_dir(out), *loaded


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _write_config_echo(out: Path, config: dict) -> None:
    _write(out / "resolved_config.json",
           json.dumps(config, indent=2, sort_keys=True) + "\n")


def _write_eval_report(out: Path, report) -> None:
    from .reports import eval_report_json, eval_report_text
    _write(out / "report.json", eval_report_json(report))
    _write(out / "report.txt", eval_report_text(report))
    _write_config_echo(out, report.config)


# --- commands ---------------------------------------------------------------------


def cmd_ingest(settings: dict) -> int:
    from .ingest import ingest_file
    raw = _existing_file(settings, "input")
    out = _make_dir(_required(settings, "out"))
    summary = ingest_file(raw, out / "normalized.jsonl", default_event=settings["event"])
    _write_config_echo(out, {"command": "ingest", "input": str(raw),
                             "default_event": settings["event"], **summary})
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_featurize(settings: dict) -> int:
    from .features import featurize_corpus, resolve_now, write_schema_file, write_vectors
    config, _, resources, out, dataset = _start_run(settings)
    now = resolve_now(config.now, dataset)
    dictionaries, schema, analyses = featurize_corpus(dataset, resources, config.groups, now)
    write_schema_file(schema, out / "schema.tsv")
    write_vectors(analyses, dictionaries, schema, out / "vectors.tsv")
    _write_config_echo(out, {
        "dataset": dataset.name,
        "bundle_hash": resources.content_hash,
        "feature_groups": sorted(schema.groups_present),
        "n_columns": len(schema.columns),
        "n_vectors": len(analyses),
        "now": now,
        "schema_fingerprint": schema.fingerprint,
    })
    print(f"wrote {len(analyses)} vectors over {len(schema.columns)} columns to {out}")
    return 0


def cmd_train(settings: dict) -> int:
    from .evaluation import train_model
    from .features import resolve_now
    from .learners.io import save_model
    config, _, resources, out, dataset = _start_run(settings)
    now = resolve_now(config.now, dataset)
    model, schema, n_trained = train_model(dataset, resources, config, now, config.seed)
    save_model(model, out / "model.json")
    _write_config_echo(out, {
        "classifier": config.classifier,
        "classifier_params": dict(sorted(config.params.items())),
        "dataset": dataset.name,
        "bundle_hash": resources.content_hash,
        "feature_groups": sorted(schema.groups_present),
        "n_training_vectors": n_trained,
        "now": now,
        "seed": config.seed,
    })
    print(f"trained {config.classifier} on {n_trained} tweets -> {out / 'model.json'}")
    return 0


def cmd_eval_loo(settings: dict) -> int:
    from .evaluation import run_loo
    config, scope, resources, out, dataset = _start_run(settings, loo=True)
    report = run_loo(dataset, resources, config, scope=scope)
    _write_eval_report(out, report)
    print(f"headline accuracy {report.headline_accuracy:.4f} "
          f"(loo_{scope}, {len(report.per_fold)} folds) -> {out}")
    return 0


def cmd_eval_split(settings: dict) -> int:
    from .evaluation import run_split
    config, _, resources, out, train, test = _start_run(
        settings, ("dataset", "test_dataset"))
    report = run_split(train, test, resources, config)
    _write_eval_report(out, report)
    print(f"headline accuracy {report.headline_accuracy:.4f} (split) -> {out}")
    return 0


def cmd_ablate(settings: dict) -> int:
    from .evaluation import ablate
    from .reports import ablation_report_json, ablation_report_text
    config, scope, resources, out, dataset = _start_run(settings, loo=True)
    report = ablate(dataset, resources, config,
                    removals=settings.get("remove", ("AF",)), scope=scope)
    _write(out / "ablation.json", ablation_report_json(report))
    _write(out / "ablation.txt", ablation_report_text(report))
    _write_config_echo(out, report.baseline.config)
    drops = ", ".join(f"{row['removed']}: {row['delta'] * 100:+.2f}"
                      for row in report.rows)
    print(f"baseline {report.baseline.headline_accuracy:.4f}; deltas in points: {drops}")
    print(f"reports -> {out}")
    return 0


def cmd_predict(settings: dict) -> int:
    from .evaluation import label_tweets
    from .learners.base import CLASS_NAMES
    from .learners.io import load_model
    from .resources import load_bundle
    model_path = _existing_file(settings, "model")
    input_path = _existing_file(settings, "input")
    bundle_path = _bundle_path(settings)
    model = load_model(model_path)
    resources = load_bundle(bundle_path)
    dataset = load_dataset(input_path)
    try:
        scores = label_tweets(model, dataset, resources)
    except ModelError as exc:
        raise ModelError(f"{model_path}: {exc}") from None
    lines = []
    for tweet, label, row in zip(dataset.tweets, scores.argmax(1), scores.tolist()):
        cells = " ".join(f"{name}:{value:.6f}" for name, value in zip(CLASS_NAMES, row))
        lines.append(f"{tweet.tweet_id}\t{CLASS_NAMES[label]}\t{cells}\n")
    text = "".join(lines)
    if "out" in settings:
        _write(_make_dir(settings["out"]) / "predictions.tsv", text)
    sys.stdout.write(text)
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
    experiment.add_argument("--classifier", help="tree, forest (default) or knn")
    experiment.add_argument("--params", dest="classifier_params",
                            help="classifier parameters as a JSON object")
    experiment.add_argument("--groups", dest="feature_groups",
                            help="comma-separated feature groups to keep")
    experiment.add_argument("--seed", type=int)
    experiment.add_argument("--jobs", type=int,
                            help="accepted for compatibility (an integer >= 1); "
                                 "folds always run one after another")
    experiment.add_argument("--now", help="reference RFC3339 time for user "
                                          "account ages")

    p = sub.add_parser("ingest", parents=[common],
                       help="normalize a raw tweet export")
    p.add_argument("--input", required=True, help="raw JSONL export")
    p.add_argument("--event", default="unknown",
                   help="event id for records that lack one and whose rumour "
                        "names none")
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
    """Run one command; a failed run removes the --out directory, and each
    parent of it, that it created and left empty."""
    ns = build_parser().parse_args(argv)
    created = []
    try:
        file_cfg = _read_config_file(ns.config) if ns.config else {}
        # the config file's values under the flags, null meaning absent in both
        settings = {key: value for source in (file_cfg, vars(ns))
                    for key, value in source.items() if value is not None}
        if "out" in settings:
            out = Path(settings["out"])
            created = [path for path in (out, *out.parents) if not os.path.lexists(path)]
        return ns.func(settings)
    except StanceError as exc:
        for path in created:  # deepest first
            if not os.path.isdir(path) or os.listdir(path):
                break
            os.rmdir(path)
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
