"""Versioned JSON model container."""

from __future__ import annotations

import json

from ..corpus import is_int
from ..errors import ModelError
from .base import CLASS_NAMES, TrainedModel
from .table import LEARNERS

MODEL_MAGIC = "STANCEMODEL"
MODEL_VERSION = 1

_REQUIRED_KEYS = ("magic", "version", "kind", "schema_fingerprint",
                  "n_features", "classes", "payload")


def save_model(model: TrainedModel, path) -> None:
    container = {
        "magic": MODEL_MAGIC,
        "version": MODEL_VERSION,
        "kind": model.kind,
        "schema_fingerprint": model.schema_fingerprint,
        "n_features": model.n_features,
        "classes": list(CLASS_NAMES),
        "payload": LEARNERS[model.kind].encode(model.payload),
        "context": model.context,
    }
    # json.dumps runs the C encoder; json.dump always runs the Python one
    text = json.dumps(container, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_model(path) -> TrainedModel:
    try:
        with open(path, encoding="utf-8") as fh:
            container = json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise ModelError(f"{path}: corrupted model file: {exc}") from None
    except OSError as exc:
        raise ModelError(f"{path}: cannot read model file: {exc}") from None
    if not isinstance(container, dict):
        raise ModelError(f"{path}: corrupted model file: not an object")
    if container.get("magic") != MODEL_MAGIC:
        raise ModelError(f"{path}: not a stance model file")
    if container.get("version") != MODEL_VERSION:
        raise ModelError(
            f"{path}: unsupported model version {container.get('version')!r}; "
            f"this build reads version {MODEL_VERSION}")
    missing = [key for key in _REQUIRED_KEYS if key not in container]
    if missing:
        raise ModelError(f"{path}: corrupted model file: missing {missing}")
    kind = container["kind"]
    if not isinstance(kind, str) or kind not in LEARNERS:
        raise ModelError(f"{path}: unknown model kind {kind!r}")
    fingerprint, n_features = container["schema_fingerprint"], container["n_features"]
    payload, context = container["payload"], container.get("context", {})
    for ok, problem in (
            (is_int(fingerprint), "schema_fingerprint is not an integer"),
            (is_int(n_features) and n_features >= 0, f"bad n_features {n_features!r}"),
            (container["classes"] == list(CLASS_NAMES), f"classes are not {list(CLASS_NAMES)}"),
            (isinstance(payload, dict), "payload is not an object"),
            (isinstance(context, dict), "context is not an object")):
        if not ok:
            raise ModelError(f"{path}: corrupted model file: {problem}")
    try:
        payload = LEARNERS[kind].load(payload, n_features)
    except ModelError as exc:
        raise ModelError(f"{path}: corrupted {kind} model: {exc}") from None
    return TrainedModel(
        kind=kind,
        schema_fingerprint=fingerprint,
        n_features=n_features,
        payload=payload,
        context=context,
    )
