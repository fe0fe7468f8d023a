"""The benchmark workloads as `stance` command lines, and the check of each
command's prediction-bearing output against the recorded reference.

Only outputs that carry predictions are compared, not whole report files,
so fields added to a report later do not fail the check:
per-fold counts and the pooled confusion matrix of `eval-loo`, the per-fold
accuracies of each `ablate` row, the normalized records of `ingest`, and
the predicted labels of `predict`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional


@dataclass(frozen=True)
class Command:
    name: str
    args: tuple              # `stance` arguments; {corpus}, {export}, {out} filled in
    outputs: Optional[Callable] = None   # out dir -> prediction-bearing data
    reference_args: Optional[tuple] = None   # arguments the reference was recorded with

    def argv(self, paths: dict, reference: bool = False) -> list:
        args = self.reference_args if reference and self.reference_args else self.args
        return [arg.format(**paths) for arg in args]


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def loo_outputs(out: Path) -> dict:
    report = _read_json(out / "report.json")
    return {
        "per_fold": [[f["fold_id"], f["n_test"], f["n_correct"]]
                     for f in report["per_fold"]],
        "confusion": report["confusion"],
    }


def ablation_outputs(out: Path) -> dict:
    report = _read_json(out / "ablation.json")
    return {
        "baseline_accuracy": report["baseline_accuracy"],
        "rows": [[row["removed"], row["per_fold_accuracy"]]
                 for row in report["rows"]],
    }


def ingest_outputs(out: Path) -> list:
    rows = []
    with (out / "normalized.jsonl").open(encoding="utf-8") as fh:
        for line in fh:
            r = json.loads(line)
            rows.append([r["tweet_id"], r["rumour_id"], r["in_reply_to"],
                         r["event_id"], r["label"]])
    return rows


def predicted_labels(out: Path) -> list:
    with (out / "predictions.tsv").open(encoding="utf-8") as fh:
        return [line.split("\t")[:2] for line in fh if line.strip()]


def accuracy(workload: str, out: Path, gold: dict) -> float:
    """The headline accuracy of one pass: from the report for the LOO
    workloads, and for label-export the share of predicted labels, over
    both models, that match the generated labels."""
    if workload == "ablate-forest":
        return _read_json(out / "ablate" / "ablation.json")["baseline_accuracy"]
    if workload == "loo-knn-j2":
        return _read_json(out / "loo" / "report.json")["headline_accuracy"]
    pairs = predicted_labels(out / "pred-tree") + predicted_labels(out / "pred-knn")
    return sum(gold[tweet] == label for tweet, label in pairs) / len(pairs)


WORKLOADS = {
    "ablate-forest": (
        Command("ablate", ("ablate", "--dataset", "{corpus}", "--classifier",
                           "forest", "--remove", "AF", "--seed", "1",
                           "--jobs", "1", "--out", "{out}/ablate"),
                outputs=lambda out: ablation_outputs(out / "ablate")),
    ),
    "loo-knn-j2": (
        Command("eval-loo", ("eval-loo", "--dataset", "{corpus}", "--classifier",
                             "knn", "--seed", "1", "--jobs", "2",
                             "--out", "{out}/loo"),
                outputs=lambda out: loo_outputs(out / "loo"),
                reference_args=("eval-loo", "--dataset", "{corpus}",
                                "--classifier", "knn", "--seed", "1",
                                "--jobs", "1", "--out", "{out}/loo")),
    ),
    "label-export": (
        Command("ingest", ("ingest", "--input", "{export}",
                           "--out", "{out}/ingest"),
                outputs=lambda out: ingest_outputs(out / "ingest")),
        Command("train-tree", ("train", "--dataset", "{corpus}", "--classifier",
                               "tree", "--seed", "1", "--out", "{out}/tree")),
        Command("train-knn", ("train", "--dataset", "{corpus}", "--classifier",
                              "knn", "--seed", "1", "--out", "{out}/knn")),
        Command("predict-tree", ("predict", "--model", "{out}/tree/model.json",
                                 "--input", "{out}/ingest/normalized.jsonl",
                                 "--out", "{out}/pred-tree"),
                outputs=lambda out: predicted_labels(out / "pred-tree")),
        Command("predict-knn", ("predict", "--model", "{out}/knn/model.json",
                                "--input", "{out}/ingest/normalized.jsonl",
                                "--out", "{out}/pred-knn"),
                outputs=lambda out: predicted_labels(out / "pred-knn")),
    ),
}


def digest(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def output_digest(command: Command, out: Path) -> Optional[str]:
    """Digest of the command's prediction-bearing output, or None for a
    command that has none (its check is its exit code)."""
    if command.outputs is None:
        return None
    return digest(command.outputs(out))


def check(command: Command, exit_code: int, out: Path,
          expected: Optional[str]) -> Optional[str]:
    """None when the command passed; otherwise why it failed."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        found = output_digest(command, out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
    if found != expected:
        return f"output digest {found} differs from reference {expected}"
    return None
