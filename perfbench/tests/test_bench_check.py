"""The benchmark's correctness check compares prediction-bearing outputs
with the reference digests and ignores additive report fields."""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from workloads import WORKLOADS, check, output_digest  # noqa: E402

REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "reference.json").read_text())


def _command(workload: str, name: str):
    return next(c for c in WORKLOADS[workload] if c.name == name)


def test_tampered_prediction_file_fails(tmp_path):
    command = _command("label-export", "predict-knn")
    pred = tmp_path / "pred-knn"
    pred.mkdir()
    lines = ["x-t000\tsupport\tsupport:1.0", "x-t001\tcomment\tcomment:1.0"]
    (pred / "predictions.tsv").write_text("\n".join(lines) + "\n")
    reference = output_digest(command, tmp_path)
    assert check(command, 0, tmp_path, reference) is None
    assert check(command, 1, tmp_path, reference) == "exit code 1"

    (pred / "predictions.tsv").write_text(
        "\n".join(lines).replace("x-t001\tcomment", "x-t001\tdeny") + "\n")
    assert "differs from reference" in check(command, 0, tmp_path, reference)

    (pred / "predictions.tsv").unlink()
    assert "unreadable output" in check(command, 0, tmp_path, reference)


def test_loo_check_ignores_added_fields_but_not_changed_counts(tmp_path):
    command = _command("loo-knn-j2", "eval-loo")
    loo = tmp_path / "loo"
    loo.mkdir()
    report = {
        "per_fold": [{"fold_id": "e/r1", "n_test": 4, "n_correct": 3,
                      "accuracy": 0.75}],
        "confusion": [[1, 0], [1, 2]],
        "headline_accuracy": 0.75,
    }
    (loo / "report.json").write_text(json.dumps(report))
    reference = output_digest(command, tmp_path)

    report["timings"] = {"fit_s": 0.1}
    (loo / "report.json").write_text(json.dumps(report))
    assert check(command, 0, tmp_path, reference) is None

    report["per_fold"][0]["n_correct"] = 4
    (loo / "report.json").write_text(json.dumps(report))
    assert check(command, 0, tmp_path, reference) is not None


def test_jobs_two_workload_is_checked_against_serial_output():
    command = _command("loo-knn-j2", "eval-loo")
    paths = {"corpus": "c.jsonl", "export": "e.jsonl", "out": "o"}
    assert command.argv(paths)[command.argv(paths).index("--jobs") + 1] == "2"
    serial = command.argv(paths, reference=True)
    assert serial[serial.index("--jobs") + 1] == "1"


def test_recorded_predictions_differ_across_variants():
    # the export's tweet ids are the same in every variant, so a shared
    # digest would mean labels that do not depend on the generated text
    for name in ("predict-tree", "predict-knn"):
        digests = REFERENCE["label-export"][name]
        assert len(set(digests)) == len(digests), name
