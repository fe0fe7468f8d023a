"""BENCHMARK.json names exactly the metrics and workloads the runner
reports."""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import tracepoints  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_per_layer_metrics_match():
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == \
        tracepoints.PER_LAYER_UNITS


def test_end_to_end_metrics_match():
    passes = [{"wall_s": 1.0, "cpu_s": 1.0, "rss_mb": 1.0, "attempted": 1,
               "failed": 0, "accuracy": 0.5}]
    reported = run.end_to_end(passes, [{"setup_s": 0.1}])
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == \
        {name: unit for name, (_, unit) in reported.items()}
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
