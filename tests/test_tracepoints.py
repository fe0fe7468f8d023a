"""The benchmark's trace points still name functions the pipeline calls."""
from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracepoints  # noqa: E402
from spans import SpanRecorder  # noqa: E402

from rumourstance.evaluation import RunConfig, make_loo_folds, run_loo  # noqa: E402


def test_every_trace_point_is_present_and_loo_records_one_span_per_fold(micro, bundle):
    recorder = SpanRecorder()
    try:
        absent = tracepoints.install(recorder, tracepoints.TRACE_POINTS)
        report = run_loo(micro, bundle, RunConfig(classifier="knn", params={"k": 3}))
    finally:
        recorder.restore()
    assert absent == []
    folds = len(make_loo_folds(micro))
    assert len(report.per_fold) == folds
    counts = Counter(span.name for span in recorder.spans)
    for name in ("learners.fit", "learners.predict", "evaluation.fold"):
        assert counts[name] == folds, name
