"""The span recorder of the traced run: self time, thread parents,
restoring wrapped functions, and absent trace points."""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import tracepoints  # noqa: E402
from spans import SpanRecorder, self_times  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_children_and_wrappers_restore():
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    mod = types.SimpleNamespace()

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        mod.inner()
        clock.now += 0.5
        mod.inner()

    mod.inner, mod.outer = inner, outer
    recorder.patch(mod, "inner", recorder.wrapper("inner", inner))
    recorder.patch(mod, "outer", recorder.wrapper("outer", outer))
    mod.outer()
    recorder.restore()
    assert mod.inner is inner and mod.outer is outer

    names = [s.name for s in recorder.spans]
    assert names == ["outer", "inner", "inner"]
    assert [s.parent for s in recorder.spans] == [None, 0, 0]
    assert self_times(recorder.spans) == pytest.approx([1.5, 2.0, 2.0])


def test_overlapping_children_count_once():
    spans = [
        {"name": "p", "start": 0.0, "end": 10.0, "thread": 1, "parent": None},
        {"name": "a", "start": 1.0, "end": 5.0, "thread": 2, "parent": 0},
        {"name": "b", "start": 3.0, "end": 7.0, "thread": 3, "parent": 0},
        {"name": "c", "start": 9.0, "end": 12.0, "thread": 2, "parent": 0},
    ]
    # children cover [1, 7] and [9, 10] of the parent
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_worker_thread_spans_hang_under_the_waiting_span():
    recorder = SpanRecorder()

    def work():
        pass

    traced_work = recorder.wrapper("work", work)

    def dispatch():
        worker = threading.Thread(target=traced_work)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    recorder.wrapper("dispatch", dispatch)()
    dispatch_span, work_span = recorder.spans
    assert work_span.parent == 0
    assert work_span.thread != dispatch_span.thread


def test_install_wraps_every_binding_and_reports_absent_points():
    import rumourstance.cli
    import rumourstance.evaluation
    import rumourstance.features

    original = rumourstance.features.assemble
    recorder = SpanRecorder()
    points = (
        ("features.assemble", "rumourstance.features", "assemble", None, False),
        ("gone", "rumourstance.features", "no_such_function", None, False),
        ("gone", "rumourstance.no_such_module", "f", None, False),
    )
    absent = tracepoints.install(recorder, points)
    try:
        assert absent == ["rumourstance.features.no_such_function",
                          "rumourstance.no_such_module.f"]
        for module in (rumourstance.features, rumourstance.evaluation,
                       rumourstance.cli):
            assert module.assemble is not original
            assert module.assemble.__wrapped__ is original
    finally:
        recorder.restore()
    for module in (rumourstance.features, rumourstance.evaluation, rumourstance.cli):
        assert module.assemble is original


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tracepoints.tail_percentile(19) == 0
    assert tracepoints.tail_percentile(20) == 50
    assert tracepoints.tail_percentile(100) == 90
    assert tracepoints.tail_percentile(50) == 80
