"""In-memory span recorder for the traced benchmark run.

The recorder replaces functions by timing wrappers at the module attributes
their callers look them up through, and puts the originals back in
`restore`. Each span keeps its thread id and the span that caused it: the
innermost open span of the same thread or, for a thread with no open span
(a pool worker), the innermost open span of the thread that created the
recorder, which is the one waiting on the pool.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    thread: int
    parent: Optional[int]
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "thread": self.thread, "parent": self.parent,
                "attrs": self.attrs}


class SpanRecorder:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self._lock = threading.Lock()
        self._stacks: dict = {}
        self._root_thread = threading.get_ident()
        self._patches: list = []

    def _open(self, name: str) -> int:
        thread = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(thread, [])
            if stack:
                parent = stack[-1]
            else:
                root = self._stacks.get(self._root_thread)
                parent = root[-1] if root else None
            index = len(self.spans)
            self.spans.append(Span(name, self.clock(), 0.0, thread, parent))
            stack.append(index)
        return index

    def _close(self, index: int) -> Span:
        end = self.clock()
        with self._lock:
            self._stacks[threading.get_ident()].pop()
            span = self.spans[index]
        span.end = end
        return span

    def wrapper(self, name: str, func: Callable,
                inspect: Optional[Callable] = None, cpu: bool = False) -> Callable:
        """`func` timed as span `name`. `inspect(span, args, kwargs, result)`
        may add attributes after the span has ended; with `cpu`, the span
        also records the process CPU seconds spent inside it."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            cpu_start = time.process_time() if cpu else 0.0
            index = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                span = self._close(index)
                if cpu:
                    span.attrs["cpu_s"] = time.process_time() - cpu_start
            if inspect is not None:
                inspect(span, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans) -> list:
    """Per span: its duration minus the part of its interval covered by
    its child spans (overlapping children, as from parallel workers, count
    once). `spans` are Span objects or their dicts, parents by index."""
    spans = [s if isinstance(s, Span) else Span(**s) for s in spans]
    children: dict = {}
    for i, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(i)
    out = []
    for i, span in enumerate(spans):
        intervals = sorted((max(spans[c].start, span.start),
                            min(spans[c].end, span.end))
                           for c in children.get(i, ()))
        covered = 0.0
        reach = span.start
        for start, end in intervals:
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out
