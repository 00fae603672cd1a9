"""The suite's own span recorder: timings taken from outside the program.

A span is ``(name, start, end, parent)``.  The suite opens one around each
call it makes into a layer of the system, so the per-layer numbers never
depend on instrumentation inside ``src/``.  Spans stay in memory until the
run ends; :meth:`SpanRecorder.write` then dumps one Chrome ``trace_event``
file.  A layer's *self time* is its span minus the part its children cover.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple, TypeVar

T = TypeVar("T")


@dataclass
class Span:
    span_id: int
    name: str
    parent_id: Optional[int]
    thread: int
    start_ns: int
    end_ns: int = 0

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class SpanRecorder:
    """Nested spans per thread, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._stack = threading.local()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack: List[Span] = getattr(self._stack, "open", None)
        if stack is None:
            stack = self._stack.open = []
        with self._lock:
            span = Span(
                span_id=len(self.spans),
                name=name,
                parent_id=stack[-1].span_id if stack else None,
                thread=threading.get_ident(),
                start_ns=0,
            )
            self.spans.append(span)
        stack.append(span)
        span.start_ns = time.perf_counter_ns()
        try:
            yield span
        finally:
            span.end_ns = time.perf_counter_ns()
            stack.pop()

    def durations(self, name: str) -> List[float]:
        """Seconds of every finished span called *name*, in start order."""
        return [span.seconds for span in self.spans if span.name == name]

    def children_of(self, parent: Span) -> List[Span]:
        return [span for span in self.spans if span.parent_id == parent.span_id]

    def self_seconds(self, span: Span) -> float:
        """The span's duration minus what its direct children cover."""
        return span.seconds - sum(child.seconds for child in self.children_of(span))

    def chrome_trace(self) -> Dict:
        """Complete (``"X"``) events, microsecond timestamps, one lane per thread."""
        lanes: Dict[int, int] = {}
        events = []
        for span in self.spans:
            lane = lanes.setdefault(span.thread, len(lanes))
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "pid": 1,
                    "tid": lane,
                    "ts": span.start_ns / 1000.0,
                    "dur": (span.end_ns - span.start_ns) / 1000.0,
                    "args": {"span_id": span.span_id, "parent_id": span.parent_id},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_trace()) + "\n")


def clock(call: Callable[[], T]) -> Tuple[T, float]:
    """Run *call* between two clock reads; returns ``(value, seconds)``.

    This is how every end-to-end number is taken: nothing else surrounds
    the call.
    """
    begin = time.perf_counter()
    value = call()
    return value, time.perf_counter() - begin


def timed(
    recorder: Optional[SpanRecorder], name: str, call: Callable[[], T]
) -> Tuple[T, float]:
    """:func:`clock` when *recorder* is None, else a span called *name*."""
    if recorder is None:
        return clock(call)
    with recorder.span(name) as span:
        value = call()
    return value, span.seconds
