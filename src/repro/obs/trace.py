"""A zero-dependency structured tracer: nested spans, monotonic timings.

The tracer answers "*where* did the sweep spend its time" without touching
the simulation's accounting: opening a span records a monotonic start
timestamp, closing it records the end, and the parent/child relationship is
kept per thread so worker-thread instrumentation nests correctly.  Nothing
here charges I/O or influences control flow -- the property suite asserts
the whole run is bit-identical with tracing on or off.

Design points:

* **Typed attributes.**  Span attributes and event payloads accept only
  JSON-representable scalars (``str``/``int``/``float``/``bool``/``None``);
  anything else is stored as its ``repr`` so an exporter can never fail on
  an exotic value.
* **Thread safety.**  The per-thread span stack lives in ``threading.local``
  (each thread nests independently); the finished-span list is guarded by a
  lock.  Tracers are never shipped to worker *processes*, but a defensive
  ``__getstate__`` drops the unpicklable machinery anyway.
* **Leak accounting.**  Every live tracer registers in a module-level weak
  set; :func:`open_span_leaks` reports tracers holding unclosed spans, and
  the test suite fails the build from a teardown fixture when any remain.
* **Exporters.**  :meth:`Tracer.export_jsonl` emits one JSON object per
  finished span; :meth:`Tracer.chrome_trace` emits the Chrome
  ``trace_event`` format (complete ``"X"`` events, microsecond timestamps,
  one ``tid`` lane per distinct span ``lane`` -- main sweep, prefetch
  stage), loadable in ``chrome://tracing`` / Perfetto.
"""

from __future__ import annotations

import json
import threading
import weakref
from typing import Any, Dict, List, Optional, Tuple

#: Attribute types stored as-is; anything else is kept as its ``repr``.
_SCALARS = (str, int, float, bool, type(None))

#: Every live tracer, for the suite-wide unclosed-span leak check.
_TRACERS: "weakref.WeakSet[Tracer]" = weakref.WeakSet()


def _clean_attrs(attrs: Dict[str, Any]) -> Dict[str, Any]:
    """Coerce attribute values to JSON-representable scalars."""
    return {
        key: value if isinstance(value, _SCALARS) else repr(value)
        for key, value in attrs.items()
    }


class Span:
    """One timed, attributed operation in the trace tree."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "lane",
        "start_ns",
        "end_ns",
        "attributes",
        "events",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        lane: str,
        start_ns: int,
        attributes: Dict[str, Any],
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.lane = lane
        self.start_ns = start_ns
        self.end_ns: Optional[int] = None
        self.attributes = attributes
        self.events: List[Tuple[str, int, Dict[str, Any]]] = []

    @property
    def duration_ns(self) -> Optional[int]:
        """Span duration, or None while the span is still open."""
        if self.end_ns is None:
            return None
        return self.end_ns - self.start_ns

    def set(self, **attrs: Any) -> None:
        """Attach (or overwrite) typed attributes on the span."""
        self.attributes.update(_clean_attrs(attrs))

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "lane": self.lane,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "duration_ns": self.duration_ns,
            "attributes": dict(self.attributes),
            "events": [
                {"name": name, "at_ns": at_ns, "attributes": dict(attrs)}
                for name, at_ns, attrs in self.events
            ],
        }

    def __repr__(self) -> str:
        state = "open" if self.end_ns is None else f"{self.duration_ns}ns"
        return f"Span({self.name!r}, lane={self.lane!r}, {state})"


class Tracer:
    """Collects nested spans with monotonic timings.

    Args:
        clock: nanosecond monotonic clock (overridable for deterministic
            tests).
        max_spans: retention cap on finished spans; beyond it spans are
            timed and discarded (``dropped_spans`` counts them) so a long
            run cannot grow without bound.
    """

    def __init__(self, clock=None, max_spans: int = 100_000) -> None:
        if clock is None:
            import time

            clock = time.perf_counter_ns
        self._clock = clock
        self._max_spans = max_spans
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 1
        self.finished: List[Span] = []
        self.dropped_spans = 0
        self.orphan_events = 0
        self._open = 0
        _TRACERS.add(self)

    # -- pickling: never ship the tracer's machinery to a worker ----------------

    def __getstate__(self) -> Dict[str, Any]:
        return {"max_spans": self._max_spans}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__init__(max_spans=state.get("max_spans", 100_000))

    # -- span lifecycle -----------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    @property
    def open_spans(self) -> int:
        """Spans currently open across all threads (0 after a clean run)."""
        return self._open

    def current(self) -> Optional[Span]:
        """The innermost open span of the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def span(self, name: str, lane: Optional[str] = None, **attrs: Any) -> "_SpanContext":
        """Context manager opening a child span of the thread's current span."""
        return _SpanContext(self, name, lane, attrs)

    def _begin(self, name: str, lane: Optional[str], attrs: Dict[str, Any]) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            self._open += 1
        span = Span(
            name,
            span_id,
            parent.span_id if parent is not None else None,
            lane if lane is not None else (parent.lane if parent is not None else "main"),
            self._clock(),
            _clean_attrs(attrs),
        )
        stack.append(span)
        return span

    def _end(self, span: Span) -> None:
        span.end_ns = self._clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # out-of-order close: drop it wherever it is, never crash
            try:
                stack.remove(span)
            except ValueError:
                pass
        with self._lock:
            self._open -= 1
            if len(self.finished) < self._max_spans:
                self.finished.append(span)
            else:
                self.dropped_spans += 1

    def event(self, name: str, **attrs: Any) -> None:
        """Attach a point-in-time event to the calling thread's current span.

        Outside any span the event has nowhere to live; it is counted in
        ``orphan_events`` and dropped (never an error -- instrumentation
        must not fail the instrumented code).
        """
        span = self.current()
        if span is None:
            with self._lock:
                self.orphan_events += 1
            return
        span.events.append((name, self._clock(), _clean_attrs(attrs)))

    # -- exporters ----------------------------------------------------------

    def export_jsonl(self) -> str:
        """Finished spans as JSON-lines (one object per line)."""
        with self._lock:
            spans = list(self.finished)
        return "\n".join(json.dumps(span.as_dict(), sort_keys=True) for span in spans)

    def chrome_trace(self) -> Dict[str, Any]:
        """Finished spans in Chrome ``trace_event`` format.

        Each distinct span ``lane`` becomes one ``tid`` with a
        ``thread_name`` metadata record, so the sweep's main thread and the
        prefetch stage render as separate tracks.
        """
        with self._lock:
            spans = sorted(self.finished, key=lambda s: (s.start_ns, s.span_id))
        lanes: Dict[str, int] = {}
        events: List[Dict[str, Any]] = []
        for span in spans:
            tid = lanes.setdefault(span.lane, len(lanes) + 1)
            args = dict(span.attributes)
            if span.events:
                args["events"] = [
                    {"name": name, "ts_us": at_ns / 1000.0, **attrs}
                    for name, at_ns, attrs in span.events
                ]
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": span.start_ns / 1000.0,
                    "dur": (span.duration_ns or 0) / 1000.0,
                    "pid": 1,
                    "tid": tid,
                    "cat": "repro",
                    "args": args,
                }
            )
        metadata = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": lane},
            }
            for lane, tid in lanes.items()
        ]
        return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


class _SpanContext:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_name", "_lane", "_attrs", "span")

    def __init__(
        self, tracer: Tracer, name: str, lane: Optional[str], attrs: Dict[str, Any]
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._lane = lane
        self._attrs = attrs
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        self.span = self._tracer._begin(self._name, self._lane, self._attrs)
        return self.span

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        assert self.span is not None
        if exc_type is not None:
            self.span.set(error=repr(exc))
        self._tracer._end(self.span)


def open_span_leaks() -> List[Tuple[Tracer, int]]:
    """Every live tracer still holding open spans, with the open count.

    The CI teardown fixture asserts this is empty after each test: an
    instrumentation site that opens a span without closing it (a missing
    ``with``, an early return around ``_end``) fails the build instead of
    silently producing truncated traces.
    """
    return [(tracer, tracer.open_spans) for tracer in list(_TRACERS) if tracer.open_spans]
