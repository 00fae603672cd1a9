"""Observability for the partition join: tracing, metrics, EXPLAIN.

The subsystem has three legs (see ``docs/OBSERVABILITY.md``):

* :mod:`repro.obs.trace` -- a structured tracer (nested spans, monotonic
  timings, JSON-lines and Chrome ``trace_event`` exporters);
* :mod:`repro.obs.metrics` -- a registry of counters, gauges, and
  fixed-bucket histograms with labeled families;
* :mod:`repro.obs.explain` -- EXPLAIN / EXPLAIN ANALYZE rendering of the
  planner's chosen plan and its predicted-vs-actual per-phase cost.

Everything is gated behind :class:`ObservabilityConfig`, threaded through
``PartitionJoinConfig.observability`` (and ``TemporalDatabase``).  With the
knob unset the hot paths pay a single ``is None`` check; with it set, an
:class:`Observability` runtime collects spans and metrics *without touching
the simulation*: results, ``JoinOutcome`` counters, and charged I/O are
bit-identical either way (property-tested in
``tests/property/test_prop_observability.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Tracer

__all__ = [
    "ObservabilityConfig",
    "Observability",
    "MetricsRegistry",
    "Tracer",
    "span_or_null",
]

#: Probe-rows-per-partition histogram bounds (tuples, not pages).
_PROBE_ROW_BUCKETS = (
    16.0,
    64.0,
    256.0,
    1024.0,
    4096.0,
    16384.0,
    65536.0,
    262144.0,
)


@dataclass(frozen=True)
class ObservabilityConfig:
    """The knob: what to collect when observability is switched on.

    Attributes:
        tracing: collect spans (disable to keep only metrics).
        metrics: collect metrics (disable to keep only spans).
        io_events: additionally attach one trace event per charged I/O
            operation to the enclosing span.  Expensive at scale -- bounded
            by *max_io_events* -- but invaluable when auditing exactly which
            accesses a phase issued.
        max_io_events: retention cap on per-op trace events.
        max_spans: retention cap on finished spans (see :class:`Tracer`).
    """

    tracing: bool = True
    metrics: bool = True
    io_events: bool = False
    max_io_events: int = 10_000
    max_spans: int = 100_000

    def __post_init__(self) -> None:
        if self.max_io_events < 0:
            raise ValueError(f"max_io_events must be >= 0, got {self.max_io_events}")
        if self.max_spans < 0:
            raise ValueError(f"max_spans must be >= 0, got {self.max_spans}")


_OP_NAMES = {
    (False, False): "random_read",
    (False, True): "sequential_read",
    (True, False): "random_write",
    (True, True): "sequential_write",
}


class Observability:
    """The runtime a configured run records into.

    One instance per evaluation: :func:`repro.core.partition_join.partition_join`
    builds it from ``config.observability``, attaches it to the layout's
    disk, and returns it on the :class:`PartitionJoinResult` so callers can
    export traces and snapshot metrics.
    """

    def __init__(self, config: Optional[ObservabilityConfig] = None) -> None:
        self.config = config if config is not None else ObservabilityConfig()
        self.tracer: Optional[Tracer] = (
            Tracer(max_spans=self.config.max_spans) if self.config.tracing else None
        )
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry() if self.config.metrics else None
        )
        self._phase = "-"
        self._io_events_left = self.config.max_io_events if self.config.io_events else 0
        self.dropped_io_events = 0
        # Hot-path caches: one dict probe per charged I/O instead of a
        # family lookup + label resolution.
        self._io_children: Dict[Tuple[str, int, bool, bool], Any] = {}
        self._retry_children: Dict[Tuple[str, int, bool], Any] = {}
        self._device_names: Dict[int, str] = {}
        if self.metrics is not None:
            self._io_family = self.metrics.counter(
                "repro_io_ops_total",
                "Charged I/O operations by phase, device, and access kind.",
                ("phase", "device", "op"),
            )
            self._retry_family = self.metrics.counter(
                "repro_io_retry_ops_total",
                "Charged operations that were fault-forced retries or backoff.",
                ("phase", "device", "direction"),
            )

    # -- pickling: a worker process must never drag the runtime along -----------

    def __getstate__(self) -> Dict[str, Any]:
        return {"config": self.config}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__init__(state["config"])

    # -- phases -------------------------------------------------------------

    @property
    def phase_name(self) -> str:
        """The phase label current I/O metrics are attributed to."""
        return self._phase

    @contextmanager
    def phase(self, name: str) -> Iterator[Optional[Span]]:
        """Attribute enclosed I/O metrics to *name* and span the phase."""
        previous = self._phase
        self._phase = name
        try:
            if self.tracer is not None:
                with self.tracer.span(f"phase:{name}") as span:
                    yield span
            else:
                yield None
        finally:
            self._phase = previous

    # -- the disk hook ------------------------------------------------------

    def on_io(
        self,
        device: int,
        *,
        write: bool,
        sequential: bool,
        retry: bool = False,
        count: int = 1,
    ) -> None:
        """Record one (or *count*) charged I/O operations.

        Called by :meth:`repro.storage.disk.SimulatedDisk._charge` after the
        operation is on the books -- observation only, the charge itself is
        already done.
        """
        if self.metrics is not None:
            key = (self._phase, device, write, sequential)
            child = self._io_children.get(key)
            if child is None:
                child = self._io_family.labels(
                    phase=self._phase,
                    device=self._device_name(device),
                    op=_OP_NAMES[(write, sequential)],
                )
                self._io_children[key] = child
            child.inc(count)
            if retry:
                self._tag_child(
                    self._retry_children, self._retry_family, device, write
                ).inc(count)
        if self._io_events_left != 0 and self.tracer is not None:
            if self._io_events_left > 0:
                self._io_events_left -= 1
                self.tracer.event(
                    "io",
                    device=self._device_name(device),
                    op=_OP_NAMES[(write, sequential)],
                    retry=retry,
                    count=count,
                )
        elif self.config.io_events and self.tracer is not None:
            self.dropped_io_events += 1

    def _tag_child(self, cache, family, device: int, write: bool):
        key = (self._phase, device, write)
        child = cache.get(key)
        if child is None:
            child = family.labels(
                phase=self._phase,
                device=self._device_name(device),
                direction="write" if write else "read",
            )
            cache[key] = child
        return child

    def _device_name(self, device: int) -> str:
        name = self._device_names.get(device)
        if name is None:
            from repro.storage.layout import Device

            try:
                name = Device(device).name
            except ValueError:
                name = f"DEV{device}"
            self._device_names[device] = name
        return name

    # -- tracing conveniences -----------------------------------------------

    def span(self, name: str, lane: Optional[str] = None, **attrs: Any):
        """A span context (a no-op yielding a null span when tracing is off)."""
        if self.tracer is not None:
            return self.tracer.span(name, lane, **attrs)
        return _NULL_SPAN_CONTEXT

    def event(self, name: str, **attrs: Any) -> None:
        """Attach an event to the current span (no-op when tracing is off)."""
        if self.tracer is not None:
            self.tracer.event(name, **attrs)

    # -- metrics conveniences -----------------------------------------------

    def count(self, name: str, help: str = "", amount: float = 1.0, **labels: Any) -> None:
        """Increment a labeled counter (no-op when metrics are off)."""
        if self.metrics is not None:
            self.metrics.counter(name, help, tuple(sorted(labels))).labels(
                **labels
            ).inc(amount)

    def gauge(self, name: str, value: float, help: str = "", **labels: Any) -> None:
        """Set a labeled gauge (no-op when metrics are off)."""
        if self.metrics is not None:
            self.metrics.gauge(name, help, tuple(sorted(labels))).labels(**labels).set(
                value
            )

    def observe(
        self,
        name: str,
        value: float,
        help: str = "",
        buckets: Tuple[float, ...] = _PROBE_ROW_BUCKETS,
        **labels: Any,
    ) -> None:
        """Observe a histogram value (no-op when metrics are off)."""
        if self.metrics is not None:
            self.metrics.histogram(name, help, tuple(sorted(labels)), buckets).labels(
                **labels
            ).observe(value)

    # -- exports ------------------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Stable dict of every metric family (empty when metrics are off)."""
        return self.metrics.snapshot() if self.metrics is not None else {}

    def chrome_trace(self) -> Dict[str, Any]:
        """Chrome ``trace_event`` export (empty trace when tracing is off)."""
        if self.tracer is not None:
            return self.tracer.chrome_trace()
        return {"traceEvents": [], "displayTimeUnit": "ms"}

    def trace_jsonl(self) -> str:
        """JSON-lines span export (empty string when tracing is off)."""
        return self.tracer.export_jsonl() if self.tracer is not None else ""


class _NullSpan:
    """The span stand-in handed out when tracing is disabled."""

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        pass

    @property
    def attributes(self) -> Dict[str, Any]:
        return {}

    @property
    def events(self):
        return []


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        pass


_NULL_SPAN = _NullSpan()
_NULL_SPAN_CONTEXT = _NullSpanContext()


def span_or_null(
    obs: Optional[Observability], name: str, lane: Optional[str] = None, **attrs: Any
):
    """``obs.span(...)`` when *obs* is set; a shared null context otherwise.

    The instrumentation sites' one-liner: ``with span_or_null(obs, "probe")
    as span: ...`` always yields an object with a ``set`` method, so the
    instrumented code reads identically whether observability is on, off,
    or absent -- and an absent runtime costs one ``is None`` check.
    """
    if obs is None:
        return _NULL_SPAN_CONTEXT
    return obs.span(name, lane, **attrs)
