"""Resilience: fault injection, retries, checkpoints, and degradation.

The subsystem that lets the reproduction keep its promises when the
simulated hardware misbehaves.  See ``docs/RESILIENCE.md`` for the model.

Leaf modules (:mod:`~repro.resilience.faults`, :mod:`~repro.resilience.retry`,
:mod:`~repro.resilience.report`) depend only on :mod:`repro.model.errors`,
so the storage layer imports them without cycles.  The modules that sit
*above* storage (:mod:`~repro.resilience.checkpoint`,
:mod:`~repro.resilience.degrade`) are re-exported lazily: importing them
eagerly here would run before :mod:`repro.storage.disk` finishes importing
the leaves, closing an import cycle.
"""

from repro.resilience.faults import FaultDecision, FaultInjector
from repro.resilience.report import DegradationEvent, ResilienceReport
from repro.resilience.retry import ResiliencePolicy, RetryPolicy

__all__ = [
    "BufferReduction",
    "DegradationEvent",
    "FaultDecision",
    "FaultInjector",
    "RecoveryLog",
    "ResiliencePolicy",
    "ResilienceReport",
    "RetryPolicy",
    "SupervisionPolicy",
    "SweepCheckpoint",
    "SweepCheckpointer",
    "SweepContext",
    "fallback_nested_loop_join",
]

_LAZY = {
    "RecoveryLog": "repro.resilience.checkpoint",
    "SweepCheckpoint": "repro.resilience.checkpoint",
    "SweepCheckpointer": "repro.resilience.checkpoint",
    "SweepContext": "repro.resilience.checkpoint",
    "BufferReduction": "repro.resilience.degrade",
    "fallback_nested_loop_join": "repro.resilience.degrade",
    "SupervisionPolicy": "repro.resilience.supervisor",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
