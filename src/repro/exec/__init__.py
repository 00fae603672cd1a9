"""Batch execution layer: columnar batches, vectorized kernels, pruned probe.

The tuple-at-a-time algorithms in :mod:`repro.core` are the *oracle*; this
package is how the same algorithms run fast.  Three pieces:

* :mod:`repro.exec.batch` -- :class:`PageBatch`, the columnar page
  representation built once per page;
* :mod:`repro.exec.kernels` -- the probe / intersection / owner-filter /
  migration / locate kernels, vectorized with numpy;
* :mod:`repro.exec.pruned_probe` -- the interval-pruned index and probe
  the batch engine of :mod:`repro.core.joiner` runs on.

Algorithms select a path via ``PartitionJoinConfig.execution``, one of
:data:`ALL_EXECUTION_MODES` below -- the only place the mode names are
written; see ``docs/EXECUTION.md`` for the layout and determinism rules.

:mod:`repro.exec.forward_sweep` is the odd one out: not a faster path
through the partition join but a different physical operator -- the
endpoint-sorted forward-scan sweep with gapless hash maps, selected via
``execution="forward-sweep"``.
"""

from repro.exec.batch import KeyInterner, PageBatch
from repro.exec.kernels import Kernels, PartitionBoundaries, get_kernels


def backend_name() -> str:
    """The kernel backend benchmark reports record: always ``"numpy"``."""
    return "numpy"


#: The partition modes: ``"tuple"`` is the tuple-at-a-time oracle,
#: ``"batch"`` runs placement and the sweep through the batch kernels.  Both
#: produce bit-identical results, outcome counters and per-phase charged I/O.
EXECUTION_MODES = ("tuple", "batch")

#: Every legal ``PartitionJoinConfig.execution``: the partition modes plus
#: the forward-scan sweep operator, which returns the identical result
#: multiset but follows its own sort/join phase ledger.
ALL_EXECUTION_MODES = EXECUTION_MODES + ("forward-sweep",)

# The forward sweep imports repro.algebra.predicates, whose package imports
# repro.baselines (through algebra.normalize), and baselines.nested_loop
# imports this package -- which the storage layer imports first (through
# repro.exec.batch).  So re-export the sweep lazily (PEP 562) to keep this
# package importable from inside that cycle.
_FORWARD_SWEEP_EXPORTS = ("GaplessHashMap", "forward_sweep_join")


def __getattr__(name: str):
    if name in _FORWARD_SWEEP_EXPORTS:
        from repro.exec import forward_sweep

        return getattr(forward_sweep, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ALL_EXECUTION_MODES",
    "EXECUTION_MODES",
    "GaplessHashMap",
    "forward_sweep_join",
    "KeyInterner",
    "Kernels",
    "PageBatch",
    "PartitionBoundaries",
    "backend_name",
    "get_kernels",
]
