"""Sweep checkpoints: making ``joinPartitions`` resumable after a crash.

What the partition sweep carries across a partition boundary is small and
well-defined -- the sweep's :class:`~repro.core.joiner.SweepState`, which
lists what of it is volatile (retained outer tuples, the resident part of
the tuple cache, a handful of counters) and what is already on (simulated)
disk.  A :class:`SweepCheckpointer` persists that state *frozen*
(``state.freeze()``, a :class:`SweepCheckpoint`) every ``interval``
partitions, and resume is ``SweepState.thaw`` plus more steps:

* the volatile tuples are written to the CHECKPOINT device as charged page
  I/O (durability is not free), followed by one metadata page;
* only after every page write succeeded is the :class:`SweepCheckpoint`
  *committed* into the :class:`RecoveryLog` -- commit-after-write, so a
  crash mid-checkpoint leaves the previous checkpoint authoritative;
* file state is captured as **watermarks** (page/tuple counts at the
  boundary).  Resume truncates the cache spill and result files back to
  their watermarks, discarding whatever the interrupted run wrote past
  them, and replays the sweep from the checkpoint position.

Replay from a boundary is bit-identical to the uninterrupted run: the sweep
is deterministic given its inputs and the restored boundary state, and the
restored counters make :class:`~repro.core.joiner.JoinOutcome` come out
identical too (the integration tests assert both).

The :class:`RecoveryLog` itself models durable metadata (a recovery
catalog).  It lives in Python memory because the crash being simulated is
the *evaluator's* -- the simulated disks, like real disks, survive it; the
caller keeps the log and the layout and hands both to
:func:`~repro.core.partition_join.resume_join`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Tuple

from repro.model.errors import CheckpointError
from repro.model.vtuple import VTTuple
from repro.storage.heapfile import HeapFile
from repro.storage.layout import Device, DiskLayout


@dataclass(frozen=True)
class SweepContext:
    """Everything the sweep needs besides its boundary state, fixed when the
    sweep starts: a fresh and a resumed sweep are both built from it.
    """

    r_parts: Sequence[HeapFile]
    s_parts: Sequence[HeapFile]
    partition_map: Any
    buff_size: int
    result_schema: Any
    collect: bool
    direction: str
    cache_memory_tuples: int
    execution: str
    result_file: HeapFile
    #: True when ``r_parts``/``s_parts`` hold the inputs in *swapped*
    #: orientation (the one-partition case makes the smaller relation the
    #: outer side); each match is then emitted with the rows flipped back,
    #: or results would come out payload-reversed.
    swapped: bool


@dataclass(frozen=True)
class SweepCheckpoint:
    """Committed boundary state after ``position`` sweep steps (0 = nothing
    done yet; the sweep order -- backward or forward -- is fixed by the
    context): a :class:`~repro.core.joiner.SweepState` frozen.

    The volatile parts are stored -- the retained outer tuples, the cache's
    resident area and the name it was created under, the four outcome
    counters -- and the two files are captured as page/tuple watermarks:
    the result file's, and the cache spill file's (``cache_spill`` is None
    when nothing spilled).  ``epoch`` counts the checkpoints that preceded
    this one in the run.
    """

    position: int
    outer_retained: Tuple[VTTuple, ...]
    cache_resident: Tuple[VTTuple, ...]
    cache_spill: Optional[HeapFile]
    cache_spill_pages: int
    cache_spill_tuples: int
    cache_name: Optional[str]
    result_pages: int
    result_tuples: int
    n_result_tuples: int
    overflow_blocks: int
    cache_tuples_peak: int
    cache_tuples_spilled: int
    epoch: int


@dataclass
class RecoveryLog:
    """Durable recovery metadata for one partition-join run.

    Attributes:
        plan: the executed :class:`~repro.core.planner.PartitionPlan`.
        context: the sweep's :class:`SweepContext`.
        checkpoint: the latest *committed* checkpoint.
        resumes: times this run was resumed.
    """

    plan: Any = None
    context: Optional[SweepContext] = None
    checkpoint: Optional[SweepCheckpoint] = None
    resumes: int = 0

    @property
    def resumable(self) -> bool:
        """True when a resume has everything it needs."""
        return self.context is not None and self.checkpoint is not None


class SweepCheckpointer:
    """Writes charged checkpoints of the sweep onto the CHECKPOINT device."""

    def __init__(self, layout: DiskLayout, recovery: RecoveryLog, interval: int) -> None:
        if interval < 1:
            raise CheckpointError(f"checkpoint interval must be >= 1, got {interval}")
        self._layout = layout
        self.recovery = recovery
        self.interval = interval
        self._extent = None  # allocated lazily on the first write
        self._epoch = 0

    def due(self, position: int) -> bool:
        """Whether a checkpoint is due after completing *position* steps
        (never at 0: that is :meth:`begin`'s job)."""
        return position > 0 and position % self.interval == 0

    def begin(self, context: SweepContext, state) -> None:
        """Record the sweep context and commit the fresh *state* as the
        position-0 checkpoint.

        Guarantees a crash *anywhere* in the sweep leaves something to
        resume from, at the cost of one metadata-page write.
        """
        self.recovery.context = context
        self.write(state)

    def write(self, state) -> SweepCheckpoint:
        """Write and commit *state* frozen (a
        :class:`~repro.core.joiner.SweepState`); returns the checkpoint.

        The volatile tuples are paged out as charged writes before the
        metadata page; the commit into the recovery log happens last, so an
        interruption at any earlier point is harmless.
        """
        disk = self._layout.disk
        if self._extent is None:
            self._extent = disk.allocate(
                "sweep_checkpoint", device=Device.CHECKPOINT, capacity=4
            )
        checkpoint = state.freeze(self._epoch)
        capacity = self._layout.spec.capacity
        volatile = list(checkpoint.outer_retained + checkpoint.cache_resident)
        for start in range(0, len(volatile), capacity):
            disk.append(self._extent, volatile[start : start + capacity])
        # The metadata page: what a real system would serialize here is the
        # checkpoint record itself.
        disk.append(
            self._extent, [("sweep-checkpoint", checkpoint.position, self._epoch)]
        )
        # Commit point -- everything above reached "disk".
        self.recovery.checkpoint = checkpoint
        self._epoch += 1
        disk.report.checkpoints_written += 1
        return checkpoint
