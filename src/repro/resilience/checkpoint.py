"""Sweep checkpoints: making ``joinPartitions`` resumable after a crash.

The partition sweep is a long sequential pass whose volatile state at a
partition boundary is small and well-defined: the retained outer tuples,
the resident part of the tuple cache, and a handful of counters.  Everything
else it needs -- the input partitions, the cache spill file, the result file
-- is already on (simulated) disk.  A :class:`SweepCheckpointer` therefore
persists exactly that boundary state every ``interval`` partitions:

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
from typing import Any, List, Optional, Sequence, Tuple

from repro.model.errors import CheckpointError
from repro.model.vtuple import VTTuple
from repro.storage.heapfile import HeapFile
from repro.storage.layout import Device, DiskLayout


@dataclass(frozen=True)
class SweepContext:
    """Everything the sweep needs besides checkpointed state, captured when
    the sweep starts so :func:`resume_join` can rebuild the exact call.

    ``pair_fn`` is a Python callable: the recovery log models a durable
    catalog, and a real catalog would store the predicate's identifier the
    same way.
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
    #: Pipelined-sweep knob (ignored by the other execution modes); the
    #: default keeps pre-pipeline recovery logs readable.
    prefetch_depth: int = 8
    #: True when ``r_parts``/``s_parts`` hold the inputs in *swapped*
    #: orientation (the single-partition shortcut makes the smaller relation
    #: the outer side).  Resume passes it back as ``swapped_inputs`` or
    #: replayed results come out payload-reversed.
    swapped: bool = False


@dataclass(frozen=True)
class SweepCheckpoint:
    """Committed boundary state after ``position`` sweep steps.

    Attributes:
        position: completed sweep steps (0 = nothing done yet; the sweep
            order -- backward or forward -- is fixed by the context).
        outer_retained: outer tuples retained in the buffer at the boundary.
        cache_resident: resident tuple-cache area at the boundary.
        cache_spill: the cache's spill file, or None when nothing spilled.
        cache_spill_pages: spill-file page watermark.
        cache_spill_tuples: spill-file tuple watermark.
        cache_name: name the cache was created under (re-used on restore).
        result_pages: result-file page watermark.
        result_tuples: result-file tuple watermark.
        n_result_tuples: emitted-result counter at the boundary.
        overflow_blocks: overflow-block counter at the boundary.
        cache_tuples_peak: cache-population peak at the boundary.
        cache_tuples_spilled: spilled-tuple counter at the boundary.
        epoch: how many checkpoints preceded this one in the run.
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

    def due(self, position: int, resume_position: int) -> bool:
        """Whether a checkpoint is due after completing *position* steps.

        Never due at the resume position itself (that state is already the
        committed checkpoint) and never at 0 (that is :meth:`begin`'s job).
        """
        return (
            position > 0
            and position != resume_position
            and position % self.interval == 0
        )

    def begin(self, context: SweepContext) -> None:
        """Record the sweep context and commit the position-0 checkpoint.

        Guarantees a crash *anywhere* in the sweep leaves something to
        resume from, at the cost of one metadata-page write.
        """
        self.recovery.context = context
        self.write(
            position=0,
            outer_retained=(),
            cache_resident=(),
            cache_spill=None,
            cache_name=None,
            result_file=context.result_file,
            n_result_tuples=0,
            overflow_blocks=0,
            cache_tuples_peak=0,
            cache_tuples_spilled=0,
        )

    def write(
        self,
        *,
        position: int,
        outer_retained: Sequence[VTTuple],
        cache_resident: Sequence[VTTuple],
        cache_spill: Optional[HeapFile],
        cache_name: Optional[str],
        result_file: HeapFile,
        n_result_tuples: int,
        overflow_blocks: int,
        cache_tuples_peak: int,
        cache_tuples_spilled: int,
    ) -> SweepCheckpoint:
        """Write and commit one checkpoint; returns it.

        The volatile tuples are paged out as charged writes before the
        metadata page; the commit into the recovery log happens last, so an
        interruption at any earlier point is harmless.
        """
        disk = self._layout.disk
        if self._extent is None:
            self._extent = disk.allocate(
                "sweep_checkpoint", device=Device.CHECKPOINT, capacity=4
            )
        capacity = self._layout.spec.capacity
        volatile: List[VTTuple] = list(outer_retained) + list(cache_resident)
        for start in range(0, len(volatile), capacity):
            disk.append(self._extent, volatile[start : start + capacity])
        checkpoint = SweepCheckpoint(
            position=position,
            outer_retained=tuple(outer_retained),
            cache_resident=tuple(cache_resident),
            cache_spill=cache_spill,
            cache_spill_pages=cache_spill.n_pages if cache_spill is not None else 0,
            cache_spill_tuples=cache_spill.n_tuples if cache_spill is not None else 0,
            cache_name=cache_name,
            result_pages=result_file.n_pages,
            result_tuples=result_file.n_tuples,
            n_result_tuples=n_result_tuples,
            overflow_blocks=overflow_blocks,
            cache_tuples_peak=cache_tuples_peak,
            cache_tuples_spilled=cache_tuples_spilled,
            epoch=self._epoch,
        )
        # The metadata page: what a real system would serialize here is the
        # checkpoint record itself.
        disk.append(self._extent, [("sweep-checkpoint", position, self._epoch)])
        # Commit point -- everything above reached "disk".
        self.recovery.checkpoint = checkpoint
        self._epoch += 1
        disk.report.checkpoints_written += 1
        return checkpoint
