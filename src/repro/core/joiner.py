"""``joinPartitions`` (Appendix A.1, Figure 9): the backward partition sweep.

The computation proceeds from partition ``n`` down to partition ``1``.  The
outer-relation partition lives in memory; long-lived outer tuples are
*retained* in that buffer across iterations, and long-lived inner tuples are
migrated through the paged *tuple cache*:

for i from n to 1:
    purge outer buffer of tuples not overlapping p_i; read r_i into it
    join the outer buffer with each page of the old tuple cache,
        copying cache tuples that overlap p_{i-1} into the new cache
    join the outer buffer with each page of s_i,
        copying s_i tuples that overlap p_{i-1} into the new cache

Every tuple is therefore present in every partition it overlaps exactly
when that partition's join is computed, without ever being replicated in
secondary storage.

The paper's Section 5 future-work idea -- "the paging cost ... can be
reduced if sufficient buffer space is allocated to retain, with high
probability, the entire tuple cache in main memory.  Trading off outer
relation partition space for tuple cache space" -- is implemented via
``cache_memory_tuples``: that many cached tuples stay resident and only the
excess pages to disk.

Two concerns the paper leaves implicit are made explicit here:

* **Exactly-once emission.**  A pair of tuples co-resides in every partition
  their overlap spans; emitting on each co-residence would duplicate
  results.  The pair is emitted only in the partition containing the *end*
  chronon of their overlap -- the first partition of the backward sweep
  where both are present -- which the integration tests verify against the
  reference join.
* **Buffer overflow ("thrashing").**  When a partition exceeds the
  ``buffSize`` outer area (a mis-estimated partitioning -- the Kolmogorov
  bound makes this a <=1% event), correctness is preserved and performance
  degraded, exactly as Section 3.4 promises: the overflow is spilled to a
  temp file and joined in additional blocks, each block re-reading the
  inner partition and tuple cache.

**Execution modes.**  The probe compute -- key-equality probe, interval
intersection, the exactly-once owner filter -- runs either tuple-at-a-time
(``execution="tuple"``, the oracle) or through the one batch engine
(``"batch"`` and both pipelined names), which holds each run as a
columnar :class:`~repro.exec.batch.PageBatch` and window-searches it
against the interval-pruned index of :mod:`repro.exec.pruned_probe`
(numpy-vectorized when numpy is installed, pure-Python fallback
otherwise).  Both paths emit identical matches in identical order and
charge identical I/O; the integration tests assert bit-equality of
outcomes and per-phase statistics.

**Pages and runs.**  What ties the sweep to page granularity is only the
main disk's access sequence: a migrant must reach the new cache before the
next page is read, because old-cache reads and new-cache writes share the
CACHE head.  So *migration* is decided per page, and the *probe* per run:
pages accumulate until a run holds :data:`RUN_ROWS` rows (or the stream
ends) and are probed together.  Results may therefore lag the main disk,
main-disk accesses are never reordered, and a crash drops an unemitted run
like any other volatile buffer.  A pass that migrates reads page by page;
where no other main-disk access can fall between two pages -- the
outer-partition scan, the passes of overflow blocks and of the last
partition, the overflow spill's round trip -- the batch engine reads (and
is charged for) a run in one call, which is the same access sequence.

**Split once.**  The batch engine derives a row's ``(key id, start, end)``
when its page first passes through memory and carries them with the row
from then on (see :class:`_BatchEngine`); rows re-read from the tuple cache
or re-scanned for an overflow block are compared with what is carried, not
decomposed again.  Carried columns are volatile like the rows' buffers: a
checkpoint stores rows only.

**Emission.**  The batch engine hands back each run's matches as one
:class:`~repro.model.match_block.MatchBlock` -- matched rows plus the
``starts | ends`` columns -- and for the natural pair function that block is
appended whole to the result file and the collected relation, which build a
``VTTuple`` only when someone reads one.  Any other pair function may reject
or rewrite a pair, so it is called per row of the block; the tuple engine
always calls it per match (it is the oracle for the block path too).
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.intervals import PartitionMap
from repro.exec import EXECUTION_MODES, PIPELINED_SWEEP_MODES
from repro.exec.batch import CodeTranslator, ColumnarBlock, PageBatch
from repro.exec.kernels import get_kernels
from repro.exec.pruned_probe import (
    PrunedProbeIndex,
    PrunedProbeIndexPython,
    probe_pruned,
    probe_pruned_python,
)
from repro.model.errors import CheckpointError
from repro.model.match_block import MatchBlock
from repro.model.relation import ValidTimeRelation
from repro.model.schema import RelationSchema
from repro.model.vtuple import VTTuple
from repro.obs import span_or_null
from repro.resilience.checkpoint import SweepCheckpoint, SweepCheckpointer, SweepContext
from repro.storage.buffer import BufferPool, Reservation
from repro.storage.columnar_page import ColumnarPage
from repro.storage.heapfile import HeapFile
from repro.storage.layout import Device, DiskLayout
from repro.storage.prefetch import PrefetchPipeline
from repro.time.interval import Interval

if TYPE_CHECKING:  # degrade imports this module; annotation-only the other way
    from repro.obs import Observability
    from repro.resilience.degrade import BufferReduction

#: Builds a result tuple from a matched pair and their interval overlap, or
#: None to reject the pair.  The default is the natural-join combination;
#: predicate variants (overlap-join, contain-join, ...) substitute their own.
PairFn = Callable[[VTTuple, VTTuple, Interval], Optional[VTTuple]]


#: Rows a probe run holds before it is probed and emitted: enough that a
#: kernel call's fixed cost is amortized (8-tuple pages: 1.7 s at 8 rows,
#: 0.8 s at 64, flat within noise from 256 to 4096), and exactly one page
#: under 512-row page geometries.  Also the rows one run *read* fetches
#: where a scan may be charged by run (:func:`_chunks`).
RUN_ROWS = 512


def natural_pair(x: VTTuple, y: VTTuple, common: Interval) -> VTTuple:
    """The Section 2 result tuple: both payloads, overlap timestamp."""
    return VTTuple(x.key, x.payload + y.payload, common)


@dataclass
class JoinOutcome:
    """What a partition-sweep join produced and observed.

    Attributes:
        result: the materialized result relation (None when not collected).
        n_result_tuples: result cardinality (always tracked).
        overflow_blocks: extra outer blocks processed due to partition
            overflow (0 when the planner's estimate held everywhere).
        cache_tuples_peak: largest tuple-cache population seen.
        cache_tuples_spilled: cached tuples that overflowed the resident
            area and paged through disk (equals every cached tuple when no
            residency is reserved).
    """

    result: Optional[ValidTimeRelation]
    n_result_tuples: int = 0
    overflow_blocks: int = 0
    cache_tuples_peak: int = 0
    cache_tuples_spilled: int = 0


def join_partitions(
    r_parts: Sequence[HeapFile],
    s_parts: Sequence[HeapFile],
    partition_map: PartitionMap,
    buff_size: int,
    layout: DiskLayout,
    result_schema: Optional[RelationSchema] = None,
    *,
    collect: bool = True,
    pair_fn: PairFn = natural_pair,
    direction: str = "backward",
    cache_memory_tuples: int = 0,
    execution: str = "tuple",
    prefetch_depth: int = 8,
    # Ignored; kept only because the frozen benchmark suite's
    # benchmarks/suite/library.py::_replay passes both.
    sweep_workers: Optional[int] = None,
    supervision=None,
    interner=None,
    pool: Optional[BufferPool] = None,
    checkpointer: Optional[SweepCheckpointer] = None,
    resume_from: Optional[SweepCheckpoint] = None,
    buffer_reductions: Sequence["BufferReduction"] = (),
    swapped_inputs: bool = False,
    obs: Optional["Observability"] = None,
) -> JoinOutcome:
    """Join pre-partitioned relations ``r`` and ``s`` (Appendix A.1).

    Args:
        r_parts: outer partitions, index-aligned with *partition_map*.
        s_parts: inner partitions, same alignment.
        partition_map: the partitioning both sides were built with.
        buff_size: pages of the outer-partition buffer area (Figure 3).
        layout: disk layout (tuple cache goes to the CACHE device, result to
            the excluded RESULT stream).
        result_schema: schema of the result, required when *collect* is True.
        collect: materialize the result relation in memory as well as
            writing it through the result stream.
        execution: ``"tuple"`` for the tuple-at-a-time oracle loop;
            ``"batch"`` for the batch engine (the interval-pruned probe of
            :mod:`repro.exec.pruned_probe`); one of
            :data:`~repro.exec.PIPELINED_SWEEP_MODES` (identical here; they
            differ in the page layout the caller built) for the same engine
            plus partition-barrier prefetch and write-behind.
        prefetch_depth: pages of read-ahead per partition barrier
            (pipelined sweeps only; 0 disables read-ahead).
        sweep_workers, supervision: ignored (see the signature).
        interner: a :class:`~repro.exec.batch.KeyInterner` to reuse across
            joins (the service layer's per-relation-version interner cache).
            Interner ids never leak into results -- emission order is
            restored by the final sort -- so sharing is result-identical.
        pool: when given, the sweep reserves its Figure 3 regions in this
            :class:`BufferPool` and guarantees -- on success, failure, or
            simulated crash -- that every reservation is released.
        checkpointer: when given, boundary checkpoints are written every
            ``checkpointer.interval`` completed partitions (plus one at
            position 0), making the sweep resumable.
        resume_from: a committed checkpoint to restart from (requires
            *checkpointer*; the call's other arguments must describe the
            same sweep, normally via the recovery log's context).
        buffer_reductions: scheduled mid-sweep shrinks of the outer area;
            from each reduction's position on, the sweep runs with the
            smaller buffer, routing the excess through the Section 3.4
            overflow machinery and recording a degradation event.
        swapped_inputs: True when *r_parts* hold the caller's inner relation
            and *s_parts* its outer one (the single-partition shortcut makes
            the smaller relation the resident side).  *pair_fn* is then
            called as ``pair_fn(s_row, r_row, overlap)`` so payloads come out
            in the caller's order.  Recorded in the sweep context, from which
            :func:`~repro.core.partition_join.resume_join` passes it back.
        obs: optional :class:`~repro.obs.Observability` runtime.  Purely
            observational: spans, events, and metrics are recorded around
            the sweep, but results, outcome counters, and charged I/O are
            bit-identical with or without it.
    """
    if len(r_parts) != len(partition_map) or len(s_parts) != len(partition_map):
        raise ValueError("partition lists must align with the partition map")
    if collect and result_schema is None:
        raise ValueError("collect=True requires a result_schema")
    if direction not in ("backward", "forward"):
        raise ValueError(f"direction must be 'backward' or 'forward', got {direction!r}")
    if execution not in EXECUTION_MODES:
        raise ValueError(
            f"execution must be one of {EXECUTION_MODES}, got {execution!r}"
        )
    if resume_from is not None and checkpointer is None:
        raise CheckpointError("resume_from requires the run's checkpointer")

    n = len(partition_map)
    if direction == "backward":
        # The paper's order: tuples stored in their last partition, the
        # sweep runs n..1, migration moves backward, and a pair is owned by
        # the partition holding its overlap's END chronon.
        order_list = list(range(n - 1, -1, -1))
        step = -1
    else:
        # Footnote 1's equivalent strategy: first-partition storage, sweep
        # 1..n, forward migration, ownership by the overlap's START chronon.
        order_list = list(range(n))
        step = 1

    spec = layout.spec
    pipeline: Optional[PrefetchPipeline] = None
    # The tuple engine reads page by page throughout: it is the oracle for
    # the access sequence too.
    by_run = execution != "tuple"
    if execution == "tuple":
        engine: _ProbeEngine = _TupleEngine(partition_map, direction)
    else:
        engine = _BatchEngine(partition_map, direction, interner=interner)
        if execution in PIPELINED_SWEEP_MODES:
            pipeline = PrefetchPipeline(layout, prefetch_depth)

    inner_total = sum(part.n_tuples for part in s_parts)
    report = layout.disk.report

    if resume_from is None:
        result_file = layout.result_file("join_result")
        collected = ValidTimeRelation(result_schema) if collect else None
        outcome = JoinOutcome(result=collected)
        outer_retained: List[VTTuple] = []
        cache: Optional[_TupleCache] = None
        start_pos = 0
        if checkpointer is not None:
            checkpointer.begin(
                SweepContext(
                    r_parts=tuple(r_parts),
                    s_parts=tuple(s_parts),
                    partition_map=partition_map,
                    buff_size=buff_size,
                    result_schema=result_schema,
                    collect=collect,
                    direction=direction,
                    cache_memory_tuples=cache_memory_tuples,
                    execution=execution,
                    result_file=result_file,
                    prefetch_depth=prefetch_depth,
                    swapped=swapped_inputs,
                )
            )
    else:
        context = checkpointer.recovery.context
        if context is None:
            raise CheckpointError("recovery log has no sweep context to resume")
        # Discard everything the interrupted run did past the checkpoint.
        result_file = context.result_file
        result_file.rewind_to(resume_from.result_pages, resume_from.result_tuples)
        collected = None
        if collect:
            collected = ValidTimeRelation(result_schema)
            for tup in result_file.all_tuples():
                collected.add(tup)
        outcome = JoinOutcome(
            result=collected,
            n_result_tuples=resume_from.n_result_tuples,
            overflow_blocks=resume_from.overflow_blocks,
            cache_tuples_peak=resume_from.cache_tuples_peak,
            cache_tuples_spilled=resume_from.cache_tuples_spilled,
        )
        outer_retained = list(resume_from.outer_retained)
        cache = _TupleCache.restore(layout, cache_memory_tuples, inner_total, resume_from)
        start_pos = resume_from.position

    # The pool reservations of Figure 3: the outer area, the three fixed
    # in-transit pages, and any resident tuple-cache area.  try/finally below
    # guarantees they return to the pool however the sweep ends.
    reservations: List[Reservation] = []
    outer_reservation: Optional[Reservation] = None
    if pool is not None:
        outer_reservation = pool.reserve("outer_partition", buff_size)
        reservations.append(outer_reservation)
        for label in ("inner_page", "tuple_cache_page", "result_page"):
            reservations.append(pool.reserve(label, 1))
        resident_pages = spec.pages_for_tuples(cache_memory_tuples)
        if resident_pages:
            reservations.append(pool.reserve("cache_resident", resident_pages))

    current_buff = buff_size
    new_cache: Optional[_TupleCache] = None
    if obs is not None and pool is not None:
        _pool_gauges(obs, pool)
    sweep_cm = span_or_null(
        obs,
        "sweep",
        partitions=n,
        direction=direction,
        execution=execution,
        buff_size=buff_size,
        resume_position=start_pos,
    )
    sweep_span = sweep_cm.__enter__()
    try:
        for pos in range(start_pos, n):
            index = order_list[pos]
            next_index = index + step  # the partition the sweep visits next
            has_next = 0 <= next_index < n

            with span_or_null(
                obs, "partition", position=pos, partition=index
            ) as part_span:
                # Apply any scheduled buffer reductions that start here (or
                # that started before the resume point -- those shrink
                # silently, the pre-crash run already recorded them).
                effective = min(
                    [buff_size]
                    + [
                        red.buff_size
                        for red in buffer_reductions
                        if red.at_position <= pos
                    ]
                )
                if effective < current_buff:
                    current_buff = effective
                    if outer_reservation is not None:
                        outer_reservation.resize(current_buff)
                        if obs is not None and pool is not None:
                            _pool_gauges(obs, pool)
                    _note_buffer_reduction(report, pos, current_buff, obs)
                block_tuples = max(1, current_buff * spec.capacity)

                # Purge retained outer tuples that do not reach this
                # partition, then read the partition itself from disk.
                outer_pages = list(
                    chain.from_iterable(_chunks(r_parts[index], pipeline, by_run))
                )
                outer = engine.assemble_outer(outer_retained, outer_pages, index)

                new_cache = None
                if has_next:
                    if pipeline is not None:
                        new_cache = _PipelinedTupleCache(
                            layout,
                            f"tuple_cache_{next_index}",
                            cache_memory_tuples,
                            inner_total,
                            pipeline,
                        )
                    else:
                        new_cache = _TupleCache(
                            layout,
                            f"tuple_cache_{next_index}",
                            cache_memory_tuples,
                            inner_total,
                        )

                blocks = _split_blocks(outer, block_tuples)
                if len(blocks) > 1:
                    outcome.overflow_blocks += len(blocks) - 1
                    if obs is not None:
                        obs.event(
                            "overflow", partition=index, blocks=len(blocks) - 1
                        )
                        obs.count(
                            "repro_overflow_blocks_total",
                            "Extra outer blocks forced by partition overflow.",
                            float(len(blocks) - 1),
                        )
                    _charge_spill(blocks[1:], layout, spec, index)

                part_rows = part_matches = part_migrated = 0
                # The columns each stream's rows were split into when they
                # first passed: the cache's carried from the partition that
                # filled it, the inner partition's from this one's first block.
                seen: Dict[str, Optional[PageBatch]] = {
                    "cache": cache.carried() if cache is not None else None,
                    "inner": None,
                }
                for block_number, block in enumerate(blocks):
                    probe_index = engine.build_index(block)
                    # Migration happens exactly once, and only a pass that
                    # migrates puts another access between two page reads.
                    into = new_cache if block_number == 0 else None
                    runs = by_run and into is None
                    streams = []
                    if cache is not None:
                        streams.append(("cache", cache.chunks(runs)))
                    streams.append(("inner", _chunks(s_parts[index], pipeline, runs)))
                    for source, chunks in streams:
                        with span_or_null(
                            obs,
                            "probe",
                            source=source,
                            partition=index,
                            block=block_number,
                        ) as probe_span:
                            pages_n, rows_n, matches_n, migrated_n, seen[source] = (
                                _probe_pages(
                                    chunks,
                                    engine,
                                    probe_index,
                                    index,
                                    next_index if has_next else None,
                                    into,
                                    result_file,
                                    collected,
                                    outcome,
                                    layout,
                                    pair_fn,
                                    swapped_inputs,
                                    seen[source],
                                )
                            )
                            probe_span.set(
                                pages=pages_n,
                                rows=rows_n,
                                matches=matches_n,
                                migrated=migrated_n,
                            )
                        part_rows += rows_n
                        part_matches += matches_n
                        part_migrated += migrated_n

                if new_cache is not None:
                    new_cache.flush()
                    outcome.cache_tuples_peak = max(
                        outcome.cache_tuples_peak, new_cache.n_tuples
                    )
                    if new_cache.spill is not None:
                        outcome.cache_tuples_spilled += new_cache.spill.n_tuples
                cache = new_cache
                outer_retained = outer
                part_span.set(
                    blocks=len(blocks),
                    outer_tuples=len(outer),
                    probe_rows=part_rows,
                    matches=part_matches,
                    migrated=part_migrated,
                )
                if obs is not None:
                    obs.observe(
                        "repro_probe_rows_per_partition",
                        float(part_rows),
                        "Rows probed against the outer block, per partition.",
                    )

            completed = pos + 1
            if (
                checkpointer is not None
                and completed < n
                and checkpointer.due(completed, start_pos)
            ):
                # Durability point: stored watermarks must cover every
                # emitted tuple, so the result buffer goes out first.
                result_file.flush()
                checkpointer.write(
                    position=completed,
                    outer_retained=outer_retained,
                    cache_resident=cache.resident if cache is not None else (),
                    cache_spill=cache.spill if cache is not None else None,
                    cache_name=cache.name if cache is not None else None,
                    result_file=result_file,
                    n_result_tuples=outcome.n_result_tuples,
                    overflow_blocks=outcome.overflow_blocks,
                    cache_tuples_peak=outcome.cache_tuples_peak,
                    cache_tuples_spilled=outcome.cache_tuples_spilled,
                )
                if obs is not None:
                    obs.event("checkpoint", position=completed)
                    obs.count(
                        "repro_checkpoints_total",
                        "Boundary checkpoints written mid-sweep.",
                    )

            if pipeline is not None and pos + 1 < n:
                with span_or_null(
                    obs, "prefetch", lane="prefetch", next_position=pos + 1
                ) as prefetch_span:
                    _prefetch_next_partition(
                        pipeline,
                        r_parts,
                        s_parts,
                        engine,
                        order_list[pos + 1],
                        outer_retained,
                        buff_size,
                        buffer_reductions,
                        pos + 1,
                        spec,
                    )
                    prefetch_span.set(
                        cached_pages=len(pipeline.cache)
                        if pipeline.cache is not None
                        else 0
                    )

        result_file.flush()
        sweep_span.set(
            result_tuples=outcome.n_result_tuples,
            overflow_blocks=outcome.overflow_blocks,
            cache_tuples_peak=outcome.cache_tuples_peak,
        )
        return outcome
    except BaseException:
        # The sweep died (simulated crash, fault, overflow...).  Volatile
        # buffers vanish with the process: drop them WITHOUT charged I/O --
        # a dead evaluator issues no writes.  Disk state stays as the crash
        # left it; resume rewinds it to the last checkpoint's watermarks.
        result_file.abandon()
        for c in (cache, new_cache):
            if c is not None and c.spill is not None:
                c.spill.abandon()
        raise
    finally:
        sweep_cm.__exit__(*sys.exc_info())
        if pipeline is not None:
            if obs is not None:
                _export_pipeline_metrics(obs, pipeline)
            pipeline.discard()
        for reservation in reservations:
            reservation.release()
        if obs is not None and pool is not None:
            _pool_gauges(obs, pool)


def _prefetch_next_partition(
    pipeline: PrefetchPipeline,
    r_parts: Sequence[HeapFile],
    s_parts: Sequence[HeapFile],
    engine: "_ProbeEngine",
    next_part: int,
    outer_retained: Sequence[VTTuple],
    buff_size: int,
    buffer_reductions: Sequence["BufferReduction"],
    next_pos: int,
    spec,
) -> None:
    """Read ahead the next partition's pages at the partition barrier.

    The prefix property (see :mod:`repro.storage.prefetch`) needs the
    prefetched pages to be exactly the first demand reads of the next
    iteration.  The one thing that can break that on the TEMP device is a
    partition overflow: its spill round-trip lands between the outer scan
    and the inner scans.  Whether the next partition overflows is fully
    determined by state in hand at the barrier -- the retained outer tuples,
    the partition's cardinality, and the buffer size in force -- so it is
    predicted here without touching the disk, and on a predicted overflow
    the read-ahead stops at the outer partition's pages.
    """
    kept = _retained_overlap_count(outer_retained, engine, next_part)
    effective = min(
        [buff_size]
        + [red.buff_size for red in buffer_reductions if red.at_position <= next_pos]
    )
    block_tuples = max(1, effective * spec.capacity)
    will_overflow = kept + r_parts[next_part].n_tuples > block_tuples
    if will_overflow:
        pipeline.prefetch((r_parts[next_part],))
    else:
        pipeline.prefetch((r_parts[next_part], s_parts[next_part]))


def _note_buffer_reduction(
    report, pos: int, buff_size: int, obs: Optional["Observability"] = None
) -> None:
    """Record a buffer-reduction degradation once per sweep position."""
    for event in report.degradations:
        if event.kind == "buffer-reduction" and event.position == pos:
            return
    report.record_degradation(
        "buffer-reduction",
        f"outer buffer shrunk to {buff_size} pages at sweep position {pos}",
        position=pos,
    )
    if obs is not None:
        obs.event(
            "degradation", kind="buffer-reduction", position=pos, buff_size=buff_size
        )
        obs.count(
            "repro_degradations_total",
            "Recorded degradation events by kind.",
            kind="buffer-reduction",
        )


def _pool_gauges(obs: "Observability", pool: BufferPool) -> None:
    """Publish the buffer pool's occupancy gauges."""
    obs.gauge(
        "repro_buffer_pool_pages",
        float(pool.used_pages),
        "Buffer pool occupancy in pages.",
        state="used",
    )
    obs.gauge(
        "repro_buffer_pool_pages",
        float(pool.free_pages),
        "Buffer pool occupancy in pages.",
        state="free",
    )


def _export_pipeline_metrics(obs: "Observability", pipeline: PrefetchPipeline) -> None:
    """Export the pipeline's end-of-run ledgers into the metrics registry:
    per-stage I/O and the prefetch page cache's hit/miss/eviction counts.
    Read-only over both.
    """
    stages = (
        ("prefetch", pipeline.prefetch_stats),
        ("writeback", pipeline.writeback_stats),
        ("demand", pipeline.demand_stats),
    )
    for stage, stats in stages:
        for kind, value in stats.as_dict().items():
            if value:
                obs.count(
                    "repro_pipeline_stage_ops_total",
                    "Charged I/O operations by pipeline stage and kind.",
                    float(value),
                    stage=stage,
                    kind=kind,
                )
    if pipeline.cache is not None:
        for kind in ("hits", "misses", "evictions"):
            value = getattr(pipeline.cache, kind, 0)
            if value:
                obs.count(
                    "repro_page_cache_events_total",
                    "Prefetch page-cache hits, misses, and evictions.",
                    float(value),
                    kind=kind,
                )


class _TupleCache:
    """The long-lived tuple cache: an optional resident area plus a paged
    spill file (the Section 5 partition-space / cache-space trade-off).

    With ``memory_tuples == 0`` every cached tuple pages through disk --
    exactly the paper's Figure 3 configuration, where the cache owns a
    single in-transit buffer page.
    """

    def __init__(
        self, layout: DiskLayout, name: str, memory_tuples: int, capacity_hint: int
    ) -> None:
        self._layout = layout
        self.name = name
        self._memory_tuples = memory_tuples
        self._capacity_hint = max(1, capacity_hint)
        self.resident: List[VTTuple] = []
        self.spill: Optional[HeapFile] = None
        # The columns of the rows held, one batch per stream that filled the
        # cache, in arrival order.  Volatile: a checkpoint stores rows only.
        self._columns: List[PageBatch] = []

    @classmethod
    def restore(
        cls,
        layout: DiskLayout,
        memory_tuples: int,
        capacity_hint: int,
        checkpoint: SweepCheckpoint,
    ) -> Optional["_TupleCache"]:
        """Rebuild the cache a checkpoint captured (None when it had none).

        The resident area comes back from the checkpoint record (it was
        persisted with the checkpoint's charged writes); the spill file is
        the on-disk survivor, rolled back to its checkpointed watermarks.
        No columns come back: the first scan decomposes the rows afresh.
        """
        if checkpoint.cache_name is None:
            return None
        cache = cls(layout, checkpoint.cache_name, memory_tuples, capacity_hint)
        cache.resident = list(checkpoint.cache_resident)
        if checkpoint.cache_spill is not None:
            checkpoint.cache_spill.rewind_to(
                checkpoint.cache_spill_pages, checkpoint.cache_spill_tuples
            )
            cache.spill = checkpoint.cache_spill
        return cache

    def extend(self, tuples: List[VTTuple]) -> None:
        """Cache *tuples* in order: the resident area first, the rest spilled."""
        room = self._memory_tuples - len(self.resident)
        if room > 0:
            self.resident.extend(tuples[:room])
            tuples = tuples[room:]
        if tuples:
            self._spill(tuples)

    def _spill(self, tuples: List[VTTuple]) -> None:
        if self.spill is None:
            self.spill = self._layout.cache_file(
                self.name, capacity_tuples=self._capacity_hint
            )
        self.spill.append_many(tuples)

    def flush(self) -> None:
        if self.spill is not None:
            self.spill.flush()

    @property
    def n_tuples(self) -> int:
        return len(self.resident) + (self.spill.n_tuples if self.spill else 0)

    def carry(self, columns: PageBatch) -> None:
        """Keep the *columns* of the rows one stream has just migrated in."""
        self._columns.append(columns)

    def carried(self) -> Optional[PageBatch]:
        """The rows held and their columns, in :meth:`chunks` order (rows
        arrive resident area first), or None unless every row came with
        columns -- a restored cache's did not."""
        if not self._columns or sum(map(len, self._columns)) != self.n_tuples:
            return None
        return PageBatch.concat(self._columns)

    def chunks(self, by_run: bool):
        """Iterate the cache in :func:`_chunks` shape: the resident area
        first (one page-shaped list, no I/O charge), then the spill file
        (charged reads)."""
        if self.resident:
            yield [self.resident]
        if self.spill is not None:
            yield from _chunks(self.spill, None, by_run)


class _PipelinedTupleCache(_TupleCache):
    """A tuple cache with write-behind: spill appends are buffered in memory
    and written in one run at the partition barrier (inside the pipeline's
    ``writeback`` window, so the writes are charged normally *and* tagged).

    Deferring the writes turns the CACHE device's serial read/write
    interleaving into one read run followed by one write run: the same page
    writes with the same contents, never more random accesses.  Crash-wise
    the deferred tuples are volatile state, exactly like the serial cache's
    partial write-buffer page: a crash before the barrier loses them
    uncharged, and resume rebuilds the cache from the checkpoint.
    """

    def __init__(
        self,
        layout: DiskLayout,
        name: str,
        memory_tuples: int,
        capacity_hint: int,
        pipeline: PrefetchPipeline,
    ) -> None:
        super().__init__(layout, name, memory_tuples, capacity_hint)
        self._pipeline = pipeline
        self._pending: List[VTTuple] = []

    def _spill(self, tuples: List[VTTuple]) -> None:
        self._pending.extend(tuples)

    def flush(self) -> None:
        if self._pending:
            with self._pipeline.writeback():
                super()._spill(self._pending)
                self.spill.flush()
            self._pending = []
        elif self.spill is not None:
            self.spill.flush()

    @property
    def n_tuples(self) -> int:
        return (
            len(self.resident)
            + len(self._pending)
            + (self.spill.n_tuples if self.spill else 0)
        )


def _chunks(heap: HeapFile, pipeline: Optional[PrefetchPipeline], by_run: bool):
    """The pages of *heap* as the sweep consumes them: lists of pages read
    together.  One page at a time -- through the prefetch *pipeline* when
    there is one -- or, with *by_run*, :data:`RUN_ROWS` rows in one charged
    call, which is only for scans no other main-disk access falls into."""
    if pipeline is not None:
        pages = pipeline.scan_pages(heap)
    elif by_run:
        return heap.scan_runs(RUN_ROWS)
    else:
        pages = heap.scan_pages()
    return ([page] for page in pages)


def _retained_overlap_count(outer_retained, engine, next_part: int) -> int:
    """How many retained outer tuples reach *next_part* (overflow predictor)."""
    if isinstance(outer_retained, ColumnarBlock):
        return outer_retained.count_overlapping(engine.boundaries, next_part)
    return len(engine.overlapping_rows(outer_retained, next_part))


def _split_blocks(outer: List[VTTuple], block_tuples: int) -> List[List[VTTuple]]:
    """Split the outer partition into buffer-sized blocks (usually one)."""
    if len(outer) <= block_tuples:
        return [outer]
    return [outer[i : i + block_tuples] for i in range(0, len(outer), block_tuples)]


def _charge_spill(
    overflow_blocks: List[Sequence[VTTuple]],
    layout: DiskLayout,
    spec,
    index: int,
) -> None:
    """Charge the write and read-back of spilled overflow blocks.

    The tuples themselves stay in Python memory (the simulation is of cost,
    not capacity); what matters is that the overflow pays a round trip to
    the TEMP device: one run out, one run back.
    """
    rows = list(chain.from_iterable(overflow_blocks))
    pages = [rows[at : at + spec.capacity] for at in range(0, len(rows), spec.capacity)]
    disk = layout.disk
    extent = disk.allocate(
        f"overflow_spill_{index}", device=Device.TEMP, capacity=max(1, len(pages))
    )
    disk.append_run(extent, pages)
    disk.read_run(extent, 0, len(pages))


def _build_index(block: Sequence[VTTuple]) -> Dict[Tuple, List[VTTuple]]:
    """Hash the outer block on the explicit join attributes."""
    probe_index: Dict[Tuple, List[VTTuple]] = {}
    for tup in block:
        probe_index.setdefault(tup.key, []).append(tup)
    return probe_index


class _ProbeEngine:
    """Strategy for the in-memory compute of the sweep.

    An engine assembles the outer block and builds an index over it; per
    *page* it names the rows overlapping a partition (migration into the
    next cache, and the purge of retained outer tuples), in row order; per
    *run* of pages it produces the emitted matches, in (inner row, outer
    insertion order) order.  Engines are pure in-memory compute: all I/O
    stays in the caller, so the charged statistics cannot depend on the
    engine.
    """

    def assemble_outer(self, retained, pages: List[Sequence[VTTuple]], index: int):
        """The outer block of partition *index*: the *retained* rows that
        reach it, then the rows of the partition's *pages*, in order."""
        outer: List[VTTuple] = [
            retained[row] for row in self.overlapping_rows(retained, index)
        ]
        for page in pages:
            outer.extend(page)
        return outer

    def build_index(self, block: Sequence[VTTuple]):
        raise NotImplementedError

    def overlapping_rows(self, rows: Sequence[VTTuple], index: int) -> List[int]:
        raise NotImplementedError

    def decompose(self, pages: Sequence[Sequence[VTTuple]]):
        """A run of pages in the form :meth:`probe` takes it."""
        return pages

    def probe(self, index_obj, run, part_index: int):
        """The matches of a (decomposed) run as ``(outer, inner, overlap)``
        triples, or as one :class:`~repro.model.match_block.MatchBlock`
        (outer rows left)."""
        raise NotImplementedError


class _TupleEngine(_ProbeEngine):
    """The paper-faithful tuple-at-a-time loops (the correctness oracle).

    Migration and ownership are decided through :class:`PartitionMap`
    itself, never through the batch engines' partition windows, so this
    engine stays an independent oracle for them.
    """

    def __init__(self, partition_map: PartitionMap, direction: str) -> None:
        self._map = partition_map
        self._backward = direction == "backward"

    def build_index(self, block: Sequence[VTTuple]) -> Dict[Tuple, List[VTTuple]]:
        return _build_index(block)

    def overlapping_rows(self, rows, index):
        overlaps = self._map.overlaps_partition
        return [row for row, tup in enumerate(rows) if overlaps(tup.valid, index)]

    def probe(self, index_obj, pages, part_index):
        partition_map = self._map
        matches: List[Tuple[VTTuple, VTTuple, Interval]] = []
        for page in pages:
            for inner_tup in page:
                for outer_tup in index_obj.get(inner_tup.key, ()):
                    common = outer_tup.valid.intersect(inner_tup.valid)
                    if common is None:
                        continue
                    # Exactly-once rule: the pair belongs to the first
                    # partition of the sweep where both tuples co-reside --
                    # the partition holding the overlap's end chronon
                    # (backward sweep) or its start chronon (forward sweep).
                    owner_chronon = common.end if self._backward else common.start
                    if partition_map.index_of_chronon(owner_chronon) != part_index:
                        continue
                    matches.append((outer_tup, inner_tup, common))
        return matches


class _BatchEngine(_ProbeEngine):
    """The batch engine behind ``"batch"`` and both pipelined names: an
    interval-pruned index per outer block (which carries the CSR index
    instead where it finds nothing to prune), whole-column window search /
    intersection / owner filter over each run.

    **Split once.**  A row in a tuple-list page is decomposed into ``(key
    id, start, end)`` when its page first passes through here, and from
    then on travels with those columns as a
    :class:`~repro.exec.batch.PageBatch`: the outer block is one (purged by
    a mask, extended by the new partition's pages, cut into overflow
    blocks by slicing), the tuple cache keeps the columns of what it holds,
    and a re-read run gets its columns back by comparing rows
    (:meth:`PageBatch.matching`) -- so every read, checksum and fault check
    still happens, and a delivery that differs is decomposed like a first
    one.  Packed columnar pages are columns already and keep their own
    block (:class:`~repro.exec.batch.ColumnarBlock`).
    """

    def __init__(
        self, partition_map: PartitionMap, direction: str, kernels=None, interner=None
    ) -> None:
        self._kernels = kernels if kernels is not None else get_kernels()
        self.boundaries = self._kernels.prepare_boundaries(partition_map)
        # An injected interner (the service's epoch-keyed shared one) skips
        # the rebuild-per-join churn; id values never affect results, so
        # sharing is sound (see KeyInterner docstring).
        self._interner = interner if interner is not None else self._kernels.make_interner()
        self._translator = (
            CodeTranslator(self._interner) if self._kernels.use_numpy else None
        )
        self._direction = direction

    def assemble_outer(self, retained, pages, index):
        # Packed pages stay packed under numpy: the purge is vectorized
        # over the column views and no tuple is materialized until something
        # touches the row.  Same rows, same order either way.
        if (
            self._kernels.use_numpy
            and (not retained or isinstance(retained, ColumnarBlock))
            and all(isinstance(page, ColumnarPage) for page in pages)
        ):
            kept = retained.purged(self.boundaries, index)._segments if retained else []
            return ColumnarBlock(kept + [(page, None) for page in pages])
        if not isinstance(retained, PageBatch):  # a checkpoint's rows
            retained = self.decompose([list(retained)])
        kept = retained.take(self.overlapping_rows(retained, index))
        # One flat tuple list, whatever the pages are: build-side keys must
        # be interned, which a run of packed pages would not do.
        fresh = self.decompose([list(chain.from_iterable(pages))])
        return PageBatch.concat([kept, fresh])

    def build_index(self, block: Sequence[VTTuple]):
        if not isinstance(block, (PageBatch, ColumnarBlock)):
            block = self.decompose([block])
        if not self._kernels.use_numpy:
            return PrunedProbeIndexPython(block)
        if isinstance(block, ColumnarBlock):
            return PrunedProbeIndex(
                block, self._interner, block.columns(self._translator)
            )
        return PrunedProbeIndex(
            block.tuples, self._interner, (block.key_ids, block.starts, block.ends)
        )

    def overlapping_rows(self, rows, index):
        if isinstance(rows, PageBatch):
            return rows.overlapping(self.boundaries.window(index))
        return self._kernels.migration_rows(rows, self.boundaries, index)

    def decompose(self, pages) -> PageBatch:
        return self._kernels.run_batch(
            pages, self._interner, translator=self._translator
        )

    def probe(self, index_obj, run, part_index) -> MatchBlock:
        kernels = self._kernels
        batch = run if isinstance(run, PageBatch) else self.decompose(run)
        if not kernels.use_numpy:
            columns = probe_pruned_python(
                index_obj, batch, self.boundaries, part_index, self._direction
            )
        elif index_obj.csr is not None:
            # The index found nothing to prune (or no room for its key).
            columns = kernels.probe_columns(
                index_obj.csr, batch, self.boundaries, part_index, self._direction
            )
        else:
            columns = probe_pruned(
                index_obj,
                batch.key_ids,
                batch.starts,
                batch.ends,
                self.boundaries,
                part_index,
                self._direction,
            )
        outer_rows, inner_rows, common_starts, common_ends = columns
        # The block keeps the matched rows only -- not the outer block or the
        # run's pages -- so a result may outlive the layout it came from.
        return MatchBlock(
            kernels.take(index_obj.block, outer_rows),
            kernels.take(batch.tuples, inner_rows),
            common_starts,
            common_ends,
        )


def _probe_pages(
    chunks,
    engine: _ProbeEngine,
    probe_index,
    index: int,
    next_index: Optional[int],
    new_cache: Optional["_TupleCache"],
    result_file: HeapFile,
    collected: Optional[ValidTimeRelation],
    outcome: JoinOutcome,
    layout: DiskLayout,
    pair_fn: PairFn,
    swapped: bool,
    carried: Optional[PageBatch] = None,
) -> Tuple[int, int, int, int, Optional[PageBatch]]:
    """Join every page of a stream against the outer block.

    *chunks* yields the stream's pages in the lists they were read in (see
    :func:`_chunks`).  When *new_cache* is given, tuples overlapping the
    sweep's next partition are migrated into it as their page passes
    through memory (Figure 9's ``newCachePage`` handling) -- before the next
    page is read, so the main disk sees exactly the per-page access
    sequence.  The probe lags behind: pages gather into a run of
    :data:`RUN_ROWS` rows and are matched and emitted together.  The engine
    decides *how* rows are matched and filtered; emission and migration I/O
    happen here, writing the same result pages for every engine.  With
    *swapped* the pair function sees ``(inner row, outer row)``.

    *carried* holds the stream's rows and their columns as an earlier pass
    split them.  Every page is still read; a delivery that equals the
    carried rows at its offset takes their columns -- per page before a
    migration trusts them, per run before a probe does -- and any other is
    decomposed as on a first pass.

    Returns ``(pages, rows, emitted, migrated, seen)``: counts for the probe
    span -- derived from work already done, never changing what is done --
    and the stream as this pass saw it, for the next pass to carry (None
    when the engine keeps no columns).
    """
    parts: List = []  # every run as probed, in stream order

    def emit(run: List[Sequence[VTTuple]], start: int) -> int:
        """Probe one run, whose first row is the stream's row *start*;
        write its matches to the result stream, in order."""
        batch = None
        if carried is not None:
            rows = run[0] if len(run) == 1 else list(chain.from_iterable(run))
            batch = carried.matching(start, rows)
        if batch is None:
            batch = engine.decompose(run)
        parts.append(batch)
        matches = engine.probe(probe_index, batch, index)
        if isinstance(matches, MatchBlock):
            if swapped:
                matches = matches.flipped()
            if pair_fn is natural_pair:
                # The block *is* the natural result rows: O(pages) work.
                result_file.append_block(matches)
                if collected is not None:
                    collected.append_block(matches)
                outcome.n_result_tuples += len(matches)
                return len(matches)
            matches = matches.pairs()
        elif swapped:
            matches = ((inner, outer, common) for outer, inner, common in matches)
        emitted = 0
        for x, y, common in matches:
            joined = pair_fn(x, y, common)
            if joined is None:
                continue
            emitted += 1
            layout.write_result(result_file, joined)
            if collected is not None:
                collected.add(joined)
        outcome.n_result_tuples += emitted
        return emitted

    n_pages = n_rows = n_emitted = 0
    migrate = new_cache is not None and next_index is not None
    migrated: List[int] = []  # stream rows that went into the new cache
    # The carried rows due to migrate, named by one mask over the columns
    # and handed out page by page below.
    due = engine.overlapping_rows(carried, next_index) if migrate and carried else None
    due_at = 0
    run: List[Sequence[VTTuple]] = []
    run_start = 0
    for chunk in chunks:
        for page in chunk:
            n_pages += 1
            page_end = n_rows + len(page)
            if migrate:
                rows = None
                if due is not None:
                    upto = bisect_left(due, page_end, due_at)
                    if carried.tuples[n_rows:page_end] == page:
                        rows = [row - n_rows for row in due[due_at:upto]]
                    due_at = upto
                if rows is None:
                    rows = engine.overlapping_rows(page, next_index)
                if rows:
                    new_cache.extend([page[row] for row in rows])
                    migrated.extend(n_rows + row for row in rows)
            run.append(page)
            n_rows = page_end
        if n_rows - run_start >= RUN_ROWS:
            n_emitted += emit(run, run_start)
            run = []
            run_start = n_rows
    if run:
        n_emitted += emit(run, run_start)
    seen = _carried_columns(parts)
    if migrated and seen is not None:
        new_cache.carry(seen.take(migrated))
    return n_pages, n_rows, n_emitted, len(migrated), seen


def _carried_columns(parts: List) -> Optional[PageBatch]:
    """The runs of one stream as one batch for a later pass to carry, or
    None unless every run is a batch of plain rows: the tuple engine
    decomposes nothing, and packed columnar rows are columns already."""
    if not parts or not all(
        isinstance(part, PageBatch) and isinstance(part.tuples, list) for part in parts
    ):
        return None
    return PageBatch.concat(parts)
