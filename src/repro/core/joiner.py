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

**State and step.**  The loop's carried variables are a :class:`SweepState`
and its body is :meth:`PartitionSweep.step`, state before a partition to
state after it.  A fresh run, a resumed one and the one-partition case all
reach that one step through :meth:`PartitionSweep.run`, and a checkpoint is
the state frozen.

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
(``execution="tuple"``, the oracle) or through the batch engine
(``"batch"``), which holds each run as a
columnar :class:`~repro.exec.batch.PageBatch` and window-searches it
against the numpy-vectorized interval-pruned index of
:mod:`repro.exec.pruned_probe`.  Both paths emit identical matches in
identical order and charge identical I/O; the integration tests assert
bit-equality of outcomes and per-phase statistics.

**Pages and runs.**  What ties the sweep to page granularity is only the
main disk's access sequence: a migrant must reach the new cache before the
next page is read, because old-cache reads and new-cache writes share the
CACHE head.  So *migration* is decided per page, and the *probe* per run:
a walked pass gathers pages until a run holds :data:`RUN_ROWS` rows (or
the stream ends) and probes them together.  Results may therefore lag the
main disk, main-disk accesses are never reordered, and a crash drops an
unemitted run like any other volatile buffer.  A pass that migrates reads
page by page; where no other main-disk access can fall between two pages
-- the outer-partition scan, the passes of overflow blocks and of the last
partition, the overflow spill's round trip -- the batch engine reads (and
is charged for) a run in one call, which is the same access sequence.  On
demand I/O over a disk with no faults and no checksums, the batch engine
need not walk a pass at all: once it has checked, uncharged, that the
stream's stored pages are the rows it carries, it bills the walk's charges
in the walk's order from those rows (:meth:`PartitionSweep._pass`).  Where
the walk would fill a new-cache page is known up front, so the whole pass
is one :meth:`~repro.storage.disk.SimulatedDisk.charge_runs` call
(:func:`_schedule`); its rows are then probed in one kernel call that
emits a block per chunk of candidates
(:data:`~repro.exec.kernels.CANDIDATE_BUDGET`), and the new cache takes
the pass's migrants whole, its pages stored uncharged.  Results go to a
disk of their own, so how emission is grouped never shows on the main
disk.

**Split once.**  A row's ``(key, start, end)`` columns are derived once
per relation version and arrive here on the partition files
(:attr:`~repro.storage.heapfile.HeapFile.carried`); the batch engine
carries them with the row from then on (see :class:`_BatchEngine`), and any
delivery -- a first scan, a re-read from the tuple cache, a re-scan for an
overflow block -- is compared with what is carried, not decomposed again.
Carried columns are volatile like the rows' buffers: a checkpoint stores
rows only.

**Emission.**  The batch engine hands back each run's (or chunk's)
matches as one :class:`~repro.model.match_block.MatchBlock` -- matched
rows plus the ``starts | ends`` columns -- and for the natural pair
function that block is appended whole to the result file and the
collected relation, which build a ``VTTuple`` only when someone reads one.
Any other pair function may reject or rewrite a pair, so it is called per
row of the block; the tuple engine always calls it per match (it is the
oracle for the block path too).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.intervals import PartitionMap
from repro.exec import EXECUTION_MODES
from repro.exec.batch import CodeTranslator, PageBatch, RowRefs, extended
from repro.exec.kernels import concat_chunks, get_kernels
from repro.exec.pruned_probe import PrunedProbeIndex, probe_pruned_chunks
from repro.model.match_block import MatchBlock
from repro.model.relation import ValidTimeRelation
from repro.model.schema import RelationSchema
from repro.model.vtuple import VTTuple
from repro.obs import span_or_null
from repro.resilience.checkpoint import SweepCheckpoint, SweepCheckpointer, SweepContext
from repro.storage.buffer import BufferPool, Reservation
from repro.storage.heapfile import HeapFile
from repro.storage.disk import PageRun
from repro.storage.layout import Device, DiskLayout
from repro.time.interval import Interval

if TYPE_CHECKING:  # degrade imports this module; annotation-only the other way
    from repro.obs import Observability
    from repro.resilience.degrade import BufferReduction

#: Builds a result tuple from a matched pair and their interval overlap, or
#: None to reject the pair.  The default is the natural-join combination;
#: predicate variants (overlap-join, contain-join, ...) substitute their own.
PairFn = Callable[[VTTuple, VTTuple, Interval], Optional[VTTuple]]


#: Rows a walked pass gathers before it probes and emits them: enough that
#: a kernel call's fixed cost is amortized (8-tuple pages: 1.7 s at 8 rows,
#: 0.8 s at 64, flat within noise from 256 to 4096), and exactly one page
#: under 512-row page geometries.  Also the rows one run *read* fetches
#: where a scan may be charged by run (:func:`_chunks`).  A billed pass
#: probes all its rows at once.
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
    # Ignored; kept only because the frozen benchmark suite's
    # benchmarks/suite/library.py::_replay passes all three.
    prefetch_depth: int = 8,
    sweep_workers: Optional[int] = None,
    supervision=None,
    pool: Optional[BufferPool] = None,
    checkpointer: Optional[SweepCheckpointer] = None,
    buffer_reductions: Sequence["BufferReduction"] = (),
    swapped_inputs: bool = False,
    obs: Optional["Observability"] = None,
) -> JoinOutcome:
    """Join pre-partitioned relations ``r`` and ``s`` (Appendix A.1): a
    fresh :class:`SweepState` driven to the end by one :class:`PartitionSweep`.

    Args:
        r_parts, s_parts: outer and inner partitions, index-aligned with
            *partition_map*, the partitioning both were built with.
        buff_size: pages of the outer-partition buffer area (Figure 3).
        layout: disk layout (tuple cache goes to the CACHE device, result to
            the excluded RESULT stream).
        result_schema: schema of the result, required when *collect* is True.
        collect: materialize the result relation in memory as well as
            writing it through the result stream.
        direction, cache_memory_tuples, execution: the sweep's fixed
            parameters, see the module docstring.
        swapped_inputs: *r_parts* hold the caller's inner relation, so
            *pair_fn* is called as ``pair_fn(s_row, r_row, overlap)``.
        prefetch_depth, sweep_workers, supervision: ignored (see the
            signature).
        pair_fn, pool, checkpointer, buffer_reductions, obs: the run's
            collaborators, see :class:`PartitionSweep`.
    """
    if len(r_parts) != len(partition_map) or len(s_parts) != len(partition_map):
        raise ValueError("partition lists must align with the partition map")
    if collect and result_schema is None:
        raise ValueError("collect=True requires a result_schema")
    context = SweepContext(
        r_parts=tuple(r_parts),
        s_parts=tuple(s_parts),
        partition_map=partition_map,
        buff_size=buff_size,
        result_schema=result_schema,
        collect=collect,
        direction=direction,
        cache_memory_tuples=cache_memory_tuples,
        execution=execution,
        result_file=layout.result_file("join_result"),
        swapped=swapped_inputs,
    )
    sweep = PartitionSweep(
        context,
        layout,
        pair_fn=pair_fn,
        pool=pool,
        checkpointer=checkpointer,
        buffer_reductions=buffer_reductions,
        obs=obs,
    )
    state = SweepState.fresh(context)
    if checkpointer is not None:
        checkpointer.begin(context, state)
    return sweep.run(state)


@dataclass
class SweepState:
    """What the sweep carries across a partition boundary -- Figure 9's loop
    variables -- and nothing else: :meth:`PartitionSweep.step` maps the state
    before a partition to the state after it.  A checkpoint is this state
    :meth:`frozen <freeze>`; resuming is :meth:`thaw` and more steps.

    Attributes:
        position: completed sweep steps (the sweep order is the context's).
        outer_retained: the outer buffer as the last step left it, with the
            columns the batch engine carries; the next step purges it.
        cache: the tuple cache the last step filled (None before the first
            step and in a one-partition sweep), with its carried columns.
        result_file: the result stream.
        outcome: the collected relation and the four counters.

    Durable as they stand: the cache's spill file and the result file, which
    a checkpoint captures as watermarks.  Volatile: the retained rows, the
    cache's resident area and the counters, which a checkpoint stores -- as
    rows; carried columns are never stored -- and the result file's write
    buffer, flushed before one is written.
    """

    position: int
    outer_retained: Sequence[VTTuple]
    cache: Optional["_TupleCache"]
    result_file: HeapFile
    outcome: JoinOutcome

    @classmethod
    def fresh(cls, context: SweepContext) -> "SweepState":
        """The state before the first partition."""
        collected = (
            ValidTimeRelation(context.result_schema) if context.collect else None
        )
        return cls(0, [], None, context.result_file, JoinOutcome(result=collected))

    @classmethod
    def thaw(
        cls, context: SweepContext, checkpoint: SweepCheckpoint, layout: DiskLayout
    ) -> "SweepState":
        """The state *checkpoint* froze, with everything the interrupted run
        did past it discarded: the result and spill files are rolled back to
        their watermarks (uncharged) and the collected relation is re-read
        from the surviving result pages.  Rows come back, never columns: the
        first scan decomposes them afresh.
        """
        state = cls.fresh(context)
        state.position = checkpoint.position
        state.outer_retained = list(checkpoint.outer_retained)
        state.result_file.rewind_to(checkpoint.result_pages, checkpoint.result_tuples)
        outcome = state.outcome
        if outcome.result is not None:
            for tup in state.result_file.all_tuples():
                outcome.result.add(tup)
        outcome.n_result_tuples = checkpoint.n_result_tuples
        outcome.overflow_blocks = checkpoint.overflow_blocks
        outcome.cache_tuples_peak = checkpoint.cache_tuples_peak
        outcome.cache_tuples_spilled = checkpoint.cache_tuples_spilled
        if checkpoint.cache_name is not None:
            state.cache = cache = _TupleCache(
                layout, checkpoint.cache_name, *_cache_shape(context)
            )
            cache.resident = list(checkpoint.cache_resident)
            if checkpoint.cache_spill is not None:
                checkpoint.cache_spill.rewind_to(
                    checkpoint.cache_spill_pages, checkpoint.cache_spill_tuples
                )
                cache.spill = checkpoint.cache_spill
        return state

    def freeze(self, epoch: int) -> SweepCheckpoint:
        """This boundary state as the record a checkpoint commits."""
        cache, outcome = self.cache, self.outcome
        spill = cache.spill if cache is not None else None
        return SweepCheckpoint(
            position=self.position,
            outer_retained=tuple(self.outer_retained),
            cache_resident=tuple(cache.resident) if cache is not None else (),
            cache_spill=spill,
            cache_spill_pages=spill.n_pages if spill is not None else 0,
            cache_spill_tuples=spill.n_tuples if spill is not None else 0,
            cache_name=cache.name if cache is not None else None,
            result_pages=self.result_file.n_pages,
            result_tuples=self.result_file.n_tuples,
            n_result_tuples=outcome.n_result_tuples,
            overflow_blocks=outcome.overflow_blocks,
            cache_tuples_peak=outcome.cache_tuples_peak,
            cache_tuples_spilled=outcome.cache_tuples_spilled,
            epoch=epoch,
        )


class PartitionSweep:
    """Figure 9's loop: :meth:`step` is its body for one partition,
    :meth:`barrier` what happens between two, :meth:`run` the shell that
    drives a :class:`SweepState` -- fresh or thawed, the sweep cannot tell
    -- to the end.

    Args:
        context: the sweep's fixed parameters.
        layout: the disk layout the partitions live on.
        pair_fn: builds (or rejects) a result tuple per matched pair.
        pool: when given, :meth:`run` reserves the Figure 3 regions in this
            :class:`BufferPool` and guarantees -- on success, failure, or
            simulated crash -- that every reservation is released.
        checkpointer: when given, a boundary checkpoint is written every
            ``checkpointer.interval`` completed partitions.
        buffer_reductions: scheduled mid-sweep shrinks of the outer area;
            from each reduction's position on, the sweep runs with the
            smaller buffer, routing the excess through the Section 3.4
            overflow machinery and recording a degradation event.
        obs: optional :class:`~repro.obs.Observability` runtime.  Purely
            observational: results, outcome counters, and charged I/O are
            bit-identical with or without it.
    """

    def __init__(
        self,
        context: SweepContext,
        layout: DiskLayout,
        *,
        pair_fn: PairFn = natural_pair,
        pool: Optional[BufferPool] = None,
        checkpointer: Optional[SweepCheckpointer] = None,
        buffer_reductions: Sequence["BufferReduction"] = (),
        obs: Optional["Observability"] = None,
    ) -> None:
        direction, execution = context.direction, context.execution
        if direction not in ("backward", "forward"):
            raise ValueError(
                f"direction must be 'backward' or 'forward', got {direction!r}"
            )
        if execution not in EXECUTION_MODES:
            raise ValueError(
                f"execution must be one of {EXECUTION_MODES}, got {execution!r}"
            )
        self._context = context
        self._layout = layout
        self._pair_fn = pair_fn
        self._pool = pool
        self._checkpointer = checkpointer
        self._reductions = buffer_reductions
        self._obs = obs
        self.n = len(context.partition_map)
        if direction == "backward":
            # The paper's order: tuples stored in their last partition, the
            # sweep runs n..1, migration moves backward, and a pair is owned by
            # the partition holding its overlap's END chronon.
            self._order = range(self.n - 1, -1, -1)
        else:
            # Footnote 1's equivalent strategy: first-partition storage, sweep
            # 1..n, forward migration, ownership by the overlap's START chronon.
            self._order = range(self.n)
        # What an execution name chooses: how rows are matched.  Every page
        # is read on demand (or a pass billed, when what is stored is what
        # it carries); the tuple engine also reads page by page throughout:
        # it is the oracle for the access sequence too.
        self._by_run = execution != "tuple"
        if execution == "tuple":
            self._engine: _ProbeEngine = _TupleEngine(context.partition_map, direction)
        else:
            self._engine = _BatchEngine(context.partition_map, direction)
        self._outer_reservation: Optional[Reservation] = None
        self._filling: Optional[_TupleCache] = None  # the cache a step is in

    def run(self, state: SweepState) -> JoinOutcome:
        """Step *state* to the end of the sweep and return its outcome."""
        context, obs, pool = self._context, self._obs, self._pool
        reservations: List[Reservation] = []
        try:
            if pool is not None:
                # Figure 3: the outer area, the three fixed in-transit pages,
                # and any resident tuple-cache area.  Taken in here, so a
                # refused one still returns those before it.
                self._outer_reservation = pool.reserve(
                    "outer_partition", context.buff_size
                )
                reservations.append(self._outer_reservation)
                for label in ("inner_page", "tuple_cache_page", "result_page"):
                    reservations.append(pool.reserve(label, 1))
                resident_pages = self._layout.spec.pages_for_tuples(
                    context.cache_memory_tuples
                )
                if resident_pages:
                    reservations.append(pool.reserve("cache_resident", resident_pages))
                _pool_gauges(obs, pool)
            with span_or_null(
                obs,
                "sweep",
                partitions=self.n,
                direction=context.direction,
                execution=context.execution,
                buff_size=context.buff_size,
                resume_position=state.position,
            ) as sweep_span:
                while state.position < self.n:
                    self.step(state)
                    if state.position < self.n:
                        self.barrier(state)
                state.result_file.flush()
                outcome = state.outcome
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
            # left it; a thaw rewinds it to the last checkpoint's watermarks.
            state.result_file.abandon()
            for cache in (state.cache, self._filling):
                if cache is not None and cache.spill is not None:
                    cache.spill.abandon()
            raise
        finally:
            for reservation in reservations:
                reservation.release()
            _pool_gauges(obs, pool)

    def _buffer_in_force(self, pos: int) -> int:
        """Pages of the outer area at sweep position *pos* (-1: before the
        sweep): the configured buffer, or the smallest reduction scheduled at
        or before *pos*."""
        return min(
            [self._context.buff_size]
            + [red.buff_size for red in self._reductions if red.at_position <= pos]
        )

    def _block_tuples(self, pos: int) -> int:
        """Rows one outer block holds at sweep position *pos*."""
        return max(1, self._buffer_in_force(pos) * self._layout.spec.capacity)

    def step(self, state: SweepState) -> None:
        """Figure 9's loop body for the partition at ``state.position``:
        purge and refill the outer buffer, join it with the old tuple cache
        and with ``s_i``, fill the new cache, advance."""
        context, engine, obs = self._context, self._engine, self._obs
        pos, outcome = state.position, state.outcome
        index = self._order[pos]
        # The partition the sweep visits next, whose cache this step fills.
        next_index = self._order[pos + 1] if pos + 1 < self.n else None
        with span_or_null(obs, "partition", position=pos, partition=index) as part_span:
            self._shrink_buffer(pos)
            block_tuples = self._block_tuples(pos)

            # Purge retained outer tuples that do not reach this
            # partition, then read the partition itself from disk.
            outer_file = context.r_parts[index]
            outer_carried = engine.carried(outer_file)
            outer_pages = list(
                chain.from_iterable(_scan(outer_file, self._by_run, outer_carried))
            )
            outer = engine.assemble_outer(
                state.outer_retained, outer_pages, index, outer_carried
            )
            new_cache = None
            if next_index is not None:
                new_cache = _TupleCache(
                    self._layout, f"tuple_cache_{next_index}", *_cache_shape(context)
                )
            self._filling = new_cache

            blocks = _split_blocks(outer, block_tuples)
            if len(blocks) > 1:
                outcome.overflow_blocks += len(blocks) - 1
                if obs is not None:
                    obs.event("overflow", partition=index, blocks=len(blocks) - 1)
                    obs.count(
                        "repro_overflow_blocks_total",
                        "Extra outer blocks forced by partition overflow.",
                        float(len(blocks) - 1),
                    )
                _charge_spill(blocks[1:], self._layout, index)

            totals = {"rows": 0, "matches": 0, "migrated": 0}
            # The columns each stream's rows were split into: the cache's
            # carried from the partition that filled it, the inner
            # partition's on its file.
            seen: Dict[str, Optional[PageBatch]] = {
                "cache": state.cache.carried() if state.cache is not None else None,
                "inner": engine.carried(context.s_parts[index]),
            }
            for block_number, block in enumerate(blocks):
                probe_index = engine.build_index(block)
                # Migration happens exactly once.
                into = new_cache if block_number == 0 else None
                for source in ("cache", "inner") if state.cache is not None else ("inner",):
                    with span_or_null(
                        obs, "probe", source=source, partition=index, block=block_number
                    ) as probe_span:
                        counts, seen[source] = self._pass(
                            state, source, probe_index, index, next_index, into, seen[source]
                        )
                        probe_span.set(**counts)
                    for key in totals:
                        totals[key] += counts[key]

            if new_cache is not None:
                new_cache.flush()
                outcome.cache_tuples_peak = max(
                    outcome.cache_tuples_peak, new_cache.n_tuples
                )
                if new_cache.spill is not None:
                    outcome.cache_tuples_spilled += new_cache.spill.n_tuples
            state.cache = new_cache
            state.outer_retained = outer
            part_span.set(
                blocks=len(blocks),
                outer_tuples=len(outer),
                probe_rows=totals["rows"],
                matches=totals["matches"],
                migrated=totals["migrated"],
            )
            if obs is not None:
                obs.observe(
                    "repro_probe_rows_per_partition",
                    float(totals["rows"]),
                    "Rows probed against the outer block, per partition.",
                )
        state.position = pos + 1

    def _pass(
        self,
        state: SweepState,
        source: str,
        probe_index,
        index: int,
        next_index: Optional[int],
        new_cache: Optional["_TupleCache"],
        carried: Optional[PageBatch],
    ) -> Tuple[Dict[str, int], Optional[PageBatch]]:
        """One pass of the outer block over a stream -- ``"cache"``, the old
        tuple cache's resident rows then its spill file, or ``"inner"``, the
        partition ``s_i`` -- whose rows were split into *carried* before:
        walked (:meth:`_probe_pages`, by run unless it migrates), or billed
        when the I/O finds the stored pages to be the carried rows.

        A billed pass delivers nothing.  Where the walk would write a
        new-cache page is known up front -- after the page holding a migrant
        that fills one (:meth:`_TupleCache.fills`) -- so the whole walk is
        billed in one :meth:`~repro.storage.disk.SimulatedDisk.charge_runs`
        call (:func:`_schedule`); the engine then probes all carried rows in
        one call, emitting a block per chunk, and the new cache takes the
        migrants whole.  The result stream has its own disk, so when it is
        written leaves the main disk's sequence as the walk's.
        """
        if source == "cache":
            resident, heap = state.cache.resident, state.cache.spill
        else:
            resident, heap = [], self._context.s_parts[index]
        bounds = _stored_bounds(resident, heap, carried)
        if bounds is None:
            runs = self._by_run and new_cache is None
            chunks = state.cache.chunks(runs) if source == "cache" else _scan(heap, runs)
            return self._probe_pages(
                state, chunks, probe_index, index, next_index, new_cache, carried
            )
        engine = self._engine
        due = engine.overlapping_rows(carried, next_index) if new_cache is not None else []
        fills, spill = new_cache.fills(len(due)) if due else ([], None)
        # The pages the walk has read when each filling migrant arrives.
        reads = [bisect_right(bounds, due[fill] - len(resident)) for fill in fills]
        heap.disk.charge_runs(_schedule(heap.extent, reads, len(bounds) - 1, spill))
        n_emitted = sum(
            self._emit(state, block) for block in engine.probe_pass(probe_index, carried, index)
        )
        if due:
            new_cache.take(carried.take(due))
        n_pages = len(bounds) - 1 + bool(resident)
        counts = dict(pages=n_pages, rows=len(carried), matches=n_emitted, migrated=len(due))
        return counts, carried if n_pages else None

    def _probe_pages(
        self,
        state: SweepState,
        chunks,
        probe_index,
        index: int,
        next_index: Optional[int],
        new_cache: Optional["_TupleCache"],
        carried: Optional[PageBatch],
    ) -> Tuple[Dict[str, int], Optional[PageBatch]]:
        """Join every page of a stream against the outer block.

        *chunks* yields the stream's pages in the lists they were read in (see
        :func:`_chunks`).  When *new_cache* is given, tuples overlapping the
        sweep's next partition are migrated into it as their page passes
        through memory (Figure 9's ``newCachePage`` handling) -- before the next
        page is read, so the main disk sees exactly the per-page access
        sequence.  The probe lags behind: pages gather into a run of
        :data:`RUN_ROWS` rows and are matched and emitted together
        (:meth:`_emit`).  The engine decides *how* rows are matched and
        filtered; emission and migration I/O happen here, writing the same
        result pages for every engine.

        *carried* holds the stream's rows and their columns as they were
        split before (handed down on the file, or by an earlier pass).  Every
        page is still read; a delivery that equals the carried rows at its
        offset takes their columns -- per page before a migration trusts
        them, per run before a probe does -- and any other is decomposed.

        Returns ``(counts, seen)``: the pages, rows, matches and migrated
        rows of this pass for the probe span -- derived from work already
        done, never changing what is done -- and the stream as this pass saw
        it, for the next pass to carry (None when the engine keeps no columns).
        """
        engine = self._engine
        parts: List = []  # every run as probed, in stream order

        def probe(run: List[Sequence[VTTuple]], start: int) -> int:
            """Probe and emit one run, whose first row is the stream's row
            *start*."""
            batch = None
            if carried is not None:
                rows = run[0] if len(run) == 1 else list(chain.from_iterable(run))
                batch = carried.matching(start, rows)
            if batch is None:
                batch = engine.decompose(run)
            parts.append(batch)
            return self._emit(state, engine.probe(probe_index, batch, index))

        n_pages = n_rows = n_emitted = 0
        migrate = new_cache is not None
        migrated: List[int] = []  # stream rows that went into the new cache
        # The carried rows due to migrate, named by one mask over the columns
        # and handed out page by page below.
        due = None
        if migrate and carried:
            due = engine.overlapping_rows(carried, next_index)
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
                        if carried.holds(n_rows, page):
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
                n_emitted += probe(run, run_start)
                run = []
                run_start = n_rows
        if run:
            n_emitted += probe(run, run_start)
        seen = _carried_columns(parts)
        if migrated and seen is not None:
            new_cache.carry(seen.take(migrated))
        counts = dict(
            pages=n_pages, rows=n_rows, matches=n_emitted, migrated=len(migrated)
        )
        return counts, seen

    def _emit(self, state: SweepState, matches) -> int:
        """Write one run's *matches* to the result stream, in order; returns
        how many rows went out.  With swapped inputs the pair function sees
        ``(inner row, outer row)``, the caller's order."""
        pair_fn, collected = self._pair_fn, state.outcome.result
        if isinstance(matches, MatchBlock):
            if self._context.swapped:
                matches = matches.flipped()
            if pair_fn is natural_pair:
                # The block *is* the natural result rows: O(pages) work.
                state.result_file.append_block(matches)
                if collected is not None:
                    collected.append_block(matches)
                state.outcome.n_result_tuples += len(matches)
                return len(matches)
            matches = matches.pairs()
        elif self._context.swapped:
            matches = ((inner, outer, common) for outer, inner, common in matches)
        emitted = 0
        for x, y, common in matches:
            joined = pair_fn(x, y, common)
            if joined is None:
                continue
            emitted += 1
            self._layout.write_result(state.result_file, joined)
            if collected is not None:
                collected.add(joined)
        state.outcome.n_result_tuples += emitted
        return emitted

    def _shrink_buffer(self, pos: int) -> None:
        """Shrink the outer reservation to the buffer in force at *pos*, and
        record a reduction that starts here.  One that started before a
        thawed state's position shrinks silently: the interrupted run
        already recorded it."""
        reservation, report = self._outer_reservation, self._layout.disk.report
        buff_size = self._buffer_in_force(pos)
        if reservation is not None and buff_size < reservation.pages:
            reservation.resize(buff_size)
            _pool_gauges(self._obs, self._pool)
        # Once per position: a step replayed after a crash inside it finds
        # the event the interrupted run left on the (surviving) report.
        if buff_size < self._buffer_in_force(pos - 1) and not any(
            event.kind == "buffer-reduction" and event.position == pos
            for event in report.degradations
        ):
            report.record_degradation(
                "buffer-reduction",
                f"outer buffer shrunk to {buff_size} pages at sweep position {pos}",
                position=pos,
                obs=self._obs,
                buff_size=buff_size,
            )

    def barrier(self, state: SweepState) -> None:
        """Between two partitions: flush the result and checkpoint *state*
        when one is due."""
        obs, checkpointer = self._obs, self._checkpointer
        if checkpointer is not None and checkpointer.due(state.position):
            # Durability point: stored watermarks must cover every
            # emitted tuple, so the result buffer goes out first.
            state.result_file.flush()
            checkpointer.write(state)
            if obs is not None:
                obs.event("checkpoint", position=state.position)
                obs.count(
                    "repro_checkpoints_total",
                    "Boundary checkpoints written mid-sweep.",
                )


def _schedule(extent, reads: List[int], n_pages: int, spill) -> List[Tuple]:
    """A billed pass over the *n_pages* of *extent* as one
    :meth:`~repro.storage.disk.SimulatedDisk.charge_runs` schedule, in the
    walk's order: the ``k``-th new-cache page, page ``spill[1] + k`` of
    extent ``spill[0]``, is written once ``reads[k]`` pages are read."""
    runs, read = [], 0
    for fill, upto in enumerate(reads):
        runs.append((extent, read, upto - read, False))
        runs.append((spill[0], spill[1] + fill, 1, True))
        read = upto
    runs.append((extent, read, n_pages - read, False))
    return runs


def _cache_shape(context: SweepContext) -> Tuple[int, int]:
    """What every tuple cache of a sweep is built with: the rows of its
    resident area, and a capacity hint for its spill file."""
    return context.cache_memory_tuples, sum(part.n_tuples for part in context.s_parts)


def _scan(heap: HeapFile, by_run: bool, carried=None):
    """The pages of *heap* in the lists they are read in -- billed, the rows
    *carried* holds as one page, when the stored pages are those rows
    (:meth:`HeapFile.bill_scan`)."""
    if carried is not None and heap.bill_scan(carried.tuples):
        return [[carried.tuples]]
    return _chunks(heap, by_run)


def _stored_bounds(resident, heap, carried) -> Optional[List[int]]:
    """How *heap*'s stored pages split the rows *carried* holds after the
    *resident* ones (:meth:`HeapFile.stored_bounds`) when a pass over the
    stream may be billed; else None."""
    if carried is None or heap is None or carried.tuples[: len(resident)] != resident:
        return None
    return heap.stored_bounds(carried.tuples[len(resident) :] if resident else carried.tuples)


def _pool_gauges(obs: Optional["Observability"], pool: Optional[BufferPool]) -> None:
    """Publish the buffer pool's occupancy gauges."""
    if obs is None or pool is None:
        return
    for state, pages in (("used", pool.used_pages), ("free", pool.free_pages)):
        obs.gauge(
            "repro_buffer_pool_pages",
            float(pages),
            "Buffer pool occupancy in pages.",
            state=state,
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
        # A list, or -- once a billed pass migrated rows in -- references.
        self.resident: Sequence[VTTuple] = []
        self.spill: Optional[HeapFile] = None
        # The columns of the rows held, one batch per stream that filled the
        # cache, in arrival order.  Volatile: a checkpoint stores rows only.
        self._columns: List[PageBatch] = []


    def extend(self, tuples: List[VTTuple]) -> None:
        """Cache *tuples* in order: the resident area first, the rest spilled."""
        room = self._resident_room()
        self.resident = extended(self.resident, tuples[:room])
        if len(tuples) > room:
            self._spill(tuples[room:])

    def fills(self, n: int) -> Tuple[List[int], Optional[Tuple[object, int]]]:
        """Where :meth:`take` of *n* migrants writes spill pages, in closed
        form: the migrants whose arrival fills a page -- the first once the
        resident area and the open page are full, then every page
        capacity-th -- and ``(spill extent, index of the first page they
        write)``."""
        room = self._resident_room()
        if n <= room:
            return [], None
        spill = self._spill_file()
        first = room + spill.open_room - 1
        return list(range(first, n, spill.spec.capacity)), (spill.extent, spill.n_pages)

    def take(self, migrants: PageBatch) -> None:
        """Cache a billed pass's *migrants* whole, as :meth:`extend` would
        and with their columns: the spill pages they fill are stored
        uncharged, their writes being in the pass's schedule (:meth:`fills`)."""
        room = self._resident_room()
        self.resident = extended(self.resident, migrants.tuples[:room])
        if len(migrants) > room:
            spilled = migrants[room:] if room else migrants
            self._spill_file().install(spilled.tuples, spilled)
        self.carry(migrants)

    def _resident_room(self) -> int:
        return max(0, self._memory_tuples - len(self.resident))

    def _spill_file(self) -> HeapFile:
        if self.spill is None:
            self.spill = self._layout.cache_file(
                self.name, capacity_tuples=self._capacity_hint
            )
        return self.spill

    def _spill(self, tuples: List[VTTuple]) -> None:
        self._spill_file().append_many(tuples)

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
            yield from _chunks(self.spill, by_run)


def _chunks(heap: HeapFile, by_run: bool):
    """The pages of *heap* as the sweep consumes them: lists of pages read
    together.  One page at a time or, with *by_run*, :data:`RUN_ROWS` rows in
    one charged call, which is only for scans no other main-disk access
    falls into."""
    if by_run:
        return heap.scan_runs(RUN_ROWS)
    return ([page] for page in heap.scan_pages())

def _split_blocks(outer: List[VTTuple], block_tuples: int) -> List[List[VTTuple]]:
    """Split the outer partition into buffer-sized blocks (usually one)."""
    if len(outer) <= block_tuples:
        return [outer]
    return [outer[i : i + block_tuples] for i in range(0, len(outer), block_tuples)]


def _charge_spill(
    overflow_blocks: List[Sequence[VTTuple]], layout: DiskLayout, index: int
) -> None:
    """Charge the write and read-back of spilled overflow blocks.

    The tuples themselves stay in Python memory (the simulation is of cost,
    not capacity); what matters is that the overflow pays a round trip to
    the TEMP device: one run out, one run back -- billed, building no page,
    unless the disk must see the pages one by one.
    """
    rows = [block.tuples if isinstance(block, PageBatch) else block for block in overflow_blocks]
    pages = PageRun(RowRefs.concat(rows), layout.spec.capacity)
    disk = layout.disk
    extent = disk.allocate(
        f"overflow_spill_{index}", device=Device.TEMP, capacity=max(1, len(pages))
    )
    disk.append_run(extent, pages)
    if disk.stored(extent) is None:
        disk.read_run(extent, 0, len(pages))
    else:
        disk.charge_runs(((extent, 0, len(pages), False),))


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

    def carried(self, heap: HeapFile) -> Optional[PageBatch]:
        """The columns *heap* carries, in the form this engine probes, or
        None: what a scan of *heap* checks its deliveries against."""
        return None

    def assemble_outer(
        self, retained, pages: List[Sequence[VTTuple]], index: int, carried=None
    ):
        """The outer block of partition *index*: the *retained* rows that
        reach it, then the rows of the partition's *pages* (whose columns
        are *carried*, if the delivery is those rows), in order."""
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
    """The batch engine behind ``"batch"``: an
    interval-pruned index per outer block (which carries the CSR index
    instead where it finds nothing to prune), whole-column window search /
    intersection / owner filter over each run or billed pass.

    **Split once.**  A row in a tuple-list page travels with its ``(key
    id, start, end)`` columns as a :class:`~repro.exec.batch.PageBatch`: the
    outer block is one (purged by a mask, extended by the new partition's
    pages, cut into overflow blocks by slicing), the tuple cache keeps the
    columns of what it holds, and a delivered run gets its columns by
    comparing rows (:meth:`PageBatch.matching`) with what its file or its
    cache carries -- so every read, checksum and fault check still happens,
    and only a delivery that differs, or a file that carries nothing, is
    decomposed here.  A file carries key *codes*; :meth:`carried` turns them
    into this join's ids through one table per dictionary.
    """

    def __init__(self, partition_map: PartitionMap, direction: str) -> None:
        self._kernels = get_kernels()
        self.boundaries = self._kernels.prepare_boundaries(partition_map)
        self._interner = self._kernels.make_interner()
        self._translator = CodeTranslator(self._interner)
        self._direction = direction

    def carried(self, heap):
        batch = heap.carried
        if batch is None or batch.keys is None:
            return None
        self._translator.ensure_interned(batch.keys)
        ids = self._translator.table_for(batch.keys)[batch.key_ids]
        return PageBatch(batch.tuples, ids, batch.starts, batch.ends, self._interner)

    def assemble_outer(self, retained, pages, index, carried=None):
        if not isinstance(retained, PageBatch):  # a checkpoint's rows
            retained = self.decompose([list(retained)])
        kept = retained.take(self.overlapping_rows(retained, index))
        # One flat row sequence: a single page (a billed scan's references)
        # as it is.
        rows = pages[0] if len(pages) == 1 else list(chain.from_iterable(pages))
        fresh = carried.matching(0, rows) if carried is not None else None
        if fresh is None:
            fresh = self.decompose([rows])
        return PageBatch.concat([kept, fresh])

    def build_index(self, block: Sequence[VTTuple]):
        if not isinstance(block, PageBatch):
            block = self.decompose([block])
        return PrunedProbeIndex(
            block.tuples, self._interner, (block.key_ids, block.starts, block.ends)
        )

    def overlapping_rows(self, rows, index):
        if isinstance(rows, PageBatch):
            return rows.overlapping(self.boundaries.window(index))
        return self._kernels.migration_rows(rows, self.boundaries, index)

    def decompose(self, pages) -> PageBatch:
        return self._kernels.run_batch(pages, self._interner)

    def probe(self, index_obj, run, part_index) -> MatchBlock:
        batch = run if isinstance(run, PageBatch) else self.decompose(run)
        columns = concat_chunks(self._chunks(index_obj, batch, part_index))
        return self._block(index_obj.block, batch.tuples, columns)

    def probe_pass(self, index_obj, batch: PageBatch, part_index):
        """A billed pass's matches, its rows probed in one kernel call: one
        block per chunk of at most
        :data:`~repro.exec.kernels.CANDIDATE_BUDGET` candidates, in
        :meth:`probe`'s order."""
        for columns in self._chunks(index_obj, batch, part_index):
            yield self._block(index_obj.block, batch.tuples, columns)

    def _chunks(self, index_obj, batch: PageBatch, part_index):
        if index_obj.csr is not None:
            # The index found nothing to prune (or no room for its key).
            return self._kernels.probe_column_chunks(
                index_obj.csr, batch, self.boundaries, part_index, self._direction
            )
        return probe_pruned_chunks(
            index_obj, batch.key_ids, batch.starts, batch.ends,
            self.boundaries, part_index, self._direction,
        )

    def _block(self, outer, inner, columns) -> MatchBlock:
        take = self._kernels.take
        outer_rows, inner_rows, common_starts, common_ends = columns
        # The block keeps the matched rows only -- not the outer block or the
        # run's pages -- so a result may outlive the layout it came from.
        return MatchBlock(
            take(outer, outer_rows), take(inner, inner_rows), common_starts, common_ends
        )



def _carried_columns(parts: List) -> Optional[PageBatch]:
    """The runs of one stream as one batch for a later pass to carry, or
    None unless every run is a batch: the tuple engine decomposes nothing."""
    if not parts or not all(isinstance(part, PageBatch) for part in parts):
        return None
    return PageBatch.concat(parts)
