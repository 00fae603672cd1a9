"""``partitionJoin`` (Figure 2): the top-level valid-time partition join.

Wires the three phases together over a fresh disk layout:

1. ``determinePartIntervals`` -- sample the outer relation and choose the
   cost-minimizing partitioning (phase ``"sample"``).
2. ``doPartitioning`` -- Grace-partition both inputs (phase ``"partition"``).
3. ``joinPartitions`` -- the backward sweep (phase ``"join"``).

Device heads are parked between phases so sequentiality cannot leak across
phase boundaries, and per-phase I/O is recorded on the layout's
:class:`~repro.storage.iostats.PhaseTracker`, giving exactly the paper's
``C_total = C_sample + C_partition + C_join`` decomposition.
"""

from __future__ import annotations

import dataclasses
import random
from contextlib import contextmanager, nullcontext
from functools import partial
from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple

from repro.core.joiner import (
    JoinOutcome,
    PairFn,
    PartitionSweep,
    SweepState,
    join_partitions,
    natural_pair,
)
from repro.core.partitioner import do_partitioning
from repro.core.planner import PartitionPlan, determine_part_intervals
from repro.exec import ALL_EXECUTION_MODES, EXECUTION_MODES  # noqa: F401 (re-exported)
from repro.obs import Observability, ObservabilityConfig
from repro.model.errors import (
    BufferOverflowError,
    CheckpointError,
    PermanentIOFaultError,
    PlanError,
)
from repro.model.relation import ValidTimeRelation
from repro.model.schema import RelationSchema
from repro.resilience.checkpoint import RecoveryLog, SweepCheckpointer
from repro.resilience.degrade import BufferReduction, fallback_nested_loop_join
from repro.resilience.report import ResilienceReport
from repro.resilience.retry import RetryPolicy
from repro.storage.buffer import BufferPool, JoinBufferAllocation
from repro.storage.iostats import CostModel
from repro.storage.layout import DiskLayout
from repro.storage.page import PageSpec
from repro.time.interval import Interval

#: The temporal predicate the partition machinery evaluates.
NATURAL_PREDICATE = "intersects"


@dataclass(frozen=True)
class PartitionJoinConfig:
    """Knobs of the partition-join evaluation.

    Attributes:
        memory_pages: total main-memory buffer pages (the Figure 3 budget:
            ``buffSize`` plus the three fixed single-page areas).
        cost_model: random/sequential I/O weights.
        page_spec: page geometry.
        seed: RNG seed for sampling (fixed for reproducible experiments).
        allow_scan_sampling: Section 4.2 sampling optimization switch.
        max_plan_candidates: planner candidate-grid size.
        collect_result: materialize the result relation in memory.
        sweep_direction: ``"backward"`` (the paper: last-partition storage,
            sweep n..1) or ``"forward"`` (footnote 1's equivalent strategy:
            first-partition storage, sweep 1..n).
        cache_buffer_pages: pages of the buffer re-purposed to keep the
            tuple cache resident -- the Section 5 future-work trade-off
            ("trading off outer relation partition space for tuple cache
            space").  Taken out of the outer-partition area; 0 reproduces
            the paper's Figure 3 allocation.
        sample_inner_relation: base the planner's tuple-cache estimate on a
            small charged sample of the inner relation instead of assuming
            the outer's temporal distribution transfers (the Section 5
            mis-estimation caveat).
        execution: how the per-tuple compute runs.  ``"tuple"`` is the
            tuple-at-a-time oracle; ``"batch"`` routes partitioning and the
            sweep through the batch kernels of :mod:`repro.exec` (the
            interval-pruned probe of :mod:`repro.exec.pruned_probe`).
            The two produce bit-identical results, counters and
            per-phase I/O statistics; see ``docs/EXECUTION.md``.
            ``"forward-sweep"`` is the endpoint-sorted forward-scan sweep
            operator of :mod:`repro.exec.forward_sweep`: no sampling, no
            partitioning -- one merged scan with gapless active maps (plus
            a charged sort pass per input lacking endpoint-sorted
            metadata), the only execution evaluating non-natural
            ``predicate`` values.
        predicate: the temporal predicate to evaluate, by
            :mod:`repro.algebra.predicates` registry name.  The partition
            executions support only the natural join (``"intersects"``);
            every other predicate requires ``execution="forward-sweep"``.
        parallel_workers, sweep_workers, prefetch_depth: have no effect
            (every join runs in one process, demand-paged); still accepted
            and validated because the frozen benchmark suite sets or passes
            them.
        checkpoint_interval: completed partitions between sweep checkpoints;
            0 (the default) disables checkpointing, >= 1 makes the sweep
            resumable via :func:`resume_join`.
        retry_limit: override of the disk's retry bound for transient
            faults (None keeps the layout's policy).
        degraded_fallback: when a page fails permanently, re-evaluate the
            join as a block nested loop over the base relations instead of
            raising; the degradation is recorded on the resilience report.
        buffer_reductions: scheduled mid-sweep shrinks of the outer buffer
            area (:class:`~repro.resilience.degrade.BufferReduction`).
        observability: when set, the run records structured spans and
            metrics into an :class:`~repro.obs.Observability` runtime,
            returned on the result.  Strictly observational: results,
            outcome counters, and charged I/O are bit-identical with the
            knob on or off (see ``docs/OBSERVABILITY.md``).

    Every knob is validated centrally here, so a bad configuration fails at
    construction with a clear message instead of deep inside a phase.

    The dataclass is frozen, hence hashable: a config can key the service
    layer's plan and result caches (see ``docs/SERVICE.md``), and mutation
    attempts raise ``FrozenInstanceError`` -- derive variants with
    :func:`dataclasses.replace`.
    """

    memory_pages: int
    cost_model: CostModel = field(default_factory=CostModel)
    page_spec: PageSpec = field(default_factory=PageSpec)
    seed: int = 0x1CDE1994
    allow_scan_sampling: bool = True
    max_plan_candidates: int = 64
    collect_result: bool = True
    sweep_direction: str = "backward"
    cache_buffer_pages: int = 0
    sample_inner_relation: bool = False
    execution: str = "tuple"
    predicate: str = NATURAL_PREDICATE
    # parallel_workers, sweep_workers and prefetch_depth are read by
    # nothing; kept only because the frozen benchmark suite's
    # benchmarks/suite/library.py sets the first two (_mode_table) and
    # passes all three on (_replay).
    parallel_workers: Optional[int] = None
    prefetch_depth: int = 8
    sweep_workers: Optional[int] = None
    checkpoint_interval: int = 0
    retry_limit: Optional[int] = None
    degraded_fallback: bool = True
    buffer_reductions: Tuple[BufferReduction, ...] = ()
    observability: Optional[ObservabilityConfig] = None

    def __post_init__(self) -> None:
        min_pages = JoinBufferAllocation.FIXED_PAGES + 1
        if self.memory_pages < min_pages:
            raise BufferOverflowError(
                f"partition join needs >= {min_pages} buffer pages (buffSize "
                f"plus the {JoinBufferAllocation.FIXED_PAGES} fixed single-page "
                f"areas of Figure 3), got {self.memory_pages}"
            )
        if self.cache_buffer_pages < 0:
            raise ValueError("cache_buffer_pages must be non-negative")
        if self.memory_pages - JoinBufferAllocation.FIXED_PAGES - self.cache_buffer_pages < 1:
            raise PlanError(
                f"cache reservation of {self.cache_buffer_pages} pages leaves no "
                f"outer-partition space in a {self.memory_pages}-page buffer"
            )
        if self.execution not in ALL_EXECUTION_MODES:
            raise ValueError(
                f"execution must be one of {ALL_EXECUTION_MODES}, "
                f"got {self.execution!r}"
            )
        from repro.algebra.predicates import resolve_predicate

        resolve_predicate(self.predicate)  # raises on unknown names
        if self.predicate != NATURAL_PREDICATE and self.execution != "forward-sweep":
            raise ValueError(
                f"predicate {self.predicate!r} requires execution="
                f"'forward-sweep'; the partition modes evaluate only the "
                f"valid-time natural join ({NATURAL_PREDICATE!r})"
            )
        if self.execution == "forward-sweep":
            if self.checkpoint_interval > 0:
                raise ValueError(
                    "forward-sweep does not checkpoint (it has no partition "
                    "barriers); set checkpoint_interval=0"
                )
            if self.buffer_reductions:
                raise ValueError(
                    "forward-sweep ignores the outer buffer area; "
                    "buffer_reductions only apply to partition executions"
                )
        if self.parallel_workers is not None and self.parallel_workers < 1:
            raise ValueError(
                f"parallel_workers must be >= 1 (or None for the default), "
                f"got {self.parallel_workers}"
            )
        if not isinstance(self.prefetch_depth, int) or self.prefetch_depth < 0:
            raise ValueError(
                f"prefetch_depth must be an integer >= 0, got {self.prefetch_depth!r}"
            )
        if self.sweep_workers is not None and self.sweep_workers < 1:
            raise ValueError(
                f"sweep_workers must be >= 1 (or None for the default), "
                f"got {self.sweep_workers}"
            )
        if not isinstance(self.checkpoint_interval, int) or self.checkpoint_interval < 0:
            raise ValueError(
                f"checkpoint_interval must be an integer >= 1, or 0 to disable "
                f"checkpointing, got {self.checkpoint_interval!r}"
            )
        if self.retry_limit is not None and self.retry_limit < 0:
            raise ValueError(
                f"retry_limit must be >= 0 (or None for the layout's policy), "
                f"got {self.retry_limit}"
            )
        for reduction in self.buffer_reductions:
            if not isinstance(reduction, BufferReduction):
                raise ValueError(
                    f"buffer_reductions must hold BufferReduction objects, "
                    f"got {reduction!r}"
                )
        if self.observability is not None and not isinstance(
            self.observability, ObservabilityConfig
        ):
            raise ValueError(
                f"observability must be an ObservabilityConfig or None, "
                f"got {self.observability!r}"
            )

    @property
    def buff_size(self) -> int:
        """Outer-partition pages after the fixed areas and cache reservation."""
        return (
            self.memory_pages
            - JoinBufferAllocation.FIXED_PAGES
            - self.cache_buffer_pages
        )

    def supervision_policy(self) -> None:
        """Always None: a join has nothing to supervise.  Kept only because
        the frozen benchmark suite's benchmarks/suite/library.py::_replay
        calls it."""
        return None


@dataclass
class PartitionJoinResult:
    """Everything a partition-join run produced.

    Attributes:
        outcome: result relation and sweep observations.
        plan: the partitioning plan that was executed.
        layout: the disk layout, carrying the phase-tracked I/O statistics.
        recovery: the run's recovery log (None when checkpointing was off).
        observability: the run's :class:`~repro.obs.Observability` runtime
            (None when ``config.observability`` was unset); carries the
            trace and the metrics snapshot.
    """

    outcome: JoinOutcome
    plan: PartitionPlan
    layout: DiskLayout
    recovery: Optional[RecoveryLog] = None
    observability: Optional[Observability] = None

    @property
    def result(self) -> Optional[ValidTimeRelation]:
        return self.outcome.result

    @property
    def resilience(self) -> ResilienceReport:
        """What the resilience machinery observed and did during the run."""
        return self.layout.resilience_report

    def total_cost(self, cost_model: CostModel) -> float:
        """Weighted evaluation cost (result writes excluded, as in the paper)."""
        return self.layout.tracker.stats.cost(cost_model)


@dataclass(frozen=True)
class _JoinCall:
    """What one :func:`partition_join` / :func:`resume_join` call hands to
    every path it can take: the sweep, the forward sweep, the fallback."""

    r: ValidTimeRelation
    s: ValidTimeRelation
    config: PartitionJoinConfig
    layout: DiskLayout
    pair_fn: PairFn = natural_pair
    recovery: Optional[RecoveryLog] = None
    pool: Optional[BufferPool] = None
    obs: Optional[Observability] = None
    result_schema: Optional[RelationSchema] = None


def _open_call(r, s, config, layout, pair_fn, recovery, pool) -> _JoinCall:
    """Apply the config's retry bound to *layout* and attach the run's
    observability runtime to its disk.

    A runtime already attached is reused: a resumed run keeps accumulating
    into the crashed run's trace and metrics.
    """
    result_schema = r.schema.join_result_schema(s.schema)  # or SchemaError
    if config.retry_limit is not None:
        layout.disk.retry_policy = RetryPolicy(
            max_retries=config.retry_limit,
            backoff_ops=layout.disk.retry_policy.backoff_ops,
        )
    obs = None
    if config.observability is not None:
        obs = getattr(layout.disk, "_obs", None)
        if obs is None:
            obs = Observability(config.observability)
            layout.disk.attach_observer(obs)
    return _JoinCall(r, s, config, layout, pair_fn, recovery, pool, obs, result_schema)


@contextmanager
def _phase(tracker, obs: Optional[Observability], name: str) -> Iterator[None]:
    """A tracker phase, mirrored onto the observability runtime when present."""
    with tracker.phase(name), obs.phase(name) if obs is not None else nullcontext():
        yield


def partition_join(
    r: ValidTimeRelation,
    s: ValidTimeRelation,
    config: PartitionJoinConfig,
    *,
    layout: Optional[DiskLayout] = None,
    pair_fn: PairFn = natural_pair,
    recovery: Optional[RecoveryLog] = None,
    pool: Optional[BufferPool] = None,
    plan: Optional[PartitionPlan] = None,
) -> PartitionJoinResult:
    """Evaluate the valid-time natural join ``r JOIN_V s`` by partitioning.

    Args:
        r: outer relation (the one sampled; the paper samples the outer).
        s: inner relation.
        config: evaluation knobs.
        layout: pass a pre-built layout to accumulate statistics across
            operations; a fresh one is created otherwise.
        recovery: recovery log for crash/resume; required to
            :func:`resume_join` later (a private one is used when omitted
            and ``config.checkpoint_interval > 0``).
        pool: buffer pool the sweep reserves its regions in.  A pool smaller
            than ``config.memory_pages`` triggers the *replan* degradation:
            the evaluation re-plans for the pool's actual size instead of
            failing.
        plan: a previously computed :class:`~repro.core.planner.PartitionPlan`
            for the *same* inputs and configuration (the service layer's plan
            cache).  The sampling phase is skipped entirely -- no sample I/O
            is charged -- and the given partitioning executes as-is.  Only
            reuse a plan when relations and ``buff_size`` are unchanged;
            results stay bit-identical because the plan fully determines the
            partitioning.  Ignored when a relation fits in the buffer (the
            one-partition case never samples anyway), and discarded when a
            smaller *pool* forces a replan.

    Raises:
        SchemaError: if the schemas are not join-compatible.
        PlanError: if memory is too small for the Figure 3 allocation.
        PermanentIOFaultError: a page failed permanently and
            ``config.degraded_fallback`` is off.
    """
    if layout is None:
        layout = DiskLayout(spec=config.page_spec)
    if config.checkpoint_interval > 0 and recovery is None:
        recovery = RecoveryLog()
    call = _open_call(r, s, config, layout, pair_fn, recovery, pool)
    if pool is not None and pool.total_pages < config.memory_pages:
        # Graceful degradation: the memory the plan assumed is not there.
        # Re-plan for what the pool can actually grant rather than failing
        # (a too-small pool still raises, from the config validation).
        layout.resilience_report.record_degradation(
            "replan",
            f"buffer pool grants {pool.total_pages} of {config.memory_pages} "
            f"requested pages; re-planning for the smaller budget",
            obs=call.obs,
            granted_pages=pool.total_pages,
            requested_pages=config.memory_pages,
        )
        config = dataclasses.replace(config, memory_pages=pool.total_pages)
        call = dataclasses.replace(call, config=config)
        plan = None  # a cached plan assumed the larger budget

    r_file = layout.place_relation(r)
    s_file = layout.place_relation(s)
    if config.execution == "forward-sweep":
        evaluate = partial(_forward_sweep_eval, call, r_file, s_file)
    else:
        evaluate = partial(_partition_sweep, call, r_file, s_file, plan)
    return _answer(call, evaluate, config.buff_size)


def _partition_sweep(
    call: _JoinCall, r_file, s_file, cached: Optional[PartitionPlan]
) -> Tuple[JoinOutcome, PartitionPlan]:
    """Prepare, then sweep (phase ``"join"``): ``(outcome, executed plan)``."""
    config, layout, recovery = call.config, call.layout, call.recovery
    plan, partition_map, r_parts, s_parts, swapped, buff_size = _prepare(
        call, r_file, s_file, cached
    )
    checkpointer = None
    if config.checkpoint_interval > 0:
        checkpointer = SweepCheckpointer(layout, recovery, config.checkpoint_interval)
    # What the outer area leaves of the budget is the resident tuple cache
    # (the Section 5 trade-off; nothing in the one-partition case).
    cache_pages = config.memory_pages - JoinBufferAllocation.FIXED_PAGES - buff_size
    with _phase(layout.tracker, call.obs, "join"):
        outcome = join_partitions(
            r_parts,
            s_parts,
            partition_map,
            buff_size,
            layout,
            call.result_schema,
            collect=config.collect_result,
            pair_fn=call.pair_fn,
            direction=config.sweep_direction,
            cache_memory_tuples=cache_pages * layout.spec.capacity,
            execution=config.execution,
            pool=call.pool,
            checkpointer=checkpointer,
            buffer_reductions=config.buffer_reductions,
            swapped_inputs=swapped,
            obs=call.obs,
        )
    return outcome, plan


def _answer(
    call: _JoinCall, evaluate, buff_size: int, plan: Optional[PartitionPlan] = None
) -> PartitionJoinResult:
    """Run *evaluate* -- ``() -> (outcome, plan)`` -- and wrap what the call
    produced.

    The permanent-failure fallback: a permanently unreadable page means
    some file of the planned evaluation cannot be trusted; re-placing the
    base relations and nested-looping over them in *buff_size*-page blocks
    sidesteps every temporary file.  The fallback emits the same result
    *set* as the sweep in a different order -- callers comparing materialized
    results sort first (the sweep's emission order is a partition-ownership
    artifact, not part of the join's contract) -- and is reported under
    *plan*, the plan known before *evaluate* ran (a stand-in when None).  It
    evaluates intersection semantics, so any other predicate (the forward
    sweep's) re-raises.
    """
    config, layout, obs = call.config, call.layout, call.obs
    try:
        outcome, plan = evaluate()
    except PermanentIOFaultError as failure:
        if not config.degraded_fallback or config.predicate != NATURAL_PREDICATE:
            raise
        layout.tracker.recover()
        layout.resilience_report.record_degradation(
            "nested-loop-fallback",
            f"permanent page failure ({failure}); re-evaluating as a block "
            f"nested-loop join",
            obs=obs,
            failure=str(failure),
        )
        # fallback_nested_loop_join opens its own "degraded-join" tracker
        # phase; mirror the label for the metrics attribution.
        with obs.phase("degraded-join") if obs is not None else nullcontext():
            outcome = fallback_nested_loop_join(
                call.r,
                call.s,
                buff_size,
                layout,
                call.result_schema,
                collect=config.collect_result,
                pair_fn=call.pair_fn,
            )
        if plan is None:
            plan = _trivial_plan(call, buff_size)
    return PartitionJoinResult(
        outcome=outcome,
        plan=plan,
        layout=layout,
        recovery=call.recovery,
        observability=obs,
    )


def _forward_sweep_eval(
    call: _JoinCall, r_file, s_file
) -> Tuple[JoinOutcome, PartitionPlan]:
    """Dispatch to the forward-scan sweep operator: ``(outcome, plan)``.

    The sweep neither samples nor partitions, so its buffer appetite is the
    planner's small fixed grant (:data:`~repro.core.planner.FORWARD_SWEEP_GRANT_PAGES`)
    rather than the Figure 3 allocation; when a pool is present only that
    much is reserved.  A permanent page failure degrades to the nested-loop
    fallback exactly like the partition path (see :func:`_answer`).
    """
    from repro.core.planner import FORWARD_SWEEP_GRANT_PAGES
    from repro.exec.forward_sweep import forward_sweep_join

    config, pool = call.config, call.pool
    reservation = None
    if pool is not None:
        reservation = pool.reserve(
            "forward-sweep", min(pool.total_pages, FORWARD_SWEEP_GRANT_PAGES)
        )
    try:
        outcome = forward_sweep_join(
            r_file,
            s_file,
            call.result_schema,
            call.layout,
            predicate=config.predicate,
            pair_fn=call.pair_fn,
            collect=config.collect_result,
            obs=call.obs,
        )
    finally:
        if reservation is not None:
            reservation.release()
    plan = _trivial_plan(call, config.buff_size)
    if call.recovery is not None:
        call.recovery.plan = plan
    return outcome, plan


def resume_join(
    r: ValidTimeRelation,
    s: ValidTimeRelation,
    config: PartitionJoinConfig,
    *,
    layout: DiskLayout,
    recovery: RecoveryLog,
    pair_fn: PairFn = natural_pair,
    pool: Optional[BufferPool] = None,
) -> PartitionJoinResult:
    """Restart an interrupted partition join from its last checkpoint.

    The caller supplies the *same* relations, configuration, layout, and
    recovery log of the interrupted :func:`partition_join` call.  The last
    committed checkpoint is thawed -- the result and cache-spill files
    rewound to its watermarks -- and the sweep keeps stepping from there,
    producing results and a :class:`~repro.core.joiner.JoinOutcome`
    bit-identical to an uninterrupted run.  I/O performed before the crash
    stays on the layout's statistics; resumed work accumulates on top,
    within the same ``"join"`` phase.

    A crash *before* the first committed checkpoint (during sampling,
    partitioning, or the first sweep steps) leaves nothing to replay; the
    evaluation then simply restarts from the beginning on the same layout
    and recovery log -- still producing the bit-identical result.

    Raises:
        CheckpointError: checkpointing is disabled in *config* (there can
            never be anything to resume).
    """
    if config.checkpoint_interval < 1:
        raise CheckpointError(
            f"resume requires checkpoint_interval >= 1, got {config.checkpoint_interval}"
        )
    # A crash can leave a phase open on the tracker (the context manager
    # closes it when the exception unwinds normally, but a recovery catalog
    # cannot assume a tidy unwind).
    layout.tracker.recover()
    recovery.resumes += 1
    layout.resilience_report.resumes += 1
    if not recovery.resumable:
        # The run died before its sweep committed a checkpoint: restart the
        # whole evaluation.
        return partition_join(
            r, s, config, layout=layout, pair_fn=pair_fn, recovery=recovery, pool=pool
        )
    call = _open_call(r, s, config, layout, pair_fn, recovery, pool)
    obs = call.obs
    if obs is not None:
        obs.event("resume", position=recovery.checkpoint.position)
        obs.count("repro_resumes_total", "Sweep resumes from a committed checkpoint.")
    sweep = PartitionSweep(
        recovery.context,
        layout,
        pair_fn=pair_fn,
        pool=pool,
        checkpointer=SweepCheckpointer(layout, recovery, config.checkpoint_interval),
        buffer_reductions=config.buffer_reductions,
        obs=obs,
    )

    def keep_stepping() -> Tuple[JoinOutcome, PartitionPlan]:
        with _phase(layout.tracker, obs, "join"):
            state = SweepState.thaw(recovery.context, recovery.checkpoint, layout)
            return sweep.run(state), recovery.plan

    # The plan was committed before the sweep's first checkpoint was.
    return _answer(call, keep_stepping, recovery.plan.buff_size, recovery.plan)


def plan_partition_join(
    r: ValidTimeRelation,
    s: ValidTimeRelation,
    config: PartitionJoinConfig,
) -> Tuple[PartitionPlan, bool, int, int]:
    """Plan the partition join without executing it (the EXPLAIN entry point).

    Runs the planning step of :func:`partition_join` itself
    (:func:`_choose_plan`: the one-partition test, the seeded RNG, the
    ``determinePartIntervals`` call) on a scratch layout, so the returned
    plan is the plan the execution would choose.  The sampling I/O the
    planner charges lands on the scratch layout and is discarded; EXPLAIN
    predicts cost, it does not bill the catalog.

    Returns ``(plan, single_partition, outer_pages, inner_pages)``.
    """
    layout = DiskLayout(spec=config.page_spec)
    r_file = layout.place_relation(r)
    s_file = layout.place_relation(s)
    plan, single = _choose_plan(_JoinCall(r, s, config, layout), r_file, s_file)
    return plan, single, r_file.n_pages, s_file.n_pages


def _choose_plan(
    call: _JoinCall, r_file, s_file, cached: Optional[PartitionPlan] = None
) -> Tuple[PartitionPlan, bool]:
    """The plan the evaluation executes, and whether it is the one-partition
    case: a whole relation fits in the outer-partition area, so a single
    partition suffices -- no sampling, no Grace partitioning, one linear
    scan of each input.  Otherwise *cached*, when it was planned for this
    budget, or a freshly sampled plan (phase ``"sample"``).
    """
    config, obs = call.config, call.obs
    buff_size = config.buff_size
    if min(r_file.n_pages, s_file.n_pages) <= buff_size:
        return _single_partition_plan(call, r_file, s_file), True
    if cached is not None and cached.buff_size == buff_size:
        if obs is not None:
            obs.event("plan-reused", num_partitions=len(cached.intervals))
        return cached, False
    with _phase(call.layout.tracker, obs, "sample"):
        plan = determine_part_intervals(
            buff_size,
            r_file,
            inner_tuples=len(call.s),
            cost_model=config.cost_model,
            rng=random.Random(config.seed),
            allow_scan_sampling=config.allow_scan_sampling,
            max_candidates=config.max_plan_candidates,
            inner=s_file if config.sample_inner_relation else None,
        )
    return plan, False


def _prepare(call: _JoinCall, r_file, s_file, cached: Optional[PartitionPlan]):
    """Everything before the sweep: ``(plan, partition_map, r_parts, s_parts,
    swapped, buff_size)``.

    The one-partition case sweeps the placed files as they are, the smaller
    relation resident (``swapped`` when that is *s*).  It is admitted on
    ``config.buff_size`` but runs on the plan's ``buff_size``, the whole
    outer area: a one-partition sweep has no tuple cache to reserve for.
    Every other plan Grace-partitions both inputs (phase ``"partition"``),
    heads parked between phases so sequentiality cannot leak across them.
    """
    config, layout, obs = call.config, call.layout, call.obs
    plan, single = _choose_plan(call, r_file, s_file, cached)
    if call.recovery is not None:
        call.recovery.plan = plan
    partition_map = plan.partition_map()
    if single:
        swapped = r_file.n_pages > plan.buff_size
        outer_file, inner_file = (s_file, r_file) if swapped else (r_file, s_file)
        return plan, partition_map, [outer_file], [inner_file], swapped, plan.buff_size
    layout.disk.park_heads()
    if obs is not None and plan.chosen is not None:
        obs.event(
            "plan",
            num_partitions=len(plan.intervals),
            part_size=plan.part_size,
            n_samples=plan.chosen.n_samples,
            c_sample=plan.chosen.c_sample,
            c_join=plan.chosen.c_join,
        )
    placement = "last" if config.sweep_direction == "backward" else "first"
    parts = []
    with _phase(layout.tracker, obs, "partition"):
        for name, heap in (("r", r_file), ("s", s_file)):
            parts.append(
                do_partitioning(
                    heap,
                    partition_map,
                    layout,
                    name,
                    config.memory_pages,
                    placement=placement,
                    execution=config.execution,
                    obs=obs,
                )
            )
            layout.disk.park_heads()
    return plan, partition_map, *parts, False, config.buff_size


def _joint_lifespan(r: ValidTimeRelation, s: ValidTimeRelation) -> Interval:
    """One interval covering every timestamp of both inputs (``[0, 0]`` when
    both are empty), known from catalog metadata."""
    spans = [span for span in (r.lifespan(), s.lifespan()) if span is not None]
    if not spans:
        return Interval(0, 0)
    return Interval(min(span.start for span in spans), max(span.end for span in spans))


def _single_partition_plan(call: _JoinCall, r_file, s_file) -> PartitionPlan:
    """The inline plan of the one-partition case: one interval over the
    inputs' joint lifespan, the smaller relation as the outer side, costed
    as one linear scan of each input."""
    from repro.core.planner import CandidateCost

    config = call.config
    buff_size = JoinBufferAllocation(config.memory_pages).buff_size
    swap = r_file.n_pages > buff_size
    outer_file, inner_file = (s_file, r_file) if swap else (r_file, s_file)
    return PartitionPlan(
        intervals=[_joint_lifespan(call.r, call.s)],
        part_size=max(1, outer_file.n_pages),
        buff_size=buff_size,
        chosen=CandidateCost(
            part_size=outer_file.n_pages,
            error_size=buff_size - outer_file.n_pages,
            n_samples=0,
            num_partitions=1,
            c_sample=0.0,
            c_join_scan=float(
                2 * config.cost_model.io_ran
                + max(0, outer_file.n_pages + inner_file.n_pages - 2)
                * config.cost_model.io_seq
            ),
            c_join_cache=0.0,
        ),
    )


def _trivial_plan(call: _JoinCall, buff_size: int) -> PartitionPlan:
    """A one-interval plan standing in when no real plan was executed."""
    return PartitionPlan(
        intervals=[_joint_lifespan(call.r, call.s)],
        part_size=max(1, buff_size),
        buff_size=max(1, buff_size),
        chosen=None,
    )
