"""The one join runner: run method X under M granted pages, read the bill.

The paper bills the partition join, sort-merge and nested loops against
the same ``buffSize`` under one cost model (section 4).  Every caller that
evaluates a join -- :meth:`TemporalDatabase.join
<repro.engine.database.TemporalDatabase.join>`, the single-process
:class:`~repro.service.service.QueryService`, and a
:class:`~repro.shard.worker.ShardWorker` running one fragment -- does the
same three things around the algorithm: size the memory ask, absorb a
grant smaller than the ask, and read the result, counters and charged I/O
back in one shape.  They live here, once.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.baselines.nested_loop import nested_loop_join
from repro.baselines.sort_merge import sort_merge_join
from repro.core.joiner import JoinOutcome
from repro.core.partition_join import PartitionJoinConfig, partition_join
from repro.core.planner import PartitionPlan, estimate_grant_pages
from repro.model.relation import ValidTimeRelation
from repro.obs import Observability
from repro.resilience.report import ResilienceReport
from repro.storage.buffer import BufferPool
from repro.storage.iostats import PhaseTracker
from repro.storage.layout import DiskLayout


@dataclass(frozen=True)
class JoinRun:
    """What one evaluated join produced, whichever algorithm ran.

    Attributes:
        relation: the join result.
        outcome: result relation plus the sweep's counters (the baselines
            report the result count only).
        tracker: the run's per-phase charged-I/O ledger.
        cost: weighted I/O cost under ``config.cost_model`` (result writes
            excluded, as in the paper).
        charged_ops: charged I/O operations.
        algorithm: ``"partition"``, ``"forward-sweep"``, ``"sort_merge"`` or
            ``"nested_loop"``.
        plan: the executed partitioning plan (None for the baselines).
        resilience / observability: the partition-join run's resilience
            report and observability runtime (None for the baselines).
    """

    relation: Optional[ValidTimeRelation]
    outcome: JoinOutcome
    tracker: PhaseTracker
    cost: float
    charged_ops: int
    algorithm: str
    plan: Optional[PartitionPlan] = None
    resilience: Optional[ResilienceReport] = None
    observability: Optional[Observability] = None


def grant_request(
    r: ValidTimeRelation,
    s: ValidTimeRelation,
    method: str,
    config: PartitionJoinConfig,
) -> int:
    """Buffer pages to ask admission control for.

    The partition join and the forward sweep ask for what the planner says
    they can use (:func:`~repro.core.planner.estimate_grant_pages`); the
    baselines use every page they are given, so they ask for the budget.
    """
    if method in ("partition", "sweep"):
        spec = config.page_spec
        return estimate_grant_pages(
            spec.pages_for_tuples(len(r)),
            spec.pages_for_tuples(len(s)),
            config.memory_pages,
            execution=config.execution,
        )
    return config.memory_pages


def effective_config(
    config: PartitionJoinConfig, granted_pages: int
) -> PartitionJoinConfig:
    """*config* replanned for the budget actually granted.

    A grant below ``memory_pages`` (a clamped or degraded admission) plans
    for what it got; a cached plan must key on this config, not the ask.
    """
    if granted_pages >= config.memory_pages:
        return config
    return dataclasses.replace(config, memory_pages=granted_pages)


def run_join(
    r: ValidTimeRelation,
    s: ValidTimeRelation,
    method: str,
    config: PartitionJoinConfig,
    granted_pages: int,
    *,
    plan: Optional[PartitionPlan] = None,
    layout: Optional[DiskLayout] = None,
) -> JoinRun:
    """Evaluate ``r JOIN_V s`` by *method* under *granted_pages* of memory.

    Args:
        method: ``"partition"``, ``"sweep"`` (*config* must already carry
            ``execution="forward-sweep"`` and the predicate),
            ``"sort_merge"`` or ``"nested_loop"`` -- never ``"auto"``; see
            :func:`repro.engine.optimizer.choose_method`.
        config: the evaluation knobs; its ``cost_model`` prices the bill.
        granted_pages: the buffer pages the run may use.
        plan / layout: forwarded to
            :func:`~repro.core.partition_join.partition_join` (a cached
            plan, a pre-built resilient layout).

    Raises:
        ValueError: *method* names no algorithm.
    """
    if method in ("partition", "sweep"):
        run = partition_join(
            r,
            s,
            effective_config(config, granted_pages),
            layout=layout,
            pool=BufferPool(granted_pages),
            plan=plan,
        )
        tracker = run.layout.tracker
        return JoinRun(
            relation=run.result,
            outcome=run.outcome,
            tracker=tracker,
            cost=run.total_cost(config.cost_model),
            charged_ops=tracker.stats.total_ops,
            algorithm="forward-sweep" if method == "sweep" else "partition",
            plan=run.plan,
            resilience=run.resilience,
            observability=run.observability,
        )
    if method == "sort_merge":
        baseline = sort_merge_join
    elif method == "nested_loop":
        baseline = nested_loop_join
    else:
        raise ValueError(f"unknown join method {method!r}")
    run = baseline(r, s, granted_pages, page_spec=config.page_spec)
    tracker = run.layout.tracker
    return JoinRun(
        relation=run.result,
        outcome=JoinOutcome(result=run.result, n_result_tuples=run.n_result_tuples),
        tracker=tracker,
        cost=tracker.stats.cost(config.cost_model),
        charged_ops=tracker.stats.total_ops,
        algorithm=method,
    )
