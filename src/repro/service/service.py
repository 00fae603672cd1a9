""":class:`QueryService`: the concurrent multi-session query engine.

One service owns a :class:`~repro.engine.catalog.VersionedCatalog`, a
shared memory budget under an
:class:`~repro.service.admission.AdmissionController`, the epoch-keyed
plan cache, and a bounded worker-thread
:class:`~repro.service.executor.QueryExecutor`.  The query path:

1. take a catalog snapshot (snapshot isolation: writers never affect it);
2. consult the result cache -- a hit replays the stored relation and
   :class:`~repro.core.joiner.JoinOutcome` with **zero charged I/O**;
3. ask admission for the planner-estimated memory grant (queue, degrade,
   or time out under pressure);
4. consult the plan cache -- a hit skips the sampling phase entirely;
5. evaluate on a private :class:`~repro.storage.buffer.BufferPool` sized
   to the grant (a smaller grant rides the PR-2 replan ladder);
6. populate the caches, release the grant, record ``repro_service_*``
   metrics.

Steps 3-5 and the plan cache are :meth:`QueryService._serve`; steps 1-2, the
result cache's store, the session and write surface and the status metrics
are the :class:`~repro.service.core.ServiceCore` this service shares with
the sharded one, and step 5 is the one join runner
(:func:`repro.engine.runner.run_join`).

Every query's result is bit-identical to a serial replay of the same
statements at the same snapshot epochs (property-tested in
``tests/service/test_service_property.py``, in both partition execution
modes; ``forward-sweep``, the third execution name, is served as method
``"sweep"``).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.engine.catalog import VersionedCatalog
from repro.engine.runner import JoinRun, effective_config, grant_request, run_join
from repro.model.errors import AdmissionTimeoutError, QueryDeadlineError
from repro.service.admission import AdmissionController, MemoryGrant
from repro.service.cache import PlanCache
from repro.service.core import ResolvedQuery, ServiceCore, ServiceQueryResult

#: Queue-wait histogram bounds, in seconds.
QUEUE_WAIT_BUCKETS = (0.0005, 0.002, 0.01, 0.05, 0.2, 1.0, 5.0, 30.0)


class QueryService(ServiceCore):
    """Concurrent query serving over a versioned catalog.

    Args:
        catalog: the versioned catalog to serve (shared with writers).
        pool_pages: the shared buffer budget admission control arbitrates.
        memory_pages: default per-query memory ask (defaults to
            ``pool_pages``: a lone session gets the whole pool).
        workers: executor worker threads.
        queue_limit: bounded run-queue length.
        admission_policy: ``"fifo"`` or ``"smallest"``.
        admission_timeout: default seconds a query may queue for memory.
        degrade_after: seconds of queueing after which a smaller grant is
            accepted (None: queue until timeout).
        plan_cache_entries: plan-cache capacity (0 disables it).
        result_cache_entries: result-cache capacity (0 disables it; the
            cache is the core's).
        execution: default partition-join execution mode.
        cost_model / page_spec: the served cost environment.
        observability: optional tracing config; metrics are always on.
        max_sessions: open-session cap.
    """

    def __init__(
        self,
        catalog: VersionedCatalog,
        *,
        admission_policy: str = "fifo",
        admission_timeout: float = 30.0,
        degrade_after: Optional[float] = None,
        plan_cache_entries: int = 256,
        **core_options,
    ) -> None:
        super().__init__(catalog, **core_options)
        self.admission = AdmissionController(
            self.pool_pages,
            policy=admission_policy,
            default_timeout=admission_timeout,
            degrade_after=degrade_after,
        )
        self.plan_cache = PlanCache(plan_cache_entries) if plan_cache_entries else None

    def _on_mutation(self, name: str, kind: str) -> None:
        self._evict(self.plan_cache, name)
        super()._on_mutation(name, kind)

    # -- serving: admission -> evaluate --------------------------------------

    def _serve(self, query: ResolvedQuery) -> ServiceQueryResult:
        session, handle = query.session, query.handle
        outer, inner = query.outer, query.inner
        method, config = query.method, query.config

        # 1. Admission: the planner bounds the useful ask.
        request = grant_request(outer.relation, inner.relation, method, config)
        admission_timeout = query.timeout
        handle.check_cancelled()
        handle.check_deadline()
        # The deadline budget covers admission wait too: cap the admission
        # timeout to whatever budget remains, and report an admission wait
        # cut short *by the deadline* as a deadline miss, not a timeout.
        remaining = handle.remaining_seconds()
        deadline_bound = remaining is not None and (
            admission_timeout is None or remaining < admission_timeout
        )
        if deadline_bound:
            admission_timeout = remaining
        try:
            grant = self.admission.acquire(
                request,
                label=handle.label or f"s{session.session_id}",
                timeout=admission_timeout,
                cancelled=handle.cancel_event,
                owner=f"s{session.session_id}",
            )
        except AdmissionTimeoutError as error:
            if deadline_bound:
                raise QueryDeadlineError(
                    f"query {handle.query_id} ({handle.label or 'unlabeled'}) "
                    f"exceeded its deadline budget waiting for admission",
                    deadline_seconds=handle.deadline_seconds,
                ) from error
            raise
        self._observe_queue_wait(grant.queue_wait_seconds)
        self._gauge_pool()

        # 2. Evaluate under the grant.
        try:
            handle.check_cancelled()
            handle.check_deadline()
            run, plan_cache_hit = self._evaluate(query, request, grant)
        finally:
            grant.release()
            self._gauge_pool()
        return ServiceQueryResult(
            relation=run.relation,
            outcome=run.outcome,
            algorithm=run.algorithm,
            cost=run.cost,
            charged_ops=run.charged_ops,
            plan_cache_hit=plan_cache_hit,
            requested_pages=request,
            granted_pages=grant.pages,
            degraded=grant.degraded,
            clamped=grant.clamped,
            queue_wait_seconds=grant.queue_wait_seconds,
            **query.pedigree(),
        )

    def _evaluate(
        self, query: ResolvedQuery, request: int, grant: MemoryGrant
    ) -> Tuple[JoinRun, bool]:
        """Run the join under *grant* through the plan cache; returns the run
        and whether a cached plan served it."""
        session, method, config = query.session, query.method, query.config
        outer, inner, epochs = query.outer.name, query.inner.name, query.epochs
        plan = None
        use_plan_cache = plan_cache_hit = False
        # Only the partition join samples a plan.
        if method == "partition":
            # A cached plan keys on the *effective* budget, and is served or
            # stored for a full grant only.  (The ask may sit below
            # memory_pages without any degradation: the planner proved the
            # extra pages useless, so the plan is the full-budget plan.)
            plan_config = effective_config(config, grant.pages)
            use_plan_cache = (
                self.plan_cache is not None
                and session.config.use_plan_cache
                and grant.pages >= request
            )
            if use_plan_cache:
                plan = self.plan_cache.lookup(outer, inner, epochs, plan_config)
                plan_cache_hit = plan is not None
                if plan_cache_hit:
                    self._count(
                        "repro_service_plan_cache_hits",
                        "Partition joins that skipped sampling via a cached plan.",
                    )
                else:
                    self._count(
                        "repro_service_plan_cache_misses",
                        "Partition joins that had to sample a plan.",
                    )
        run = run_join(
            query.outer.relation, query.inner.relation, method, config, grant.pages,
            plan=plan,
        )
        if use_plan_cache and not plan_cache_hit:
            self.plan_cache.store(outer, inner, epochs, plan_config, run.plan)
        return run, plan_cache_hit

    # -- metrics -------------------------------------------------------------

    def _observe_queue_wait(self, seconds: float) -> None:
        with self._metrics_lock:
            self.obs.observe(
                "repro_service_queue_wait_seconds",
                seconds,
                "Admission queue wait per granted query.",
                buckets=QUEUE_WAIT_BUCKETS,
            )

    def _gauge_pool(self) -> None:
        with self._metrics_lock:
            self.obs.gauge(
                "repro_service_granted_pages",
                self.admission.granted_pages,
                "Buffer pages currently granted to running queries.",
            )
            self.obs.gauge(
                "repro_service_queued_pages",
                self.admission.queued_pages,
                "Buffer pages currently queued for admission.",
            )

    def metrics_snapshot(self) -> Dict:
        """Stable snapshot of every ``repro_service_*`` family."""
        self._gauge_pool()
        return super().metrics_snapshot()

    def report(self) -> Dict:
        """A human-sized serving summary (caches, admission, sessions)."""
        summary: Dict = {
            "active_sessions": self.active_sessions,
            "admission": {
                "capacity_pages": self.admission.capacity_pages,
                "granted_pages": self.admission.granted_pages,
                "peak_granted_pages": self.admission.peak_granted_pages,
                "grants": self.admission.grants,
                "degraded_grants": self.admission.degraded_grants,
                "timeouts": self.admission.timeouts,
                "clamped_requests": self.admission.clamped_requests,
                "policy": self.admission.policy,
                "per_session_peak_pages": self.admission.owner_peak_pages(),
            },
        }
        summary.update(
            self._cache_reports(plan_cache=self.plan_cache, result_cache=self.result_cache)
        )
        return summary
