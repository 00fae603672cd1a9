""":class:`ServiceCore`: what the two query services share.

:class:`~repro.service.service.QueryService` and
:class:`~repro.shard.coordinator.ShardedQueryService` serve the same
:class:`~repro.service.session.Session` surface over the same
:class:`~repro.engine.catalog.VersionedCatalog`, and they resolve a
submitted join the same way: take a snapshot, build the session's config,
resolve ``"auto"`` against the global statistics, answer a repeated join
from the result cache, and count the final status.  All of that lives here
once.  A service adds one step, :meth:`ServiceCore._serve` -- how a
:class:`ResolvedQuery` the cache could not answer is turned into a result:
admission and an in-process evaluation for the single-process service;
ship, fan out, collect and merge for the sharded one.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.algebra.predicates import NATURAL_PREDICATE, resolve_predicate
from repro.core.joiner import JoinOutcome
from repro.core.partition_join import ALL_EXECUTION_MODES, PartitionJoinConfig
from repro.engine.catalog import (
    RelationStatistics,
    RelationVersion,
    VersionedCatalog,
    analyze,
)
from repro.engine.optimizer import choose_method
from repro.model.errors import (
    AdmissionTimeoutError,
    QueryCancelledError,
    QueryDeadlineError,
    ServiceError,
)
from repro.model.relation import ValidTimeRelation
from repro.obs import Observability, ObservabilityConfig
from repro.service.cache import CachedJoin, ResultCache
from repro.service.executor import QueryExecutor, QueryHandle
from repro.service.session import (
    JOIN_METHODS,
    Rows,
    Session,
    SessionConfig,
    coerce_rows,
    resolve_session_config,
)
from repro.storage.iostats import CostModel
from repro.storage.page import PageSpec


@dataclass(frozen=True)
class ServiceQueryResult:
    """One served query: the result plus its full serving pedigree.

    Attributes:
        relation: the join result.
        outcome: the producing run's outcome counters (shared verbatim on a
            cache hit, which is what makes hits bit-identical).
        algorithm: algorithm that produced the result.
        cost: weighted I/O cost *this* serving charged (0.0 on a cache hit).
        charged_ops: charged I/O operations of this serving (0 on a hit).
        outer / inner: input relation names.
        epochs: ``(outer_epoch, inner_epoch)`` relation-version epochs the
            query saw -- the serial-replay coordinates.
        snapshot_epoch: global catalog epoch of the snapshot.
        result_cache_hit / plan_cache_hit: which caches served.
        requested_pages / granted_pages: the admission ask and grant
            (both 0 on a result-cache hit: no memory was needed).
        degraded: admission granted fewer pages than it tried to satisfy
            (pressure outlasted ``degrade_after``); the grant size is
            nondeterministic, so such a run never populates the result
            cache.
        clamped: the ask exceeded the whole pool and was cut to capacity
            before queueing (deterministic, unlike a degraded grant).
        queue_wait_seconds: time spent queued for admission.
        session_id / query_id: who asked.
    """

    relation: Optional[ValidTimeRelation]
    outcome: JoinOutcome
    algorithm: str
    cost: float
    charged_ops: int
    outer: str
    inner: str
    epochs: Tuple[int, int]
    snapshot_epoch: int
    result_cache_hit: bool = False
    plan_cache_hit: bool = False
    requested_pages: int = 0
    granted_pages: int = 0
    degraded: bool = False
    clamped: bool = False
    queue_wait_seconds: float = 0.0
    session_id: int = 0
    query_id: int = 0


@dataclass(frozen=True)
class ResolvedQuery:
    """A submitted join after the core resolved what both services agree on.

    Attributes:
        session / handle: who asked, and the query's cancel and deadline
            state.
        outer / inner: the relation versions of the query's snapshot.
        snapshot_epoch: global catalog epoch of that snapshot.
        method: the concrete join method (``"auto"`` already resolved).
        config: the session's evaluation config; for ``"sweep"`` it carries
            ``execution="forward-sweep"`` and the session's predicate.
        timeout: seconds the query may queue for memory -- the per-call
            value, else the session's (None: the service default).
    """

    session: Session
    handle: QueryHandle
    outer: RelationVersion
    inner: RelationVersion
    snapshot_epoch: int
    method: str
    config: PartitionJoinConfig
    timeout: Optional[float]

    @property
    def epochs(self) -> Tuple[int, int]:
        return (self.outer.epoch, self.inner.epoch)

    @property
    def cache_key(self) -> Tuple:
        """What the result cache keys this query on."""
        return (self.outer.name, self.inner.name, self.epochs, self.method, self.config)

    def pedigree(self) -> Dict:
        """The identity fields every result of this query carries."""
        return dict(
            outer=self.outer.name,
            inner=self.inner.name,
            epochs=self.epochs,
            snapshot_epoch=self.snapshot_epoch,
            session_id=self.session.session_id,
            query_id=self.handle.query_id,
        )


class ServiceCore:
    """Sessions, writes, query resolution, the result cache and status
    metrics of a service.

    Both services forward these arguments, so they accept the same ones
    with the same defaults.

    Args:
        catalog: the versioned catalog to serve (shared with writers).
        pool_pages: the buffer budget admission control arbitrates (per
            shard, for the sharded service).
        memory_pages: default per-query memory ask (defaults to
            ``pool_pages``: a lone session gets the whole pool).
        workers: executor worker threads.
        queue_limit: bounded run-queue length.
        execution: default partition-join execution mode.
        cost_model / page_spec: the served cost environment.
        observability: optional tracing config; metrics are always on.
        max_sessions: open-session cap.
        result_cache_entries: result-cache capacity (0 disables it).
    """

    #: The ``{status, method}`` counter family every finished query lands in.
    _queries_family = "repro_service_queries_total"
    #: What :meth:`_serve` returns, and so what a cache hit is built as.
    _result_type = ServiceQueryResult

    def __init__(
        self,
        catalog: VersionedCatalog,
        *,
        pool_pages: int = 64,
        memory_pages: Optional[int] = None,
        workers: int = 4,
        queue_limit: int = 256,
        execution: str = "tuple",
        cost_model: Optional[CostModel] = None,
        page_spec: Optional[PageSpec] = None,
        observability: Optional[ObservabilityConfig] = None,
        max_sessions: int = 64,
        result_cache_entries: int = 256,
    ) -> None:
        if execution not in ALL_EXECUTION_MODES:
            raise ServiceError(
                f"execution must be one of {ALL_EXECUTION_MODES}, got {execution!r}"
            )
        if max_sessions < 1:
            raise ServiceError(f"max_sessions must be >= 1, got {max_sessions}")
        self.catalog = catalog
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.page_spec = page_spec if page_spec is not None else PageSpec()
        self.execution = execution
        self.pool_pages = pool_pages
        self.default_memory_pages = (
            memory_pages if memory_pages is not None else pool_pages
        )
        if self.default_memory_pages < 4:
            raise ServiceError(
                f"memory_pages must be >= 4 (the Figure 3 minimum), "
                f"got {self.default_memory_pages}"
            )
        self.max_sessions = max_sessions
        self.obs = Observability(
            observability
            if observability is not None
            else ObservabilityConfig(tracing=False)
        )
        # Exact-count metrics under concurrency need a lock: Counter.inc is
        # a read-modify-write, and the tests assert exact totals.
        self._metrics_lock = threading.Lock()
        self._sessions_lock = threading.Lock()
        self._sessions: Dict[int, Session] = {}
        self._session_ids = 0
        self._stats_lock = threading.Lock()
        self._stats_cache: Dict[Tuple[str, int], RelationStatistics] = {}
        self.result_cache = (
            ResultCache(result_cache_entries) if result_cache_entries else None
        )
        self._closed = False
        self.executor = QueryExecutor(workers=workers, queue_limit=queue_limit)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Shut the executor down and close every open session.

        Queued queries are cancelled outright; in-flight queries get a
        cancel request too, which aborts an admission wait promptly and is
        honored at the query's next cancellation point (between two shard
        collects, for a fan-out).  A query already deep inside a join
        kernel has no further cancellation points and runs to completion
        (bounded by the executor's join timeout).
        """
        if self._closed:
            return
        self._closed = True
        self.executor.shutdown(wait=True, cancel_queued=True, cancel_running=True)
        with self._sessions_lock:
            sessions = list(self._sessions.values())
        for session in sessions:
            session.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    # -- sessions ------------------------------------------------------------

    def open_session(self, config: Optional[SessionConfig] = None, **overrides) -> Session:
        """Open a session (``config`` or keyword overrides; see
        :class:`~repro.service.session.SessionConfig`)."""
        if self._closed:
            raise ServiceError("service is closed")
        config = resolve_session_config(config, overrides)
        with self._sessions_lock:
            if len(self._sessions) >= self.max_sessions:
                raise ServiceError(
                    f"session limit of {self.max_sessions} reached"
                )
            self._session_ids += 1
            session = Session(self, self._session_ids, config)
            self._sessions[session.session_id] = session
        self._count("repro_service_sessions_total", "Sessions ever opened.")
        self._set_active_sessions()
        return session

    def _session_closed(self, session: Session) -> None:
        with self._sessions_lock:
            self._sessions.pop(session.session_id, None)
        self._set_active_sessions()

    @property
    def active_sessions(self) -> int:
        with self._sessions_lock:
            return len(self._sessions)

    def _set_active_sessions(self) -> None:
        with self._metrics_lock:
            self.obs.gauge(
                "repro_service_active_sessions",
                self.active_sessions,
                "Currently open sessions.",
            )

    # -- writes (mutate the authoritative catalog) ---------------------------

    def _append(self, session: Session, name: str, rows: Rows) -> int:
        return self._write(self.catalog.append, "append", name, rows)

    def _delete(self, session: Session, name: str, rows: Rows) -> int:
        return self._write(self.catalog.delete, "delete", name, rows)

    def _write(self, mutate, kind: str, name: str, rows: Rows) -> int:
        tuples = coerce_rows(self.catalog.current(name).schema, rows)
        epoch = mutate(name, tuples).epoch
        self._on_mutation(name, kind)
        return epoch

    def _on_mutation(self, name: str, kind: str) -> None:
        """A write to relation *name* was installed: evict the results that
        mention it (a service with more caches evicts those too)."""
        self._evict(self.result_cache, name)
        self._count(
            "repro_service_writes_total",
            "Catalog mutations served.",
            kind=kind,
        )

    def _evict(self, cache, name: str) -> None:
        count = cache.invalidate_relation(name) if cache is not None else 0
        if count:
            self._count(
                "repro_service_cache_invalidations_total",
                "Cache entries evicted by relation mutations.",
                amount=count,
                cache=cache.name,
            )

    # -- queries -------------------------------------------------------------

    def _submit_join(
        self,
        session: Session,
        outer: str,
        inner: str,
        *,
        method: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> QueryHandle:
        if self._closed:
            raise ServiceError("service is closed")
        effective_method = method if method is not None else session.config.method
        if effective_method not in JOIN_METHODS:
            raise ServiceError(
                f"method must be one of {JOIN_METHODS}, got {effective_method!r}"
            )
        self._check_predicate(self._session_predicate(session), effective_method)
        handle = self.executor.submit(
            lambda h: self._run_join(session, outer, inner, effective_method, timeout, h),
            label=f"s{session.session_id}:{outer}x{inner}",
            deadline_seconds=session.config.deadline_seconds,
        )
        self._gauge_queue_depth()
        return handle

    def _check_predicate(self, predicate: str, method: str) -> None:
        """Fail fast on a predicate this service cannot evaluate by *method*."""
        if predicate != NATURAL_PREDICATE and method not in ("auto", "sweep"):
            raise ServiceError(
                f"predicate {predicate!r} requires method 'sweep' (or 'auto'); "
                f"the {method!r} algorithm evaluates only the "
                f"natural join's {NATURAL_PREDICATE!r}"
            )

    def _run_join(
        self,
        session: Session,
        outer: str,
        inner: str,
        method: str,
        timeout: Optional[float],
        handle: QueryHandle,
    ) -> ServiceQueryResult:
        """One submitted join, on an executor thread: resolve, serve, count."""
        self._gauge_queue_depth()
        try:
            with self.obs.span(
                "service:query", outer=outer, inner=inner, session=session.session_id
            ):
                handle.check_cancelled()
                snapshot = self.catalog.snapshot()
                r_version = snapshot.version(outer)
                s_version = snapshot.version(inner)
                config = self._query_config(session)
                predicate = self._session_predicate(session)
                # Resolve "auto" ONCE, against the global statistics, before
                # dispatch: every status of the queries family carries the
                # same method label, and every shard of a fan-out runs the
                # same algorithm, so the merge is well-defined.
                if method == "auto":
                    method = self._choose_method(r_version, s_version, config, predicate)
                # A session-level forward-sweep execution forces the sweep
                # operator regardless of the cost model's pick.
                if config.execution == "forward-sweep" and method == "partition":
                    method = "sweep"
                if method == "sweep":
                    config = dataclasses.replace(
                        config, execution="forward-sweep", predicate=predicate
                    )
                if timeout is None:
                    timeout = session.config.admission_timeout
                result = self._answer(
                    ResolvedQuery(
                        session=session,
                        handle=handle,
                        outer=r_version,
                        inner=s_version,
                        snapshot_epoch=snapshot.epoch,
                        method=method,
                        config=config,
                        timeout=timeout,
                    )
                )
        except QueryCancelledError:
            self._count_query("cancelled", method)
            raise
        except QueryDeadlineError:
            self._count_query("deadline", method)
            self._count(
                "repro_service_deadline_exceeded_total",
                "Queries that blew their whole-query deadline budget.",
            )
            raise
        except AdmissionTimeoutError:
            self._count_query("admission_timeout", method)
            self._count(
                "repro_service_admission_timeouts_total",
                "Queries that timed out waiting for a memory grant.",
            )
            raise
        except Exception:
            self._count_query("error", method)
            raise
        self._count_query("ok", method)
        return result

    def _serve(self, query: ResolvedQuery) -> ServiceQueryResult:
        """Evaluate a resolved query the result cache did not answer (the one
        step a service adds).

        Runs inside the ``service:query`` span; the caller counts the final
        status, so an implementation only raises or returns.
        """
        raise NotImplementedError

    def _answer(self, query: ResolvedQuery) -> ServiceQueryResult:
        """*query*'s result: the result cache's at zero charged I/O, else
        :meth:`_serve`'s, stored for the next identical query.

        The key holds the input epochs, method and config, so a hit shares
        the relation and outcome of the run that stored it.  Two results are
        not kept: a degraded grant's (its counters are not the full-budget
        answer the key promises) and one whose input was replaced while it
        ran (no later snapshot reaches its epochs).  The latter is dropped
        *after* the store, so a write landing in between is either seen
        here or evicts the entry itself.
        """
        cache = self.result_cache
        if cache is None or not query.session.config.use_result_cache:
            return self._serve(query)
        cached = cache.lookup(*query.cache_key)
        if cached is not None:
            self._count(
                "repro_service_result_cache_hits",
                "Queries served entirely from the result cache.",
            )
            return self._result_type(
                relation=cached.relation,
                outcome=cached.outcome,
                algorithm=cached.algorithm,
                cost=0.0,
                charged_ops=0,
                result_cache_hit=True,
                **query.pedigree(),
            )
        self._count("repro_service_result_cache_misses", "Queries that had to be evaluated.")
        result = self._serve(query)
        if not result.degraded and result.relation is not None:
            cache.store(*query.cache_key, CachedJoin(
                relation=result.relation, outcome=result.outcome, algorithm=result.algorithm,
                cost=result.cost, charged_ops=result.charged_ops, epochs=query.epochs,
            ))
            current = self.catalog.snapshot().versions
            if any(current.get(v.name) is not v for v in (query.outer, query.inner)):
                cache.discard(*query.cache_key)
        return result

    # -- planning helpers ----------------------------------------------------

    def _query_config(self, session: Session) -> PartitionJoinConfig:
        memory = (
            session.config.memory_pages
            if session.config.memory_pages is not None
            else self.default_memory_pages
        )
        execution = (
            session.config.execution
            if session.config.execution is not None
            else self.execution
        )
        return PartitionJoinConfig(
            memory_pages=memory,
            cost_model=self.cost_model,
            page_spec=self.page_spec,
            execution=execution,
        )

    def _statistics(self, version: RelationVersion) -> RelationStatistics:
        key = (version.name, version.epoch)
        with self._stats_lock:
            stats = self._stats_cache.get(key)
        if stats is None:
            stats = analyze(version.relation, self.page_spec)
            with self._stats_lock:
                if len(self._stats_cache) > 1024:
                    self._stats_cache.clear()
                self._stats_cache[key] = stats
        return stats

    def _session_predicate(self, session: Session) -> str:
        """The session's resolved (de-aliased) join predicate name."""
        raw = session.config.predicate
        if raw is None:
            return NATURAL_PREDICATE
        return resolve_predicate(raw).name

    def _choose_method(
        self,
        outer: RelationVersion,
        inner: RelationVersion,
        config: PartitionJoinConfig,
        predicate: str,
    ) -> str:
        return choose_method(
            self._statistics(outer),
            self._statistics(inner),
            config.memory_pages,
            self.cost_model,
            predicate=predicate,
        )

    # -- metrics -------------------------------------------------------------

    def _count(self, name: str, help: str = "", amount: float = 1.0, **labels) -> None:
        with self._metrics_lock:
            self.obs.count(name, help, amount=amount, **labels)

    def _count_query(self, status: str, method: str) -> None:
        self._count(
            self._queries_family,
            "Queries served, by final status and method.",
            status=status,
            method=method,
        )

    def _gauge_queue_depth(self) -> None:
        with self._metrics_lock:
            self.obs.gauge(
                "repro_service_run_queue_depth",
                self.executor.queued,
                "Queries waiting in the executor's bounded run queue.",
            )

    def metrics_snapshot(self) -> Dict:
        """Stable snapshot of every metric family the service collects."""
        self._gauge_queue_depth()
        return self.obs.metrics_snapshot()

    def _cache_reports(self, **caches) -> Dict:
        """The ``report()`` block of each enabled cache, by label."""
        return {
            label: {
                "entries": len(cache),
                "hits": cache.stats.hits,
                "misses": cache.stats.misses,
                "hit_ratio": round(cache.stats.hit_ratio, 4),
                "evictions": cache.stats.evictions,
                "invalidations": cache.stats.invalidations,
            }
            for label, cache in caches.items()
            if cache is not None
        }
