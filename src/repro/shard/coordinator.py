""":class:`ShardedQueryService`: the coordinator over N shard workers.

The multi-process sibling of the PR-5
:class:`~repro.service.service.QueryService`.  One coordinator owns the
authoritative :class:`~repro.engine.catalog.VersionedCatalog` (mutations
bump epochs exactly as before; the shard map is recorded in the catalog so
every snapshot resolves to one routing), N forked shard worker processes
-- each with its own buffer pool, admission controller and simulated
disks -- and the session/executor surface the single-process service
exposes, so :class:`~repro.service.session.Session` and the
workload driver run unchanged on top of it.

The query path:

1. take a catalog snapshot; resolve ``"auto"`` against the *global*
   relation statistics (the same pick the single-process service makes,
   sent verbatim to every shard);
2. ship any fragment versions a shard has not seen for the pinned epochs
   (fragments are immutable per ``(name, epoch)``, so shipping is lazy,
   idempotent, and rebuildable after a respawn), evicting the older
   versions of the same relation the shard still holds;
3. fan the ``EXECUTE`` out to all shards, then collect ``RESULT`` frames
   in shard-rank order;
4. merge deterministically: result tuples concatenate by shard rank, then
   each fragment's own emission order;
   :class:`~repro.core.joiner.JoinOutcome` counters and per-phase
   charged-I/O ledgers aggregate exactly
   (:meth:`~repro.storage.iostats.IOStatistics.merge`, once per shard).

A :class:`~repro.resilience.supervisor.SupervisionPolicy` bounds the
per-fragment deadline and re-dispatch budget, failures are recorded as
:class:`~repro.resilience.report.DegradationEvent` entries
(``shard-death`` / ``shard-hang``), and the degradation ladder is

    re-dispatch on the live worker -> respawn + re-ship + re-dispatch ->
    quarantine (in-process fragment execution in the coordinator)

so a SIGKILLed or hung shard costs latency, never the query -- and
because fragments are pure functions of ``(fragment state, request)``,
every rung reproduces the lost result bit-identically.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import socket
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.algebra.predicates import NATURAL_PREDICATE, resolve_predicate
from repro.core.joiner import JoinOutcome
from repro.core.partition_join import ALL_EXECUTION_MODES, PartitionJoinConfig
from repro.engine.catalog import (
    CatalogSnapshot,
    RelationStatistics,
    VersionedCatalog,
    analyze,
)
from repro.engine.optimizer import choose_algorithm
from repro.model.errors import QueryDeadlineError, ServiceError
from repro.model.relation import ValidTimeRelation
from repro.obs import Observability, ObservabilityConfig
from repro.resilience.report import ResilienceReport
from repro.resilience.supervisor import SupervisionPolicy
from repro.service.executor import QueryExecutor, QueryHandle
from repro.service.session import (
    JOIN_METHODS,
    Rows,
    Session,
    SessionConfig,
    coerce_rows,
    resolve_session_config,
)
from repro.shard import transport
from repro.shard.partitioning import ShardMap, time_range_map
from repro.shard.transport import Channel, TransportError, transport_counters
from repro.shard.worker import ShardWorker, schema_from_dict, schema_to_dict, worker_main
from repro.storage.iostats import CostModel, IOStatistics
from repro.storage.page import PageSpec


@dataclass(frozen=True)
class ShardFragmentReport:
    """One shard's contribution to one query (its RESULT meta, typed)."""

    rank: int
    algorithm: str
    n_result_tuples: int
    outcome_counters: Tuple[int, int, int, int]
    phases: Dict[str, Dict[str, int]]
    totals: Dict[str, int]
    charged_ops: int
    cost: float
    requested_pages: int
    granted_pages: int
    degraded: bool
    peak_granted_pages: int
    fragment_tuples: Tuple[int, int]
    redispatches: int = 0
    quarantined: bool = False


@dataclass(frozen=True)
class ShardedQueryResult:
    """One sharded query: the merged result plus its full fan-out pedigree.

    Field-compatible with
    :class:`~repro.service.service.ServiceQueryResult` where the workload
    driver and property suite look (``relation``, ``outcome``,
    ``algorithm``, ``cost``, ``charged_ops``, epochs, cache/grant flags),
    plus the shard-specific pedigree:

    Attributes:
        cost: the *total* charged bill, summed over shards (what the work
            cost; compare to the single-process bill).
        service_cost: the *parallel* bill -- the maximum per-shard cost,
            i.e. the simulated service latency with every shard's disk
            running concurrently.  The scaling benchmark's clock.
        phases: merged per-phase ledgers
            (:class:`~repro.storage.iostats.IOStatistics` per phase name,
            folded exactly once per shard).
        totals: the merged whole-query ledger.
        shards: per-shard fragment reports, in rank order.
        redispatches: supervision re-dispatches this query survived.
    """

    relation: Optional[ValidTimeRelation]
    outcome: JoinOutcome
    algorithm: str
    cost: float
    service_cost: float
    charged_ops: int
    phases: Dict[str, IOStatistics]
    totals: IOStatistics
    outer: str
    inner: str
    epochs: Tuple[int, int]
    snapshot_epoch: int
    shards: Tuple[ShardFragmentReport, ...]
    redispatches: int = 0
    result_cache_hit: bool = False
    plan_cache_hit: bool = False
    requested_pages: int = 0
    granted_pages: int = 0
    degraded: bool = False
    clamped: bool = False
    queue_wait_seconds: float = 0.0
    session_id: int = 0
    query_id: int = 0


@dataclass
class _ShardHandle:
    """Coordinator-side state of one worker process."""

    rank: int
    process: object = None
    channel: Optional[Channel] = None
    loaded: set = field(default_factory=set)
    respawns: int = 0
    quarantined: bool = False
    inline: Optional[ShardWorker] = None  # the quarantine rung
    last_status: Dict = field(default_factory=dict)
    # Chaos-test options merged into every (re)spawn of this shard; the
    # quarantine rung never inherits them (it must actually answer).
    spawn_chaos: Dict = field(default_factory=dict)


def _fork_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover -- non-POSIX fallback
        return multiprocessing.get_context()


class ShardedQueryService:
    """Coordinator + N shard worker processes behind the Session API.

    Args:
        catalog: the authoritative versioned catalog (shared with writers).
        shards: worker-process count (>= 1).
        shard_by: ``"key-hash"`` (default) or ``"time-range"``; time-range
            boundaries are computed from the relations registered at
            construction time (equal-width over the union lifespan).
        pool_pages: buffer budget of *each* shard's admission controller.
        memory_pages: default per-query memory ask per shard (defaults to
            ``pool_pages``).
        workers: coordinator executor threads (queries overlap in the
            executor; the shard fan-out itself is serialized per query).
        execution: default partition-join execution mode.
        supervision: the policy bounding the fragment deadline
            (``fragment_timeout_seconds``) and the re-dispatch budget
            (``max_redispatches``; a shard that exhausts it within one
            query is quarantined to in-process execution).
        spawn_timeout: seconds to wait for a worker's first heartbeat.
    """

    def __init__(
        self,
        catalog: VersionedCatalog,
        *,
        shards: int,
        shard_by: str = "key-hash",
        pool_pages: int = 64,
        memory_pages: Optional[int] = None,
        workers: int = 4,
        queue_limit: int = 256,
        admission_policy: str = "fifo",
        execution: str = "tuple",
        cost_model: Optional[CostModel] = None,
        page_spec: Optional[PageSpec] = None,
        observability: Optional[ObservabilityConfig] = None,
        max_sessions: int = 64,
        supervision: Optional[SupervisionPolicy] = None,
        spawn_timeout: float = 30.0,
    ) -> None:
        if shards < 1:
            raise ServiceError(f"shards must be >= 1, got {shards}")
        if execution not in ALL_EXECUTION_MODES:
            raise ServiceError(
                f"execution must be one of {ALL_EXECUTION_MODES}, got {execution!r}"
            )
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
        self.admission_policy = admission_policy
        self.supervision = (
            supervision if supervision is not None else SupervisionPolicy()
        )
        self.spawn_timeout = spawn_timeout
        if shard_by == "time-range":
            relations = [
                catalog.current(name).relation for name in catalog.names()
            ]
            self.shard_map = time_range_map(shards, *relations)
        else:
            self.shard_map = ShardMap(shards, strategy=shard_by)
        # Record the routing in the catalog: any snapshot at or after this
        # epoch resolves to this map, so fragment routing is a pure
        # function of (snapshot, rank) -- epoch-consistent across shards.
        catalog.record_shard_map(self.shard_map.as_dict())
        self.resilience = ResilienceReport()
        self.executor = QueryExecutor(
            workers=workers, queue_limit=queue_limit, name="repro-shard"
        )
        self.max_sessions = max_sessions
        self.obs = Observability(
            observability
            if observability is not None
            else ObservabilityConfig(tracing=False)
        )
        self._metrics_lock = threading.Lock()
        self._sessions_lock = threading.Lock()
        self._sessions: Dict[int, Session] = {}
        self._session_ids = 0
        self._stats_lock = threading.Lock()
        self._stats_cache: Dict[Tuple[str, int], RelationStatistics] = {}
        self._fanout_lock = threading.Lock()
        self._mp = _fork_context()
        self._closed = False
        self._shards: List[_ShardHandle] = []
        try:
            for rank in range(shards):
                handle = _ShardHandle(rank=rank)
                self._spawn(handle)
                self._shards.append(handle)
        except Exception:
            self.close()
            raise
        self._gauge_workers()

    # -- worker lifecycle ----------------------------------------------------

    def _worker_options(self, rank: int) -> Dict:
        return {
            "rank": rank,
            "pool_pages": self.pool_pages,
            "admission_policy": self.admission_policy,
            "page_bytes": self.page_spec.page_bytes,
            "tuple_bytes": self.page_spec.tuple_bytes,
            "io_ran": self.cost_model.io_ran,
            "io_seq": self.cost_model.io_seq,
            "shard_map": self.shard_map.as_dict(),
        }

    def _spawn(self, handle: _ShardHandle) -> None:
        """Start (or restart) the worker process behind *handle*."""
        parent_sock, child_sock = socket.socketpair()
        process = self._mp.Process(
            target=worker_main,
            args=(
                child_sock,
                {**self._worker_options(handle.rank), **handle.spawn_chaos},
            ),
            name=f"repro-shard-{handle.rank}",
            daemon=True,
        )
        process.start()
        child_sock.close()
        channel = Channel(parent_sock, name=f"shard{handle.rank}")
        handle.process = process
        handle.channel = channel
        handle.loaded = set()
        # First heartbeat doubles as the HELLO handshake: a worker that
        # cannot answer PING within the spawn timeout is dead on arrival.
        channel.send_obj(transport.PING, {})
        ftype, status = channel.recv_obj(timeout=self.spawn_timeout)
        if ftype != transport.PONG:
            raise ServiceError(
                f"shard {handle.rank} answered spawn handshake with frame {ftype}"
            )
        handle.last_status = status

    def _respawn(self, handle: _ShardHandle) -> None:
        """Kill whatever is left of the worker and start a fresh one."""
        if handle.channel is not None:
            handle.channel.close()
        process = handle.process
        if process is not None and process.is_alive():
            process.kill()
        if process is not None:
            process.join(timeout=10)
        handle.respawns += 1
        self._spawn(handle)

    def _quarantine(self, handle: _ShardHandle, detail: str) -> None:
        """Retire the shard to in-process execution (the bottom rung)."""
        handle.quarantined = True
        handle.inline = ShardWorker(self._worker_options(handle.rank))
        handle.loaded = set()
        if handle.channel is not None:
            handle.channel.close()
        if handle.process is not None and handle.process.is_alive():
            handle.process.kill()
            handle.process.join(timeout=10)
        self.resilience.record_degradation("shard-quarantine", detail)
        self._count(
            "repro_shard_quarantines_total",
            "Shards retired to in-process execution.",
        )
        self._gauge_workers()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Shut the executor down, stop every worker, close every session."""
        if self._closed:
            return
        self._closed = True
        self.executor.shutdown(wait=True, cancel_queued=True, cancel_running=True)
        for handle in self._shards:
            channel = handle.channel
            if channel is not None and not channel.closed:
                try:
                    channel.send_obj(transport.SHUTDOWN, {})
                    channel.recv(timeout=2.0)
                except TransportError:
                    pass
                channel.close()
            process = handle.process
            if process is not None:
                process.join(timeout=2)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=5)
        with self._sessions_lock:
            sessions = list(self._sessions.values())
        for session in sessions:
            session.close()
        self._gauge_workers()

    def __enter__(self) -> "ShardedQueryService":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    # -- sessions (the QueryService surface Session expects) -----------------

    def open_session(self, config: Optional[SessionConfig] = None, **overrides) -> Session:
        """Open a session (same contract as the single-process service)."""
        if self._closed:
            raise ServiceError("service is closed")
        config = resolve_session_config(config, overrides)
        with self._sessions_lock:
            if len(self._sessions) >= self.max_sessions:
                raise ServiceError(f"session limit of {self.max_sessions} reached")
            self._session_ids += 1
            session = Session(self, self._session_ids, config)
            self._sessions[session.session_id] = session
        return session

    def _session_closed(self, session: Session) -> None:
        with self._sessions_lock:
            self._sessions.pop(session.session_id, None)

    @property
    def active_sessions(self) -> int:
        with self._sessions_lock:
            return len(self._sessions)

    # -- writes (mutate the authoritative catalog; shipping is lazy) ---------

    def _append(self, session: Session, name: str, rows: Rows) -> int:
        version = self.catalog.current(name)
        tuples = coerce_rows(version.schema, rows)
        return self.catalog.append(name, tuples).epoch

    def _delete(self, session: Session, name: str, rows: Rows) -> int:
        version = self.catalog.current(name)
        tuples = coerce_rows(version.schema, rows)
        return self.catalog.delete(name, tuples).epoch

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
        predicate = self._session_predicate(session)
        if predicate != NATURAL_PREDICATE:
            if effective_method not in ("auto", "sweep"):
                raise ServiceError(
                    f"predicate {predicate!r} requires method 'sweep' (or 'auto')"
                )
            if self.shard_map.strategy != "key-hash":
                raise ServiceError(
                    "time-range sharding evaluates only the natural join's "
                    f"{NATURAL_PREDICATE!r} predicate; got {predicate!r}"
                )
        label = f"s{session.session_id}:{outer}x{inner}"
        return self.executor.submit(
            lambda h: self._run_join(session, outer, inner, effective_method, h),
            label=label,
            deadline_seconds=session.config.deadline_seconds,
        )

    def _run_join(
        self,
        session: Session,
        outer: str,
        inner: str,
        method: str,
        handle: QueryHandle,
    ) -> ShardedQueryResult:
        try:
            handle.check_cancelled()
            snapshot = self.catalog.snapshot()
            config = self._query_config(session)
            predicate = self._session_predicate(session)
            # Resolve "auto" ONCE, against the global statistics -- the
            # same pick the single-process service makes -- and send the
            # concrete method to every shard, so all fragments run the
            # same algorithm and the merge is well-defined.
            if method == "auto":
                method = self._choose_method(
                    snapshot, outer, inner, config, predicate=predicate
                )
            if config.execution == "forward-sweep" and method == "partition":
                method = "sweep"
            result = self._fan_out(
                snapshot, outer, inner, method, config, predicate, handle
            )
            self._count_query("ok", method)
            return dataclasses.replace(
                result,
                session_id=session.session_id,
                query_id=handle.query_id,
            )
        except QueryDeadlineError:
            self._count_query("deadline", method)
            raise
        except Exception:
            self._count_query("error", method)
            raise

    def _fan_out(
        self,
        snapshot: CatalogSnapshot,
        outer: str,
        inner: str,
        method: str,
        config: PartitionJoinConfig,
        predicate: str,
        handle: QueryHandle,
    ) -> ShardedQueryResult:
        r_version = snapshot.version(outer)
        s_version = snapshot.version(inner)
        epochs = (r_version.epoch, s_version.epoch)
        request = {
            "query_id": handle.query_id,
            "outer": outer,
            "outer_epoch": epochs[0],
            "inner": inner,
            "inner_epoch": epochs[1],
            "method": method,
            "execution": config.execution,
            "memory_pages": config.memory_pages,
            "predicate": predicate if method == "sweep" else None,
        }
        needed = (
            (outer, epochs[0], r_version.relation),
            (inner, epochs[1], s_version.relation),
        )
        query_redispatches = 0
        metas: List[Dict] = []
        columns_by_rank: List[Optional[Tuple]] = []
        with self._fanout_lock:
            handle.check_deadline()
            # Ship missing fragment versions, then pipeline the EXECUTEs so
            # every live shard computes concurrently.  ``unread`` holds the
            # shards whose answer is still on the wire, in rank order.
            unread: List[_ShardHandle] = []
            for shard in self._shards:
                if shard.quarantined:
                    continue
                try:
                    self._ensure_loaded(shard, needed)
                    shard.channel.send_obj(transport.EXECUTE, request)
                    unread.append(shard)
                except TransportError as error:
                    # The collect phase re-dispatches on the fresh worker.
                    query_redispatches += self._recover(shard, error)
            # Collect in rank order; a dead or hung shard rides the ladder.
            try:
                for shard in self._shards:
                    handle.check_deadline()
                    was_dispatched = bool(unread) and unread[0] is shard
                    if was_dispatched:
                        unread.pop(0)  # _collect reads the answer or respawns
                    meta, columns, redispatches = self._collect(
                        shard, needed, request, was_dispatched
                    )
                    query_redispatches += redispatches
                    metas.append(meta)
                    columns_by_rank.append(columns)
            except Exception:
                self._drain(unread)
                raise
        return self._merge(
            outer, inner, epochs, snapshot.epoch, metas, columns_by_rank,
            query_redispatches,
        )

    def _collect(
        self,
        shard: _ShardHandle,
        needed,
        request: Dict,
        was_dispatched: bool,
    ) -> Tuple[Dict, Optional[Tuple], int]:
        """One shard's RESULT, riding the re-dispatch ladder on failure."""
        redispatches = 0
        attempt_pending = was_dispatched and not shard.quarantined
        while True:
            if shard.quarantined:
                self._ensure_loaded(shard, needed)
                meta, columns = shard.inline.execute(request)
                self._count(
                    "repro_shard_fragments_total",
                    "Fragments executed.",
                    status="quarantined",
                )
                return (
                    {**meta, "quarantined": True, "redispatches": redispatches},
                    columns,
                    redispatches,
                )
            try:
                if not attempt_pending:
                    self._ensure_loaded(shard, needed)
                    shard.channel.send_obj(transport.EXECUTE, request)
                ftype, flags, payload = shard.channel.recv(
                    timeout=self.supervision.fragment_timeout_seconds
                )
                if ftype == transport.ERROR:
                    body = transport.decode_payload(payload, flags)
                    raise ServiceError(
                        f"shard {shard.rank} failed deterministically: "
                        f"{body.get('error')}"
                    )
                if ftype != transport.RESULT:
                    raise TransportError(
                        f"expected RESULT from shard {shard.rank}, got {ftype}",
                        kind="protocol",
                    )
                meta, columns = transport.unpack_result(payload)
                meta["redispatches"] = redispatches
                self._count("repro_shard_fragments_total", "Fragments executed.", status="ok")
                return meta, columns, redispatches
            except TransportError as error:
                redispatches += self._recover(shard, error)
                attempt_pending = False
                if redispatches > self.supervision.max_redispatches:
                    self._quarantine(
                        shard,
                        f"shard {shard.rank} exhausted "
                        f"{self.supervision.max_redispatches} re-dispatches: {error}",
                    )

    def _drain(self, unread: List[_ShardHandle]) -> None:
        """Discard the answers of fragments an aborted query will not collect.

        Leaves every channel at a frame boundary, so the next request's
        answer is the next frame read.
        """
        for shard in unread:
            try:
                shard.channel.recv(timeout=self.supervision.fragment_timeout_seconds)
            except TransportError as error:
                self._recover(shard, error)

    def _recover(self, shard: _ShardHandle, error: TransportError) -> int:
        """Respawn after a death/hang; returns 1 (one re-dispatch consumed)."""
        kind = "shard-hang" if error.kind == "timeout" else "shard-death"
        self.resilience.record_degradation(
            kind, f"shard {shard.rank}: {error} (respawn #{shard.respawns + 1})"
        )
        self._count(
            "repro_shard_redispatches_total",
            "Fragment re-dispatches forced by worker death or hang.",
            kind=kind,
        )
        self._count("repro_shard_fragments_total", "Fragments executed.", status="redispatch")
        self._respawn(shard)
        self._gauge_workers()
        return 1

    def _ensure_loaded(self, shard: _ShardHandle, needed) -> None:
        """Ship any fragment versions the shard has not installed yet.

        Each LOAD names the older versions of the same relation the shard
        holds, which it drops: a write would otherwise leave one more full
        fragment copy in every worker forever.  A query still pinned to an
        evicted epoch has it shipped again.  A quarantined shard's
        in-process stand-in is loaded the same way, without the socket.
        """
        for name, epoch, relation in needed:
            key = (name, epoch)
            if key in shard.loaded:
                continue
            superseded = {
                held for held in shard.loaded if held[0] == name and held[1] < epoch
            }
            meta = {
                "name": name,
                "epoch": epoch,
                "schema": schema_to_dict(relation.schema),
                "evict": sorted(held[1] for held in superseded),
            }
            columns = self.shard_map.fragment(relation, shard.rank).to_columns()
            if shard.quarantined:
                shard.inline.load(meta, columns)
            else:
                shard.channel.send(transport.LOAD, transport.pack_result(meta, columns))
                ftype, body = shard.channel.recv_obj(
                    timeout=self.supervision.fragment_timeout_seconds
                )
                if ftype != transport.OK:
                    raise TransportError(
                        f"shard {shard.rank} failed to load fragment {key}: {body}",
                        kind="protocol",
                    )
            shard.loaded -= superseded
            shard.loaded.add(key)
            self._count(
                "repro_shard_fragment_loads_total",
                "Fragment versions shipped to workers.",
            )

    # -- the deterministic merge ---------------------------------------------

    def _merge(
        self,
        outer: str,
        inner: str,
        epochs: Tuple[int, int],
        snapshot_epoch: int,
        metas: List[Dict],
        columns_by_rank: List[Optional[Tuple]],
        redispatches: int,
    ) -> ShardedQueryResult:
        relation: Optional[ValidTimeRelation] = None
        for meta, columns in zip(metas, columns_by_rank):
            if meta.get("result_schema") is None:
                continue
            schema = schema_from_dict(meta["result_schema"])
            if relation is None:
                relation = ValidTimeRelation(schema)
            if columns is not None:
                # One lazy chunk per shard, in rank order, validated by column.
                relation.append_columns(*columns)

        n_result = sum(m["outcome"]["n_result_tuples"] for m in metas)
        outcome = JoinOutcome(
            result=relation,
            n_result_tuples=n_result,
            overflow_blocks=sum(m["outcome"]["overflow_blocks"] for m in metas),
            cache_tuples_peak=max(
                (m["outcome"]["cache_tuples_peak"] for m in metas), default=0
            ),
            cache_tuples_spilled=sum(
                m["outcome"]["cache_tuples_spilled"] for m in metas
            ),
        )
        phases: Dict[str, IOStatistics] = {}
        totals = IOStatistics()
        for meta in metas:
            totals.merge(IOStatistics(**meta["totals"]))
            for name, counters in meta["phases"].items():
                phases.setdefault(name, IOStatistics()).merge(
                    IOStatistics(**counters)
                )
        shard_reports = tuple(
            ShardFragmentReport(
                rank=meta["rank"],
                algorithm=meta["algorithm"],
                n_result_tuples=meta["outcome"]["n_result_tuples"],
                outcome_counters=(
                    meta["outcome"]["n_result_tuples"],
                    meta["outcome"]["overflow_blocks"],
                    meta["outcome"]["cache_tuples_peak"],
                    meta["outcome"]["cache_tuples_spilled"],
                ),
                phases=meta["phases"],
                totals=meta["totals"],
                charged_ops=meta["charged_ops"],
                cost=meta["cost"],
                requested_pages=meta["requested_pages"],
                granted_pages=meta["granted_pages"],
                degraded=meta["degraded"],
                peak_granted_pages=meta["peak_granted_pages"],
                fragment_tuples=tuple(meta["fragment_tuples"]),
                redispatches=meta.get("redispatches", 0),
                quarantined=meta.get("quarantined", False),
            )
            for meta in metas
        )
        total_cost = sum(m["cost"] for m in metas)
        charged_ops = sum(m["charged_ops"] for m in metas)
        self._count(
            "repro_shard_charged_ops_total",
            "Charged I/O operations summed over shard fragments.",
            amount=charged_ops,
        )
        return ShardedQueryResult(
            relation=relation,
            outcome=outcome,
            algorithm=metas[0]["algorithm"] if metas else "partition",
            cost=total_cost,
            service_cost=max((m["cost"] for m in metas), default=0.0),
            charged_ops=charged_ops,
            phases=phases,
            totals=totals,
            outer=outer,
            inner=inner,
            epochs=epochs,
            snapshot_epoch=snapshot_epoch,
            shards=shard_reports,
            redispatches=redispatches,
            requested_pages=sum(m["requested_pages"] for m in metas),
            granted_pages=sum(m["granted_pages"] for m in metas),
            degraded=any(m["degraded"] for m in metas),
        )

    # -- planning helpers (mirrors of the single-process service) ------------

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

    def _statistics(self, version) -> RelationStatistics:
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
        raw = session.config.predicate
        if raw is None:
            return NATURAL_PREDICATE
        return resolve_predicate(raw).name

    def _choose_method(
        self,
        snapshot: CatalogSnapshot,
        outer: str,
        inner: str,
        config: PartitionJoinConfig,
        *,
        predicate: str = NATURAL_PREDICATE,
    ) -> str:
        if predicate != NATURAL_PREDICATE:
            return "sweep"
        outer_stats = self._statistics(snapshot.version(outer))
        inner_stats = self._statistics(snapshot.version(inner))
        return choose_algorithm(
            outer_stats.n_pages,
            inner_stats.n_pages,
            config.memory_pages,
            self.cost_model,
            long_lived_fraction=inner_stats.long_lived_fraction,
            endpoint_sorted=(
                outer_stats.endpoint_sorted,
                inner_stats.endpoint_sorted,
            ),
        )

    # -- EXPLAIN support ------------------------------------------------------

    def shard_fanout(self, outer: str, inner: str) -> Dict:
        """The EXPLAIN fan-out description with per-shard predicted costs."""
        snapshot = self.catalog.snapshot()
        return predict_shard_fanout(
            self.shard_map,
            snapshot.version(outer).relation,
            snapshot.version(inner).relation,
            memory_pages=self.default_memory_pages,
            cost_model=self.cost_model,
            page_spec=self.page_spec,
        )

    # -- supervision / introspection -----------------------------------------

    def ping_all(self) -> List[Dict]:
        """Heartbeat every worker; returns the PONG bodies in rank order."""
        statuses = []
        with self._fanout_lock:
            for shard in self._shards:
                if shard.quarantined:
                    statuses.append(
                        {**shard.inline.status(), "quarantined": True}
                    )
                    continue
                try:
                    shard.channel.send_obj(transport.PING, {})
                    ftype, body = shard.channel.recv_obj(
                        timeout=self.supervision.heartbeat_seconds * 10
                    )
                    if ftype != transport.PONG:
                        raise TransportError(
                            f"expected PONG, got {ftype}", kind="protocol"
                        )
                    shard.last_status = body
                    statuses.append(body)
                except TransportError as error:
                    self._recover(shard, error)
                    statuses.append({"rank": shard.rank, "respawned": True})
        return statuses

    def worker_pids(self) -> List[Optional[int]]:
        """Live worker PIDs in rank order (None for quarantined shards)."""
        return [
            None
            if shard.quarantined or shard.process is None
            else shard.process.pid
            for shard in self._shards
        ]

    def alive_workers(self) -> int:
        return sum(
            1
            for shard in self._shards
            if not shard.quarantined
            and shard.process is not None
            and shard.process.is_alive()
        )

    def _arm_chaos_hang(self, rank: int, seconds: float) -> None:
        """Arm a deterministic hang in worker *rank* (chaos-test hook)."""
        shard = self._shards[rank]
        if shard.quarantined:
            raise ServiceError(f"shard {rank} is quarantined")
        with self._fanout_lock:
            shard.channel.send_obj(transport.CHAOS, {"hang_seconds": seconds})
            ftype, _body = shard.channel.recv_obj(timeout=self.spawn_timeout)
            if ftype != transport.OK:
                raise ServiceError(f"shard {rank} refused the chaos frame")

    def _arm_chaos_respawn_hang(self, rank: int, seconds: float) -> None:
        """Arm a hang that re-arms on every respawn of worker *rank*.

        Chaos-test hook for the quarantine rung: the shard fails every
        incarnation until the re-dispatch budget runs out.  The quarantine
        worker itself never inherits the hang.
        """
        self._shards[rank].spawn_chaos = {"chaos_hang_seconds": seconds}
        self._arm_chaos_hang(rank, seconds)

    # -- metrics / report ----------------------------------------------------

    def _count(self, name: str, help: str = "", amount: float = 1.0, **labels) -> None:
        with self._metrics_lock:
            self.obs.count(name, help, amount=amount, **labels)

    def _count_query(self, status: str, method: str) -> None:
        self._count(
            "repro_shard_queries_total",
            "Sharded queries served, by final status and method.",
            status=status,
            method=method,
        )

    def _gauge_workers(self) -> None:
        with self._metrics_lock:
            self.obs.gauge(
                "repro_shard_workers",
                float(
                    sum(
                        1
                        for shard in self._shards
                        if not shard.quarantined
                        and shard.process is not None
                        and shard.process.is_alive()
                    )
                ),
                "Live shard worker processes.",
            )

    def metrics_snapshot(self) -> Dict:
        """Stable snapshot of every ``repro_shard_*`` family."""
        self._gauge_workers()
        counters = transport_counters()
        with self._metrics_lock:
            for name, value in counters.items():
                self.obs.gauge(
                    f"repro_shard_transport_{name}",
                    float(value),
                    "Transport counter (process-local).",
                )
        return self.obs.metrics_snapshot()

    def report(self) -> Dict:
        """A human-sized serving summary (topology, supervision, transport)."""
        return {
            "shards": self.shard_map.n_shards,
            "strategy": self.shard_map.strategy,
            "active_sessions": self.active_sessions,
            "pool_pages_per_shard": self.pool_pages,
            "workers": [
                {
                    "rank": shard.rank,
                    "pid": None if shard.process is None else shard.process.pid,
                    "alive": (
                        shard.process is not None and shard.process.is_alive()
                        and not shard.quarantined
                    ),
                    "quarantined": shard.quarantined,
                    "respawns": shard.respawns,
                    "loaded_fragments": len(shard.loaded),
                    "peak_granted_pages": shard.last_status.get(
                        "peak_granted_pages", 0
                    ),
                }
                for shard in self._shards
            ],
            "redispatches": sum(
                1
                for event in self.resilience.degradations
                if event.kind in ("shard-death", "shard-hang")
            ),
            "degradations": [
                {"kind": event.kind, "detail": event.detail}
                for event in self.resilience.degradations
            ],
            "transport": transport_counters(),
        }


def predict_shard_fanout(
    shard_map: ShardMap,
    r: ValidTimeRelation,
    s: ValidTimeRelation,
    *,
    memory_pages: int,
    cost_model: CostModel,
    page_spec: PageSpec,
) -> Dict:
    """Per-shard predicted costs for EXPLAIN's shard fan-out line.

    Plans each shard's fragment pair with the same planner the worker will
    use and sums the predicted per-phase costs -- so EXPLAIN's fan-out
    line shows the skew the router expects, before anything runs.
    """
    from repro.core.partition_join import plan_partition_join
    from repro.obs.explain import predicted_phases

    config = PartitionJoinConfig(
        memory_pages=memory_pages, cost_model=cost_model, page_spec=page_spec
    )
    per_shard = []
    for rank in range(shard_map.n_shards):
        r_frag = shard_map.fragment(r, rank)
        s_frag = shard_map.fragment(s, rank)
        plan, single, outer_pages, inner_pages = plan_partition_join(
            r_frag, s_frag, config
        )
        predicted = sum(
            phase.predicted
            for phase in predicted_phases(
                plan, single, outer_pages, inner_pages, config
            )
        )
        per_shard.append(
            {
                "rank": rank,
                "outer_tuples": len(r_frag),
                "inner_tuples": len(s_frag),
                "outer_pages": outer_pages,
                "inner_pages": inner_pages,
                "predicted_cost": round(predicted, 2),
            }
        )
    return {
        "shards": shard_map.n_shards,
        "strategy": shard_map.strategy,
        "per_shard": per_shard,
    }
