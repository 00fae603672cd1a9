""":class:`ShardedQueryService`: the coordinator over N shard workers.

The multi-process sibling of
:class:`~repro.service.service.QueryService`: both are a
:class:`~repro.service.core.ServiceCore` -- one session, write, query
resolution, result-cache and status-metric surface over the authoritative
:class:`~repro.engine.catalog.VersionedCatalog` -- and differ in how a
resolved query is evaluated.  This one records its shard map in the catalog
(so every snapshot resolves to one routing) and owns N forked shard worker
processes, each with its own buffer pool, admission controller and
simulated disks.

The query path:

1. (the core) take a catalog snapshot; resolve ``"auto"`` against the
   *global* relation statistics, once, so every shard is sent the same
   concrete method; answer a join repeated at the same epochs from the
   result cache, with no fan-out, no frame and no fan-out lock;
2. ship any fragment versions a shard has not seen for the pinned epochs
   (fragments are immutable per ``(name, epoch)``, so shipping is lazy,
   idempotent, and rebuildable after a respawn), evicting the older
   versions of the same relation the shard still holds -- as the rows the
   writes since a version the shard holds removed and added when there is
   such a version, as the whole fragment otherwise;
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

import multiprocessing
import socket
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.algebra.predicates import NATURAL_PREDICATE
from repro.core.joiner import JoinOutcome
from repro.core.partition_join import PartitionJoinConfig
from repro.engine.catalog import RelationVersion, VersionedCatalog
from repro.model.errors import ServiceError
from repro.model.relation import ValidTimeRelation
from repro.resilience.report import ResilienceReport
from repro.resilience.supervisor import SupervisionPolicy
from repro.service.core import ResolvedQuery, ServiceCore, ServiceQueryResult
from repro.shard import transport
from repro.shard.partitioning import ShardMap, time_range_map
from repro.shard.transport import Channel, TransportError, transport_counters
from repro.shard.worker import ShardWorker, schema_to_dict, worker_main
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


@dataclass(frozen=True, kw_only=True)
class ShardedQueryResult(ServiceQueryResult):
    """One sharded query: the merged result plus its full fan-out pedigree.

    A :class:`~repro.service.core.ServiceQueryResult` (``requested_pages``
    and ``granted_pages`` sum over shards; ``degraded`` and ``clamped``
    hold when any shard's grant was) plus the shard-specific pedigree:

    Attributes:
        cost: the *total* charged bill, summed over shards (what the work
            cost; compare to the single-process bill).
        service_cost: the *parallel* bill -- the maximum per-shard cost,
            i.e. the simulated service latency with every shard's disk
            running concurrently (the benchmark suite's
            ``shard.coordinator.service_cost``).
        phases: merged per-phase ledgers
            (:class:`~repro.storage.iostats.IOStatistics` per phase name,
            folded exactly once per shard).
        totals: the merged whole-query ledger.
        shards: per-shard fragment reports, in rank order.
        redispatches: supervision re-dispatches this query survived.

    A result-cache hit ran no fragment: its bill is all zeros and empty.
    """

    service_cost: float = 0.0
    phases: Dict[str, IOStatistics] = field(default_factory=dict)
    totals: IOStatistics = field(default_factory=IOStatistics)
    shards: Tuple[ShardFragmentReport, ...] = ()
    redispatches: int = 0


@dataclass
class _ShardHandle:
    """Coordinator-side state of one worker process."""

    rank: int
    process: object = None
    channel: Optional[Channel] = None
    # (name, epoch) -> rows of the fragment version the worker holds.
    loaded: Dict[Tuple[str, int], int] = field(default_factory=dict)
    respawns: int = 0
    quarantined: bool = False
    inline: Optional[ShardWorker] = None  # the quarantine rung
    last_status: Dict = field(default_factory=dict)
    # Chaos-test options merged into every (re)spawn of this shard; the
    # quarantine rung never inherits them (it must actually answer).
    spawn_chaos: Dict = field(default_factory=dict)

    @property
    def alive(self) -> bool:
        """A worker process is serving this shard right now."""
        return (
            not self.quarantined
            and self.process is not None
            and self.process.is_alive()
        )


@dataclass
class _Shipment:
    """One relation version a query pins on every shard, and its rows per
    rank once some shard had to be sent the whole fragment."""

    version: RelationVersion
    parts: Optional[List[List]] = None


def _fork_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover -- non-POSIX fallback
        return multiprocessing.get_context()


class ShardedQueryService(ServiceCore):
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

    _queries_family = "repro_shard_queries_total"
    _result_type = ShardedQueryResult

    def __init__(
        self,
        catalog: VersionedCatalog,
        *,
        shards: int,
        shard_by: str = "key-hash",
        admission_policy: str = "fifo",
        supervision: Optional[SupervisionPolicy] = None,
        spawn_timeout: float = 30.0,
        **core_options,
    ) -> None:
        if shards < 1:
            raise ServiceError(f"shards must be >= 1, got {shards}")
        if shard_by == "time-range":
            relations = [
                catalog.current(name).relation for name in catalog.names()
            ]
            self.shard_map = time_range_map(shards, *relations)
        else:
            self.shard_map = ShardMap(shards, strategy=shard_by)
        # Everything that can reject the arguments has run before the first
        # thread or process starts; from here on a failure goes through close().
        super().__init__(catalog, **core_options)
        self.admission_policy = admission_policy
        self.supervision = (
            supervision if supervision is not None else SupervisionPolicy()
        )
        self.spawn_timeout = spawn_timeout
        self.resilience = ResilienceReport()
        self._fanout_lock = threading.Lock()
        self._mp = _fork_context()
        self._shards: List[_ShardHandle] = []
        try:
            # Record the routing in the catalog: any snapshot at or after
            # this epoch resolves to this map, so fragment routing is a pure
            # function of (snapshot, rank) -- epoch-consistent across shards.
            catalog.record_shard_map(self.shard_map.as_dict())
            for rank in range(shards):
                # Registered before it is spawned: close() must find the
                # process and channel of a worker whose handshake failed.
                handle = _ShardHandle(rank=rank)
                self._shards.append(handle)
                self._spawn(handle)
        except BaseException:
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
        # The handle owns channel and process from the moment each exists,
        # so whoever stops the handle reaps them even if the handshake fails.
        handle.channel = channel = Channel(parent_sock, name=f"shard{handle.rank}")
        handle.loaded = {}
        process = self._mp.Process(
            target=worker_main,
            args=(
                child_sock,
                {**self._worker_options(handle.rank), **handle.spawn_chaos},
            ),
            name=f"repro-shard-{handle.rank}",
            daemon=True,
        )
        try:
            process.start()
        finally:
            child_sock.close()
        handle.process = process
        # First heartbeat doubles as the HELLO handshake: a worker that
        # cannot answer PING within the spawn timeout is dead on arrival.
        channel.send_obj(transport.PING, {})
        ftype, status = channel.recv_obj(timeout=self.spawn_timeout)
        if ftype != transport.PONG:
            raise ServiceError(
                f"shard {handle.rank} answered spawn handshake with frame {ftype}"
            )
        handle.last_status = status

    def _stop(self, handle: _ShardHandle, *, polite: bool = False) -> None:
        """Close the channel and reap the process behind *handle*.

        *polite* asks first: a SHUTDOWN frame lets an idle worker exit by
        itself.  Whatever is still alive afterwards is killed.
        """
        channel = handle.channel
        if channel is not None and not channel.closed:
            if polite:
                try:
                    channel.send_obj(transport.SHUTDOWN, {})
                    channel.recv(timeout=2.0)
                except TransportError:
                    pass
            channel.close()
        process = handle.process
        if process is not None:
            if polite:
                process.join(timeout=2)
            if process.is_alive():
                process.kill()
            process.join(timeout=10)

    def _quarantine(self, handle: _ShardHandle, detail: str) -> None:
        """Retire the shard to in-process execution (the bottom rung)."""
        handle.quarantined = True
        handle.inline = ShardWorker(self._worker_options(handle.rank))
        handle.loaded = {}
        self._stop(handle)
        self.resilience.record_degradation("shard-quarantine", detail)
        self._count(
            "repro_shard_quarantines_total",
            "Shards retired to in-process execution.",
        )
        self._gauge_workers()

    def close(self) -> None:
        """Shut the executor down, stop every worker, close every session."""
        if self._closed:
            return
        super().close()
        for handle in self._shards:
            self._stop(handle, polite=True)
        self._gauge_workers()

    # -- serving: ship -> fan out -> collect -> merge ------------------------

    def _check_predicate(self, predicate: str, method: str) -> None:
        super()._check_predicate(predicate, method)
        if predicate != NATURAL_PREDICATE and self.shard_map.strategy != "key-hash":
            raise ServiceError(
                "time-range sharding evaluates only the natural join's "
                f"{NATURAL_PREDICATE!r} predicate; got {predicate!r}"
            )

    def _serve(self, query: ResolvedQuery) -> ShardedQueryResult:
        handle, config = query.handle, query.config
        epochs = query.epochs
        request = {
            "query_id": handle.query_id,
            "outer": query.outer.name,
            "outer_epoch": epochs[0],
            "inner": query.inner.name,
            "inner_epoch": epochs[1],
            "method": query.method,
            "execution": config.execution,
            "memory_pages": config.memory_pages,
            "predicate": config.predicate if query.method == "sweep" else None,
        }
        needed = (_Shipment(query.outer), _Shipment(query.inner))
        query_redispatches = 0
        metas: List[Dict] = []
        columns_by_rank: List[Optional[Tuple]] = []
        with self._fanout_lock:
            handle.check_cancelled()
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
            # A cancelled or overdue query stops between two collects.
            try:
                for shard in self._shards:
                    handle.check_cancelled()
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
        return self._merge(query, metas, columns_by_rank, query_redispatches)

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
        self._stop(shard)
        shard.respawns += 1
        self._spawn(shard)
        self._gauge_workers()
        return 1

    def _ensure_loaded(self, shard: _ShardHandle, needed) -> None:
        """Ship any fragment versions the shard has not installed yet.

        A shard that holds an ancestor of the version is sent the rows the
        writes in between removed and added, routed through the shard map,
        and rebuilds the fragment itself; any other shard -- first load,
        respawned, ancestor evicted, or more delta rows than the relation
        has rows -- is sent the fragment.  Either way the worker answers its
        row count, and a delta that did not rebuild the count tracked here
        is followed by the whole fragment.

        Each LOAD names the older versions of the same relation the shard
        holds, which it drops: a write would otherwise leave one more full
        fragment copy in every worker forever.  A query still pinned to an
        evicted epoch has it shipped again.  A quarantined shard's
        in-process stand-in is loaded the same way, without the socket.
        """
        for shipment in needed:
            version = shipment.version
            name, epoch = version.name, version.epoch
            if (name, epoch) in shard.loaded:
                continue
            superseded = sorted(
                held[1] for held in shard.loaded if held[0] == name and held[1] < epoch
            )
            since = self._steps_since(shard.rank, version, superseded)
            shipped = False
            if since is not None:
                base_epoch, steps = since
                sizes = [[len(removed), len(added)] for removed, added in steps]
                shipped = self._load(
                    shard,
                    version,
                    superseded,
                    [row for step in steps for rows in step for row in rows],
                    shard.loaded[name, base_epoch] + sum(added - removed for removed, added in sizes),
                    base_epoch=base_epoch,
                    steps=sizes,
                )
            if not shipped:
                if shipment.parts is None:  # routed once for every shard of this query
                    shipment.parts = self.shard_map.route(version.relation._tuples)
                rows = shipment.parts[shard.rank]
                if not self._load(shard, version, superseded, rows, len(rows)):
                    raise TransportError(
                        f"shard {shard.rank} failed to load fragment {(name, epoch)}",
                        kind="protocol",
                    )
            for held in superseded:
                del shard.loaded[name, held]

    def _steps_since(self, rank: int, version: RelationVersion, held: List[int]):
        """``(base epoch, [(removed, added), ...])``: the writes, oldest
        first and routed to *rank*, that turn the newest of the *held*
        epochs on *version*'s chain into *version* -- or None when no held
        epoch is on the chain, or the writes moved more rows than the
        relation has (shipping it whole is then the smaller frame)."""
        route, steps, budget = self.shard_map.route, [], len(version)
        while held and version.parent_epoch is not None and version.parent_epoch >= held[0]:
            budget -= len(version.removed) + len(version.added)
            if budget < 0:
                break
            steps.append((route(version.removed)[rank], route(version.added)[rank]))
            if version.parent_epoch in held:
                return version.parent_epoch, steps[::-1]
            version = self.catalog.version_at(version.name, version.parent_epoch)
        return None

    def _load(
        self,
        shard: _ShardHandle,
        version: RelationVersion,
        evict: List[int],
        rows: List,
        expected: int,
        **delta,
    ) -> bool:
        """One LOAD of *version* carrying *rows* -- its fragment, or with
        *delta* (``base_epoch``, ``steps``) the rows to rebuild it from;
        False when the worker refused it or installed a fragment of another
        size than *expected*."""
        meta = {
            "name": version.name,
            "epoch": version.epoch,
            "schema": schema_to_dict(version.schema),
            "evict": evict,
            **delta,
        }
        columns = ValidTimeRelation.over(version.schema, rows).to_columns() if rows else None
        if shard.quarantined:
            body = shard.inline.load(meta, columns)
        else:
            shard.channel.send(transport.LOAD, transport.pack_result(meta, columns))
            ftype, body = shard.channel.recv_obj(
                timeout=self.supervision.fragment_timeout_seconds
            )
            if ftype != transport.OK:
                return False
        self._count(
            "repro_shard_fragment_loads_total",
            "Fragment versions shipped to workers.",
            kind="delta" if delta else "whole",
        )
        if body["n_tuples"] != expected:
            return False
        shard.loaded[version.name, version.epoch] = expected
        return True

    # -- the deterministic merge ---------------------------------------------

    def _merge(
        self,
        query: ResolvedQuery,
        metas: List[Dict],
        columns_by_rank: List[Optional[Tuple]],
        redispatches: int,
    ) -> ShardedQueryResult:
        relation: Optional[ValidTimeRelation] = None
        for columns in columns_by_rank:
            if columns is None:
                continue
            if relation is None:
                relation = ValidTimeRelation(
                    query.outer.schema.join_result_schema(query.inner.schema)
                )
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
            shards=shard_reports,
            redispatches=redispatches,
            requested_pages=sum(m["requested_pages"] for m in metas),
            granted_pages=sum(m["granted_pages"] for m in metas),
            degraded=any(m["degraded"] for m in metas),
            clamped=any(m["clamped"] for m in metas),
            **query.pedigree(),
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
        return sum(1 for shard in self._shards if shard.alive)

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

    def _gauge_workers(self) -> None:
        with self._metrics_lock:
            self.obs.gauge(
                "repro_shard_workers",
                float(self.alive_workers()),
                "Live shard worker processes.",
            )

    def metrics_snapshot(self) -> Dict:
        """Stable snapshot of every ``repro_shard_*`` family (and the
        core's session, write and run-queue families)."""
        self._gauge_workers()
        with self._metrics_lock:
            for name, value in transport_counters().items():
                self.obs.gauge(
                    f"repro_shard_transport_{name}",
                    float(value),
                    "Transport counter (process-local).",
                )
        return super().metrics_snapshot()

    def report(self) -> Dict:
        """A human-sized serving summary (topology, supervision, transport,
        result cache)."""
        return {
            "shards": self.shard_map.n_shards,
            "strategy": self.shard_map.strategy,
            "active_sessions": self.active_sessions,
            "pool_pages_per_shard": self.pool_pages,
            "workers": [
                {
                    "rank": shard.rank,
                    "pid": None if shard.process is None else shard.process.pid,
                    "alive": shard.alive,
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
            **self._cache_reports(result_cache=self.result_cache),
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
