"""The shard worker: one process, one shard, its own memory and disk.

A worker owns the full serving stack for its shard: a private
:class:`~repro.service.admission.AdmissionController` over its own
:class:`~repro.storage.buffer.BufferPool`, a fresh simulated disk per
fragment (created inside :func:`~repro.core.partition_join.partition_join`,
exactly like the single-process service).  It speaks the
:mod:`repro.shard.transport` protocol:

* ``LOAD`` installs a relation fragment under ``(name, epoch)`` and drops
  the superseded epochs of that relation the coordinator lists.  Its rows
  are the fragment, or -- when the meta names a ``base_epoch`` this worker
  holds -- only the rows a chain of writes removed and added since, from
  which the worker rebuilds the fragment row for row.  Fragments are
  immutable once installed, so re-sending after a respawn rebuilds
  identical state.
* ``EXECUTE`` runs one join fragment pinned to explicit epochs and answers
  with a ``RESULT`` frame: the result columns in span-descriptor shape
  plus the fragment's :class:`~repro.core.joiner.JoinOutcome` counters,
  per-phase charged-I/O ledger, and admission pedigree.
* ``PING``/``PONG`` is the heartbeat; ``CHAOS`` arms a deterministic hang
  (test hook for the supervision ladder); ``SHUTDOWN`` exits the loop.

Everything a worker computes is a pure function of its fragments and the
query parameters, which is what makes the coordinator's re-dispatch
deterministic: respawn, re-``LOAD``, re-``EXECUTE`` reproduces the lost
fragment bit-identically.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, Optional, Tuple

from repro.core.partition_join import PartitionJoinConfig
from repro.engine.runner import grant_request, run_join
from repro.model.errors import ServiceError
from repro.model.relation import ValidTimeRelation
from repro.model.schema import RelationSchema
from repro.service.admission import AdmissionController
from repro.shard import transport
from repro.shard.partitioning import ShardMap
from repro.shard.transport import Channel, TransportError
from repro.storage.iostats import CostModel
from repro.storage.page import PageSpec


def schema_to_dict(schema: RelationSchema) -> Dict:
    """The wire shape of a relation schema (LOAD frames, RESULT meta)."""
    return {
        "name": schema.name,
        "join_attributes": list(schema.join_attributes),
        "payload_attributes": list(schema.payload_attributes),
        "tuple_bytes": schema.tuple_bytes,
    }


def schema_from_dict(data: Dict) -> RelationSchema:
    return RelationSchema(
        name=data["name"],
        join_attributes=tuple(data["join_attributes"]),
        payload_attributes=tuple(data["payload_attributes"]),
        tuple_bytes=int(data["tuple_bytes"]),
    )


class ShardWorker:
    """The in-process shard engine (testable without forking).

    Args:
        options: the spawn-time configuration dict: ``rank``, ``pool_pages``,
            ``admission_policy``, ``page_bytes`` / ``tuple_bytes``,
            ``io_ran`` / ``io_seq``, and the ``shard_map`` record.
    """

    def __init__(self, options: Dict) -> None:
        self.rank = int(options["rank"])
        self.shard_map = ShardMap.from_dict(options["shard_map"])
        self.page_spec = PageSpec(
            page_bytes=int(options.get("page_bytes", PageSpec().page_bytes)),
            tuple_bytes=int(options.get("tuple_bytes", PageSpec().tuple_bytes)),
        )
        self.cost_model = CostModel(
            io_ran=float(options.get("io_ran", 5.0)),
            io_seq=float(options.get("io_seq", 1.0)),
        )
        self.pool_pages = int(options.get("pool_pages", 64))
        self.admission = AdmissionController(
            self.pool_pages,
            policy=str(options.get("admission_policy", "fifo")),
        )
        self._fragments: Dict[Tuple[str, int], ValidTimeRelation] = {}
        self._queries = 0
        # Chaos hook: a hang armed at spawn time survives respawns (the
        # coordinator's supervision tests need a worker that fails on
        # every incarnation, not just the first).
        self._hang_seconds: Optional[float] = (
            float(options["chaos_hang_seconds"])
            if "chaos_hang_seconds" in options
            else None
        )

    # -- frame handlers ------------------------------------------------------

    def load(self, meta: Dict, columns) -> Dict:
        """Install a fragment version (idempotent: same key, same bytes) and
        drop the epochs of the same relation listed under ``meta["evict"]``.

        *columns* are the fragment's rows -- or, when the meta carries
        ``base_epoch`` and ``steps``, the delta rows of a chain of writes
        on top of the fragment held for that epoch: per ``[n_removed,
        n_added]`` step, the rows to remove (first occurrence each, the
        catalog's own rule) and then the rows to append.  The answered
        ``n_tuples`` lets the coordinator check the rebuilt fragment.
        """
        schema = schema_from_dict(meta["schema"])
        name, epoch = str(meta["name"]), int(meta["epoch"])
        fragment = ValidTimeRelation(schema)
        if columns is not None:
            # Rows of one join key share one key tuple: results gather their
            # key column from these rows, so its pickle memoises to one copy
            # per distinct key on the wire and in the coordinator.
            shared: Dict[Tuple, Tuple] = {}
            keys = [shared.setdefault(key, key) for key in map(tuple, columns[0])]
            # Built from columns, derived by steps: a fragment arrives split.
            fragment = ValidTimeRelation.from_columns(schema, keys, *columns[1:])
        if "base_epoch" in meta:
            delta = fragment._tuples
            fragment = self._fragments[(name, int(meta["base_epoch"]))]
            for n_removed, n_added in meta["steps"]:
                moved = n_removed + n_added
                fragment = fragment.without_rows(delta[:n_removed])[0].with_rows(
                    delta[n_removed:moved]
                )
                delta = delta[moved:]
        self._fragments[(name, epoch)] = fragment
        for evicted in meta.get("evict", ()):
            self._fragments.pop((name, int(evicted)), None)
        return {"rank": self.rank, "loaded": [name, epoch], "n_tuples": len(fragment)}

    def execute(self, request: Dict) -> Tuple[Dict, Optional[Tuple]]:
        """Run one fragment join; returns ``(meta, result_columns)``."""
        if self._hang_seconds is not None:
            # The armed chaos hang: sleep where a real wedge would sit --
            # after dequeue, before any work -- so SIGKILL/timeout recovery
            # re-dispatches a fragment that never partially executed.
            seconds, self._hang_seconds = self._hang_seconds, None
            time.sleep(seconds)
        outer = (str(request["outer"]), int(request["outer_epoch"]))
        inner = (str(request["inner"]), int(request["inner_epoch"]))
        try:
            r = self._fragments[outer]
            s = self._fragments[inner]
        except KeyError as missing:
            raise ServiceError(
                f"shard {self.rank} has no fragment {missing} "
                f"(loaded: {sorted(self._fragments)})"
            ) from None
        method = str(request["method"])
        memory_pages = int(request["memory_pages"])
        execution = str(request.get("execution", "batch"))
        predicate = request.get("predicate") or "intersects"

        config = PartitionJoinConfig(
            memory_pages=memory_pages,
            cost_model=self.cost_model,
            page_spec=self.page_spec,
            execution="forward-sweep" if method == "sweep" else execution,
            predicate=predicate,
        )
        # The same ladder the single-process service rides (ask, grant,
        # clamp to this worker's pool, replan for what it got), without its
        # caches: a fragment's bill is a pure function of its inputs.
        ask = grant_request(r, s, method, config)
        grant = self.admission.acquire(
            max(1, ask), label=f"shard{self.rank}:q{request.get('query_id', 0)}"
        )
        try:
            run = run_join(r, s, method, config, grant.pages)
        finally:
            grant.release()
        outcome, tracker = run.outcome, run.tracker
        self._queries += 1

        result = outcome.result
        n_result = outcome.n_result_tuples
        if result is not None and self.shard_map.strategy == "time-range":
            # Replicated inputs meet in every shard both tuples overlap;
            # only the owner of the intersection start reports the pair.
            owned = [
                tup
                for tup in result.tuples
                if self.shard_map.owns_result(self.rank, tup.vs)
            ]
            result = ValidTimeRelation(result.schema, owned)
            n_result = len(owned)

        meta = {
            "query_id": request.get("query_id", 0),
            "rank": self.rank,
            "algorithm": run.algorithm,
            "outcome": {
                "n_result_tuples": n_result,
                "overflow_blocks": outcome.overflow_blocks,
                "cache_tuples_peak": outcome.cache_tuples_peak,
                "cache_tuples_spilled": outcome.cache_tuples_spilled,
            },
            "phases": {
                name: stats.as_dict() for name, stats in tracker.phases.items()
            },
            "totals": tracker.stats.as_dict(),
            "charged_ops": run.charged_ops,
            "cost": run.cost,
            "requested_pages": ask,
            "granted_pages": grant.pages,
            "degraded": grant.degraded,
            "clamped": grant.clamped,
            "peak_granted_pages": self.admission.peak_granted_pages,
            "fragment_tuples": (len(r), len(s)),
        }
        columns = result.to_columns() if result is not None else None
        return meta, columns

    def status(self) -> Dict:
        """The PONG body: liveness plus per-shard admission pressure."""
        return {
            "rank": self.rank,
            "fragments": len(self._fragments),
            "queries": self._queries,
            "peak_granted_pages": self.admission.peak_granted_pages,
            "grants": self.admission.grants,
            "pool_pages": self.pool_pages,
        }

    def arm_chaos(self, request: Dict) -> Dict:
        """Arm a deterministic hang before the next EXECUTE (test hook)."""
        self._hang_seconds = float(request["hang_seconds"])
        return {"rank": self.rank, "armed": self._hang_seconds}


def worker_main(sock, options: Dict) -> None:
    """Child-process entry point: serve frames until SHUTDOWN or EOF."""
    # Every object alive here is the coordinator's, inherited by fork: each
    # collection would walk -- and copy on write -- that whole heap.
    gc.freeze()
    worker = ShardWorker(options)
    channel = Channel(sock, name=f"coordinator<-shard{worker.rank}")
    try:
        while True:
            try:
                ftype, flags, payload = channel.recv()
            except TransportError:
                break  # the coordinator went away; nothing left to serve
            try:
                if ftype == transport.SHUTDOWN:
                    channel.send_obj(transport.OK, worker.status())
                    break
                elif ftype == transport.PING:
                    channel.send_obj(transport.PONG, worker.status())
                elif ftype == transport.CHAOS:
                    body = transport.decode_payload(payload, flags)
                    channel.send_obj(transport.OK, worker.arm_chaos(body))
                elif ftype == transport.LOAD:
                    meta, columns = transport.unpack_result(payload)
                    channel.send_obj(transport.OK, worker.load(meta, columns))
                elif ftype == transport.EXECUTE:
                    request = transport.decode_payload(payload, flags)
                    meta, columns = worker.execute(request)
                    channel.send(transport.RESULT, transport.pack_result(meta, columns))
                else:
                    channel.send_obj(
                        transport.ERROR,
                        {"error": f"unexpected frame type {ftype}"},
                    )
            except TransportError:
                break
            except Exception as error:  # deterministic failures travel back
                try:
                    channel.send_obj(
                        transport.ERROR,
                        {"error": f"{type(error).__name__}: {error}"},
                    )
                except TransportError:
                    break
    finally:
        channel.close()
