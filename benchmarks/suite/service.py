"""The two served workloads: closed-loop sessions with writes beside reads.

``served_mix`` drives :class:`~repro.service.QueryService`; ``sharded_mix``
drives the same script against a two-shard
:class:`~repro.shard.ShardedQueryService`.  Two client threads each own a
private relation pair and loop over cycles of four joins and one write (an
append of 32 seeded rows on odd cycles, a delete of the same rows on even
ones), sending the next operation only when the previous one returned and
starting every cycle together.  With a result cache every cycle is exactly
one miss and three hits; the sharded service has no result cache, so every
join is evaluated.

A relation therefore alternates between two states, and every evaluated
join in one state must charge the same cost and return the same tuples:
that is the per-repetition check, and averaging the per-state values is
what makes ``charged_cost`` independent of how many cycles a run fits in.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.partition_join import PartitionJoinConfig, partition_join
from repro.engine.catalog import VersionedCatalog
from repro.model.relation import ValidTimeRelation
from repro.service import QueryService
from repro.service.admission import AdmissionController
from repro.service.cache import CachedJoin, ResultCache
from repro.service.executor import QueryExecutor
from repro.shard import ShardedQueryService, ShardMap, transport_counters
from repro.shard.transport import pack_result, unpack_result
from repro.shard.worker import ShardWorker, schema_to_dict
from repro.storage.page import PageSpec

from benchmarks.suite import generators, oracle
from benchmarks.suite.library import rows_of
from benchmarks.suite.metrics import (
    RunResult,
    median,
    peak_rss_mb,
    percentile,
)
from benchmarks.suite.spans import SpanRecorder, clock, timed
from benchmarks.suite.speed import SpeedGauge, gauged

SESSIONS = 2
JOINS_PER_CYCLE = 4
#: Each session sees both relation states at least once.
MIN_CYCLES = 2
OP_TIMEOUT_SECONDS = 120.0
SHARDS = 2

_PAGES = PageSpec(8192, 16)
_SERVICE_OPTIONS = dict(
    pool_pages=24, memory_pages=16, workers=2, execution="batch", page_spec=_PAGES
)

#: The config both services build for a session's join, for the direct calls.
_QUERY_CONFIG = PartitionJoinConfig(
    memory_pages=_SERVICE_OPTIONS["memory_pages"],
    page_spec=_PAGES,
    execution=_SERVICE_OPTIONS["execution"],
)

WORKLOADS = {"served_mix": False, "sharded_mix": True}  # name -> sharded?


@dataclass
class Op:
    """One client operation as the client saw it."""

    session: int
    cycle: int
    kind: str  # "join", "append" or "delete"
    seconds: float = 0.0
    result: object = None
    error: Optional[str] = None

    @property
    def state(self) -> Tuple[int, int]:
        """Which of its two contents the session's outer relation had."""
        return (self.session, self.cycle % 2)


def _open_service(catalog: VersionedCatalog, sharded: bool):
    if sharded:
        return ShardedQueryService(
            catalog, shards=SHARDS, shard_by="key-hash", **_SERVICE_OPTIONS
        )
    return QueryService(catalog, **_SERVICE_OPTIONS)


def _set_up(sharded: bool, seed: int, scale: int):
    """Generate the pairs, build catalog and service, warm each pair once."""
    relations, generate_s = clock(
        lambda: generators.service_relations(seed, scale, SESSIONS)
    )
    catalog = VersionedCatalog()
    for relation in relations.values():
        catalog.register(relation.schema, relation.tuples)
    service = _open_service(catalog, sharded)
    try:
        with service.open_session() as session:
            for index in range(SESSIONS):
                session.join(
                    f"r{index}", f"s{index}", method="partition",
                    result_timeout=OP_TIMEOUT_SECONDS,
                )
    except BaseException:
        service.close()
        raise
    return relations, catalog, service, generate_s


def _session_cycle(
    session,
    index: int,
    cycle: int,
    batch: Sequence[generators.WriteRow],
    recorder: Optional[SpanRecorder],
    ops: List[Op],
) -> None:
    """One cycle of one closed-loop session: four joins, then one write.

    Odd cycles append the batch, even cycles delete it again.
    """
    outer, inner = f"r{index}", f"s{index}"

    def attempt(kind: str, call: Callable[[], object]) -> None:
        op = Op(index, cycle, kind)
        try:
            op.result, op.seconds = timed(recorder, f"client.{kind}", call)
        except Exception as error:  # a failed operation is counted, not fatal
            op.error = f"{type(error).__name__}: {error}"
        ops.append(op)

    for _ in range(JOINS_PER_CYCLE):
        attempt(
            "join",
            lambda: session.join(
                outer, inner, method="partition", result_timeout=OP_TIMEOUT_SECONDS
            ),
        )
    if cycle % 2:
        attempt("append", lambda: session.append(outer, batch))
    else:
        attempt("delete", lambda: session.delete(outer, batch))


def _run_loop(
    service,
    seed: int,
    seconds: float,
    recorder: Optional[SpanRecorder],
    first_cycle: int = 1,
) -> Tuple[List[Op], float]:
    """Both sessions side by side, cycle by cycle, for *seconds*.

    The sessions start every cycle together, so every cycle has the same
    contention: both misses arrive at once and one queues for admission.
    Returns every operation and the loop's wall seconds.  A second loop on
    the same service passes the cycle to resume at as *first_cycle*.
    """
    batches = [generators.write_batch(seed, index) for index in range(SESSIONS)]
    sessions = [service.open_session() for _ in range(SESSIONS)]
    ops: List[Op] = []
    begin = time.perf_counter()
    try:
        cycle = first_cycle
        while cycle < first_cycle + MIN_CYCLES or time.perf_counter() - begin < seconds:
            per_session: List[List[Op]] = [[] for _ in range(SESSIONS)]
            threads = [
                threading.Thread(
                    target=_session_cycle,
                    args=(sessions[index], index, cycle, batches[index], recorder,
                          per_session[index]),
                    name=f"client-{index}",
                )
                for index in range(SESSIONS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            ops.extend(op for session_ops in per_session for op in session_ops)
            cycle += 1
        wall = time.perf_counter() - begin
    finally:
        for session in sessions:
            session.close()
    return ops, wall


def _is_miss(op: Op) -> bool:
    return op.kind == "join" and op.error is None and not op.result.result_cache_hit


def _is_hit(op: Op) -> bool:
    return op.kind == "join" and op.error is None and op.result.result_cache_hit


def _exact_numbers(result: RunResult, ops: Sequence[Op]) -> None:
    """Per-state charged cost, service cost and cardinality; mismatches fail.

    Within one relation state every evaluated join must charge the same and
    every join must return the same count.  The reported numbers average
    the per-state values, so they depend on the seed only.
    """
    costs: Dict[Tuple[int, int], float] = {}
    service_costs: Dict[Tuple[int, int], float] = {}
    counts: Dict[Tuple[int, int], int] = {}
    for op in ops:
        if op.kind != "join" or op.error is not None:
            continue
        served = op.result
        n_result = served.outcome.n_result_tuples
        if counts.setdefault(op.state, n_result) != n_result:
            result.fail(f"session {op.session} cycle {op.cycle}: {n_result} result tuples, "
                        f"expected {counts[op.state]}")
        if served.result_cache_hit:
            if served.cost != 0.0:
                result.fail(f"cache hit charged {served.cost}")
            continue
        bill = (served.cost, getattr(served, "service_cost", 0.0))
        first = (costs.setdefault(op.state, bill[0]), service_costs.setdefault(op.state, bill[1]))
        if bill != first:
            result.fail(f"session {op.session} cycle {op.cycle}: charged {bill}, expected {first}")

    def mean(values: Dict) -> float:
        return sum(values[state] for state in sorted(values)) / max(1, len(values))

    result.exact = {
        "charged_cost": mean(costs),
        "service_cost": mean(service_costs),
        "result_tuples": mean(counts),
    }


def _verify(result: RunResult, catalog: VersionedCatalog, ops: Sequence[Op]) -> None:
    """Every recorded join against the oracle at the epochs it reports."""
    rows_at: Dict[Tuple[str, int], Tuple] = {}
    expected_for: Dict[Tuple[Tuple, Tuple], Counter] = {}
    actual_for: Dict[int, Counter] = {}

    def rows(name: str, epoch: int) -> Tuple:
        key = (name, epoch)
        if key not in rows_at:
            rows_at[key] = tuple(rows_of(catalog.version_at(name, epoch).relation))
        return rows_at[key]

    for op in ops:
        if op.error is not None:
            result.fail(f"session {op.session} cycle {op.cycle} {op.kind}: {op.error}")
            continue
        if op.kind != "join":
            continue
        served = op.result
        inputs = (rows(served.outer, served.epochs[0]), rows(served.inner, served.epochs[1]))
        if inputs not in expected_for:
            expected_for[inputs] = oracle.natural_join(*inputs)
        relation = served.relation
        if id(relation) not in actual_for:  # hits share the cached relation object
            actual_for[id(relation)] = Counter(rows_of(relation))
        if actual_for[id(relation)] != expected_for[inputs]:
            result.fail(
                f"session {op.session} cycle {op.cycle}: join at epochs "
                f"{served.epochs} differs from the oracle"
            )


def _record_inputs(result: RunResult, relations: Dict[str, ValidTimeRelation]) -> None:
    for name, relation in relations.items():
        result.inputs_sha256[name] = generators.sha256_columns(relation)


def _latencies_ms(ops: Sequence[Op]) -> List[float]:
    return [op.seconds * 1e3 for op in ops]


def run_end_to_end(
    name: str, seed: int, seconds: float, scale: int, setups: int
) -> RunResult:
    """Set up, run the closed loops for *seconds*, stop the clock, then verify."""
    sharded = WORKLOADS[name]
    result = RunResult()

    gauge = SpeedGauge()
    (relations, catalog, service, _), first_setup = gauged(
        gauge, lambda: _set_up(sharded, seed, scale)
    )
    try:
        ops, wall = _run_loop(service, seed, seconds, None)
    finally:
        service.close()  # reaps the shard workers, so their memory is counted
    rss = peak_rss_mb()

    # The repeated set-ups come after the loop, so the loop ran on the heap a
    # fresh process has and not on what earlier set-ups left behind.
    setup_seconds = [first_setup]
    for _ in range(setups - 1):
        (_, _, spare, _), elapsed = gauged(gauge, lambda: _set_up(sharded, seed, scale))
        spare.close()
        setup_seconds.append(elapsed)

    result.attempted = len(ops)
    _exact_numbers(result, ops)
    _verify(result, catalog, ops)
    _record_inputs(result, relations)
    misses = _latencies_ms([op for op in ops if _is_miss(op)])
    completed = sum(1 for op in ops if op.error is None)
    # The loop's work is done by other threads and processes on both cores,
    # where this thread's speed gauge does not reach: its timings stay as the
    # clock read them.  Set-up is this thread's own work and is normalised.
    result.raw = {"setup_s": median(setup_seconds), "setup_speed_factor": gauge.factor()}
    result.values = {
        "setup_s": result.raw["setup_s"] * gauge.factor(),
        "join_p50_ms": median(misses),
        "ops_per_s": completed / wall,
        "charged_cost": result.exact["charged_cost"],
        "peak_rss_mb": rss,
    }
    result.n_samples = {
        "setup_s": len(setup_seconds),
        "join_p50_ms": len(misses),
        "ops_per_s": completed,
    }
    return result


# -- the traced run -----------------------------------------------------------


def _per_call(repeats: int, call: Callable[[], object]) -> float:
    """Mean seconds of one *call* over *repeats* back-to-back calls."""

    def loop() -> None:
        for _ in range(repeats):
            call()

    return clock(loop)[1] / repeats


def _service_micro_loops(values: Dict[str, float], sample) -> None:
    """The serving layers alone, on the workload's real result and config."""
    config = _QUERY_CONFIG
    cached = CachedJoin(
        relation=sample.relation, outcome=sample.outcome, algorithm=sample.algorithm,
        cost=sample.cost, charged_ops=sample.charged_ops, epochs=sample.epochs,
    )
    cache = ResultCache(256)
    epochs = iter(range(1, 257))
    values["service.cache.store_us"] = 1e6 * _per_call(
        256, lambda: cache.store("r0", "s0", (next(epochs), 0), "partition", config, cached)
    )
    values["service.cache.lookup_us"] = 1e6 * _per_call(
        2000, lambda: cache.lookup("r0", "s0", (1, 0), "partition", config)
    )

    controller = AdmissionController(_SERVICE_OPTIONS["pool_pages"])
    values["service.admission.acquire_us"] = 1e6 * _per_call(
        2000,
        lambda: controller.acquire(_SERVICE_OPTIONS["memory_pages"], owner="s1").release(),
    )

    executor = QueryExecutor(workers=_SERVICE_OPTIONS["workers"])
    try:
        values["service.executor.handoff_us"] = 1e6 * _per_call(
            500, lambda: executor.submit(lambda handle: None).result(OP_TIMEOUT_SECONDS)
        )
    finally:
        executor.shutdown()


def _catalog_micro_loop(
    values: Dict[str, float], relation: ValidTimeRelation, batch: Sequence[generators.WriteRow]
) -> None:
    """A 32-row append and delete on a private copy-on-write catalog."""
    catalog = VersionedCatalog()
    name = relation.schema.name
    catalog.register(relation.schema, relation.tuples)
    rows = ValidTimeRelation.from_rows(relation.schema, batch).tuples
    appends, deletes = [], []
    for _ in range(5):
        appends.append(clock(lambda: catalog.append(name, rows))[1])
        deletes.append(clock(lambda: catalog.delete(name, rows))[1])
    values["engine.catalog.append_ms"] = median(appends) * 1e3
    values["engine.catalog.delete_ms"] = median(deletes) * 1e3


def _shard_micro_loops(
    values: Dict[str, float], catalog: VersionedCatalog, sample, recorder: SpanRecorder
) -> None:
    """Routing, codec and worker layers on the workload's real fragments."""
    shard_map = ShardMap(SHARDS)
    outer = catalog.current(sample.outer)
    inner = catalog.current(sample.inner)

    fragments, fragment_s = timed(
        recorder,
        "shard.partitioning.fragment",
        lambda: [shard_map.fragment(outer.relation, rank) for rank in range(SHARDS)],
    )
    values["shard.partitioning.fragment_s"] = fragment_s
    per_rank = [
        a + b
        for a, b in zip(
            shard_map.fragment_counts(outer.relation),
            shard_map.fragment_counts(inner.relation),
        )
    ]
    values["shard.partitioning.imbalance"] = max(per_rank) / (sum(per_rank) / SHARDS)

    columns = sample.relation.to_columns()
    n_tuples = max(1, len(sample.relation))
    payload = pack_result({"rank": 0}, columns)
    values["shard.transport.pack_ns_per_tuple"] = (
        1e9 * _per_call(20, lambda: pack_result({"rank": 0}, columns)) / n_tuples
    )
    values["shard.transport.unpack_ns_per_tuple"] = (
        1e9 * _per_call(20, lambda: unpack_result(payload)) / n_tuples
    )

    request = {
        "query_id": 0,
        "outer": outer.name, "outer_epoch": outer.epoch,
        "inner": inner.name, "inner_epoch": inner.epoch,
        "method": "partition",
        "execution": _SERVICE_OPTIONS["execution"],
        "memory_pages": _SERVICE_OPTIONS["memory_pages"],
        "predicate": None,
    }
    load_seconds = 0.0
    execute_seconds = []
    for rank in range(SHARDS):
        worker = ShardWorker(
            {
                "rank": rank,
                "pool_pages": _SERVICE_OPTIONS["pool_pages"],
                "page_bytes": _PAGES.page_bytes,
                "tuple_bytes": _PAGES.tuple_bytes,
                "shard_map": shard_map.as_dict(),
            }
        )
        for version, fragment in (
            (outer, fragments[rank]),
            (inner, shard_map.fragment(inner.relation, rank)),
        ):
            meta = {
                "name": version.name,
                "epoch": version.epoch,
                "schema": schema_to_dict(version.schema),
            }
            fragment_columns = fragment.to_columns()
            _, elapsed = timed(
                recorder, "shard.worker.load", lambda: worker.load(meta, fragment_columns)
            )
            if version is outer:  # what a re-ship after a write pays again
                load_seconds += elapsed
        execute_seconds.append(
            median(
                [
                    timed(recorder, "shard.worker.execute", lambda: worker.execute(request))[1]
                    for _ in range(3)
                ]
            )
        )
    values["shard.worker.load_ms"] = load_seconds * 1e3
    values["shard.worker.execute_max_ms"] = max(execute_seconds) * 1e3
    values["shard.worker.execute_sum_ms"] = sum(execute_seconds) * 1e3


def _reship_ms(ops: Sequence[Op]) -> float:
    """First join after a write minus the later joins of the same cycle."""
    by_cycle: Dict[Tuple[int, int], List[float]] = {}
    for op in ops:
        if op.kind == "join" and op.error is None and op.cycle > 1:
            by_cycle.setdefault((op.session, op.cycle), []).append(op.seconds * 1e3)
    return median(
        [
            latencies[0] - median(latencies[1:])
            for latencies in by_cycle.values()
            if len(latencies) == JOINS_PER_CYCLE
        ]
    )


def _sharded_layers(
    values: Dict[str, float], misses: Sequence[Op], before: Dict[str, int], after: Dict[str, int]
) -> None:
    """What the fragment reports and the transport counters say about the loop."""
    values["shard.coordinator.slowest_shard_share"] = median(
        [op.result.service_cost / op.result.cost for op in misses]
    )
    values["shard.coordinator.redispatches"] = float(
        sum(op.result.redispatches for op in misses)
    )
    for key in ("frames", "bytes"):
        values[f"shard.transport.{key}"] = float(
            sum(after[f"{key}_{way}"] - before[f"{key}_{way}"] for way in ("sent", "received"))
        )
    values["shard.transport.crc_failures"] = float(
        after["crc_failures"] - before["crc_failures"]
    )


def _served_layers(
    values: Dict[str, float],
    misses: Sequence[Op],
    hits: Sequence[Op],
    before: Dict,
    after: Dict,
) -> None:
    """What the result fields and ``report()`` say about hits and admission."""
    hit_ms = _latencies_ms(hits)
    values["service.hit_p50_ms"] = median(hit_ms)
    values["service.hit_p95_ms"] = percentile(hit_ms, 0.95)
    cache_hits = after["result_cache"]["hits"] - before["result_cache"]["hits"]
    cache_misses = after["result_cache"]["misses"] - before["result_cache"]["misses"]
    values["service.cache.hit_ratio"] = cache_hits / (cache_hits + cache_misses)
    waits = [op.result.queue_wait_seconds for op in misses]
    values["service.admission.wait_p50_ms"] = median(waits) * 1e3
    values["service.admission.wait_share"] = sum(waits) / sum(op.seconds for op in misses)
    values["service.admission.peak_granted_pages"] = float(
        after["admission"]["peak_granted_pages"]
    )


def run_traced(name: str, seed: int, seconds: float, scale: int) -> Tuple[RunResult, SpanRecorder]:
    """The per-layer run: an untraced loop, a traced loop, then the layers alone."""
    sharded = WORKLOADS[name]
    recorder = SpanRecorder()
    result = RunResult()
    values = result.values

    relations, catalog, service, generate_s = _set_up(sharded, seed, scale)
    try:
        plain_ops, plain_wall = _run_loop(service, seed, seconds / 2, None)
        report_before = service.report()
        transport_before = transport_counters()
        ops, wall = _run_loop(
            service, seed, seconds / 2, recorder,
            first_cycle=1 + max(op.cycle for op in plain_ops),
        )
        report_after = service.report()
        transport_after = transport_counters()
    finally:
        service.close()

    result.attempted = len(plain_ops) + len(ops)
    _exact_numbers(result, plain_ops + ops)
    _verify(result, catalog, plain_ops + ops)
    _record_inputs(result, relations)
    values["workloads.generate_s"] = generate_s
    values["workloads.result_tuples"] = result.exact["result_tuples"]

    def rate(loop_ops: Sequence[Op], loop_wall: float) -> float:
        return sum(1 for op in loop_ops if op.error is None) / loop_wall

    values["trace.overhead_share"] = rate(plain_ops, plain_wall) / rate(ops, wall) - 1.0

    misses = [op for op in ops if _is_miss(op)]
    writes = [op for op in ops if op.kind != "join" and op.error is None]
    miss_ms = _latencies_ms(misses)
    miss_p50 = median(miss_ms)
    values["service.miss_p80_ms"] = percentile(miss_ms, 0.8)
    result.n_samples["service.miss_p80_ms"] = len(misses)
    # A mean, not a median: appends are fast and deletes slow, so the median
    # of the two kinds flips with the parity of the cycle count.
    values["engine.catalog.write_mean_ms"] = sum(_latencies_ms(writes)) / len(writes)
    result.n_samples["engine.catalog.write_mean_ms"] = len(writes)
    result.notes.append(
        f"traced loop: {len(misses)} misses (p50 {miss_p50:.1f} ms, "
        f"p80 {values['service.miss_p80_ms']:.1f} ms), "
        f"{sum(1 for op in ops if _is_hit(op))} hits, {len(writes)} writes in {wall:.2f} s"
    )
    sample = misses[-1].result

    _catalog_micro_loop(values, relations["r0"], generators.write_batch(seed, 0))
    if sharded:
        values["shard.coordinator.service_cost"] = result.exact["service_cost"]
        values["shard.coordinator.reship_ms"] = _reship_ms(ops)
        _sharded_layers(values, misses, transport_before, transport_after)
        _shard_micro_loops(values, catalog, sample, recorder)
        values["shard.coordinator.overhead_ms"] = (
            miss_p50 - values["shard.worker.execute_max_ms"]
        )
        result.n_samples["shard.coordinator.overhead_ms"] = len(misses)
    else:
        hits = [op for op in ops if _is_hit(op)]
        _served_layers(values, misses, hits, report_before, report_after)
        result.n_samples["service.hit_p50_ms"] = len(hits)
        result.n_samples["service.hit_p95_ms"] = len(hits)
        _service_micro_loops(values, sample)
        # The same relation versions and config, without the service around them.
        outer = catalog.version_at(sample.outer, sample.epochs[0]).relation
        inner = catalog.version_at(sample.inner, sample.epochs[1]).relation
        direct = [
            timed(
                recorder, "partition_join.direct",
                lambda: partition_join(outer, inner, _QUERY_CONFIG),
            )[1]
            for _ in range(3)
        ]
        values["service.overhead_ms"] = miss_p50 - median(direct) * 1e3
        result.n_samples["service.overhead_ms"] = len(misses)
    return result, recorder
