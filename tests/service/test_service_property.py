"""The snapshot-isolation property: concurrent == serial, bit for bit.

Mixed workloads of joins and appends run on concurrent sessions; every
query records the relation-version epochs it saw.  Afterwards each query
is replayed *serially* against exactly those versions (via
``VersionedCatalog.version_at``), with the same configuration and method.
The concurrent result must match the serial one bit-identically: the same
result tuples in the same order, and the same JoinOutcome counters.

Runs under three seeds (shiftable via ``SERVICE_STRESS_SEED``) and each of
the four partition execution modes (``EXECUTION_MODES``; the fifth mode,
``forward-sweep``, is a different operator, served as method ``"sweep"``).
"""

from __future__ import annotations

import os
import random
import threading

import pytest

from repro.core.partition_join import EXECUTION_MODES
from repro.engine.catalog import VersionedCatalog
from repro.model.schema import RelationSchema
from repro.service import QueryService

from tests.service.conftest import make_tuples, outcome_counters

_BASE_SEED = int(os.environ.get("SERVICE_STRESS_SEED", "0"))
SEEDS = [_BASE_SEED, _BASE_SEED + 1, _BASE_SEED + 2]

POOL_PAGES = 16  # one query's worth: concurrency forces real queueing
MEMORY_PAGES = 16


def _build_catalog(seed: int) -> VersionedCatalog:
    catalog = VersionedCatalog()
    catalog.register(
        RelationSchema("r", join_attributes=("k",), payload_attributes=("pr",)),
        make_tuples(70, seed=seed, n_keys=6, lifespan=50),
    )
    catalog.register(
        RelationSchema("s", join_attributes=("k",), payload_attributes=("ps",)),
        make_tuples(55, seed=seed + 10, n_keys=6, lifespan=50),
    )
    return catalog


def _session_script(rng: random.Random, n_ops: int):
    """A session's ops: mostly joins, interleaved with appends."""
    script = []
    for number in range(n_ops):
        roll = rng.random()
        if roll < 0.55:
            script.append(("join", "partition"))
        elif roll < 0.7:
            script.append(("join", "auto"))
        else:
            name = rng.choice(["r", "s"])
            script.append(("append", name, rng.randrange(1_000_000)))
    return script


def _replay_serially(catalog: VersionedCatalog, record, execution: str):
    """Re-run one recorded query against its exact snapshot versions."""
    serial_catalog = VersionedCatalog()
    for name, epoch in zip(("r", "s"), record.epochs):
        version = catalog.version_at(name, epoch)
        serial_catalog.register(version.schema, version.relation.tuples)
    with QueryService(
        serial_catalog,
        pool_pages=POOL_PAGES,
        memory_pages=MEMORY_PAGES,
        workers=1,
        execution=execution,
        plan_cache_entries=0,
        result_cache_entries=0,
    ) as serial_service:
        with serial_service.open_session() as session:
            return session.join("r", "s", method=record.algorithm)


@pytest.mark.parametrize("execution", EXECUTION_MODES)
@pytest.mark.parametrize("seed", SEEDS)
def test_concurrent_equals_serial_replay(seed: int, execution: str):
    catalog = _build_catalog(seed)
    results = []
    errors = []
    lock = threading.Lock()

    with QueryService(
        catalog,
        pool_pages=POOL_PAGES,
        memory_pages=MEMORY_PAGES,
        workers=3,
        execution=execution,
        admission_timeout=60.0,
    ) as service:

        def run_session(session_number: int) -> None:
            rng = random.Random((seed, execution, session_number).__repr__())
            script = _session_script(rng, n_ops=5)
            try:
                with service.open_session() as session:
                    for op in script:
                        if op[0] == "join":
                            result = session.join(
                                "r", "s", method=op[1], result_timeout=120.0
                            )
                            with lock:
                                results.append(result)
                        else:
                            session.append(
                                op[1], make_tuples(3, seed=op[2], n_keys=6, lifespan=50)
                            )
            except Exception as error:  # pragma: no cover
                with lock:
                    errors.append(error)

        threads = [
            threading.Thread(target=run_session, args=(n,)) for n in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        assert results, "the workload must actually produce queries"
        # Degradation off (no degrade_after): grants are always full, so the
        # concurrent plan equals the serial plan and bit-identity can hold.
        assert all(not r.degraded for r in results)
        assert service.admission.peak_granted_pages <= POOL_PAGES

    for record in results:
        serial = _replay_serially(catalog, record, execution)
        assert serial.algorithm == record.algorithm
        assert outcome_counters(serial.outcome) == outcome_counters(record.outcome)
        assert list(serial.relation.tuples) == list(record.relation.tuples), (
            f"snapshot isolation violated at epochs {record.epochs} "
            f"(seed {seed}, execution {execution!r})"
        )


# -- the sharded variant ------------------------------------------------------
#
# The same property, one level up: queries fan out over N shard worker
# processes, and the *merged* result must still equal a serial replay of
# the same fragment decomposition -- tuples in order, JoinOutcome
# counters, and the per-phase charged-I/O ledgers, at every shard count.
# A result-cache hit owes the replay's tuples and counters at a zero bill.
# The full shard-count x execution-mode matrix is `shard_slow` (the CI
# shard-stress job runs it, optionally overriding SHARD_COUNTS); an
# unmarked 2-shard smoke keeps the property in tier-1.

_SHARD_COUNTS = tuple(
    int(n) for n in os.environ.get("SHARD_COUNTS", "1,2,4,8").split(",")
)


def _replay_sharded_serially(catalog, record, execution: str, shards: int):
    """Re-run one recorded sharded query: same fragments, one at a time."""
    from repro.shard import ShardedQueryService

    serial_catalog = VersionedCatalog()
    for name, epoch in zip(("r", "s"), record.epochs):
        version = catalog.version_at(name, epoch)
        serial_catalog.register(version.schema, version.relation.tuples)
    method = "sweep" if record.algorithm == "forward-sweep" else record.algorithm
    with ShardedQueryService(
        serial_catalog,
        shards=shards,
        pool_pages=POOL_PAGES,
        memory_pages=MEMORY_PAGES,
        workers=1,
        execution=execution,
    ) as serial_service:
        with serial_service.open_session() as session:
            return session.join("r", "s", method=method)


def _run_sharded_property(seed: int, execution: str, shards: int) -> None:
    from repro.shard import ShardedQueryService

    catalog = _build_catalog(seed)
    results = []
    errors = []
    lock = threading.Lock()

    with ShardedQueryService(
        catalog,
        shards=shards,
        pool_pages=POOL_PAGES,
        memory_pages=MEMORY_PAGES,
        workers=2,
        execution=execution,
    ) as service:

        def run_session(session_number: int) -> None:
            rng = random.Random((seed, execution, shards, session_number).__repr__())
            script = _session_script(rng, n_ops=3)
            try:
                with service.open_session() as session:
                    for op in script:
                        if op[0] == "join":
                            result = session.join(
                                "r", "s", method=op[1], result_timeout=240.0
                            )
                            with lock:
                                results.append(result)
                        else:
                            session.append(
                                op[1], make_tuples(3, seed=op[2], n_keys=6, lifespan=50)
                            )
            except Exception as error:  # pragma: no cover
                with lock:
                    errors.append(error)

        threads = [
            threading.Thread(target=run_session, args=(n,)) for n in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors, errors
        assert results, "the workload must actually produce queries"
        assert service.report()["redispatches"] == 0

    for record in results:
        serial = _replay_sharded_serially(catalog, record, execution, shards)
        assert serial.algorithm == record.algorithm
        assert outcome_counters(serial.outcome) == outcome_counters(record.outcome)
        assert list(serial.relation.tuples) == list(record.relation.tuples), (
            f"sharded bit-identity violated at epochs {record.epochs} "
            f"(seed {seed}, execution {execution!r}, shards {shards})"
        )
        if record.result_cache_hit:
            # A hit replays the stored answer and ran no fragment: zero bill.
            assert record.charged_ops == 0
            assert record.cost == record.service_cost == 0.0
            assert record.phases == {}
            continue
        # The merged per-phase charged-I/O ledgers replay exactly too.
        assert serial.charged_ops == record.charged_ops
        assert set(serial.phases) == set(record.phases)
        for name, stats in record.phases.items():
            assert serial.phases[name].as_dict() == stats.as_dict()
        assert serial.totals.as_dict() == record.totals.as_dict()


def test_sharded_concurrent_equals_serial_replay_smoke():
    """Tier-1 smoke: the sharded property at 2 shards, tuple execution."""
    _run_sharded_property(SEEDS[0], "tuple", shards=2)


@pytest.mark.shard_slow
@pytest.mark.parametrize("shards", _SHARD_COUNTS)
@pytest.mark.parametrize("execution", EXECUTION_MODES)
def test_sharded_concurrent_equals_serial_replay(execution: str, shards: int):
    _run_sharded_property(SEEDS[0], execution, shards)


@pytest.mark.shard_slow
@pytest.mark.parametrize("shards", _SHARD_COUNTS)
def test_sharded_result_multiset_stable_across_shard_counts(shards: int):
    """Every shard count produces the same result multiset and counters
    as the single-process service (n_result_tuples exact at every N)."""
    from repro.shard import ShardedQueryService

    with QueryService(
        _build_catalog(SEEDS[0]),
        pool_pages=POOL_PAGES,
        memory_pages=MEMORY_PAGES,
        plan_cache_entries=0,
        result_cache_entries=0,
    ) as single:
        with single.open_session() as session:
            base = session.join("r", "s", method="partition")
    with ShardedQueryService(
        _build_catalog(SEEDS[0]),
        shards=shards,
        pool_pages=POOL_PAGES,
        memory_pages=MEMORY_PAGES,
    ) as service:
        with service.open_session() as session:
            result = session.join("r", "s", method="partition")
    assert sorted(
        (t.key, t.payload, t.vs, t.ve) for t in result.relation.tuples
    ) == sorted((t.key, t.payload, t.vs, t.ve) for t in base.relation.tuples)
    assert result.outcome.n_result_tuples == base.outcome.n_result_tuples


@pytest.mark.parametrize("seed", SEEDS)
def test_queries_straddling_appends_see_consistent_epochs(seed: int):
    """Every observed epoch pair corresponds to versions that existed
    together: the outer epoch and inner epoch are each <= the snapshot
    epoch, and a query never mixes a pre-append outer with a post-append
    inner from a *later* snapshot."""
    catalog = _build_catalog(seed)
    results = []
    lock = threading.Lock()
    with QueryService(
        catalog, pool_pages=32, memory_pages=16, workers=3
    ) as service:

        def writer():
            with service.open_session() as session:
                for number in range(4):
                    session.append(
                        "r", make_tuples(2, seed=seed * 31 + number)
                    )

        def reader():
            with service.open_session() as session:
                for _ in range(6):
                    with lock:
                        results.append(session.join("r", "s"))

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    for record in results:
        assert max(record.epochs) <= record.snapshot_epoch
        # The inner relation was never written: its epoch is the registration
        # epoch, whatever the outer's version is.
        assert record.epochs[1] == 2
    # Monotonic reads per session ordering: successive reader queries never
    # go back in time on the outer relation.
    outer_epochs = [record.epochs[0] for record in results]
    assert outer_epochs == sorted(outer_epochs)
