"""The sharded query service: bit-identity, merge accounting, topology.

The fast (tier-1) slice of the shard suite: a 2-shard coordinator must be
indistinguishable from the single-process :class:`QueryService` -- same
result multiset, same JoinOutcome counters, same summed charged I/O --
while its report and metrics expose the fan-out.  The heavyweight
shard-count x execution-mode matrices live in the ``shard_slow``-marked
property tests.
"""

from __future__ import annotations

import multiprocessing
import threading
from collections import Counter

import pytest

from repro.engine.catalog import VersionedCatalog
from repro.engine.database import TemporalDatabase
from repro.model.errors import ServiceError
from repro.model.schema import RelationSchema
from repro.model.vtuple import VTTuple
from repro.service import QueryService
from repro.shard import (
    ShardedQueryService,
    TransportError,
    active_channel_count,
    transport_counters,
)
from repro.storage.iostats import IOStatistics
from repro.time.interval import Interval

from tests.service.conftest import make_catalog, make_tuples, outcome_counters


def rows(relation):
    return [(t.key, t.payload, t.vs, t.ve) for t in relation.tuples]


def canonical(relation):
    return sorted(rows(relation))


@pytest.fixture
def sharded():
    with ShardedQueryService(make_catalog(), shards=2, pool_pages=32) as svc:
        yield svc


def single_process_result(method="partition", execution="tuple"):
    with QueryService(
        make_catalog(),
        pool_pages=32,
        execution=execution,
        plan_cache_entries=0,
        result_cache_entries=0,
    ) as svc:
        with svc.open_session() as session:
            return session.join("r", "s", method=method)


def database_result(method, memory_pages):
    """The same join through ``TemporalDatabase.join``: no service and no
    admission, so the budget is the pages a service granted."""
    catalog = make_catalog()
    db = TemporalDatabase(memory_pages=memory_pages)
    for name in ("r", "s"):
        version = catalog.current(name)
        db.create_relation(version.schema).extend(version.relation.tuples)
    return db.join("r", "s", method=method)


class TestBitIdentity:
    @pytest.mark.parametrize("method", ["partition", "sweep", "sort_merge", "nested_loop"])
    def test_one_shard_is_literally_the_single_process_service(self, method):
        """The differential check on the one join runner: a fragment on a
        shard, a whole join in the service and ``TemporalDatabase.join`` are
        the same call, so tuples in order and the charged bill agree."""
        base = single_process_result(method=method)
        with ShardedQueryService(make_catalog(), shards=1, pool_pages=32) as svc:
            with svc.open_session() as session:
                result = session.join("r", "s", method=method)
        direct = database_result(method, base.granted_pages)
        # shards=1 is the anchor: the fragment IS the relation, so the
        # result order, counters, and charged I/O match to the bit.
        assert rows(result.relation) == rows(base.relation) == rows(direct.relation)
        assert result.algorithm == base.algorithm
        assert outcome_counters(result.outcome) == outcome_counters(base.outcome)
        assert result.charged_ops == base.charged_ops == direct.tracker.stats.total_ops
        assert result.cost == base.cost == direct.cost
        assert result.service_cost == base.cost
        assert result.totals.total_ops == base.charged_ops

    @pytest.mark.parametrize("method", ["partition", "sweep", "sort_merge"])
    def test_two_shards_match_single_process_multiset(self, sharded, method):
        base = single_process_result(method=method)
        with sharded.open_session() as session:
            result = session.join("r", "s", method=method)
        assert canonical(result.relation) == canonical(base.relation)
        assert result.outcome.n_result_tuples == base.outcome.n_result_tuples

    def test_tuple_valued_and_bytes_attributes_come_back_as_sent(self):
        """Attribute values JSON would change (a tuple) or refuse (bytes)
        cross the wire as themselves, in keys as in payloads."""

        def catalog():
            made = VersionedCatalog()
            for name, payload in (("r", (1, 2)), ("s", ("x", "y"))):
                made.register(
                    RelationSchema(
                        name, join_attributes=("k",), payload_attributes=(f"p{name}",)
                    ),
                    [
                        VTTuple((key,), (payload,), Interval(0, 9))
                        for key in ((1, "a"), (2, "b"), b"\x00raw")
                    ],
                )
            return made

        with QueryService(catalog(), pool_pages=32) as svc:
            with svc.open_session() as session:
                base = session.join("r", "s", method="partition")
        with ShardedQueryService(catalog(), shards=2, pool_pages=32) as svc:
            with svc.open_session() as session:
                result = session.join("r", "s", method="partition")
        # Mixed key types have no order: compare as multisets.
        assert Counter(rows(result.relation)) == Counter(rows(base.relation))
        assert ((1, "a"),) in {tup.key for tup in result.relation.tuples}
        assert {tup.payload for tup in result.relation.tuples} == {((1, 2), ("x", "y"))}

    def test_time_range_sharding_matches_too(self):
        base = single_process_result()
        with ShardedQueryService(
            make_catalog(), shards=3, shard_by="time-range", pool_pages=32
        ) as svc:
            with svc.open_session() as session:
                result = session.join("r", "s", method="partition")
        assert canonical(result.relation) == canonical(base.relation)
        assert result.outcome.n_result_tuples == base.outcome.n_result_tuples

    def test_merge_is_deterministic_across_runs(self, sharded):
        # Both joins must fan out and merge: the second may not be a hit.
        with sharded.open_session(use_result_cache=False) as session:
            first = session.join("r", "s", method="partition")
            second = session.join("r", "s", method="partition")
        assert rows(first.relation) == rows(second.relation)


class TestMergeAccounting:
    def test_counters_and_ledgers_fold_exactly(self, sharded):
        with sharded.open_session() as session:
            result = session.join("r", "s", method="partition")
        assert len(result.shards) == 2
        assert result.outcome.n_result_tuples == sum(
            shard.n_result_tuples for shard in result.shards
        )
        assert result.charged_ops == sum(s.charged_ops for s in result.shards)
        assert result.cost == pytest.approx(sum(s.cost for s in result.shards))
        assert result.service_cost == pytest.approx(
            max(s.cost for s in result.shards)
        )
        # The merged per-phase ledgers equal folding each shard's dicts.
        for name, stats in result.phases.items():
            expected = IOStatistics()
            for shard in result.shards:
                if name in shard.phases:
                    expected.merge(IOStatistics(**shard.phases[name]))
            assert stats.as_dict() == expected.as_dict()
        expected_totals = IOStatistics()
        for shard in result.shards:
            expected_totals.merge(IOStatistics(**shard.totals))
        assert result.totals.as_dict() == expected_totals.as_dict()

    def test_merge_appends_each_shards_columns_unbuilt(self, sharded):
        """One column-validated chunk per shard, in rank order; counting and
        re-shipping the merged relation builds no tuple."""
        with sharded.open_session() as session:
            result = session.join("r", "s", method="partition")
        relation = result.relation
        counts = [shard.n_result_tuples for shard in result.shards]
        assert len(relation) == sum(counts) and all(counts)
        keys = relation.to_columns()[0]
        assert not relation.materialized
        ranks = [sharded.shard_map.shard_of_key(key) for key in keys]
        assert ranks == [0] * counts[0] + [1] * counts[1]
        assert [tup.key for tup in relation.tuples] == keys

    def test_epochs_pin_the_snapshot(self, sharded):
        with sharded.open_session() as session:
            before = session.join("r", "s")
            session.append("r", make_tuples(4, seed=99))
            after = session.join("r", "s")
        assert before.epochs[0] < after.epochs[0]
        assert before.epochs[1] == after.epochs[1]
        assert after.outcome.n_result_tuples >= before.outcome.n_result_tuples


class TestResultCache:
    """The core's result cache answers a repeated join with no fan-out."""

    def test_a_repeat_is_a_hit_that_sends_no_frame(self, sharded):
        with sharded.open_session() as session:
            first = session.join("r", "s", method="partition")
            sent = transport_counters()
            again = session.join("r", "s", method="partition")
            assert transport_counters() == sent
        assert not first.result_cache_hit and again.result_cache_hit
        assert again.relation is first.relation and again.outcome is first.outcome
        assert (again.cost, again.service_cost, again.charged_ops) == (0.0, 0.0, 0)
        assert again.phases == {} and again.shards == ()

    @pytest.mark.parametrize("name", ["r", "s"])
    def test_an_append_to_either_input_makes_the_next_join_a_miss(self, sharded, name):
        with sharded.open_session() as session:
            first = session.join("r", "s", method="partition")
            session.append(name, make_tuples(4, seed=51))
            after = session.join("r", "s", method="partition")
        assert not after.result_cache_hit and after.epochs != first.epochs
        assert len(after.shards) == 2 and after.charged_ops > 0

    def test_an_opted_out_session_always_fans_out(self, sharded):
        with sharded.open_session(use_result_cache=False) as session:
            results = [session.join("r", "s", method="partition") for _ in range(2)]
        assert not any(result.result_cache_hit for result in results)
        assert all(len(result.shards) == 2 for result in results)
        assert len(sharded.result_cache) == 0

    def test_a_hit_never_takes_the_fanout_lock(self, sharded):
        """The test thread holds the lock every fan-out takes: a hit that
        wanted it would time out instead of answering."""
        with sharded.open_session() as session:
            first = session.join("r", "s", method="partition")
            with sharded._fanout_lock:
                again = session.join("r", "s", method="partition", result_timeout=30.0)
        assert again.result_cache_hit and again.relation is first.relation


class TestFragmentEviction:
    def test_writes_do_not_accumulate_fragment_versions(self, sharded, monkeypatch):
        """Each LOAD evicts the versions it supersedes: after any number of
        writes a worker holds one fragment per relation, answers stay those
        of a serial replay, and a query pinned to an evicted epoch is served
        by shipping that version again."""
        batch = make_tuples(6, seed=5)
        with sharded.open_session() as session:
            pinned = sharded.catalog.snapshot()
            first = session.join("r", "s", method="partition")
            for _ in range(4):
                session.append("r", batch)
                grown = session.join("r", "s", method="partition")
                session.delete("r", batch)
                shrunk = session.join("r", "s", method="partition")
            assert [status["fragments"] for status in sharded.ping_all()] == [2, 2]
            assert [w["loaded_fragments"] for w in sharded.report()["workers"]] == [2, 2]
            assert canonical(shrunk.relation) == canonical(first.relation)
            assert grown.outcome.n_result_tuples > first.outcome.n_result_tuples

            session.append("r", batch)
            current = session.join("r", "s", method="partition")
            with QueryService(sharded.catalog, pool_pages=32) as serial:
                with serial.open_session() as replay:
                    expected = replay.join("r", "s", method="partition")
            assert current.epochs == expected.epochs
            assert canonical(current.relation) == canonical(expected.relation)

            monkeypatch.setattr(sharded.catalog, "snapshot", lambda: pinned)
            old = session.join("r", "s", method="partition")
            assert old.epochs == first.epochs
            assert canonical(old.relation) == canonical(first.relation)
            # The re-shipped old epoch sits beside the current one only.
            assert [status["fragments"] for status in sharded.ping_all()] == [3, 3]


class TestDeltaShipping:
    """A write reaches a shard that holds the parent version as its delta."""

    @staticmethod
    def loads(service):
        series = service.metrics_snapshot()["repro_shard_fragment_loads_total"]["series"]
        return {kind: int(series.get(f"kind={kind}", 0)) for kind in ("whole", "delta")}

    @staticmethod
    def whole_shipped(catalog, result, **options):
        """*result*'s join at its epochs on a fresh service, whose first
        loads are whole by construction."""
        replay = VersionedCatalog()
        for name, epoch in zip(("r", "s"), result.epochs):
            version = catalog.version_at(name, epoch)
            replay.register(version.schema, version.relation.tuples)
        with ShardedQueryService(replay, shards=2, pool_pages=32, **options) as fresh:
            with fresh.open_session() as session:
                return session.join("r", "s", method="partition")

    @staticmethod
    def pedigree(result):
        return (
            rows(result.relation),
            outcome_counters(result.outcome),
            {name: stats.as_dict() for name, stats in result.phases.items()},
            [(shard.fragment_tuples, shard.phases, shard.totals) for shard in result.shards],
        )

    def test_a_small_write_ships_no_relation_columns(self):
        """32 rows against 20k: the frames of the join after the write are
        under 5 % of one relation's whole-ship bytes, and the load counter
        tells the two kinds apart."""
        catalog = VersionedCatalog()
        for name, seed in (("r", 1), ("s", 2)):
            catalog.register(
                RelationSchema(name, join_attributes=("k",), payload_attributes=(f"p{name}",)),
                make_tuples(20_000, seed=seed, n_keys=64, lifespan=50_000),
            )
        batch = make_tuples(32, seed=3, n_keys=64, lifespan=50_000)
        with ShardedQueryService(catalog, shards=2, pool_pages=32, execution="batch") as svc:
            with svc.open_session() as session:
                sent = [transport_counters()["bytes_sent"]]
                session.join("r", "s", method="partition")
                sent.append(transport_counters()["bytes_sent"])
                session.append("r", batch)
                grown = session.join("r", "s", method="partition")
                sent.append(transport_counters()["bytes_sent"])
                session.delete("r", batch)
                session.join("r", "s", method="partition")
                sent.append(transport_counters()["bytes_sent"])
            one_relation_whole = (sent[1] - sent[0]) / 2
            assert sent[2] - sent[1] < 0.05 * one_relation_whole
            assert sent[3] - sent[2] < 0.05 * one_relation_whole
            assert self.loads(svc) == {"whole": 4, "delta": 4}
        assert grown.relation.schema == catalog.current("r").schema.join_result_schema(
            catalog.current("s").schema
        )
        whole = self.whole_shipped(catalog, grown, execution="batch")
        assert self.pedigree(grown) == self.pedigree(whole)

    def test_writes_with_no_join_between_them_ship_as_ordered_steps(self, sharded):
        """Append, delete one copy of a duplicated row, append again, and
        only then join: one delta LOAD per shard replays all three steps."""
        catalog = sharded.catalog
        twin = catalog.current("r").relation.tuples[0]
        with sharded.open_session() as session:
            session.join("r", "s", method="partition")
            session.append("r", [twin, *make_tuples(5, seed=11)])
            session.delete("r", [twin])  # the first copy goes, the appended one stays
            session.append("r", make_tuples(3, seed=12))
            session.append("s", make_tuples(2, seed=13))
            result = session.join("r", "s", method="partition")
        assert self.loads(sharded) == {"whole": 4, "delta": 4}
        assert self.pedigree(result) == self.pedigree(self.whole_shipped(catalog, result))
        assert catalog.current("r").relation.tuples[0] != twin

    def test_more_delta_rows_than_relation_rows_ship_whole(self, sharded):
        with sharded.open_session() as session:
            session.join("r", "s", method="partition")
            session.append("s", make_tuples(60, seed=21))  # 60 onto 45: still a delta
            session.join("r", "s", method="partition")
            assert self.loads(sharded) == {"whole": 4, "delta": 2}
            session.append("r", make_tuples(80, seed=22))
            session.delete("r", make_tuples(80, seed=22))  # 160 moved, 60 rows stand
            result = session.join("r", "s", method="partition")
        assert self.loads(sharded) == {"whole": 6, "delta": 2}
        assert self.pedigree(result) == self.pedigree(self.whole_shipped(sharded.catalog, result))

    def test_a_delta_rebuilding_another_row_count_is_followed_by_the_fragment(self, sharded):
        """The worker answers the size of what it rebuilt; when that is not
        the size the coordinator tracks, the fragment is shipped whole."""
        with sharded.open_session() as session:
            session.join("r", "s", method="partition")
            shard = sharded._shards[0]
            shard.loaded["r", sharded.catalog.current("r").epoch] += 1  # mis-track the base
            session.append("r", make_tuples(4, seed=31))
            result = session.join("r", "s", method="partition")
        # Shard 0 took a refused delta and then the fragment; shard 1 a delta.
        assert self.loads(sharded) == {"whole": 5, "delta": 2}
        assert self.pedigree(result) == self.pedigree(self.whole_shipped(sharded.catalog, result))
        routed = sharded.shard_map.fragment(sharded.catalog.current("r").relation, 0)
        assert shard.loaded["r", sharded.catalog.current("r").epoch] == len(routed)


class TestTopology:
    def test_report_shape(self, sharded):
        with sharded.open_session() as session:
            session.join("r", "s")
        report = sharded.report()
        assert report["shards"] == 2
        assert report["strategy"] == "key-hash"
        assert len(report["workers"]) == 2
        assert all(w["alive"] for w in report["workers"])
        assert all(w["loaded_fragments"] == 2 for w in report["workers"])
        assert report["transport"]["frames_sent"] > 0
        assert report["transport"]["crc_failures"] == 0

    def test_metrics_families(self, sharded):
        with sharded.open_session() as session:
            session.join("r", "s")
        snapshot = sharded.metrics_snapshot()
        names = set(snapshot)
        assert "repro_shard_queries_total" in names
        assert "repro_shard_fragments_total" in names
        assert "repro_shard_fragment_loads_total" in names
        assert "repro_shard_workers" in names

    def test_ping_all_reaches_every_worker(self, sharded):
        statuses = sharded.ping_all()
        assert [s["rank"] for s in statuses] == [0, 1]

    def test_shard_map_recorded_in_catalog(self, sharded):
        recorded = sharded.catalog.shard_map_at(sharded.catalog.epoch)
        assert recorded == sharded.shard_map.as_dict()

    def test_close_releases_every_channel_and_worker(self):
        baseline = active_channel_count()
        svc = ShardedQueryService(make_catalog(), shards=2, pool_pages=32)
        with svc.open_session() as session:
            session.join("r", "s")
        svc.close()
        svc.close()  # idempotent
        assert active_channel_count() == baseline
        assert svc.alive_workers() == 0

    def test_rejects_bad_shapes(self):
        """The shard-only arguments; the ones both services share are
        rejected in ``test_sessions.py``.  Nothing is left running."""
        with pytest.raises(ServiceError):
            ShardedQueryService(make_catalog(), shards=0)
        with pytest.raises(ServiceError):
            ShardedQueryService(make_catalog(), shards=2, shard_by="round-robin")
        assert not [t for t in threading.enumerate() if t.name.startswith("repro-svc")]

    def test_failed_spawn_handshake_reaps_the_worker(self, monkeypatch):
        """A worker that never answers the handshake fails the constructor,
        which stops the process and closes the channel it had opened."""
        children = set(multiprocessing.active_children())
        channels = active_channel_count()

        def mute_worker(sock, options):
            sock.recv(1 << 16)  # reads the PING, answers nothing...
            sock.recv(1 << 16)  # ...and waits for the coordinator to hang up

        monkeypatch.setattr("repro.shard.coordinator.worker_main", mute_worker)
        with pytest.raises(TransportError) as info:
            ShardedQueryService(make_catalog(), shards=2, spawn_timeout=0.3)
        assert info.value.kind == "timeout"
        assert set(multiprocessing.active_children()) == children
        assert active_channel_count() == channels


class TestFacadeWiring:
    def test_database_serve_shards(self):
        import random

        from repro.engine.database import TemporalDatabase
        from repro.model.schema import RelationSchema

        db = TemporalDatabase(memory_pages=32)
        rng = random.Random(1)
        for name in ("r", "s"):
            db.create_relation(
                RelationSchema(
                    name, join_attributes=("k",), payload_attributes=(f"p_{name}",)
                )
            )
            db.insert(
                name,
                [
                    (rng.randrange(8), f"{name}{i}", vs, vs + 1 + rng.randrange(30))
                    for i in range(40)
                    for vs in [rng.randrange(100)]
                ],
            )
        single = db.join("r", "s", method="partition")
        with db.serve(shards=2) as svc:
            with svc.open_session() as session:
                sharded = session.join("r", "s", method="partition")
        assert canonical(sharded.relation) == canonical(single.relation)

    def test_explain_shard_fanout(self):
        import random

        from repro.engine.database import TemporalDatabase
        from repro.model.schema import RelationSchema

        db = TemporalDatabase(memory_pages=32)
        rng = random.Random(2)
        for name in ("r", "s"):
            db.create_relation(
                RelationSchema(
                    name, join_attributes=("k",), payload_attributes=(f"p_{name}",)
                )
            )
            db.insert(
                name,
                [
                    (rng.randrange(8), f"{name}{i}", vs, vs + 1 + rng.randrange(30))
                    for i in range(40)
                    for vs in [rng.randrange(100)]
                ],
            )
        report = db.explain("r", "s", shards=4)
        fanout = report.shard_fanout
        assert fanout["shards"] == 4
        assert len(fanout["per_shard"]) == 4
        assert all(row["predicted_cost"] >= 0 for row in fanout["per_shard"])
        assert "shard fan-out: 4 shard(s)" in report.render()
        assert report.as_dict()["shard_fanout"] == fanout
        # Unsharded EXPLAIN stays unsharded.
        assert db.explain("r", "s").shard_fanout is None


class TestPerSessionPeaks:
    def test_query_service_report_includes_per_session_peaks(self):
        with QueryService(
            make_catalog(),
            pool_pages=32,
            plan_cache_entries=0,
            result_cache_entries=0,
        ) as svc:
            with svc.open_session() as first:
                first.join("r", "s")
                with svc.open_session() as second:
                    second.join("r", "s")
            peaks = svc.report()["admission"]["per_session_peak_pages"]
        assert set(peaks) == {"s1", "s2"}
        assert all(0 < peak <= 32 for peak in peaks.values())

    def test_peaks_track_concurrent_grants_per_owner(self):
        from repro.service.admission import AdmissionController

        controller = AdmissionController(32)
        a1 = controller.acquire(8, owner="s1")
        a2 = controller.acquire(8, owner="s1")
        b1 = controller.acquire(4, owner="s2")
        assert controller.owner_peak_pages() == {"s1": 16, "s2": 4}
        a1.release()
        a2.release()
        b1.release()
        a3 = controller.acquire(6, owner="s1")
        a3.release()
        # The peak is a high-water mark: releasing never lowers it.
        assert controller.owner_peak_pages() == {"s1": 16, "s2": 4}

    def test_unowned_grants_stay_invisible(self):
        from repro.service.admission import AdmissionController

        controller = AdmissionController(16)
        grant = controller.acquire(8)
        grant.release()
        assert controller.owner_peak_pages() == {}
