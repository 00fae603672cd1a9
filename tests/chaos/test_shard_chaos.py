"""Shard chaos: SIGKILL and hang a worker mid-fragment; recover bit-identically.

The coordinator's supervision ladder under deliberate violence, seeded by
``CHAOS_SEED`` like the rest of the chaos suite:

* a shard worker SIGKILLed between queries and *during* a fragment must
  cost one deterministic re-dispatch, never the query -- the merged
  result matches the undisturbed run tuple for tuple;
* a worker armed to hang (the CHAOS frame sleeps it past the fragment
  deadline) rides the same ladder with ``kind="shard-hang"``;
* a worker lost between a write and the next join comes back empty and is
  re-shipped whole fragments; a quarantined shard's stand-in takes deltas;
  either way the answer is the undisturbed, delta-fed service's;
* nothing leaks: every socket channel deregisters.

Quick single-shot tests run in tier-1; the seeded kill-matrix is
``shard_slow`` (the CI shard-stress job runs it under a seed matrix).
"""

from __future__ import annotations

import os
import random
import signal

import pytest

from repro.engine.catalog import VersionedCatalog
from repro.model.schema import RelationSchema
from repro.model.vtuple import VTTuple
from repro.resilience.supervisor import SupervisionPolicy
from repro.shard import ShardedQueryService, active_channel_count
from repro.time.interval import Interval

from tests.chaos.conftest import CHAOS_SEED


def shard_catalog(seed: int) -> VersionedCatalog:
    catalog = VersionedCatalog()
    rng = random.Random(seed)
    for name, n in (("r", 70), ("s", 55)):
        schema = RelationSchema(
            name, join_attributes=("emp",), payload_attributes=(f"p_{name}",)
        )
        tuples = []
        for i in range(n):
            vs = rng.randrange(400)
            tuples.append(
                VTTuple(
                    (rng.randrange(10),),
                    (f"{name}{i}",),
                    Interval(vs, vs + 1 + rng.randrange(50)),
                )
            )
        catalog.register(schema, tuples)
    return catalog


def fingerprint(relation):
    return [(t.key, t.payload, t.vs, t.ve) for t in relation.tuples]


def make_service(seed: int, *, shards: int = 2, timeout: float = 2.0):
    """A service whose every join fans out: a repeated join must meet the
    armed failure, not the result cache."""
    return ShardedQueryService(
        shard_catalog(seed),
        shards=shards,
        pool_pages=32,
        result_cache_entries=0,
        supervision=SupervisionPolicy(
            fragment_timeout_seconds=timeout, max_redispatches=3
        ),
    )


@pytest.fixture(autouse=True)
def no_leaks():
    """Every test must leave zero open channels."""
    channels_before = active_channel_count()
    yield
    assert active_channel_count() == channels_before, "a test leaked a shard channel"


class TestSigkillRecovery:
    def test_kill_between_queries_recovers_identically(self):
        with make_service(CHAOS_SEED) as service:
            with service.open_session() as session:
                baseline = session.join("r", "s", method="partition")
                os.kill(service.worker_pids()[1], signal.SIGKILL)
                recovered = session.join("r", "s", method="partition")
            assert fingerprint(recovered.relation) == fingerprint(baseline.relation)
            assert recovered.redispatches == 1
            report = service.report()
            assert report["redispatches"] == 1
            kinds = [d["kind"] for d in report["degradations"]]
            assert kinds == ["shard-death"]
            assert service.alive_workers() == 2  # respawned, not lost

    def test_kill_during_fragment_recovers_identically(self):
        """SIGKILL lands while the worker is inside the fragment (armed
        hang holds it there), so the coordinator sees EOF mid-query."""
        with make_service(CHAOS_SEED, timeout=30.0) as service:
            with service.open_session() as session:
                baseline = session.join("r", "s", method="partition")
                service._arm_chaos_hang(0, 1.0)
                victim = service.worker_pids()[0]
                handle = session.submit_join("r", "s", method="partition")
                os.kill(victim, signal.SIGKILL)
                recovered = handle.result(timeout=240.0)
            assert fingerprint(recovered.relation) == fingerprint(baseline.relation)
            assert recovered.redispatches >= 1

    def test_counters_and_ledgers_survive_redispatch(self):
        with make_service(CHAOS_SEED) as service:
            with service.open_session() as session:
                baseline = session.join("r", "s", method="partition")
                os.kill(service.worker_pids()[0], signal.SIGKILL)
                recovered = session.join("r", "s", method="partition")
            assert recovered.charged_ops == baseline.charged_ops
            assert recovered.totals.as_dict() == baseline.totals.as_dict()
            assert (
                recovered.outcome.n_result_tuples
                == baseline.outcome.n_result_tuples
            )


class TestHangRecovery:
    def test_hung_worker_times_out_and_redispatches(self):
        with make_service(CHAOS_SEED, timeout=1.0) as service:
            with service.open_session() as session:
                baseline = session.join("r", "s", method="partition")
                service._arm_chaos_hang(1, 15.0)
                recovered = session.join("r", "s", method="partition")
            assert fingerprint(recovered.relation) == fingerprint(baseline.relation)
            report = service.report()
            assert "shard-hang" in [d["kind"] for d in report["degradations"]]

    def test_repeated_failures_quarantine_to_inline_execution(self):
        """A shard that hangs on every respawn exhausts the re-dispatch
        budget and retires to in-process execution -- the bottom rung of
        the ladder still answers bit-identically."""
        with make_service(CHAOS_SEED, timeout=1.0) as service:
            with service.open_session() as session:
                baseline = session.join("r", "s", method="partition")
                service._arm_chaos_respawn_hang(1, 30.0)
                final = session.join(
                    "r", "s", method="partition", result_timeout=240.0
                )
            assert fingerprint(final.relation) == fingerprint(baseline.relation)
            report = service.report()
            assert report["workers"][1]["quarantined"]
            assert service.worker_pids()[1] is None
            assert "shard-quarantine" in [
                d["kind"] for d in report["degradations"]
            ]
            # The quarantined shard keeps serving inline, identically.
            with service.open_session() as session:
                again = session.join("r", "s", method="partition")
            assert fingerprint(again.relation) == fingerprint(baseline.relation)


def delta_loads(service) -> int:
    series = service.metrics_snapshot()["repro_shard_fragment_loads_total"]["series"]
    return int(series.get("kind=delta", 0))


def write_batch(seed: int):
    """Rows to append to ``r`` (and delete again): some meet ``s`` rows."""
    rng = random.Random(seed * 31 + 5)
    return [
        VTTuple((rng.randrange(10),), (f"w{i}",), Interval(vs, vs + 1 + rng.randrange(50)))
        for i, vs in enumerate(rng.randrange(400) for _ in range(12))
    ]


def pedigree(result):
    """Rows in order, counters and ledgers: what no rung may change."""
    return (
        fingerprint(result.relation),
        result.outcome.n_result_tuples,
        result.charged_ops,
        result.totals.as_dict(),
        {name: stats.as_dict() for name, stats in result.phases.items()},
    )


def undisturbed(seed: int, batch):
    """The join after the same write on a service nothing happens to: its
    workers are sent the delta and answer undisturbed."""
    with make_service(seed) as service:
        with service.open_session() as session:
            session.join("r", "s", method="partition")
            session.append("r", batch)
            return pedigree(session.join("r", "s", method="partition"))


class TestFailureBetweenWriteAndJoin:
    """A worker lost after a write and before the join that would have
    shipped it the delta holds nothing when it comes back: the respawn is
    sent the whole fragment, and the answer is the delta-fed one's."""

    def test_sigkill_after_a_write_reships_whole_identically(self):
        batch = write_batch(CHAOS_SEED)
        with make_service(CHAOS_SEED) as service:
            with service.open_session() as session:
                session.join("r", "s", method="partition")
                session.append("r", batch)
                os.kill(service.worker_pids()[1], signal.SIGKILL)
                recovered = session.join("r", "s", method="partition")
            assert recovered.redispatches == 1
            assert delta_loads(service) == 1  # the survivor's; the respawn got fragments
            assert [w["loaded_fragments"] for w in service.report()["workers"]] == [2, 2]
        assert pedigree(recovered) == undisturbed(CHAOS_SEED, batch)

    def test_hang_after_a_write_reships_whole_identically(self):
        """The armed worker installs its delta, then wedges on the EXECUTE;
        the respawn holds no base to apply a delta to."""
        batch = write_batch(CHAOS_SEED)
        with make_service(CHAOS_SEED, timeout=1.0) as service:
            with service.open_session() as session:
                session.join("r", "s", method="partition")
                service._arm_chaos_hang(0, 15.0)
                session.append("r", batch)
                recovered = session.join("r", "s", method="partition")
            assert recovered.redispatches == 1
            assert delta_loads(service) == 2  # both took the delta before the wedge
            assert "shard-hang" in [d["kind"] for d in service.report()["degradations"]]
        assert pedigree(recovered) == undisturbed(CHAOS_SEED, batch)

    def test_quarantined_shard_takes_deltas_like_a_worker(self):
        """The in-process stand-in is loaded whole once (it starts empty)
        and from then on rebuilds its fragments from deltas too."""
        batch = write_batch(CHAOS_SEED)
        with make_service(CHAOS_SEED, timeout=1.0) as service:
            with service.open_session() as session:
                session.join("r", "s", method="partition")
                service._arm_chaos_respawn_hang(1, 30.0)
                session.join("r", "s", method="partition", result_timeout=240.0)
                assert service.report()["workers"][1]["quarantined"]
                before = delta_loads(service)
                session.append("r", batch)
                grown = session.join("r", "s", method="partition")
                assert delta_loads(service) == before + 2  # the worker and the stand-in
                session.delete("r", batch)
                shrunk = session.join("r", "s", method="partition")
            stand_in = service._shards[1]
            current = service.catalog.current("r")
            held = stand_in.inline._fragments["r", current.epoch]
            assert held.tuples == service.shard_map.fragment(current.relation, 1).tuples
        assert pedigree(grown) == undisturbed(CHAOS_SEED, batch)
        with make_service(CHAOS_SEED) as service:
            with service.open_session() as session:
                baseline = session.join("r", "s", method="partition")
        assert fingerprint(shrunk.relation) == fingerprint(baseline.relation)


@pytest.mark.shard_slow
class TestSeededKillMatrix:
    @pytest.mark.parametrize("shards", (2, 4))
    def test_random_victims_random_moments(self, shards: int):
        rng = random.Random(CHAOS_SEED * 1009 + shards)
        with make_service(CHAOS_SEED, shards=shards, timeout=2.0) as service:
            with service.open_session() as session:
                baseline = session.join("r", "s", method="partition")
                expected = fingerprint(baseline.relation)
                for round_number in range(4):
                    victim = rng.randrange(shards)
                    pid = service.worker_pids()[victim]
                    if pid is not None:
                        if rng.random() < 0.5:
                            os.kill(pid, signal.SIGKILL)
                        else:
                            try:
                                service._arm_chaos_hang(victim, 10.0)
                            except Exception:
                                pass  # quarantined shards refuse the frame
                    result = session.join("r", "s", method="partition")
                    assert fingerprint(result.relation) == expected, (
                        f"round {round_number}, victim {victim}, "
                        f"seed {CHAOS_SEED}, shards {shards}"
                    )

    @pytest.mark.parametrize("execution", ("tuple", "batch"))
    def test_kill_under_each_execution_mode(self, execution: str):
        with ShardedQueryService(
            shard_catalog(CHAOS_SEED + 7),
            shards=2,
            pool_pages=32,
            execution=execution,
            result_cache_entries=0,
            supervision=SupervisionPolicy(
                fragment_timeout_seconds=2.0, max_redispatches=3
            ),
        ) as service:
            with service.open_session() as session:
                baseline = session.join("r", "s", method="partition")
                os.kill(service.worker_pids()[1], signal.SIGKILL)
                recovered = session.join("r", "s", method="partition")
            assert fingerprint(recovered.relation) == fingerprint(baseline.relation)
