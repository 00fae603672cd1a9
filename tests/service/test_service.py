"""QueryService end-to-end: caching semantics, admission, writes, metrics."""

from __future__ import annotations

import threading
import time

import pytest

from repro.model.errors import (
    AdmissionTimeoutError,
    QueryCancelledError,
    QueryDeadlineError,
    ServiceError,
)
from repro.service import QueryService
from repro.shard import ShardedQueryService

from tests.service.conftest import make_catalog, make_tuples, outcome_counters


def _series(service, family):
    return service.metrics_snapshot().get(family, {}).get("series", {})


def _counter(service, family, key=""):
    return _series(service, family).get(key, 0.0)


class TestResultCache:
    def test_hit_charges_zero_io_and_counts(self, service):
        with service.open_session() as session:
            first = session.join("r", "s")
            assert not first.result_cache_hit
            assert first.charged_ops > 0
            second = session.join("r", "s")
        assert second.result_cache_hit
        # The acceptance gate: a hit charges nothing anywhere.
        assert second.charged_ops == 0
        assert second.cost == 0.0
        assert second.granted_pages == 0  # no memory was even requested
        assert _counter(service, "repro_service_result_cache_hits") == 1.0
        # Bit-identical replay: same relation, same outcome counters.
        assert second.relation is first.relation
        assert second.outcome == first.outcome
        assert second.epochs == first.epochs

    def test_cached_batch_result_is_replayed_unbuilt(self, catalog):
        """A hit hands another session the very relation the miss produced,
        its rows still columns; whoever reads tuples first builds them for
        everyone."""
        with QueryService(catalog, pool_pages=32, execution="batch") as svc:
            with svc.open_session() as one, svc.open_session() as two:
                first = one.join("r", "s")
                second = two.join("r", "s")
        assert second.result_cache_hit and second.relation is first.relation
        assert len(second.relation) == first.outcome.n_result_tuples > 0
        assert not first.relation.materialized
        rows = second.relation.tuples
        assert first.relation.materialized
        assert all(mine is theirs for mine, theirs in zip(first.relation.tuples, rows))

    def test_append_invalidates_and_bumps_epochs(self, service):
        with service.open_session() as session:
            first = session.join("r", "s")
            session.append("r", make_tuples(10, seed=77))
            third = session.join("r", "s")
        assert not third.result_cache_hit
        assert third.epochs[0] > first.epochs[0]
        assert third.epochs[1] == first.epochs[1]
        assert third.outcome.n_result_tuples >= first.outcome.n_result_tuples
        assert service.result_cache.stats.invalidations >= 1
        assert (
            _counter(
                service,
                "repro_service_cache_invalidations_total",
                "cache=result",
            )
            >= 1.0
        )

    def test_delete_invalidates_too(self, service):
        rows = make_tuples(6, seed=5)
        with service.open_session() as session:
            session.append("s", rows)
            before = session.join("r", "s")
            session.delete("s", rows)
            after = session.join("r", "s")
        assert not after.result_cache_hit
        assert after.epochs[1] > before.epochs[1]

    def test_session_opt_out(self, service):
        with service.open_session(use_result_cache=False) as session:
            session.join("r", "s")
            again = session.join("r", "s")
        assert not again.result_cache_hit
        assert again.charged_ops > 0

    def test_a_result_whose_input_moved_while_it_ran_is_not_kept(
        self, either_service, monkeypatch
    ):
        """A write lands after the query pinned its epochs and before it
        finished: no later snapshot reaches those epochs, so the answer is
        returned but not stored."""
        service, _ = either_service
        serve = service._serve

        def serve_after_a_write(query):
            query.session.append("r", make_tuples(3, seed=41))
            return serve(query)

        monkeypatch.setattr(service, "_serve", serve_after_a_write)
        with service.open_session() as session:
            raced = session.join("r", "s", method="partition")
        assert not raced.result_cache_hit
        assert raced.epochs[0] < service.catalog.current("r").epoch
        assert len(service.result_cache) == 0

    def test_caches_can_be_disabled_service_wide(self):
        with QueryService(
            make_catalog(),
            pool_pages=32,
            plan_cache_entries=0,
            result_cache_entries=0,
        ) as svc:
            assert svc.plan_cache is None and svc.result_cache is None
            with svc.open_session() as session:
                session.join("r", "s")
                again = session.join("r", "s")
            assert not again.result_cache_hit


class TestPlanCache:
    def test_second_partition_join_reuses_the_plan(self):
        with QueryService(
            make_catalog(120, 90), pool_pages=32, result_cache_entries=1
        ) as svc:
            with svc.open_session() as session:
                first = session.join("r", "s", method="partition")
                assert not first.plan_cache_hit
                # Flush the result cache so the join actually re-runs.
                svc.result_cache.clear()
                second = session.join("r", "s", method="partition")
            assert second.plan_cache_hit
            # Skipping the sample phase can only reduce the charge.
            assert second.charged_ops <= first.charged_ops
            # Identical evaluation either way.
            assert list(second.relation.tuples) == list(first.relation.tuples)
            assert outcome_counters(second.outcome) == outcome_counters(first.outcome)

    def test_append_invalidates_plans(self, service):
        with service.open_session() as session:
            session.join("r", "s", method="partition")
            session.append("r", make_tuples(4, seed=9))
            service.result_cache.clear()
            result = session.join("r", "s", method="partition")
        assert not result.plan_cache_hit


class TestAdmissionIntegration:
    def test_oversubscribed_sessions_all_complete(self):
        # Pool fits roughly one query at a time; 4 sessions pile on.
        with QueryService(
            make_catalog(),
            pool_pages=16,
            workers=4,
            result_cache_entries=0,
            plan_cache_entries=0,
            admission_timeout=30.0,
        ) as svc:
            sessions = [svc.open_session(memory_pages=14) for _ in range(4)]
            handles = [
                session.submit_join("r", "s", method="partition")
                for session in sessions
                for _ in range(2)
            ]
            results = [handle.result(60.0) for handle in handles]
            for session in sessions:
                session.close()
        assert len(results) == 8
        assert svc.admission.peak_granted_pages <= 16
        assert svc.admission.granted_pages == 0
        reference = list(results[0].relation.tuples)
        for result in results[1:]:
            assert list(result.relation.tuples) == reference

    def test_degraded_grant_still_answers_correctly(self):
        with QueryService(
            make_catalog(),
            pool_pages=24,
            workers=2,
            degrade_after=0.01,
            result_cache_entries=0,
            plan_cache_entries=0,
        ) as svc:
            block = svc.admission.acquire(16, label="squatter")
            try:
                with svc.open_session(memory_pages=20) as session:
                    degraded = session.join("r", "s", method="partition")
            finally:
                block.release()
            with svc.open_session(memory_pages=20) as session:
                full = session.join("r", "s", method="partition")
        assert degraded.degraded
        assert degraded.granted_pages < degraded.requested_pages
        # Same answer as the full-memory run (the replan ladder absorbed it).
        assert sorted(map(repr, degraded.relation.tuples)) == sorted(
            map(repr, full.relation.tuples)
        )

    def test_degraded_grant_never_populates_the_result_cache(self):
        # The serving guarantee is bit-identity with a serial replay; a
        # degraded run's budget is pressure-dependent, so its outcome must
        # never be stored under the full-budget cache key.
        with QueryService(
            make_catalog(),
            pool_pages=24,
            workers=2,
            degrade_after=0.01,
            plan_cache_entries=0,
        ) as svc:
            block = svc.admission.acquire(16, label="squatter")
            try:
                with svc.open_session(memory_pages=20) as session:
                    degraded = session.join("r", "s", method="partition")
            finally:
                block.release()
            assert degraded.degraded
            assert len(svc.result_cache) == 0
            with svc.open_session(memory_pages=20) as session:
                full = session.join("r", "s", method="partition")
                hit = session.join("r", "s", method="partition")
        # The full-grant run had to compute fresh -- a hit here would have
        # replayed the degraded run's counters as if they were its own.
        assert not full.result_cache_hit and full.charged_ops > 0
        assert hit.result_cache_hit
        assert hit.outcome == full.outcome

    def test_cancel_queued_query(self):
        with QueryService(
            make_catalog(),
            pool_pages=16,
            workers=2,
            result_cache_entries=0,
            plan_cache_entries=0,
        ) as svc:
            squatter = svc.admission.acquire(16, label="squatter")
            try:
                with svc.open_session(memory_pages=12) as session:
                    handle = session.submit_join("r", "s", method="partition")
                    while svc.admission.queue_length < 1:
                        threading.Event().wait(0.001)
                    assert handle.cancel()
                    with pytest.raises(Exception):
                        handle.result(5.0)
                    assert handle.cancelled
            finally:
                squatter.release()
        assert svc.admission.granted_pages == 0

    def test_close_cancels_inflight_admission_waiters(self):
        svc = QueryService(
            make_catalog(),
            pool_pages=16,
            workers=2,
            result_cache_entries=0,
            plan_cache_entries=0,
            admission_timeout=30.0,
        )
        squatter = svc.admission.acquire(16, label="squatter")
        try:
            session = svc.open_session(memory_pages=12)
            handle = session.submit_join("r", "s", method="partition")
            while svc.admission.queue_length < 1:
                threading.Event().wait(0.001)
            before = time.monotonic()
            svc.close()  # must not sit out the 30s admission timeout
            assert time.monotonic() - before < 10.0
            with pytest.raises(QueryCancelledError):
                handle.result(5.0)
            assert handle.cancelled
        finally:
            squatter.release()
        assert svc.admission.granted_pages == 0


class TestMetricsAndReport:
    def test_metric_families_present(self, service):
        with service.open_session() as session:
            session.join("r", "s")
            session.join("r", "s")
            session.append("r", make_tuples(2, seed=3))
        snapshot = service.metrics_snapshot()
        for family in (
            "repro_service_queries_total",
            "repro_service_result_cache_hits",
            "repro_service_result_cache_misses",
            "repro_service_queue_wait_seconds",
            "repro_service_active_sessions",
            "repro_service_granted_pages",
            "repro_service_queued_pages",
            "repro_service_sessions_total",
            "repro_service_writes_total",
        ):
            assert family in snapshot, family
        ok = [
            count
            for key, count in snapshot["repro_service_queries_total"]["series"].items()
            if "status=ok" in key
        ]
        assert sum(ok) == 2.0
        histogram = snapshot["repro_service_queue_wait_seconds"]["series"][""]
        assert histogram["count"] == 1  # one grant: the hit never queued

    def test_status_counts_share_resolved_method_label(self):
        # "auto" is resolved before dispatch, so ok/error/timeout counts of
        # repro_service_queries_total all land on the same method label and
        # per-method totals add up across statuses.
        with QueryService(
            make_catalog(),
            pool_pages=16,
            workers=2,
            result_cache_entries=0,
            plan_cache_entries=0,
        ) as svc:
            with svc.open_session() as session:
                session.join("r", "s", method="auto")
                squatter = svc.admission.acquire(16, label="squatter")
                try:
                    with pytest.raises(AdmissionTimeoutError):
                        session.join("r", "s", method="auto", timeout=0.05)
                finally:
                    squatter.release()
            series = _series(svc, "repro_service_queries_total")
        statuses = {
            part
            for key in series
            for part in key.split(",")
            if part.startswith("status=")
        }
        assert statuses == {"status=ok", "status=admission_timeout"}
        assert all("method=auto" not in key for key in series)

    def test_exact_counts_under_concurrency(self):
        with QueryService(make_catalog(), pool_pages=32, workers=4) as svc:
            n_sessions, per_session = 4, 6

            def hammer(session):
                for _ in range(per_session):
                    session.join("r", "s")

            sessions = [svc.open_session() for _ in range(n_sessions)]
            threads = [
                threading.Thread(target=hammer, args=(s,)) for s in sessions
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for session in sessions:
                session.close()
            snapshot = svc.metrics_snapshot()
            total = sum(
                snapshot["repro_service_queries_total"]["series"].values()
            )
            assert total == n_sessions * per_session
            hits = _counter(svc, "repro_service_result_cache_hits")
            misses = _counter(svc, "repro_service_result_cache_misses")
            assert hits + misses == total
            assert misses >= 1  # someone computed it first

    def test_report_shape(self, service):
        with service.open_session() as session:
            session.join("r", "s")
        report = service.report()
        assert report["admission"]["capacity_pages"] == 32
        assert report["result_cache"]["misses"] >= 1
        assert 0.0 <= report["result_cache"]["hit_ratio"] <= 1.0


class TestBaselineMethods:
    @pytest.mark.parametrize("method", ["sort_merge", "nested_loop"])
    def test_baselines_serve_and_cache(self, service, method):
        with service.open_session() as session:
            first = session.join("r", "s", method=method)
            second = session.join("r", "s", method=method)
        assert first.algorithm == method
        assert first.charged_ops >= 0 and not first.result_cache_hit
        assert second.result_cache_hit and second.charged_ops == 0
        assert second.outcome.n_result_tuples == first.outcome.n_result_tuples

    def test_methods_agree_on_cardinality(self, service):
        with service.open_session() as session:
            results = [
                session.join("r", "s", method=m)
                for m in ("partition", "sort_merge", "nested_loop")
            ]
        cardinalities = {r.outcome.n_result_tuples for r in results}
        assert len(cardinalities) == 1


class TestGrantPedigree:
    def test_an_ask_beyond_the_pool_reads_clamped(self, either_service):
        """sort-merge asks for its whole budget; 64 pages against the 32-page
        pool (of each shard) is cut to capacity, which is not a degradation."""
        service, _ = either_service
        with service.open_session(memory_pages=64) as session:
            result = session.join("r", "s", method="sort_merge")
        assert result.clamped and not result.degraded
        assert result.granted_pages < result.requested_pages


class TestDeadlineBudget:
    def test_deadline_must_be_positive(self, either_service):
        service, _ = either_service
        with pytest.raises(ServiceError):
            service.open_session(deadline_seconds=0.0)
        with pytest.raises(ServiceError):
            service.open_session(deadline_seconds=-1.0)

    def test_tiny_deadline_raises_before_evaluation(self, either_service):
        service, family = either_service
        with service.open_session(deadline_seconds=1e-6, label="rushed") as session:
            with pytest.raises(QueryDeadlineError):
                session.join("r", "s")
        deadline_counts = [
            count
            for key, count in _series(service, family).items()
            if "status=deadline" in key
        ]
        assert sum(deadline_counts) >= 1.0

    def test_generous_deadline_does_not_interfere(self, either_service):
        service, _ = either_service
        with service.open_session(deadline_seconds=60.0) as session:
            result = session.join("r", "s")
        assert result.outcome.n_result_tuples > 0

    def test_admission_wait_is_capped_by_the_deadline(self, service):
        """A saturated pool plus a short budget must surface as a deadline
        error, not an admission timeout -- the deadline was the binding
        bound."""
        hog = service.admission.acquire(32, label="hog")  # the whole pool
        try:
            with service.open_session(
                deadline_seconds=0.3, admission_timeout=30.0, label="queued"
            ) as session:
                with pytest.raises(QueryDeadlineError):
                    session.join("r", "s")
        finally:
            hog.release()
        assert "repro_service_deadline_exceeded_total" in service.metrics_snapshot()

    @pytest.mark.parametrize("abort", ["deadline", "cancel"])
    def test_deadline_between_collects_leaves_the_channels_in_step(
        self, catalog, abort, monkeypatch
    ):
        """A budget spent -- or a cancel requested -- while shard 0 computes
        aborts before shard 1 is collected; shard 1's unread answer must not
        become the next request's.  The repeated join must fan out, so the
        result cache is off."""
        with ShardedQueryService(
            catalog, shards=2, pool_pages=32, result_cache_entries=0
        ) as service:
            with service.open_session() as session:
                session.join("r", "s", method="partition")
                collected = _counter(service, "repro_shard_fragments_total", "status=ok")
                service._arm_chaos_hang(0, 1.0)
                if abort == "deadline":
                    with service.open_session(deadline_seconds=0.5) as rushed:
                        with pytest.raises(QueryDeadlineError):
                            rushed.join("r", "s", method="partition")
                else:
                    # Cancel once the fan-out is inside shard 0's collect:
                    # past the check before it, a second short of the next.
                    collecting = threading.Event()
                    collect = service._collect

                    def signalling_collect(*args):
                        collecting.set()
                        return collect(*args)

                    monkeypatch.setattr(service, "_collect", signalling_collect)
                    handle = session.submit_join("r", "s", method="partition")
                    assert collecting.wait(10.0)
                    assert handle.cancel()
                    with pytest.raises(QueryCancelledError):
                        handle.result(10.0)
                assert (
                    _counter(service, "repro_shard_fragments_total", "status=ok")
                    == collected + 1
                )  # shard 0 was collected, shard 1 was not
                status = "cancelled" if abort == "cancel" else "deadline"
                assert [
                    count
                    for key, count in _series(service, "repro_shard_queries_total").items()
                    if f"status={status}" in key
                ] == [1.0]
                session.append("r", make_tuples(10, seed=77))
                after = session.join("r", "s", method="partition")
            assert not service.resilience.degradations  # drained, not respawned
        with QueryService(catalog, pool_pages=32) as reference:
            with reference.open_session() as session:
                expected = session.join("r", "s", method="partition")
        assert sorted(after.relation.tuples, key=repr) == sorted(
            expected.relation.tuples, key=repr
        )
