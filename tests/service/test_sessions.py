"""Session lifecycle, per-session overrides, the session cap, and the
constructor checks -- the surface :class:`~repro.service.core.ServiceCore`
gives both services, so every case runs on both."""

from __future__ import annotations

import pytest

from repro.model.errors import ServiceError, SessionClosedError
from repro.service import QueryService, SessionConfig
from repro.service.core import ServiceCore
from repro.shard import ShardedQueryService

from tests.service.conftest import make_catalog, open_service


class OnEitherService:
    """Test classes below run on the single-process service; each has a
    ``...Sharded`` subclass that reruns every case on the sharded one."""

    kind = "single"

    @pytest.fixture
    def service(self, catalog):
        with open_service(self.kind, catalog, pool_pages=32, workers=3) as svc:
            yield svc

    def open(self, **options):
        return open_service(self.kind, make_catalog(), **options)


class TestLifecycle(OnEitherService):
    def test_close_is_idempotent_and_final(self, service):
        session = service.open_session()
        assert not session.closed
        assert service.active_sessions == 1
        session.close()
        session.close()
        assert session.closed
        assert service.active_sessions == 0
        with pytest.raises(SessionClosedError):
            session.join("r", "s")
        with pytest.raises(SessionClosedError):
            session.append("r", [])

    def test_context_manager_closes(self, service):
        with service.open_session() as session:
            assert service.active_sessions == 1
        assert session.closed
        assert service.active_sessions == 0

    def test_session_cap(self):
        with self.open(pool_pages=16, max_sessions=2) as svc:
            a = svc.open_session()
            svc.open_session()
            with pytest.raises(ServiceError, match="session limit"):
                svc.open_session()
            a.close()
            svc.open_session()  # freed slot is reusable

    def test_service_close_closes_sessions(self):
        svc = self.open(pool_pages=16)
        session = svc.open_session()
        svc.close()
        assert session.closed
        with pytest.raises(ServiceError, match="closed"):
            svc.open_session()

    def test_session_population_is_counted(self, service):
        with service.open_session(), service.open_session():
            snapshot = service.metrics_snapshot()
            assert snapshot["repro_service_active_sessions"]["series"][""] == 2.0
        snapshot = service.metrics_snapshot()
        assert snapshot["repro_service_sessions_total"]["series"][""] == 2.0
        assert snapshot["repro_service_active_sessions"]["series"][""] == 0.0

    def test_constructor_rejects_what_neither_service_can_serve(self):
        with pytest.raises(ServiceError, match="execution"):
            self.open(execution="warp")
        with pytest.raises(ServiceError, match="memory_pages"):
            self.open(memory_pages=2)
        with pytest.raises(ServiceError, match="max_sessions"):
            self.open(max_sessions=0)


class TestLifecycleSharded(TestLifecycle):
    kind = "sharded"


class TestOverrides(OnEitherService):
    def test_config_and_keyword_overrides(self, service):
        base = SessionConfig(memory_pages=8, label="cfg")
        with service.open_session(base, execution="batch") as session:
            assert session.config.memory_pages == 8
            assert session.config.execution == "batch"
            assert session.config.label == "cfg"

    def test_memory_override_drives_the_grant(self, service):
        with service.open_session(memory_pages=8) as session:
            result = session.join("r", "s", method="partition")
            # One grant per fragment: the sharded pages sum over shards.
            fragments = len(result.shards) if self.kind == "sharded" else 1
            assert result.requested_pages <= 8 * fragments
            assert result.granted_pages <= 8 * fragments

    def test_execution_override_still_bit_identical(self, service):
        with service.open_session(execution="tuple", use_result_cache=False) as a:
            tuple_result = a.join("r", "s", method="partition")
        with service.open_session(execution="batch", use_result_cache=False) as b:
            batch_result = b.join("r", "s", method="partition")
        assert list(tuple_result.relation.tuples) == list(batch_result.relation.tuples)

    def test_invalid_overrides_rejected_at_open(self, service):
        with pytest.raises(ServiceError, match="execution"):
            service.open_session(execution="warp")
        with pytest.raises(ServiceError, match="method"):
            service.open_session(method="hash")
        with pytest.raises(ServiceError, match="memory_pages"):
            service.open_session(memory_pages=2)

    def test_method_override_per_session(self, service):
        with service.open_session(method="sort_merge") as session:
            result = session.join("r", "s")
            assert result.algorithm == "sort_merge"
            # The per-call method beats the session default.
            forced = session.join("r", "s", method="nested_loop")
            assert forced.algorithm == "nested_loop"


class TestOverridesSharded(TestOverrides):
    kind = "sharded"


#: What the core owns: a service that defined one of these again would be a
#: second copy free to drift from the first.
CORE_SURFACE = (
    "open_session", "_session_closed", "_append", "_delete", "_submit_join",
    "_run_join", "_query_config", "_statistics", "_session_predicate",
    "_choose_method", "_count", "_count_query", "__enter__", "__exit__",
    "_answer", "_evict", "_cache_reports",
)


def test_both_services_share_the_core_implementation():
    redefined = [
        name
        for name in CORE_SURFACE
        if not (
            getattr(QueryService, name)
            is getattr(ShardedQueryService, name)
            is getattr(ServiceCore, name)
        )
    ]
    assert not redefined
