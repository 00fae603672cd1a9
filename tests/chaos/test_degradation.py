"""Graceful degradation: the join survives what it cannot retry away.

Three rungs of the ladder, plus the exception-safety regression that a
failed join never leaks buffer-pool reservations:

* a page that fails permanently mid-sweep degrades the run to a block
  nested-loop over the base relations (same tuples, different order);
* a buffer budget smaller than configured triggers a re-plan before the
  sweep starts;
* a budget reduction *during* the sweep engages the Section 3.4 overflow
  machinery instead of aborting.
"""

import pytest

from repro.core.partition_join import partition_join, resume_join
from repro.model.errors import (
    BufferOverflowError,
    PermanentIOFaultError,
    SimulatedCrashError,
)
from repro.resilience import BufferReduction, FaultInjector, RecoveryLog
from repro.storage.buffer import BufferPool
from repro.storage.layout import DiskLayout

from tests.chaos.conftest import CHAOS_SEED, SPEC, chaos_config, chaos_relation

R = chaos_relation("r", 300, CHAOS_SEED + 5)
S = chaos_relation("s", 300, CHAOS_SEED + 6)


def sorted_tuples(run):
    return sorted(run.result.tuples, key=repr)


@pytest.fixture(scope="module")
def oracle():
    return partition_join(
        R, S, chaos_config("tuple", checkpoint_interval=0), layout=DiskLayout(spec=SPEC)
    )


class TestNestedLoopFallback:
    def test_permanent_read_failure_falls_back(self, oracle):
        injector = FaultInjector(seed=CHAOS_SEED)
        # The backward sweep reads partition 0 last; make its first page
        # fail more times than the retry policy tolerates.
        injector.fail_read("r_part0", 0, times=20)
        layout = DiskLayout(spec=SPEC, fault_injector=injector, checksums=True)
        run = partition_join(
            R, S, chaos_config("tuple", checkpoint_interval=0), layout=layout
        )
        assert sorted_tuples(run) == sorted_tuples(oracle)
        assert run.outcome.n_result_tuples == oracle.outcome.n_result_tuples
        report = layout.resilience_report
        assert report.degraded
        assert [e.kind for e in report.degradations] == ["nested-loop-fallback"]
        assert report.permanent_failures
        # The fallback ran as its own accounted phase.
        assert "degraded-join" in layout.tracker.phases

    def test_fallback_can_be_disabled(self):
        injector = FaultInjector(seed=CHAOS_SEED)
        injector.fail_read("r_part0", 0, times=20)
        layout = DiskLayout(spec=SPEC, fault_injector=injector, checksums=True)
        config = chaos_config(
            "tuple", checkpoint_interval=0, degraded_fallback=False
        )
        with pytest.raises(PermanentIOFaultError) as excinfo:
            partition_join(R, S, config, layout=layout)
        assert excinfo.value.context["extent"] == "r_part0"
        assert excinfo.value.context["page_index"] == 0

    def test_stored_corruption_after_crash_degrades_the_resume(self, oracle):
        injector = FaultInjector(seed=CHAOS_SEED)
        layout = DiskLayout(spec=SPEC, fault_injector=injector, checksums=True)
        recovery = RecoveryLog()
        config = chaos_config("tuple")

        probe_layout = DiskLayout(
            spec=SPEC, fault_injector=FaultInjector(seed=CHAOS_SEED), checksums=True
        )
        partition_join(R, S, config, layout=probe_layout, recovery=RecoveryLog())
        total_ops = probe_layout.disk.fault_injector.ops_seen

        injector.schedule_crash(at_op=int(total_ops * 0.7))
        with pytest.raises(SimulatedCrashError):
            partition_join(R, S, config, layout=layout, recovery=recovery)

        # Between the crash and the restart, a stored partition page rots.
        # Checksums make every re-read fail, exhausting the retry policy.
        extent = layout.disk.find_extent("r_part0")
        assert extent is not None and extent.n_pages > 0
        layout.disk.corrupt_stored(extent, 0)

        run = resume_join(R, S, config, layout=layout, recovery=recovery)
        assert sorted_tuples(run) == sorted_tuples(oracle)
        report = layout.resilience_report
        assert report.resumes == 1
        assert report.corruptions_detected > 0
        assert "nested-loop-fallback" in [e.kind for e in report.degradations]


class TestReplanAndReduction:
    def test_small_pool_triggers_replan(self, oracle):
        pool = BufferPool(6)
        layout = DiskLayout(spec=SPEC)
        run = partition_join(
            R,
            S,
            chaos_config("tuple", checkpoint_interval=0),
            layout=layout,
            pool=pool,
        )
        assert sorted_tuples(run) == sorted_tuples(oracle)
        report = layout.resilience_report
        assert [e.kind for e in report.degradations] == ["replan"]
        assert pool.used_pages == 0

    def test_midsweep_buffer_reduction_uses_overflow_blocks(self, oracle):
        reduction = BufferReduction(at_position=2, buff_size=1)
        layout = DiskLayout(spec=SPEC)
        run = partition_join(
            R,
            S,
            chaos_config(
                "tuple", checkpoint_interval=0, buffer_reductions=(reduction,)
            ),
            layout=layout,
        )
        assert sorted_tuples(run) == sorted_tuples(oracle)
        assert run.outcome.n_result_tuples == oracle.outcome.n_result_tuples
        assert run.outcome.overflow_blocks > oracle.outcome.overflow_blocks
        report = layout.resilience_report
        assert "buffer-reduction" in [e.kind for e in report.degradations]


class TestPoolLeakRegression:
    def test_failed_join_releases_every_reservation(self):
        injector = FaultInjector(seed=CHAOS_SEED)
        layout = DiskLayout(spec=SPEC, fault_injector=injector, checksums=True)
        config = chaos_config("tuple")

        probe_layout = DiskLayout(
            spec=SPEC, fault_injector=FaultInjector(seed=CHAOS_SEED), checksums=True
        )
        partition_join(R, S, config, layout=probe_layout, recovery=RecoveryLog())
        total_ops = probe_layout.disk.fault_injector.ops_seen

        pool = BufferPool(config.memory_pages)
        injector.schedule_crash(at_op=int(total_ops * 0.7))
        with pytest.raises(SimulatedCrashError):
            partition_join(
                R, S, config, layout=layout, recovery=RecoveryLog(), pool=pool
            )
        # The sweep died mid-flight, yet every reservation was returned.
        assert pool.used_pages == 0
        assert pool.free_pages == pool.total_pages

    @pytest.mark.parametrize("execution", ["tuple", "batch"])
    def test_refused_reservation_returns_the_ones_before_it(self, execution):
        """Someone else holds two pages of the pool, so the sweep's third
        reservation is refused: the two it did get must come back -- from a
        fresh run and from a resumed one."""
        config = chaos_config(execution)
        pool = BufferPool(config.memory_pages)
        pool.reserve("someone-else", 2)
        with pytest.raises(BufferOverflowError, match="tuple_cache_page"):
            partition_join(R, S, config, layout=DiskLayout(spec=SPEC), pool=pool)
        assert pool.used_pages == 2

        injector = FaultInjector(seed=CHAOS_SEED)
        layout = DiskLayout(spec=SPEC, fault_injector=injector, checksums=True)
        recovery = RecoveryLog()
        partition_join(R, S, config, layout=layout, recovery=recovery)
        assert recovery.resumable
        with pytest.raises(BufferOverflowError, match="tuple_cache_page"):
            resume_join(R, S, config, layout=layout, recovery=recovery, pool=pool)
        assert pool.used_pages == 2
