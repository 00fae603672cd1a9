"""Chaos tests for lane supervision: kill and hang real workers.

The acceptance contract under fire: a SIGKILLed lane and a hung lane must
each recover through the supervisor's deterministic re-dispatch with
results, ``JoinOutcome`` counters, and the full per-phase charged-I/O
ledgers **bit-identical** to an undisturbed run -- recovery visible only in
``lane-*`` degradation events and the supervisor's own ledger, never in the
charged bill -- in both pooled sweep modes and under concurrent service
load.
"""

import pytest

from repro.core.partition_join import partition_join, resume_join
from repro.exec import PIPELINED_SWEEP_MODES
from repro.exec.backend import HAVE_NUMPY
from repro.model.errors import SimulatedCrashError
from repro.resilience import FaultInjector, RecoveryLog
from repro.resilience.supervisor import clear_lane_injector, install_lane_injector
from repro.storage.layout import DiskLayout

from tests.chaos.conftest import CHAOS_SEED, SPEC, chaos_config, chaos_relation
from tests.service.conftest import outcome_counters

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="lane pools only dispatch with numpy workers"
)

if HAVE_NUMPY:
    from repro.exec import sweep_parallel as sweep

R = chaos_relation("lr", 400, CHAOS_SEED + 21)
S = chaos_relation("ls", 400, CHAOS_SEED + 22)

#: Both pooled sweep modes must survive the same faults.
POOLED_MODES = PIPELINED_SWEEP_MODES

_BASELINES = {}


@pytest.fixture
def forced_lanes(monkeypatch):
    """Force a real 2-lane pool even on a 1-core runner.

    The service path takes the default lane count, so the default itself is
    lifted to 2 as well (the join's answer never depends on it)."""
    monkeypatch.setattr(sweep, "OVERSUBSCRIBE", True)
    monkeypatch.setattr(sweep, "MIN_LANE_ROWS", 0)
    monkeypatch.setattr(sweep, "default_sweep_workers", lambda: 2)


def pooled_config(execution, **overrides):
    overrides.setdefault("sweep_workers", 2)
    overrides.setdefault("lane_timeout_seconds", 10.0)
    return chaos_config(execution, **overrides)


def undisturbed(execution):
    """A memoized pooled-but-undisturbed run of *execution* (per process)."""
    if execution not in _BASELINES:
        layout = DiskLayout(
            spec=SPEC, columnar=(execution == "zero-copy-sweep")
        )
        _BASELINES[execution] = partition_join(
            R, S, pooled_config(execution), layout=layout
        )
    return _BASELINES[execution]


def disturbed_layout(injector, execution):
    return DiskLayout(
        spec=SPEC,
        fault_injector=injector,
        columnar=(execution == "zero-copy-sweep"),
    )


def assert_bit_identical(run, expected):
    """Results, outcome counters, AND the tagged charged-I/O ledgers."""
    assert list(run.result.tuples) == list(expected.result.tuples)
    assert run.outcome.n_result_tuples == expected.outcome.n_result_tuples
    assert run.outcome.overflow_blocks == expected.outcome.overflow_blocks
    assert run.outcome.cache_tuples_peak == expected.outcome.cache_tuples_peak
    assert (
        run.outcome.cache_tuples_spilled == expected.outcome.cache_tuples_spilled
    )
    # The supervisor's backoff lands on its own ledger, never the disk's:
    # every per-phase charged counter must match the undisturbed run.
    assert (
        run.layout.tracker.stats.as_dict()
        == expected.layout.tracker.stats.as_dict()
    )
    assert {
        name: stats.as_dict() for name, stats in run.layout.tracker.phases.items()
    } == {
        name: stats.as_dict()
        for name, stats in expected.layout.tracker.phases.items()
    }


def lane_kinds(layout):
    return [
        event.kind
        for event in layout.resilience_report.degradations
        if event.kind.startswith("lane-")
    ]


class TestLaneDeath:
    @pytest.mark.parametrize("execution", POOLED_MODES)
    def test_sigkilled_lane_recovers_bit_identical(self, forced_lanes, execution):
        injector = FaultInjector(seed=CHAOS_SEED)
        injector.kill_lane(at_dispatch=1)
        layout = disturbed_layout(injector, execution)
        run = partition_join(R, S, pooled_config(execution), layout=layout)
        assert "lane-death" in lane_kinds(layout)
        assert_bit_identical(run, undisturbed(execution))


class TestLaneHang:
    @pytest.mark.parametrize("execution", POOLED_MODES)
    def test_hung_lane_recovers_bit_identical(self, forced_lanes, execution):
        injector = FaultInjector(seed=CHAOS_SEED)
        injector.hang_lane(at_dispatch=1)
        layout = disturbed_layout(injector, execution)
        run = partition_join(
            R,
            S,
            pooled_config(execution, lane_timeout_seconds=0.5),
            layout=layout,
        )
        assert "lane-hang" in lane_kinds(layout)
        assert_bit_identical(run, undisturbed(execution))


class TestPooledCrash:
    @pytest.mark.parametrize("execution", POOLED_MODES)
    def test_resume_is_bit_identical(self, forced_lanes, execution):
        """Crash the sweep while its lane pool is live: the pool goes down
        with the run, the resumed sweep forks its own, and the answer is the
        undisturbed run's.  (The exhaustive crash-point sweep lives in
        test_crash_resume.py; here each run pays for a real pool.)"""
        expected = undisturbed(execution)
        probe_injector = FaultInjector(seed=CHAOS_SEED)
        partition_join(
            R,
            S,
            pooled_config(execution),
            layout=disturbed_layout(probe_injector, execution),
            recovery=RecoveryLog(),
        )
        total_ops = probe_injector.ops_seen
        for at_op in (total_ops // 2, (3 * total_ops) // 4):
            injector = FaultInjector(seed=CHAOS_SEED)
            injector.schedule_crash(at_op=at_op)
            layout = disturbed_layout(injector, execution)
            recovery = RecoveryLog()
            config = pooled_config(execution)
            with pytest.raises(SimulatedCrashError):
                partition_join(R, S, config, layout=layout, recovery=recovery)
            run = resume_join(R, S, config, layout=layout, recovery=recovery)
            assert layout.resilience_report.resumes == 1
            # Pre-crash I/O stays on the resumed run's ledger, so only the
            # answer is compared here.
            assert list(run.result.tuples) == list(expected.result.tuples)
            assert outcome_counters(run.outcome) == outcome_counters(expected.outcome)


class TestQuarantineLadder:
    def test_repeated_death_quarantines_then_retires(self, forced_lanes):
        """Kills on consecutive dispatch attempts walk 3 lanes -> 2 -> 1:
        two quarantines, then retirement to in-process -- same answer."""
        injector = FaultInjector(seed=CHAOS_SEED)
        injector.kill_lane(at_dispatch=1)
        injector.kill_lane(at_dispatch=2)  # the re-dispatch of attempt 1
        layout = disturbed_layout(injector, "zero-copy-sweep")
        run = partition_join(
            R,
            S,
            pooled_config(
                "zero-copy-sweep",
                sweep_workers=3,
                lane_quarantine_after=1,
            ),
            layout=layout,
        )
        kinds = lane_kinds(layout)
        assert kinds.count("lane-death") == 2
        assert kinds.count("lane-quarantine") == 2
        assert "lane-retired" in kinds
        base = partition_join(
            R,
            S,
            pooled_config(
                "zero-copy-sweep", sweep_workers=3, lane_quarantine_after=1
            ),
            layout=DiskLayout(spec=SPEC, columnar=True),
        )
        assert_bit_identical(run, base)


class TestServiceUnderLaneChaos:
    def test_concurrent_service_load_survives_lane_death(self, forced_lanes):
        """Kill a lane while a service runs concurrent pooled queries: every
        query must answer exactly what an undisturbed service answers."""
        from repro.service import QueryService
        from repro.storage.page import PageSpec

        from tests.service.conftest import make_catalog

        spec = PageSpec(page_bytes=256, tuple_bytes=32)

        def serve(injector=None):
            if injector is not None:
                install_lane_injector(injector)
            try:
                with QueryService(
                    make_catalog(220, 200, seed=CHAOS_SEED),
                    pool_pages=64,
                    memory_pages=8,
                    workers=3,
                    execution="zero-copy-sweep",
                    page_spec=spec,
                    result_cache_entries=0,  # force every query to evaluate
                ) as svc:
                    sessions = [
                        svc.open_session(label=f"c{i}", method="partition")
                        for i in range(3)
                    ]
                    handles = [
                        session.submit_join("r", "s") for session in sessions
                    ]
                    results = [handle.result(120.0) for handle in handles]
                    for session in sessions:
                        session.close()
                    recovered = (
                        svc.metrics_snapshot()
                        .get("repro_service_lane_disturbed_total", {})
                        .get("series", {})
                        .get("", 0.0)
                    )
                    return results, recovered
            finally:
                clear_lane_injector()

        expected, baseline_recovered = serve()
        assert baseline_recovered == 0.0
        injector = FaultInjector(seed=CHAOS_SEED)
        injector.kill_lane(at_dispatch=1)
        disturbed, recovered = serve(injector)
        assert recovered >= 1.0, "the scripted lane kill never fired"

        assert len(disturbed) == len(expected) == 3
        for got, want in zip(disturbed, expected):
            assert list(got.relation.tuples) == list(want.relation.tuples)
            assert outcome_counters(got.outcome) == outcome_counters(want.outcome)
            assert got.charged_ops == want.charged_ops
