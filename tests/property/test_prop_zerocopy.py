"""Property tests: the four partition modes are one algorithm, bit for bit.

The columnar heap-page layout (packed pages probed as buffer views, tuples
materialized on emission) is pure mechanism: on arbitrary inputs --
including cache-overflow workloads, crash/resume runs, and concurrent
service executions -- every execution mode must emit exactly the same
result tuples in the same order, land on exactly the same
:class:`JoinOutcome` counters, and charge the same reads and writes to
every phase as the PR-1 tuple-at-a-time evaluator.
"""

from __future__ import annotations

import threading

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.partition_join import (
    EXECUTION_MODES,
    PartitionJoinConfig,
    partition_join,
    resume_join,
)
from repro.model.errors import SimulatedCrashError
from repro.model.relation import ValidTimeRelation
from repro.model.schema import RelationSchema
from repro.model.vtuple import VTTuple
from repro.resilience import FaultInjector, RecoveryLog
from repro.storage.layout import DiskLayout
from repro.storage.page import PageSpec
from repro.time.interval import Interval

SCHEMA_R = RelationSchema("r", ("k",), ("a",), tuple_bytes=128)
SCHEMA_S = RelationSchema("s", ("k",), ("b",), tuple_bytes=128)
SPEC = PageSpec(page_bytes=512, tuple_bytes=128)  # 4 tuples/page: many pages

prop_settings = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def vt_tuples(tag, n_keys=5):
    return st.builds(
        lambda key, start, duration, payload: VTTuple(
            (key,), (f"{tag}{payload}",), Interval(start, start + duration)
        ),
        key=st.integers(0, n_keys),
        start=st.integers(0, 80),
        duration=st.integers(0, 40),
        payload=st.integers(0, 1000),
    )


def relations(schema, tag, **kwargs):
    return st.lists(vt_tuples(tag, **kwargs), max_size=40).map(
        lambda tuples: ValidTimeRelation(schema, tuples)
    )


def fingerprint(run):
    """Everything the bit-identity contract covers."""
    return (
        list(run.result.tuples),
        run.outcome.n_result_tuples,
        run.outcome.overflow_blocks,
        run.outcome.cache_tuples_peak,
        run.outcome.cache_tuples_spilled,
    )


def ledger(run):
    """Charged reads and writes per phase.

    The pipelined sweeps may reorder accesses within a phase (the
    random/sequential split can only improve); the op counts may not move.
    """
    return {
        name: (stats.reads, stats.writes)
        for name, stats in run.layout.tracker.phases.items()
    }


def run_mode(r, s, execution, memory=12, **config_overrides):
    config = PartitionJoinConfig(
        memory_pages=memory, page_spec=SPEC, execution=execution, **config_overrides
    )
    return partition_join(r, s, config)


class TestAllModesBitIdentical:
    @given(relations(SCHEMA_R, "a"), relations(SCHEMA_S, "b"), st.integers(6, 24))
    @prop_settings
    def test_arbitrary_inputs(self, r, s, memory):
        oracle = run_mode(r, s, "tuple", memory)
        for execution in EXECUTION_MODES[1:]:
            run = run_mode(r, s, execution, memory)
            assert fingerprint(run) == fingerprint(oracle), execution
            assert ledger(run) == ledger(oracle), execution

    @given(
        relations(SCHEMA_R, "a", n_keys=0),
        relations(SCHEMA_S, "b", n_keys=0),
    )
    @prop_settings
    def test_single_key_skew(self, r, s):
        """One join key: the tuple cache saturates and overflow blocks
        appear at the smallest legal budget; the counters must agree."""
        baseline = fingerprint(run_mode(r, s, "tuple", memory=6))
        for execution in EXECUTION_MODES[1:]:
            assert fingerprint(run_mode(r, s, execution, memory=6)) == baseline


class TestOverflowPath:
    def test_overflow_actually_exercised_and_identical(self):
        """A deterministic workload known to overflow: 240 tuples of one
        key against 180 of the same key under a 6-page budget."""
        r = ValidTimeRelation(
            SCHEMA_R,
            [
                VTTuple(("hot",), (f"a{i}",), Interval(i % 50, i % 50 + 8))
                for i in range(240)
            ],
        )
        s = ValidTimeRelation(
            SCHEMA_S,
            [
                VTTuple(("hot",), (f"b{i}",), Interval(i % 50, i % 50 + 5))
                for i in range(180)
            ],
        )
        baseline_run = run_mode(r, s, "tuple", memory=6)
        assert baseline_run.outcome.overflow_blocks > 0, "workload must overflow"
        for execution in EXECUTION_MODES[1:]:
            run = run_mode(r, s, execution, memory=6)
            assert fingerprint(run) == fingerprint(baseline_run), execution
            assert ledger(run) == ledger(baseline_run), execution


class TestResumeAfterCrash:
    @given(
        relations(SCHEMA_R, "a").filter(lambda rel: len(rel) >= 8),
        relations(SCHEMA_S, "b").filter(lambda rel: len(rel) >= 8),
        st.integers(0, 9),
    )
    @settings(
        max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_zero_copy_resume_matches_tuple_mode(self, r, s, crash_slot):
        """Crash the zero-copy run at a hypothesis-chosen charged op; the
        resumed run must equal the tuple-mode evaluation exactly."""
        baseline = fingerprint(run_mode(r, s, "tuple", checkpoint_interval=2))

        probe_injector = FaultInjector(seed=0)
        probe_layout = DiskLayout(spec=SPEC, fault_injector=probe_injector)
        config = PartitionJoinConfig(
            memory_pages=12,
            page_spec=SPEC,
            execution="zero-copy-sweep",
            checkpoint_interval=2,
        )
        probe = partition_join(r, s, config, layout=probe_layout, recovery=RecoveryLog())
        assert fingerprint(probe) == baseline
        total_ops = probe_injector.ops_seen

        at_op = 1 + (crash_slot * max(1, total_ops - 1)) // 10
        injector = FaultInjector(seed=0)
        injector.schedule_crash(at_op=at_op)
        layout = DiskLayout(spec=SPEC, fault_injector=injector)
        recovery = RecoveryLog()
        try:
            run = partition_join(r, s, config, layout=layout, recovery=recovery)
        except SimulatedCrashError:
            run = resume_join(r, s, config, layout=layout, recovery=recovery)
        assert fingerprint(run) == baseline


class TestConcurrentService:
    @given(st.integers(0, 3))
    @settings(
        max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_concurrent_zero_copy_equals_batch(self, seed):
        """Concurrent sessions under admission control: the zero-copy
        service must produce the same relation and counters as a batch
        service on the same catalog -- including interner-cache reuse
        across the repeated queries.

        The memory ask (6 pages) sits below every mode's useful budget, so
        admission grants exactly the request in both services: equal grants
        mean equal ``buffSize``, which the bit-identity contract requires."""
        from repro.engine.catalog import VersionedCatalog
        from repro.service import QueryService

        from tests.service.conftest import make_tuples

        def build_catalog():
            catalog = VersionedCatalog()
            catalog.register(
                RelationSchema("r", join_attributes=("k",), payload_attributes=("pr",)),
                make_tuples(60, seed=seed, n_keys=5, lifespan=50),
            )
            catalog.register(
                RelationSchema("s", join_attributes=("k",), payload_attributes=("ps",)),
                make_tuples(45, seed=seed + 10, n_keys=5, lifespan=50),
            )
            return catalog

        outcomes = {}
        for execution in ("batch", "zero-copy-sweep"):
            results = []
            errors = []
            lock = threading.Lock()
            with QueryService(
                build_catalog(),
                pool_pages=24,
                memory_pages=6,
                workers=3,
                execution=execution,
                page_spec=PageSpec(page_bytes=256, tuple_bytes=32),
                result_cache_entries=0,
                admission_timeout=60.0,
            ) as service:

                def run_one():
                    try:
                        with service.open_session() as session:
                            result = session.join("r", "s", result_timeout=120.0)
                            with lock:
                                results.append(result)
                    except Exception as error:  # pragma: no cover
                        with lock:
                            errors.append(error)

                threads = [threading.Thread(target=run_one) for _ in range(3)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            assert not errors
            assert len(results) == 3
            fingerprints = {
                (
                    tuple(result.relation.tuples),
                    result.outcome.n_result_tuples,
                    result.outcome.overflow_blocks,
                    result.outcome.cache_tuples_peak,
                    result.outcome.cache_tuples_spilled,
                )
                for result in results
            }
            assert len(fingerprints) == 1, f"{execution} sessions disagree"
            outcomes[execution] = fingerprints.pop()
        assert outcomes["zero-copy-sweep"] == outcomes["batch"]
