"""Property tests: the ``"batch"`` sweep is the tuple sweep, faster.

The batch engine's whole contract is *unobservability*: on arbitrary
inputs -- including the overflow machinery under tight memory and the
permanent-fault degradation ladder -- its result tuples (payloads **and**
overlap intervals, in emission order) and its :class:`JoinOutcome`
counters are bit-identical to plain tuple-at-a-time execution.

Degradation is exercised with *page-keyed* faults (``fail_read`` on a
named extent page), so the property names the same physical page in both
modes.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.partition_join import PartitionJoinConfig, partition_join
from repro.model.relation import ValidTimeRelation
from repro.model.schema import RelationSchema
from repro.model.vtuple import VTTuple
from repro.resilience import FaultInjector
from repro.storage.layout import DiskLayout
from repro.storage.page import PageSpec
from repro.time.interval import Interval

SCHEMA_R = RelationSchema("r", ("k",), ("a",), tuple_bytes=128)
SCHEMA_S = RelationSchema("s", ("k",), ("b",), tuple_bytes=128)
SPEC = PageSpec(page_bytes=512, tuple_bytes=128)  # 4 tuples/page: many pages

prop_settings = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def vt_tuples(tag):
    return st.builds(
        lambda key, start, duration, payload: VTTuple(
            (key,), (f"{tag}{payload}",), Interval(start, start + duration)
        ),
        key=st.integers(0, 5),
        start=st.integers(0, 80),
        duration=st.integers(0, 40),
        payload=st.integers(0, 1000),
    )


def relations(schema, tag, min_size=0):
    return st.lists(vt_tuples(tag), min_size=min_size, max_size=40).map(
        lambda tuples: ValidTimeRelation(schema, tuples)
    )


def config(execution, memory, **overrides):
    settings_ = dict(memory_pages=memory, page_spec=SPEC, execution=execution)
    settings_.update(overrides)
    return PartitionJoinConfig(**settings_)


def observe(run):
    """Everything the batch engine promises to reproduce exactly."""
    outcome = run.outcome
    return {
        "tuples": list(run.result.tuples),  # payloads + overlap intervals, in order
        "n_result_tuples": outcome.n_result_tuples,
        "overflow_blocks": outcome.overflow_blocks,
        "cache_tuples_peak": outcome.cache_tuples_peak,
        "cache_tuples_spilled": outcome.cache_tuples_spilled,
    }


class TestBitIdenticalToTupleExecution:
    @given(
        relations(SCHEMA_R, "a"),
        relations(SCHEMA_S, "b"),
        st.integers(6, 24),
        st.sampled_from(("backward", "forward")),
    )
    @prop_settings
    def test_results_and_counters_match(self, r, s, memory, direction):
        oracle = partition_join(
            r, s, config("tuple", memory, sweep_direction=direction)
        )
        run = partition_join(
            r,
            s,
            config("batch", memory, sweep_direction=direction),
        )
        assert observe(run) == observe(oracle)

    @given(
        relations(SCHEMA_R, "a", min_size=25),
        relations(SCHEMA_S, "b", min_size=25),
        st.integers(6, 8),
    )
    @prop_settings
    def test_overflow_machinery_is_unobservable(self, r, s, memory):
        """Tight memory drives the Section 3.4 overflow path; the batch
        sweep must take it at the same blocks with the same counters."""
        oracle = partition_join(r, s, config("tuple", memory))
        run = partition_join(r, s, config("batch", memory))
        assert observe(run) == observe(oracle)


def run_with_fault(r, s, execution, seed):
    injector = FaultInjector(seed=seed)
    injector.fail_read("r_part0", 0, times=50)
    layout = DiskLayout(spec=SPEC, fault_injector=injector, checksums=True)
    run = partition_join(r, s, config(execution, 8), layout=layout)
    return run, layout


class TestDegradationPath:
    @given(
        relations(SCHEMA_R, "a", min_size=20),
        relations(SCHEMA_S, "b", min_size=20),
        st.integers(0, 1_000_000),
    )
    @prop_settings
    def test_permanent_fault_handled_like_tuple_mode(self, r, s, seed):
        """Whether or not the scripted fault fires (degenerate inputs can
        collapse to one partition that never reads ``r_part0``), both modes
        must land in the same place: same tuples, same result count, and
        the same degradation verdict."""
        oracle, oracle_layout = run_with_fault(r, s, "tuple", seed)
        run, layout = run_with_fault(r, s, "batch", seed)

        assert sorted(run.result.tuples, key=repr) == sorted(
            oracle.result.tuples, key=repr
        )
        assert run.outcome.n_result_tuples == oracle.outcome.n_result_tuples
        report, oracle_report = layout.resilience_report, oracle_layout.resilience_report
        assert report.degraded == oracle_report.degraded
        assert [e.kind for e in report.degradations] == [
            e.kind for e in oracle_report.degradations
        ]

    def test_fault_actually_fires_on_a_multi_partition_workload(self):
        """Pin one workload where the scripted page failure is guaranteed
        to engage the nested-loop fallback in *both* modes (so the property
        above cannot silently pass on the no-fault branch forever)."""
        import random

        rng = random.Random(11)
        r = ValidTimeRelation(
            SCHEMA_R,
            [
                VTTuple((rng.randrange(6),), (f"a{i}",), Interval(s0, s0 + rng.randrange(40)))
                for i in range(120)
                for s0 in (rng.randrange(400),)
            ],
        )
        s = ValidTimeRelation(
            SCHEMA_S,
            [
                VTTuple((rng.randrange(6),), (f"b{i}",), Interval(s0, s0 + rng.randrange(40)))
                for i in range(120)
                for s0 in (rng.randrange(400),)
            ],
        )
        oracle, oracle_layout = run_with_fault(r, s, "tuple", 0)
        run, layout = run_with_fault(r, s, "batch", 0)
        for report in (layout.resilience_report, oracle_layout.resilience_report):
            assert report.degraded
            assert [e.kind for e in report.degradations] == ["nested-loop-fallback"]
        assert sorted(run.result.tuples, key=repr) == sorted(
            oracle.result.tuples, key=repr
        )
        assert run.outcome.n_result_tuples == oracle.outcome.n_result_tuples
