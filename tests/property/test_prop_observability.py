"""Property tests: observability is *observation only*.

The whole contract of ``src/repro/obs``: switching tracing + metrics on
changes nothing the simulation can see.  On arbitrary inputs -- including
the overflow machinery under tight memory and the permanent-fault
degradation ladder -- the result tuples (payloads **and** overlap
intervals, in emission order), the :class:`JoinOutcome` counters, the full
charged-I/O ledger (tag fields included), the per-phase breakdown, and the
chosen plan are bit-identical with observability on or off, in every
execution mode.
"""

import dataclasses

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.partition_join import (
    EXECUTION_MODES,
    PartitionJoinConfig,
    partition_join,
)
from repro.model.relation import ValidTimeRelation
from repro.model.schema import RelationSchema
from repro.model.vtuple import VTTuple
from repro.obs import ObservabilityConfig
from repro.resilience import FaultInjector
from repro.storage.layout import DiskLayout
from repro.storage.page import PageSpec
from repro.time.interval import Interval

SCHEMA_R = RelationSchema("r", ("k",), ("a",), tuple_bytes=128)
SCHEMA_S = RelationSchema("s", ("k",), ("b",), tuple_bytes=128)
SPEC = PageSpec(page_bytes=512, tuple_bytes=128)  # 4 tuples/page: many pages

prop_settings = settings(
    max_examples=15,
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


def observed(config):
    """*config* with the full observability stack switched on."""
    return dataclasses.replace(
        config, observability=ObservabilityConfig(io_events=True)
    )


def fingerprint(run):
    """Everything the simulation can see -- what obs must never change."""
    outcome = run.outcome
    return {
        "tuples": list(run.result.tuples),
        "n_result_tuples": outcome.n_result_tuples,
        "overflow_blocks": outcome.overflow_blocks,
        "cache_tuples_peak": outcome.cache_tuples_peak,
        "cache_tuples_spilled": outcome.cache_tuples_spilled,
        "stats": run.layout.tracker.stats.as_dict(),
        "phases": {
            name: stats.as_dict()
            for name, stats in run.layout.tracker.phases.items()
        },
        "plan_intervals": list(run.plan.intervals),
    }


class TestBitIdenticalWithObservabilityOn:
    @given(
        relations(SCHEMA_R, "a"),
        relations(SCHEMA_S, "b"),
        st.integers(6, 24),
        st.sampled_from(EXECUTION_MODES),
    )
    @prop_settings
    def test_every_mode_is_unchanged(self, r, s, memory, execution):
        plain = partition_join(r, s, config(execution, memory))
        traced = partition_join(r, s, observed(config(execution, memory)))
        assert fingerprint(traced) == fingerprint(plain)
        obs = traced.observability
        assert obs is not None
        assert obs.tracer is None or obs.tracer.open_spans == 0

    @given(
        relations(SCHEMA_R, "a", min_size=25),
        relations(SCHEMA_S, "b", min_size=25),
        st.integers(6, 8),
        st.sampled_from(EXECUTION_MODES),
    )
    @prop_settings
    def test_overflow_and_buffer_reduction_unchanged(self, r, s, memory, execution):
        """Tight memory drives overflow blocks and buffer-reduction
        degradations; instrumenting them must not move a single counter."""
        plain = partition_join(r, s, config(execution, memory))
        traced = partition_join(r, s, observed(config(execution, memory)))
        assert fingerprint(traced) == fingerprint(plain)


def run_with_fault(r, s, execution, *, observe):
    injector = FaultInjector(seed=0)
    injector.fail_read("r_part0", 0, times=50)
    layout = DiskLayout(spec=SPEC, fault_injector=injector, checksums=True)
    cfg = config(execution, 8)
    if observe:
        cfg = observed(cfg)
    run = partition_join(r, s, cfg, layout=layout)
    return run, layout


def pinned_relations():
    """A workload whose scripted page fault reliably forces degradation."""
    import random

    rng = random.Random(11)

    def build(schema, tag):
        return ValidTimeRelation(
            schema,
            [
                VTTuple(
                    (rng.randrange(6),),
                    (f"{tag}{i}",),
                    Interval(s0, s0 + rng.randrange(40)),
                )
                for i in range(120)
                for s0 in (rng.randrange(400),)
            ],
        )

    return build(SCHEMA_R, "a"), build(SCHEMA_S, "b")


class TestDegradationPathUnchanged:
    def test_nested_loop_fallback_is_bit_identical(self):
        """The deepest rung of the degradation ladder, instrumented vs not:
        same verdict, same tuples, same ledger."""
        r, s = pinned_relations()
        plain, plain_layout = run_with_fault(r, s, "batch", observe=False)
        traced, traced_layout = run_with_fault(r, s, "batch", observe=True)
        for layout in (plain_layout, traced_layout):
            assert layout.resilience_report.degraded
            assert [e.kind for e in layout.resilience_report.degradations] == [
                "nested-loop-fallback"
            ]
        assert fingerprint(traced) == fingerprint(plain)
        # The degradation surfaced in the metrics without touching the run.
        snapshot = traced.observability.metrics_snapshot()
        series = snapshot["repro_degradations_total"]["series"]
        assert series.get("kind=nested-loop-fallback", 0) >= 1

    def test_metrics_reconcile_with_charged_ledger(self):
        """Every charged op lands in ``repro_io_ops_total`` exactly once."""
        r, s = pinned_relations()
        traced, _ = run_with_fault(r, s, "tuple", observe=True)
        snapshot = traced.observability.metrics_snapshot()
        metric_ops = sum(
            snapshot["repro_io_ops_total"]["series"].values()
        )
        assert metric_ops == traced.layout.tracker.stats.total_ops


class TestRunChargesObserved:
    def test_metrics_reconcile_when_charges_arrive_as_runs(self, monkeypatch):
        """The batch engine charges an uninterleaved scan in one call; the
        observer hears ``count`` ops, and ``repro_io_ops_total`` still holds
        every charged op exactly once, series by series as under ``tuple``."""
        from repro.obs import Observability

        join_counts = {}  # the sampling scan is one run under every mode
        on_io = Observability.on_io

        def spy(self, device, *, count=1, **kinds):
            if self._phase == "join":
                join_counts[execution].append(count)
            on_io(self, device, count=count, **kinds)

        monkeypatch.setattr(Observability, "on_io", spy)
        r, s = pinned_relations()
        series = {}
        for execution in ("tuple", "batch"):
            join_counts[execution] = []
            run = partition_join(r, s, observed(config(execution, 6)))
            assert run.outcome.overflow_blocks > 0
            series[execution] = run.observability.metrics_snapshot()[
                "repro_io_ops_total"
            ]["series"]
            assert sum(series[execution].values()) == run.layout.tracker.stats.total_ops
        assert series["batch"] == series["tuple"]
        # Same ops, heard in fewer calls: the tuple engine scans page by page.
        assert sum(join_counts["batch"]) == sum(join_counts["tuple"])
        assert len(join_counts["batch"]) < len(join_counts["tuple"])
