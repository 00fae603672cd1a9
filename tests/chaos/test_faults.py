"""Seeded transient-fault storms: retried, charged, and result-preserving.

With checksummed frames and a bounded retry policy, random read/write faults
and torn deliveries must never change the join's output -- only its cost.
Every retry attempt and backoff penalty shows up in the
``retry_reads``/``retry_writes`` counters of :class:`~repro.storage.iostats.
IOStatistics`, reconciling exactly with the resilience report.
"""

import dataclasses
import random

import pytest

from repro.core.partition_join import partition_join
from repro.core.planner import _IncrementalSampler
from repro.exec.batch import PageBatch
from repro.model.relation import ValidTimeRelation
from repro.resilience import FaultInjector
from repro.storage.heapfile import HeapFile
from repro.storage.iostats import CostModel
from repro.storage.layout import Device, DiskLayout

from tests.chaos.conftest import (
    CHAOS_SEED,
    EXECUTION_MODES,
    SPEC,
    chaos_config,
    chaos_relation,
    long_lived_config,
    long_lived_pair,
)

R = chaos_relation("r", 300, CHAOS_SEED + 3)
S = chaos_relation("s", 300, CHAOS_SEED + 4)


def storm_injector(seed):
    return FaultInjector(
        seed=seed,
        read_fault_rate=0.05,
        write_fault_rate=0.05,
        corruption_rate=0.02,
    )


class TestFaultStorm:
    @pytest.mark.parametrize("execution", EXECUTION_MODES)
    def test_storm_preserves_results_and_charges_retries(self, execution):
        # A generous retry limit keeps permanent failure astronomically
        # unlikely at these rates, so the planned evaluation always finishes.
        config = chaos_config(execution, checkpoint_interval=0, retry_limit=6)
        clean_layout = DiskLayout(spec=SPEC)
        clean = partition_join(R, S, config, layout=clean_layout)

        layout = DiskLayout(
            spec=SPEC, fault_injector=storm_injector(CHAOS_SEED), checksums=True
        )
        run = partition_join(R, S, config, layout=layout)

        assert list(run.result.tuples) == list(clean.result.tuples)
        report = layout.resilience_report
        stats = layout.tracker.stats
        assert report.retries > 0
        assert report.transient_read_faults + report.transient_write_faults > 0
        assert report.corruptions_undetected == 0
        assert not report.degraded
        # Exact reconciliation: one tagged op per re-attempt plus the
        # deterministic backoff penalties, all charged on top of the
        # fault-free cost.
        assert stats.retry_ops == report.retries + report.backoff_ops
        assert stats.total_ops > clean_layout.tracker.stats.total_ops
        assert (
            stats.total_ops - stats.retry_ops
            == clean_layout.tracker.stats.total_ops
        )

    @pytest.mark.parametrize("offset", [0, 1, 2])
    def test_storm_is_reproducible_per_seed(self, offset):
        config = chaos_config("tuple", checkpoint_interval=0, retry_limit=6)
        reports = []
        for _ in range(2):
            layout = DiskLayout(
                spec=SPEC,
                fault_injector=storm_injector(CHAOS_SEED + offset),
                checksums=True,
            )
            partition_join(R, S, config, layout=layout)
            reports.append(layout.resilience_report)
        first, second = reports
        assert first.retries == second.retries
        assert first.backoff_ops == second.backoff_ops
        assert first.transient_read_faults == second.transient_read_faults
        assert first.transient_write_faults == second.transient_write_faults
        assert first.corruptions_detected == second.corruptions_detected

    def test_corruption_is_silent_without_checksums(self):
        config = chaos_config("tuple", checkpoint_interval=0)
        injector = FaultInjector(seed=CHAOS_SEED, corruption_rate=0.05)
        layout = DiskLayout(spec=SPEC, fault_injector=injector)
        try:
            partition_join(R, S, config, layout=layout)
        except Exception:
            # Torn pages delivered as good data may violate arbitrary
            # invariants downstream; without checksums that is exactly the
            # failure mode on offer.
            pass
        report = layout.resilience_report
        # The injector knows pages were torn; nothing detected or retried.
        assert report.corruptions_undetected > 0
        assert report.corruptions_detected == 0
        assert report.retries == 0

    def test_checksums_catch_the_same_stream(self):
        config = chaos_config("tuple", checkpoint_interval=0, retry_limit=6)
        injector = FaultInjector(seed=CHAOS_SEED, corruption_rate=0.05)
        layout = DiskLayout(spec=SPEC, fault_injector=injector, checksums=True)
        run = partition_join(R, S, config, layout=layout)
        report = layout.resilience_report
        assert report.corruptions_detected > 0
        assert report.corruptions_undetected == 0
        clean = partition_join(
            R, S, config, layout=DiskLayout(spec=SPEC)
        )
        assert list(run.result.tuples) == list(clean.result.tuples)


class TestTornPagesUnderCarriedColumns:
    """Without checksums a torn page is delivered as good data: the row it
    lost is lost to every engine.  The batch engine carries the columns of
    rows split before -- once per relation version, handed down on the heap
    files -- and must notice that such a delivery is not those rows, and
    decompose it, or it would probe the survivors with their neighbours'
    intervals."""

    @pytest.mark.parametrize("direction", ["backward", "forward"])
    @pytest.mark.parametrize(
        "devices",
        [
            # The two devices the sweep re-reads: inner partitions (TEMP) and
            # the tuple cache, in migrating and overflow passes.
            (Device.TEMP, Device.CACHE),
            # And the base files: a torn base page hits the sampler's scan
            # and the partitioner with the relation's columns in hand.
            (Device.BASE, Device.TEMP, Device.CACHE),
        ],
        ids=["temp+cache", "base+temp+cache"],
    )
    def test_batch_equals_tuple_under_the_same_tears(self, direction, devices, monkeypatch):
        fallbacks = []
        matching = PageBatch.matching

        def spy(batch, start, rows):
            found = matching(batch, start, rows)
            fallbacks.append(found is None)
            return found

        monkeypatch.setattr(PageBatch, "matching", spy)

        def torn_run(execution, corruption_rate):
            injector = FaultInjector(
                seed=CHAOS_SEED, corruption_rate=corruption_rate, devices=devices
            )
            config = long_lived_config(
                execution, checkpoint_interval=0, sweep_direction=direction
            )
            layout = DiskLayout(spec=config.page_spec, fault_injector=injector)
            return partition_join(*long_lived_pair(), config, layout=layout)

        clean = torn_run("batch", 0.0)
        assert fallbacks and not any(fallbacks)  # columns carried, all verified
        del fallbacks[:]
        oracle = torn_run("tuple", 0.01)
        assert len(fallbacks) <= 1  # the planner's scan, which every mode shares
        del fallbacks[:]
        run = torn_run("batch", 0.01)
        assert any(fallbacks) and not all(fallbacks)

        report = run.layout.resilience_report
        assert report == oracle.layout.resilience_report
        assert report.corruptions_undetected > 5 and report.retries == 0
        assert run.result.tuples == oracle.result.tuples  # order included
        assert run.result.tuples != clean.result.tuples  # the tears were felt
        assert dataclasses.replace(run.outcome, result=None) == dataclasses.replace(
            oracle.outcome, result=None
        )
        assert run.layout.tracker.phases == oracle.layout.tracker.phases
        assert run.layout.disk.device_stats == oracle.layout.disk.device_stats

    @pytest.mark.parametrize("rows_on_last_page", [1, 5])
    def test_a_torn_last_base_page_loses_its_row_to_the_batch_engine_too(
        self, rows_on_last_page
    ):
        """No later page shows the shift, so no comparison fails: the
        partitioner has to count what the scan bore out, or it would flush
        the lost row from the columns it carries."""
        r, s = long_lived_pair()
        capacity = long_lived_config("batch").page_spec.capacity
        kept = len(r) - (len(r) - rows_on_last_page) % capacity
        r = ValidTimeRelation.over(r.schema, list(r)[:kept])

        def torn_run(execution):
            injector = FaultInjector(seed=CHAOS_SEED)
            # Read twice: by the sampler's scan, then by the partitioner's.
            injector.corrupt_read(r.schema.name, (len(r) - 1) // capacity, times=2)
            config = long_lived_config(execution, checkpoint_interval=0)
            layout = DiskLayout(spec=config.page_spec, fault_injector=injector)
            return partition_join(r, s, config, layout=layout)

        oracle, run = torn_run("tuple"), torn_run("batch")
        assert oracle.layout.resilience_report.corruptions_undetected == 2
        assert run.result.tuples == oracle.result.tuples
        assert run.layout.tracker.phases == oracle.layout.tracker.phases
        assert run.layout.disk.device_stats == oracle.layout.disk.device_stats


class TestSamplerOverAShortenedBasePage:
    """A base page damaged in storage, on a disk without checksums, is
    delivered short at every read: the row it lost never arrives.  The
    planner's random draws pass over its position, as the scan does, and
    sample among the rows that came -- they must not re-read it for ever."""

    def test_random_draws_read_each_position_once(self, monkeypatch):
        relation = chaos_relation("r", 400, CHAOS_SEED + 6)
        layout = DiskLayout(spec=SPEC)
        heap = layout.place_relation(relation)
        rows = heap.all_tuples()
        layout.disk.corrupt_stored(heap.extent, 3)
        lost = 4 * SPEC.capacity - 1  # a torn page loses its last row

        reads = []
        read_tuple = HeapFile.read_tuple

        def deadline(file, position):
            # A read budget in place of a clock: past one read a position,
            # the sampler is re-reading a row that will never arrive.
            reads.append(position)
            if len(reads) > len(rows):
                pytest.fail(f"the sampler re-read position {position}")
            return read_tuple(file, position)

        monkeypatch.setattr(HeapFile, "read_tuple", deadline)
        sampler = _IncrementalSampler(
            heap, CostModel(), random.Random(CHAOS_SEED), allow_scan=False
        )
        prefix = sampler.prefix(len(rows))
        assert sorted(reads) == list(range(len(rows)))
        came = [tup for at, tup in enumerate(rows) if at != lost]
        assert list(prefix.starts) == sorted(tup.vs for tup in came)
        assert list(prefix.ends) == sorted(tup.ve for tup in came)
        assert sampler.prefix(len(rows)) is prefix  # nothing left to draw
        assert len(reads) == len(rows)
