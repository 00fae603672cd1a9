"""Execution-mode equivalence: batch kernels vs the tuple-at-a-time oracle.

The contract of the batch execution layer is *bit-identical observability*:
for every scenario, ``execution="batch"`` must
reproduce the tuple-mode oracle's result relation (same tuples, same
order), JoinOutcome counters, and per-phase I/O statistics exactly -- not
approximately, not merely as multisets.  These tests drive the equivalence
through the paths the unit tests cannot reach: the overflow/"thrashing"
path (``overflow_blocks > 0``), both sweep directions, the tuple-cache
spill and residency trade-off and the single-partition shortcut.
"""

from __future__ import annotations

import dataclasses
import random
import subprocess
import sys

import pytest

from repro.baselines.reference import reference_join
from repro.core import joiner
from repro.core.joiner import join_partitions
from repro.core.partition_join import (
    EXECUTION_MODES,
    PartitionJoinConfig,
    partition_join,
)
from repro.core.partitioner import do_partitioning
from repro.core.planner import determine_part_intervals
from repro.model.relation import ValidTimeRelation
from repro.model.vtuple import VTTuple
from repro.storage.heapfile import HeapFile
from repro.storage.layout import DiskLayout
from repro.storage.page import PageSpec
from repro.time.interval import Interval
from tests.chaos.conftest import long_lived_config, long_lived_pair
from tests.conftest import random_relation

BATCH_MODES = ("batch",)
#: The one kernel backend, named in the case ids.
BACKENDS = ["numpy"]


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


def stats_tuple(stats):
    return (
        stats.random_reads,
        stats.sequential_reads,
        stats.random_writes,
        stats.sequential_writes,
    )


def observe(run):
    """Everything observable about a partition-join run, exactly."""
    outcome = run.outcome
    return {
        "result": tuple(outcome.result.tuples) if outcome.result is not None else None,
        "n_result_tuples": outcome.n_result_tuples,
        "overflow_blocks": outcome.overflow_blocks,
        "cache_tuples_peak": outcome.cache_tuples_peak,
        "cache_tuples_spilled": outcome.cache_tuples_spilled,
        "stats": stats_tuple(run.layout.tracker.stats),
        "phases": {
            name: stats_tuple(stats)
            for name, stats in run.layout.tracker.phases.items()
        },
        "result_stats": stats_tuple(run.layout.result_stats),
        "plan_intervals": tuple(run.plan.intervals),
    }


def run_modes(r, s, make_config, **join_kwargs):
    """Run every batch mode and assert it equals the tuple oracle."""
    oracle = partition_join(r, s, make_config("tuple"), **join_kwargs)
    expected = observe(oracle)
    for mode in BATCH_MODES:
        run = partition_join(r, s, make_config(mode), **join_kwargs)
        assert observe(run) == expected, f"mode {mode} diverged from tuple oracle"
    return oracle


class TestSweepEquivalence:
    @pytest.mark.parametrize("direction", ["backward", "forward"])
    def test_partitioned_sweep_with_overflow(
        self, schema_r, schema_s, backend, direction
    ):
        """The thrashing path: a buffer too small for the partitions."""
        r = random_relation(schema_r, 700, seed=11, n_keys=18)
        s = random_relation(schema_s, 800, seed=12, n_keys=18)

        def make_config(mode):
            return PartitionJoinConfig(
                memory_pages=12,
                sweep_direction=direction,
                execution=mode,
            )

        oracle = run_modes(r, s, make_config)
        assert oracle.outcome.overflow_blocks > 0
        assert oracle.result.multiset_equal(reference_join(r, s))

    @pytest.mark.parametrize("direction", ["backward", "forward"])
    def test_cache_residency_reservation(self, schema_r, schema_s, backend, direction):
        r = random_relation(schema_r, 500, seed=21, long_lived_fraction=0.6)
        s = random_relation(schema_s, 500, seed=22, long_lived_fraction=0.6)

        def make_config(mode):
            return PartitionJoinConfig(
                memory_pages=16,
                sweep_direction=direction,
                cache_buffer_pages=2,
                execution=mode,
            )

        oracle = run_modes(r, s, make_config)
        assert oracle.outcome.cache_tuples_peak > 0
        assert oracle.result.multiset_equal(reference_join(r, s))

    def test_single_partition_shortcut(self, schema_r, schema_s, backend):
        r = random_relation(schema_r, 60, seed=31)
        s = random_relation(schema_s, 500, seed=32)

        def make_config(mode):
            return PartitionJoinConfig(memory_pages=64, execution=mode)

        oracle = run_modes(r, s, make_config)
        assert oracle.plan.num_partitions == 1

    def test_small_pages_exercise_many_batches(self, schema_r, schema_s, backend):
        r = random_relation(schema_r, 300, seed=41)
        s = random_relation(schema_s, 300, seed=42)

        def make_config(mode):
            return PartitionJoinConfig(
                memory_pages=10,
                page_spec=PageSpec(page_bytes=512, tuple_bytes=128),
                execution=mode,
            )

        run_modes(r, s, make_config)


def result_pages(run):
    """The result file's pages as written, read without charging."""
    disk = run.layout._result_disk
    extent = disk.find_extent("join_result")
    return [list(disk.peek(extent, at)) for at in range(extent.n_pages)]


def mixed_probe_pair(schema_r, schema_s):
    """Early chronons hold one row per key (the index keeps the CSR probe),
    late ones four keys with short intervals (the pruned window probe)."""
    rng = random.Random(5)
    r, s = ValidTimeRelation(schema_r), ValidTimeRelation(schema_s)
    for i in range(300):
        r.add(VTTuple((f"u{i}",), (f"p{i}",), Interval(i, i + 3)))
        s.add(VTTuple((f"u{i}",), (f"q{i}",), Interval(i + 1, i + 6)))
    for relation, tag in ((r, "p"), (s, "q")):
        for i in range(300, 800):
            start = 400 + rng.randrange(300)
            relation.add(
                VTTuple(
                    (f"k{i % 4}",), (f"{tag}{i}",), Interval(start, start + rng.randrange(3))
                )
            )
    return r, s


class TestBlockEmission:
    """The batch engine appends each run's matches as one lazy block; the
    tuple engine builds every row itself and is the oracle for both the
    rows (in emission order) and the result pages they land on."""

    @pytest.mark.parametrize("direction", ["backward", "forward"])
    @pytest.mark.parametrize("mode", EXECUTION_MODES[1:])
    def test_blocks_land_on_the_tuple_oracles_pages(
        self, schema_r, schema_s, backend, monkeypatch, mode, direction
    ):
        r, s = mixed_probe_pair(schema_r, schema_s)
        csr_blocks, block_rows = [], []
        build_index, append_block = joiner._BatchEngine.build_index, HeapFile.append_block

        def spy_index(engine, block):
            index = build_index(engine, block)
            csr_blocks.append(getattr(index, "csr", None) is not None)
            return index

        def spy_append(heap, block):
            block_rows.append(len(block))
            append_block(heap, block)

        monkeypatch.setattr(joiner._BatchEngine, "build_index", spy_index)
        monkeypatch.setattr(HeapFile, "append_block", spy_append)

        def make_config(execution):
            return PartitionJoinConfig(
                memory_pages=12, sweep_direction=direction, execution=execution
            )

        oracle = partition_join(r, s, make_config("tuple"))
        assert not block_rows  # the oracle never takes the block path
        run = partition_join(r, s, make_config(mode))

        assert run.plan.num_partitions > 1 and run.outcome.overflow_blocks > 0
        assert {True, False} <= set(csr_blocks)  # both probes ran
        capacity = run.layout.spec.capacity
        assert any(rows % capacity for rows in block_rows[:-1])  # runs end mid page
        assert sum(block_rows) == oracle.outcome.n_result_tuples

        # Counting and shipping columns build no tuple.
        assert len(run.result) == len(oracle.result)
        columns = run.result.to_columns()
        assert not run.result.materialized
        assert result_pages(run) == result_pages(oracle)
        assert stats_tuple(run.layout.result_stats) == stats_tuple(oracle.layout.result_stats)
        assert run.result.tuples == oracle.result.tuples  # order included
        assert run.result.materialized
        assert columns == oracle.result.to_columns() == run.result.to_columns()

    @pytest.mark.parametrize("mode", EXECUTION_MODES)
    def test_swapped_single_partition_keeps_the_callers_payload_order(
        self, schema_r, schema_s, backend, mode
    ):
        """``|r| > buffSize >= |s|`` (63 pages of r, 5 of s, 16 of memory): s
        becomes the resident side, and each result row must still be
        ``(r payload, s payload)``."""
        r = random_relation(schema_r, 500, seed=71, payload_tag="p")
        s = random_relation(schema_s, 40, seed=72, payload_tag="q")
        run = partition_join(r, s, PartitionJoinConfig(memory_pages=16, execution=mode))
        assert run.plan.num_partitions == 1
        assert run.outcome.n_result_tuples > 0
        for tup in run.result:
            assert tup.payload[0].startswith("p") and tup.payload[1].startswith("q")

    @pytest.mark.parametrize("mode", EXECUTION_MODES[1:])
    def test_uncollected_run_writes_the_same_result_pages(
        self, schema_r, schema_s, backend, mode
    ):
        r, s = mixed_probe_pair(schema_r, schema_s)
        collected = partition_join(r, s, PartitionJoinConfig(memory_pages=12, execution="tuple"))
        run = partition_join(
            r, s, PartitionJoinConfig(memory_pages=12, execution=mode, collect_result=False)
        )
        assert run.result is None
        assert run.outcome.n_result_tuples == collected.outcome.n_result_tuples
        assert result_pages(run) == result_pages(collected)
        assert stats_tuple(run.layout.result_stats) == stats_tuple(
            collected.layout.result_stats
        )


class TestLongLivedOverflowAllNames:
    """The paper's long-lived regime on 8-tuple pages: a probe run spans
    dozens of pages, the tuple cache spills thousands of rows and every
    partition overflows, so the batch engine's carried columns (the retained
    outer block, the cache, the re-scanned inner partition) and its run
    charges all do work.  ``batch`` must agree with the tuple oracle on
    rows in emission order, ``JoinOutcome`` counters and the per-phase
    ledger."""

    @staticmethod
    def assert_agree(observed):
        oracle = observed["tuple"]
        assert oracle["overflow_blocks"] >= 1
        assert oracle["cache_tuples_spilled"] > joiner.RUN_ROWS
        assert observed["batch"] == oracle

    @pytest.mark.parametrize("direction", ["backward", "forward"])
    def test_natural_join(self, backend, direction):
        r, s = long_lived_pair()
        runs = {
            mode: partition_join(
                r,
                s,
                long_lived_config(
                    mode, checkpoint_interval=0, sweep_direction=direction
                ),
            )
            for mode in EXECUTION_MODES
        }
        self.assert_agree({mode: observe(run) for mode, run in runs.items()})

    @pytest.mark.parametrize("direction", ["backward", "forward"])
    def test_swapped_inputs(self, backend, direction):
        """The sweep driven phase by phase, told its inputs are swapped: each
        block is emitted flipped, ``(inner row, outer row)``."""
        r, s = long_lived_pair()
        placement = "last" if direction == "backward" else "first"
        observed = {}
        for mode in EXECUTION_MODES:
            config = long_lived_config(mode)
            layout = DiskLayout(spec=config.page_spec)
            r_file, s_file = layout.place_relation(r), layout.place_relation(s)
            with layout.tracker.phase("sample"):
                plan = determine_part_intervals(
                    config.buff_size,
                    r_file,
                    inner_tuples=len(s),
                    cost_model=config.cost_model,
                    rng=random.Random(config.seed),
                )
            partition_map = plan.partition_map()
            with layout.tracker.phase("partition"):
                r_parts, s_parts = (
                    do_partitioning(
                        source,
                        partition_map,
                        layout,
                        name,
                        config.memory_pages,
                        placement=placement,
                        execution=mode,
                    )
                    for source, name in ((r_file, "r"), (s_file, "s"))
                )
            with layout.tracker.phase("join"):
                outcome = join_partitions(
                    r_parts,
                    s_parts,
                    partition_map,
                    config.buff_size,
                    layout,
                    s.schema.join_result_schema(r.schema),
                    direction=direction,
                    execution=mode,
                    swapped_inputs=True,
                )
            tracker = layout.tracker
            observed[mode] = {
                "result": tuple(outcome.result.tuples),
                "n_result_tuples": outcome.n_result_tuples,
                "overflow_blocks": outcome.overflow_blocks,
                "cache_tuples_peak": outcome.cache_tuples_peak,
                "cache_tuples_spilled": outcome.cache_tuples_spilled,
                "stats": stats_tuple(tracker.stats),
                "phases": {
                    name: stats_tuple(stats) for name, stats in tracker.phases.items()
                },
                "result_stats": stats_tuple(layout.result_stats),
            }
        assert observed["tuple"]["result"]
        self.assert_agree(observed)


class TestOneProcessPerJoin:
    def test_no_mode_imports_multiprocessing(self):
        """In a fresh interpreter, a multi-partition join in every partition
        mode leaves ``multiprocessing`` unimported: nothing below the shard
        coordinator can fork."""
        script = """
import sys
from repro.core.partition_join import EXECUTION_MODES, PartitionJoinConfig, partition_join
from repro.model.relation import ValidTimeRelation
from repro.model.schema import RelationSchema

r = ValidTimeRelation.from_rows(
    RelationSchema("r", ("k",), ("a",)), [(i % 5, i, i, i + 9) for i in range(300)]
)
s = ValidTimeRelation.from_rows(
    RelationSchema("s", ("k",), ("b",)), [(i % 5, i, i + 3, i + 7) for i in range(300)]
)
for mode in EXECUTION_MODES:
    run = partition_join(r, s, PartitionJoinConfig(memory_pages=6, execution=mode))
    assert run.plan.num_partitions > 1 and run.outcome.n_result_tuples == 890, mode
    assert "multiprocessing" not in sys.modules, mode
"""
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr


class TestConfigValidation:
    def test_unknown_execution_rejected(self):
        with pytest.raises(ValueError):
            PartitionJoinConfig(memory_pages=8, execution="gpu")

    @pytest.mark.parametrize("workers", [0, -2])
    def test_nonpositive_workers_rejected(self, workers):
        with pytest.raises(ValueError):
            PartitionJoinConfig(memory_pages=8, parallel_workers=workers)

    @pytest.mark.parametrize("depth", [-1, 2.5])
    def test_bad_prefetch_depth_rejected(self, depth):
        with pytest.raises(ValueError):
            PartitionJoinConfig(memory_pages=8, prefetch_depth=depth)

    @pytest.mark.parametrize(
        "knobs", [dict(sweep_workers=1), dict(sweep_workers=3), dict(prefetch_depth=0)]
    )
    def test_inert_knobs_are_unobservable(self, schema_r, schema_s, knobs):
        """``sweep_workers`` and ``prefetch_depth`` survive only for the
        frozen benchmark suite and must be read by nothing."""
        r = random_relation(schema_r, 500, seed=41, n_keys=24)
        s = random_relation(schema_s, 500, seed=42, n_keys=24)
        config = PartitionJoinConfig(memory_pages=12, execution="batch")
        runs = [
            partition_join(r, s, dataclasses.replace(config, **changed))
            for changed in (knobs, {})
        ]
        assert observe(runs[0]) == observe(runs[1])

    @pytest.mark.parametrize("workers", [0, -3])
    def test_nonpositive_sweep_workers_rejected(self, workers):
        with pytest.raises(ValueError):
            PartitionJoinConfig(memory_pages=8, sweep_workers=workers)
