"""Unit tests for the top-level partitionJoin driver (Figure 2)."""

import dataclasses
import gc
import weakref

import pytest

from repro.baselines.reference import reference_join
from repro.core.partition_join import (
    EXECUTION_MODES,
    PartitionJoinConfig,
    partition_join,
)
from repro.model.errors import BufferOverflowError, SchemaError
from repro.model.schema import RelationSchema
from repro.model.relation import ValidTimeRelation
from repro.storage.iostats import CostModel
from repro.storage.page import PageSpec
from tests.conftest import random_relation


@pytest.fixture
def config():
    return PartitionJoinConfig(
        memory_pages=12, page_spec=PageSpec(page_bytes=1024, tuple_bytes=128)
    )


@pytest.fixture
def big_r(schema_r):
    return random_relation(schema_r, 600, seed=3, payload_tag="p")


@pytest.fixture
def big_s(schema_s):
    return random_relation(schema_s, 600, seed=4, payload_tag="q")


class TestResultCorrectness:
    def test_equals_reference(self, big_r, big_s, config):
        run = partition_join(big_r, big_s, config)
        assert run.result.multiset_equal(reference_join(big_r, big_s))

    def test_empty_inner(self, schema_r, schema_s, config, big_r):
        empty = ValidTimeRelation(schema_s)
        run = partition_join(big_r, empty, config)
        assert len(run.result) == 0

    def test_incompatible_schemas(self, config, big_r):
        other = ValidTimeRelation(RelationSchema("x", ("different",)))
        with pytest.raises(SchemaError):
            partition_join(big_r, other, config)

    def test_memory_too_small(self, big_r, big_s):
        with pytest.raises(BufferOverflowError):
            partition_join(big_r, big_s, PartitionJoinConfig(memory_pages=3))


class TestPhases:
    def test_three_phases_recorded(self, big_r, big_s, config):
        run = partition_join(big_r, big_s, config)
        assert set(run.layout.tracker.phases) == {"sample", "partition", "join"}
        for stats in run.layout.tracker.phases.values():
            assert stats.total_ops > 0

    def test_total_cost_is_sum_of_phases(self, big_r, big_s, config):
        run = partition_join(big_r, big_s, config)
        model = config.cost_model
        total = run.total_cost(model)
        assert total == pytest.approx(
            sum(run.layout.tracker.breakdown(model).values())
        )

    def test_result_writes_excluded_from_cost(self, big_r, big_s, config):
        run = partition_join(big_r, big_s, config)
        assert len(run.result) > 0  # workload guarantees matches
        # Result pages were written, on the separate excluded stream.
        assert run.layout.result_stats.writes > 0
        # The reported phases account for ALL charged I/O -- nothing from
        # the result stream leaked in.
        phase_total = sum(s.total_ops for s in run.layout.tracker.phases.values())
        assert phase_total == run.layout.tracker.stats.total_ops


class TestSinglePartitionShortcut:
    def test_small_relation_skips_partitioning(self, big_r, big_s):
        config = PartitionJoinConfig(
            memory_pages=4096, page_spec=PageSpec(page_bytes=1024, tuple_bytes=128)
        )
        run = partition_join(big_r, big_s, config)
        assert run.plan.num_partitions == 1
        assert set(run.layout.tracker.phases) == {"join"}
        # Cost is exactly two linear scans (each one random + sequential).
        model = CostModel.with_ratio(5)
        pages = config.page_spec.pages_for_tuples(len(big_r)) + config.page_spec.pages_for_tuples(len(big_s))
        assert run.total_cost(model) == pytest.approx(2 * model.io_ran + (pages - 2) * model.io_seq)

    def test_shortcut_result_correct(self, big_r, big_s):
        config = PartitionJoinConfig(memory_pages=4096)
        run = partition_join(big_r, big_s, config)
        assert run.result.multiset_equal(reference_join(big_r, big_s))

    def test_shortcut_when_only_inner_fits(self, schema_r, schema_s):
        r = random_relation(schema_r, 900, seed=8)
        s = random_relation(schema_s, 40, seed=9)
        config = PartitionJoinConfig(memory_pages=16)
        run = partition_join(r, s, config)
        assert run.plan.num_partitions == 1
        assert run.result.multiset_equal(reference_join(r, s))


class TestEmptyInputs:
    """Joining an empty relation must not drive the scan estimate negative."""

    def test_both_relations_empty(self, schema_r, schema_s, config):
        run = partition_join(
            ValidTimeRelation(schema_r), ValidTimeRelation(schema_s), config
        )
        assert len(run.result) == 0
        # Zero pages on each side: the clamp leaves exactly the two seeks.
        assert run.plan.chosen.c_join_scan == 2 * config.cost_model.io_ran
        assert run.plan.chosen.c_join_scan >= 0

    def test_empty_outer_against_tiny_inner(self, schema_r, schema_s, config):
        tiny = ValidTimeRelation.from_rows(schema_s, [("k", 1, 0, 5)])
        run = partition_join(ValidTimeRelation(schema_r), tiny, config)
        assert len(run.result) == 0
        # One page total would make n_pages - 2 negative without the clamp.
        assert run.plan.chosen.c_join_scan == 2 * config.cost_model.io_ran

    def test_empty_inner_full_outer(self, config, big_r, schema_s):
        run = partition_join(big_r, ValidTimeRelation(schema_s), config)
        assert len(run.result) == 0
        assert run.plan.chosen.c_join_scan >= 0


class TestDeterminism:
    def test_same_seed_same_plan(self, big_r, big_s, config):
        a = partition_join(big_r, big_s, config)
        b = partition_join(big_r, big_s, config)
        assert a.plan.intervals == b.plan.intervals
        assert a.total_cost(config.cost_model) == b.total_cost(config.cost_model)


class TestDroppedRunIsFreed:
    @pytest.mark.parametrize("execution", EXECUTION_MODES)
    def test_reference_counting_frees_layout_and_result(
        self, big_r, big_s, config, execution
    ):
        """Nothing on the disk points back at it, so a dropped run is freed
        at once -- not whenever the cyclic collector next happens to run,
        which it never does for a join that allocates no object per row."""
        gc.collect()
        gc.disable()
        try:
            run = partition_join(
                big_r, big_s, dataclasses.replace(config, execution=execution)
            )
            held = [
                weakref.ref(obj) for obj in (run.layout, run.layout.disk, run.result)
            ]
            del run
            assert [ref() for ref in held] == [None, None, None]
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            assert not [
                obj for obj in gc.garbage if type(obj).__module__.startswith("repro")
            ]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
