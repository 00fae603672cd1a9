"""Central validation of :class:`PartitionJoinConfig` and the plan invariants.

Every knob fails at construction with a clear message, so a bad
configuration never surfaces as a confusing error deep inside a phase.
"""

import dataclasses

import pytest

from repro.core.partition_join import PartitionJoinConfig
from repro.core.planner import PartitionPlan
from repro.model.errors import BufferOverflowError, PlanError
from repro.resilience.degrade import BufferReduction
from repro.time.interval import Interval


class TestConfigValidation:
    def test_defaults_are_valid(self):
        config = PartitionJoinConfig(memory_pages=16)
        assert config.buff_size == 13
        assert config.checkpoint_interval == 0
        assert config.retry_limit is None
        assert config.degraded_fallback

    def test_memory_floor(self):
        with pytest.raises(BufferOverflowError, match=">= 4 buffer pages"):
            PartitionJoinConfig(memory_pages=3)

    def test_cache_reservation_must_leave_outer_space(self):
        with pytest.raises(PlanError, match="leaves no"):
            PartitionJoinConfig(memory_pages=8, cache_buffer_pages=5)
        with pytest.raises(ValueError, match="non-negative"):
            PartitionJoinConfig(memory_pages=8, cache_buffer_pages=-1)

    def test_buff_size_accounts_for_cache_reservation(self):
        config = PartitionJoinConfig(memory_pages=10, cache_buffer_pages=2)
        assert config.buff_size == 5

    def test_execution_mode_validated(self):
        with pytest.raises(ValueError, match="execution must be"):
            PartitionJoinConfig(memory_pages=8, execution="vectorized")

    def test_parallel_workers_validated(self):
        with pytest.raises(ValueError, match="parallel_workers"):
            PartitionJoinConfig(memory_pages=8, parallel_workers=0)

    def test_checkpoint_interval_validated(self):
        with pytest.raises(ValueError, match="checkpoint_interval"):
            PartitionJoinConfig(memory_pages=8, checkpoint_interval=-1)
        with pytest.raises(ValueError, match="checkpoint_interval"):
            PartitionJoinConfig(memory_pages=8, checkpoint_interval=1.5)
        PartitionJoinConfig(memory_pages=8, checkpoint_interval=0)
        PartitionJoinConfig(memory_pages=8, checkpoint_interval=1)

    def test_retry_limit_validated(self):
        with pytest.raises(ValueError, match="retry_limit"):
            PartitionJoinConfig(memory_pages=8, retry_limit=-2)
        PartitionJoinConfig(memory_pages=8, retry_limit=0)
        PartitionJoinConfig(memory_pages=8, retry_limit=None)

    def test_buffer_reductions_validated(self):
        with pytest.raises(ValueError, match="BufferReduction"):
            PartitionJoinConfig(memory_pages=8, buffer_reductions=((2, 1),))
        PartitionJoinConfig(
            memory_pages=8,
            buffer_reductions=(BufferReduction(at_position=2, buff_size=1),),
        )


class TestBufferReductionValidation:
    def test_fields_validated(self):
        with pytest.raises(ValueError):
            BufferReduction(at_position=-1, buff_size=1)
        with pytest.raises(ValueError):
            BufferReduction(at_position=0, buff_size=0)


class TestPlanValidation:
    def make_plan(self, **overrides):
        settings = dict(
            intervals=[Interval(0, 10), Interval(10, 20)],
            part_size=2,
            buff_size=4,
            chosen=None,
        )
        settings.update(overrides)
        return PartitionPlan(**settings)

    def test_valid_plan(self):
        plan = self.make_plan()
        assert plan.num_partitions == 2

    def test_part_size_floor(self):
        with pytest.raises(PlanError, match="part_size"):
            self.make_plan(part_size=0)

    def test_buffer_must_hold_a_partition(self):
        with pytest.raises(PlanError, match="buff_size"):
            self.make_plan(part_size=5, buff_size=4)
        # Equality is legal: a partition exactly filling the buffer.
        self.make_plan(part_size=4, buff_size=4)

    def test_intervals_required(self):
        with pytest.raises(PlanError, match="interval"):
            self.make_plan(intervals=[])


class TestConfigFrozen:
    """The config is frozen and hashable: it keys the service-layer caches."""

    def test_mutation_raises(self):
        config = PartitionJoinConfig(memory_pages=16)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.memory_pages = 32

    def test_new_field_assignment_raises(self):
        config = PartitionJoinConfig(memory_pages=16)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.surprise = True

    def test_hashable_and_equal_by_value(self):
        a = PartitionJoinConfig(memory_pages=16, execution="batch")
        b = PartitionJoinConfig(memory_pages=16, execution="batch")
        c = PartitionJoinConfig(memory_pages=32, execution="batch")
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert len({a, b, c}) == 2

    def test_usable_as_dict_key(self):
        cache = {PartitionJoinConfig(memory_pages=16): "plan"}
        assert cache[PartitionJoinConfig(memory_pages=16)] == "plan"

    def test_replace_produces_new_frozen_config(self):
        config = PartitionJoinConfig(memory_pages=16)
        smaller = dataclasses.replace(config, memory_pages=8)
        assert smaller.memory_pages == 8 and config.memory_pages == 16
        with pytest.raises(dataclasses.FrozenInstanceError):
            smaller.memory_pages = 4


class TestRemovedModeName:
    """``"batch-parallel"`` is gone with no alias: every entry point rejects
    it like any unknown name, listing the modes that exist."""

    REMOVED = "batch-parallel"

    @staticmethod
    def names_every_survivor(message):
        from repro.core.partition_join import ALL_EXECUTION_MODES, EXECUTION_MODES

        assert len(ALL_EXECUTION_MODES) == 5
        return all(mode in message for mode in EXECUTION_MODES)

    def test_config(self):
        with pytest.raises(ValueError) as rejected:
            PartitionJoinConfig(memory_pages=8, execution=self.REMOVED)
        assert self.names_every_survivor(str(rejected.value))

    def test_partitioner_and_joiner(self):
        from repro.core.intervals import PartitionMap
        from repro.core.joiner import join_partitions
        from repro.core.partitioner import do_partitioning
        from repro.storage.layout import DiskLayout

        layout = DiskLayout()
        pmap = PartitionMap([Interval(0, 9)])
        source = layout.temp_file("src", capacity_tuples=1)
        with pytest.raises(PlanError) as rejected:
            do_partitioning(source, pmap, layout, "r", 4, execution=self.REMOVED)
        assert self.names_every_survivor(str(rejected.value))
        with pytest.raises(ValueError) as rejected:
            join_partitions(
                [source], [source], pmap, 1, layout, collect=False,
                execution=self.REMOVED,
            )
        assert self.names_every_survivor(str(rejected.value))

    def test_both_services(self):
        from repro.model.errors import ServiceError
        from repro.service import QueryService
        from repro.shard import ShardedQueryService

        from tests.service.conftest import make_catalog

        for service in (
            QueryService(make_catalog(), pool_pages=16, workers=1),
            ShardedQueryService(make_catalog(), shards=1, pool_pages=16),
        ):
            with service:
                with pytest.raises(ServiceError) as rejected:
                    service.open_session(execution=self.REMOVED)
            assert self.names_every_survivor(str(rejected.value))

    @pytest.mark.parametrize("command", ["explain", "serve"])
    def test_cli(self, command, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main([command, "--execution", self.REMOVED])
        assert self.names_every_survivor(capsys.readouterr().err)
