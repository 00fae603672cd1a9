"""Unit tests for joinPartitions (Appendix A.1): sweep, cache, emission."""

import pytest

from repro.baselines.reference import reference_join
from repro.core.intervals import PartitionMap
from repro.core.joiner import join_partitions
from repro.core.partition_join import EXECUTION_MODES
from repro.core.partitioner import do_partitioning
from repro.model.errors import SchemaError
from repro.model.relation import ValidTimeRelation
from repro.model.schema import RelationSchema
from repro.model.vtuple import VTTuple
from repro.storage.layout import DiskLayout
from repro.storage.page import PageSpec
from repro.time.interval import Interval

SCHEMA_R = RelationSchema("r", ("k",), ("rv",), tuple_bytes=256)
SCHEMA_S = RelationSchema("s", ("k",), ("sv",), tuple_bytes=256)


def build(rows_r, rows_s, pmap, buff_size=16, memory_pages=8):
    layout = DiskLayout(spec=PageSpec(page_bytes=1024, tuple_bytes=256))
    r = ValidTimeRelation(
        SCHEMA_R, [VTTuple((k,), (f"r{i}",), v) for i, (k, v) in enumerate(rows_r)]
    )
    s = ValidTimeRelation(
        SCHEMA_S, [VTTuple((k,), (f"s{i}",), v) for i, (k, v) in enumerate(rows_s)]
    )
    r_file = layout.place_relation(r)
    s_file = layout.place_relation(s)
    r_parts = do_partitioning(r_file, pmap, layout, "r", memory_pages)
    s_parts = do_partitioning(s_file, pmap, layout, "s", memory_pages)
    outcome = join_partitions(
        r_parts,
        s_parts,
        pmap,
        buff_size,
        layout,
        SCHEMA_R.join_result_schema(SCHEMA_S),
    )
    return outcome, reference_join(r, s), layout


@pytest.fixture
def pmap():
    return PartitionMap([Interval(0, 9), Interval(10, 19), Interval(20, 29)])


class TestCorrectness:
    def test_simple_match_within_one_partition(self, pmap):
        outcome, ref, _ = build(
            [("a", Interval(2, 5))], [("a", Interval(3, 8))], pmap
        )
        assert outcome.result.multiset_equal(ref)
        assert len(ref) == 1

    def test_exactly_once_across_partitions(self, pmap):
        """A pair co-resident in several partitions is emitted once."""
        outcome, ref, _ = build(
            [("a", Interval(0, 29))], [("a", Interval(0, 29))], pmap
        )
        assert len(ref) == 1
        assert outcome.n_result_tuples == 1

    def test_long_lived_inner_migrates_through_cache(self, pmap):
        # Inner tuple stored in partition 2 must meet an outer stored in 0.
        outcome, ref, _ = build(
            [("a", Interval(2, 4))], [("a", Interval(0, 25))], pmap
        )
        assert len(ref) == 1
        assert outcome.result.multiset_equal(ref)

    def test_long_lived_outer_retained_in_buffer(self, pmap):
        outcome, ref, _ = build(
            [("a", Interval(0, 25))], [("a", Interval(2, 4))], pmap
        )
        assert len(ref) == 1
        assert outcome.result.multiset_equal(ref)

    def test_key_mismatch_never_joins(self, pmap):
        outcome, ref, _ = build(
            [("a", Interval(0, 29))], [("b", Interval(0, 29))], pmap
        )
        assert outcome.n_result_tuples == 0
        assert len(ref) == 0

    def test_mixed_workload_equals_reference(self, pmap):
        rows_r = [("a", Interval(i, min(29, i + 7))) for i in range(0, 28, 3)]
        rows_s = [("a", Interval(i, min(29, i + 2))) for i in range(0, 29, 2)]
        rows_s += [("b", Interval(0, 29))]
        outcome, ref, _ = build(rows_r, rows_s, pmap)
        assert outcome.result.multiset_equal(ref)


class TestBufferOverflow:
    def test_overflow_preserves_correctness(self, pmap):
        """With buffSize of 1 page, big partitions split into blocks."""
        rows_r = [("a", Interval(i % 30, i % 30)) for i in range(60)]
        rows_s = [("a", Interval(i % 30, i % 30)) for i in range(60)]
        outcome, ref, _ = build(rows_r, rows_s, pmap, buff_size=1)
        assert outcome.result.multiset_equal(ref)
        assert outcome.overflow_blocks > 0


class TestValidation:
    def test_misaligned_partitions_rejected(self, pmap):
        layout = DiskLayout(spec=PageSpec(page_bytes=1024, tuple_bytes=256))
        with pytest.raises(ValueError, match="align"):
            join_partitions([], [], pmap, 4, layout, None, collect=False)

    def test_collect_requires_schema(self, pmap):
        layout = DiskLayout(spec=PageSpec(page_bytes=1024, tuple_bytes=256))
        files = [layout.temp_file(f"p{i}") for i in range(3)]
        with pytest.raises(ValueError, match="result_schema"):
            join_partitions(files, files, pmap, 4, layout, None, collect=True)


    @pytest.mark.parametrize("execution", EXECUTION_MODES)
    def test_result_schema_of_the_wrong_arity_fails_the_call(self, pmap, execution):
        """Lazily built rows are still checked against the schema they are
        collected under, from the call that emits them."""
        layout = DiskLayout(spec=PageSpec(page_bytes=1024, tuple_bytes=256))
        files = [
            [
                layout.place_relation(
                    ValidTimeRelation(schema, [VTTuple(("a",), (tag,), Interval(2, 5))])
                )
            ]
            + [layout.temp_file(f"{tag}{i}") for i in (1, 2)]
            for schema, tag in ((SCHEMA_R, "rv"), (SCHEMA_S, "sv"))
        ]
        wrong = RelationSchema("r_join_s", ("k",), ("rv", "sv", "extra"))
        with pytest.raises(SchemaError, match="payload arity 2"):
            join_partitions(*files, pmap, 4, layout, wrong, execution=execution)


class TestCacheCost:
    def test_cache_io_charged_for_long_lived_inner(self, pmap):
        _, _, layout = build(
            [("a", Interval(2, 4)), ("b", Interval(12, 14))],
            [("a", Interval(0, 25)), ("b", Interval(0, 25))],
            pmap,
        )
        # The long-lived inner tuples must have been written to the cache.
        cache_writes = layout.tracker.stats.writes
        assert cache_writes > 0
