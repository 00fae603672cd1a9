"""Unit tests for doPartitioning (Grace partitioning, Section 3.2)."""

import pytest

from repro.core.intervals import PartitionMap
from repro.core.partitioner import do_partitioning
from repro.model.errors import PlanError
from repro.model.relation import ValidTimeRelation
from repro.model.schema import RelationSchema
from repro.model.vtuple import VTTuple
from repro.storage.layout import DiskLayout
from repro.storage.page import PageSpec
from repro.time.interval import Interval


@pytest.fixture
def layout():
    return DiskLayout(spec=PageSpec(page_bytes=1024, tuple_bytes=256))


@pytest.fixture
def pmap():
    return PartitionMap([Interval(0, 9), Interval(10, 19), Interval(20, 29)])


def place(layout, intervals):
    schema = RelationSchema("r", ("k",), (), tuple_bytes=256)
    relation = ValidTimeRelation(
        schema, [VTTuple((i,), (), valid) for i, valid in enumerate(intervals)]
    )
    return layout.place_relation(relation)


class TestPlacement:
    def test_tuples_go_to_last_overlapping_partition(self, layout, pmap):
        source = place(
            layout,
            [
                Interval(2, 3),  # partition 0
                Interval(5, 15),  # overlaps 0 and 1 -> stored in 1
                Interval(0, 29),  # overlaps all -> stored in 2
                Interval(25, 25),  # partition 2
            ],
        )
        parts = do_partitioning(source, pmap, layout, "r", memory_pages=8)
        sizes = [part.n_tuples for part in parts]
        assert sizes == [1, 1, 2]

    def test_every_tuple_stored_exactly_once(self, layout, pmap):
        intervals = [Interval(i % 28, min(29, i % 28 + i % 7)) for i in range(50)]
        source = place(layout, intervals)
        parts = do_partitioning(source, pmap, layout, "r", memory_pages=8)
        total = sum(part.n_tuples for part in parts)
        assert total == 50

    def test_out_of_range_tuples_clamped(self, layout, pmap):
        source = place(layout, [Interval(100, 200), Interval(-50, -40)])
        parts = do_partitioning(source, pmap, layout, "r", memory_pages=8)
        assert parts[2].n_tuples == 1  # clamped high
        assert parts[0].n_tuples == 1  # clamped low


class TestCosts:
    def test_partitioning_reads_input_once_writes_partitions_once(self, layout, pmap):
        source = place(layout, [Interval(i % 30, i % 30) for i in range(40)])
        before = layout.tracker.stats.copy()
        parts = do_partitioning(source, pmap, layout, "r", memory_pages=8)
        delta = layout.tracker.stats.diff(before)
        assert delta.reads == source.n_pages
        assert delta.writes == sum(part.n_pages for part in parts)

    def test_larger_memory_fewer_random_writes(self, layout, pmap):
        intervals = [Interval(i % 30, i % 30) for i in range(200)]
        source_small = place(layout, intervals)
        before = layout.tracker.stats.copy()
        do_partitioning(source_small, pmap, layout, "small", memory_pages=4)
        small_delta = layout.tracker.stats.diff(before)

        layout2 = DiskLayout(spec=layout.spec)
        source_big = place(layout2, intervals)
        do_partitioning(source_big, pmap, layout2, "big", memory_pages=64)
        big_delta = layout2.tracker.stats
        assert big_delta.random_writes <= small_delta.random_writes

    def test_memory_minimum(self, layout, pmap):
        source = place(layout, [Interval(0, 1)])
        with pytest.raises(PlanError):
            do_partitioning(source, pmap, layout, "r", memory_pages=1)


class TestCarriedSource:
    @pytest.mark.parametrize("placement", ["last", "first"])
    def test_batch_routes_carried_columns_as_it_routes_rows(self, pmap, placement):
        """A source that carries its columns partitions to the same pages at
        the same charge as one routed row by row."""
        intervals = [Interval(i % 28, min(29, i % 28 + i % 7)) for i in range(200)]
        runs = {}
        for carried in (False, True):
            layout = DiskLayout(spec=PageSpec(page_bytes=1024, tuple_bytes=256))
            source = place(layout, intervals)
            if not carried:
                source.carried = None
            with layout.tracker.phase("partition"):
                parts = do_partitioning(
                    source, pmap, layout, "r", memory_pages=6,
                    placement=placement, execution="batch",
                )
            ledger = {
                name: stats.as_dict() for name, stats in layout.tracker.phases.items()
            }
            peek = layout.disk.peek
            pages = [
                [list(peek(part.extent, index)) for index in range(part.n_pages)]
                for part in parts
            ]
            runs[carried] = (pages, ledger)
        assert runs[True] == runs[False]
