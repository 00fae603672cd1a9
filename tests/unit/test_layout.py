"""Unit tests for the canonical disk layout."""

import pytest

from repro.model.relation import ValidTimeRelation
from repro.model.schema import RelationSchema
from repro.model.vtuple import VTTuple
from repro.storage.layout import Device, DiskLayout
from repro.storage.page import PageSpec
from repro.time.interval import Interval


@pytest.fixture
def layout():
    return DiskLayout(spec=PageSpec(page_bytes=1024, tuple_bytes=256))


@pytest.fixture
def relation():
    schema = RelationSchema("r", ("k",), ("val",), tuple_bytes=256)
    return ValidTimeRelation(
        schema,
        [VTTuple((i,), (i,), Interval(i, i)) for i in range(10)],
    )


class TestPlacement:
    def test_place_relation_uncharged(self, layout, relation):
        heap = layout.place_relation(relation)
        assert layout.tracker.stats.total_ops == 0
        assert heap.n_tuples == 10
        assert heap.extent.device == Device.BASE

    def test_temp_and_cache_devices(self, layout):
        assert layout.temp_file("t").extent.device == Device.TEMP
        assert layout.cache_file("c").extent.device == Device.CACHE
        assert layout.file_on(Device.SCRATCH_B, "x").extent.device == Device.SCRATCH_B

    def test_pages_of(self, layout, relation):
        assert layout.pages_of(relation) == 3  # 10 tuples, 4 per page


class TestResultStream:
    def test_result_io_excluded_from_tracker(self, layout, relation):
        result_file = layout.result_file("out")
        for tup in relation:
            layout.write_result(result_file, tup)
        result_file.flush()
        assert layout.tracker.stats.total_ops == 0
        assert layout.result_stats.writes > 0
