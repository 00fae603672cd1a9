"""Unit tests for heap files over the simulated disk."""

import pytest

from repro.model.vtuple import VTTuple
from repro.storage.disk import SimulatedDisk
from repro.storage.heapfile import HeapFile
from repro.storage.iostats import IOStatistics
from repro.storage.page import PageSpec
from repro.time.interval import Interval


def tuples(n):
    return [VTTuple((f"k{i}",), (i,), Interval(i, i + 1)) for i in range(n)]


@pytest.fixture
def disk():
    return SimulatedDisk(IOStatistics())


@pytest.fixture
def spec():
    return PageSpec(page_bytes=1024, tuple_bytes=256)  # 4 tuples per page


class TestBulkLoad:
    def test_load_does_not_charge(self, disk, spec):
        heap = HeapFile.bulk_load(disk, "r", spec, tuples(10))
        assert disk.stats.total_ops == 0
        assert heap.n_tuples == 10
        assert heap.n_pages == 3  # 4+4+2

    def test_contents_preserved_in_order(self, disk, spec):
        data = tuples(9)
        heap = HeapFile.bulk_load(disk, "r", spec, data)
        assert heap.all_tuples() == data

    def test_empty_load(self, disk, spec):
        heap = HeapFile.bulk_load(disk, "r", spec, [])
        assert heap.n_pages == 0
        assert heap.all_tuples() == []


class TestAppend:
    def test_append_flushes_full_pages(self, disk, spec):
        heap = HeapFile.create(disk, "w", spec, capacity_tuples=20)
        for tup in tuples(4):
            heap.append(tup)
        assert heap.n_pages == 1  # exactly one full page auto-flushed
        assert disk.stats.writes == 1

    def test_partial_page_needs_flush(self, disk, spec):
        heap = HeapFile.create(disk, "w", spec, capacity_tuples=20)
        for tup in tuples(3):
            heap.append(tup)
        assert heap.n_pages == 0
        heap.flush()
        assert heap.n_pages == 1
        assert heap.n_tuples == 3

    def test_flush_empty_is_noop(self, disk, spec):
        heap = HeapFile.create(disk, "w", spec)
        heap.flush()
        assert disk.stats.total_ops == 0

    def test_append_many(self, disk, spec):
        heap = HeapFile.create(disk, "w", spec, capacity_tuples=20)
        heap.append_many(tuples(10))
        heap.flush()
        assert heap.n_tuples == 10
        assert heap.all_tuples() == tuples(10)


    @pytest.mark.parametrize("chunks", [(10,), (3, 1, 6), (1, 4, 4, 1), (0, 9, 0, 1)])
    def test_append_many_fills_pages_like_one_append_per_tuple(self, spec, chunks):
        """Same page sequence, same charges, same sortedness verdict --
        sorted data, then one out-of-order tuple, then an opaque row."""
        data = tuples(sum(chunks))
        for tail in ([], [data[0]], ["opaque"]):
            one_by_one, by_slices = (
                HeapFile.create(SimulatedDisk(IOStatistics()), "w", spec, capacity_tuples=4)
                for _ in range(2)
            )
            for tup in data + tail:
                one_by_one.append(tup)
            at = 0
            for size in chunks:
                by_slices.append_many(iter(data[at : at + size]))
                at += size
            by_slices.append_many(tail)
            for heap in (one_by_one, by_slices):
                assert heap.n_tuples == len(data) + len(tail)
            assert by_slices.endpoint_sorted == one_by_one.endpoint_sorted == (not tail)
            assert by_slices.disk.stats.as_dict() == one_by_one.disk.stats.as_dict()
            pages = lambda heap: [
                heap.disk.peek(heap.extent, i) for i in range(heap.n_pages)
            ]
            assert pages(by_slices) == pages(one_by_one)
            assert by_slices.all_tuples() == one_by_one.all_tuples()


class TestScan:
    def test_scan_charges_linear_run(self, disk, spec):
        heap = HeapFile.bulk_load(disk, "r", spec, tuples(12))
        assert list(heap.scan()) == tuples(12)
        assert disk.stats.random_reads == 1
        assert disk.stats.sequential_reads == heap.n_pages - 1

    def test_scan_pages_yields_copies(self, disk, spec):
        heap = HeapFile.bulk_load(disk, "r", spec, tuples(4))
        page = next(heap.scan_pages())
        page.clear()
        assert heap.all_tuples() == tuples(4)


class TestPositionalAccess:
    def test_page_of_tuple(self, disk, spec):
        heap = HeapFile.bulk_load(disk, "r", spec, tuples(10))
        assert heap.page_of_tuple(0) == 0
        assert heap.page_of_tuple(3) == 0
        assert heap.page_of_tuple(4) == 1

    def test_read_tuple_charges_one_page(self, disk, spec):
        heap = HeapFile.bulk_load(disk, "r", spec, tuples(10))
        assert heap.read_tuple(5) == tuples(10)[5]
        assert disk.stats.total_ops == 1

    def test_read_tuple_past_page_contents(self, disk, spec):
        heap = HeapFile.bulk_load(disk, "r", spec, tuples(9))
        # Position 10 maps to page 2 offset 2, but page 2 has one tuple.
        assert heap.read_tuple(10) is None
