"""Unit tests for heap files over the simulated disk."""

import numpy as np
import pytest

from repro.exec.batch import PageBatch, RowRefs
from repro.model.match_block import MatchBlock
from repro.model.vtuple import VTTuple
from repro.storage.disk import SimulatedDisk
from repro.storage.heapfile import HeapFile, LazyPage
from repro.storage.iostats import IOStatistics
from repro.storage.page import PageSpec
from repro.time.interval import Interval


def tuples(n):
    return [VTTuple((f"k{i}",), (i,), Interval(i, i + 1)) for i in range(n)]


def match_block(rows, as_arrays=False):
    """A lazy block whose rows equal *rows*: each matched with a
    payload-less partner over its own interval."""
    partners = [VTTuple(tup.key, (), tup.valid) for tup in rows]
    starts, ends = [tup.vs for tup in rows], [tup.ve for tup in rows]
    if as_arrays:
        starts, ends = np.array(starts, np.int64), np.array(ends, np.int64)
    return MatchBlock(list(rows), partners, starts, ends)


def stored_pages(heap):
    return [heap.disk.peek(heap.extent, i) for i in range(heap.n_pages)]


def record_charges(heap):
    """Record what *heap*'s disk charges from here on: ``(calls, accesses)``,
    a call as its page count and an access, page by page, as ``(page,
    write)``."""
    calls, accesses = [], []
    charge = heap.disk._charge

    def recording_charge(extent, index, *, write, retry=False, count=1):
        calls.append(count)
        accesses.extend((page, write) for page in range(index, index + count))
        charge(extent, index, write=write, retry=retry, count=count)

    heap.disk._charge = recording_charge
    return calls, accesses


def calls_that_fill_a_page(sizes, capacity):
    """How many of a run of appends of *sizes* rows complete a page."""
    filled = buffered = 0
    for size in sizes:
        filled += buffered + size >= capacity
        buffered = (buffered + size) % capacity
    return filled


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
        """Same page sequence, same charged accesses page by page, same
        sortedness verdict -- sorted data, then one out-of-order tuple, then
        an opaque row -- with the pages one call fills written as one run."""
        data = tuples(sum(chunks))
        for tail in ([], [data[0]], ["opaque"]):
            one_by_one, by_slices = (
                HeapFile.create(SimulatedDisk(IOStatistics()), "w", spec, capacity_tuples=4)
                for _ in range(2)
            )
            _, expected = record_charges(one_by_one)
            calls, accesses = record_charges(by_slices)
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
            assert accesses == expected
            assert len(calls) == calls_that_fill_a_page((*chunks, len(tail)), spec.capacity)
            assert by_slices.disk.stats.as_dict() == one_by_one.disk.stats.as_dict()
            assert stored_pages(by_slices) == stored_pages(one_by_one)
            assert by_slices.all_tuples() == one_by_one.all_tuples()

    @pytest.mark.parametrize("billed", [False, True])
    def test_references_write_what_their_rows_write(self, spec, billed):
        """Rows handed over as references (a ``RowRefs``) leave the pages,
        page types and charges their list leaves -- their part-full page
        too, which a later single ``append`` and ``flush`` complete."""
        data = tuples(14)
        refs = RowRefs.of(data)
        heaps = []
        for rows in (data, refs):
            heap = HeapFile.create(SimulatedDisk(IOStatistics()), "w", spec, capacity_tuples=4)
            write = heap.install if billed else heap.append_many
            write(rows[:2])
            write(rows.take([7, 3, 5, 9, 11]) if rows is refs else [data[k] for k in (7, 3, 5, 9, 11)])
            heap.append(data[0])
            write(rows[10:13])
            heap.flush()
            heaps.append(heap)
        lists, references = heaps
        assert [type(page) for page in stored_pages(references)] == [list] * 3
        assert stored_pages(references) == stored_pages(lists)
        assert references.all_tuples() == lists.all_tuples()
        assert references.disk.stats.as_dict() == lists.disk.stats.as_dict()


class TestAppendBlock:
    """Lazy blocks and plain tuples fill one write buffer."""

    @pytest.mark.parametrize("as_arrays", [False, True])
    @pytest.mark.parametrize(
        "chunks", [(10,), (3, 1, 6), (1, 4, 4, 1), (0, 9, 0, 1), (2, 5, 3), (4, 4), (1, 1, 9)]
    )
    def test_blocks_fill_pages_like_one_append_per_row(self, spec, chunks, as_arrays):
        """Blocks alternating with single appends: the same pages, charges,
        count and sortedness verdict as one append per row -- with the last
        page still buffered, after the flush, and when the tail breaks the
        order inside a block or across a block boundary."""
        data = tuples(sum(chunks))
        for tail in ([], [data[0]], [data[-1], data[0]]):
            one_by_one, by_blocks = (
                HeapFile.create(SimulatedDisk(IOStatistics()), "w", spec, capacity_tuples=4)
                for _ in range(2)
            )
            for tup in data + tail:
                one_by_one.append(tup)
            at = 0
            for number, size in enumerate(chunks):
                chunk = data[at : at + size]
                at += size
                if number % 2:
                    for tup in chunk:
                        by_blocks.append(tup)
                else:
                    by_blocks.append_block(match_block(chunk, as_arrays))
            by_blocks.append_block(match_block(tail, as_arrays))
            for _ in ("last page buffered", "flushed"):
                assert by_blocks.n_tuples == one_by_one.n_tuples == len(data) + len(tail)
                assert by_blocks.endpoint_sorted == one_by_one.endpoint_sorted == (not tail)
                assert by_blocks.disk.stats.as_dict() == one_by_one.disk.stats.as_dict()
                assert stored_pages(by_blocks) == stored_pages(one_by_one)
                assert by_blocks.all_tuples() == one_by_one.all_tuples() == data + tail
                by_blocks.flush()
                one_by_one.flush()

    @pytest.mark.parametrize("as_arrays", [False, True])
    @pytest.mark.parametrize("chunks", [(10,), (3, 1, 6), (1, 4, 4, 1), (0, 9, 0, 1)])
    def test_append_block_fills_pages_like_one_append_per_tuple(self, spec, chunks, as_arrays):
        """``append_many``'s twin: block after block, the same pages and
        charged accesses page by page as one append per row, with the pages
        one call fills written as one run."""
        data = tuples(sum(chunks))
        for tail in ([], [data[0]]):
            one_by_one, by_blocks = (
                HeapFile.create(SimulatedDisk(IOStatistics()), "w", spec, capacity_tuples=4)
                for _ in range(2)
            )
            _, expected = record_charges(one_by_one)
            calls, accesses = record_charges(by_blocks)
            for tup in data + tail:
                one_by_one.append(tup)
            at = 0
            for size in chunks:
                by_blocks.append_block(match_block(data[at : at + size], as_arrays))
                at += size
            by_blocks.append_block(match_block(tail, as_arrays))
            assert by_blocks.n_tuples == one_by_one.n_tuples == len(data) + len(tail)
            assert by_blocks.endpoint_sorted == one_by_one.endpoint_sorted == (not tail)
            assert accesses == expected
            assert len(calls) == calls_that_fill_a_page((*chunks, len(tail)), spec.capacity)
            assert stored_pages(by_blocks) == stored_pages(one_by_one)
            assert by_blocks.all_tuples() == one_by_one.all_tuples() == data + tail

    def test_page_slices_share_the_blocks_rows(self, disk, spec):
        """A block cut across pages is built once, and only when read."""
        heap = HeapFile.create(disk, "w", spec, capacity_tuples=12)
        block = match_block(tuples(10))
        heap.append_block(block)
        heap.flush()
        assert heap.n_pages == 3 and not block.materialized
        pages = stored_pages(heap)
        assert all(isinstance(page, LazyPage) for page in pages)
        assert [len(page) for page in pages] == [4, 4, 2]
        assert not block.materialized  # len() builds nothing
        assert pages[1][0] is block[4] and pages[2][1] is block[9]
        assert heap.read_page(1) == tuples(10)[4:8]
        assert list(heap.scan()) == tuples(10)

    def test_lazy_page_repr_is_content_based(self, disk, spec):
        """Equal rows, equal repr -- whatever blocks the page was cut from
        (the checksumming disk hashes ``repr(page)``)."""
        heap = HeapFile.create(disk, "w", spec, capacity_tuples=8)
        heap.append_block(match_block(tuples(4)))
        heap.append(tuples(1)[0])
        heap.append_block(match_block(tuples(4)[1:]))
        first, second = stored_pages(heap)
        assert repr(first) == repr(second) == f"LazyPage({tuples(4)!r})"

    def test_abandon_drops_buffered_block_rows(self, disk, spec):
        heap = HeapFile.create(disk, "w", spec, capacity_tuples=12)
        heap.append(tuples(1)[0])
        heap.append_block(match_block(tuples(7)[1:]))
        assert (heap.n_pages, heap.n_tuples) == (1, 7)
        heap.abandon()
        assert heap.n_tuples == 4 and heap.all_tuples() == tuples(4)
        heap.flush()
        assert heap.n_pages == 1 and disk.stats.writes == 1
        # The next page starts empty: a full one takes the whole capacity.
        heap.append_block(match_block(tuples(4)))
        assert (heap.n_pages, heap.n_tuples) == (2, 8)

    def test_rewind_discards_buffered_block_rows(self, disk, spec):
        heap = HeapFile.create(disk, "w", spec, capacity_tuples=12)
        heap.append_block(match_block(tuples(10)))
        heap.rewind_to(1, 4)
        assert heap.n_tuples == 4 and heap.all_tuples() == tuples(4)
        heap.append_block(match_block(tuples(6)[4:]))
        heap.flush()
        assert [len(page) for page in stored_pages(heap)] == [4, 2]
        assert heap.all_tuples() == tuples(6)

    def test_empty_block_is_a_noop(self, disk, spec):
        heap = HeapFile.create(disk, "w", spec)
        heap.append_block(match_block([]))
        heap.flush()
        assert heap.n_tuples == 0 and disk.stats.total_ops == 0 and heap.endpoint_sorted


def keyed(rows):
    """The batch a relation of *rows* would memoise."""
    return PageBatch.keyed(list(rows))


def carried_rows_are_the_files(heap):
    """The invariant of carried columns: they describe every row the file
    holds -- on disk and buffered -- in file order, or nothing at all."""
    carried = heap.carried
    if carried is None:
        return False
    rows = heap.all_tuples()
    assert len(carried) == heap.n_tuples == len(rows)
    assert carried.tuples == rows
    assert list(carried.starts) == [tup.vs for tup in rows]
    assert list(carried.ends) == [tup.ve for tup in rows]
    return True


class TestCarriedColumns:
    def test_bulk_load_carries_the_batch_it_was_given(self, disk, spec):
        batch = keyed(tuples(10))
        heap = HeapFile.bulk_load(disk, "r", spec, batch.tuples, columns=batch)
        assert heap.carried is batch and carried_rows_are_the_files(heap)
        assert heap.endpoint_sorted
        assert HeapFile.bulk_load(disk, "bare", spec, tuples(10)).carried is None

    def test_bulk_load_reads_sortedness_off_the_columns(self, disk, spec):
        rows = tuples(6)[::-1]
        batch = keyed(rows)
        heap = HeapFile.bulk_load(disk, "r", spec, rows, columns=batch)
        bare = HeapFile.bulk_load(disk, "bare", spec, rows)
        assert not heap.endpoint_sorted and not bare.endpoint_sorted
        assert heap._last_span == bare._last_span == (rows[-1].vs, rows[-1].ve)

    def test_carry_names_the_columns_of_every_row_written(self, disk, spec):
        rows = tuples(11)
        batch = keyed(rows)
        heap = HeapFile.create(disk, "w", spec, capacity_tuples=12)
        assert heap.carried is None  # no rows, nothing to describe
        for lo, hi in ((0, 3), (3, 9), (9, 11)):
            heap.append_many(rows[lo:hi], batch[lo:hi])
            assert heap.carried is None  # a write names no columns for the file
        with pytest.raises(ValueError):
            heap.carry(batch[:10])  # not every row
        heap.carry(batch)
        assert heap.carried is batch and carried_rows_are_the_files(heap)
        assert heap.endpoint_sorted and (heap.n_pages, heap.n_tuples) == (2, 11)

    @pytest.mark.parametrize("write", ["append", "append_many", "append_block"])
    def test_a_write_without_columns_drops_them_for_good(self, disk, spec, write):
        rows = tuples(9)
        heap = HeapFile.create(disk, "w", spec, capacity_tuples=12)
        heap.append_many(rows[:5])
        heap.carry(keyed(rows[:5]))
        assert carried_rows_are_the_files(heap)
        if write == "append":
            heap.append(rows[5])
        elif write == "append_many":
            heap.append_many(rows[5:6])
        else:
            # A block's rows reach the disk as LazyPage segments: no columns.
            heap.append_block(match_block(rows[5:6]))
            heap.flush()
            assert isinstance(stored_pages(heap)[-1], LazyPage)
        assert heap.carried is None
        heap.append_many(rows[6:], keyed(rows[6:]))
        assert heap.carried is None and heap.all_tuples() == rows

    def test_abandon_drops_them_with_the_buffer(self, disk, spec):
        rows = tuples(7)
        heap = HeapFile.create(disk, "w", spec, capacity_tuples=12)
        heap.append_many(rows)
        heap.carry(keyed(rows))
        assert (heap.n_pages, heap.n_tuples) == (1, 7)
        heap.abandon()
        assert heap.n_tuples == 4 and heap.carried is None
        heap.append_many(rows[4:], keyed(rows[4:]))
        assert heap.carried is None and heap.all_tuples() == rows

    def test_an_emptied_file_starts_over(self, disk, spec):
        rows = tuples(3)
        heap = HeapFile.create(disk, "w", spec, capacity_tuples=12)
        heap.append(rows[0])
        heap.carry(keyed(rows[:1]))
        heap.abandon()  # the row and its columns are gone ...
        assert heap.n_tuples == 0 and heap.carried is None
        heap.append_many(rows)  # ... and the emptied file is written afresh
        heap.carry(keyed(rows))
        assert carried_rows_are_the_files(heap)

    def test_rewind_drops_them_with_the_pages(self, disk, spec):
        rows = tuples(10)
        heap = HeapFile.create(disk, "w", spec, capacity_tuples=12)
        heap.append_many(rows)
        heap.carry(keyed(rows))
        assert carried_rows_are_the_files(heap)
        heap.rewind_to(1, 4)
        assert heap.n_tuples == 4 and heap.carried is None
        heap.rewind_to(0, 0)
        heap.append_many(rows[:2])
        heap.carry(keyed(rows[:2]))
        assert carried_rows_are_the_files(heap)

    def test_a_delivery_is_checked_against_them(self, disk, spec):
        batch = keyed(tuples(10))
        heap = HeapFile.bulk_load(disk, "r", spec, batch.tuples, columns=batch)
        offset = 0
        for page in heap.scan_pages():
            found = heap.carried.matching(offset, page)
            assert found.tuples == page
            assert list(found.starts) == [tup.vs for tup in page]
            offset += len(page)
        # A torn page lost its last row: what came is still rows 4..6, but
        # everything behind it arrives one row early and matches nothing.
        torn = heap.carried.matching(4, tuples(10)[4:7])
        assert torn.tuples == tuples(10)[4:7] and list(torn.starts) == [4, 5, 6]
        assert heap.carried.matching(7, tuples(10)[8:]) is None


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


    @pytest.mark.parametrize("rows, run_pages", [(1, 1), (4, 1), (5, 2), (9, 3), (100, 5)])
    def test_scan_runs_reads_the_pages_of_scan_pages(self, disk, spec, rows, run_pages):
        """Runs of about *rows* rows -- whole pages, at least one -- holding
        the same page copies for the same bill, one charge per run."""
        heap = HeapFile.bulk_load(disk, "r", spec, tuples(18))  # 5 pages of <= 4
        runs = list(heap.scan_runs(rows))
        assert [len(run) for run in runs] == [run_pages] * (5 // run_pages) + (
            [5 % run_pages] if 5 % run_pages else []
        )
        assert (disk.stats.random_reads, disk.stats.sequential_reads) == (1, 4)
        disk.park_heads()
        assert [page for run in runs for page in run] == list(heap.scan_pages())
        assert (disk.stats.random_reads, disk.stats.sequential_reads) == (2, 8)
        runs[0][0].clear()
        assert heap.all_tuples() == tuples(18)


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
