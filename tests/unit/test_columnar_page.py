"""Unit tests for the packed columnar page layout.

The contract: a :class:`ColumnarPage` is observationally identical to the
plain tuple list it was packed from -- same tuples, same order, same
checksum-relevant ``repr`` -- while exposing its time and key columns as
zero-copy views over one packed buffer.
"""

import zlib

import pytest

import numpy as np

from repro.exec.kernels import get_kernels
from repro.model.vtuple import VTTuple
from repro.storage.columnar_page import ColumnarPage, KeyDictionary, page_view
from repro.storage.heapfile import HeapFile
from repro.storage.layout import DiskLayout
from repro.storage.page import PageSpec
from repro.time.interval import Interval

#: The one kernel backend, named in the case ids.
BACKENDS = ["numpy"]


def vt(key, start, end, tag="x"):
    return VTTuple((key,), (tag,), Interval(start, end))


TUPLES = [
    vt("a", 0, 5, "t0"),
    vt("b", 3, 9, "t1"),
    vt("a", 7, 7, "t2"),
    vt("c", 1, 20, "t3"),
]


class TestKeyDictionary:
    def test_codes_are_dense_first_seen(self):
        d = KeyDictionary()
        assert d.code(("x",)) == 0
        assert d.code(("y",)) == 1
        assert d.code(("x",)) == 0
        assert d.key(0) == ("x",)
        assert d.key(1) == ("y",)

    def test_shared_across_pages(self):
        d = KeyDictionary()
        p1 = ColumnarPage.from_tuples(TUPLES[:2], d)
        p2 = ColumnarPage.from_tuples(TUPLES[2:], d)
        # "a" appears on both pages under one code.
        assert p1.codes_list()[0] == p2.codes_list()[0]


class TestColumnarPage:
    def test_round_trip_and_sequence_protocol(self):
        page = ColumnarPage.from_tuples(TUPLES, KeyDictionary())
        assert len(page) == len(TUPLES)
        assert list(page) == TUPLES
        assert page[0] == TUPLES[0]
        assert page[-1] == TUPLES[-1]
        assert page[1:3] == TUPLES[1:3]
        assert page.tuples() == list(TUPLES)

    def test_column_lists_match_tuples(self):
        page = ColumnarPage.from_tuples(TUPLES, KeyDictionary())
        assert list(page.starts_list()) == [t.valid.start for t in TUPLES]
        assert list(page.ends_list()) == [t.valid.end for t in TUPLES]
        dictionary = page.dictionary
        assert [dictionary.key(c) for c in page.codes_list()] == [
            t.key for t in TUPLES
        ]

    def test_views_are_zero_copy(self):
        page = ColumnarPage.from_tuples(TUPLES, KeyDictionary())
        starts = page.starts_view()
        assert starts.dtype == np.dtype("<i8")
        assert not starts.flags.owndata  # a view over the packed buffer
        assert list(starts) == [t.valid.start for t in TUPLES]
        assert list(page.ends_view()) == [t.valid.end for t in TUPLES]

    def test_materialization_is_memoized(self):
        page = ColumnarPage.from_tuples(TUPLES, KeyDictionary())
        assert page.row(2) is page.row(2)

    def test_equality_against_lists_and_pages(self):
        d = KeyDictionary()
        page = ColumnarPage.from_tuples(TUPLES, d)
        assert page == list(TUPLES)
        assert page == tuple(TUPLES)
        assert page == ColumnarPage.from_tuples(TUPLES, KeyDictionary())
        assert page != TUPLES[:-1]

    def test_repr_is_dictionary_independent(self):
        """``page_checksum`` hashes ``repr(page)``: two pages with the same
        tuples must collide whatever dictionary instance packed them."""
        d1, d2 = KeyDictionary(), KeyDictionary()
        d2.code(("seen-first-elsewhere",))  # skew the code assignment
        p1 = ColumnarPage.from_tuples(TUPLES, d1)
        p2 = ColumnarPage.from_tuples(TUPLES, d2)
        assert repr(p1) == repr(p2)
        assert zlib.crc32(repr(p1).encode()) == zlib.crc32(repr(p2).encode())

    def test_empty_page(self):
        page = ColumnarPage.from_tuples([], KeyDictionary())
        assert len(page) == 0
        assert list(page) == []
        assert list(page.starts_list()) == []

    def test_page_view_passthrough(self):
        page = ColumnarPage.from_tuples(TUPLES, KeyDictionary())
        assert page_view(page) is page
        assert page_view(tuple(TUPLES)) == list(TUPLES)


class TestColumnarHeapFile:
    @pytest.mark.parametrize("columnar", [False, True])
    @pytest.mark.parametrize("checksums", [False, True])
    def test_round_trip_matrix(self, columnar, checksums):
        layout = DiskLayout(
            spec=PageSpec(page_bytes=128, tuple_bytes=32),
            columnar=columnar,
            checksums=checksums,
        )
        heap = layout.temp_file("t", capacity_tuples=len(TUPLES) * 5)
        heap.append_many(TUPLES * 5)
        heap.flush()
        assert heap.all_tuples() == TUPLES * 5
        assert [t for page in heap.scan_pages() for t in page] == TUPLES * 5

    def test_columnar_pages_reach_the_scanner(self):
        layout = DiskLayout(
            spec=PageSpec(page_bytes=128, tuple_bytes=32), columnar=True
        )
        heap = layout.temp_file("t", capacity_tuples=len(TUPLES) * 5)
        heap.append_many(TUPLES * 5)
        heap.flush()
        pages = list(heap.scan_pages())
        assert pages and all(isinstance(p, ColumnarPage) for p in pages)

    def test_page_counts_match_list_layout(self):
        """Columnar storage must not change charged I/O: same page count."""
        spec = PageSpec(page_bytes=128, tuple_bytes=32)
        def build(columnar):
            heap = DiskLayout(spec=spec, columnar=columnar).temp_file(
                "t", capacity_tuples=len(TUPLES) * 7
            )
            heap.append_many(TUPLES * 7)
            heap.flush()
            return heap

        assert build(False).n_pages == build(True).n_pages


class TestKernelsOverColumnarPages:
    """Satellite regression: the batch kernels accept columnar pages and
    produce columns identical to the tuple-list path -- including the empty-page dtype normalization."""

    def _batches(self, kernels, page_tuples, dictionary=None):
        d = dictionary if dictionary is not None else KeyDictionary()
        columnar = ColumnarPage.from_tuples(page_tuples, d)
        interner_a = kernels.make_interner()
        interner_b = kernels.make_interner()
        return (
            kernels.page_batch(list(page_tuples), interner_a),
            kernels.page_batch(columnar, interner_b),
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_columns_identical_to_list_path(self, backend):
        kernels = get_kernels()
        plain, packed = self._batches(kernels, TUPLES)
        assert list(plain.starts) == list(packed.starts)
        assert list(plain.ends) == list(packed.ends)
        assert list(plain.key_ids) == list(packed.key_ids)

    def test_build_side_interning_matches_tuple_path(self):
        kernels = get_kernels()
        columnar = ColumnarPage.from_tuples(TUPLES, KeyDictionary())
        a, b = kernels.make_interner(), kernels.make_interner()
        plain = kernels.page_batch(list(TUPLES), a, intern=True)
        packed = kernels.page_batch(columnar, b, intern=True)
        assert list(plain.key_ids) == list(packed.key_ids)
        assert a.keys_in_id_order() == b.keys_in_id_order()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_page_batch(self, backend):
        kernels = get_kernels()
        plain, packed = self._batches(kernels, [])
        assert len(plain.starts) == len(packed.starts) == 0
        assert len(plain) == len(packed) == 0

    def test_empty_columns_are_int64(self):
        """The from_tuples empty path must normalize every column's dtype;
        an object-dtype empty column poisons later concatenation."""
        kernels = get_kernels()
        batch = kernels.page_batch([], kernels.make_interner())
        for column in (batch.starts, batch.ends, batch.key_ids):
            assert column.dtype == np.int64
