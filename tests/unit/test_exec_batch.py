"""Unit tests for columnar batches, relation columns, and columnar serialization."""

import numpy as np

from repro.exec.batch import KeyInterner, PageBatch
from repro.model.relation import ValidTimeRelation
from repro.model.schema import RelationSchema
from repro.model.vtuple import VTTuple
from repro.storage.serialize import load_columnar, save_columnar
from repro.time.interval import Interval

SCHEMA = RelationSchema("r", ("k",), ("val",))


def vt(key, start, end, tag="x"):
    return VTTuple((key,), (tag,), Interval(start, end))


class TestKeyInterner:
    def test_intern_assigns_dense_ids(self):
        interner = KeyInterner()
        assert interner.intern(("a",)) == 0
        assert interner.intern(("b",)) == 1
        assert interner.intern(("a",)) == 0
        assert len(interner) == 2

    def test_lookup_does_not_assign(self):
        interner = KeyInterner()
        assert interner.lookup(("missing",)) == -1
        assert len(interner) == 0

    def test_from_tuples_interns_only_the_misses(self):
        calls = []

        class Counting(KeyInterner):
            __slots__ = ()

            def intern(self, key):
                calls.append(key)
                return super().intern(key)

        counting = Counting()
        counting.intern(("a",))
        del calls[:]
        page = [vt("a", 0, 1), vt("b", 0, 1), vt("a", 2, 3), vt("b", 4, 5)]
        batch = PageBatch.from_tuples(page, counting, intern=True)
        assert batch.key_ids.tolist() == [0, 1, 0, 1]
        assert calls == [("b",), ("b",)]  # the known key never reached intern()


class TestPageBatch:
    def test_columns_match_tuples(self):
        page = [vt("a", 1, 5), vt("b", 2, 9), vt("a", 7, 7)]
        interner = KeyInterner()
        batch = PageBatch.from_tuples(page, interner, intern=True)
        assert len(batch) == 3
        assert list(batch.starts) == [1, 2, 7]
        assert list(batch.ends) == [5, 9, 7]
        assert list(batch.key_ids) == [0, 1, 0]
        assert batch.tuples == page

    def test_lookup_mode_maps_unknown_to_minus_one(self):
        interner = KeyInterner()
        interner.intern(("a",))
        batch = PageBatch.from_tuples([vt("a", 0, 1), vt("z", 0, 1)], interner)
        assert list(batch.key_ids) == [0, -1]

    def test_carried_columns_slice_mask_and_concatenate(self):
        """What the sweep does to a batch that travels with its rows."""
        rows = [vt("a", 1, 5), vt("b", 2, 9), vt("a", 7, 7), vt("c", 12, 20)]
        interner = KeyInterner()
        batch = PageBatch.from_tuples(rows, interner, intern=True)

        def columns(b):
            return [b.tuples] + [list(c) for c in (b.key_ids, b.starts, b.ends)]

        assert list(batch) == rows and batch[1] is rows[1]
        assert columns(batch[1:3]) == [rows[1:3], [1, 0], [2, 7], [9, 7]]
        # Rows overlapping the window (lo, hi]: lo < end and start <= hi.
        assert batch.overlapping((5, 11)).tolist() == [1, 2]
        assert batch.overlapping((float("-inf"), float("inf"))).tolist() == [0, 1, 2, 3]
        assert columns(batch.take([3, 0])) == [[rows[3], rows[0]], [2, 0], [12, 1], [20, 5]]
        assert columns(batch.take([])) == [[], [], [], []]
        assert columns(PageBatch.concat([batch[:1], batch.take([]), batch[1:]])) == columns(batch)

        # A re-read page gets its columns back only if it is the carried rows.
        again = batch.matching(1, [rows[1], rows[2]])
        assert columns(again) == columns(batch[1:3])
        assert batch.matching(1, [rows[1]]) is not None  # a prefix still matches
        assert batch.matching(1, [rows[2], rows[3]]) is None  # shifted
        assert batch.matching(3, [rows[3], rows[0]]) is None  # past the end
        assert batch.matching(0, [vt("a", 1, 5)]) is not None  # equal by value

    def test_without_interner_key_column_absent(self):
        batch = PageBatch.from_tuples([vt("a", 0, 1)])
        assert batch.key_ids is None

    def test_numpy_columns(self):
        interner = KeyInterner()
        batch = PageBatch.from_tuples([vt("a", 3, 4)], interner, intern=True)
        assert isinstance(batch.starts, np.ndarray)
        assert batch.starts.dtype == np.int64
        assert batch.key_ids.tolist() == [0]


class TestColumns:
    def test_relation_columns_round_trip(self):
        relation = ValidTimeRelation(SCHEMA, [vt("a", 0, 4), vt("a", 2, 2)])
        rebuilt = ValidTimeRelation.from_columns(SCHEMA, *relation.to_columns())
        assert rebuilt.multiset_equal(relation)
        assert rebuilt.tuples == relation.tuples


class TestColumnarSerialization:
    def test_round_trip(self, tmp_path):
        relation = ValidTimeRelation(
            SCHEMA, [vt("a", 0, 4, "p0"), vt("b", 2, 2, "p1"), vt("a", 9, 12, "p2")]
        )
        path = tmp_path / "rel.columnar.json"
        assert save_columnar(relation, path) == 3
        loaded = load_columnar(path)
        assert loaded.schema == relation.schema
        assert loaded.tuples == relation.tuples

    def test_empty_relation(self, tmp_path):
        path = tmp_path / "empty.columnar.json"
        save_columnar(ValidTimeRelation(SCHEMA), path)
        assert len(load_columnar(path)) == 0
