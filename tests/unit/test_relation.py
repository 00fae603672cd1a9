"""Unit tests for in-memory valid-time relations."""

import sys
import threading

import pytest

from repro.model.errors import SchemaError
from repro.model.match_block import MatchBlock
from repro.model.relation import ValidTimeRelation
from repro.model.schema import RelationSchema
from repro.model.vtuple import VTTuple
from repro.time.chronon import BEGINNING, FOREVER
from repro.time.interval import Interval
from repro.time.lifespan import Lifespan


@pytest.fixture
def schema():
    return RelationSchema("emp", ("name",), ("dept",))


@pytest.fixture
def relation(schema):
    return ValidTimeRelation.from_rows(
        schema,
        [
            ("alice", "db", 0, 9),
            ("bob", "os", 5, 14),
            ("alice", "ai", 10, 19),
        ],
    )


class TestConstruction:
    def test_from_rows(self, relation):
        assert len(relation) == 3

    def test_from_rows_arity_check(self, schema):
        with pytest.raises(SchemaError, match="arity"):
            ValidTimeRelation.from_rows(schema, [("alice", 0, 9)])

    def test_add_validates_key_arity(self, schema):
        relation = ValidTimeRelation(schema)
        with pytest.raises(SchemaError):
            relation.add(VTTuple(("a", "b"), ("x",), Interval(0, 1)))

    def test_add_validates_payload_arity(self, schema):
        relation = ValidTimeRelation(schema)
        with pytest.raises(SchemaError):
            relation.add(VTTuple(("a",), (), Interval(0, 1)))

    def test_extend(self, schema):
        relation = ValidTimeRelation(schema)
        relation.extend(
            [VTTuple(("a",), ("x",), Interval(0, 1)) for _ in range(3)]
        )
        assert len(relation) == 3


class TestQueries:
    def test_lifespan(self, relation):
        assert relation.lifespan() == Lifespan(0, 19)

    def test_lifespan_empty(self, schema):
        assert ValidTimeRelation(schema).lifespan() is None

    def test_overlapping(self, relation):
        hits = list(relation.overlapping(Interval(12, 13)))
        assert len(hits) == 2  # bob(5-14) and alice(10-19)

    def test_timeslice(self, relation):
        rows = relation.timeslice(7)
        assert sorted(rows) == [("alice", "db"), ("bob", "os")]

    def test_timeslice_empty_chronon(self, relation):
        assert relation.timeslice(100) == []

    def test_contains(self, relation):
        assert VTTuple(("bob",), ("os",), Interval(5, 14)) in relation


class TestGroupingAndSorting:
    def test_group_by_key(self, relation):
        groups = relation.group_by_key()
        assert len(groups[("alice",)]) == 2
        assert len(groups[("bob",)]) == 1

    def test_sorted_by_vs(self, relation):
        ordered = relation.sorted_by_vs()
        starts = [tup.vs for tup in ordered]
        assert starts == sorted(starts)
        assert len(ordered) == len(relation)

    def test_sorted_does_not_mutate_original(self, relation):
        original = list(relation)
        relation.sorted_by_vs()
        assert list(relation) == original


class TestMultiset:
    def test_multiset_counts_duplicates(self, schema):
        t = VTTuple(("a",), ("x",), Interval(0, 1))
        relation = ValidTimeRelation(schema, [t, t])
        assert relation.as_multiset()[t] == 2

    def test_multiset_equality_order_insensitive(self, schema):
        t1 = VTTuple(("a",), ("x",), Interval(0, 1))
        t2 = VTTuple(("b",), ("y",), Interval(2, 3))
        assert ValidTimeRelation(schema, [t1, t2]).multiset_equal(
            ValidTimeRelation(schema, [t2, t1])
        )

    def test_multiset_inequality_on_counts(self, schema):
        t = VTTuple(("a",), ("x",), Interval(0, 1))
        assert not ValidTimeRelation(schema, [t]).multiset_equal(
            ValidTimeRelation(schema, [t, t])
        )


def joined_block(n, start=0):
    """The natural-join rows of n (outer, inner) matches, as a lazy block."""
    left = [VTTuple((f"e{i}",), (), Interval(i, i + 9)) for i in range(start, start + n)]
    right = [VTTuple(tup.key, (f"d{tup.vs}",), Interval(tup.vs + 2, tup.vs + 20)) for tup in left]
    return MatchBlock(left, right, [tup.vs for tup in right], [tup.ve for tup in left])


def rows_of_block(n, start=0):
    return [
        VTTuple((f"e{i}",), (f"d{i}",), Interval(i + 2, i + 9)) for i in range(start, start + n)
    ]


class TestLazyChunks:
    """Blocks appended whole stay columns until a tuple is asked for."""

    @pytest.fixture
    def mixed(self, schema):
        """A plain tuple, a match block, a column block, a plain tuple."""
        relation = ValidTimeRelation(schema, rows_of_block(1))
        relation.append_block(joined_block(3, start=1))
        relation.append_columns(
            *ValidTimeRelation(schema, rows_of_block(2, start=4)).to_columns()
        )
        relation.add(rows_of_block(1, start=6)[0])
        return relation

    def test_len_and_columns_build_no_tuple(self, schema, mixed):
        assert len(mixed) == 7 and not mixed.materialized
        columns = mixed.to_columns()
        assert "7 tuples" in repr(mixed)
        assert not mixed.materialized
        assert mixed.tuples == tuple(rows_of_block(7))  # chunk order kept
        assert mixed.materialized
        assert columns == mixed.to_columns() == ValidTimeRelation(
            schema, rows_of_block(7)
        ).to_columns()
        for start, end in zip(columns[2], columns[3]):
            assert type(start) is int and type(end) is int

    def test_materializes_once(self, mixed):
        first = mixed.tuples
        assert all(a is b for a, b in zip(first, mixed.tuples))
        mixed.add(rows_of_block(1, start=7)[0])
        assert len(mixed) == 8 and mixed.tuples[:7] == first

    def test_every_reader_sees_the_rows(self, mixed):
        assert rows_of_block(1, start=2)[0] in mixed
        assert mixed.lifespan() == Lifespan(2, 15)
        assert mixed.as_multiset() == {tup: 1 for tup in rows_of_block(7)}
        assert mixed.endpoint_sorted()

    def test_block_for_another_schema_fails_at_the_append(self):
        relation = ValidTimeRelation(RelationSchema("emp", ("name",), ("dept", "floor")))
        with pytest.raises(SchemaError, match="payload arity 1"):
            relation.append_block(joined_block(3))
        assert len(relation) == 0

    def test_every_row_is_checked_at_materialization(self, schema):
        block = joined_block(3)
        block.right[2] = VTTuple(block.right[2].key, ("d2", "extra"), block.right[2].valid)
        relation = ValidTimeRelation(schema)
        relation.append_block(block)  # the first row fits
        with pytest.raises(SchemaError, match="payload arity 2"):
            relation.tuples
        assert not relation.materialized and len(relation) == 3

    @pytest.mark.parametrize(
        "columns, error",
        [
            (([("a",)], [("x",)], [0], []), ValueError),
            (([["a"]], [("x",)], [0], [1]), TypeError),
            (([("a", "b")], [("x",)], [0], [1]), SchemaError),
            (([("a",)], [()], [0], [1]), SchemaError),
            (([("a",)], [("x",)], [0.0], [1]), TypeError),
            (([("a",)], [("x",)], [True], [1]), TypeError),
            (([("a",)], [("x",)], [0], [FOREVER + 1]), ValueError),
            (([("a",)], [("x",)], [BEGINNING - 1], [1]), ValueError),
            (([("a",), ("b",)], [("x",), ("y",)], [0, 5], [1, 4]), ValueError),
        ],
    )
    def test_append_columns_validates_by_column(self, schema, columns, error):
        """Everything the constructors would reject per row."""
        relation = ValidTimeRelation(schema)
        with pytest.raises(error):
            relation.append_columns(*columns)
        assert len(relation) == 0

    def test_shared_result_materializes_without_duplicates(self, schema):
        """Eight readers released together onto one unmaterialized relation:
        each sees every row once, in order."""
        relation = ValidTimeRelation(schema)
        for start in range(0, 4000, 500):
            relation.append_block(joined_block(500, start=start))
        expected = tuple(rows_of_block(4000))
        barrier = threading.Barrier(8)
        seen = [None] * 8

        def read(slot):
            barrier.wait(timeout=30)
            seen[slot] = (relation.tuples, len(relation))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(slot,)) for slot in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [(expected, 4000)] * 8
        assert len(relation) == 4000 and relation.tuples == expected
