"""A row is split into columns once per relation version.

The batch engine's ``(key, start, end)`` columns are derived by
:meth:`PageBatch.from_tuples`; these tests spy on it and count the rows it
is handed.  The memo holds key codes, a dictionary and the two time
columns.
"""

import dataclasses
import sys
import threading

import pytest

from repro.core.partition_join import PartitionJoinConfig, partition_join
from repro.engine.catalog import VersionedCatalog
from repro.exec.batch import PageBatch
from repro.model.errors import CatalogError
from repro.model.relation import ValidTimeRelation
from repro.model.vtuple import VTTuple
from repro.shard import ShardMap
from repro.shard.worker import ShardWorker, schema_to_dict
from repro.storage.layout import DiskLayout
from repro.storage.page import PageSpec

from tests.chaos.conftest import chaos_relation

SPEC = PageSpec(page_bytes=1024, tuple_bytes=128)  # 8 tuples per page
CONFIG = PartitionJoinConfig(memory_pages=12, page_spec=SPEC, execution="batch")


def fresh_pair(n=400):
    return chaos_relation("r", n, 11), chaos_relation("s", n, 12)


def rebuilt_partner(r):
    return chaos_relation("s", len(r), 12)


@pytest.fixture
def split_rows(monkeypatch):
    """Rows handed to ``PageBatch.from_tuples`` since the last ``clear()``."""
    counts = []
    from_tuples = PageBatch.from_tuples.__func__

    def spy(cls, tuples, *args, **kwargs):
        counts.append(len(tuples))
        return from_tuples(cls, tuples, *args, **kwargs)

    monkeypatch.setattr(PageBatch, "from_tuples", classmethod(spy))
    return counts


def same_columns(got: PageBatch, rows) -> bool:
    """*got* describes exactly *rows*, as a from-scratch split would."""
    want = PageBatch.keyed(list(rows))
    assert got.tuples == want.tuples == list(rows)
    assert list(got.starts) == list(want.starts)
    assert list(got.ends) == list(want.ends)
    keys = got.keys.keys_in_id_order()
    # Distinct, and at least the keys in use (a delete forgets none).
    assert len(set(keys)) == len(keys) and set(keys) >= {tup.key for tup in rows}
    assert [keys[code] for code in got.key_ids.tolist()] == [tup.key for tup in rows]
    return True


class TestPartitionJoinSplitsOnce:
    @pytest.mark.parametrize("execution", ["batch", "batch-parallel-sweep"])
    def test_first_call_splits_each_row_once_and_the_second_none(
        self, split_rows, execution
    ):
        r, s = fresh_pair()
        config = dataclasses.replace(CONFIG, execution=execution)
        first = partition_join(r, s, config)
        assert len(first.plan.intervals) > 2 and first.outcome.n_result_tuples > 0
        assert 0 < sum(split_rows) <= len(r) + len(s)
        del split_rows[:]
        second = partition_join(r, s, config)
        assert sum(split_rows) == 0
        assert second.result.tuples == first.result.tuples
        assert second.layout.tracker.phases == first.layout.tracker.phases

    def test_the_one_partition_case_splits_once_too(self, split_rows):
        r, s = fresh_pair(60)
        config = dataclasses.replace(CONFIG, memory_pages=32)
        first = partition_join(r, s, config)
        assert len(first.plan.intervals) == 1
        assert 0 < sum(split_rows) <= len(r) + len(s)
        del split_rows[:]
        assert partition_join(r, s, config).result.tuples == first.result.tuples
        assert sum(split_rows) == 0

    def test_the_tuple_oracle_probes_rows_not_columns(self, split_rows):
        r, s = fresh_pair()
        oracle = partition_join(r, s, dataclasses.replace(CONFIG, execution="tuple"))
        # Placement splits each relation (for the file's sortedness flag and
        # whoever joins it next); the tuple engine itself decomposes nothing.
        assert sum(split_rows) <= len(r) + len(s)
        assert partition_join(r, s, CONFIG).result.tuples == oracle.result.tuples

    def test_mutating_a_relation_invalidates_its_columns(self, split_rows):
        r, s = fresh_pair()
        partition_join(r, s, CONFIG)
        memo = r.columns()
        assert r.columns() is memo
        extra = chaos_relation("r", 3, 99).tuples
        r.add(extra[0])
        assert r._columns is None and same_columns(r.columns(), r)
        memo = r.columns()
        r.extend(extra[1:])
        assert r._columns is None and r.columns() is not memo
        del split_rows[:]
        rerun = partition_join(r, s, CONFIG)
        assert sum(split_rows) == 0  # r was re-split by columns() above, once
        assert rerun.result.tuples == partition_join(r, s, dataclasses.replace(
            CONFIG, execution="tuple")).result.tuples

    def test_append_block_and_append_columns_invalidate_too(self):
        r, _ = fresh_pair(40)
        r.columns()
        r.append_columns(*chaos_relation("r", 5, 7).to_columns())
        assert r._columns is None and same_columns(r.columns(), r)
        result = partition_join(*fresh_pair(60), CONFIG).result
        target = ValidTimeRelation(result.schema)
        target.columns()
        target.append_block(result._chunks[0])
        assert target._columns is None and len(target.columns()) == len(target)


class TestDerivedColumns:
    def test_from_columns_arrives_split(self, split_rows):
        r, _ = fresh_pair()
        rebuilt = ValidTimeRelation.from_columns(r.schema, *r.to_columns())
        assert sum(split_rows) == 0
        assert rebuilt._columns is not None and same_columns(rebuilt._columns, r)
        del split_rows[:]  # same_columns splits afresh to compare with
        partition_join(rebuilt, rebuilt_partner(r), CONFIG)
        assert sum(split_rows) <= len(r)  # the partner's rows only

    def test_catalog_append_and_delete_derive_from_the_parent(self, split_rows):
        r, _ = fresh_pair()
        catalog = VersionedCatalog()
        catalog.register(r.schema, r.tuples)
        parent = catalog.current("r").relation
        added = list(chaos_relation("r", 32, 5).tuples)
        # An unsplit parent has nothing to derive from: the child stays lazy.
        assert catalog.append("r", added[:2]).relation._columns is None
        catalog.delete("r", added[:2])
        parent = catalog.current("r").relation
        parent.columns()
        del split_rows[:]

        appended = catalog.append("r", added).relation
        assert sum(split_rows) == 32  # only the added rows are split
        assert same_columns(appended._columns, appended)
        del split_rows[:]
        doomed = [appended.tuples[0], *added[5:9], appended.tuples[17]]
        deleted = catalog.delete("r", doomed).relation
        assert sum(split_rows) == 0 and len(deleted) == len(parent) + 26
        assert same_columns(deleted._columns, deleted)
        del split_rows[:]
        emptied = catalog.delete("r", deleted.tuples).relation
        assert sum(split_rows) == 0 and len(emptied) == 0
        assert same_columns(emptied._columns, emptied)
        # The columns moved down the chain: history keeps rows only, and a
        # superseded version splits again if a snapshot reader still joins it.
        assert parent._columns is appended._columns is deleted._columns is None
        assert same_columns(parent.columns(), parent)

    def test_a_new_key_grows_a_copy_of_the_dictionary(self):
        r, _ = fresh_pair(50)
        parent = r.columns()
        newcomer = VTTuple(("never-seen",), ("x",), r.tuples[0].valid)
        child = r.with_rows([newcomer])
        assert r._columns is None  # the child took the memo over
        assert same_columns(child.columns(), [*r, newcomer])
        if parent.keys is not None:
            child_keys = child.columns().keys
            assert child_keys is not parent.keys
            assert len(child_keys) == len(parent.keys) + 1
            assert ("never-seen",) not in parent.keys.keys_in_id_order()
            # A row of a known key grows nothing: the dictionary is shared.
            assert child.with_rows([r.tuples[0]])._columns.keys is child_keys

    def test_a_failed_delete_leaves_the_parent_split(self):
        r, _ = fresh_pair(50)
        catalog = VersionedCatalog()
        catalog.register(r.schema, r.tuples)
        parent = catalog.current("r").relation
        memo = parent.columns()
        stranger = VTTuple(("never-seen",), ("x",), r.tuples[0].valid)
        with pytest.raises(CatalogError):
            catalog.delete("r", [r.tuples[0], stranger])
        assert catalog.current("r").relation is parent and parent._columns is memo

    @pytest.mark.parametrize("through", ["with_rows", "catalog", "shard-worker"])
    def test_an_empty_split_relation_grows_a_working_dictionary(self, through):
        """An empty relation's dictionary is empty, not absent: rows added to
        a split empty version get real codes, which the next batch join
        indexes its code table with."""
        r, s = fresh_pair(120)
        if through == "with_rows":
            empty = ValidTimeRelation(r.schema)
            assert len(empty.columns()) == 0
            child = empty.with_rows(list(r.tuples))
        elif through == "catalog":
            catalog = VersionedCatalog()
            catalog.register(r.schema, [])
            # Placement splits the empty version before the planner's
            # nothing-to-join shortcut.
            assert len(partition_join(catalog.current("r").relation, s, CONFIG).result) == 0
            child = catalog.append("r", r.tuples).relation
        else:
            worker = ShardWorker({"rank": 0, "shard_map": ShardMap(1).as_dict()})
            meta = {"name": "r", "schema": schema_to_dict(r.schema)}
            worker.load({**meta, "epoch": 1}, ([], [], [], []))
            step = {"base_epoch": 1, "steps": [(0, len(r))]}
            worker.load({**meta, "epoch": 2, **step}, r.to_columns())
            child = worker._fragments[("r", 2)]
        assert same_columns(child._columns, r)
        got = partition_join(child, s, CONFIG)
        want = partition_join(r, s, dataclasses.replace(CONFIG, execution="tuple"))
        assert got.result.tuples == want.result.tuples and len(want.result) > 0
        assert got.layout.tracker.phases == want.layout.tracker.phases

    def test_a_columnar_layout_places_without_splitting(self, split_rows):
        r, _ = fresh_pair(40)
        heap = DiskLayout(spec=SPEC, columnar=True).place_relation(r)
        assert sum(split_rows) == 0 and r._columns is None and heap.carried is None
        assert heap.all_tuples() == list(r) and not heap.endpoint_sorted
        assert DiskLayout(spec=SPEC).place_relation(r).carried is r._columns is not None


class TestConcurrentJoins:
    def test_two_threads_joining_one_version_agree(self):
        """The memo is a last-writer-wins race between finished batches:
        whoever wins, both threads join the same rows."""
        expected = partition_join(*fresh_pair(), CONFIG).result.tuples
        r, s = fresh_pair()  # unsplit: both threads find the memo empty
        barrier = threading.Barrier(4)
        results, failures = [], []

        def join():
            try:
                barrier.wait(timeout=10)
                for _ in range(3):
                    results.append(partition_join(r, s, CONFIG).result.tuples)
            except BaseException as error:  # surfaced by the assert below
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=join) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert len(results) == 12 and all(rows == expected for rows in results)
        assert same_columns(r.columns(), r) and same_columns(s.columns(), s)
