"""Unit tests for catalog statistics and multi-way joins."""

import pytest

from functools import reduce

from repro.algebra.coalesce import coalesce
from repro.algebra.normalize import decompose
from repro.baselines.reference import reference_join
from repro.engine.catalog import analyze
from repro.engine.database import TemporalDatabase
from repro.model.errors import SchemaError
from repro.model.relation import ValidTimeRelation
from repro.model.schema import RelationSchema
from repro.storage.page import PageSpec
from tests.conftest import make_relation, random_relation


SPEC = PageSpec(page_bytes=512, tuple_bytes=128)


class TestAnalyze:
    def test_empty_relation(self):
        stats = analyze(ValidTimeRelation(RelationSchema("r", ("k",))), SPEC)
        assert stats.n_tuples == 0
        assert stats.lifespan is None
        assert stats.tuples_per_key == 0.0

    def test_basic_counts(self):
        schema = RelationSchema("r", ("k",), ("a",))
        relation = make_relation(
            schema,
            [("x", "a1", 0, 99), ("x", "a2", 10, 10), ("y", "a3", 20, 20)],
        )
        stats = analyze(relation, SPEC)
        assert stats.n_tuples == 3
        assert stats.n_pages == 1
        assert stats.lifespan.start == 0 and stats.lifespan.end == 99
        assert stats.n_keys == 2
        assert stats.tuples_per_key == pytest.approx(1.5)

    def test_long_lived_fraction(self):
        schema = RelationSchema("r", ("k",), ("a",))
        rows = [("x", f"a{i}", i, i) for i in range(90)]
        rows += [("x", f"L{i}", 0, 89) for i in range(10)]
        stats = analyze(make_relation(schema, rows), SPEC)
        assert stats.long_lived_fraction == pytest.approx(0.1)

    def test_mean_duration(self):
        schema = RelationSchema("r", ("k",), ("a",))
        relation = make_relation(schema, [("x", "a", 0, 9), ("x", "b", 0, 0)])
        assert analyze(relation, SPEC).mean_duration == pytest.approx(5.5)

    def test_database_caches_until_change(self, schema_r):
        db = TemporalDatabase(page_spec=SPEC)
        db.create_relation(schema_r)
        db.relation("works_on").extend(
            random_relation(schema_r, 40, seed=351).tuples
        )
        first = db.statistics("works_on")
        assert db.statistics("works_on") is first  # cached
        db.insert("works_on", [("zed", "p", 0, 1)])
        assert db.statistics("works_on") is not first  # refreshed


class TestJoinMany:
    def test_three_way_reconstruction(self):
        schema = RelationSchema("facts", ("k",), ("a", "b", "c"))
        relation = make_relation(
            schema,
            [
                ("x", "a1", "b1", "c1", 0, 9),
                ("x", "a2", "b1", "c2", 10, 19),
                ("y", "a3", "b2", "c3", 0, 19),
            ],
        )
        fragments = decompose(relation, [("a",), ("b",), ("c",)])
        db = TemporalDatabase(memory_pages=16, page_spec=SPEC)
        for fragment in fragments:
            db.create_relation(fragment.schema)
            db.relation(fragment.schema.name).extend(fragment.tuples)

        result = db.join_many([f.schema.name for f in fragments])
        expected = reduce(reference_join, fragments)
        assert result.relation.multiset_equal(expected)
        assert coalesce(result.relation).multiset_equal(coalesce(relation))
        assert result.cost > 0
        assert result.algorithm.count("+") == 1  # two join steps

    def test_intermediates_are_cleaned_up(self, schema_r, schema_s):
        db = TemporalDatabase(memory_pages=16, page_spec=SPEC)
        db.create_relation(schema_r)
        db.create_relation(schema_s)
        db.relation("works_on").extend(random_relation(schema_r, 40, seed=352).tuples)
        db.relation("earns").extend(random_relation(schema_s, 40, seed=353).tuples)
        before = db.names()
        db.join_many(["works_on", "earns"])
        assert db.names() == before

    def test_needs_two_relations(self, schema_r):
        db = TemporalDatabase(page_spec=SPEC)
        db.create_relation(schema_r)
        with pytest.raises(SchemaError, match="at least two"):
            db.join_many(["works_on"])


class TestVersionedCatalog:
    """Edge cases of the copy-on-write versioned catalog (service layer)."""

    def _schemas(self):
        r = RelationSchema("vr", join_attributes=("k",), payload_attributes=("p",))
        s = RelationSchema("vs", join_attributes=("k",), payload_attributes=("q",))
        return r, s

    def _catalog(self):
        from repro.engine.catalog import VersionedCatalog
        from repro.model.vtuple import VTTuple
        from repro.time.interval import Interval

        catalog = VersionedCatalog()
        r_schema, s_schema = self._schemas()
        catalog.register(
            r_schema,
            [VTTuple(("a",), (1,), Interval(0, 9)),
             VTTuple(("b",), (2,), Interval(5, 14))],
        )
        catalog.register(
            s_schema,
            [VTTuple(("a",), (10,), Interval(3, 7))],
        )
        return catalog

    def test_register_bumps_epoch(self):
        catalog = self._catalog()
        assert catalog.epoch == 2
        assert catalog.current("vr").epoch == 1
        assert catalog.current("vs").epoch == 2

    def test_reregistering_name_raises(self):
        from repro.model.errors import SchemaError as Err

        catalog = self._catalog()
        r_schema, _ = self._schemas()
        before = catalog.epoch
        with pytest.raises(Err, match="already"):
            catalog.register(r_schema, [])
        assert catalog.epoch == before  # a failed register burns no epoch

    def test_epoch_monotonic_across_append_and_delete(self):
        from repro.model.vtuple import VTTuple
        from repro.time.interval import Interval

        catalog = self._catalog()
        seen = [catalog.epoch]
        extra = VTTuple(("c",), (3,), Interval(1, 2))
        for _ in range(3):
            catalog.append("vr", [extra])
            seen.append(catalog.epoch)
            catalog.delete("vr", [extra])
            seen.append(catalog.epoch)
        assert seen == sorted(seen)
        assert len(set(seen)) == len(seen)  # strictly increasing: no reuse

    def test_version_at_replays_history(self):
        from repro.model.vtuple import VTTuple
        from repro.time.interval import Interval

        catalog = self._catalog()
        first = catalog.current("vr")
        extra = VTTuple(("c",), (3,), Interval(1, 2))
        second = catalog.append("vr", [extra])
        assert len(first) == 2 and len(second) == 3
        # The old version is untouched (copy-on-write)...
        assert catalog.version_at("vr", first.epoch) is first
        # ...and any epoch between installs resolves to the version then live.
        assert catalog.version_at("vr", second.epoch - 1) is first
        assert catalog.version_at("vr", catalog.epoch) is second

    def test_version_at_before_creation_raises(self):
        from repro.model.errors import CatalogError

        catalog = self._catalog()
        with pytest.raises(CatalogError):
            catalog.version_at("vr", 0)
        with pytest.raises(CatalogError):
            catalog.version_at("nope", 1)

    def test_delete_of_absent_tuple_raises(self):
        from repro.model.errors import CatalogError
        from repro.model.vtuple import VTTuple
        from repro.time.interval import Interval

        catalog = self._catalog()
        with pytest.raises(CatalogError, match="not present"):
            catalog.delete("vr", [VTTuple(("zz",), (0,), Interval(0, 0))])

    def test_failed_delete_installs_nothing(self):
        """An absent row, or one copy more than present, raises having
        bumped no epoch, installed no version and touched no view -- even
        when other rows of the same call were there to remove."""
        from repro.model.errors import CatalogError
        from repro.model.vtuple import VTTuple
        from repro.time.interval import Interval

        class RecordingView:
            def __init__(self):
                self.calls = []

            def __getattr__(self, name):
                return lambda tup: self.calls.append((name, tup))

        catalog = self._catalog()
        view = RecordingView()
        catalog.attach_view("v", view, "vr", "vs")
        present = catalog.current("vr").relation.tuples[0]
        catalog.append("vr", [present])  # two copies now
        view.calls.clear()
        before = (catalog.epoch, catalog.current("vr"), catalog.snapshot())
        for doomed in (
            [present, VTTuple(("zz",), (0,), Interval(0, 0))],
            [present, present, present],
        ):
            with pytest.raises(CatalogError, match="not present"):
                catalog.delete("vr", doomed)
            assert catalog.epoch == before[0]
            assert catalog.current("vr") is before[1]
            assert catalog.version_at("vr", catalog.epoch) is before[1]
            assert catalog.snapshot() == before[2]
            assert view.calls == []
        catalog.delete("vr", [present, present])  # as many as present: fine
        assert [name for name, _ in view.calls] == ["delete_r", "delete_r"]

    def test_delete_removes_first_occurrences_like_list_remove(self):
        """Multiset semantics on duplicates: the one-pass removal leaves the
        rows, in the order, that one ``list.remove`` per doomed row left."""
        import random

        from repro.engine.catalog import VersionedCatalog
        from repro.model.vtuple import VTTuple
        from repro.time.interval import Interval

        r_schema, _ = self._schemas()
        for seed in range(20):
            rng = random.Random(seed)
            contents = [
                VTTuple((rng.choice("ab"),), (rng.randrange(2),), Interval(s, s + rng.randrange(2)))
                for s in (rng.randrange(3) for _ in range(40))
            ]
            doomed = rng.sample(contents, 12)  # by position: copies repeat
            expected = list(contents)
            for tup in doomed:
                expected.remove(tup)
            catalog = VersionedCatalog()
            catalog.register(r_schema, contents)
            version = catalog.delete("vr", doomed)
            assert list(version.relation.tuples) == expected
            assert len(set(contents)) < len(contents)  # the input did hold duplicates

    def test_versions_record_the_write_that_made_them(self):
        from repro.model.vtuple import VTTuple
        from repro.time.interval import Interval

        catalog = self._catalog()
        registered = catalog.current("vr")
        assert (registered.parent_epoch, registered.added, registered.removed) == (None, (), ())
        extra = [VTTuple(("c",), (3,), Interval(1, 2)), VTTuple(("d",), (4,), Interval(2, 3))]
        catalog.append("vs", extra[:1])  # another relation's write sits between
        grown = catalog.append("vr", extra)
        assert (grown.parent_epoch, grown.added, grown.removed) == (registered.epoch, tuple(extra), ())
        shrunk = catalog.delete("vr", extra[1:])
        assert (shrunk.parent_epoch, shrunk.added, shrunk.removed) == (grown.epoch, (), (extra[1],))
        assert catalog.version_at("vr", shrunk.parent_epoch) is grown

    def test_version_at_resolves_every_epoch_of_a_long_history(self):
        from repro.model.vtuple import VTTuple
        from repro.time.interval import Interval

        catalog = self._catalog()
        installed = [catalog.current("vr")]
        for number in range(30):
            name = "vr" if number % 3 else "vs"  # epochs of "vr" have gaps
            version = catalog.append(name, [VTTuple(("c",), (number,), Interval(1, 2))])
            if name == "vr":
                installed.append(version)
        for epoch in range(1, catalog.epoch + 1):
            expected = [v for v in installed if v.epoch <= epoch][-1]
            assert catalog.version_at("vr", epoch) is expected

    def test_drop_with_live_incremental_view_raises(self):
        from repro.core.intervals import PartitionMap
        from repro.incremental.view import MaterializedVTJoin
        from repro.model.errors import CatalogError
        from repro.time.interval import Interval

        catalog = self._catalog()
        r_schema, s_schema = self._schemas()
        view = MaterializedVTJoin(
            r_schema,
            s_schema,
            PartitionMap([Interval(0, 9), Interval(10, 19)]),
            r_tuples=catalog.current("vr").relation.tuples,
            s_tuples=catalog.current("vs").relation.tuples,
        )
        catalog.attach_view("v", view, "vr", "vs")
        with pytest.raises(CatalogError, match="live incremental view"):
            catalog.drop("vr")
        with pytest.raises(CatalogError, match="live incremental view"):
            catalog.drop("vs")
        catalog.detach_view("v")
        catalog.drop("vr")  # detaching unblocks the drop
        assert "vr" not in catalog.names()
        # History survives the drop: old epochs still replay.
        assert len(catalog.version_at("vr", 1)) == 2

    def test_view_maintained_by_catalog_writes(self):
        from repro.core.intervals import PartitionMap
        from repro.incremental.view import MaterializedVTJoin
        from repro.model.vtuple import VTTuple
        from repro.time.interval import Interval

        catalog = self._catalog()
        r_schema, s_schema = self._schemas()
        view = MaterializedVTJoin(
            r_schema,
            s_schema,
            PartitionMap([Interval(0, 9), Interval(10, 19)]),
            r_tuples=catalog.current("vr").relation.tuples,
            s_tuples=catalog.current("vs").relation.tuples,
        )
        catalog.attach_view("v", view, "vr", "vs")
        before = len(view.snapshot().tuples)
        catalog.append("vs", [VTTuple(("b",), (20,), Interval(6, 12))])
        after = len(view.snapshot().tuples)
        assert after == before + 1  # ('b') overlaps [5,14] in vr

    def test_snapshot_is_isolated_from_later_writes(self):
        from repro.model.vtuple import VTTuple
        from repro.time.interval import Interval

        catalog = self._catalog()
        snapshot = catalog.snapshot()
        catalog.append("vr", [VTTuple(("c",), (3,), Interval(1, 2))])
        assert len(snapshot.relation("vr")) == 2
        assert len(catalog.current("vr")) == 3
        assert snapshot.epoch < catalog.epoch
