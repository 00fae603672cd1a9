"""The epoch-keyed plan and result caches: LRU, stats, invalidation."""

from __future__ import annotations

import pytest

from repro.core.joiner import JoinOutcome
from repro.core.partition_join import PartitionJoinConfig
from repro.model.errors import ServiceError
from repro.service.cache import (
    CachedJoin,
    EpochKeyedCache,
    PlanCache,
    ResultCache,
    plan_key,
    result_key,
)

CONFIG = PartitionJoinConfig(memory_pages=16)


class TestEpochKeyedCache:
    def test_lru_evicts_oldest(self):
        cache = EpochKeyedCache(2, name="t")
        cache.put("a", 1, names=("r",))
        cache.put("b", 2, names=("r",))
        cache.put("c", 3, names=("r",))  # evicts "a"
        assert cache.get("a") is None
        assert cache.get("b") == 2
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_get_refreshes_recency(self):
        cache = EpochKeyedCache(2, name="t")
        cache.put("a", 1, names=("r",))
        cache.put("b", 2, names=("r",))
        cache.get("a")  # "b" is now the LRU victim
        cache.put("c", 3, names=("r",))
        assert cache.get("a") == 1
        assert cache.get("b") is None

    def test_invalidate_relation_drops_only_matching(self):
        cache = EpochKeyedCache(8, name="t")
        cache.put("ra", 1, names=("r", "a"))
        cache.put("rb", 2, names=("r", "b"))
        cache.put("ab", 3, names=("a", "b"))
        assert cache.invalidate_relation("r") == 2
        assert cache.get("ra") is None and cache.get("rb") is None
        assert cache.get("ab") == 3
        assert cache.stats.invalidations == 2

    def test_hit_ratio(self):
        cache = EpochKeyedCache(4, name="t")
        cache.put("a", 1, names=())
        cache.get("a")
        cache.get("a")
        cache.get("missing")
        assert cache.stats.hits == 2 and cache.stats.misses == 1
        assert cache.stats.hit_ratio == pytest.approx(2 / 3)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ServiceError, match="capacity"):
            EpochKeyedCache(0, name="t")


class TestKeys:
    def test_epoch_in_key_makes_stale_entries_unreachable(self):
        old = plan_key("r", "s", (1, 2), CONFIG)
        new = plan_key("r", "s", (3, 2), CONFIG)
        assert old != new

    def test_config_in_key(self):
        small = plan_key("r", "s", (1, 2), CONFIG)
        big = plan_key(
            "r", "s", (1, 2), PartitionJoinConfig(memory_pages=32)
        )
        assert small != big

    def test_plan_and_result_key_spaces_disjoint(self):
        assert plan_key("r", "s", (1, 2), CONFIG) != result_key(
            "r", "s", (1, 2), "partition", CONFIG
        )

    def test_method_in_result_key(self):
        assert result_key("r", "s", (1, 2), "partition", CONFIG) != result_key(
            "r", "s", (1, 2), "sort_merge", CONFIG
        )


class TestTypedCaches:
    def test_result_cache_round_trip(self):
        cache = ResultCache(4)
        entry = CachedJoin(
            relation=None,
            outcome=JoinOutcome(result=None, n_result_tuples=7),
            algorithm="partition",
            cost=12.5,
            charged_ops=40,
            epochs=(1, 2),
        )
        cache.store("r", "s", (1, 2), "partition", CONFIG, entry)
        hit = cache.lookup("r", "s", (1, 2), "partition", CONFIG)
        assert hit is entry
        assert cache.lookup("r", "s", (1, 3), "partition", CONFIG) is None

    def test_plan_cache_invalidation_by_name(self):
        cache = PlanCache(4)
        cache.store("r", "s", (1, 2), CONFIG, object())
        cache.store("x", "y", (3, 4), CONFIG, object())
        assert cache.invalidate_relation("s") == 1
        assert cache.lookup("r", "s", (1, 2), CONFIG) is None
        assert cache.lookup("x", "y", (3, 4), CONFIG) is not None


class TestSplitOnceInService:
    """What the interner cache was for is now a property of the relation
    version: its columns are split once, and a write derives the next
    version's from them."""

    def test_repeat_joins_split_nothing_and_a_write_derives(self, service, monkeypatch):
        from repro.exec.batch import PageBatch
        from tests.service.conftest import make_tuples

        split = []
        from_tuples = PageBatch.from_tuples.__func__

        def spy(cls, tuples, *args, **kwargs):
            split.append(len(tuples))
            return from_tuples(cls, tuples, *args, **kwargs)

        monkeypatch.setattr(PageBatch, "from_tuples", classmethod(spy))
        with service.open_session(use_result_cache=False, execution="batch") as session:
            first = session.join("r", "s")
            assert 0 < sum(split) <= 60 + 45
            del split[:]
            assert session.join("r", "s").relation.tuples == first.relation.tuples
            assert sum(split) == 0

            session.append("r", make_tuples(5, seed=123))
            version = service.catalog.current("r").relation
            derived = version._columns
            assert derived is not None and derived.tuples == list(version)
            session.join("r", "s")
            assert sum(split) == 5  # the appended rows, at the write
            fresh = PageBatch.keyed(list(version))
            assert list(derived.starts) == list(fresh.starts)
            assert list(derived.ends) == list(fresh.ends)
            if derived.keys is not None:
                keys = derived.keys.keys_in_id_order()
                assert [keys[code] for code in derived.key_ids] == [t.key for t in version]
