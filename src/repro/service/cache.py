"""Epoch-keyed plan and result caches.

Both caches key on the *relation version epochs* of a query's inputs (plus
the frozen :class:`~repro.core.partition_join.PartitionJoinConfig`), which
is what makes invalidation trivial and correct: any append/delete installs
a new version at a new epoch, so a later identical query simply misses --
it can never observe a stale entry.  Explicit
:meth:`~EpochKeyedCache.invalidate_relation` additionally evicts the dead
entries eagerly (bounding memory and feeding the
``repro_service_cache_invalidations_total`` metric); it shares the epoch
discipline of the incremental-view machinery, which maintains its views on
exactly the same catalog mutations (see
:meth:`repro.engine.catalog.VersionedCatalog.attach_view`).

A result-cache hit serves the stored relation and
:class:`~repro.core.joiner.JoinOutcome` with **zero charged I/O**: no disk
layout is ever built, so there is nothing to charge -- the property
``tests/service/test_service.py::TestResultCache`` asserts.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional, Tuple

from repro.core.joiner import JoinOutcome
from repro.core.partition_join import PartitionJoinConfig
from repro.core.planner import PartitionPlan
from repro.model.errors import ServiceError
from repro.model.relation import ValidTimeRelation


@dataclass
class CacheStats:
    """Hit/miss accounting of one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class EpochKeyedCache:
    """A bounded LRU cache whose keys carry the relation names they cover.

    Keys are arbitrary hashables; the constructor-supplied position of the
    relation names inside the key drives :meth:`invalidate_relation`.
    Thread-safe: one lock serializes lookups, inserts, and invalidation.
    """

    def __init__(self, capacity: int, *, name: str) -> None:
        if capacity < 1:
            raise ServiceError(f"cache {name!r} needs capacity >= 1, got {capacity}")
        self.capacity = capacity
        self.name = name
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._names: Dict[Hashable, Tuple[str, ...]] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Hashable) -> Optional[Any]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def put(self, key: Hashable, value: Any, *, names: Tuple[str, ...]) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = value
                self._names[key] = names
                return
            while len(self._entries) >= self.capacity:
                victim, _ = self._entries.popitem(last=False)
                self._names.pop(victim, None)
                self.stats.evictions += 1
            self._entries[key] = value
            self._names[key] = names

    def invalidate_relation(self, name: str) -> int:
        """Drop every entry whose inputs include *name*; returns the count."""
        with self._lock:
            dead = [k for k, names in self._names.items() if name in names]
            for key in dead:
                del self._entries[key]
                del self._names[key]
            self.stats.invalidations += len(dead)
            return len(dead)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._names.clear()


@dataclass(frozen=True)
class CachedJoin:
    """A completed join, replayable from cache with zero charged I/O.

    The relation and outcome are shared, never copied: every producer in
    this library builds a fresh result relation per run and nothing appends
    to one afterwards, so sharing is safe and O(1).  A batch-engine result
    is cached as it was produced -- lazy row blocks -- and the first reader
    of its tuples publishes the built list once, for every holder
    (:mod:`repro.model.relation`).

    Attributes:
        relation: the result relation.
        outcome: the run's :class:`~repro.core.joiner.JoinOutcome` (counters
            included, so a cached reply is bit-identical to the run's).
        algorithm: which join algorithm produced it.
        cost: the producing run's weighted I/O cost (reported for context;
            a cache hit itself charges nothing).
        charged_ops: the producing run's charged operation count.
        epochs: ``(outer_epoch, inner_epoch)`` of the inputs joined.
    """

    relation: Optional[ValidTimeRelation]
    outcome: JoinOutcome
    algorithm: str
    cost: float
    charged_ops: int
    epochs: Tuple[int, int]


def plan_key(
    outer: str,
    inner: str,
    epochs: Tuple[int, int],
    config: PartitionJoinConfig,
) -> Tuple:
    """The plan-cache key: inputs at exact versions under an exact config."""
    return ("plan", outer, inner, epochs, config)


def result_key(
    outer: str,
    inner: str,
    epochs: Tuple[int, int],
    method: str,
    config: PartitionJoinConfig,
) -> Tuple:
    """The result-cache key (method included: algorithms emit different orders)."""
    return ("result", outer, inner, epochs, method, config)


class PlanCache(EpochKeyedCache):
    """Cached :class:`~repro.core.planner.PartitionPlan` per (epochs, config).

    A hit lets ``partition_join(plan=...)`` skip the whole sampling phase --
    identical results (the plan fully determines the partitioning), minus
    the sample I/O.
    """

    def __init__(self, capacity: int = 256) -> None:
        super().__init__(capacity, name="plan")

    def lookup(
        self,
        outer: str,
        inner: str,
        epochs: Tuple[int, int],
        config: PartitionJoinConfig,
    ) -> Optional[PartitionPlan]:
        return self.get(plan_key(outer, inner, epochs, config))

    def store(
        self,
        outer: str,
        inner: str,
        epochs: Tuple[int, int],
        config: PartitionJoinConfig,
        plan: PartitionPlan,
    ) -> None:
        self.put(plan_key(outer, inner, epochs, config), plan, names=(outer, inner))


class ResultCache(EpochKeyedCache):
    """Cached :class:`CachedJoin` per (epochs, method, config)."""

    def __init__(self, capacity: int = 256) -> None:
        super().__init__(capacity, name="result")

    def lookup(
        self,
        outer: str,
        inner: str,
        epochs: Tuple[int, int],
        method: str,
        config: PartitionJoinConfig,
    ) -> Optional[CachedJoin]:
        return self.get(result_key(outer, inner, epochs, method, config))

    def store(
        self,
        outer: str,
        inner: str,
        epochs: Tuple[int, int],
        method: str,
        config: PartitionJoinConfig,
        value: CachedJoin,
    ) -> None:
        self.put(
            result_key(outer, inner, epochs, method, config),
            value,
            names=(outer, inner),
        )

    def discard(self, *key) -> None:
        """Drop the entry :meth:`store` put under the same arguments."""
        key = result_key(*key)
        with self._lock:
            if self._entries.pop(key, None) is not None:
                del self._names[key]
