"""Shard maps: hash/range sharding of valid-time relations.

A :class:`ShardMap` assigns every tuple of a relation to one shard (or,
for temporal range sharding, to every shard whose time range the tuple
overlaps).  Both strategies decompose the valid-time natural join into
per-shard fragments whose results union *disjointly*:

* ``"key-hash"`` -- tuples route by a stable CRC-32 hash of the join key.
  Matching tuples share a key, hence a shard, so the fragment joins
  partition the result multiset exactly.
* ``"time-range"`` -- tuples route to every shard whose chronon range
  their validity interval overlaps (long-lived tuples are *replicated*,
  the paper's Section 3.2 observation in shard form).  A matching pair
  then meets in every shard both tuples overlap; the shard that **owns**
  the intersection start (:meth:`ShardMap.owns_result`) reports it, the
  others drop it, so each result tuple is emitted exactly once.

Hashing never uses Python's builtin ``hash`` -- string hashing is salted
per process, and shard routing must agree between the coordinator and
every worker process.  :func:`stable_key_hash` feeds a stable byte
encoding of the key through ``zlib.crc32`` instead.

The coordinator records the active map in the
:class:`~repro.engine.catalog.VersionedCatalog`
(:meth:`~repro.engine.catalog.VersionedCatalog.record_shard_map`), stamped
with the epoch it took effect, so any snapshot resolves to exactly one map
and fragment routing stays epoch-consistent across shards.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.model.errors import ServiceError
from repro.model.relation import ValidTimeRelation
from repro.model.vtuple import VTTuple
from repro.time.lifespan import lifespan_of

#: The supported routing strategies.
SHARD_STRATEGIES = ("key-hash", "time-range")

#: Field separator for the stable key encoding (never appears in reprs).
_SEP = b"\x1f"


def stable_key_hash(key: Tuple) -> int:
    """A process-stable 32-bit hash of a join key.

    ``repr`` of each component is type-prefixed so ``1`` and ``"1"`` hash
    differently, then the whole encoding runs through CRC-32.  Unlike the
    builtin ``hash``, the value is identical in every process (no string
    salting), which is what lets the coordinator and the shard workers
    agree on routing without a handshake.
    """
    parts = [f"{type(part).__name__}:{part!r}".encode("utf-8") for part in key]
    return zlib.crc32(_SEP.join(parts)) & 0xFFFFFFFF


@dataclass(frozen=True)
class ShardMap:
    """An immutable assignment of tuples to ``n_shards`` shards.

    Attributes:
        n_shards: shard count (>= 1).
        strategy: ``"key-hash"`` or ``"time-range"``.
        boundaries: for ``"time-range"``, the ``n_shards - 1`` ascending
            split chronons; shard *i* covers ``[boundaries[i-1],
            boundaries[i])`` with open outer edges.  Empty for
            ``"key-hash"``.
    """

    n_shards: int
    strategy: str = "key-hash"
    boundaries: Tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ServiceError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.strategy not in SHARD_STRATEGIES:
            raise ServiceError(
                f"shard strategy must be one of {SHARD_STRATEGIES}, "
                f"got {self.strategy!r}"
            )
        object.__setattr__(self, "boundaries", tuple(self.boundaries))
        if self.strategy == "key-hash":
            if self.boundaries:
                raise ServiceError("key-hash sharding takes no boundaries")
            return
        if len(self.boundaries) != self.n_shards - 1:
            raise ServiceError(
                f"time-range sharding over {self.n_shards} shards needs "
                f"{self.n_shards - 1} boundaries, got {len(self.boundaries)}"
            )
        if any(b >= a for b, a in zip(self.boundaries, self.boundaries[1:])):
            raise ServiceError(f"boundaries must be strictly ascending: {self.boundaries}")

    # -- routing -------------------------------------------------------------

    def shard_of_key(self, key: Tuple) -> int:
        """The shard a join key hashes to (``"key-hash"`` routing)."""
        return stable_key_hash(key) % self.n_shards

    def range_of(self, rank: int) -> Tuple[Optional[int], Optional[int]]:
        """Chronon range ``[lo, hi)`` of shard *rank* (None = open edge)."""
        if not 0 <= rank < self.n_shards:
            raise ServiceError(f"shard rank {rank} out of range 0..{self.n_shards - 1}")
        lo = self.boundaries[rank - 1] if rank > 0 else None
        hi = self.boundaries[rank] if rank < self.n_shards - 1 else None
        return lo, hi

    def shards_of_tuple(self, tup: VTTuple) -> Tuple[int, ...]:
        """Every shard *tup* routes to (one for key-hash; >= 1 for ranges)."""
        if self.strategy == "key-hash":
            return (self.shard_of_key(tup.key),)
        # Shard i covers [boundaries[i-1], boundaries[i]): the ranks a
        # validity interval overlaps are consecutive.
        valid, boundaries = tup.valid, self.boundaries
        return tuple(
            range(bisect_right(boundaries, valid.start), bisect_right(boundaries, valid.end) + 1)
        )

    def route(self, rows: Iterable[VTTuple]) -> List[List[VTTuple]]:
        """The rows that route to each rank, in their given order.

        The one routing pass behind :meth:`fragment`, :meth:`fragment_counts`
        and the coordinator's whole and delta shipping: a relation and a
        write's delta rows split the same way, and each distinct join key
        is hashed once per call, not once per row.
        """
        parts: List[List[VTTuple]] = [[] for _ in range(self.n_shards)]
        if self.n_shards == 1:
            parts[0].extend(rows)
        elif self.strategy == "key-hash":
            part_of_key: Dict[Tuple, List[VTTuple]] = {}
            for tup in rows:
                part = part_of_key.get(tup.key)
                if part is None:
                    part = part_of_key[tup.key] = parts[self.shard_of_key(tup.key)]
                part.append(tup)
        else:
            for tup in rows:
                for rank in self.shards_of_tuple(tup):
                    parts[rank].append(tup)
        return parts

    def owns_result(self, rank: int, vs: int) -> bool:
        """True when shard *rank* owns a result whose interval starts at *vs*.

        For time-range sharding a matching pair meets in every shard both
        tuples overlap; exactly one shard -- the one whose range contains
        the intersection start -- reports it.  Key-hash fragments are
        disjoint, so every shard owns everything it produces.
        """
        if self.strategy == "key-hash":
            return True
        lo, hi = self.range_of(rank)
        return (lo is None or vs >= lo) and (hi is None or vs < hi)

    def fragment(self, relation: ValidTimeRelation, rank: int) -> ValidTimeRelation:
        """Shard *rank*'s fragment of *relation* (a stable-order filter).

        The fragment preserves the relation's tuple order, so "the existing
        output order" of a fragment join is well-defined and a serial
        replay of the same fragment reproduces it bit-identically.
        """
        if not 0 <= rank < self.n_shards:
            raise ServiceError(f"shard rank {rank} out of range 0..{self.n_shards - 1}")
        # With one shard the single "fragment" is the whole relation, which
        # anchors shards=1 to the single-process service exactly.
        return ValidTimeRelation.over(relation.schema, self.route(relation._tuples)[rank])

    def fragment_counts(self, relation: ValidTimeRelation) -> List[int]:
        """Tuples routed to each shard (replicas counted per shard)."""
        return [len(part) for part in self.route(relation._tuples)]

    # -- serialization -------------------------------------------------------

    def as_dict(self) -> Dict:
        """Plain-dict form (the catalog-record and HELLO-frame shape)."""
        return {
            "n_shards": self.n_shards,
            "strategy": self.strategy,
            "boundaries": list(self.boundaries),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ShardMap":
        return cls(
            n_shards=int(data["n_shards"]),
            strategy=str(data["strategy"]),
            boundaries=tuple(int(b) for b in data.get("boundaries", ())),
        )


def time_range_map(n_shards: int, *relations: ValidTimeRelation) -> ShardMap:
    """An equal-width time-range :class:`ShardMap` over *relations*.

    Boundaries split the union lifespan of the given relations into
    ``n_shards`` equal chronon ranges (the outer shards stay open-ended,
    so routing never loses tuples outside the sampled lifespan).
    """
    if n_shards == 1:
        return ShardMap(1, strategy="time-range")
    starts: List[int] = []
    ends: List[int] = []
    for relation in relations:
        span = lifespan_of(tup.valid for tup in relation.tuples)
        if span is not None:
            starts.append(span.start)
            ends.append(span.end)
    if not starts:
        raise ServiceError("time_range_map needs at least one non-empty relation")
    lo, hi = min(starts), max(ends)
    width = max(1, (hi - lo + 1) // n_shards)
    boundaries = tuple(lo + width * i for i in range(1, n_shards))
    # Degenerate lifespans can collide boundaries; force strict ascent.
    fixed = []
    previous = None
    for boundary in boundaries:
        if previous is not None and boundary <= previous:
            boundary = previous + 1
        fixed.append(boundary)
        previous = boundary
    return ShardMap(n_shards, strategy="time-range", boundaries=tuple(fixed))
