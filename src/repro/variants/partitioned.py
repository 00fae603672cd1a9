"""Partition-based evaluation of predicate join variants.

Section 1 of the paper: "While we focus on the important valid-time natural
join, the techniques presented are also applicable to other valid-time
joins."  This module makes that claim concrete: any join whose predicate
*implies interval intersection* (intersect-join, overlap-join,
contain-join, and of course the natural join itself) can run through the
same plan / partition / sweep pipeline, because intersecting tuples always
share a partition and the end-chronon emission rule stays exactly-once.

Joins whose predicate does not imply intersection (e.g. a *before*-join)
cannot use temporal partitioning this way and are rejected.

Because evaluation rides the partition-join pipeline, the
``PartitionJoinConfig.execution`` knob applies unchanged: with
``"batch"`` the candidate generation (key probe,
interval intersection, owner filter) runs through the vectorized kernels
of :mod:`repro.exec`, and only surviving pairs reach the per-variant
predicate function -- the variant pays Python-level cost proportional to
its *result*, not to the candidate space.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Optional

from repro.core.partition_join import (
    PartitionJoinConfig,
    PartitionJoinResult,
    partition_join,
)
from repro.model.relation import ValidTimeRelation
from repro.model.vtuple import VTTuple
from repro.time.allen import AllenRelation, relate
from repro.time.interval import Interval


def partitioned_predicate_join(
    r: ValidTimeRelation,
    s: ValidTimeRelation,
    config: PartitionJoinConfig,
    relations: Iterable[AllenRelation],
    *,
    timestamp: str = "intersection",
) -> PartitionJoinResult:
    """Evaluate an Allen-predicate join with the partition framework.

    Args:
        r: outer relation.
        s: inner relation.
        config: partition-join configuration (memory, cost model, ...).
        relations: accepted Allen relations; all must imply intersection.
        timestamp: ``"intersection"``, ``"left"``, or ``"right"`` result
            timestamp policy (see :mod:`repro.variants.allen_joins`).

    Raises:
        ValueError: if any accepted relation does not imply intersection,
            or the timestamp policy is unknown.
    """
    wanted: FrozenSet[AllenRelation] = frozenset(relations)
    rejected = [rel for rel in wanted if not rel.intersects]
    if rejected:
        raise ValueError(
            "temporal partitioning requires intersection-implying predicates; "
            f"got {sorted(rel.value for rel in rejected)}"
        )
    if timestamp not in ("intersection", "left", "right"):
        raise ValueError(f"unknown timestamp policy {timestamp!r}")

    def pair_fn(x: VTTuple, y: VTTuple, common: Interval) -> Optional[VTTuple]:
        if relate(x.valid, y.valid) not in wanted:
            return None
        if timestamp == "intersection":
            stamp = common
        elif timestamp == "left":
            stamp = x.valid
        else:
            stamp = y.valid
        return VTTuple(x.key, x.payload + y.payload, stamp)

    return partition_join(r, s, config, pair_fn=pair_fn)
