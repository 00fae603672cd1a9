"""Other valid-time joins (Section 4.1's survey, built on the same machinery).

"A wide variety of valid-time joins have been defined, including the
time-join, event-join, TE-outerjoin [SG89], contain-join, contain-semijoin,
intersect-join, overlap-join [LM92a]."  The paper notes its techniques
"are also applicable to other valid-time joins"; this package provides those
operators:

* :mod:`repro.variants.time_join` -- the pure temporal T-join (interval
  overlap only, no attribute equality) and the TE-join alias of the
  valid-time natural join.
* :mod:`repro.variants.event_join` -- Segev & Gunadhi's event-join and
  TE-outerjoin.
* :mod:`repro.variants.allen_joins` -- joins qualified by Allen predicates
  (overlap-join, contain-join, intersect-join) and the contain-semijoin,
  evaluated by brute force: the oracle for the forward sweep, which
  evaluates every Allen predicate through ``PartitionJoinConfig(
  execution="forward-sweep", predicate=...)``.
* :mod:`repro.variants.partitioned_time_join` -- the T-join over the
  partition framework, demonstrating the paper's claim that the
  partitioning extends beyond the natural join.
"""

from repro.variants.time_join import te_join, time_join
from repro.variants.event_join import event_join, te_outerjoin
from repro.variants.allen_joins import (
    allen_join,
    contain_join,
    contain_semijoin,
    intersect_join,
    overlap_join,
)
from repro.variants.partitioned_time_join import partitioned_time_join

__all__ = [
    "te_join",
    "time_join",
    "event_join",
    "te_outerjoin",
    "allen_join",
    "contain_join",
    "contain_semijoin",
    "intersect_join",
    "overlap_join",
    "partitioned_time_join",
]
