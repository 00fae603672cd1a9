"""``estimateCacheSizes`` (Appendix A.4): predicted tuple-cache pages.

For each partition, the estimated tuple-cache size is the number of sampled
tuples that overlap it *beyond their last partition's own join step* --
i.e. a tuple overlapping partitions ``p_min .. p_max`` occupies the cache
while partitions ``p_min .. p_max - 1`` are being joined -- scaled to the
population.

The appendix's pseudo-code scales by ``|samples| / |r|``; scaling a sample
count up to a population estimate requires the reciprocal, ``population /
|samples|``, so we use that (with the note that this is an erratum-level
transcription fix, not a design change).  The samples come from the outer
relation while the cache holds inner-relation tuples; following the paper's
stated "implicit assumption that the distribution, over valid time, of
tuples in the outer and inner relations is similar", the caller passes the
*inner* relation's cardinality as the population.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.intervals import PartitionMap, SampleSpans
from repro.model.vtuple import VTTuple
from repro.storage.page import PageSpec


def estimate_cache_sizes(
    samples: Sequence[VTTuple],
    population_tuples: int,
    partition_map: PartitionMap,
    spec: PageSpec,
) -> List[int]:
    """Estimate tuple-cache pages per partition.

    Args:
        samples: sampled tuples (drawn from the outer relation), or their
            :class:`~repro.core.intervals.SampleSpans`.
        population_tuples: cardinality of the relation whose tuples will be
            cached (the inner relation).
        partition_map: the candidate partitioning.
        spec: page geometry, to convert tuple counts to pages.

    Returns:
        One estimated page count per partition (index-aligned with
        ``partition_map``); partition ``i``'s entry is the cache expected
        while ``r_i JOIN s_i`` is computed.
    """
    bounds = [interval.end for interval in partition_map.intervals[:-1]]
    return cache_pages_at(samples, population_tuples, bounds, spec).tolist()


def cache_pages_at(samples, population_tuples: int, bounds, spec: PageSpec) -> np.ndarray:
    """:func:`estimate_cache_sizes` for the tiling whose partitions but the
    last end at the ascending *bounds*, as an ``int64`` column -- what the
    planner prices a candidate with before it builds any interval."""
    if population_tuples < 0:
        raise ValueError(f"negative population {population_tuples}")
    counts = np.zeros(len(bounds) + 1, dtype=np.int64)
    if not len(samples):
        return counts
    # A tuple overlapping partitions first..last is cached for every one
    # but its last, where it is read from the partition itself (Figure 9).
    # Partition i < k-1 ends at b_i, and first <= i < last exactly when
    # start <= b_i < end; since start <= end, the count is
    # #(start <= b_i) - #(end <= b_i): two binary searches of b_i into the
    # sorted columns.  The last partition caches nothing.
    spans = SampleSpans.of(samples)
    counts[:-1] = np.searchsorted(spans.starts, bounds, side="right")
    counts[:-1] -= np.searchsorted(spans.ends, bounds, side="right")
    # ``round`` then ``PageSpec.pages_for_tuples``, element by element.
    tuples = np.rint(counts * (population_tuples / len(spans)))
    return np.ceil(tuples / spec.capacity).astype(np.int64)
