"""Operations on sets of intervals: union, difference, coverage.

The TE-outerjoin and the event-join need to compute the sub-intervals of
a timestamp *not* covered by any matching tuple, and coalescing needs to
merge overlapping or adjacent value-equivalent timestamps.  Both reduce to the
canonicalization implemented here: an interval set is kept as a sorted list
of disjoint, non-adjacent intervals.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.time.interval import Interval


def normalize(intervals: Iterable[Interval]) -> List[Interval]:
    """Canonical form: sorted, disjoint, non-adjacent intervals.

    Overlapping or meeting intervals are merged, so the result is the unique
    minimal representation of the covered chronon set.
    """
    ordered = sorted(intervals, key=lambda interval: (interval.start, interval.end))
    merged: List[Interval] = []
    for interval in ordered:
        if merged and interval.start <= merged[-1].end + 1:
            if interval.end > merged[-1].end:
                merged[-1] = Interval(merged[-1].start, interval.end)
        else:
            merged.append(interval)
    return merged


def subtract(interval: Interval, covered: Iterable[Interval]) -> List[Interval]:
    """The maximal sub-intervals of *interval* not covered by *covered*.

    Used by the TE-outerjoin and the event-join: a tuple's unmatched
    validity is its timestamp minus the union of the overlaps with every
    matching partner.
    """
    remaining_start = interval.start
    gaps: List[Interval] = []
    for block in normalize(covered):
        clipped = block.intersect(interval)
        if clipped is None:
            continue
        if clipped.start > remaining_start:
            gaps.append(Interval(remaining_start, clipped.start - 1))
        remaining_start = clipped.end + 1
        if remaining_start > interval.end:
            break
    if remaining_start <= interval.end:
        gaps.append(Interval(remaining_start, interval.end))
    return gaps


def total_duration(intervals: Iterable[Interval]) -> int:
    """Chronons covered by the (possibly overlapping) interval collection."""
    return sum(interval.duration for interval in normalize(intervals))


def covers(intervals: Iterable[Interval], target: Interval) -> bool:
    """True when the union of *intervals* covers every chronon of *target*."""
    return not subtract(target, intervals)
