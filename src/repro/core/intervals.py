"""``chooseIntervals`` (Appendix A.3): partitioning intervals from a sample.

The paper's algorithm collects, into a multiset, every chronon covered by
any sampled tuple, sorts the multiset, picks every k-th element as a
partitioning chronon, and turns adjacent chosen chronons into partitioning
intervals.  Picking every k-th element of the sorted coverage multiset is an
*equi-depth* split: each partitioning interval covers an equal share of
sampled tuple-chronon mass, which is what makes the resulting partitions of
``r`` approximately equal-sized (Section 3.3's standing assumption).

Enumerating the multiset explicitly is linear in total tuple *duration* and
infeasible for long-lived tuples at paper scale, so
:func:`_coverage_quantiles` computes the same chosen chronons with an
endpoint sweep: walk the sorted interval starts and ends along the chronon
line, maintaining the number of intervals covering the current run, and
locate the multiset positions arithmetically inside runs of constant
coverage.  A property test checks the sweep against the naive multiset
construction on small inputs.  The sweep reads the sample only through its
two endpoint multisets, which is why a sample is held as a
:class:`SampleSpans` of sorted columns.

The returned intervals are non-overlapping, ascending, and tile the sampled
lifespan exactly.  Tuples outside the sampled lifespan are handled by
:class:`PartitionMap`, which clamps them into the first or last partition --
equivalent to extending the outermost intervals to the ends of the time-line
as Section 3.3 assumes.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Sequence

import numpy as np

from repro.model.errors import PlanError
from repro.model.vtuple import VTTuple
from repro.time.interval import Interval


class SampleSpans:
    """A planner sample as its two endpoint multisets: sorted start and end
    columns (``int64`` arrays; lists take the integer loop).

    The plan consumers (:func:`choose_intervals`,
    :func:`estimate_cache_sizes`) depend on a sample only through the
    multiset of its starts and the multiset of its ends, never on which
    start belongs to which end.  Sorted columns make the lifespan two reads,
    the coverage sweep a merge of two sorted runs, and a partition's cache
    count two binary searches.  The sweep is computed at most once per
    object (:meth:`sweep`), so every planner candidate handed the same
    prefix shares it.  Constructing one directly is a promise that both
    columns are sorted; :meth:`of` sorts.
    """

    __slots__ = ("starts", "ends", "_sweep")

    def __init__(self, starts, ends) -> None:
        self.starts = starts
        self.ends = ends
        self._sweep = None

    @classmethod
    def of(cls, samples) -> "SampleSpans":
        """*samples* -- anything with ``vs``/``ve`` -- as sorted columns."""
        if isinstance(samples, SampleSpans):
            return samples
        empty = cls(_column(()), _column(()))
        return empty.grown([tup.vs for tup in samples], [tup.ve for tup in samples])

    def grown(self, starts, ends) -> "SampleSpans":
        """This sample plus the rows with *starts* / *ends* (in any order).

        Only the new rows are sorted; each column is then one merge of two
        sorted runs (numpy's stable sort is timsort, which finds the
        runs).  ``self`` is left as it was.
        """
        return SampleSpans(_merged(self.starts, starts), _merged(self.ends, ends))

    def __len__(self) -> int:
        return len(self.starts)

    def lifespan(self) -> tuple:
        """``(first start, last end)`` as Python integers."""
        return int(self.starts[0]), int(self.ends[-1])

    def lists(self) -> tuple:
        """Both columns as lists of Python integers."""
        if isinstance(self.starts, list):
            return self.starts, self.ends
        return self.starts.tolist(), self.ends.tolist()

    def mass(self) -> int:
        """Size of the coverage multiset: the summed interval durations."""
        sweep = self.sweep()
        if sweep is not None:
            return int(sweep[3][-1])
        starts, ends = self.lists()
        return sum(ends) - sum(starts) + len(starts)

    def sweep(self):
        """``(events, coverage, run_mass, mass)`` of the array sweep; None
        for list columns or when ``int64`` could wrap (the loop's Python
        integers grow instead).

        Every start raises the coverage at its chronon and every end lowers
        it one chronon later.  The two sorted event runs are merged, not
        argsorted: a key is an event's offset from the first start plus a
        tag bit (0, first on ties, for a start), and a stable sort of two
        runs is one merge.  Between two events the coverage is constant,
        so the multiset's mass up to each run's end is a cumulative sum.
        """
        if self._sweep is None:
            lo, hi = self.lifespan()
            bound = len(self) * (hi - lo + 1)
            if isinstance(self.starts, list) or bound >= _INT64_HEADROOM:
                return None
            # Offsets are below the headroom, so the doubled keys fit.
            keys = np.concatenate(((self.starts - lo) << 1, (self.ends - lo + 1) << 1 | 1))
            keys.sort(kind="stable")
            events = (keys >> 1) + lo
            coverage = np.cumsum(1 - ((keys & 1) << 1))[:-1]
            run_mass = coverage * np.diff(events)
            self._sweep = (events, coverage, run_mass, np.cumsum(run_mass))
        return self._sweep


def _column(values):
    return np.asarray(values, dtype=np.int64)


def _merged(held, new):
    """Sorted *held* and unsorted *new* as one sorted column."""
    merged = np.concatenate((held, np.sort(_column(new))))
    merged.sort(kind="stable")
    return merged


def choose_intervals(samples: Sequence[VTTuple], num_partitions: int) -> List[Interval]:
    """Choose ``num_partitions`` partitioning intervals from *samples*.

    Args:
        samples: sampled tuples of the outer relation, or their
            :class:`SampleSpans`.
        num_partitions: desired number of partitions (>= 1).

    Returns:
        Ascending, non-overlapping intervals tiling the sampled lifespan.
        Fewer than ``num_partitions`` intervals are returned when the sample
        cannot support that many distinct boundaries (e.g. every sampled
        chronon is identical); never more.

    Raises:
        PlanError: if *samples* is empty or *num_partitions* < 1.
    """
    spans = SampleSpans.of(samples)
    cuts = choose_cuts(spans, num_partitions)
    return tile(spans.lifespan(), cuts)


def choose_cuts(samples, num_partitions: int) -> np.ndarray:
    """Where :func:`choose_intervals`' partitions but the first start, as an
    ascending ``int64`` column: what the planner prices candidates on."""
    if num_partitions < 1:
        raise PlanError(f"num_partitions must be >= 1, got {num_partitions}")
    if not len(samples):
        raise PlanError("cannot choose partitioning intervals from an empty sample")
    spans = SampleSpans.of(samples)
    lo, hi = spans.lifespan()
    if num_partitions == 1 or lo == hi:
        return _column(())
    # Interior boundaries at equal shares of the coverage multiset, rounded
    # half to even as ``round`` does.
    step = spans.mass() / num_partitions
    wanted = np.maximum(np.rint(np.arange(1, num_partitions) * step), 1)
    cuts = _quantiles(spans, wanted)
    # Each boundary once, in (lo, hi]: the quantiles ascend with their positions.
    keep = (lo < cuts) & (cuts <= hi)
    keep[1:] &= cuts[1:] != cuts[:-1]
    return cuts[keep]


def tile(lifespan: tuple, cuts) -> List[Interval]:
    """The intervals tiling *lifespan* ``(lo, hi)``, starting at *lo* and at each cut."""
    lo, hi = lifespan
    starts = [lo] + [int(cut) for cut in cuts]
    ends = [start - 1 for start in starts[1:]] + [hi]
    return [Interval(start, end) for start, end in zip(starts, ends)]


def _coverage_quantiles(samples: Sequence[VTTuple], positions: Sequence[int]) -> List[int]:
    """Chronons at the given 1-based positions of the coverage multiset.

    The coverage multiset contains chronon ``t`` once per sampled tuple
    whose interval contains ``t``.  Equivalent to indexing the paper's
    sorted ``chronons`` multiset, computed by sweeping interval endpoints.
    """
    if not positions:
        return []
    wanted = sorted(max(1, p) for p in positions)  # one result per position
    return _quantiles(SampleSpans.of(samples), wanted).tolist()


def _quantiles(spans: SampleSpans, wanted) -> np.ndarray:
    """:func:`_coverage_quantiles` at sorted positions >= 1, as a column."""
    sweep = spans.sweep()
    if sweep is not None and wanted[-1] < _INT64_HEADROOM:
        return _sweep_quantiles(sweep, np.asarray(wanted, dtype=np.int64), spans.ends[-1])
    starts, ends = spans.lists()
    wanted = [int(p) for p in wanted]
    results: List[int] = []

    coverage = 0  # intervals covering the current run of chronons
    cumulative = 0  # multiset elements at chronons before the current run
    run_start = starts[0]
    si = ei = 0
    wi = 0
    n = len(starts)
    while wi < len(wanted):
        # The current run extends until the next endpoint event.
        next_start = starts[si] if si < n else None
        next_end_excl = ends[ei] + 1 if ei < n else None
        if next_start is not None and (next_end_excl is None or next_start <= next_end_excl):
            event = next_start
        else:
            event = next_end_excl
        if event is None:
            # Past the last interval; clamp remaining positions to the end.
            results.extend(ends[-1] for _ in range(wi, len(wanted)))
            break
        if event > run_start and coverage > 0:
            run_len = event - run_start
            while wi < len(wanted) and cumulative + coverage * run_len >= wanted[wi]:
                offset = (wanted[wi] - cumulative - 1) // coverage
                results.append(run_start + offset)
                wi += 1
            cumulative += coverage * run_len
        run_start = max(run_start, event)
        if next_start is not None and event == next_start:
            coverage += 1
            si += 1
        else:
            coverage -= 1
            ei += 1
    return _column(results)


#: The column sweep accumulates the coverage multiset's mass -- at most
#: samples x lifespan -- in ``int64``; anything that could come near
#: wrapping takes the loop, whose Python integers grow.
_INT64_HEADROOM = 2**62


def _sweep_quantiles(sweep, positions: np.ndarray, last_end) -> np.ndarray:
    """:func:`_quantiles` over a :meth:`SampleSpans.sweep`.

    Each wanted position is one binary search into the cumulative mass plus
    the loop's integer offset into its run.  Positions past the end clamp
    to the last end, as in the loop.
    """
    events, coverage, run_mass, mass = sweep
    run = np.searchsorted(mass, positions, side="left")
    inside = run < len(mass)
    # The last run is always covered (by the interval ending last), so
    # clamped positions divide safely; their value is replaced below.
    run = np.minimum(run, len(mass) - 1)
    before = mass[run] - run_mass[run]
    found = events[run] + (positions - before - 1) // coverage[run]
    return np.where(inside, found, last_end)


class PartitionMap:
    """Locate tuples within a partitioning (Section 3.3's placement rules).

    Wraps the ascending partitioning intervals with the two lookups every
    algorithm needs:

    * :meth:`last_overlapping` -- the partition a tuple is physically stored
      in ("a tuple x is physically stored in partition r_i if
      overlap(x[V], p_i) != bottom and there is no later such partition").
    * :meth:`first_overlapping` -- where migration of a long-lived tuple
      stops.

    Tuples extending past the covered lifespan are clamped into the first or
    last partition, which is equivalent to the paper's assumption that the
    partitioning covers the whole valid-time line.
    """

    def __init__(self, intervals: Sequence[Interval]) -> None:
        if not intervals:
            raise PlanError("a partitioning needs at least one interval")
        previous_end: int | None = None
        for interval in intervals:
            if previous_end is not None and interval.start != previous_end + 1:
                raise PlanError(
                    f"partitioning intervals must tile the lifespan; gap or overlap "
                    f"before {interval!r}"
                )
            previous_end = interval.end
        self.intervals: List[Interval] = list(intervals)
        self._ends = [interval.end for interval in intervals]

    def __len__(self) -> int:
        return len(self.intervals)

    def __getitem__(self, index: int) -> Interval:
        return self.intervals[index]

    def index_of_chronon(self, chronon: int) -> int:
        """Index of the partition containing *chronon* (clamped to the edges)."""
        index = bisect_left(self._ends, chronon)
        return min(index, len(self.intervals) - 1)

    def last_overlapping(self, valid: Interval) -> int:
        """Index of the last partition *valid* overlaps (storage partition)."""
        return self.index_of_chronon(valid.end)

    def first_overlapping(self, valid: Interval) -> int:
        """Index of the first partition *valid* overlaps (migration floor)."""
        return self.index_of_chronon(valid.start)

    def overlaps_partition(self, valid: Interval, index: int) -> bool:
        """Does *valid* overlap partition *index*, under edge clamping?

        Clamping means the first partition also owns everything before the
        covered lifespan and the last everything after it, so the three-way
        index comparison (not a raw interval test) is the correct check.
        """
        return self.first_overlapping(valid) <= index <= self.last_overlapping(valid)
