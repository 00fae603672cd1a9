"""``doPartitioning`` (Section 3.2): Grace partitioning by valid time.

The input relation is scanned linearly; each tuple is placed in the page
buffer of the *last* partition its interval overlaps (Section 3.3's storage
rule) and buffers are flushed to the partition's extent as they fill.

Buffering follows the paper: "We reserve a single buffer page to hold a
page of the input relation, and divide the remaining buffer space evenly
among the partitions."  A per-bucket buffer of ``b`` pages flushes as one
run of ``b`` pages -- one random access plus ``b - 1`` sequential -- so
small memories flush small runs often and pay more random I/O, which is
exactly the partitioning-phase effect Section 4.2 reports.

**Execution modes.**  Tuple placement -- ``index_of_chronon`` of the
storage chronon -- is the CPU-bound part of this phase and runs in two
ways: per tuple (``"tuple"``, the oracle) or through the batch kernels
(``"batch"``): one ``route`` call over the chronon column the source
carries, whose one permutation makes every bucket a contiguous slice
(:func:`_route_carried`), whose scan and flushes are billed as one
schedule when the stored pages are the carried rows -- and per tuple after
all from the first delivery that is not the carried rows, or when nothing
is carried.  Either
way the charged I/O -- the input scan and the bucket flush sequence -- is
issued in the identical serial order, so partition contents and
:class:`~repro.storage.iostats.PhaseTracker` counters are bit-identical
across modes.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, chain, pairwise
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.core.intervals import PartitionMap
from repro.exec import EXECUTION_MODES
from repro.model.errors import PlanError
from repro.obs import span_or_null
from repro.storage.disk import Schedule
from repro.storage.heapfile import HeapFile
from repro.storage.layout import DiskLayout

if TYPE_CHECKING:
    from repro.obs import Observability


def do_partitioning(
    source: HeapFile,
    partition_map: PartitionMap,
    layout: DiskLayout,
    name: str,
    memory_pages: int,
    *,
    placement: str = "last",
    execution: str = "tuple",
    obs: Optional["Observability"] = None,
) -> List[HeapFile]:
    """Partition *source* into one heap file per partitioning interval.

    Args:
        source: the relation to partition (scanned once, charged).
        partition_map: the partitioning intervals from the planner.
        layout: disk layout; partitions are created on the TEMP device.
        name: prefix for the partition extents (e.g. ``"r"``).
        memory_pages: total buffer pages available to the partitioning step;
            one is reserved for the input page, the rest split evenly across
            the partition buckets (minimum one page each -- the paper
            "assume[s] that the number of partitions is small" enough for
            this to hold, and the planner's ``partSize >= 1`` guarantees it
            can be satisfied at ``numPartitions <= buffSize``).
        placement: ``"last"`` stores each tuple in the last partition it
            overlaps (the paper's choice, paired with the backward sweep);
            ``"first"`` in the first (footnote 1's equivalent strategy,
            paired with the forward sweep).
        execution: ``"tuple"`` locates per tuple; ``"batch"`` locates by
            column via the batch kernels.

    Returns:
        One heap file per partition, index-aligned with *partition_map*.
    """
    if placement not in ("last", "first"):
        raise PlanError(f"placement must be 'last' or 'first', got {placement!r}")
    if execution not in EXECUTION_MODES:
        raise PlanError(
            f"execution must be one of {EXECUTION_MODES}, got {execution!r}"
        )
    n_partitions = len(partition_map)
    if memory_pages < 2:
        raise PlanError(f"partitioning needs >= 2 buffer pages, got {memory_pages}")
    bucket_buffer_pages = max(1, (memory_pages - 1) // n_partitions)

    with span_or_null(
        obs,
        "grace-partition",
        relation=name,
        partitions=n_partitions,
        execution=execution,
        placement=placement,
    ) as span:
        spec = source.spec
        # Size each partition extent for the worst case (the whole relation)
        # so overflow of the planner's estimate never fragments the extent.
        partitions = [
            layout.temp_file(f"{name}_part{i}", capacity_tuples=max(1, source.n_tuples))
            for i in range(n_partitions)
        ]
        buffers: List[List] = [[] for _ in range(n_partitions)]
        flush_threshold = bucket_buffer_pages * spec.capacity

        def route(tup, index: int) -> None:
            bucket = buffers[index]
            bucket.append(tup)
            if len(bucket) >= flush_threshold:
                _flush(partitions[index], bucket)
                buffers[index] = []

        pages: Iterable = source.scan_pages()
        if execution != "tuple":
            from repro.exec.kernels import get_kernels

            kernels = get_kernels()
            boundaries = kernels.prepare_boundaries(partition_map)
            carried = source.carried
            if carried is not None and len(carried) == source.n_tuples:
                chronons = carried.ends if placement == "last" else carried.starts
                perm, counts = kernels.route(chronons, boundaries)
                pages = _route_carried(
                    source, perm, counts, pages, partitions, buffers, flush_threshold
                )
        # Row by row: the oracle, a file that carries nothing, and the rest
        # of a scan from the first delivery that is not the carried rows.
        locate = (
            partition_map.last_overlapping
            if placement == "last"
            else partition_map.first_overlapping
        )
        for page in pages:
            for tup in page:
                route(tup, locate(tup.valid))

        for index, bucket in enumerate(buffers):
            if bucket:
                _flush(partitions[index], bucket)
        span.set(
            tuples=source.n_tuples,
            bucket_buffer_pages=bucket_buffer_pages,
        )
        return partitions


def _flush(partition: HeapFile, bucket: List, columns=None) -> None:
    """Write a bucket's tuples as one contiguous run of pages."""
    partition.append_many(bucket, columns)
    partition.flush()


def _route_carried(
    source: HeapFile,
    perm: Sequence[int],
    counts: List[int],
    pages: Iterator[List],
    partitions: List[HeapFile],
    buffers: List[List],
    flush_threshold: int,
) -> Iterable[List]:
    """Route *source* by the columns it carries, as far as its pages bear
    them out.

    *perm* and *counts* place every carried row (``Kernels.route``): one
    gather of positions lays the rows out bucket by bucket, in input order
    within each, and fixes the flush schedule -- a bucket flushes right
    after the read of the page holding the row that fills it, as routing
    row by row does -- and each partition file carries its bucket's slice
    of the gathered batch.  When the stored pages are the carried rows
    (:meth:`HeapFile.stored_bounds`) the scan is billed, reads and flushes
    in one schedule (:func:`_bill_routing`); otherwise *pages* is walked,
    each delivered page checked against the carried rows.

    Returns the pages still to route row by row: none when the scan bore out
    every carried row (final flushes done); otherwise -- a torn delivery --
    the first page that is not the carried rows and the rest of *pages* (none,
    if it was the last page that came short), with the rows that did arrive
    and are not yet flushed put in *buffers*.
    """
    carried = source.carried
    routed = carried.take(perm)
    bounds = list(accumulate(counts, initial=0))  # bucket i: routed[bounds[i]:bounds[i + 1]]
    # Every flush before the last of its bucket, in scan order: the row
    # that fills the bucket, the partition, the end of the flush in routed.
    # The g-th flush overall, the k-th of bucket i, which g - k flushes of
    # earlier buckets precede, stops at first_i + (k + 1) * threshold.
    flushes = np.array(counts) // flush_threshold
    earlier = np.cumsum(flushes) - flushes
    index = np.repeat(np.arange(len(counts)), flushes)
    stop = np.repeat(np.array(bounds[:-1]) - earlier * flush_threshold, flushes)
    stop += flush_threshold * np.arange(1, len(index) + 1)
    row = np.asarray(perm)[stop - 1]
    order = np.argsort(row)
    schedule = (row[order], index[order], stop[order])
    stored = source.stored_bounds(carried.tuples)
    if stored is not None:
        _bill_routing(source, stored, schedule, routed, bounds, partitions, flush_threshold)
        return ()
    schedule = list(zip(*(column.tolist() for column in schedule)))
    flushed = bounds[:-1]
    offset = due = 0
    rest: Iterable[List] = ()
    for page in pages:
        if not carried.holds(offset, page):
            rest = chain([page], pages)
            break
        offset += len(page)
        while due < len(schedule) and schedule[due][0] < offset:  # filled by now
            _, index, stop = schedule[due]
            due += 1
            batch = routed[flushed[index] : stop]
            _flush(partitions[index], batch.tuples, batch)
            flushed[index] = stop
    for index, (first, last) in enumerate(pairwise(bounds)):
        batch = routed[flushed[index] : bisect_left(perm, offset, flushed[index], last)]
        if offset < len(carried):
            buffers[index] = list(batch.tuples)
            continue
        _flush(partitions[index], batch.tuples, batch)  # a no-op when empty
        partitions[index].carry(routed[first:last])
    return rest


def _bill_routing(
    source: HeapFile, stored, schedule, routed, bounds, partitions, threshold
) -> None:
    """Route a scan whose stored pages (split at *stored*) are the carried
    rows without reading a page: the walk's reads and bucket flushes go out
    as one :class:`~repro.storage.disk.Schedule` -- each *schedule* flush
    (*threshold* rows) right after the read of its filling page, the final
    flushes after the last read, by partition -- and then each partition
    file takes its bucket whole, uncharged.  A bucket flushes whole pages
    until its last flush, so its pages are its rows cut by the page
    capacity, as the flushes cut them.
    """
    capacity, n_pages, n = partitions[0].spec.capacity, len(stored) - 1, len(partitions)
    firsts = np.array(bounds, np.int64)
    row, index, stop = (
        np.concatenate(pair)
        for pair in zip(schedule, (np.full(n, firsts[-1]), np.arange(n), firsts[1:]))
    )
    last_full = firsts[:-1] + np.diff(firsts) // threshold * threshold
    start = np.concatenate((schedule[2] - threshold, last_full))
    upto = np.minimum(np.searchsorted(stored, row, "right"), n_pages)  # through the filling page
    # A read run up to the filling page, then the flush, per entry.
    extent, first, count = np.empty((3, 2 * len(row)), np.int64)
    extent[0::2], extent[1::2] = 0, index + 1
    first[0::2], first[1::2] = np.append(0, upto[:-1]), (start - firsts[index]) // capacity
    count[0::2], count[1::2] = np.diff(upto, prepend=0), -(-(stop - start) // capacity)
    table = [source.extent] + [partition.extent for partition in partitions]
    source.disk.charge_runs(Schedule(table, extent, first, count, extent > 0))
    for index, (first, last) in enumerate(pairwise(bounds)):
        bucket = routed[first:last]
        partitions[index].install(bucket.tuples, bucket, flush=True)
        partitions[index].carry(bucket)
