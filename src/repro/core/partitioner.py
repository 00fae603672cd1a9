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
(every other mode): one ``route`` call over the chronon column the source
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

from bisect import bisect_left, bisect_right
from itertools import accumulate, chain, pairwise
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.intervals import PartitionMap
from repro.exec import EXECUTION_MODES
from repro.model.errors import PlanError
from repro.obs import span_or_null
from repro.storage.heapfile import HeapFile
from repro.storage.layout import DiskLayout

if TYPE_CHECKING:
    from repro.obs import Observability
    from repro.storage.columnar_page import ColumnarPage


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
        execution: ``"tuple"`` locates per tuple; every other partition
            mode locates by column via the batch kernels (the pipelined
            sweeps differ from ``"batch"`` only in the join phase).

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
            if source.columnar and source.dictionary is not None:
                # Columnar source: locate straight off the packed chronon
                # column and move (start, end, code, payload) column
                # entries -- no tuple is ever materialized.
                def located_pages():
                    for page in source.scan_pages():
                        chronons = (
                            page.ends_list()
                            if placement == "last"
                            else page.starts_list()
                        )
                        yield page, kernels.locate(chronons, boundaries)

                _route_columns(
                    located_pages(), partitions, source.dictionary, flush_threshold
                )
                pages = ()
            elif carried is not None and len(carried) == source.n_tuples:
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
    # (the row that fills the bucket, partition, end of the flush in routed)
    schedule = sorted(
        (int(perm[stop - 1]), index, stop)
        for index, (first, last) in enumerate(pairwise(bounds))
        for stop in range(first + flush_threshold, last + 1, flush_threshold)
    )
    stored = source.stored_bounds(carried.tuples)
    if stored is not None:
        _bill_routing(source, stored, schedule, routed, bounds, partitions)
        return ()
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


def _bill_routing(source: HeapFile, stored, schedule, routed, bounds, partitions) -> None:
    """Route a scan whose stored pages (split at *stored*) are the carried
    rows without reading a page: the walk's reads and bucket flushes go out
    as one :meth:`~repro.storage.disk.SimulatedDisk.charge_runs` schedule --
    each *schedule* flush right after the read of its filling page, the
    final flushes after the last read, by partition -- and then each
    partition file takes its bucket whole, uncharged.  A bucket flushes
    whole pages until its last flush, so its pages are its rows cut by the
    page capacity, as the flushes cut them.
    """
    capacity, n_pages = partitions[0].spec.capacity, len(stored) - 1
    finals = [(bounds[-1], index, last) for index, last in enumerate(bounds[1:])]
    flushed = bounds[:-1]
    runs, read = [], 0
    for row, index, stop in schedule + finals:
        upto = min(bisect_right(stored, row), n_pages)  # through the filling page
        runs.append((source.extent, read, upto - read, False))
        page, rows = (flushed[index] - bounds[index]) // capacity, stop - flushed[index]
        runs.append((partitions[index].extent, page, -(-rows // capacity), True))
        read, flushed[index] = upto, stop
    source.disk.charge_runs(runs)
    for index, (first, last) in enumerate(pairwise(bounds)):
        bucket = routed[first:last]
        partitions[index].install(bucket.tuples, bucket, flush=True)
        partitions[index].carry(bucket)


def _route_columns(
    located_pages: Iterable[Tuple["ColumnarPage", Sequence[int]]],
    partitions: List[HeapFile],
    dictionary,
    flush_threshold: int,
) -> None:
    """Run the routed flush loop over ``(page, partition indices)`` pairs.

    Rows move as column entries -- gathers from the packed page buffers
    into per-bucket column runs -- and flush through
    :meth:`HeapFile.append_coded_run`.  The partitions *share the source
    file's dictionary*, so key codes pass through untranslated: no
    ``dictionary.code`` lookup, no tuple re-decomposition on the write
    side.  Buckets flush at exactly the thresholds of the tuple-routing
    path, so the charged TEMP-device access sequence is bit-identical.

    Each page's rows are grouped by partition index at once: a bucket holds
    its pending rows as ``(page, row-index array)`` segments instead of
    appending row by row; a flush gathers the column runs from the segments
    at once.  Flush *order* is what a row-by-row loop defines, so it is
    replayed exactly: within one page a bucket can cross the flush
    threshold at most once (a page holds at most ``spec.capacity`` rows and
    ``flush_threshold >= spec.capacity`` since every bucket has at least one
    buffer page), so the crossings are totally ordered by the input-row
    position at which each bucket fills -- flushing in that order issues the
    identical TEMP-device access sequence.
    """
    for partition in partitions:
        partition.dictionary = dictionary
    segments: List[List] = [[] for _ in partitions]
    sizes = [0] * len(partitions)

    def flush(bucket: int) -> None:
        starts: List[int] = []
        ends: List[int] = []
        codes: List[int] = []
        payloads: List = []
        for seg_page, rows in segments[bucket]:
            if rows is None:
                starts += seg_page.starts_list()
                ends += seg_page.ends_list()
                codes += seg_page.codes_list()
                payloads += seg_page.payloads
            else:
                starts += seg_page.starts_view()[rows].tolist()
                ends += seg_page.ends_view()[rows].tolist()
                codes += seg_page.codes_view()[rows].tolist()
                page_payloads = seg_page.payloads
                payloads += [page_payloads[i] for i in rows.tolist()]
        partitions[bucket].append_coded_run(starts, ends, codes, payloads)
        segments[bucket] = []
        sizes[bucket] = 0

    for page, page_located in located_pages:
        n = len(page)
        loc = np.asarray(page_located, dtype=np.int64)
        # Stable argsort groups the rows by bucket while keeping each
        # group's indices in input order.
        order = np.argsort(loc, kind="stable")
        grouped = loc[order]
        buckets, first = np.unique(grouped, return_index=True)
        boundaries = first.tolist() + [n]
        crossings = []
        for k, bucket in enumerate(buckets.tolist()):
            rows = order[boundaries[k] : boundaries[k + 1]]
            need = flush_threshold - sizes[bucket]
            if len(rows) >= need:
                # This bucket fills at input row rows[need - 1].
                crossings.append((int(rows[need - 1]), bucket, rows, need))
            else:
                # A whole-page group needs no gather at flush time.
                segments[bucket].append((page, rows if len(rows) < n else None))
                sizes[bucket] += len(rows)
        crossings.sort()
        for _row, bucket, rows, need in crossings:
            segments[bucket].append((page, rows[:need]))
            flush(bucket)
            rest = rows[need:]
            if len(rest):
                segments[bucket].append((page, rest))
                sizes[bucket] = len(rest)
    for bucket in range(len(partitions)):
        if sizes[bucket]:
            flush(bucket)
