"""Batch join kernels: the compute core of the ``"batch"`` execution modes.

Four operations dominate the partition sweep's in-memory work, each
vectorized over ``int64`` columns here:

* **key-equality probe** -- expand an inner page against the hash index of
  the outer block into candidate pairs (CSR gather over interned key ids);
* **interval intersection** -- ``[max(starts), min(ends)]`` with the
  emptiness mask, over whole pair columns;
* **owner-chronon filter** -- the exactly-once emission rule, as two
  comparisons of the owner chronons against the partition's *window*
  (:meth:`PartitionBoundaries.window`) instead of a per-pair binary search;
* **migration rows** -- ``overlaps_partition`` as the same two comparisons
  per row, deciding which tuples continue into the next sweep iteration's
  cache.  It runs per *page* (the main disk's access order depends on it),
  so it never pays a numpy call; the probe runs per *run* of pages, or once
  per billed pass in chunks of at most :data:`CANDIDATE_BUDGET` candidates.

The partitioner's per-tuple placement (``index_of_chronon`` of the storage
chronon) is the fifth kernel, :meth:`Kernels.locate`.

The kernels emit the tuple-at-a-time loops' values in their order -- pairs
ordered by (inner row, outer insertion order), migrations in page order --
so the surrounding sweep produces bit-identical results, cache contents,
and I/O charges.  The tuple engine of :mod:`repro.core.joiner` remains the
stdlib oracle they are tested against.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exec.batch import KeyInterner, PageBatch, RowRefs
from repro.model.vtuple import VTTuple
from repro.time.interval import Interval


#: Candidate slots one expansion may materialize: a probe over many rows
#: computes their windows or group counts once, then expands consecutive
#: rows in chunks of at most this many candidates (a row above it alone),
#: so its temporaries scale with the work, not with a row count.  The
#: fastest of 2^13 .. 2^17 on a 4k x 4k long-interval join (EXPERIMENTS.md).
CANDIDATE_BUDGET = 2**14


def candidate_chunks(counts) -> List[Tuple[int, int]]:
    """``(first row, end row)`` of consecutive rows expanding to at most
    :data:`CANDIDATE_BUDGET` of *counts* candidates each, a row above the
    budget alone."""
    cum = np.cumsum(counts)
    bounds: List[Tuple[int, int]] = []
    start = below = 0
    while start < cum.size:
        end = int(np.searchsorted(cum, below + CANDIDATE_BUDGET, side="right"))
        end = max(end, start + 1)
        bounds.append((start, end))
        start, below = end, int(cum[end - 1])
    return bounds


def expand_candidates(
    first, counts, starts, ends, outer, boundaries, part_index, direction, bounded=False
):
    """Expand consecutive rows into candidate slots and filter them.

    Row ``r`` takes positions ``first[r] .. first[r] + counts[r] - 1`` of
    the sorted *outer* ``(starts, ends)`` columns; a slot survives when the
    intervals intersect and, given *boundaries*, partition *part_index*
    owns the overlap.  Returns the survivors' ``(outer positions, rows,
    common starts, common ends)``, slot order kept.

    One ``repeat`` maps each slot to its row; the row's start and end, and
    its slots' outer positions, are gathered through that map, and the
    survivors' rows are the map's kept entries.  *bounded* says every
    slot's outer start is at most its row's end, as in a pruned window.
    Where the owner filter is then vacuous too -- no *boundaries*, or one
    partition -- a slot intersects iff its outer end is at least its row's
    start: one comparison, the overlap computed for the survivors only.
    """
    cum = np.cumsum(counts)
    total = int(cum[-1]) if cum.size else 0
    row = np.repeat(np.arange(counts.size), counts)
    pos = (first - (cum - counts))[row] + np.arange(total, dtype=np.int64)
    outer_starts, outer_ends = outer
    row_starts = starts[row]
    vacuous = boundaries is None or boundaries.n == 1
    if bounded and vacuous:
        kept = np.flatnonzero(outer_ends[pos] >= row_starts)
        pos, row = pos[kept], row[kept]
        common_start = np.maximum(outer_starts[pos], row_starts[kept])
        return pos, row, common_start, np.minimum(outer_ends[pos], ends[row])
    common_start = np.maximum(outer_starts[pos], row_starts)
    common_end = np.minimum(outer_ends[pos], ends[row])
    kept = common_start <= common_end
    if not vacuous:
        owner = common_end if direction == "backward" else common_start
        lo, hi = boundaries.window(part_index)
        kept &= (owner > lo) & (owner <= hi)
    kept = np.flatnonzero(kept)
    return pos[kept], row[kept], common_start[kept], common_end[kept]


def concat_chunks(chunks) -> Tuple:
    """A chunked probe's ``(outer rows, inner rows, common starts, common
    ends)`` as one set of columns, in chunk order."""
    parts = list(chunks)
    if len(parts) == 1:
        return parts[0]
    if not parts:
        return (np.empty(0, np.int64),) * 4
    return tuple(np.concatenate(column) for column in zip(*parts))


#: A matched pair ready for emission: (outer tuple, inner tuple, overlap
#: interval).  Emission order is (inner row, outer insertion order),
#: matching the tuple-at-a-time probe loop exactly.
Match = Tuple[VTTuple, VTTuple, Interval]


class PartitionBoundaries:
    """Partition end chronons, as a list and as an ``int64`` array.

    Prepared once per join from the :class:`~repro.core.intervals.PartitionMap`
    and shared by every kernel call; ``index_of_chronon`` is
    ``min(bisect_left(ends, c), n - 1)`` -- the same clamped lookup the map
    performs, lifted to whole columns.  For one *known* partition the lookup
    collapses to :meth:`window`.
    """

    __slots__ = ("ends", "ends_np", "n")

    def __init__(self, ends: Sequence[int]) -> None:
        self.ends: List[int] = list(ends)
        self.n = len(self.ends)
        if self.n == 0:
            raise ValueError("a partitioning needs at least one boundary")
        self.ends_np = np.array(self.ends, dtype=np.int64)

    def window(self, index: int) -> Tuple[float, float]:
        """``(lo, hi)`` of partition *index* under the map's edge clamping.

        ``index_of_chronon(c) == index`` iff ``lo < c <= hi``, and an
        interval overlaps the partition iff ``lo < end and start <= hi``.
        The first partition has ``lo = -inf`` and the last ``hi = +inf``.
        """
        lo = self.ends[index - 1] if index > 0 else float("-inf")
        hi = self.ends[index] if index < self.n - 1 else float("inf")
        return lo, hi


class _CsrProbeIndex:
    """CSR grouping of an outer block by interned key id.

    *columns* hands over the block's ``(key_ids, starts, ends)`` when the
    caller already holds them; the block is then kept as given.  *order*
    hands over the rows' stable sort by key id when the caller made it.
    """

    __slots__ = (
        "block",
        "order",
        "offsets",
        "counts",
        "starts_ordered",
        "ends_ordered",
        "n_groups",
    )

    def __init__(
        self, block: Sequence[VTTuple], interner: KeyInterner, columns=None, order=None
    ) -> None:
        if columns is not None:
            self.block = block
            key_ids, starts, ends = columns
        else:
            self.block = list(block)
            n = len(self.block)
            key_ids = np.fromiter(
                (interner.intern(tup.key) for tup in self.block), np.int64, count=n
            )
            starts = np.fromiter(
                (tup.valid.start for tup in self.block), np.int64, count=n
            )
            ends = np.fromiter(
                (tup.valid.end for tup in self.block), np.int64, count=n
            )
        self.n_groups = len(interner)
        # Stable sort keeps each key group in block (insertion) order, so
        # CSR gathers reproduce the probe_index list order exactly; on a
        # narrow unsigned key numpy's stable sort is a radix sort.
        if order is None:
            order = np.argsort(key_ids.astype(np.min_scalar_type(self.n_groups)), kind="stable")
        self.order = order
        self.counts = np.bincount(key_ids, minlength=self.n_groups).astype(np.int64)
        self.offsets = np.cumsum(self.counts) - self.counts
        # Interval columns pre-permuted into CSR position order, so the
        # probe's hot path gathers by contiguous-ish CSR positions and only
        # dereferences ``order`` for pairs that survive the filters.
        self.starts_ordered = starts[self.order]
        self.ends_ordered = ends[self.order]


class Kernels:
    """Vectorized kernels over ``int64`` columns."""

    # -- shared plumbing ---------------------------------------------------

    def make_interner(self) -> KeyInterner:
        return KeyInterner()

    def prepare_boundaries(self, partition_map) -> PartitionBoundaries:
        """Lift *partition_map* (or a plain end-chronon list) for batch use."""
        ends = getattr(partition_map, "_ends", partition_map)
        return PartitionBoundaries(ends)

    def page_batch(
        self,
        page: Sequence[VTTuple],
        interner: Optional[KeyInterner] = None,
        *,
        intern: bool = False,
    ) -> PageBatch:
        """The :class:`PageBatch` of *page*, decomposed tuple by tuple."""
        return PageBatch.from_tuples(page, interner, intern=intern)

    def run_batch(
        self, pages: Sequence[Sequence[VTTuple]], interner: Optional[KeyInterner] = None
    ) -> PageBatch:
        """One :class:`PageBatch` over a *run* of pages, flattened into one
        row sequence (a single page is its own run).

        Keys are *interned*, on the probe side too: the batch may travel on
        with its rows (see :class:`~repro.exec.batch.PageBatch`), and an id
        must mean the same key to every index it later meets.  Both probes
        ignore ids their index does not hold.
        """
        rows = pages[0] if len(pages) == 1 else [tup for page in pages for tup in page]
        return self.page_batch(rows, interner, intern=True)

    def migration_rows(
        self, page: Sequence[VTTuple], boundaries: PartitionBoundaries, next_index: int
    ) -> List[int]:
        """Rows of *page* whose interval overlaps partition *next_index*
        (clamped semantics), in page order.

        Two comparisons per row against the partition's window, in plain
        Python: this is the form for a page nobody holds columns of (the
        tuple engine's, a delivery that failed
        :meth:`~repro.exec.batch.PageBatch.matching`), where a numpy call's
        fixed cost exceeds the work of a small page.  Rows whose columns are
        carried are masked a stream at a time instead
        (:meth:`~repro.exec.batch.PageBatch.overlapping`).
        """
        lo, hi = boundaries.window(next_index)
        return [
            row
            for row, tup in enumerate(page)
            if lo < tup.valid.end and tup.valid.start <= hi
        ]

    def take(self, rows: Sequence[VTTuple], positions) -> Sequence[VTTuple]:
        """The rows of *rows* at *positions* (a probe's row column), in
        order: where the row objects are fetched.  References gather from
        their source in one object-array take; a lazy page materializes only
        the rows named."""
        if isinstance(rows, RowRefs):
            return rows.take(positions).objects()
        return [rows[at] for at in positions.tolist()]

    # -- the kernels -------------------------------------------------------

    def build_probe_index(self, block: Sequence[VTTuple], interner: KeyInterner):
        """Hash the outer *block* on the explicit join attributes."""
        return _CsrProbeIndex(block, interner)

    def probe(
        self,
        index,
        batch: PageBatch,
        boundaries: Optional[PartitionBoundaries] = None,
        part_index: Optional[int] = None,
        direction: str = "backward",
    ) -> List[Match]:
        """Probe *batch* against *index*: key equality + interval
        intersection, then (when *boundaries* is given) the exactly-once
        owner-chronon filter for partition *part_index*."""
        block = index.block
        inner_tuples = batch.tuples
        return [
            (block[o], inner_tuples[i], Interval(cs, ce))
            for o, i, cs, ce in zip(
                *(
                    column.tolist()
                    for column in self.probe_columns(
                        index, batch, boundaries, part_index, direction
                    )
                )
            )
        ]

    def probe_columns(
        self, index, batch, boundaries=None, part_index=None, direction="backward"
    ) -> Tuple:
        """:meth:`probe` as flat ``int64`` arrays ``(outer rows, inner rows,
        common starts, common ends)``, in the same emission order."""
        return concat_chunks(
            self.probe_column_chunks(index, batch, boundaries, part_index, direction)
        )

    def probe_column_chunks(
        self, index, batch, boundaries=None, part_index=None, direction="backward"
    ):
        """:meth:`probe_columns` per :func:`candidate_chunks` chunk of
        *batch*'s rows: the group counts once, then one expansion per chunk,
        yielding its surviving pairs (inner rows numbered in *batch*)."""
        if len(batch) == 0 or index.n_groups == 0 or not index.block:
            return
        key_ids = batch.key_ids
        known = (key_ids >= 0) & (key_ids < index.n_groups)
        safe_ids = np.where(known, key_ids, 0)
        counts = np.where(known, index.counts[safe_ids], 0)
        first = index.offsets[safe_ids]
        outer = (index.starts_ordered, index.ends_ordered)
        for lo, hi in candidate_chunks(counts):
            # Positions enumerate each group ascending, which (via the
            # stable sort) is block insertion order: the emission order.
            pos, rows, common_start, common_end = expand_candidates(
                first[lo:hi], counts[lo:hi], batch.starts[lo:hi], batch.ends[lo:hi],
                outer, boundaries, part_index, direction,
            )
            yield index.order[pos], rows + lo, common_start, common_end

    def _located(self, chronons, boundaries):
        return np.minimum(
            np.searchsorted(
                boundaries.ends_np, np.asarray(chronons, dtype=np.int64), side="left"
            ),
            boundaries.n - 1,
        )

    def locate(
        self, chronons: Sequence[int], boundaries: PartitionBoundaries
    ) -> List[int]:
        """Partition index of each chronon (clamped ``index_of_chronon``)."""
        return self._located(chronons, boundaries).tolist()

    def route(
        self, chronons: Sequence[int], boundaries: PartitionBoundaries
    ) -> Tuple[Sequence[int], List[int]]:
        """:meth:`locate` as one stable counting sort, a whole relation's
        Grace routing: ``(perm, counts)`` -- the rows partition by partition,
        in input order within each, and how many each partition receives."""
        # numpy's stable sort of a narrow unsigned key is a radix sort.
        narrow = np.min_scalar_type(boundaries.n - 1)
        located = self._located(chronons, boundaries).astype(narrow)
        counts = np.bincount(located, minlength=boundaries.n).tolist()
        return np.argsort(located, kind="stable"), counts


_KERNELS = Kernels()


def get_kernels() -> Kernels:
    """The process's kernels (stateless, so one instance serves every join)."""
    return _KERNELS


__all__ = [
    "CANDIDATE_BUDGET",
    "Kernels",
    "Match",
    "PartitionBoundaries",
    "get_kernels",
]
