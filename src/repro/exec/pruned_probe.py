"""The interval-pruned probe: never materialize a candidate that cannot
intersect.

The CSR kernels of :mod:`repro.exec.kernels` expand every inner row against
*every* outer row of its key group and filter afterwards; on temporally
wide partitions with short intervals almost all candidates die in the
intersection filter.  Here the outer block is sorted once per block by one
composite ``key_id * stride + (start - min_start)`` key, each key group's
maximum interval length is reduced with ``np.maximum.reduceat``, and a
dense table maps key ids to groups (its last slot meaning "no group").
Each inner row then probes only the start-window ``[inner.start - maxlen,
inner.end]`` of its group, located with two ``searchsorted`` calls on the
sorted composite, its needles sorted first (a billed sweep pass probes
tens of thousands of rows in random order at once) and the windows
scattered back to row order.  The exact intersection and the exactly-once
owner filter then run per chunk of consecutive rows holding at most
:data:`~repro.exec.kernels.CANDIDATE_BUDGET` candidates, so results are
bit-identical to the oracle and no expansion outgrows the budget.  A
window bounds its candidates' starts by the row's end, so where the owner
filter is vacuous (one partition) intersection is one comparison of the
outer end with the row's start (:func:`~repro.exec.kernels.expand_candidates`).

Rows expand in order and each window in sorted order.  The build notes
whether that is block order too -- every key group's rows ascending in
start, as an endpoint-sorted relation's are (``in_order``) -- and such a
block's chunks are yielded as expanded.  Any other block's chunks take
the (inner row, outer insertion order) emission sort.

The window search costs a fixed ~20 numpy calls more than the CSR probe,
which only pays where windows exclude something.  So the index decides per
block (a sweep step's whole outer partition), before the composite sort,
on its rows grouped by one radix sort of their key ids: a key group whose
longest interval covers its whole span of starts cannot be pruned (a
single-row group never can), and a block with most of its rows in such
groups -- the paper's long-lived regime, ~1.2 rows per key -- carries the
CSR index instead, built on that grouping.  So does a block whose
composite key would overflow ``int64``.

Like the kernels, everything here is pure in-memory compute: all charged
I/O stays in the caller (the sweep loop of :mod:`repro.core.joiner`).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.exec.kernels import _CsrProbeIndex, candidate_chunks, concat_chunks, expand_candidates
from repro.model.vtuple import VTTuple

#: Composite-key headroom guard: ``(largest key id + 1) * stride * rows``
#: must stay below this bound or the pruned index falls back to the
#: unpruned CSR probe.
_COMPOSITE_LIMIT = 2**62


class PrunedProbeIndex:
    """An outer block sorted by (key group, start) with window metadata.

    ``csr`` is set, and the block probed through the unpruned CSR kernel
    instead, when pruning cannot pay on this block or the composite search
    key cannot fit ``int64`` (see the module docstring).  ``in_order`` is
    set when each key group's sorted rows are in block order, so a probe
    emits its windows without an emission sort.
    """

    __slots__ = (
        "block",
        "order",
        "uniq_ids",
        "group_of",
        "n_groups",
        "starts_sorted",
        "ends_sorted",
        "comp",
        "grp_maxlen",
        "min_start",
        "stride",
        "in_order",
        "csr",
    )

    def __init__(self, block: Sequence[VTTuple], interner, columns) -> None:
        """Index *block* from its ``(key_ids, starts, ends)`` *columns*.

        The rows are kept as given -- a list, or references -- and never
        read here.
        """
        self.block = block
        self.csr = None
        self.in_order = False
        n = len(block)
        if n == 0:
            self.order = np.empty(0, np.int64)
            self.uniq_ids = np.empty(0, np.int64)
            self.group_of = np.zeros(1, np.int64)
            self.n_groups = 0
            self.starts_sorted = np.empty(0, np.int64)
            self.ends_sorted = np.empty(0, np.int64)
            self.comp = np.empty(0, np.int64)
            self.grp_maxlen = np.empty(0, np.int64)
            self.min_start = 0
            self.stride = 1
            return
        key_ids, starts, ends = columns
        self.min_start = int(starts.min())
        self.stride = int(starts.max()) - self.min_start + 2
        # Rows alone in their key group can never be pruned; where they are
        # the majority, or the composite key cannot fit, the verdict is in
        # before the sort is paid for.
        id_counts = np.bincount(key_ids)
        singles = np.count_nonzero(id_counts == 1)
        if 2 * singles > n or id_counts.size * self.stride * n >= _COMPOSITE_LIMIT:
            self.csr = _CsrProbeIndex(self.block, interner, columns=columns)
            return
        # A group whose longest interval covers its span of starts cannot be
        # pruned.  Grouped by one stable sort of the narrow key ids (a radix
        # sort), the verdict is in before the composite sort is paid for.
        self.uniq_ids = np.flatnonzero(id_counts)
        self.n_groups = int(self.uniq_ids.size)
        sizes = id_counts[self.uniq_ids]
        group_first = np.cumsum(sizes) - sizes
        by_key = np.argsort(key_ids.astype(np.min_scalar_type(id_counts.size)), kind="stable")
        grouped = starts[by_key]
        self.grp_maxlen = np.maximum.reduceat((ends - starts)[by_key], group_first)
        span = np.maximum.reduceat(grouped, group_first)
        span -= np.minimum.reduceat(grouped, group_first)
        if 2 * int(sizes[self.grp_maxlen < span].sum()) < n:
            self.csr = _CsrProbeIndex(self.block, interner, columns=columns, order=by_key)
            return
        # The row as the lowest digit of the composite key makes every key
        # distinct, so one plain sort yields the order and the sorted key,
        # equal (key, start) pairs in block order: the order the emission
        # sort restores, which then finds its input presorted.
        comp = key_ids * self.stride + (starts - self.min_start)
        self.comp, self.order = np.divmod(np.sort(comp * n + np.arange(n)), n)
        # In order when every key group's sorted rows ascend in the block
        # (an endpoint-sorted relation's do): the steps between groups aside.
        rising = self.order[1:] > self.order[:-1]
        rising[group_first[1:] - 1] = True
        self.in_order = bool(rising.all())
        self.starts_sorted = starts[self.order]
        self.ends_sorted = ends[self.order]
        # Key id -> group, dense; the extra last slot is "no group".
        self.group_of = np.full(id_counts.size + 1, self.n_groups, np.int64)
        self.group_of[self.uniq_ids] = np.arange(self.n_groups)


def probe_pruned(
    index: PrunedProbeIndex,
    key_ids,
    starts,
    ends,
    boundaries,
    part_index: int,
    direction: str,
) -> Tuple:
    """Probe rows given as columns against a pruned index.

    Window-search each inner row in its key group, expand, intersect, apply
    the owner filter.  Returns ``(pair_outer_rows, pair_inner_rows,
    common_starts, common_ends)`` in the oracle's emission order -- (inner
    row, outer block insertion order) -- as flat arrays.
    """
    return concat_chunks(
        probe_pruned_chunks(index, key_ids, starts, ends, boundaries, part_index, direction)
    )


def probe_pruned_chunks(
    index: PrunedProbeIndex, key_ids, starts, ends, boundaries, part_index: int, direction: str
):
    """:func:`probe_pruned` per :func:`~repro.exec.kernels.candidate_chunks`
    chunk: the windows of all rows once, then one expansion per chunk,
    yielding its surviving pairs (inner rows numbered in the input)."""
    if len(key_ids) == 0 or index.n_groups == 0:
        return
    # -1 (a key the block never saw) indexes the table's last slot, the
    # no-group sentinel, and so does every id past the block's largest.
    table = index.group_of
    g = table[np.minimum(key_ids, table.size - 1)]
    rows = np.flatnonzero(g < index.n_groups)
    if rows.size == 0:
        return
    g = g[rows]
    i_starts = np.asarray(starts, dtype=np.int64)[rows]
    i_ends = np.asarray(ends, dtype=np.int64)[rows]

    # Window offsets, clamped into the group's own slot of the composite key.
    min_start = index.min_start
    stride = index.stride
    lo_off = np.minimum(
        np.maximum(i_starts - index.grp_maxlen[g] - min_start, 0), stride - 1
    )
    hi_off = np.minimum(np.maximum(i_ends - min_start, -1), stride - 2)
    base = index.uniq_ids[g] * stride
    lo_needles, hi_needles = base + lo_off, base + hi_off
    # Sorted needles walk the composite key once instead of jumping about
    # it; the lower ends' order nearly sorts the upper ends too.
    order = np.argsort(lo_needles)
    lo, hi = np.empty_like(order), np.empty_like(order)
    lo[order] = np.searchsorted(index.comp, lo_needles[order], side="left")
    hi[order] = np.searchsorted(index.comp, hi_needles[order], side="right")
    counts = np.maximum(hi - lo, 0)
    outer, n_block = (index.starts_sorted, index.ends_sorted), len(index.block)
    for first, last in candidate_chunks(counts):
        # A window's starts are at most its row's end: the expansion is bounded.
        pos, chunk_rows, common_start, common_end = expand_candidates(
            lo[first:last], counts[first:last], i_starts[first:last], i_ends[first:last],
            outer, boundaries, part_index, direction, True,
        )
        pair_inner = rows[chunk_rows + first]
        pair_outer = index.order[pos]
        if index.in_order:  # each window lists its rows in block order
            yield pair_outer, pair_inner, common_start, common_end
            continue
        # Restore the oracle's emission order: inner row ascending, then
        # outer block insertion order (the start-sorted windows scrambled it).
        perm = np.argsort(pair_inner * n_block + pair_outer)
        yield pair_outer[perm], pair_inner[perm], common_start[perm], common_end[perm]


__all__ = [
    "PrunedProbeIndex",
    "probe_pruned",
    "probe_pruned_chunks",
]
