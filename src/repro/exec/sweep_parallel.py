"""The ``"batch-parallel-sweep"`` probe executor: interval-pruned
whole-block probing with per-key-bucket lane fan-out.

The temporal migration that threads the sweep's iterations together is
inherently sequential -- iteration ``i+1`` consumes the tuple cache
iteration ``i`` wrote -- but *within* one partition the probe work
decomposes cleanly along the Grace hash buckets of the explicit join
attributes: an inner tuple can only match outer tuples of its own key
group.  This module exploits that twice:

* **Interval-pruned probe.**  The PR-1 batch kernels expand every inner row
  against *every* outer row of its key group (CSR gather) and filter
  afterwards; on temporally wide partitions with short intervals almost all
  candidates die in the intersection filter.  Here the outer block is
  sorted by ``(key group, start chronon)`` once per block, each group's
  maximum interval length is reduced with ``np.maximum.reduceat``, and each
  inner row then probes only the start-window ``[inner.start - maxlen,
  inner.end]`` of its group, located with two ``searchsorted`` calls on a
  composite ``group * stride + (start - min_start)`` key.  Candidates that
  cannot intersect are never materialized.  The exact intersection, the
  exactly-once owner filter, and the (inner row, outer insertion order)
  emission sort still run afterwards, so results are bit-identical to the
  oracle.  Blocks whose composite key would overflow ``int64`` fall back to
  the unpruned PR-1 CSR probe.
* **Lane fan-out.**  Key groups are dealt round-robin onto ``lanes`` lanes
  (``group_rank % lanes`` -- a deterministic function of the block, never
  Python's salted ``hash``).  Lanes are data-parallel and side-effect-free:
  each returns flat pair arrays, the parent concatenates and applies the
  final emission sort, so the output is a pure function of the input
  whatever the lane count or pool geometry.  With >= 2 effective workers
  the lanes of a page that clears :data:`MIN_LANE_ROWS` run on a
  ``multiprocessing`` pool, forked by the first such page; pool failure of
  any kind degrades to in-process execution of the identical computation.

All charged I/O stays in the caller (the sweep loop and its prefetch
pipeline); like the PR-1 kernels, everything here is pure in-memory
compute, which is what keeps the statistics independent of worker count.
"""

from __future__ import annotations

import multiprocessing
import os
from bisect import bisect_left, insort
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exec.backend import HAVE_NUMPY, np
from repro.exec.batch import CodeTranslator
from repro.exec.kernels import Kernels, Match, get_kernels
from repro.model.vtuple import VTTuple
from repro.resilience.supervisor import LANE_POOL_ERRORS
from repro.time.interval import Interval

#: Pairs-per-page threshold below which lanes always run in-process: pool
#: round-trip latency costs more than the probe itself.
MIN_LANE_ROWS = 2048

#: Composite-key headroom guard: ``n_groups * stride`` must stay below this
#: bound or the pruned index falls back to the unpruned CSR probe.
_COMPOSITE_LIMIT = 2**62

#: Tests set this to force multi-lane pools on machines with fewer cores
#: than requested workers (the result must not depend on it).
OVERSUBSCRIBE = False


def default_sweep_workers() -> int:
    """Worker-count default: the machine's cores, capped at 8."""
    return max(1, min(8, os.cpu_count() or 1))


def effective_sweep_workers(requested: Optional[int] = None) -> int:
    """Lanes actually used for *requested* workers on this machine.

    Oversubscribing a machine buys nothing for pure compute, so the count
    is clamped to the visible cores unless a test forces otherwise.
    """
    wanted = default_sweep_workers() if requested is None else max(1, requested)
    if OVERSUBSCRIBE:
        return wanted
    return max(1, min(wanted, os.cpu_count() or 1))


# -- numpy pruned index ------------------------------------------------------


class PrunedProbeIndex:
    """An outer block sorted by (key group, start) with window metadata.

    ``fallback`` is set (and every other field None) when the composite
    search key cannot fit ``int64``; the engine then routes the block
    through the unpruned PR-1 CSR probe.
    """

    __slots__ = (
        "block",
        "order",
        "uniq_ids",
        "n_groups",
        "starts_sorted",
        "ends_sorted",
        "comp",
        "grp_maxlen",
        "min_start",
        "stride",
        "fallback",
    )

    def __init__(self, block: Sequence[VTTuple], interner, translator=None) -> None:
        columnar = translator is not None and hasattr(block, "columns")
        # A ColumnarBlock stays packed (rows materialize on emission only);
        # anything else is snapshotted into a list as before.
        self.block = block if columnar else list(block)
        self.fallback = None
        n = len(self.block)
        if n == 0:
            self.order = np.empty(0, np.int64)
            self.uniq_ids = np.empty(0, np.int64)
            self.n_groups = 0
            self.starts_sorted = np.empty(0, np.int64)
            self.ends_sorted = np.empty(0, np.int64)
            self.comp = np.empty(0, np.int64)
            self.grp_maxlen = np.empty(0, np.int64)
            self.min_start = 0
            self.stride = 1
            return
        if columnar:
            key_ids, starts, ends = self.block.columns(translator)
        else:
            key_ids = np.fromiter(
                (interner.intern(tup.key) for tup in self.block), np.int64, count=n
            )
            starts = np.fromiter(
                (tup.valid.start for tup in self.block), np.int64, count=n
            )
            ends = np.fromiter((tup.valid.end for tup in self.block), np.int64, count=n)
        # Sort by (group, start); ties keep arbitrary relative order -- the
        # emission sort restores block insertion order from ``order``.
        self.order = np.lexsort((starts, key_ids))
        ids_sorted = key_ids[self.order]
        self.starts_sorted = starts[self.order]
        self.ends_sorted = ends[self.order]
        self.uniq_ids, group_first, counts = np.unique(
            ids_sorted, return_index=True, return_counts=True
        )
        self.n_groups = int(self.uniq_ids.size)
        self.grp_maxlen = np.maximum.reduceat(
            self.ends_sorted - self.starts_sorted, group_first
        )
        self.min_start = int(self.starts_sorted.min())
        span = int(self.starts_sorted.max()) - self.min_start
        self.stride = span + 2
        if self.n_groups * self.stride >= _COMPOSITE_LIMIT:
            from repro.exec.kernels import _NumpyProbeIndex

            self.fallback = _NumpyProbeIndex(self.block, interner)
            return
        rank = np.repeat(
            np.arange(self.n_groups, dtype=np.int64), counts.astype(np.int64)
        )
        self.comp = rank * self.stride + (self.starts_sorted - self.min_start)


def _lane_pairs(
    comp,
    starts_sorted,
    ends_sorted,
    grp_maxlen,
    min_start: int,
    stride: int,
    g,
    i_rows,
    i_starts,
    i_ends,
):
    """One lane's probe: window-search its inner rows, expand, intersect.

    Pure array-in/array-out (picklable for pool dispatch).  Returns
    ``(pair_inner_rows, pair_pos, common_starts, common_ends)`` where
    ``pair_pos`` indexes the *sorted* outer block; emission mapping and the
    owner filter stay in the caller, which holds the boundary metadata.
    """
    span_hi = stride - 2
    lo_off = np.clip(i_starts - grp_maxlen[g] - min_start, 0, span_hi + 1)
    hi_off = np.clip(i_ends - min_start, -1, span_hi)
    lo = np.searchsorted(comp, g * stride + lo_off, side="left")
    hi = np.searchsorted(comp, g * stride + hi_off, side="right")
    counts = np.maximum(hi - lo, 0)
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, np.int64)
        return empty, empty, empty, empty
    cum = np.cumsum(counts)
    group_start = cum - counts
    pos = np.repeat(lo - group_start, counts) + np.arange(total, dtype=np.int64)
    inner_starts = np.repeat(i_starts, counts)
    inner_ends = np.repeat(i_ends, counts)
    common_start = np.maximum(starts_sorted[pos], inner_starts)
    common_end = np.minimum(ends_sorted[pos], inner_ends)
    kept = np.nonzero(common_start <= common_end)[0]
    if kept.size == 0:
        empty = np.empty(0, np.int64)
        return empty, empty, empty, empty
    pair_inner = np.repeat(i_rows, counts)[kept]
    return pair_inner, pos[kept], common_start[kept], common_end[kept]


def _lane_task(args) -> Tuple:
    """Pool entry point: unpack one lane's work tuple and run it."""
    return _lane_pairs(*args)


class PickledLaneDispatcher:
    """The lane transport: one pickled task per lane through the pool.

    Each task carries the pruned index's columns plus the lane's slice of
    the page; the matched-pair arrays are pickled back.  Under a
    :class:`~repro.resilience.supervisor.LaneSupervisor` the dispatch goes
    through its supervised ``map`` (death, hang and error detection,
    deterministic re-dispatch, quarantine); without one it is a bare
    ``pool.map``.
    """

    __slots__ = ("pool", "_supervisor")

    def __init__(self, pool, *, supervisor=None) -> None:
        self.pool = pool
        self._supervisor = supervisor

    def __call__(self, shared, lane_tasks) -> List[Tuple]:
        tasks = [shared + task for task in lane_tasks]
        if self._supervisor is not None:
            return self._supervisor.map(_lane_task, tasks, label="pickled-lanes")
        return self.pool.map(_lane_task, tasks)


def probe_pruned(
    index: PrunedProbeIndex,
    key_ids,
    starts,
    ends,
    boundaries,
    part_index: int,
    direction: str,
    *,
    lanes: int = 1,
    dispatch=None,
) -> Tuple:
    """Probe one inner page's columns against a pruned index.

    Returns ``(pair_outer_rows, pair_inner_rows, common_starts,
    common_ends)`` in the oracle's emission order -- (inner row, outer
    block insertion order) -- as flat arrays.  A page with at least
    :data:`MIN_LANE_ROWS` matching rows is dealt onto *lanes* lanes, which
    run through *dispatch* (a ``dispatch(shared, lane_tasks)`` callable,
    e.g. a :class:`PickledLaneDispatcher`) when given and in-process
    otherwise.  The output is identical for every lane count, dispatched
    or not.
    """
    empty = np.empty(0, np.int64)
    n = int(key_ids.shape[0]) if hasattr(key_ids, "shape") else len(key_ids)
    if n == 0 or index.n_groups == 0:
        return empty, empty, empty, empty
    g = np.searchsorted(index.uniq_ids, key_ids)
    g_safe = np.minimum(g, index.n_groups - 1)
    valid = (key_ids >= 0) & (index.uniq_ids[g_safe] == key_ids)
    rows = np.nonzero(valid)[0]
    if rows.size == 0:
        return empty, empty, empty, empty
    g = g_safe[rows]
    i_starts = np.asarray(starts, dtype=np.int64)[rows]
    i_ends = np.asarray(ends, dtype=np.int64)[rows]

    shared = (
        index.comp,
        index.starts_sorted,
        index.ends_sorted,
        index.grp_maxlen,
        index.min_start,
        index.stride,
    )
    lanes = max(1, lanes)
    if lanes == 1 or rows.size < MIN_LANE_ROWS:
        parts = [_lane_pairs(*shared, g, rows, i_starts, i_ends)]
    else:
        lane_of = g % lanes
        lane_tasks = []
        for lane in range(lanes):
            members = np.nonzero(lane_of == lane)[0]
            if members.size:
                lane_tasks.append(
                    (g[members], rows[members], i_starts[members], i_ends[members])
                )
        if dispatch is not None:
            parts = dispatch(shared, lane_tasks)
        else:
            parts = [_lane_pairs(*shared, *task) for task in lane_tasks]

    pair_inner = np.concatenate([p[0] for p in parts]) if parts else empty
    if pair_inner.size == 0:
        return empty, empty, empty, empty
    pos = np.concatenate([p[1] for p in parts])
    common_start = np.concatenate([p[2] for p in parts])
    common_end = np.concatenate([p[3] for p in parts])

    if boundaries is not None:
        owner = common_end if direction == "backward" else common_start
        lo, hi = boundaries.window(part_index)
        owned = np.nonzero((owner > lo) & (owner <= hi))[0]
        if owned.size == 0:
            return empty, empty, empty, empty
        pair_inner = pair_inner[owned]
        pos = pos[owned]
        common_start = common_start[owned]
        common_end = common_end[owned]

    pair_outer = index.order[pos]
    # Restore the oracle's emission order: inner row ascending, then outer
    # block insertion order (the lanes and the start-sorted windows both
    # scrambled it).
    perm = np.lexsort((pair_outer, pair_inner))
    return pair_outer[perm], pair_inner[perm], common_start[perm], common_end[perm]


# -- pure-Python pruned index ------------------------------------------------


class PrunedProbeIndexPython:
    """Per-key start-sorted entry lists with window metadata (no numpy)."""

    __slots__ = ("block", "groups", "maxlen")

    def __init__(self, block: Sequence[VTTuple]) -> None:
        self.block = list(block)
        #: key -> (starts list, [(start, end, block row)]) sorted by start.
        self.groups: Dict[Tuple, Tuple[List[int], List[Tuple[int, int, int]]]] = {}
        self.maxlen: Dict[Tuple, int] = {}
        staging: Dict[Tuple, List[Tuple[int, int, int]]] = {}
        for row, tup in enumerate(self.block):
            staging.setdefault(tup.key, []).append(
                (tup.valid.start, tup.valid.end, row)
            )
        for key, entries in staging.items():
            entries.sort()
            self.groups[key] = ([entry[0] for entry in entries], entries)
            self.maxlen[key] = max(end - start for start, end, _ in entries)


def probe_pruned_python(
    index: PrunedProbeIndexPython,
    page: Sequence[VTTuple],
    boundaries,
    part_index: int,
    direction: str,
) -> List[Tuple[int, int, int, int]]:
    """The numpy-free window probe: identical output, bisect windows.

    Returns ``(outer row, inner row, common start, common end)`` tuples in
    the oracle's emission order.
    """
    backward = direction == "backward"
    lo_own, hi_own = (
        boundaries.window(part_index) if boundaries is not None else (None, None)
    )
    out: List[Tuple[int, int, int, int]] = []
    for row, inner_tup in enumerate(page):
        group = index.groups.get(inner_tup.key)
        if group is None:
            continue
        starts_list, entries = group
        i_start = inner_tup.valid.start
        i_end = inner_tup.valid.end
        lo = bisect_left(starts_list, i_start - index.maxlen[inner_tup.key])
        for outer_start, outer_end, outer_row in entries[lo:]:
            if outer_start > i_end:
                break
            cs = outer_start if outer_start > i_start else i_start
            ce = outer_end if outer_end < i_end else i_end
            if cs > ce:
                continue
            if lo_own is not None and not lo_own < (ce if backward else cs) <= hi_own:
                continue
            out.append((outer_row, row, cs, ce))
    out.sort(key=lambda pair: (pair[1], pair[0]))
    return out


# -- the engine --------------------------------------------------------------


class PipelinedSweepEngine:
    """Drop-in probe engine for the pipelined sweep modes.

    Satisfies the same ``build_index`` / ``overlapping_rows`` / ``probe``
    contract as the tuple and batch engines of :mod:`repro.core.joiner`
    (duck-typed -- all I/O stays in the caller) and emits bit-identical
    matches and migration rows; only the in-memory algorithm and its
    parallelism differ.
    """

    def __init__(
        self,
        partition_map,
        direction: str,
        *,
        workers: Optional[int] = None,
        kernels: Optional[Kernels] = None,
        obs=None,
        interner=None,
        supervisor=None,
        report=None,
    ) -> None:
        self._kernels = kernels if kernels is not None else get_kernels()
        self.boundaries = self._kernels.prepare_boundaries(partition_map)
        # An injected interner (the service's epoch-keyed shared one) skips
        # the rebuild-per-join churn; id values never affect results, so
        # sharing is sound (see KeyInterner docstring).
        self._interner = interner if interner is not None else self._kernels.make_interner()
        self._translator = (
            CodeTranslator(self._interner) if self._kernels.use_numpy else None
        )
        self._direction = direction
        # A LaneSupervisor owns the pool (and the lane count, which its
        # quarantine ladder may shrink mid-sweep); without one the engine
        # manages a bare pool exactly as before.
        self.supervision = supervisor
        self._lanes = effective_sweep_workers(workers)
        self._pool = None
        self._pool_broken = self._kernels.use_numpy is False  # lanes ship arrays
        #: Page probes that fanned out to the pool (not pages probed).
        self.pool_dispatches = 0
        self.pool_fallbacks = 0
        # Observation only (trace events on pool lifecycle transitions);
        # the probe computation never consults it.
        self._obs = obs
        # Degradation sink (lane failures, pool fallbacks); observation
        # only -- the probe computation never consults it.
        self._report = report

    # -- pool management ----------------------------------------------------

    @property
    def lanes(self) -> int:
        """Current lane count (shrinks when the supervisor quarantines)."""
        if self.supervision is not None:
            return self.supervision.lanes
        return self._lanes

    def _ensure_pool(self):
        if self.supervision is not None:
            pool = self.supervision.ensure_pool()
            if pool is None and not self._pool_broken:
                # Retired (or never spawnable): probes run in-process from
                # here on.  The supervisor already recorded why.
                self._pool_broken = True
                self.pool_fallbacks += 1
            return pool
        if self._pool is None and not self._pool_broken and self.lanes >= 2:
            try:
                self._pool = multiprocessing.get_context().Pool(processes=self.lanes)
                if self._obs is not None:
                    self._obs.event("pool-start", lanes=self.lanes)
            except LANE_POOL_ERRORS:
                # Restricted environments (sandboxes, some CI runners)
                # cannot spawn; same computation, one process.
                self._pool_broken = True
                self.pool_fallbacks += 1
                self._degrade("pool-fallback", "lane pool could not be spawned")
                if self._obs is not None:
                    self._obs.event("pool-fallback", reason="spawn-failed")
        return self._pool

    def _degrade(self, kind: str, detail: str) -> None:
        if self._report is not None:
            self._report.record_degradation(kind, detail)

    def _dispatch_lanes(self, shared, lane_tasks) -> List[Tuple]:
        """``probe_pruned``'s fan-out hook.

        Reached only by a page that clears :data:`MIN_LANE_ROWS`, so a sweep
        whose pages never do forks no pool at all.
        """
        pool = self._ensure_pool()
        if pool is None:
            return [_lane_pairs(*shared, *task) for task in lane_tasks]
        self.pool_dispatches += 1
        dispatcher = PickledLaneDispatcher(pool, supervisor=self.supervision)
        return dispatcher(shared, lane_tasks)

    def close(self) -> None:
        """Shut the lane pool down (idempotent; the sweep's finally calls it)."""
        if self.supervision is not None:
            self.supervision.close()
        if self._pool is not None:
            try:
                self._pool.terminate()
                self._pool.join()
            except Exception:
                pass
            self._pool = None

    # -- engine contract ----------------------------------------------------

    @property
    def supports_columnar_blocks(self) -> bool:
        """Whether :meth:`build_index` consumes packed ColumnarBlocks."""
        return self._kernels.use_numpy

    def build_index(self, block: Sequence[VTTuple]):
        if self._kernels.use_numpy:
            return PrunedProbeIndex(block, self._interner, translator=self._translator)
        return PrunedProbeIndexPython(block)

    def overlapping_rows(self, rows: Sequence[VTTuple], index: int) -> List[int]:
        return self._kernels.migration_rows(rows, self.boundaries, index)

    def probe(
        self, index_obj, pages: Sequence[Sequence[VTTuple]], part_index: int
    ) -> List[Match]:
        batch = self._kernels.run_batch(
            pages, self._interner, translator=self._translator
        )
        if self._kernels.use_numpy:
            return self._probe_numpy(index_obj, batch, part_index)
        rows = batch.tuples
        return [
            (index_obj.block[o], rows[i], Interval(cs, ce))
            for o, i, cs, ce in probe_pruned_python(
                index_obj, rows, self.boundaries, part_index, self._direction
            )
        ]

    def _probe_numpy(self, index_obj: PrunedProbeIndex, batch, part_index: int):
        if index_obj.fallback is not None:
            return self._kernels.probe(
                index_obj.fallback, batch, self.boundaries, part_index, self._direction
            )
        fan_out = self.lanes >= 2 and not self._pool_broken
        try:
            pair_outer, pair_inner, cs, ce = probe_pruned(
                index_obj,
                batch.key_ids,
                batch.starts,
                batch.ends,
                self.boundaries,
                part_index,
                self._direction,
                lanes=self.lanes if fan_out else 1,
                dispatch=self._dispatch_lanes if fan_out else None,
            )
        except LANE_POOL_ERRORS:
            # An unsupervised pool dying surfaces here (the supervisor
            # recovers these internally); degrade to one process for the
            # rest of the sweep -- identical computation, same result.
            self.close()
            self._pool_broken = True
            self.pool_fallbacks += 1
            self._degrade("pool-fallback", "lane pool failed mid-dispatch")
            if self._obs is not None:
                self._obs.event("pool-fallback", reason="worker-died")
            pair_outer, pair_inner, cs, ce = probe_pruned(
                index_obj,
                batch.key_ids,
                batch.starts,
                batch.ends,
                self.boundaries,
                part_index,
                self._direction,
            )
        block = index_obj.block
        inner_tuples = batch.tuples
        return [
            (block[o], inner_tuples[i], Interval(s, e))
            for o, i, s, e in zip(
                pair_outer.tolist(), pair_inner.tolist(), cs.tolist(), ce.tolist()
            )
        ]


__all__ = [
    "MIN_LANE_ROWS",
    "PickledLaneDispatcher",
    "PipelinedSweepEngine",
    "PrunedProbeIndex",
    "PrunedProbeIndexPython",
    "default_sweep_workers",
    "effective_sweep_workers",
    "probe_pruned",
    "probe_pruned_python",
]
