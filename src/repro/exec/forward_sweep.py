"""Forward-scan sweep join over endpoint-sorted interval columns.

The partition join (Figure 2) pays Grace-partitioning I/O even when both
inputs are already sorted by ``(start, end)``.  Following Piatov et al.
(PAPERS.md, "Cache-Efficient Sweeping-Based Interval Joins"), this module
evaluates any :class:`~repro.algebra.predicates.TemporalPredicate` as one
forward scan over the two relations' merged endpoint streams, computed as
binary searches over their columns:

* Both inputs are consumed in ``(start, end)`` order -- directly when the
  heap file's endpoint-sortedness metadata says the data arrived sorted,
  otherwise after one charged external-sort pass (phase ``"sort"``: read
  the base file, write a sorted TEMP run, re-scan the run in the join
  phase -- three passes instead of one).  A scan of a file whose pages
  hold the rows it carries is billed off those columns
  (:meth:`~repro.storage.heapfile.HeapFile.bill_scan`); on a disk with a
  fault injector or checksums it reads its pages.

* The scan merges the two sides on ``(start, end)``, R first on ties.  Each
  intersecting pair is found once, from the row that starts first: the s
  rows of its key starting in ``[r.start, r.end]``, and the r rows of its
  key starting in ``(s.start, s.end]``.  Each is a window of the other
  side's rows grouped by key and sorted on start, its two bounds found for
  all rows by ``searchsorted`` (:class:`_KeyGroups`); the predicate's 3x3
  **sign grid** of :mod:`repro.algebra.predicates` then filters every pair
  at once.

* The four disjoint Allen relations (before/meets/met_by/after) take the
  same windows over s grouped by key on start (before, meets) or on end
  (met_by, after).

* Pairs come out in scan order: an intersecting pair at the scan position
  of its later row, partners of one row by ascending id (a row's position
  in its side's order); the disjoint pairs follow in ``(r, s)`` order.
  They are emitted as one :class:`~repro.model.match_block.MatchBlock`
  through the partition sweep's emission
  (:func:`repro.core.joiner.emit_matches`), so rows are built only when
  the result is read, and the result, the counters and every
  ``repro_sweep_*`` metric are deterministic.

A row is *open* from its scan step until the first later row of the other
side with its key starts after its end; ``cache_tuples_peak`` reports the
largest open population.  For the natural-join predicate
(``"intersects"``) the result *multiset* and cardinality are identical
with every partition execution mode; the emission order differs (scan
order here, partition-ownership order there), so compare sorted, exactly
as with the degraded nested-loop fallback.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import repeat
from typing import Dict, Iterator, Tuple

import numpy as np

from repro.algebra.predicates import TemporalPredicate, resolve_predicate
from repro.exec.batch import PageBatch
from repro.exec.kernels import get_kernels
from repro.model.match_block import MatchBlock
from repro.time.allen import AllenRelation

__all__ = ["forward_sweep_join"]


@contextmanager
def _phase(tracker, obs, name: str) -> Iterator[None]:
    """A tracker phase mirrored onto the observability runtime (local twin
    of the helper in :mod:`repro.core.partition_join`, which this module
    cannot import without a cycle)."""
    with tracker.phase(name):
        if obs is not None:
            with obs.phase(name):
                yield
        else:
            yield


# ---------------------------------------------------------------------------
# Gathering and sorting
# ---------------------------------------------------------------------------


def _gather(heap_file) -> PageBatch:
    """Scan *heap_file* (charged) into a batch keyed by a dictionary of its
    own: the columns it carries when its pages hold those rows (the scan
    billed), else its pages read one by one and split."""
    carried = heap_file.carried
    if carried is not None and carried.keys is not None and heap_file.bill_scan(carried.tuples):
        return carried
    return PageBatch.keyed([tup for page in heap_file.scan_pages() for tup in page])


def _write_sorted_run(heap_file, layout, name: str):
    """One external-sort pass: charged base scan, charged sorted TEMP run
    that carries its columns.

    Returns the run file; the join phase re-scans it sequentially, so an
    unsorted input costs three passes where a sorted one costs one.
    """
    batch = _gather(heap_file)
    batch = batch.take(np.lexsort((batch.ends, batch.starts)))
    run = layout.temp_file(name, capacity_tuples=heap_file.n_tuples)
    run.append_many(batch.tuples, batch)
    run.flush()
    run.carry(batch)
    return run


# ---------------------------------------------------------------------------
# Window searches
# ---------------------------------------------------------------------------


class _KeyGroups:
    """One side's rows sorted on ``(key code, rank)``, searched on the
    composite ``(code + 1) * stride + rank``.

    Ranks are positions on the join's sorted chronon axis, so the composite
    stays in ``int64`` where ``code * stride + chronon`` overflows at
    ``FOREVER``; the ``+ 1`` gives code ``-1`` (a key r lacks) a group.
    """

    __slots__ = ("order", "_composite", "_stride")

    def __init__(self, codes: np.ndarray, ranks: np.ndarray, stride: int) -> None:
        self.order = np.lexsort((ranks, codes))
        self._stride = stride
        self._composite = (codes[self.order] + 1) * stride + ranks[self.order]

    def first(self, codes: np.ndarray, ranks) -> np.ndarray:
        """Sorted position of the first row of key *codes* whose rank is at
        least *ranks* (needles in ascending order search fastest)."""
        return np.searchsorted(self._composite, (codes + 1) * self._stride + ranks)

    def key_end(self, codes: np.ndarray) -> np.ndarray:
        return self.first(codes + 1, 0)

    def rows(self, lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(needle, row)`` per slot of the windows ``[lo, hi)``."""
        counts = hi - lo
        ends = np.cumsum(counts)
        total = int(ends[-1]) if len(ends) else 0
        slots = np.arange(total, dtype=np.int64) + np.repeat(lo - (ends - counts), counts)
        return np.repeat(np.arange(len(lo), dtype=np.int64), counts), self.order[slots]


class _Scan:
    """Both sides in scan order: s's key codes in r's dictionary, each
    chronon's rank on the join's axis, each row's position in the merged
    scan, and each side grouped by key on start.  Needles go in their
    side's grouped order, ascending."""

    def __init__(self, r: PageBatch, s: PageBatch) -> None:
        self.r, self.s = r, s
        r_codes, s_codes = r.key_ids, s.key_ids
        if s.keys is not r.keys:  # a key r lacks is -1, which no r row has
            ids = map(r.keys._ids.get, s.keys._ids, repeat(-1))
            s_codes = np.fromiter(ids, np.int64, len(s.keys))[s_codes]
        self.axis, ranks = np.unique(
            np.concatenate([r.starts, r.ends, s.starts, s.ends]), return_inverse=True
        )
        stride = self.stride = len(self.axis) + 1
        r_starts, r_ends, s_starts, s_ends = np.split(ranks, np.cumsum([len(r), len(r), len(s)]))
        # Merged on (start, end), R first on ties: an r row follows the s
        # rows of a smaller span, an s row the r rows of a span no larger.
        r_spans, s_spans = r_starts * stride + r_ends, s_starts * stride + s_ends
        self.r_at = np.arange(len(r)) + np.searchsorted(s_spans, r_spans, "left")
        self.s_at = np.arange(len(s)) + np.searchsorted(r_spans, s_spans, "right")
        self.r_groups = _KeyGroups(r_codes, r_starts, stride)
        self.s_groups = _KeyGroups(s_codes, s_starts, stride)
        self.s_codes = s_codes
        self.r_ranks, self.s_ranks = (r_starts, r_ends), (s_starts, s_ends)
        order = self.r_groups.order
        self.r_needles = r_codes[order], r_starts[order], r_ends[order]
        order = self.s_groups.order
        self.s_needles = s_codes[order], s_starts[order], s_ends[order]

    def intersecting(self, pred: TemporalPredicate):
        """Accepted ``(r, s)`` pairs of intersecting relations in scan
        order, and ``(closed rows, peak open rows)``: a row is open from its
        scan step until the first later row of the other side with its key
        starts after its end."""
        r_groups, s_groups = self.r_groups, self.s_groups
        r_codes, r_starts, r_ends = self.r_needles
        s_codes, s_starts, s_ends = self.s_needles
        r_closing = s_groups.first(r_codes, r_ends + 1)
        s_closing = r_groups.first(s_codes, s_ends + 1)
        # Each pair once, from the row that starts first.
        r_first, s_later = s_groups.rows(s_groups.first(r_codes, r_starts), r_closing)
        s_first, r_later = r_groups.rows(r_groups.first(s_codes, s_starts + 1), s_closing)
        ri = np.concatenate([r_groups.order[r_first], r_later])
        si = np.concatenate([s_later, s_groups.order[s_first]])
        # On ranks: a chronon difference overflows int64 past 2**63.
        (r_start_ranks, r_end_ranks), (s_start_ranks, s_end_ranks) = self.r_ranks, self.s_ranks
        kept = np.asarray(pred.sign_table, dtype=bool)[
            np.sign(r_start_ranks[ri] - s_start_ranks[si]) + 1,
            np.sign(r_end_ranks[ri] - s_end_ranks[si]) + 1,
        ]
        ri, si = ri[kept], si[kept]
        r_at, s_at = self.r_at[ri], self.s_at[si]
        order = np.lexsort((np.where(r_at > s_at, si, ri), np.maximum(r_at, s_at)))

        closed_r = r_closing < s_groups.key_end(r_codes)
        closed_s = s_closing < r_groups.key_end(s_codes)
        steps = np.concatenate([
            self.s_at[s_groups.order[r_closing[closed_r]]],
            self.r_at[r_groups.order[s_closing[closed_s]]],
        ])
        n = len(self.r) + len(self.s)
        open_rows = np.arange(1, n + 1) - np.cumsum(np.bincount(steps, minlength=n))
        peak = int(open_rows.max()) if n else 0
        return (ri[order], si[order]), (len(steps), peak)

    def disjoint(self, pred: TemporalPredicate) -> Tuple[np.ndarray, np.ndarray]:
        """Accepted ``(r, s)`` pairs of disjoint relations, in ``(r, s)`` order."""
        wanted, axis = pred.disjoint_relations, self.axis
        codes, order = self.r_needles[0], self.r_groups.order
        windows = []
        if wanted & {AllenRelation.BEFORE, AllenRelation.MEETS}:
            # s starts at r.end + 1 (meets) or later (before).
            groups, edge = self.s_groups, self.r.ends[order] + 1
            at = groups.first(codes, np.searchsorted(axis, edge))
            past = groups.first(codes, np.searchsorted(axis, edge, "right"))
            if AllenRelation.BEFORE in wanted:
                windows.append((groups, past, groups.key_end(codes)))
            if AllenRelation.MEETS in wanted:
                windows.append((groups, at, past))
        if wanted & {AllenRelation.MET_BY, AllenRelation.AFTER}:
            # s ends at r.start - 1 (met_by) or earlier (after).
            groups = _KeyGroups(self.s_codes, self.s_ranks[1], self.stride)
            edge = self.r.starts[order] - 1
            at = groups.first(codes, np.searchsorted(axis, edge))
            past = groups.first(codes, np.searchsorted(axis, edge, "right"))
            if AllenRelation.MET_BY in wanted:
                windows.append((groups, at, past))
            if AllenRelation.AFTER in wanted:
                windows.append((groups, groups.first(codes, 0), at))
        pairs = [groups.rows(lo, hi) for groups, lo, hi in windows]
        ri = np.concatenate([order[needle] for needle, _ in pairs])
        si = np.concatenate([row for _, row in pairs])
        order = np.lexsort((si, ri))
        return ri[order], si[order]


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def forward_sweep_join(
    r_file,
    s_file,
    result_schema,
    layout,
    *,
    predicate="intersects",
    collect: bool = True,
    obs=None,
):
    """Evaluate ``r PRED s`` with the forward-scan sweep.

    Args:
        r_file: the outer relation's heap file (its sortedness metadata
            decides whether a sort pass is charged).
        s_file: the inner relation's heap file.
        result_schema: schema of emitted tuples.
        layout: disk layout carrying the phase tracker and result stream.
        predicate: a registry name or :class:`TemporalPredicate`.
        collect: materialize the result relation in memory.
        obs: optional :class:`~repro.obs.Observability` runtime; receives
            the ``repro_sweep_*`` metrics and the sweep span.

    Returns:
        A :class:`~repro.core.joiner.JoinOutcome`: exact cardinality,
        ``overflow_blocks == 0`` and ``cache_tuples_spilled == 0`` (the
        sweep neither partitions nor spills), and ``cache_tuples_peak``
        reporting the scan's peak open-interval population.
    """
    from repro.core.joiner import JoinOutcome, emit_matches
    from repro.model.relation import ValidTimeRelation
    from repro.obs import span_or_null

    pred = predicate if isinstance(predicate, TemporalPredicate) else (
        resolve_predicate(predicate)
    )
    tracker = layout.tracker
    stats: Dict[str, int] = {}

    with span_or_null(obs, "sweep:forward", predicate=pred.name):
        sort_pages = 0
        r_source, s_source = r_file, s_file
        if not (r_file.endpoint_sorted and s_file.endpoint_sorted):
            with _phase(tracker, obs, "sort"):
                if not r_file.endpoint_sorted:
                    r_source = _write_sorted_run(r_file, layout, "r_sweep_run")
                    sort_pages += r_file.n_pages + r_source.n_pages
                    stats["sort_runs"] = stats.get("sort_runs", 0) + 1
                    layout.disk.park_heads()
                if not s_file.endpoint_sorted:
                    s_source = _write_sorted_run(s_file, layout, "s_sweep_run")
                    sort_pages += s_file.n_pages + s_source.n_pages
                    stats["sort_runs"] = stats.get("sort_runs", 0) + 1
            layout.disk.park_heads()
        stats["sort_pages"] = sort_pages

        with _phase(tracker, obs, "join"):
            r, s = _gather(r_source), _gather(s_source)
            stats["scan_pages"] = r_source.extent.n_pages + s_source.extent.n_pages
            scan = _Scan(r, s)
            pairs = []
            if pred.intersecting_relations:
                found, (stats["expired"], stats["active_peak"]) = scan.intersecting(pred)
                pairs.append(found)
                stats["intersecting_pairs"] = len(found[0])
                stats["probes"] = len(r) + len(s)
            if pred.disjoint_relations:
                pairs.append(scan.disjoint(pred))
                stats["disjoint_pairs"] = len(pairs[-1][0])
            ri = np.concatenate([p[0] for p in pairs])
            si = np.concatenate([p[1] for p in pairs])

            if pred.timestamp == "intersection":
                starts = np.maximum(r.starts[ri], s.starts[si])
                ends = np.minimum(r.ends[ri], s.ends[si])
            else:
                side, rows = (r, ri) if pred.timestamp == "left" else (s, si)
                starts, ends = side.starts[rows], side.ends[rows]
            take = get_kernels().take
            block = MatchBlock(take(r.tuples, ri), take(s.tuples, si), starts, ends)
            result_file = layout.result_file("sweep_result")
            result = ValidTimeRelation(result_schema) if collect else None
            n_result = emit_matches(block, layout, result_file, result)
            result_file.flush()
        layout.disk.park_heads()

        if obs is not None:
            _emit_metrics(obs, pred, stats, n_result)
        return JoinOutcome(
            result=result,
            n_result_tuples=n_result,
            overflow_blocks=0,
            cache_tuples_peak=stats.get("active_peak", 0),
            cache_tuples_spilled=0,
        )


def _emit_metrics(obs, pred, stats, n_result) -> None:
    """Record the run's ``repro_sweep_*`` metric family.

    The page counters reconcile exactly with the layout's phase-tracked
    ledger: ``repro_sweep_pages_total{phase="sort"}`` equals the sort
    phase's reads plus writes, and ``phase="join"`` equals the join
    phase's reads (result writes live on the excluded stream).
    """
    help_pages = "Charged pages the forward sweep touched, by phase."
    if stats.get("sort_pages"):
        obs.count("repro_sweep_pages_total", help_pages,
                  amount=float(stats["sort_pages"]), phase="sort")
    obs.count("repro_sweep_pages_total", help_pages,
              amount=float(stats.get("scan_pages", 0)), phase="join")
    if stats.get("sort_runs"):
        obs.count("repro_sweep_sort_runs_total",
                  "External-sort runs written for unsorted inputs.",
                  amount=float(stats["sort_runs"]))
    obs.count("repro_sweep_probes_total",
              "Rows the merged forward scan matched against the other side.",
              amount=float(stats.get("probes", 0)))
    obs.count("repro_sweep_expired_total",
              "Open intervals closed by a later row of the other side.",
              amount=float(stats.get("expired", 0)))
    for kind in ("intersecting", "disjoint"):
        amount = stats.get(f"{kind}_pairs", 0)
        if amount:
            obs.count("repro_sweep_pairs_total",
                      "Accepted pairs by probe kind.",
                      amount=float(amount), kind=kind)
    obs.count("repro_sweep_results_total",
              "Result tuples the sweep emitted.", amount=float(n_result))
    obs.gauge("repro_sweep_active_peak", float(stats.get("active_peak", 0)),
              "Peak open-interval population of the merged scan.")
    obs.event(
        "sweep-summary",
        predicate=pred.name,
        probes=stats.get("probes", 0),
        expired=stats.get("expired", 0),
        active_peak=stats.get("active_peak", 0),
        results=n_result,
    )
