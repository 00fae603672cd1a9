"""Forward-scan sweep join over endpoint-sorted interval columns.

The partition join (Figure 2) pays Grace-partitioning I/O even when both
inputs are already sorted by ``(start, end)``.  Following Piatov et al.
(PAPERS.md, "Cache-Efficient Sweeping-Based Interval Joins"), this module
evaluates any :class:`~repro.algebra.predicates.TemporalPredicate` in a
single forward scan over the two relations' merged endpoint streams:

* Both inputs are consumed in ``(start, end)`` order -- directly when the
  heap file's endpoint-sortedness metadata says the data arrived sorted,
  otherwise after one charged external-sort pass (phase ``"sort"``: read
  the base file, write a sorted TEMP run, re-scan the run in the join
  phase -- three passes instead of one).

* A **gapless hash map** per side maintains the open intervals: an
  open-addressing code table points at dense per-key entry runs, and lazy
  deletion keeps the runs gapless -- one boolean mask compacts a whole run
  (batched swap-with-last).  Each arriving row probes the *other* side's
  map (expiring entries that end before the row starts), so every
  intersecting pair is found exactly once, then inserts itself.

* Because every active-map candidate intersects the probing interval,
  the probe evaluates the predicate with the 3x3 **sign grid** of
  :mod:`repro.algebra.predicates` -- one vectorized gather per probe, no
  tuple materialization: the loop runs on the
  :class:`~repro.storage.columnar_page.ColumnarPage` column buffers,
  translated into one joint key-code space.

* The four disjoint Allen relations (before/meets/met_by/after) never
  meet in the active map; they are answered with binary-searched windows
  over per-key endpoint-sorted row indexes built from the same columns.

Result tuples are materialized only at emission.  Matched row ids are
sorted per probe, so the emission order -- and therefore the result, the
counters, and every ``repro_sweep_*`` metric -- is deterministic.  For the
natural-join predicate (``"intersects"``) the result *multiset* and
cardinality are identical with every partition execution mode; the
emission order differs (scan order here, partition-ownership order
there), so compare sorted, exactly as with the degraded nested-loop
fallback.
"""

from __future__ import annotations

import bisect
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.algebra.predicates import TemporalPredicate, resolve_predicate
from repro.storage.columnar_page import ColumnarPage
from repro.time.allen import AllenRelation
from repro.time.interval import trusted_interval
from repro.model.vtuple import VTTuple

__all__ = [
    "GaplessHashMap",
    "forward_sweep_join",
]


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
# The gapless hash map
# ---------------------------------------------------------------------------


class _Run:
    """A dense per-key entry run: capacity-doubling columns, mask-batched
    deletion."""

    __slots__ = ("starts", "ends", "rows", "n")

    def __init__(self) -> None:
        self.starts = np.empty(8, dtype=np.int64)
        self.ends = np.empty(8, dtype=np.int64)
        self.rows = np.empty(8, dtype=np.int64)
        self.n = 0

    def __len__(self) -> int:
        return self.n

    def _grow(self) -> None:
        cap = len(self.starts) * 2
        for name in ("starts", "ends", "rows"):
            old = getattr(self, name)
            new = np.empty(cap, dtype=np.int64)
            new[: self.n] = old[: self.n]
            setattr(self, name, new)

    def insert(self, start: int, end: int, row: int) -> None:
        if self.n == len(self.starts):
            self._grow()
        i = self.n
        self.starts[i] = start
        self.ends[i] = end
        self.rows[i] = row
        self.n = i + 1

    def expire(self, boundary: int) -> int:
        """Batched swap-with-last: one boolean mask compacts the whole run."""
        n = self.n
        if n == 0:
            return 0
        keep = self.ends[:n] >= boundary
        k = int(keep.sum())
        if k != n:
            self.starts[:k] = self.starts[:n][keep]
            self.ends[:k] = self.ends[:n][keep]
            self.rows[:k] = self.rows[:n][keep]
            self.n = k
        return n - k

    def live(self):
        n = self.n
        return self.starts[:n], self.ends[:n], self.rows[:n], n


class GaplessHashMap:
    """Open-addressing key-code table over gapless per-key entry runs.

    The table maps a joint key code to its entry run with linear probing
    (codes hash to themselves -- they are dense dictionary codes).  Runs
    stay dense under lazy deletion; ``expired`` counts entries removed,
    ``peak`` tracks the largest live population.
    """

    _MIN_TABLE = 8

    __slots__ = ("_table", "_codes", "_runs", "_mask", "_n_keys",
                 "size", "peak", "expired")

    def __init__(self) -> None:
        self._mask = self._MIN_TABLE - 1
        self._table = [-1] * self._MIN_TABLE
        self._codes = [0] * self._MIN_TABLE
        self._runs: List[object] = []
        self._n_keys = 0
        self.size = 0
        self.peak = 0
        self.expired = 0

    def __len__(self) -> int:
        return self.size

    def _slot(self, code: int) -> int:
        table, codes, mask = self._table, self._codes, self._mask
        slot = code & mask
        while table[slot] != -1 and codes[slot] != code:
            slot = (slot + 1) & mask
        return slot

    def _resize(self) -> None:
        old_table, old_codes = self._table, self._codes
        new_size = (self._mask + 1) * 2
        self._mask = new_size - 1
        self._table = [-1] * new_size
        self._codes = [0] * new_size
        for slot, run_index in enumerate(old_table):
            if run_index != -1:
                new_slot = self._slot(old_codes[slot])
                self._table[new_slot] = run_index
                self._codes[new_slot] = old_codes[slot]

    def _run_for(self, code: int):
        slot = self._slot(code)
        run_index = self._table[slot]
        if run_index != -1:
            return self._runs[run_index]
        if (self._n_keys + 1) * 4 > (self._mask + 1) * 3:
            self._resize()
            slot = self._slot(code)
        run = _Run()
        self._table[slot] = len(self._runs)
        self._codes[slot] = code
        self._runs.append(run)
        self._n_keys += 1
        return run

    def insert(self, code: int, start: int, end: int, row: int) -> None:
        self._run_for(code).insert(start, end, row)
        self.size += 1
        if self.size > self.peak:
            self.peak = self.size

    def probe(self, code: int, boundary: int):
        """Live ``(starts, ends, rows, n)`` for *code* after expiring every
        entry that ends before *boundary*; None when the key is absent."""
        run_index = self._table[self._slot(code)]
        if run_index == -1:
            return None
        run = self._runs[run_index]
        removed = run.expire(boundary)
        if removed:
            self.size -= removed
            self.expired += removed
        if len(run) == 0:
            return None
        return run.live()


# ---------------------------------------------------------------------------
# Column gathering
# ---------------------------------------------------------------------------


class _SideColumns:
    """One side's gathered columns in joint code space, scan order.

    Rows are materialized lazily and only at emission: columnar sources
    defer to the page's memoized ``row()``, list sources keep the tuple
    references the charged scan already produced.
    """

    __slots__ = ("starts", "ends", "codes", "n", "pages", "capacity", "rows")

    def __init__(self, starts, ends, codes, n, *, pages=None, capacity=0, rows=None):
        self.starts = starts
        self.ends = ends
        self.codes = codes
        self.n = n
        self.pages = pages
        self.capacity = capacity
        self.rows = rows

    def row(self, index: int) -> VTTuple:
        if self.rows is not None:
            return self.rows[index]
        return self.pages[index // self.capacity].row(index % self.capacity)


def _gather(heap_file, joint) -> _SideColumns:
    """Scan *heap_file* (charged) into joint-coded columns.

    Each columnar page contributes its packed column views; its file-local
    key codes are gathered through a per-file translation into the shared
    *joint* dictionary.  List pages are decomposed per tuple.
    """
    capacity = heap_file.spec.capacity
    translation: Optional[List[int]] = None
    pages: List[object] = []
    rows: Optional[List[VTTuple]] = None
    start_chunks, end_chunks, code_chunks = [], [], []
    columnar = True
    for page in heap_file.scan_pages():
        pages.append(page)
        if isinstance(page, ColumnarPage):
            dictionary = heap_file.dictionary
            if translation is None or len(translation) < len(dictionary.keys):
                translation = [joint.code(key) for key in dictionary.keys]
            table = np.asarray(translation, dtype=np.int64)
            start_chunks.append(page.starts_view())
            end_chunks.append(page.ends_view())
            code_chunks.append(table[page.codes_view()])
        else:
            columnar = False
            if rows is None:
                rows = []
            start_chunks.append(np.asarray([t.vs for t in page], dtype=np.int64))
            end_chunks.append(np.asarray([t.ve for t in page], dtype=np.int64))
            code_chunks.append(
                np.asarray([joint.code(t.key) for t in page], dtype=np.int64)
            )
            rows.extend(page)
    if not columnar and rows is not None and len(pages) and any(
        isinstance(p, ColumnarPage) for p in pages
    ):
        # Mixed page kinds cannot share the flat row list: rebuild it page
        # by page so flat indexes stay aligned with the columns.
        rows = []
        for page in pages:
            rows.extend(page.row(i) if isinstance(page, ColumnarPage) else page[i]
                        for i in range(len(page)))
    cat = (lambda chunks: np.concatenate(chunks)
           if chunks else np.empty(0, dtype=np.int64))
    starts_arr, ends_arr, codes_arr = (
        cat(start_chunks), cat(end_chunks), cat(code_chunks)
    )
    return _SideColumns(
        starts_arr, ends_arr, codes_arr, int(len(starts_arr)),
        pages=pages if columnar else None, capacity=capacity, rows=rows,
    )


def _write_sorted_run(heap_file, layout, name: str):
    """One external-sort pass: charged base scan, charged sorted TEMP run.

    Returns the run file; the join phase re-scans it sequentially, so an
    unsorted input costs three passes where a sorted one costs one.
    """
    run = layout.temp_file(name, capacity_tuples=heap_file.n_tuples)
    if heap_file.columnar and run.columnar:
        starts: List[int] = []
        ends: List[int] = []
        fcodes: List[int] = []
        payloads: List[tuple] = []
        for page in heap_file.scan_pages():
            starts.extend(page.starts_list())
            ends.extend(page.ends_list())
            fcodes.extend(page.codes_list())
            payloads.extend(page.payloads)
        order = np.lexsort((
            np.asarray(ends, dtype=np.int64),
            np.asarray(starts, dtype=np.int64),
        ))
        order = [int(i) for i in order]
        run.dictionary = heap_file.dictionary
        run.append_coded_run(
            [starts[i] for i in order],
            [ends[i] for i in order],
            [fcodes[i] for i in order],
            [payloads[i] for i in order],
        )
    else:
        tuples = [tup for page in heap_file.scan_pages() for tup in page]
        tuples.sort(key=lambda t: (t.vs, t.ve))
        run.append_many(tuples)
        run.flush()
    return run


# ---------------------------------------------------------------------------
# The sweep
# ---------------------------------------------------------------------------


def _sweep_intersecting(
    rc: _SideColumns,
    sc: _SideColumns,
    pred: TemporalPredicate,
    stats: Dict[str, int],
) -> List[Tuple[int, int]]:
    """Merged forward scan; returns accepted ``(r_row, s_row)`` pairs.

    Each row probes the opposite side's active map *before* inserting
    itself; R wins ties of ``(start, end)``, so every intersecting pair is
    examined exactly once, at its later endpoint-stream position.  The
    sign grid of the predicate is evaluated over the live run -- the
    probing interval and every candidate are guaranteed to intersect.
    """
    sign_table = np.asarray(pred.sign_table, dtype=bool)
    r_map = GaplessHashMap()
    s_map = GaplessHashMap()
    pairs: List[Tuple[int, int]] = []
    probes = 0
    rs, re_, rcodes = rc.starts, rc.ends, rc.codes
    ss, se, scodes = sc.starts, sc.ends, sc.codes
    i = j = 0
    rn, sn = rc.n, sc.n
    peak = 0
    while i < rn or j < sn:
        if j >= sn:
            take_r = True
        elif i >= rn:
            take_r = False
        else:
            take_r = (int(rs[i]), int(re_[i])) <= (int(ss[j]), int(se[j]))
        if take_r:
            start, end, code = int(rs[i]), int(re_[i]), int(rcodes[i])
            live = s_map.probe(code, start)
            probes += 1
            if live is not None:
                cs, ce, crows, _ = live
                ds = np.sign(start - cs)
                de = np.sign(end - ce)
                matched = crows[sign_table[ds + 1, de + 1]]
                if matched.size:
                    matched = np.sort(matched)
                    pairs.extend((i, int(m)) for m in matched)
            r_map.insert(code, start, end, i)
            i += 1
        else:
            start, end, code = int(ss[j]), int(se[j]), int(scodes[j])
            live = r_map.probe(code, start)
            probes += 1
            if live is not None:
                cs, ce, crows, _ = live
                ds = np.sign(cs - start)
                de = np.sign(ce - end)
                matched = crows[sign_table[ds + 1, de + 1]]
                if matched.size:
                    matched = np.sort(matched)
                    pairs.extend((int(m), j) for m in matched)
            s_map.insert(code, start, end, j)
            j += 1
        combined = r_map.size + s_map.size
        if combined > peak:
            peak = combined
    stats["probes"] = stats.get("probes", 0) + probes
    stats["expired"] = stats.get("expired", 0) + r_map.expired + s_map.expired
    stats["active_peak"] = max(stats.get("active_peak", 0), peak)
    stats["intersecting_pairs"] = stats.get("intersecting_pairs", 0) + len(pairs)
    return pairs


def _window_disjoint(
    rc: _SideColumns,
    sc: _SideColumns,
    pred: TemporalPredicate,
    stats: Dict[str, int],
) -> List[Tuple[int, int]]:
    """Binary-searched scan windows for the disjoint Allen relations.

    Pairs accepted by before/meets/met_by/after never coexist in the
    active map, so they are answered against per-key row indexes: a
    start-sorted run (prefix/point windows on ``s.start``) and an
    end-sorted run (for met_by/after windows on ``s.end``).  Emission is
    R-major with sorted window contents -- deterministic.
    """
    wanted = pred.disjoint_relations
    need_start = bool(wanted & {AllenRelation.BEFORE, AllenRelation.MEETS})
    need_end = bool(wanted & {AllenRelation.MET_BY, AllenRelation.AFTER})
    by_start: Dict[int, Tuple[List[int], List[int]]] = {}
    by_end: Dict[int, Tuple[List[int], List[int]]] = {}
    for j in range(sc.n):
        code = int(sc.codes[j])
        if need_start:
            entry = by_start.get(code)
            if entry is None:
                entry = by_start[code] = ([], [])
            entry[0].append(int(sc.starts[j]))
            entry[1].append(j)
        if need_end:
            entry = by_end.get(code)
            if entry is None:
                entry = by_end[code] = ([], [])
            entry[0].append(int(sc.ends[j]))
            entry[1].append(j)
    for ends, rows in by_end.values():
        order = sorted(range(len(ends)), key=lambda k: (ends[k], rows[k]))
        ends[:] = [ends[k] for k in order]
        rows[:] = [rows[k] for k in order]

    pairs: List[Tuple[int, int]] = []
    for i in range(rc.n):
        code = int(rc.codes[i])
        start, end = int(rc.starts[i]), int(rc.ends[i])
        hits: List[int] = []
        entry = by_start.get(code) if need_start else None
        if entry is not None:
            s_starts, s_rows = entry
            if AllenRelation.BEFORE in wanted:
                lo = bisect.bisect_left(s_starts, end + 2)
                hits.extend(s_rows[lo:])
            if AllenRelation.MEETS in wanted:
                lo = bisect.bisect_left(s_starts, end + 1)
                hi = bisect.bisect_right(s_starts, end + 1)
                hits.extend(s_rows[lo:hi])
        entry = by_end.get(code) if need_end else None
        if entry is not None:
            s_ends, s_rows = entry
            if AllenRelation.MET_BY in wanted:
                lo = bisect.bisect_left(s_ends, start - 1)
                hi = bisect.bisect_right(s_ends, start - 1)
                hits.extend(s_rows[lo:hi])
            if AllenRelation.AFTER in wanted:
                hi = bisect.bisect_right(s_ends, start - 2)
                hits.extend(s_rows[:hi])
        if hits:
            hits.sort()
            pairs.extend((i, j) for j in hits)
    stats["disjoint_pairs"] = stats.get("disjoint_pairs", 0) + len(pairs)
    return pairs


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
    pair_fn=None,
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
        pair_fn: result constructor ``(x, y, stamp) -> VTTuple | None``;
            defaults to the natural join's pair shape.
        collect: materialize the result relation in memory.
        obs: optional :class:`~repro.obs.Observability` runtime; receives
            the ``repro_sweep_*`` metrics and the sweep span.

    Returns:
        A :class:`~repro.core.joiner.JoinOutcome`: exact cardinality,
        ``overflow_blocks == 0`` and ``cache_tuples_spilled == 0`` (the
        sweep neither partitions nor spills), and ``cache_tuples_peak``
        reporting the gapless maps' peak open-interval population.
    """
    from repro.core.joiner import JoinOutcome, natural_pair
    from repro.obs import span_or_null

    pred = predicate if isinstance(predicate, TemporalPredicate) else (
        resolve_predicate(predicate)
    )
    if pair_fn is None:
        pair_fn = natural_pair
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
            from repro.storage.columnar_page import KeyDictionary

            joint = KeyDictionary()
            rc = _gather(r_source, joint)
            sc = _gather(s_source, joint)
            stats["scan_pages"] = r_source.extent.n_pages + s_source.extent.n_pages

            pairs: List[Tuple[int, int]] = []
            if pred.intersecting_relations:
                pairs.extend(_sweep_intersecting(rc, sc, pred, stats))
            if pred.disjoint_relations:
                pairs.extend(_window_disjoint(rc, sc, pred, stats))

            result_file = layout.result_file("sweep_result")
            n_result = 0
            timestamp = pred.timestamp
            for i, j in pairs:
                x = rc.row(i)
                y = sc.row(j)
                if timestamp == "intersection":
                    stamp = trusted_interval(
                        x.vs if x.vs >= y.vs else y.vs,
                        x.ve if x.ve <= y.ve else y.ve,
                    )
                elif timestamp == "left":
                    stamp = x.valid
                else:
                    stamp = y.valid
                out = pair_fn(x, y, stamp)
                if out is None:
                    continue
                layout.write_result(result_file, out)
                n_result += 1
            result_file.flush()
            result = (
                layout.collect_result(result_file, result_schema)
                if collect
                else None
            )
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
              "Active-map probes issued by the merged forward scan.",
              amount=float(stats.get("probes", 0)))
    obs.count("repro_sweep_expired_total",
              "Open intervals lazily expired (swap-with-last deletions).",
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
              "Peak open-interval population of the gapless maps.")
    obs.event(
        "sweep-summary",
        predicate=pred.name,
        probes=stats.get("probes", 0),
        expired=stats.get("expired", 0),
        active_peak=stats.get("active_peak", 0),
        results=n_result,
    )
