"""Sort-merge evaluation of the valid-time natural join, with backing-up.

The second baseline of Section 4.1.  Both relations are sorted on
valid-time start; the matching phase then streams them in order.  Because a
tuple's valid-time *end* is unconstrained by the sort order, a long-lived
inner tuple must stay matchable long after its page has streamed past: when
memory cannot hold every page back to the oldest still-live inner tuple,
the algorithm must "back up to previously processed pages of the input
relations to match overlapping tuples" (Section 4.3) and re-read them.

Backing-up cost model.  The matching phase merges the two sorted streams
by valid-time start, keeping each side's still-live (non-retired) tuples
matchable.  The inner-side window of ``memory - 2`` pages pins pages that
still hold a live inner tuple in preference to pages that merely streamed
past.  While the live pages fit, no backing up occurs; once more inner
pages hold live tuples than the window can pin -- which is precisely what
rising long-lived density causes -- the oldest excess live pages must be
re-read for each outer page processed.  This reproduces the paper's
observations: no long-lived tuples, no backing up; backing-up cost grows
with long-lived density and levels off as the live span saturates at the
long-lived lifespan (the Figure 7 curve's shape).

The model is deliberately *charitable* to this baseline: the outer side's
long-lived tuples are carried in memory for forward matching rather than
triggering inner-stream rescans, so the measured sort-merge cost is a lower
bound on a 1994 implementation -- any advantage the partition join shows
against it is understated, not manufactured.

Memory cases, reflecting the paper's note that the baseline "was optimized
to make best use of the available main memory size":

1. Both relations fit in memory together: read each once, match in memory.
   No sorting I/O at all -- this is why the baselines converge at 32 MiB in
   Figure 6.
2. One relation fits in memory: it is read once and held resident; the
   other is external-sorted and streamed.  A resident side never needs
   backing up.
3. Neither fits: both are external-sorted; the matching phase streams them
   with the live-span window above.

All matching within memory uses a hash index on the explicit join
attributes; in-memory work is outside the cost model.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.baselines.external_sort import external_sort
from repro.core.joiner import natural_pair
from repro.model.errors import PlanError
from repro.model.relation import ValidTimeRelation
from repro.model.vtuple import VTTuple
from repro.storage.heapfile import HeapFile
from repro.storage.layout import Device, DiskLayout
from repro.storage.page import PageSpec


@dataclass
class SortMergeResult:
    """Result and bookkeeping of a sort-merge join run."""

    result: Optional[ValidTimeRelation]
    n_result_tuples: int
    backup_page_reads: int
    memory_case: str  # "in_memory" | "one_resident" | "streamed"
    layout: DiskLayout


def sort_merge_join(
    r: ValidTimeRelation,
    s: ValidTimeRelation,
    memory_pages: int,
    *,
    page_spec: Optional[PageSpec] = None,
    layout: Optional[DiskLayout] = None,
    collect_result: bool = True,
) -> SortMergeResult:
    """Evaluate ``r JOIN_V s`` by sort-merge over the simulated disk."""
    if memory_pages < 4:
        raise PlanError(f"sort-merge needs >= 4 buffer pages, got {memory_pages}")
    result_schema = r.schema.join_result_schema(s.schema)
    if layout is None:
        layout = DiskLayout(spec=page_spec if page_spec is not None else PageSpec())

    r_file = layout.place_relation(r)
    s_file = layout.place_relation(s)
    emitter = _Emitter(layout, result_schema, collect_result)

    pages_r = r_file.n_pages
    pages_s = s_file.n_pages

    if pages_r + pages_s <= memory_pages - 1:
        _join_in_memory(r_file, s_file, layout, emitter)
        memory_case = "in_memory"
        backup_reads = 0
    elif pages_r <= memory_pages - 2 or pages_s <= memory_pages - 2:
        resident, streamed, resident_name = (
            (r_file, s_file, "r") if pages_r <= pages_s else (s_file, r_file, "s")
        )
        _join_one_resident(resident, streamed, resident_name, layout, memory_pages, emitter)
        memory_case = "one_resident"
        backup_reads = 0
    else:
        backup_reads = _join_streamed(r_file, s_file, layout, memory_pages, emitter)
        memory_case = "streamed"

    emitter.finish()
    return SortMergeResult(
        result=emitter.collected,
        n_result_tuples=emitter.count,
        backup_page_reads=backup_reads,
        memory_case=memory_case,
        layout=layout,
    )


class _Emitter:
    """Shared result emission: excluded-cost file plus optional collection."""

    def __init__(self, layout: DiskLayout, result_schema, collect: bool) -> None:
        self.layout = layout
        self.file = layout.result_file("sm_result")
        self.collected = ValidTimeRelation(result_schema) if collect else None
        self.count = 0

    def emit(self, x: VTTuple, y: VTTuple) -> None:
        if x.key != y.key:
            return
        common = x.valid.intersect(y.valid)
        if common is None:
            return
        joined = natural_pair(x, y, common)
        self.count += 1
        self.layout.write_result(self.file, joined)
        if self.collected is not None:
            self.collected.add(joined)

    def finish(self) -> None:
        self.file.flush()


def _join_in_memory(
    r_file: HeapFile, s_file: HeapFile, layout: DiskLayout, emitter: _Emitter
) -> None:
    """Case 1: read both once, match entirely in memory."""
    with layout.tracker.phase("sort"):
        r_tuples = [tup for page in r_file.scan_pages() for tup in page]
        s_tuples = [tup for page in s_file.scan_pages() for tup in page]
    with layout.tracker.phase("match"):
        probe_index: Dict[Tuple, List[VTTuple]] = {}
        for tup in r_tuples:
            probe_index.setdefault(tup.key, []).append(tup)
        for y in s_tuples:
            for x in probe_index.get(y.key, ()):
                emitter.emit(x, y)


def _join_one_resident(
    resident: HeapFile,
    streamed: HeapFile,
    resident_name: str,
    layout: DiskLayout,
    memory_pages: int,
    emitter: _Emitter,
) -> None:
    """Case 2: the resident side is read once; the other is sorted and streamed."""
    with layout.tracker.phase("sort"):
        sorted_streamed = external_sort(
            streamed,
            layout,
            memory_pages,
            name="sm_stream",
            devices=(Device.SCRATCH_A, Device.SCRATCH_B),
        )
    layout.disk.park_heads()
    with layout.tracker.phase("match"):
        probe_index: Dict[Tuple, List[VTTuple]] = {}
        for page in resident.scan_pages():
            for tup in page:
                probe_index.setdefault(tup.key, []).append(tup)
        resident_is_r = resident_name == "r"
        for page in sorted_streamed.scan_pages():
            for y in page:
                for x in probe_index.get(y.key, ()):
                    if resident_is_r:
                        emitter.emit(x, y)
                    else:
                        emitter.emit(y, x)


class _Active:
    """A live tuple of one stream awaiting retirement during the match."""

    __slots__ = ("tup", "page", "retired")

    def __init__(self, tup: VTTuple, page: int) -> None:
        self.tup = tup
        self.page = page
        self.retired = False


class _ActiveSet:
    """One stream's live tuples: key-hashed for probing, heaped for retirement."""

    def __init__(self) -> None:
        self.by_key: Dict[Tuple, List[_Active]] = {}
        self._retire_heap: List[Tuple[int, int, _Active]] = []
        self.live_per_page: Dict[int, int] = {}
        self._counter = 0

    def activate(self, tup: VTTuple, page: int) -> None:
        entry = _Active(tup, page)
        self.by_key.setdefault(tup.key, []).append(entry)
        self._counter += 1
        heapq.heappush(self._retire_heap, (tup.ve, self._counter, entry))
        self.live_per_page[page] = self.live_per_page.get(page, 0) + 1

    def retire_until(self, min_vs: int) -> None:
        """Drop tuples that cannot overlap anything starting at or after *min_vs*."""
        while self._retire_heap and self._retire_heap[0][0] < min_vs:
            _, _, entry = heapq.heappop(self._retire_heap)
            entry.retired = True
            self.live_per_page[entry.page] -= 1
            if self.live_per_page[entry.page] == 0:
                del self.live_per_page[entry.page]

    def live_partners(self, key: Tuple) -> List[_Active]:
        """Live entries for *key*, compacting lazily-retired ones."""
        entries = self.by_key.get(key)
        if not entries:
            return []
        live = [entry for entry in entries if not entry.retired]
        if not live:
            del self.by_key[key]
        elif len(live) != len(entries):
            self.by_key[key] = live
        return live


class _SortedStream:
    """Paged cursor over a sorted heap file, charging reads as pages turn."""

    def __init__(self, source: HeapFile) -> None:
        self.source = source
        self.next_page = 0
        self.buffer: List[VTTuple] = []
        self.offset = 0

    def peek(self) -> Optional[VTTuple]:
        while self.offset >= len(self.buffer):
            if self.next_page >= self.source.n_pages:
                return None
            self.buffer = self.source.read_page(self.next_page)
            self.next_page += 1
            self.offset = 0
        return self.buffer[self.offset]

    def take(self) -> Tuple[VTTuple, int]:
        """The next tuple and the page it came from."""
        tup = self.peek()
        assert tup is not None
        self.offset += 1
        return tup, self.next_page - 1


def _join_streamed(
    r_file: HeapFile,
    s_file: HeapFile,
    layout: DiskLayout,
    memory_pages: int,
    emitter: _Emitter,
) -> int:
    """Case 3: both sides external-sorted, then merged by valid-time start.

    Arrivals match against the opposite stream's live set; a pair is found
    exactly once via the start-chronon tie-break (an ``r`` arrival matches
    partners with ``Vs <=`` its own, an ``s`` arrival those with strictly
    smaller ``Vs``).  Backing up charges re-reads of the inner live pages
    the window cannot pin (see the module docstring).  Returns the number
    of backup page re-reads charged.
    """
    with layout.tracker.phase("sort"):
        r_sorted = external_sort(
            r_file,
            layout,
            memory_pages,
            name="sm_r",
            devices=(Device.SCRATCH_A, Device.SCRATCH_B),
        )
        layout.disk.park_heads()
        s_sorted = external_sort(
            s_file,
            layout,
            memory_pages,
            name="sm_s",
            devices=(Device.SCRATCH_C, Device.SCRATCH_D),
        )
    layout.disk.park_heads()

    # One page for the outer stream, one for the result; the rest pins the
    # inner window.
    pinnable = max(1, memory_pages - 2)
    backup_reads = 0

    with layout.tracker.phase("match"):
        r_active = _ActiveSet()
        s_active = _ActiveSet()
        r_stream = _SortedStream(r_sorted)
        s_stream = _SortedStream(s_sorted)
        last_outer_page = -1

        while True:
            r_next = r_stream.peek()
            s_next = s_stream.peek()
            if r_next is None and s_next is None:
                break
            take_r = s_next is None or (r_next is not None and r_next.vs <= s_next.vs)
            if take_r:
                assert r_next is not None
                tup, page = r_stream.take()
                r_active.retire_until(tup.vs)
                s_active.retire_until(tup.vs)
                r_active.activate(tup, page)
                # r arrival: match live s partners (all have Vs <= ours).
                for entry in s_active.live_partners(tup.key):
                    emitter.emit(tup, entry.tup)
                if page != last_outer_page:
                    last_outer_page = page
                    backup_reads += _charge_backup(s_active, s_sorted, pinnable)
            else:
                assert s_next is not None
                tup, page = s_stream.take()
                r_active.retire_until(tup.vs)
                s_active.retire_until(tup.vs)
                s_active.activate(tup, page)
                # s arrival: match live r partners with Vs <= ours.  Equal
                # starts are matched here, not on the r side: the merge takes
                # r first on ties, so an equal-Vs r tuple arrived before this
                # s tuple existed and could not have seen it.
                for entry in r_active.live_partners(tup.key):
                    if entry.tup.vs <= tup.vs:
                        emitter.emit(entry.tup, tup)
    return backup_reads


def _charge_backup(s_active: _ActiveSet, s_sorted: HeapFile, pinnable: int) -> int:
    """Re-read the oldest inner live pages the window cannot pin."""
    excess = len(s_active.live_per_page) - pinnable
    if excess <= 0:
        return 0
    for page in sorted(s_active.live_per_page)[:excess]:
        s_sorted.read_page(page)
    return excess
