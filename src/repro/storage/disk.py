"""The simulated disk: contiguous extents and head-position cost accounting.

The reproduction's equivalent of the paper's "main-memory simulations"
(Section 4.1).  Pages live in Python memory, a written run as its rows
(:class:`PageRun`); what is simulated is the *cost* of moving them:

* The address space is divided into **devices**, each with its own
  independent head.  Placing base relations, temporary partitions, the tuple
  cache, and the result on separate devices reproduces the paper's
  accounting, where e.g. reading an inner-partition page and appending to
  the tuple cache do not destroy each other's sequentiality, while two
  interleaved streams on the *same* device do (the paper: in-memory
  partition buckets "must be flushed more often, requiring more random
  I/O").
* An **extent** is a named, contiguous run of pages on one device ("if
  partitions are stored on consecutive disk pages then, after an initial
  disk seek to the first page of a partition, its remaining pages are read
  sequentially").
* Every :meth:`SimulatedDisk.read` / :meth:`SimulatedDisk.write` records one
  I/O operation: sequential when the target page is at or immediately after
  the device head, random otherwise.  A scan nothing interleaves with may
  be charged as one run (:meth:`SimulatedDisk.read_run` /
  :meth:`SimulatedDisk.append_run`): the same operations, billed in one
  call -- the paper's "single random seek followed by i-1 sequential reads".
  An ordered list of such runs, reads and writes over several extents and
  devices, is billed in one call too (:meth:`SimulatedDisk.charge_runs`,
  of which a single run is the one-element case): a pass whose access
  sequence is known up front charges it that way, then stores the pages it
  wrote uncharged (:meth:`SimulatedDisk.install`), and may check what is
  stored run by run (:meth:`SimulatedDisk.stored`) instead of reading it.

Loading pre-existing base relations uses :meth:`SimulatedDisk.load`, which
bypasses accounting -- the paper's measurements start with the inputs
already on disk.

**Resilience.**  A disk can carry a
:class:`~repro.resilience.faults.FaultInjector` (consulted on every charged
access), a :class:`~repro.resilience.retry.RetryPolicy` (bounded retries
with deterministic backoff, every attempt and penalty charged as real I/O),
and checksummed page frames (``checksums=True``: pages are stored wrapped
in :class:`~repro.storage.page.PageFrame` and verified on every read, so
torn or corrupted deliveries are detected and retried).  What happened is
recorded on :attr:`SimulatedDisk.report`.  A fault-free disk behaves and
charges exactly as before.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.model.errors import PermanentIOFaultError, StorageError
from repro.resilience.faults import FaultInjector
from repro.resilience.report import ResilienceReport
from repro.resilience.retry import RetryPolicy
from repro.storage.iostats import IOStatistics
from repro.storage.page import PageFrame, frame_page, torn_copy


class PageRun:
    """Pages cut from one row sequence: page *k* is the *capacity* rows
    from ``k * capacity`` on, the last page possibly short.

    How a writer hands the disk a run of pages without building them: the
    disk stores the run as given and builds a page only when something
    reads it page by page.  Rows that cut their own pages (a ``page(lo,
    hi)`` method: references, :class:`~repro.exec.batch.RowRefs`) are read
    through it, so such a page is a plain list.
    """

    __slots__ = ("rows", "capacity")

    def __init__(self, rows: Sequence[object], capacity: int) -> None:
        self.rows = rows
        self.capacity = capacity

    def __len__(self) -> int:
        return -(-len(self.rows) // self.capacity)

    def __getitem__(self, index: int) -> object:
        return self._page(index * self.capacity)

    def __iter__(self) -> Iterator[object]:
        return map(self._page, range(0, len(self.rows), self.capacity))

    def _page(self, at: int) -> object:
        rows, end = self.rows, at + self.capacity
        return rows.page(at, end) if hasattr(rows, "page") else rows[at:end]


#: A head never set, as a page address: every first page is a seek from it.
_NO_HEAD = -(2**62)


@dataclass(slots=True)
class Schedule:
    """Runs to bill, as columns: the extent table *extents*, ``int64``
    *extent* (an index into it), *first* (page) and *count* per run, and
    ``bool`` *write*.  It iterates as the ``(extent, first page, count,
    write)`` tuples it stands for, and bills what that list bills
    (:meth:`SimulatedDisk.charge_runs`)."""

    extents: Sequence["Extent"]
    extent: np.ndarray
    first: np.ndarray
    count: np.ndarray
    write: np.ndarray

    @classmethod
    def of(cls, runs: Sequence[Tuple["Extent", int, int, bool]]) -> "Schedule":
        """The ``(extent, first page, count, write)`` *runs* as columns."""
        extents, first, count, write = zip(*runs) if runs else ((),) * 4
        table = list(dict.fromkeys(extents))
        number = {extent: at for at, extent in enumerate(table)}
        at = np.fromiter(map(number.__getitem__, extents), np.int64, len(extents))
        columns = (np.array(first, np.int64), np.array(count, np.int64), np.array(write, bool))
        return cls(table, at, *columns)

    def __iter__(self) -> Iterator[Tuple["Extent", int, int, bool]]:
        columns = (self.extent, self.first, self.count, self.write)
        for at, first, count, write in zip(*(column.tolist() for column in columns)):
            yield self.extents[at], first, count, write


def _pieces(extents: Sequence["Extent"], at, first, end):
    """Runs ``[first, end)`` of ``extents[at]`` cut where a segment ends:
    the run of each piece (None when every run is one piece) and the first
    and last physical page of each piece."""
    tables = [extent._segments for extent in extents]
    if all(len(table) == 1 for table in tables):
        bases = np.array([table[0][0] for table in tables], np.int64)[at]
        return None, bases + first, bases + end - 1
    # Every extent's segments end to end on one line, extent k's page i at
    # offset[k] + i.
    n_segments = np.array([len(table) for table in tables])
    bases, caps = np.array([pair for table in tables for pair in table], np.int64).T
    seg_end = np.cumsum(caps)
    seg_start = seg_end - caps
    offset = seg_start[np.cumsum(n_segments) - n_segments][at]
    lo, hi = offset + first, offset + end
    seg_lo = np.searchsorted(seg_end, lo, "right")
    pieces = np.searchsorted(seg_end, hi - 1, "right") - seg_lo + 1
    run_of = np.repeat(np.arange(len(at)), pieces)
    seg = seg_lo[run_of] + np.arange(len(run_of)) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    lo, hi = np.maximum(lo[run_of], seg_start[seg]), np.minimum(hi[run_of], seg_end[seg])
    firsts = bases[seg] + lo - seg_start[seg]
    return run_of, firsts, firsts + (hi - lo) - 1


class Extent:
    """A named run of pages on one device, contiguous per segment.

    An extent normally occupies a single physically contiguous segment of
    its device, reserved at allocation time.  If an extent outgrows its
    reservation a new contiguous segment is chained on; crossing a segment
    boundary costs a seek, exactly as a physical file fragment would.

    Page contents are arbitrary Python objects (the library stores lists of
    tuples); the simulator never inspects them.  They are stored as runs:
    :class:`PageRun` runs as handed over, or lists of pages stored whole.
    """

    __slots__ = ("name", "device", "_segments", "_capacity", "_runs", "_firsts", "_n_pages")

    def __init__(self, name: str, device: int) -> None:
        self.name = name
        self.device = device
        self._segments: List[Tuple[int, int]] = []  # (physical base, capacity)
        self._capacity = 0  # sum of the segment capacities
        self._runs: List[Sequence[object]] = []
        self._firsts: List[int] = []  # the index of each run's first page
        self._n_pages = 0

    @property
    def n_pages(self) -> int:
        """Number of pages currently stored in the extent."""
        return self._n_pages

    @property
    def capacity(self) -> int:
        """Total reserved pages across all segments."""
        return self._capacity

    def physical_address(self, index: int) -> int:
        """Physical device address of page *index*."""
        if index < 0:
            raise StorageError(
                f"negative page index {index} in extent {self.name!r}",
                extent=self.name,
                device=self.device,
                page_index=index,
            )
        remaining = index
        for base, cap in self._segments:
            if remaining < cap:
                return base + remaining
            remaining -= cap
        raise StorageError(
            f"page index {index} beyond capacity {self.capacity} of extent {self.name!r}",
            extent=self.name,
            device=self.device,
            page_index=index,
        )

    # The store.  A run's page is built (sliced) when it is read; a run a
    # page is replaced or cut off in is built into its pages first.

    def _page(self, index: int) -> object:
        run = bisect_right(self._firsts, index) - 1
        return self._runs[run][index - self._firsts[run]]

    def _cell(self, index: int) -> Tuple[int, int]:
        """``(run, position in it)`` of page *index*, its run a page list."""
        run = bisect_right(self._firsts, index) - 1
        if isinstance(self._runs[run], PageRun):
            self._runs[run] = list(self._runs[run])
        return run, index - self._firsts[run]

    def _add(self, pages: Sequence[object]) -> None:
        """Store *pages* last: a :class:`PageRun` as handed over, else whole."""
        if not len(pages):
            return
        if type(pages) is not PageRun and self._runs and type(self._runs[-1]) is list:
            self._runs[-1].extend(pages)
        else:
            self._runs.append(pages if type(pages) is PageRun else list(pages))
            self._firsts.append(self._n_pages)
        self._n_pages += len(pages)

    def _keep(self, keep: int) -> None:
        """Drop every page from *keep* on."""
        if keep < self._n_pages:
            run = bisect_right(self._firsts, keep) - 1
            if keep > self._firsts[run]:  # inside a run: keep its head
                run, at = self._cell(keep)
                del self._runs[run][at:]
                run += 1
            del self._runs[run:], self._firsts[run:]
            self._n_pages = keep

    def __repr__(self) -> str:
        return (
            f"Extent({self.name!r}, device={self.device}, pages={self.n_pages}, "
            f"capacity={self.capacity})"
        )


class SimulatedDisk:
    """Multi-device disk simulator with per-device head tracking.

    Args:
        stats: the I/O counter stream every charged access is recorded to.
            Callers typically pass ``PhaseTracker().stats`` so phase-level
            accounting composes on top.
        fault_injector: consulted on every charged access when set.
        retry_policy: bounds of the fault-retry loop (defaults to
            ``RetryPolicy()``; irrelevant while no faults occur).
        checksums: store checksummed page frames and verify them on read.
    """

    def __init__(
        self,
        stats: Optional[IOStatistics] = None,
        *,
        fault_injector: Optional[FaultInjector] = None,
        retry_policy: Optional[RetryPolicy] = None,
        checksums: bool = False,
    ) -> None:
        self.stats = stats if stats is not None else IOStatistics()
        #: Per-device breakdown of the same operations counted in ``stats``.
        self.device_stats: Dict[int, IOStatistics] = {}
        self.fault_injector = fault_injector
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.checksums = checksums
        #: What the resilience machinery observed and did on this disk.
        self.report = ResilienceReport()
        self._heads: Dict[int, Optional[int]] = {}
        self._alloc_pointer: Dict[int, int] = {}
        self._extents: List[Extent] = []
        # Optional observability runtime (repro.obs.Observability).  Kept as
        # a plain attribute checked with one `is None` per charge so an
        # unobserved disk pays nothing.
        self._obs = None

    # -- allocation ----------------------------------------------------------

    def allocate(self, name: str, device: int = 0, capacity: int = 1) -> Extent:
        """Reserve a contiguous extent of *capacity* pages on *device*."""
        if capacity < 1:
            raise StorageError(
                f"extent capacity must be >= 1, got {capacity}",
                extent=name,
                device=device,
            )
        extent = Extent(name, device)
        self._reserve_segment(extent, capacity)
        self._extents.append(extent)
        return extent

    def _reserve_segment(self, extent: Extent, capacity: int) -> None:
        pointer = self._alloc_pointer.get(extent.device, 0)
        extent._segments.append((pointer, capacity))
        extent._capacity += capacity
        # A one-page guard gap between reservations: two distinct files are
        # never treated as physically adjacent, so finishing one extent and
        # starting the next always costs a seek.
        self._alloc_pointer[extent.device] = pointer + capacity + 1

    def _ensure_capacity(self, extent: Extent, index: int) -> None:
        while index >= extent.capacity:
            # Chain a new segment at least as large as the current extent so
            # repeated growth stays amortized; the segment boundary itself
            # costs a seek via the head model.
            self._reserve_segment(extent, max(extent.capacity, 1))

    # -- charged page access ---------------------------------------------------

    def read(self, extent: Extent, index: int) -> object:
        """Read page *index* of *extent*, charging one I/O operation.

        With a fault injector attached the access may be retried under the
        retry policy; every attempt and backoff penalty is charged.  Raises
        :class:`PermanentIOFaultError` when the policy is exhausted.
        """
        if index >= extent.n_pages:
            raise StorageError(
                f"read past end of extent {extent.name!r}: "
                f"page {index} of {extent.n_pages}",
                extent=extent.name,
                device=extent.device,
                page_index=index,
            )
        injector = self.fault_injector
        if injector is not None:
            injector.tick()
        attempts = 0
        while True:
            self._charge(extent, index, write=False, retry=attempts > 0)
            fault = (
                injector.on_access(extent.name, extent.device, index, write=False)
                if injector is not None
                else None
            )
            failed_attempt = False
            if fault is not None and fault.kind == "io":
                self.report.transient_read_faults += 1
                failed_attempt = True
            else:
                stored = extent._page(index)
                if self.checksums:
                    frame = stored
                    if fault is not None and fault.kind == "corrupt":
                        # Delivery-time damage: the stored page is intact,
                        # the copy handed over is torn.
                        frame = PageFrame(torn_copy(frame.payload), frame.checksum)
                    if isinstance(frame, PageFrame) and frame.verify():
                        return frame.payload
                    self.report.corruptions_detected += 1
                    failed_attempt = True
                else:
                    if fault is not None and fault.kind == "corrupt":
                        # No checksums: the torn page is returned as if good.
                        self.report.corruptions_undetected += 1
                        return torn_copy(stored)
                    return stored
            if failed_attempt:
                attempts += 1
                if attempts > self.retry_policy.max_retries:
                    self.report.permanent_failures.append(
                        f"read {extent.name!r} page {index} "
                        f"(device {extent.device}, {attempts} attempts)"
                    )
                    raise PermanentIOFaultError(
                        f"page read failed permanently after {attempts} attempts",
                        extent=extent.name,
                        device=extent.device,
                        page_index=index,
                        attempts=attempts,
                    )
                self.report.retries += 1
                self._charge_backoff(extent, attempts, write=False)

    def write(self, extent: Extent, index: int, page: object) -> None:
        """Write *page* at *index* (appending when ``index == n_pages``).

        Transient write faults are retried like reads; a permanently failing
        write raises :class:`PermanentIOFaultError`.
        """
        if index > extent.n_pages:
            raise StorageError(
                f"write would leave a hole in extent {extent.name!r}: "
                f"page {index}, current length {extent.n_pages}",
                extent=extent.name,
                device=extent.device,
                page_index=index,
            )
        self._ensure_capacity(extent, index)
        injector = self.fault_injector
        if injector is not None:
            injector.tick()
        attempts = 0
        while True:
            self._charge(extent, index, write=True, retry=attempts > 0)
            fault = (
                injector.on_access(extent.name, extent.device, index, write=True)
                if injector is not None
                else None
            )
            if fault is None:
                stored = frame_page(page) if self.checksums else page
                if index == extent.n_pages:
                    extent._add([stored])
                else:
                    run, at = extent._cell(index)
                    extent._runs[run][at] = stored
                return
            self.report.transient_write_faults += 1
            attempts += 1
            if attempts > self.retry_policy.max_retries:
                self.report.permanent_failures.append(
                    f"write {extent.name!r} page {index} "
                    f"(device {extent.device}, {attempts} attempts)"
                )
                raise PermanentIOFaultError(
                    f"page write failed permanently after {attempts} attempts",
                    extent=extent.name,
                    device=extent.device,
                    page_index=index,
                    attempts=attempts,
                )
            self.report.retries += 1
            self._charge_backoff(extent, attempts, write=True)

    def append(self, extent: Extent, page: object) -> int:
        """Append *page* to *extent*; returns its page index."""
        index = extent.n_pages
        self.write(extent, index, page)
        return index

    # A run is charged in one call only while nothing needs to see its pages
    # one by one: a fault injector decides per attempt, checksums verify per
    # delivery.  Otherwise the run is served through read/write, in order.

    def read_run(self, extent: Extent, index: int, count: int) -> List[object]:
        """Read the *count* pages of *extent* from *index* on as one run.

        Charges exactly what *count* single reads in ascending order would
        (see :meth:`_charge`) and returns the pages in that order.
        """
        if count < 1:
            return []
        if index + count > extent.n_pages:
            raise StorageError(
                f"read past end of extent {extent.name!r}: "
                f"pages {index}..{index + count - 1} of {extent.n_pages}",
                extent=extent.name,
                device=extent.device,
                page_index=index + count - 1,
            )
        if self.fault_injector is not None or self.checksums:
            return [self.read(extent, at) for at in range(index, index + count)]
        self._charge(extent, index, write=False, count=count)
        return [extent._page(at) for at in range(index, index + count)]

    def append_run(self, extent: Extent, pages: Sequence[object]) -> int:
        """Append *pages* -- a list, or a :class:`PageRun` stored as such --
        to *extent* as one run; returns the first index.

        Charges, and grows the extent, exactly as one :meth:`append` per
        page would.
        """
        index = extent.n_pages
        if self.fault_injector is not None or self.checksums:
            for page in pages:
                self.append(extent, page)
        elif pages:
            self._ensure_capacity(extent, index + len(pages) - 1)
            self._charge(extent, index, write=True, count=len(pages))
            extent._add(pages)
        return index

    def attach_observer(self, obs) -> None:
        """Attach (or with ``None``, detach) an observability runtime.

        The observer's :meth:`~repro.obs.Observability.on_io` is called for
        every *charged* access after it is recorded -- observation only;
        accounting and behavior are unchanged (property-tested).
        """
        self._obs = obs

    def _charge(
        self,
        extent: Extent,
        index: int,
        *,
        write: bool,
        retry: bool = False,
        count: int = 1,
    ) -> None:
        """Bill the *count* consecutive pages of *extent* from *index* on:
        the one-run case of :meth:`charge_runs`."""
        self.charge_runs(((extent, index, count, write),), retry=retry)

    def charge_runs(
        self, runs: Iterable[Tuple[Extent, int, int, bool]], *, retry: bool = False
    ) -> None:
        """Bill *runs* -- a :class:`Schedule`, or ``(extent, first page,
        count, write)`` tuples -- in order, exactly as one :meth:`_charge`
        per run would, recording each ``(device, op, sequential)`` total
        once.  A write run past an extent's reservation grows it first, as
        :meth:`write` would; an empty run bills nothing.

        The only code that moves a head or a main counter.  A run costs what
        the head model says, page for page: the first access is sequential
        only when the head is on or just before it, every later one is --
        except the first page of each further segment the run enters, which
        pays the seek a file fragment costs.  Started with a seek inside one
        segment that is ``CostModel.cost_of_run(count)``.  One run is billed
        in Python (:meth:`_bill_one`), more on columns (:meth:`_bill`).
        """
        if type(runs) is not Schedule:
            runs = list(runs)
            if len(runs) == 1:
                self._bill_one(*runs[0], retry)
                return
            runs = Schedule.of(runs)
        self._bill(runs, retry)

    def _bill_one(self, extent: Extent, index: int, count: int, write: bool, retry: bool) -> None:
        """One run, its extent's segments walked: O(segments) Python where
        :meth:`_bill`'s numpy calls cost more than the loop they replace."""
        if count < 1:
            return
        if write and index + count > extent._capacity:
            self._ensure_capacity(extent, index + count - 1)
        if index < 0:
            extent.physical_address(index)  # raises
        head, seeks, skip, left = self._heads.get(extent.device), 0, index, count
        for base, cap in extent._segments:
            if skip >= cap:
                skip -= cap
                continue
            first, piece = base + skip, min(left, cap - skip)
            if head is None or not 0 <= first - head <= 1:
                seeks += 1
            head, left, skip = first + piece - 1, left - piece, 0
            if not left:
                break
        else:
            extent.physical_address(index + count - 1)  # raises: past capacity
        self._heads[extent.device] = head
        self._record(extent.device, write, seeks, count, retry)

    def _bill(self, schedule: Schedule, retry: bool) -> None:
        """:meth:`charge_runs` on columns: write growth in run order; the
        runs cut into pieces at segment ends (:func:`_pieces`); the pieces
        sorted by device, stably, so that one shifted comparison sets each
        against the piece before it on its device or that device's head;
        one total per ``(device, write)``, by device, reads first."""
        extents = schedule.extents
        at, first, count, write = schedule.extent, schedule.first, schedule.count, schedule.write
        live = count > 0
        if not live.all():
            at, first, count, write = at[live], first[live], count[live], write[live]
        if not len(count):
            return
        end = first + count
        if end.max() > min(extent._capacity for extent in extents) or first.min() < 0:
            runs = zip(at.tolist(), first.tolist(), end.tolist(), write.tolist())
            for number, index, stop, grows in runs:
                extent = extents[number]  # in run order: grow, or raise
                if grows and stop > extent._capacity:
                    self._ensure_capacity(extent, stop - 1)
                extent.physical_address(index if index < 0 else stop - 1)
        run_of, firsts, lasts = _pieces(extents, at, first, end)
        devices = {int(extent.device): extent.device for extent in extents}
        # (device, write) as one number, the device that number halved.
        totals = np.array([2 * int(extent.device) for extent in extents])[at] + write
        if run_of is not None:
            totals = totals[run_of]
        if len(devices) > 1:
            order = np.argsort(totals >> 1, kind="stable")
            totals, firsts, lasts = totals[order], firsts[order], lasts[order]
        opens = np.empty(len(totals), bool)  # the first piece on its device
        opens[0] = True
        np.not_equal(totals[1:] >> 1, totals[:-1] >> 1, out=opens[1:])
        on = [devices[number] for number in (totals[opens] >> 1).tolist()]
        previous = np.empty_like(firsts)
        previous[1:] = lasts[:-1]
        previous[opens] = [self._heads.get(dev, _NO_HEAD) for dev in on]
        gap = firsts - previous
        accesses = np.bincount(totals, lasts - firsts + 1)
        seeks = np.bincount(totals[(gap < 0) | (gap > 1)], minlength=len(accesses)).tolist()
        self._heads.update(zip(on, lasts[np.flatnonzero(opens[1:])].tolist() + [int(lasts[-1])]))
        for total in np.flatnonzero(accesses).tolist():
            number, op = divmod(total, 2)
            self._record(devices[number], bool(op), seeks[total], int(accesses[total]), retry)

    def _record(self, device: int, write: bool, seeks: int, count: int, retry: bool) -> None:
        """Record *count* accesses of one op on *device*, *seeks* of them
        random, in ``stats``, ``device_stats`` and the observer."""
        for stats in (self.stats, self._device_stats_of(device)):
            if seeks:
                stats.record(write=write, sequential=False, count=seeks)
            if count - seeks:
                stats.record(write=write, sequential=True, count=count - seeks)
            if retry:
                stats.record_retry(write=write, count=count)
        if self._obs is not None:
            for sequential, ops in ((False, seeks), (True, count - seeks)):
                if ops:
                    self._obs.on_io(
                        device, write=write, sequential=sequential, retry=retry, count=ops
                    )

    def _device_stats_of(self, device: int) -> IOStatistics:
        per_device = self.device_stats.get(device)
        if per_device is None:
            per_device = self.device_stats[device] = IOStatistics()
        return per_device

    def _charge_backoff(self, extent: Extent, attempt: int, *, write: bool) -> None:
        """Charge the deterministic backoff penalty before a retry attempt.

        Penalty operations are random accesses (the head settles, nothing
        transfers usefully), charged to the same streams as the access they
        precede and tagged as retries.
        """
        penalty = self.retry_policy.penalty(attempt)
        if penalty > 0:
            self._record(extent.device, write, penalty, penalty, True)
            self.report.backoff_ops += penalty

    # -- uncharged access ---------------------------------------------------------

    def load(self, extent: Extent, pages: Sequence[object]) -> None:
        """Install *pages* into *extent*, replacing it, without charging I/O.

        Used to place pre-existing base relations on disk before an
        experiment starts measuring.
        """
        extent._keep(0)
        self.install(extent, pages)

    def install(self, extent: Extent, pages: Sequence[object]) -> None:
        """Append *pages* to *extent* without charging: for a writer whose
        schedule billed their writes already (:meth:`charge_runs`).  With
        checksums every page is built and framed; otherwise a
        :class:`PageRun` is stored as handed over."""
        self._ensure_capacity(extent, max(extent.n_pages + len(pages) - 1, 0))
        extent._add([frame_page(page) for page in pages] if self.checksums else pages)

    def find_extent(self, name: str) -> Optional[Extent]:
        """The extent allocated under *name*, if any.

        Chaos tests use this to target a specific file -- e.g. damaging a
        stored partition page between a crash and the resume.
        """
        for extent in self._extents:
            if extent.name == name:
                return extent
        return None

    def stored(self, extent: Extent) -> Optional[List[Sequence[object]]]:
        """The runs *extent* stores its pages in, in page order, uncharged --
        each a :class:`PageRun` or a list of pages -- or None where a read
        must be served page by page (see :meth:`read_run`)."""
        if self.fault_injector is not None or self.checksums:
            return None
        return list(extent._runs)

    def peek(self, extent: Extent, index: int) -> object:
        """Read a page without charging (test and verification use only)."""
        if index >= extent.n_pages:
            raise StorageError(
                f"peek past end of extent {extent.name!r}: "
                f"page {index} of {extent.n_pages}",
                extent=extent.name,
                device=extent.device,
                page_index=index,
            )
        stored = extent._page(index)
        if isinstance(stored, PageFrame):
            return stored.payload
        return stored

    def truncate(self, extent: Extent, keep: int = 0) -> None:
        """Drop the contents of *extent* beyond the first *keep* pages.

        The reservation is kept.  ``keep=0`` (the default) empties the
        extent; a positive *keep* rolls a file back to a watermark, which is
        how resume discards the partial work of an interrupted sweep.
        """
        if keep < 0:
            raise StorageError(
                f"cannot keep {keep} pages of extent {extent.name!r}",
                extent=extent.name,
                device=extent.device,
            )
        if keep > extent.n_pages:
            raise StorageError(
                f"cannot keep {keep} pages of extent {extent.name!r}: "
                f"only {extent.n_pages} stored",
                extent=extent.name,
                device=extent.device,
            )
        extent._keep(keep)

    def corrupt_stored(self, extent: Extent, index: int) -> None:
        """Damage the *stored* copy of a page (chaos-test hook, uncharged).

        Unlike delivery-time corruption from the fault injector, this damage
        is persistent: retries re-read the same bad page, so with checksums
        enabled the access exhausts its retry policy and fails permanently
        -- the trigger for the joiner's graceful-degradation path.
        """
        if index >= extent.n_pages:
            raise StorageError(
                f"corrupt past end of extent {extent.name!r}",
                extent=extent.name,
                device=extent.device,
                page_index=index,
            )
        run, at = extent._cell(index)
        pages = extent._runs[run]
        if isinstance(pages[at], PageFrame):
            pages[at] = PageFrame(torn_copy(pages[at].payload), pages[at].checksum)
        else:
            pages[at] = torn_copy(pages[at])

    # -- head control ----------------------------------------------------------------

    def park_heads(self) -> None:
        """Forget all head positions: the next access on every device is random.

        Experiments call this between phases that a real system would not run
        back-to-back, so a lucky head position cannot leak sequentiality
        across phase boundaries.
        """
        self._heads = {}

    def head_position(self, device: int) -> Optional[int]:
        """Current head position of *device* (None if never accessed)."""
        return self._heads.get(device)
