"""Heap files: paged storage of valid-time relations over one extent.

A :class:`HeapFile` is the physical representation of a relation (or of a
partition, or of a sort run -- anything tuple-shaped) as a sequence of
fixed-capacity pages inside a single extent.  All reads and writes are
charged through the owning :class:`SimulatedDisk`.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from operator import attrgetter
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exec.batch import PageBatch, RowRefs, extended
from repro.model.match_block import LazyRows, spans_sorted
from repro.model.vtuple import VTTuple
from repro.storage.disk import Extent, PageRun, SimulatedDisk
from repro.storage.page import PageSpec


class LazyPage(SequenceABC):
    """Heap rows assembled from slices of row sequences, not yet rows: a
    page, or the rows of a run of pages whose slices are its pages.

    Each segment is ``(source, lo, hi)``: *source* is a lazy row block
    (:mod:`repro.model.match_block`) or a plain tuple list.  Slicing a block
    reads its shared memo, so the rows of a block cut across several pages
    (and appended to a result relation) are still built once, and slicing
    a lazy page gives a lazy page over the same sources.  Immutable;
    ``repr`` is content-based for the checksumming disk.
    """

    __slots__ = ("_segments", "_n")

    def __init__(self, segments: List[Tuple[Sequence[VTTuple], int, int]]) -> None:
        self._segments = segments
        self._n = sum(hi - lo for _, lo, hi in segments)

    def tuples(self) -> List[VTTuple]:
        """Every row materialized, in page order."""
        rows: List[VTTuple] = []
        for source, lo, hi in self._segments:
            rows.extend(source[lo:hi])
        return rows

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        if not isinstance(index, slice):
            return self.tuples()[index]
        start, stop, _ = index.indices(self._n)  # a run's page: a contiguous slice
        segments, at = [], 0
        for source, lo, hi in self._segments:
            first, last = max(lo, lo + start - at), min(hi, lo + stop - at)
            if first < last:
                segments.append((source, first, last))
            at += hi - lo
        return LazyPage(segments)

    def __iter__(self) -> Iterator[VTTuple]:
        return iter(self.tuples())

    def __repr__(self) -> str:
        return f"LazyPage({self.tuples()!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (LazyPage, list, tuple)):
            return self.tuples() == list(other)
        return NotImplemented

    __hash__ = None


def _endpoints(rows: List[VTTuple], columns: Optional[PageBatch]):
    """``(starts, ends)`` of *rows* to read sortedness off: their batch's
    columns, or each row's own, lazily."""
    if columns is not None:
        return columns.starts, columns.ends
    return map(attrgetter("vs"), rows), map(attrgetter("ve"), rows)


class HeapFile:
    """A paged file of tuples.

    Args:
        disk: the simulated disk holding the file.
        extent: the extent the pages live in.
        spec: page geometry.

    **Carried columns.**  A file also keeps, beside its pages, the
    columns of its rows as one batch when the writer had them (:attr:`carried`):
    a placed relation's split, a Grace bucket's slice of the routed relation.
    They describe every row of the file, in file order, or are dropped: by
    any later write, a rewind, an abandoned buffer.  Readers check every
    delivery (:meth:`~repro.exec.batch.PageBatch.matching`).
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        extent: Extent,
        spec: PageSpec,
    ) -> None:
        self.disk = disk
        self.extent = extent
        self.spec = spec
        # The page under construction: lazy segments (see append_block), then
        # the open tuple list.  ``_room`` is how many tuples that list may
        # hold before the page is full -- the capacity less the segments' rows.
        self._write_segments: List[Tuple[Sequence[VTTuple], int, int]] = []
        self._write_page: List[VTTuple] = []
        self._room = spec.capacity
        self._n_tuples = 0
        # Endpoint-sortedness metadata: True while every tuple has arrived
        # in (start, end) order.  The planner uses it to skip the forward
        # sweep's external-sort charge; one out-of-order append invalidates
        # it permanently (cheap incremental check, never a re-scan).
        self._endpoint_sorted = True
        self._last_span: Optional[Tuple[int, int]] = None
        self.carried: Optional[PageBatch] = None

    # -- construction ----------------------------------------------------------

    @classmethod
    def create(
        cls,
        disk: SimulatedDisk,
        name: str,
        spec: PageSpec,
        *,
        device: int = 0,
        capacity_tuples: int = 0,
    ) -> "HeapFile":
        """Allocate a fresh heap file sized for *capacity_tuples*."""
        capacity_pages = max(1, spec.pages_for_tuples(capacity_tuples))
        extent = disk.allocate(name, device=device, capacity=capacity_pages)
        return cls(disk, extent, spec)

    @classmethod
    def bulk_load(
        cls,
        disk: SimulatedDisk,
        name: str,
        spec: PageSpec,
        tuples: Iterable[VTTuple],
        *,
        device: int = 0,
        columns: Optional[PageBatch] = None,
    ) -> "HeapFile":
        """Create a file already containing *tuples*, without charging I/O.

        This is how base relations enter an experiment: the paper's
        measurements assume the inputs are on disk before evaluation begins.
        *columns* is the batch of exactly these rows, when the caller holds
        it: the file carries it and reads endpoint-sortedness off it.  Rows
        are copied unless they are (immutable) references."""
        tuple_list = tuples if isinstance(tuples, RowRefs) else list(tuples)
        heap = cls.create(
            disk,
            name,
            spec,
            device=device,
            capacity_tuples=max(1, len(tuple_list)),
        )
        disk.load(heap.extent, PageRun(tuple_list, spec.capacity))
        heap._n_tuples = len(tuple_list)
        heap.carried = columns
        heap._endpoint_sorted = spans_sorted(*_endpoints(tuple_list, columns), None)
        if tuple_list:
            heap._last_span = (tuple_list[-1].vs, tuple_list[-1].ve)
        return heap

    # -- geometry -----------------------------------------------------------------

    @property
    def n_pages(self) -> int:
        """Pages currently on disk (excludes the unflushed write buffer)."""
        return self.extent.n_pages

    @property
    def n_tuples(self) -> int:
        """Tuples stored, including any still in the write buffer."""
        return self._n_tuples

    @property
    def endpoint_sorted(self) -> bool:
        """True while every tuple arrived in ``(start, end)`` order.

        An empty file is trivially sorted.  The flag is maintained
        incrementally by :meth:`bulk_load` and the ``append*`` methods, and is
        conservative: rewinds and abandoned buffers clear it rather than
        re-scanning.
        """
        return self._endpoint_sorted

    @property
    def open_room(self) -> int:
        """Rows the open page takes before it is full and written."""
        return self._room - len(self._write_page)

    def carry(self, columns: PageBatch) -> None:
        """Carry *columns*, the batch of every row written to the file so
        far, in file order: how a writer that wrote them all from one batch
        names it once, not per write."""
        if len(columns) != self._n_tuples:
            raise ValueError(f"{len(columns)} carried rows, {self._n_tuples} in the file")
        self.carried = columns

    def _note_span(self, start: int, end: int) -> None:
        span = (start, end)
        if self._last_span is not None and span < self._last_span:
            self._endpoint_sorted = False
        self._last_span = span

    # -- writing --------------------------------------------------------------------

    def append(self, tup: VTTuple) -> None:
        """Buffer *tup*; a full page is flushed to disk automatically."""
        if hasattr(tup, "vs"):
            self._note_span(tup.vs, tup.ve)
        else:
            # Opaque payloads (some harnesses store bare rows) carry no
            # timestamps; without spans the flag cannot be maintained.
            self._endpoint_sorted = False
            self._last_span = None
        self.carried = None
        if not isinstance(self._write_page, list):  # references a run left open
            self._write_page = self._write_page.tolist()
        self._write_page.append(tup)
        self._n_tuples += 1
        if len(self._write_page) >= self._room:
            self.flush()

    def append_many(
        self, tuples: Iterable[VTTuple], columns: Optional[PageBatch] = None
    ) -> None:
        """Append every tuple of *tuples*, filling pages by slice.

        Writes exactly the page sequence (and charges) that one
        :meth:`append` per tuple would -- the pages it fills in one
        :meth:`~repro.storage.disk.SimulatedDisk.append_run`, the open one
        left buffered -- with one endpoint-sortedness pass over the run
        instead of a check per tuple, read off *columns* -- the batch of
        exactly these rows -- when the writer holds it.  The file carries
        nothing from here on until :meth:`carry`.
        """
        run = tuples if isinstance(tuples, (list, RowRefs)) else list(tuples)
        self._write(self._fill(run, columns))

    def install(
        self, rows: Sequence[VTTuple], columns: Optional[PageBatch] = None, *, flush: bool = False
    ) -> None:
        """:meth:`append_many` *rows* -- then, with *flush*, :meth:`flush` --
        storing the pages they fill uncharged: for a writer whose schedule
        billed those writes already
        (:meth:`~repro.storage.disk.SimulatedDisk.charge_runs`)."""
        self._write(self._fill(rows, columns, flush=flush), billed=True)

    def _fill(
        self, run: Sequence[VTTuple], columns: Optional[PageBatch], *, flush: bool = False
    ) -> List[Sequence[object]]:
        """Buffer *run* (a list, or references) as :meth:`append_many` does;
        returns the runs of pages it fills (with *flush*, the open page too),
        taken off the buffer and not yet written: one :class:`PageRun`,
        after the open page alone if it held block rows."""
        if run:
            self.carried = None
        if self._endpoint_sorted and run:
            # An unsorted file stays unsorted until it is emptied, and
            # ``_last_span`` is only read while the flag holds, so the pass
            # is skipped from the first violation on.
            try:
                self._endpoint_sorted = spans_sorted(
                    *_endpoints(run, columns), self._last_span
                )
                self._last_span = (run[-1].vs, run[-1].ve)
            except AttributeError:  # opaque rows carry no timestamps
                self._endpoint_sorted = False
        room, capacity = self.open_room, self.spec.capacity
        self._n_tuples += len(run)
        if len(run) < room and not flush:
            self._write_page = extended(self._write_page, run)
            return []
        cut = len(run) if flush else len(run) - (len(run) - room) % capacity
        runs: List[Sequence[object]] = []
        lo = 0
        if self._write_segments:
            # The open page holds block rows: it is written as their LazyPage.
            lo = min(room, cut)
            self._write_page = extended(self._write_page, run[:lo])
            runs.append(self._take_run())
        rows = extended(self._write_page, run[lo:cut]) if self._write_page else run[lo:cut]
        if rows:
            runs.append(PageRun(rows, capacity))
        self._write_page = run[cut:]
        return runs

    def append_block(self, block: LazyRows) -> None:
        """Append a lazy row block (:mod:`repro.model.match_block`) unbuilt.

        Writes exactly the page sequence (and charges) that one
        :meth:`append` per row would: the pages the block fills go out as
        one run over a :class:`LazyPage` of the buffered rows and the block,
        and endpoint-sortedness is maintained from its two time columns.
        """
        n = len(block)
        if n == 0:
            return
        self.carried = None  # a block's rows are not rows yet
        if self._endpoint_sorted:
            self._endpoint_sorted = block.spans_sorted(self._last_span)
            self._last_span = block.last_span()
        if self._write_page:
            # Tuples buffered so far precede the block in page order.
            self._write_segments.append((self._write_page, 0, len(self._write_page)))
            self._room -= len(self._write_page)
            self._write_page = []
        self._n_tuples += n
        room, capacity = self._room, self.spec.capacity
        if n < room:
            self._write_segments.append((block, 0, n))
            self._room -= n
            return
        cut = n - (n - room) % capacity  # the block's rows through its last full page
        rows = LazyPage(self._write_segments + [(block, 0, cut)])
        self._reset_buffer()
        if cut < n:
            self._write_segments.append((block, cut, n))
            self._room -= n - cut
        self._write([PageRun(rows, capacity)])

    def flush(self) -> None:
        """Write the partial page buffer to disk (no-op when empty)."""
        if self._write_segments or self._write_page:
            self._write([self._take_run()])

    def _take_run(self) -> Sequence[object]:
        """The write buffer as a run of one page (a :class:`PageRun` of
        references, if it holds them), the buffer emptied."""
        page: object = self._write_page
        if self._write_segments:
            tail = [(page, 0, len(page))] if page else []
            page = LazyPage(self._write_segments + tail)
        self._reset_buffer()
        return PageRun(page, self.spec.capacity) if isinstance(page, RowRefs) else [page]

    def _write(self, runs: List[Sequence[object]], *, billed: bool = False) -> None:
        """Append the *runs* of pages taken off the write buffer, each as one
        run -- uncharged where *billed*."""
        for pages in runs:
            if billed:
                self.disk.install(self.extent, pages)
            else:
                self.disk.append_run(self.extent, pages)

    def _reset_buffer(self) -> None:
        self._write_segments = []
        self._write_page = []
        self._room = self.spec.capacity

    def abandon(self) -> None:
        """Drop the unflushed write buffer without charging any I/O.

        Models losing volatile state in a crash: tuples that never reached a
        disk page simply disappear.  Used by the exception path of the sweep,
        where a charged flush would be I/O issued by a dead process.
        """
        self._n_tuples -= self.spec.capacity - self._room + len(self._write_page)
        self._cut_back()

    def rewind_to(self, n_pages: int, n_tuples: int) -> None:
        """Roll the file back to a recorded watermark (uncharged).

        Discards every page beyond *n_pages*, any buffered partial page, and
        resets the tuple count to *n_tuples* -- how resume truncates the
        partial output of an interrupted sweep before replaying from the
        last checkpoint.
        """
        self.disk.truncate(self.extent, keep=n_pages)
        self._n_tuples = n_tuples
        self._cut_back()

    def _cut_back(self) -> None:
        """The file lost rows off its end: empty the write buffer and stop
        vouching for what only a re-scan could (the watermark span of the
        surviving prefix, the rows carried columns describe).  An emptied
        file starts over."""
        self._reset_buffer()
        self._endpoint_sorted = self._n_tuples == 0
        self.carried = None
        if self._n_tuples == 0:
            self._last_span = None

    # -- reading --------------------------------------------------------------------

    def read_page(self, index: int):
        """Read page *index*, charging one I/O: a copy the caller owns."""
        return list(self.disk.read(self.extent, index))

    def scan_pages(self) -> Iterator[List[VTTuple]]:
        """Scan the file page by page, charging one I/O each.

        Over a freshly allocated extent this costs one random access plus
        ``n_pages - 1`` sequential accesses, matching the paper's accounting
        for a linear relation scan.
        """
        for index in range(self.extent.n_pages):
            yield list(self.disk.read(self.extent, index))

    def pages_per_run(self, rows: int) -> int:
        """Pages one :meth:`scan_runs` run of about *rows* rows reads."""
        return max(1, -(-rows // self.spec.capacity))

    def scan_runs(self, rows: int) -> Iterator[List[List[VTTuple]]]:
        """Scan the file in runs of consecutive pages holding about *rows*
        rows (at least one page), each run charged in one call.

        The pages and the bill are those of :meth:`scan_pages`; what a run
        gives up is the chance to touch the disk between two of its pages,
        so it is for scans nothing else interleaves with.
        """
        per_run = self.pages_per_run(rows)
        n_pages = self.extent.n_pages
        for index in range(0, n_pages, per_run):
            run = self.disk.read_run(self.extent, index, min(per_run, n_pages - index))
            yield [list(page) for page in run]

    def scan(self) -> Iterator[VTTuple]:
        """Scan the file tuple by tuple (page I/O charged underneath)."""
        for page in self.scan_pages():
            yield from page

    def stored_bounds(self, rows: Sequence[VTTuple]) -> Optional[List[int]]:
        """``[0, end of page 0, end of page 1, ...]`` in *rows* when the
        stored pages hold exactly *rows* and the disk bills a run without
        looking at it (:meth:`~repro.storage.disk.SimulatedDisk.stored`),
        else None: the uncharged check before a scan is billed, not read.
        One comparison of positions when every run and *rows* are references
        into one source; else run by run, up to the first that differs."""
        runs = self.disk.stored(self.extent)
        if runs is None:
            return None
        bounds, parts, at = [0], [], 0
        for run in runs:
            if isinstance(run, PageRun):
                parts.append((at, run.rows))
                bounds += range(at + run.capacity, at + len(run.rows), run.capacity)
                at += len(run.rows)
                bounds.append(at)
                continue
            for page in run:
                parts.append((at, page))
                at += len(page)
                bounds.append(at)
        if at != len(rows):
            return None
        source = rows.source if isinstance(rows, RowRefs) else None
        if source is not None and all(getattr(part, "source", None) is source for _, part in parts):
            return bounds if RowRefs.concat([part for _, part in parts]) == rows else None
        for lo, part in parts:
            if part != (rows if lo == 0 and len(part) == len(rows) else rows[lo : lo + len(part)]):
                return None
        return bounds

    def bill_scan(self, rows: List[VTTuple]) -> bool:
        """Charge a scan of the file -- what :meth:`scan_runs` charges --
        without reading a page, when the stored pages hold exactly *rows*
        (:meth:`stored_bounds`); else charge nothing and return False: the
        scan must be read."""
        if self.stored_bounds(rows) is None:
            return False
        self.disk.charge_runs(((self.extent, 0, self.n_pages, False),))
        return True

    # -- verification (uncharged) -------------------------------------------------------

    def all_tuples(self) -> List[VTTuple]:
        """Every stored tuple, *without* charging I/O (tests and setup only)."""
        tuples: List[VTTuple] = []
        for index in range(self.extent.n_pages):
            tuples.extend(self.disk.peek(self.extent, index))
        for source, lo, hi in self._write_segments:
            tuples.extend(source[lo:hi])
        tuples.extend(self._write_page)
        return tuples

    def page_of_tuple(self, position: int) -> int:
        """Page index holding the tuple at flat *position* (for sampling cost)."""
        return position // self.spec.capacity

    def read_tuple(self, position: int) -> Optional[VTTuple]:
        """Random-read the tuple at flat *position*, charging one page I/O."""
        page_index = self.page_of_tuple(position)
        page = self.read_page(page_index)
        offset = position - page_index * self.spec.capacity
        if offset >= len(page):
            return None
        return page[offset]
