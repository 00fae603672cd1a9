"""Main-memory budget bookkeeping and the Figure 3 buffer allocation.

The simulator does not emulate page replacement -- the algorithms under
study explicitly manage their own buffers, as 1994 join implementations did.
What this module enforces is the *budget*: every algorithm declares the
regions it uses, and a region that would exceed the configured memory size
raises :class:`BufferOverflowError`.  That keeps the implementations honest:
the partition join genuinely holds at most ``buffSize`` pages of the outer
relation plus one page each of the inner relation, tuple cache, and result
(Figure 3), and the sort-merge baseline genuinely forms runs no larger than
memory.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict

from repro.model.errors import BufferOverflowError


@dataclass
class Reservation:
    """A named region of buffer pages inside a :class:`BufferPool`."""

    pool: "BufferPool"
    label: str
    pages: int

    def release(self) -> None:
        """Return the region's pages to the pool."""
        self.pool._release(self)

    def resize(self, pages: int) -> None:
        """Grow or shrink the region in place."""
        self.pool._resize(self, pages)


class BufferPool:
    """A fixed budget of main-memory buffer pages.

    Reserve/release/resize are serialized under a single lock, so a pool can
    be shared by concurrent queries (the service layer's admission controller
    accounts its memory grants on one; see ``docs/SERVICE.md``).  The lock
    makes the check-then-charge of every operation atomic: two racing
    reservations can never both pass the free-space check, and a release
    can never be double-counted.

    Args:
        total_pages: the memory size in pages (``buffSize`` plus the fixed
            single-page areas, i.e. the whole allocation of Figure 3).
    """

    def __init__(self, total_pages: int) -> None:
        if total_pages < 1:
            raise BufferOverflowError(f"buffer pool needs >= 1 page, got {total_pages}")
        self.total_pages = total_pages
        self._reservations: Dict[int, Reservation] = {}
        self._used = 0
        self._lock = threading.Lock()

    @property
    def used_pages(self) -> int:
        """Pages currently reserved."""
        with self._lock:
            return self._used

    @property
    def free_pages(self) -> int:
        """Pages still available."""
        with self._lock:
            return self.total_pages - self._used

    def reserve(self, label: str, pages: int) -> Reservation:
        """Reserve *pages* pages under *label*.

        Raises:
            BufferOverflowError: if the pool cannot satisfy the request.
        """
        if pages < 0:
            raise BufferOverflowError(f"cannot reserve {pages} pages")
        with self._lock:
            if pages > self.total_pages - self._used:
                raise BufferOverflowError(
                    f"reservation {label!r} of {pages} pages exceeds free space "
                    f"({self.total_pages - self._used} of {self.total_pages})"
                )
            reservation = Reservation(self, label, pages)
            self._reservations[id(reservation)] = reservation
            self._used += pages
            return reservation

    def _release(self, reservation: Reservation) -> None:
        with self._lock:
            if id(reservation) not in self._reservations:
                raise BufferOverflowError(
                    f"reservation {reservation.label!r} already released"
                )
            del self._reservations[id(reservation)]
            self._used -= reservation.pages
            reservation.pages = 0

    def _resize(self, reservation: Reservation, pages: int) -> None:
        with self._lock:
            if id(reservation) not in self._reservations:
                raise BufferOverflowError(
                    f"reservation {reservation.label!r} already released"
                )
            if pages < 0:
                raise BufferOverflowError(
                    f"cannot resize {reservation.label!r} to {pages} pages"
                )
            delta = pages - reservation.pages
            if delta > self.total_pages - self._used:
                raise BufferOverflowError(
                    f"resize of {reservation.label!r} to {pages} pages exceeds free space"
                )
            self._used += delta
            reservation.pages = pages


@dataclass(frozen=True)
class JoinBufferAllocation:
    """The Figure 3 buffer split for partition-join evaluation.

    One page each is dedicated to the inner relation, the tuple cache, and
    the result; everything else (``buffSize``) holds the current outer
    relation partition.
    """

    total_pages: int

    #: Pages outside the outer-partition area (inner + cache + result).
    FIXED_PAGES = 3

    def __post_init__(self) -> None:
        if self.total_pages < self.FIXED_PAGES + 1:
            raise BufferOverflowError(
                f"partition join needs >= {self.FIXED_PAGES + 1} buffer pages, "
                f"got {self.total_pages}"
            )

    @property
    def buff_size(self) -> int:
        """Pages available for the outer relation partition (``buffSize``)."""
        return self.total_pages - self.FIXED_PAGES

    def open(self, pool: BufferPool) -> Dict[str, Reservation]:
        """Materialize the allocation in *pool*; returns the named regions."""
        return {
            "outer_partition": pool.reserve("outer_partition", self.buff_size),
            "inner_page": pool.reserve("inner_page", 1),
            "tuple_cache_page": pool.reserve("tuple_cache_page", 1),
            "result_page": pool.reserve("result_page", 1),
        }
