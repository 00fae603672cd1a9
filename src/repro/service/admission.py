"""Memory-grant admission control over a shared buffer pool.

The paper's ``buffSize`` is a *per-evaluation* budget; a serving layer has
one physical budget shared by every concurrent query.  The
:class:`AdmissionController` arbitrates it: a query asks for the pages the
planner says it can use (:func:`~repro.core.planner.estimate_grant_pages`),
and the controller either grants them immediately, queues the request, or
-- under sustained pressure -- hands out a *degraded* grant that the join
layer absorbs through its PR-2 replan ladder (a smaller pool triggers
``partition_join``'s re-plan degradation instead of a failure).

Two admission policies:

* ``"fifo"`` -- strict arrival order.  Predictable latency, but a large
  request at the head blocks smaller ones behind it (head-of-line
  blocking; the price of fairness).
* ``"smallest"`` -- smallest-grant-first, ties broken by arrival.  Maximizes
  throughput under mixed sizes, can starve big queries under a steady
  trickle of small ones (the degrade/timeout bounds the damage).

The invariant the test-suite asserts at every instant: granted pages never
exceed the pool's capacity.  The accounting runs through the thread-safe
:class:`~repro.storage.buffer.BufferPool`, whose atomic check-then-charge
makes oversubscription structurally impossible rather than merely tested.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.planner import MIN_GRANT_PAGES
from repro.model.errors import (
    AdmissionTimeoutError,
    QueryCancelledError,
    ServiceError,
)
from repro.storage.buffer import BufferPool, Reservation

#: Admission policies the controller understands.
ADMISSION_POLICIES = ("fifo", "smallest")

#: Upper bound on one condition wait, so cancellation and the degradation
#: deadline are observed promptly even with no grant churn.
_WAIT_SLICE_SECONDS = 0.05


@dataclass
class AdmissionEvent:
    """One noteworthy admission decision, for the service's report."""

    kind: str  # "clamp" | "degraded-grant" | "timeout"
    label: str
    requested_pages: int
    granted_pages: int = 0
    detail: str = ""


class MemoryGrant:
    """Pages granted to one query; release returns them to the pool.

    Usable as a context manager.  Two distinct shortfalls:

    * ``clamped`` -- the original ask exceeded the whole pool, so the
      *request* was cut down to capacity before queueing.  Deterministic:
      the same ask against the same pool always clamps the same way.
    * ``degraded`` -- the controller granted fewer pages than the
      (post-clamp) request because pressure outlasted ``degrade_after``.
      Nondeterministic: the grant depends on whatever happened to be free.

    ``requested_pages`` is the post-clamp request (what admission actually
    tried to satisfy, and what ``degraded_grants`` counts against);
    ``asked_pages`` preserves the caller's original ask.
    """

    def __init__(
        self,
        controller: "AdmissionController",
        reservation: Reservation,
        requested_pages: int,
        queue_wait_seconds: float,
        *,
        asked_pages: Optional[int] = None,
    ) -> None:
        self._controller = controller
        self._reservation = reservation
        self.pages = reservation.pages
        self.requested_pages = requested_pages
        self.asked_pages = asked_pages if asked_pages is not None else requested_pages
        self.queue_wait_seconds = queue_wait_seconds
        self._released = False

    @property
    def degraded(self) -> bool:
        return self.pages < self.requested_pages

    @property
    def clamped(self) -> bool:
        return self.requested_pages < self.asked_pages

    def release(self) -> None:
        """Return the pages (idempotent)."""
        if self._released:
            return
        self._released = True
        self._controller._release(self._reservation)

    def __enter__(self) -> "MemoryGrant":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.release()


@dataclass
class _Waiter:
    ticket: int
    pages: int
    min_pages: int
    label: str


class AdmissionController:
    """Grants buffer-pool pages to queries under a fixed capacity.

    Args:
        capacity_pages: the shared budget (the service's whole buffer pool).
        policy: ``"fifo"`` or ``"smallest"`` (smallest-grant-first).
        default_timeout: seconds a request may queue before
            :class:`~repro.model.errors.AdmissionTimeoutError`.
        degrade_after: seconds of queueing after which an eligible waiter
            accepts a *smaller* grant (down to its ``min_pages``) instead of
            continuing to wait for the full request.  None disables
            degradation (queue until timeout).
    """

    def __init__(
        self,
        capacity_pages: int,
        *,
        policy: str = "fifo",
        default_timeout: float = 30.0,
        degrade_after: Optional[float] = None,
    ) -> None:
        if policy not in ADMISSION_POLICIES:
            raise ServiceError(
                f"admission policy must be one of {ADMISSION_POLICIES}, got {policy!r}"
            )
        if default_timeout <= 0:
            raise ServiceError(
                f"default_timeout must be positive, got {default_timeout}"
            )
        if degrade_after is not None and degrade_after < 0:
            raise ServiceError(
                f"degrade_after must be >= 0 (or None), got {degrade_after}"
            )
        self.pool = BufferPool(capacity_pages)
        self.policy = policy
        self.default_timeout = default_timeout
        self.degrade_after = degrade_after
        self._condition = threading.Condition()
        self._queue: List[_Waiter] = []
        self._tickets = 0
        self.peak_granted_pages = 0
        self.timeouts = 0
        self.degraded_grants = 0
        self.clamped_requests = 0
        self.grants = 0
        self.events: List[AdmissionEvent] = []
        # Per-owner accounting (owner = e.g. a session): pages currently
        # granted and the high-water mark, keyed by the owner string.
        self._owner_granted: Dict[str, int] = {}
        self._owner_peak: Dict[str, int] = {}
        self._reservation_owner: Dict[int, Tuple[str, int]] = {}

    # -- introspection -------------------------------------------------------

    @property
    def capacity_pages(self) -> int:
        return self.pool.total_pages

    @property
    def granted_pages(self) -> int:
        """Pages currently granted (never exceeds capacity)."""
        return self.pool.used_pages

    @property
    def queued_pages(self) -> int:
        """Pages currently asked for by queued requests."""
        with self._condition:
            return sum(w.pages for w in self._queue)

    @property
    def queue_length(self) -> int:
        with self._condition:
            return len(self._queue)

    def owner_peak_pages(self) -> Dict[str, int]:
        """Per-owner granted-page high-water marks (owner = e.g. a session).

        Only requests that passed ``owner=`` to :meth:`acquire` appear;
        the peak covers every concurrent grant the owner held at once.
        """
        with self._condition:
            return dict(self._owner_peak)

    # -- the grant loop ------------------------------------------------------

    def acquire(
        self,
        pages: int,
        *,
        label: str = "query",
        timeout: Optional[float] = None,
        min_pages: Optional[int] = None,
        cancelled: Optional[threading.Event] = None,
        owner: Optional[str] = None,
    ) -> MemoryGrant:
        """Wait for a grant of *pages* pages under the configured policy.

        Args:
            pages: the full request (clamped to capacity, with an event
                recorded, when it exceeds the whole pool).
            label: diagnostic name carried on the pool reservation.
            timeout: per-request override of ``default_timeout``.
            min_pages: smallest acceptable degraded grant (defaults to
                :data:`~repro.core.planner.MIN_GRANT_PAGES`); only used when
                ``degrade_after`` is configured.
            cancelled: optional event; when set while queued, the wait
                aborts with :class:`~repro.model.errors.QueryCancelledError`.
            owner: optional accounting key (e.g. a session id); grants are
                rolled into :meth:`owner_peak_pages` per owner.

        Raises:
            AdmissionTimeoutError: no grant within the timeout.
            QueryCancelledError: *cancelled* was set while waiting.
        """
        if pages < 1:
            raise ServiceError(f"cannot request {pages} pages")
        requested = pages
        if requested > self.capacity_pages:
            # The request can never fit whole: clamp to the pool and let the
            # join's replan ladder absorb the difference.
            requested = self.capacity_pages
            with self._condition:
                self.clamped_requests += 1
                self.events.append(
                    AdmissionEvent(
                        kind="clamp",
                        label=label,
                        requested_pages=pages,
                        granted_pages=requested,
                        detail=f"request exceeds pool capacity {self.capacity_pages}",
                    )
                )
        floor = MIN_GRANT_PAGES if min_pages is None else min_pages
        floor = max(1, min(floor, requested))
        wait_limit = self.default_timeout if timeout is None else timeout
        begin = time.monotonic()
        deadline = begin + wait_limit
        degrade_at = (
            begin + self.degrade_after if self.degrade_after is not None else None
        )

        with self._condition:
            self._tickets += 1
            waiter = _Waiter(self._tickets, requested, floor, label)
            self._queue.append(waiter)
            self._condition.notify_all()  # the queue changed: wake its watchers
            try:
                while True:
                    if cancelled is not None and cancelled.is_set():
                        raise QueryCancelledError(
                            f"admission wait for {label!r} cancelled",
                            requested_pages=pages,
                        )
                    now = time.monotonic()
                    grant_pages = self._grantable(waiter, now, degrade_at)
                    if grant_pages is not None:
                        reservation = self.pool.reserve(label, grant_pages)
                        self._queue.remove(waiter)
                        self.grants += 1
                        if grant_pages < requested:
                            self.degraded_grants += 1
                            self.events.append(
                                AdmissionEvent(
                                    kind="degraded-grant",
                                    label=label,
                                    requested_pages=requested,
                                    granted_pages=grant_pages,
                                    detail="pressure past degrade_after",
                                )
                            )
                        self.peak_granted_pages = max(
                            self.peak_granted_pages, self.pool.used_pages
                        )
                        if owner is not None:
                            held = self._owner_granted.get(owner, 0) + grant_pages
                            self._owner_granted[owner] = held
                            self._owner_peak[owner] = max(
                                self._owner_peak.get(owner, 0), held
                            )
                            self._reservation_owner[id(reservation)] = (
                                owner,
                                grant_pages,
                            )
                        self._condition.notify_all()
                        return MemoryGrant(
                            self,
                            reservation,
                            requested,
                            now - begin,
                            asked_pages=pages,
                        )
                    if now >= deadline:
                        self.timeouts += 1
                        self.events.append(
                            AdmissionEvent(
                                kind="timeout",
                                label=label,
                                requested_pages=requested,
                                detail=f"no grant within {wait_limit:.3f}s",
                            )
                        )
                        raise AdmissionTimeoutError(
                            f"admission of {label!r} ({requested} pages) timed "
                            f"out after {wait_limit:.3f}s "
                            f"({self.granted_pages}/{self.capacity_pages} pages "
                            f"granted, {len(self._queue) - 1} other waiters)",
                            requested_pages=requested,
                            timeout=wait_limit,
                        )
                    slice_end = min(deadline, now + _WAIT_SLICE_SECONDS)
                    if degrade_at is not None and now < degrade_at:
                        slice_end = min(slice_end, degrade_at + 1e-4)
                    self._condition.wait(max(1e-4, slice_end - now))
            finally:
                if waiter in self._queue:
                    self._queue.remove(waiter)
                    self._condition.notify_all()

    def _grantable(
        self, waiter: _Waiter, now: float, degrade_at: Optional[float]
    ) -> Optional[int]:
        """Pages *waiter* may take right now, or None (caller holds the lock)."""
        if not self._eligible(waiter):
            return None
        free = self.pool.total_pages - self.pool.used_pages
        if free >= waiter.pages:
            return waiter.pages
        if degrade_at is not None and now >= degrade_at and free >= waiter.min_pages:
            return max(waiter.min_pages, min(waiter.pages, free))
        return None

    def _eligible(self, waiter: _Waiter) -> bool:
        """Is *waiter* next under the policy? (Caller holds the lock.)"""
        if self.policy == "fifo":
            return self._queue[0] is waiter
        best = min(self._queue, key=lambda w: (w.pages, w.ticket))
        return best is waiter

    def _release(self, reservation: Reservation) -> None:
        reservation.release()
        with self._condition:
            owned = self._reservation_owner.pop(id(reservation), None)
            if owned is not None:
                owner, pages = owned
                remaining = self._owner_granted.get(owner, 0) - pages
                if remaining > 0:
                    self._owner_granted[owner] = remaining
                else:
                    self._owner_granted.pop(owner, None)
            self._condition.notify_all()
