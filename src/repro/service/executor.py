"""A worker-thread executor with a bounded run queue and cancellation.

Deliberately tiny compared to :mod:`concurrent.futures`: the service needs
exactly three behaviors the stdlib pool does not give cleanly together --
a *bounded* run queue that rejects (rather than silently buffers) work when
the service is saturated, per-query cooperative cancellation that also
aborts an admission wait already in progress, and deterministic teardown.

A submitted callable receives its own :class:`QueryHandle` and should poll
``handle.cancel_requested`` (or pass ``handle.cancel_event`` into blocking
waits) at its cancellation points.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Set

from repro.model.errors import (
    QueryCancelledError,
    QueryDeadlineError,
    ServiceError,
)


class QueryHandle:
    """The caller's view of one submitted query.

    A handle optionally carries a *deadline*: a wall-clock budget covering
    everything from submission on -- run-queue wait, admission wait, and
    execution.  The clock starts at handle creation (submission), so a
    query stuck behind a full run queue burns budget exactly like one
    stuck in an admission queue.
    """

    def __init__(
        self,
        query_id: int,
        label: str = "",
        deadline_seconds: Optional[float] = None,
    ) -> None:
        self.query_id = query_id
        self.label = label
        self.deadline_seconds = deadline_seconds
        self._deadline = (
            time.monotonic() + deadline_seconds
            if deadline_seconds is not None
            else None
        )
        self.cancel_event = threading.Event()
        self._done = threading.Event()
        self._lock = threading.Lock()
        self._result: Any = None
        self._error: Optional[BaseException] = None
        self._started = False
        self._cancelled = False

    # -- state ---------------------------------------------------------------

    @property
    def done(self) -> bool:
        return self._done.is_set()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def cancel_requested(self) -> bool:
        """True once cancel() was called; running queries poll this."""
        return self.cancel_event.is_set()

    def check_cancelled(self) -> None:
        """Raise :class:`QueryCancelledError` if cancellation was requested."""
        if self.cancel_event.is_set():
            raise QueryCancelledError(
                f"query {self.query_id} ({self.label or 'unlabeled'}) cancelled"
            )

    # -- deadline --------------------------------------------------------------

    def remaining_seconds(self) -> Optional[float]:
        """Deadline budget left (never negative); None when unbudgeted."""
        if self._deadline is None:
            return None
        return max(0.0, self._deadline - time.monotonic())

    def check_deadline(self) -> None:
        """Raise :class:`QueryDeadlineError` once the deadline budget is spent."""
        if self._deadline is not None and time.monotonic() >= self._deadline:
            raise QueryDeadlineError(
                f"query {self.query_id} ({self.label or 'unlabeled'}) exceeded "
                f"its {self.deadline_seconds:.3f}s deadline budget",
                deadline_seconds=self.deadline_seconds,
            )

    # -- completion ----------------------------------------------------------

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block for the result; re-raises the query's error if it failed."""
        if not self._done.wait(timeout):
            raise ServiceError(
                f"query {self.query_id} still running after {timeout}s wait"
            )
        if self._error is not None:
            raise self._error
        return self._result

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        if not self._done.wait(timeout):
            raise ServiceError(
                f"query {self.query_id} still running after {timeout}s wait"
            )
        return self._error

    def cancel(self) -> bool:
        """Request cancellation.

        A query still in the run queue is cancelled for certain; a running
        query is cancelled at its next cancellation point.  Returns False
        when the query already finished.
        """
        with self._lock:
            if self._done.is_set():
                return False
            self.cancel_event.set()
            if not self._started:
                self._cancelled = True
                self._error = QueryCancelledError(
                    f"query {self.query_id} ({self.label or 'unlabeled'}) "
                    f"cancelled before it started"
                )
                self._done.set()
            return True

    # -- executor side -------------------------------------------------------

    def _claim(self) -> bool:
        """Mark started; False when cancel() won the race (skip the work)."""
        with self._lock:
            if self._done.is_set():
                return False
            self._started = True
            return True

    def _finish(self, result: Any = None, error: Optional[BaseException] = None) -> None:
        with self._lock:
            if self._done.is_set():
                return
            self._result = result
            self._error = error
            if isinstance(error, QueryCancelledError):
                self._cancelled = True
            self._done.set()


class QueryExecutor:
    """Fixed worker threads draining a bounded FIFO run queue.

    Args:
        workers: worker-thread count.
        queue_limit: maximum *queued* (not yet started) queries; submit
            raises :class:`~repro.model.errors.ServiceError` beyond it, so
            saturation is visible at the edge instead of an unbounded
            buffer deep inside.
    """

    def __init__(self, workers: int = 4, queue_limit: int = 256) -> None:
        if workers < 1:
            raise ServiceError(f"executor needs >= 1 worker, got {workers}")
        if queue_limit < 1:
            raise ServiceError(f"queue_limit must be >= 1, got {queue_limit}")
        self.workers = workers
        self.queue_limit = queue_limit
        self._condition = threading.Condition()
        self._queue: Deque = deque()
        self._shutdown = False
        self._query_ids = 0
        self._active = 0
        self._running: Set[QueryHandle] = set()
        self._threads: List[threading.Thread] = [
            threading.Thread(target=self._work, name=f"repro-svc-{i}", daemon=True)
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- introspection -------------------------------------------------------

    @property
    def queued(self) -> int:
        with self._condition:
            return len(self._queue)

    @property
    def active(self) -> int:
        with self._condition:
            return self._active

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        fn: Callable[[QueryHandle], Any],
        *,
        label: str = "",
        deadline_seconds: Optional[float] = None,
    ) -> QueryHandle:
        """Queue *fn* for execution; returns its handle immediately.

        ``deadline_seconds`` starts the handle's whole-query deadline clock
        now, so run-queue wait counts against the budget.

        Raises:
            ServiceError: executor shut down, or the run queue is full.
        """
        with self._condition:
            if self._shutdown:
                raise ServiceError("executor is shut down")
            if len(self._queue) >= self.queue_limit:
                raise ServiceError(
                    f"run queue full ({self.queue_limit} queries queued); "
                    f"retry later or raise queue_limit"
                )
            self._query_ids += 1
            handle = QueryHandle(self._query_ids, label, deadline_seconds)
            self._queue.append((handle, fn))
            self._condition.notify()
            return handle

    def shutdown(
        self,
        *,
        wait: bool = True,
        cancel_queued: bool = True,
        cancel_running: bool = False,
    ) -> None:
        """Stop accepting work; optionally cancel the backlog and join.

        ``cancel_queued`` cancels not-yet-started queries for certain.
        ``cancel_running`` additionally requests cancellation of in-flight
        queries: their blocking waits (admission queues observe the cancel
        event) abort promptly, and cooperative queries stop at their next
        cancellation point -- so teardown doesn't sit behind a long
        admission wait.
        """
        with self._condition:
            self._shutdown = True
            backlog = list(self._queue) if cancel_queued else []
            if cancel_queued:
                self._queue.clear()
            running = list(self._running) if cancel_running else []
            self._condition.notify_all()
        for handle, _ in backlog:
            handle.cancel()
        for handle in running:
            handle.cancel()
        if wait:
            for thread in self._threads:
                thread.join(timeout=10.0)

    # -- the worker loop -----------------------------------------------------

    def _work(self) -> None:
        while True:
            with self._condition:
                while not self._queue and not self._shutdown:
                    self._condition.wait()
                if not self._queue:
                    return  # shutdown with an empty queue
                handle, fn = self._queue.popleft()
                self._active += 1
                self._running.add(handle)
            try:
                if not handle._claim():
                    continue  # cancelled while queued
                try:
                    handle._finish(result=fn(handle))
                except BaseException as error:  # noqa: BLE001 -- handed to caller
                    handle._finish(error=error)
            finally:
                with self._condition:
                    self._active -= 1
                    self._running.discard(handle)
                    self._condition.notify_all()
