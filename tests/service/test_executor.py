"""The bounded worker-thread executor and per-query cancellation."""

from __future__ import annotations

import threading
import time

import pytest

from repro.model.errors import QueryCancelledError, ServiceError
from repro.service.executor import QueryExecutor


def blocking(entered, release):
    """A query body that signals it is running, then holds its worker."""
    entered.set()
    return release.wait(10.0)


@pytest.fixture
def executor():
    ex = QueryExecutor(workers=2, queue_limit=4)
    yield ex
    ex.shutdown(wait=True)


class TestExecution:
    def test_result_round_trip(self, executor):
        handle = executor.submit(lambda h: 21 * 2, label="answer")
        assert handle.result(timeout=5.0) == 42
        assert handle.done and not handle.cancelled

    def test_errors_reraise_in_caller(self, executor):
        def boom(_handle):
            raise ValueError("broken query")

        handle = executor.submit(boom)
        with pytest.raises(ValueError, match="broken query"):
            handle.result(timeout=5.0)
        assert handle.exception(timeout=1.0) is not None

    def test_many_queries_all_complete(self, executor):
        handles = [
            executor.submit(lambda h, n=n: n * n) for n in range(4)
        ]
        assert [h.result(5.0) for h in handles] == [0, 1, 4, 9]

    def test_result_timeout_raises(self, executor):
        release = threading.Event()
        handle = executor.submit(lambda h: release.wait(5.0))
        with pytest.raises(ServiceError, match="still running"):
            handle.result(timeout=0.05)
        release.set()
        handle.result(timeout=5.0)


class TestBoundedQueue:
    def test_submit_rejects_beyond_queue_limit(self):
        executor = QueryExecutor(workers=1, queue_limit=2)
        try:
            entered, release = threading.Event(), threading.Event()
            blocker = executor.submit(lambda h: blocking(entered, release))
            assert entered.wait(5.0)
            executor.submit(lambda h: None)
            executor.submit(lambda h: None)
            with pytest.raises(ServiceError, match="run queue full"):
                executor.submit(lambda h: None)
            release.set()
            blocker.result(5.0)
        finally:
            executor.shutdown(wait=True)

    def test_submit_after_shutdown_raises(self):
        executor = QueryExecutor(workers=1)
        executor.shutdown(wait=True)
        with pytest.raises(ServiceError, match="shut down"):
            executor.submit(lambda h: None)


class TestCancellation:
    def test_cancel_while_queued_skips_the_work(self):
        executor = QueryExecutor(workers=1, queue_limit=8)
        try:
            entered, release = threading.Event(), threading.Event()
            ran = []
            blocker = executor.submit(lambda h: blocking(entered, release))
            assert entered.wait(5.0)
            queued = executor.submit(lambda h: ran.append(1))
            assert queued.cancel()
            release.set()
            blocker.result(5.0)
            with pytest.raises(QueryCancelledError):
                queued.result(5.0)
            assert queued.cancelled
            assert not ran
        finally:
            executor.shutdown(wait=True)

    def test_cancel_running_query_at_its_checkpoint(self, executor):
        entered = threading.Event()

        def cooperative(handle):
            entered.set()
            handle.cancel_event.wait(10.0)
            handle.check_cancelled()
            return "finished"

        handle = executor.submit(cooperative)
        assert entered.wait(5.0)
        assert handle.cancel()
        with pytest.raises(QueryCancelledError):
            handle.result(5.0)
        assert handle.cancelled

    def test_cancel_after_completion_returns_false(self, executor):
        handle = executor.submit(lambda h: 1)
        handle.result(5.0)
        assert not handle.cancel()

    def test_shutdown_cancels_running_when_asked(self):
        executor = QueryExecutor(workers=1, queue_limit=8)
        entered = threading.Event()

        def cooperative(handle):
            entered.set()
            # Blocks until cancelled; a plain wait would hold shutdown for 30s.
            if handle.cancel_event.wait(30.0):
                handle.check_cancelled()
            return "finished"

        handle = executor.submit(cooperative)
        assert entered.wait(5.0)
        before = time.monotonic()
        executor.shutdown(wait=True, cancel_queued=True, cancel_running=True)
        assert time.monotonic() - before < 10.0
        with pytest.raises(QueryCancelledError):
            handle.result(1.0)
        assert handle.cancelled

    def test_shutdown_cancels_backlog(self):
        executor = QueryExecutor(workers=1, queue_limit=8)
        entered, release = threading.Event(), threading.Event()
        blocker = executor.submit(lambda h: blocking(entered, release))
        assert entered.wait(5.0)
        queued = executor.submit(lambda h: "never")
        # Cancel the backlog while the single worker is still busy, so it
        # cannot pop ``queued`` first; only then let the blocker finish.
        executor.shutdown(wait=False, cancel_queued=True)
        release.set()
        executor.shutdown(wait=True)
        blocker.result(1.0)
        with pytest.raises(QueryCancelledError):
            queued.result(1.0)

    def test_invalid_sizing_rejected(self):
        with pytest.raises(ServiceError):
            QueryExecutor(workers=0)
        with pytest.raises(ServiceError):
            QueryExecutor(workers=1, queue_limit=0)
