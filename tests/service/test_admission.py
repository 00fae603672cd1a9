"""Admission control: the granted-pages invariant, policies, degradation.

The central assertion, checked at every instant by a sampling thread while
workers hammer the controller: granted pages never exceed capacity.
"""

from __future__ import annotations

import os
import random
import threading
import time

import pytest

from repro.model.errors import (
    AdmissionTimeoutError,
    QueryCancelledError,
    ServiceError,
)
from repro.service.admission import AdmissionController


def wait_until(controller, condition, what, timeout=5.0):
    """Wait on *controller*'s condition -- notified whenever a waiter joins,
    leaves or is granted -- until *condition* holds, failing with *what* was
    awaited once *timeout* seconds pass: a waiter that dies before it queues
    fails the test instead of hanging it."""
    with controller._condition:
        if not controller._condition.wait_for(condition, timeout):
            pytest.fail(f"gave up after {timeout} s waiting for {what}")


class TestGrantInvariant:
    def test_granted_never_exceeds_capacity_under_stress(self):
        seed = int(os.environ.get("SERVICE_STRESS_SEED", "0"))
        controller = AdmissionController(32, default_timeout=10.0)
        violations = []
        errors = []
        stop = threading.Event()

        def sampler():
            while not stop.is_set():
                granted = controller.granted_pages
                if granted > controller.capacity_pages or granted < 0:
                    violations.append(granted)

        def worker(worker_id: int):
            rng = random.Random(seed * 100 + worker_id)
            for _ in range(40):
                pages = rng.randrange(1, 20)
                try:
                    with controller.acquire(pages, label=f"w{worker_id}") as grant:
                        if controller.granted_pages > controller.capacity_pages:
                            violations.append(controller.granted_pages)
                        assert grant.pages == pages
                        time.sleep(rng.random() * 0.002)
                except Exception as error:  # pragma: no cover
                    errors.append(error)
                    return

        sampler_thread = threading.Thread(target=sampler)
        sampler_thread.start()
        workers = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
        stop.set()
        sampler_thread.join()
        assert not errors
        assert not violations
        assert controller.granted_pages == 0
        assert controller.peak_granted_pages <= controller.capacity_pages
        assert controller.grants == 6 * 40

    def test_oversubscribed_workload_completes_by_queueing(self):
        controller = AdmissionController(16, default_timeout=10.0)
        done = []

        def worker(worker_id: int):
            # Each wants most of the pool: at most one can run at a time.
            with controller.acquire(12, label=f"w{worker_id}"):
                time.sleep(0.005)
            done.append(worker_id)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(done) == list(range(8))
        assert controller.timeouts == 0
        assert controller.granted_pages == 0


class TestPolicies:
    def _holder(self, controller, pages):
        return controller.acquire(pages, label="holder")

    def test_fifo_preserves_arrival_order(self):
        controller = AdmissionController(10, policy="fifo", default_timeout=5.0)
        holder = self._holder(controller, 9)
        order = []

        def waiter(name, pages):
            with controller.acquire(pages, label=name):
                order.append(name)
                time.sleep(0.002)

        big = threading.Thread(target=waiter, args=("big", 8))
        big.start()
        wait_until(
            controller, lambda: controller.queue_length >= 1, "the first waiter to queue"
        )
        small = threading.Thread(target=waiter, args=("small", 1))
        small.start()
        # 1 page is free, but FIFO holds "small" behind "big": it queues
        # instead of being granted.
        wait_until(
            controller,
            lambda: controller.queue_length >= 2 or order,
            "a second waiter or a grant",
        )
        assert controller.queue_length == 2
        assert order == []
        holder.release()
        big.join()
        small.join()
        assert order == ["big", "small"]

    def test_smallest_grant_first_overtakes(self):
        controller = AdmissionController(10, policy="smallest", default_timeout=5.0)
        holder = self._holder(controller, 9)
        order = []

        def waiter(name, pages):
            with controller.acquire(pages, label=name):
                order.append(name)
                time.sleep(0.002)

        big = threading.Thread(target=waiter, args=("big", 8))
        big.start()
        wait_until(
            controller, lambda: controller.queue_length >= 1, "the first waiter to queue"
        )
        small = threading.Thread(target=waiter, args=("small", 1))
        small.start()
        small.join(timeout=2.0)
        # The free page went to "small" even though "big" arrived first.
        assert order == ["small"]
        holder.release()
        big.join()
        assert order == ["small", "big"]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ServiceError, match="policy"):
            AdmissionController(16, policy="largest")


class TestDegradationAndTimeout:
    def test_degraded_grant_under_pressure(self):
        controller = AdmissionController(
            16, default_timeout=5.0, degrade_after=0.02
        )
        holder = controller.acquire(10, label="holder")
        grant = controller.acquire(10, label="needy")
        # Only 6 pages were free; past degrade_after the waiter takes them.
        assert grant.pages == 6
        assert grant.degraded
        assert controller.degraded_grants == 1
        assert grant.queue_wait_seconds >= 0.02
        grant.release()
        holder.release()
        events = [e for e in controller.events if e.kind == "degraded-grant"]
        assert len(events) == 1 and events[0].granted_pages == 6

    def test_degraded_grant_respects_min_pages(self):
        controller = AdmissionController(
            16, default_timeout=0.2, degrade_after=0.01
        )
        holder = controller.acquire(14, label="holder")
        # 2 free < min_pages=4: degradation cannot engage, so it times out.
        with pytest.raises(AdmissionTimeoutError):
            controller.acquire(10, label="needy")
        holder.release()

    def test_timeout_raises_and_cleans_queue(self):
        controller = AdmissionController(8, default_timeout=0.1)
        holder = controller.acquire(8, label="holder")
        before = time.monotonic()
        with pytest.raises(AdmissionTimeoutError) as exc:
            controller.acquire(4, label="needy")
        assert time.monotonic() - before >= 0.1
        assert controller.timeouts == 1
        assert controller.queue_length == 0  # the waiter removed itself
        assert exc.value.context["requested_pages"] == 4
        holder.release()
        # The pool is usable again afterwards.
        with controller.acquire(4, label="retry") as grant:
            assert grant.pages == 4

    def test_request_larger_than_pool_is_clamped(self):
        controller = AdmissionController(8, default_timeout=1.0)
        with controller.acquire(100, label="huge") as grant:
            assert grant.pages == 8
            assert grant.clamped
            assert grant.asked_pages == 100
            assert grant.requested_pages == 8  # the post-clamp request
            # The clamped request was satisfied in full: not degraded, in
            # agreement with the degraded_grants counter.
            assert not grant.degraded
        assert controller.clamped_requests == 1
        assert controller.degraded_grants == 0

    def test_cancellation_aborts_the_wait(self):
        controller = AdmissionController(8, default_timeout=5.0)
        holder = controller.acquire(8, label="holder")
        cancelled = threading.Event()
        failures = []

        def waiter():
            try:
                controller.acquire(4, label="victim", cancelled=cancelled)
            except QueryCancelledError:
                failures.append("cancelled")

        thread = threading.Thread(target=waiter)
        thread.start()
        wait_until(
            controller, lambda: controller.queue_length >= 1, "the first waiter to queue"
        )
        cancelled.set()
        thread.join(timeout=2.0)
        assert failures == ["cancelled"]
        assert controller.queue_length == 0
        holder.release()

    def test_invalid_request_rejected(self):
        controller = AdmissionController(8)
        with pytest.raises(ServiceError):
            controller.acquire(0)

    def test_release_is_idempotent(self):
        controller = AdmissionController(8)
        grant = controller.acquire(5)
        grant.release()
        grant.release()
        assert controller.granted_pages == 0
