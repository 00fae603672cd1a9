"""Unit tests for buffer-pool budget bookkeeping and Figure 3 allocation."""

import pytest

from repro.model.errors import BufferOverflowError
from repro.storage.buffer import BufferPool, JoinBufferAllocation


class TestBufferPool:
    def test_reserve_and_release(self):
        pool = BufferPool(10)
        reservation = pool.reserve("area", 6)
        assert pool.used_pages == 6
        assert pool.free_pages == 4
        reservation.release()
        assert pool.free_pages == 10

    def test_over_reservation_raises(self):
        pool = BufferPool(4)
        pool.reserve("a", 3)
        with pytest.raises(BufferOverflowError, match="exceeds free space"):
            pool.reserve("b", 2)

    def test_double_release_raises(self):
        pool = BufferPool(4)
        reservation = pool.reserve("a", 2)
        reservation.release()
        with pytest.raises(BufferOverflowError, match="already released"):
            reservation.release()

    def test_resize_grow_and_shrink(self):
        pool = BufferPool(10)
        reservation = pool.reserve("a", 2)
        reservation.resize(8)
        assert pool.free_pages == 2
        reservation.resize(1)
        assert pool.free_pages == 9

    def test_resize_beyond_budget(self):
        pool = BufferPool(4)
        reservation = pool.reserve("a", 2)
        with pytest.raises(BufferOverflowError):
            reservation.resize(5)

    def test_negative_reserve(self):
        with pytest.raises(BufferOverflowError):
            BufferPool(4).reserve("a", -1)

    def test_empty_pool_rejected(self):
        with pytest.raises(BufferOverflowError):
            BufferPool(0)

    def test_resize_negative_rejected(self):
        pool = BufferPool(4)
        reservation = pool.reserve("a", 2)
        with pytest.raises(BufferOverflowError, match="resize"):
            reservation.resize(-1)
        assert pool.used_pages == 2

    def test_resize_to_zero_frees_everything_but_keeps_the_region(self):
        pool = BufferPool(4)
        reservation = pool.reserve("a", 3)
        reservation.resize(0)
        assert pool.free_pages == 4
        reservation.resize(2)
        assert pool.used_pages == 2

    def test_resize_after_release_rejected(self):
        pool = BufferPool(4)
        reservation = pool.reserve("a", 2)
        reservation.release()
        with pytest.raises(BufferOverflowError, match="already released"):
            reservation.resize(1)

    def test_zero_page_reservation_is_legal(self):
        pool = BufferPool(4)
        reservation = pool.reserve("empty", 0)
        assert pool.used_pages == 0
        reservation.release()
        assert pool.free_pages == 4

    def test_release_restores_exact_capacity_after_growth(self):
        pool = BufferPool(8)
        a = pool.reserve("a", 3)
        b = pool.reserve("b", 2)
        a.resize(5)
        assert pool.free_pages == 1
        a.release()
        b.release()
        assert pool.used_pages == 0
        assert pool.free_pages == 8


class TestJoinBufferAllocation:
    def test_figure3_split(self):
        allocation = JoinBufferAllocation(total_pages=16)
        assert allocation.buff_size == 13

    def test_minimum_size(self):
        with pytest.raises(BufferOverflowError):
            JoinBufferAllocation(total_pages=3)

    def test_open_materializes_all_regions(self):
        pool = BufferPool(16)
        regions = JoinBufferAllocation(total_pages=16).open(pool)
        assert regions["outer_partition"].pages == 13
        assert regions["inner_page"].pages == 1
        assert regions["tuple_cache_page"].pages == 1
        assert regions["result_page"].pages == 1
        assert pool.free_pages == 0


class TestBufferPoolConcurrency:
    """The pool is shared by concurrent queries: its accounting must hold
    under contention (single lock, atomic check-then-charge)."""

    def test_stress_never_oversubscribes_or_leaks(self):
        import os
        import random
        import threading

        seed = int(os.environ.get("SERVICE_STRESS_SEED", "0"))
        pool = BufferPool(64)
        errors = []
        violations = []
        barrier = threading.Barrier(8)

        def worker(worker_id: int) -> None:
            rng = random.Random(seed * 1000 + worker_id)
            barrier.wait()
            for _ in range(300):
                pages = rng.randrange(1, 24)
                try:
                    reservation = pool.reserve(f"w{worker_id}", pages)
                except BufferOverflowError:
                    continue
                except Exception as error:  # pragma: no cover
                    errors.append(error)
                    return
                used = pool.used_pages
                if used > pool.total_pages or used < 0:
                    violations.append(used)
                if rng.random() < 0.3:
                    try:
                        reservation.resize(max(1, pages // 2))
                    except BufferOverflowError:
                        pass
                reservation.release()

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert not violations
        # No double counting in either direction: everything was released.
        assert pool.used_pages == 0
        assert pool.free_pages == 64

    def test_concurrent_reserve_release_pairs_balance(self):
        import threading

        pool = BufferPool(8)
        acquired = []
        lock = threading.Lock()

        def grab():
            for _ in range(200):
                try:
                    reservation = pool.reserve("x", 3)
                except BufferOverflowError:
                    continue
                with lock:
                    acquired.append(1)
                reservation.release()

        threads = [threading.Thread(target=grab) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert pool.used_pages == 0
        assert len(acquired) > 0
