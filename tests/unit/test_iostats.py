"""Unit tests for I/O statistics and the cost model."""

import pytest

from repro.storage.iostats import CostModel, IOStatistics, PhaseTracker


class TestCostModel:
    def test_defaults(self):
        model = CostModel()
        assert model.io_ran == 5.0
        assert model.io_seq == 1.0
        assert model.ratio == 5.0

    def test_with_ratio(self):
        model = CostModel.with_ratio(10)
        assert model.io_ran == 10.0
        assert model.io_seq == 1.0

    def test_rejects_random_cheaper_than_sequential(self):
        with pytest.raises(ValueError):
            CostModel(io_ran=1, io_seq=2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CostModel(io_ran=0, io_seq=0)

    def test_cost_of_run(self):
        model = CostModel.with_ratio(5)
        assert model.cost_of_run(0) == 0.0
        assert model.cost_of_run(1) == 5.0
        assert model.cost_of_run(10) == 5.0 + 9.0


class TestIOStatistics:
    def test_record_and_totals(self):
        stats = IOStatistics()
        stats.record(write=False, sequential=False)
        stats.record(write=False, sequential=True, count=3)
        stats.record(write=True, sequential=False, count=2)
        stats.record(write=True, sequential=True)
        assert stats.random_reads == 1
        assert stats.sequential_reads == 3
        assert stats.random_writes == 2
        assert stats.sequential_writes == 1
        assert stats.total_ops == 7
        assert stats.reads == 4
        assert stats.writes == 3

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            IOStatistics().record(write=False, sequential=False, count=-1)

    def test_cost_weighting(self):
        stats = IOStatistics(random_reads=2, sequential_reads=10)
        assert stats.cost(CostModel.with_ratio(5)) == 2 * 5 + 10

    def test_add_and_diff(self):
        a = IOStatistics(1, 2, 3, 4)
        b = IOStatistics(10, 20, 30, 40)
        b.add(a)
        assert b == IOStatistics(11, 22, 33, 44)
        assert b.diff(a) == IOStatistics(10, 20, 30, 40)

    def test_copy_is_independent(self):
        a = IOStatistics(1, 1, 1, 1)
        b = a.copy()
        b.random_reads = 99
        assert a.random_reads == 1


class TestMergeAndTags:
    def test_merge_accumulates_and_returns_self(self):
        a = IOStatistics(1, 2, 3, 4, retry_reads=1)
        b = IOStatistics(10, 20, 30, 40, retry_writes=5)
        out = a.merge(b)
        assert out is a
        assert (a.random_reads, a.sequential_reads) == (11, 22)
        assert (a.random_writes, a.sequential_writes) == (33, 44)
        assert (a.retry_reads, a.retry_writes) == (1, 5)

    def test_iadd_is_merge(self):
        a = IOStatistics(1, 0, 0, 0)
        a += IOStatistics(0, 0, 1, 0)
        assert a.total_ops == 2

    def test_self_merge_rejected(self):
        """The classic double-count bug: folding a ledger into itself."""
        a = IOStatistics(1, 2, 3, 4)
        with pytest.raises(ValueError):
            a.merge(a)
        with pytest.raises(ValueError):
            a += a
        assert a.total_ops == 10  # untouched by the rejected merges

    def test_merge_of_empty_ledger_is_identity(self):
        a = IOStatistics(1, 2, 3, 4, retry_reads=5, retry_writes=6)
        before = a.as_dict()
        a.merge(IOStatistics())
        assert a.as_dict() == before

    def test_as_dict_covers_every_tag_field(self):
        snapshot = IOStatistics().as_dict()
        for tag in ("retry_reads", "retry_writes"):
            assert tag in snapshot

    def test_worker_ledgers_reconcile_exactly(self):
        """Per-worker ledgers merged once must equal the combined stream:
        no operation lost, none double-counted."""
        workers = [
            IOStatistics(2, 5, 1, 0, retry_writes=3),
            IOStatistics(0, 7, 0, 4),
            IOStatistics(1, 1, 1, 1, retry_reads=1),
        ]
        total = IOStatistics()
        for ledger in workers:
            total += ledger
        assert total.total_ops == sum(w.total_ops for w in workers)
        assert total.reads == sum(w.reads for w in workers)
        assert total.writes == sum(w.writes for w in workers)
        assert total.retry_ops == sum(w.retry_ops for w in workers)

    def test_copy_and_diff_carry_tags(self):
        stats = IOStatistics(5, 5, 5, 5, retry_reads=2, retry_writes=1)
        snap = stats.copy()
        stats.record(write=False, sequential=True)
        stats.record_retry(write=False)
        delta = stats.diff(snap)
        assert delta.sequential_reads == 1
        assert delta.retry_reads == 1
        assert delta.retry_writes == 0
        assert snap.retry_reads == 2  # copy is independent

    def test_repr_mentions_retries_only_when_present(self):
        assert "retry" not in repr(IOStatistics(1, 1, 1, 1))
        assert "retry_r=2" in repr(IOStatistics(retry_reads=2))


class TestPhaseTracker:
    def test_phases_attribute_io(self):
        tracker = PhaseTracker()
        with tracker.phase("sample"):
            tracker.stats.record(write=False, sequential=False, count=4)
        with tracker.phase("join"):
            tracker.stats.record(write=False, sequential=True, count=10)
        model = CostModel.with_ratio(5)
        assert tracker.phase_cost("sample", model) == 20
        assert tracker.phase_cost("join", model) == 10
        assert tracker.phase_cost("absent", model) == 0
        assert tracker.breakdown(model) == {"sample": 20.0, "join": 10.0}

    def test_repeated_phase_accumulates(self):
        tracker = PhaseTracker()
        for _ in range(2):
            with tracker.phase("p"):
                tracker.stats.record(write=True, sequential=True)
        assert tracker.phases["p"].sequential_writes == 2

    def test_nested_phase_rejected(self):
        tracker = PhaseTracker()
        with pytest.raises(RuntimeError):
            with tracker.phase("outer"):
                with tracker.phase("inner"):
                    pass

    def test_io_outside_phase_not_attributed(self):
        tracker = PhaseTracker()
        tracker.stats.record(write=False, sequential=True)
        with tracker.phase("p"):
            pass
        assert tracker.phases["p"].total_ops == 0
        assert tracker.stats.total_ops == 1
