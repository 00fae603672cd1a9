"""Kill the sweep at the k-th I/O, resume, and demand bit-identical results.

The central resilience claim: a partition join interrupted at *any* charged
disk operation and restarted with :func:`repro.core.partition_join.
resume_join` produces exactly the tuples (and exactly the outcome counters)
of an uninterrupted run, in every execution mode.
"""

import pytest

from repro.core.joiner import RUN_ROWS
from repro.core.partition_join import partition_join, resume_join
from repro.model.errors import CheckpointError, SimulatedCrashError
from repro.resilience import FaultInjector, RecoveryLog
from repro.storage.heapfile import HeapFile
from repro.storage.layout import DiskLayout

from tests.chaos.conftest import (
    CHAOS_SEED,
    EXECUTION_MODES,
    SPEC,
    chaos_config,
    chaos_relation,
    long_lived_config,
    long_lived_pair,
)

R = chaos_relation("r", 400, CHAOS_SEED + 1)
S = chaos_relation("s", 400, CHAOS_SEED + 2)

_ORACLES = {}


def oracle(execution):
    """The uninterrupted run each crashed run must reproduce exactly."""
    if execution not in _ORACLES:
        run = partition_join(
            R, S, chaos_config(execution), layout=DiskLayout(spec=SPEC)
        )
        _ORACLES[execution] = run
    return _ORACLES[execution]


def crashing_layout(at_op=None, spec=SPEC, checksums=True, **layout_options):
    injector = FaultInjector(seed=CHAOS_SEED)
    if at_op is not None:
        injector.schedule_crash(at_op=at_op)
    return DiskLayout(
        spec=spec, fault_injector=injector, checksums=checksums, **layout_options
    )


def assert_same_outcome(run, expected):
    assert list(run.result.tuples) == list(expected.result.tuples)
    assert run.outcome.n_result_tuples == expected.outcome.n_result_tuples
    assert run.outcome.overflow_blocks == expected.outcome.overflow_blocks
    assert run.outcome.cache_tuples_peak == expected.outcome.cache_tuples_peak
    assert run.outcome.cache_tuples_spilled == expected.outcome.cache_tuples_spilled


class TestCrashResume:
    @pytest.mark.parametrize("execution", EXECUTION_MODES)
    def test_crash_at_kth_op_resumes_bit_identical(self, execution):
        expected = oracle(execution)

        # Probe run: same checkpointed configuration, injector attached but
        # no crash armed -- its operation count bounds the crash sweep.
        probe_layout = crashing_layout()
        probe = partition_join(
            R, S, chaos_config(execution), layout=probe_layout, recovery=RecoveryLog()
        )
        assert_same_outcome(probe, expected)
        assert probe_layout.resilience_report.checkpoints_written >= 1
        total_ops = probe_layout.disk.fault_injector.ops_seen
        assert total_ops > 0

        stride = max(1, total_ops // 8)
        for k in range(1, total_ops + 1, stride):
            layout = crashing_layout(at_op=k)
            recovery = RecoveryLog()
            config = chaos_config(execution)
            try:
                run = partition_join(R, S, config, layout=layout, recovery=recovery)
            except SimulatedCrashError:
                run = resume_join(R, S, config, layout=layout, recovery=recovery)
                assert layout.resilience_report.resumes == 1
            assert_same_outcome(run, expected)

    @pytest.mark.parametrize("execution", EXECUTION_MODES)
    def test_crash_inside_an_unflushed_run_resumes_bit_identical(self, execution):
        """8-tuple pages and a long-lived cache: the probe lags the main disk
        by a run of dozens of pages, so a crash anywhere in the join phase
        drops matched-but-unemitted results along with the other volatile
        buffers -- and resume must still reproduce the run exactly."""
        r, s = long_lived_pair()
        config = long_lived_config(execution)

        layout_options = dict(spec=config.page_spec, checksums=False)

        probe_layout = crashing_layout(**layout_options)
        expected = partition_join(
            r, s, config, layout=probe_layout, recovery=RecoveryLog()
        )
        assert expected.outcome.overflow_blocks >= 1
        assert expected.outcome.cache_tuples_peak > RUN_ROWS  # streams longer than a run
        total_ops = probe_layout.disk.fault_injector.ops_seen
        join_ops = probe_layout.tracker.phases["join"].total_ops
        assert 0 < join_ops < total_ops

        first_join_op = total_ops - join_ops + 1
        for k in range(first_join_op + join_ops // 10, total_ops, join_ops // 5):
            layout = crashing_layout(at_op=k, **layout_options)
            recovery = RecoveryLog()
            with pytest.raises(SimulatedCrashError):
                partition_join(r, s, config, layout=layout, recovery=recovery)
            run = resume_join(r, s, config, layout=layout, recovery=recovery)
            assert_same_outcome(run, expected)

    def test_crash_with_a_partly_filled_lazy_result_page(self, monkeypatch):
        """The batch engine buffers result rows as unbuilt block slices.  A
        crash drops the open page's slices with the other volatile state;
        the pages that reached the result disk are rebuilt into the resumed
        relation, and rows and result file equal the tuple engine's."""
        expected = oracle("tuple")
        dropped = []
        abandon = HeapFile.abandon

        def spy(heap):
            buffered = heap.n_tuples
            abandon(heap)
            dropped.append(buffered - heap.n_tuples)

        monkeypatch.setattr(HeapFile, "abandon", spy)
        config = chaos_config("batch")
        probe_layout = crashing_layout()
        partition_join(R, S, config, layout=probe_layout, recovery=RecoveryLog())
        total_ops = probe_layout.disk.fault_injector.ops_seen
        join_ops = probe_layout.tracker.phases["join"].total_ops

        for k in range(total_ops - join_ops + 2, total_ops, max(1, join_ops // 12)):
            layout = crashing_layout(at_op=k)
            recovery = RecoveryLog()
            with pytest.raises(SimulatedCrashError):
                partition_join(R, S, config, layout=layout, recovery=recovery)
            run = resume_join(R, S, config, layout=layout, recovery=recovery)
            assert_same_outcome(run, expected)
            assert recovery.context.result_file.all_tuples() == list(expected.result.tuples)
        assert any(dropped)  # some crash did catch a page half full of slices

    def test_restored_state_carries_rows_not_columns(self, monkeypatch):
        """The batch engine carries each cached or retained row's columns
        across partitions; a checkpoint stores the rows only.  A resumed
        sweep starts from a spilled cache and retained outer tuples without
        columns, decomposes them as on a first pass, and still reproduces
        the uninterrupted run -- and the tuple oracle -- exactly."""
        from repro.core import joiner

        restored = []
        thaw = joiner.SweepState.thaw.__func__

        def spy(cls, *args):
            state = thaw(cls, *args)
            restored.append((state.cache, state.outer_retained))
            return state

        monkeypatch.setattr(joiner.SweepState, "thaw", classmethod(spy))
        r, s = long_lived_pair()
        config = long_lived_config("batch")
        probe_layout = crashing_layout(spec=config.page_spec, checksums=False)
        expected = partition_join(
            r, s, config, layout=probe_layout, recovery=RecoveryLog()
        )
        tuple_run = partition_join(r, s, long_lived_config("tuple"))
        assert list(expected.result.tuples) == list(tuple_run.result.tuples)
        total_ops = probe_layout.disk.fault_injector.ops_seen
        join_ops = probe_layout.tracker.phases["join"].total_ops

        layout = crashing_layout(
            at_op=total_ops - join_ops // 2, spec=config.page_spec, checksums=False
        )
        recovery = RecoveryLog()
        with pytest.raises(SimulatedCrashError):
            partition_join(r, s, config, layout=layout, recovery=recovery)
        checkpoint = recovery.checkpoint
        assert checkpoint.outer_retained and checkpoint.cache_spill_tuples > RUN_ROWS
        assert type(checkpoint.outer_retained) is tuple
        run = resume_join(r, s, config, layout=layout, recovery=recovery)
        assert_same_outcome(run, expected)
        ((cache, outer_retained),) = restored
        assert cache.n_tuples == checkpoint.cache_spill_tuples
        assert cache.carried() is None
        assert outer_retained == list(checkpoint.outer_retained)

    def test_double_crash_needs_two_resumes(self):
        expected = oracle("tuple")
        layout = crashing_layout()
        injector = layout.disk.fault_injector
        recovery = RecoveryLog()
        config = chaos_config("tuple")

        # First crash mid-run, second crash re-armed during the resume.
        injector.schedule_crash(at_op=120)
        with pytest.raises(SimulatedCrashError):
            partition_join(R, S, config, layout=layout, recovery=recovery)
        injector.schedule_crash(at_op=injector.ops_seen + 150)
        with pytest.raises(SimulatedCrashError):
            resume_join(R, S, config, layout=layout, recovery=recovery)
        run = resume_join(R, S, config, layout=layout, recovery=recovery)

        assert_same_outcome(run, expected)
        assert layout.resilience_report.resumes == 2
        assert recovery.resumes == 2

    def test_resume_requires_checkpointing_enabled(self):
        config = chaos_config("tuple", checkpoint_interval=0)
        with pytest.raises(CheckpointError, match="checkpoint"):
            resume_join(
                R,
                S,
                config,
                layout=DiskLayout(spec=SPEC),
                recovery=RecoveryLog(),
            )


class TestSwappedSinglePartitionResume:
    """Crash/resume through the single-partition shortcut's swap.

    When one relation fits in the buffer area, ``partition_join._prepare``
    makes the *smaller* side the outer partition and tells the sweep so
    (``swapped_inputs``), which hands the pair function its arguments in the
    caller's order.  The checkpointed context stores the partitions in that
    swapped orientation and the flag beside them, so a resume that forgets
    the flag replays every pair payload-reversed -- identical counters,
    wrong tuples.  Regression for exactly that: r spans more pages than the
    buffer, s fits, so swap is forced.
    """

    #: 80 tuples = 10 pages of r (exceeds the 5-page outer area) against
    #: 16 tuples = 2 pages of s (fits): single partition, swapped.
    R_SMALL = chaos_relation("rswap", 80, CHAOS_SEED + 5)
    S_SMALL = chaos_relation("sswap", 16, CHAOS_SEED + 6)

    @pytest.mark.parametrize("execution", EXECUTION_MODES)
    def test_resume_preserves_pair_orientation(self, execution):
        config = chaos_config(execution)
        expected = partition_join(
            self.R_SMALL, self.S_SMALL, config, layout=DiskLayout(spec=SPEC)
        )
        assert expected.plan.num_partitions == 1
        assert expected.outcome.n_result_tuples > 0
        for tup in expected.result:  # r's payload first, in every mode
            assert tup.payload[0].startswith("rswap") and tup.payload[1].startswith("sswap")

        probe_layout = crashing_layout()
        probe = partition_join(
            self.R_SMALL,
            self.S_SMALL,
            config,
            layout=probe_layout,
            recovery=RecoveryLog(),
        )
        assert_same_outcome(probe, expected)
        total_ops = probe_layout.disk.fault_injector.ops_seen

        stride = max(1, total_ops // 6)
        for k in range(1, total_ops + 1, stride):
            layout = crashing_layout(at_op=k)
            recovery = RecoveryLog()
            try:
                run = partition_join(
                    self.R_SMALL, self.S_SMALL, config, layout=layout, recovery=recovery
                )
            except SimulatedCrashError:
                run = resume_join(
                    self.R_SMALL, self.S_SMALL, config, layout=layout, recovery=recovery
                )
            assert_same_outcome(run, expected)


class TestCheckpointAccounting:
    def test_checkpoints_are_charged_io(self):
        plain_layout = DiskLayout(spec=SPEC)
        plain = partition_join(
            R, S, chaos_config("tuple", checkpoint_interval=0), layout=plain_layout
        )
        checked_layout = DiskLayout(spec=SPEC)
        checked = partition_join(
            R, S, chaos_config("tuple"), layout=checked_layout, recovery=RecoveryLog()
        )
        assert_same_outcome(checked, plain)
        report = checked_layout.resilience_report
        assert report.checkpoints_written >= 1
        # Checkpoint pages are real writes on the charged stream.
        assert (
            checked_layout.tracker.stats.total_ops
            > plain_layout.tracker.stats.total_ops
        )

    def test_uncrashed_run_commits_recovery_state(self):
        recovery = RecoveryLog()
        run = partition_join(
            R, S, chaos_config("tuple"), layout=DiskLayout(spec=SPEC), recovery=recovery
        )
        assert run.recovery is recovery
        assert recovery.resumable
        assert recovery.plan is not None
        assert recovery.checkpoint is not None
