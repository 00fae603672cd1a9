"""The sweep is a state and a step, and a checkpoint is that state frozen.

These tests drive :class:`repro.core.joiner.PartitionSweep` by hand instead
of through ``run``: every partition is stepped from a state *thawed* out of
the last committed checkpoint, in a *newly built* sweep object -- so nothing
can cross a partition boundary except what :class:`SweepState` holds and
``freeze`` stores.  Whatever the sweep carried on the side (a loop variable,
a warm engine, a page buffer) would show up here as a difference
from the uninterrupted run: in the rows and their order, the
``JoinOutcome`` counters, the per-phase ledger or the per-device counters.
"""

import dataclasses
import random

import pytest

from repro.core.joiner import PartitionSweep, SweepState, _BatchEngine, natural_pair
from repro.exec.batch import RowRefs
from repro.core.partition_join import (
    EXECUTION_MODES,
    PartitionJoinConfig,
    _open_call,
    _prepare,
    partition_join,
)
from repro.model.relation import ValidTimeRelation
from repro.model.schema import RelationSchema
from repro.resilience import BufferReduction, RecoveryLog
from repro.resilience.checkpoint import SweepCheckpointer, SweepContext
from repro.storage.buffer import JoinBufferAllocation
from repro.storage.layout import DiskLayout

from tests.chaos.conftest import (
    CHAOS_SEED,
    SPEC,
    chaos_relation,
    long_lived_config,
    long_lived_pair,
)
from tests.integration.test_execution_modes import keep_odd_overlaps

DIRECTIONS = ("backward", "forward")


def fresh_layout(config):
    return DiskLayout(spec=config.page_spec)


def observe(outcome, layout):
    """Everything a run may not change: rows in emission order, the four
    counters, the per-phase ledger and the per-device counters."""
    return {
        "rows": list(outcome.result.tuples),
        "counters": (
            outcome.n_result_tuples,
            outcome.overflow_blocks,
            outcome.cache_tuples_peak,
            outcome.cache_tuples_spilled,
        ),
        "phases": {
            name: stats.as_dict() for name, stats in layout.tracker.phases.items()
        },
        "devices": {
            device: stats.as_dict() for device, stats in layout.disk.device_stats.items()
        },
        "result": layout.result_stats.as_dict(),
    }


def stepped_by_hand(r, s, config, pair_fn=natural_pair, carried=True):
    """``partition_join`` with the sweep taken apart: prepare as it does,
    then thaw -> step -> barrier per partition, each in a new sweep object.
    With *carried* off the partition files reach the sweep without the
    columns the partitioner handed them, as files of a resumed process that
    kept none would.

    Returns ``(observation, layout, checkpoints thawed)``.
    """
    layout = fresh_layout(config)
    recovery = RecoveryLog()
    call = _open_call(r, s, config, layout, pair_fn, recovery, None)
    r_file, s_file = layout.place_relation(r), layout.place_relation(s)
    plan, partition_map, r_parts, s_parts, swapped, buff_size = _prepare(
        call, r_file, s_file, None
    )
    resident_pages = (
        config.memory_pages - JoinBufferAllocation.FIXED_PAGES - buff_size
    )
    if config.execution == "batch" and len(r_parts) > 1:
        # Grace partitioning handed every bucket's columns on to its file.
        assert all(
            part.carried is not None and len(part.carried) == part.n_tuples
            for part in (*r_parts, *s_parts)
            if part.n_tuples
        )
    if not carried:
        for part in (*r_parts, *s_parts):
            part.carried = None
    context = SweepContext(
        r_parts=tuple(r_parts),
        s_parts=tuple(s_parts),
        partition_map=partition_map,
        buff_size=buff_size,
        result_schema=call.result_schema,
        collect=True,
        direction=config.sweep_direction,
        cache_memory_tuples=resident_pages * layout.spec.capacity,
        execution=config.execution,
        result_file=layout.result_file("join_result"),
        swapped=swapped,
    )
    # One checkpointer throughout, as in one run: it owns the CHECKPOINT
    # extent, and a second extent would sit at other disk addresses.
    checkpointer = SweepCheckpointer(layout, recovery, config.checkpoint_interval)

    def new_sweep():
        return PartitionSweep(
            context,
            layout,
            pair_fn=pair_fn,
            checkpointer=checkpointer,
            buffer_reductions=config.buffer_reductions,
        )

    thawed = []
    with layout.tracker.phase("join"):
        checkpointer.begin(context, SweepState.fresh(context))
        sweep = new_sweep()
        while True:
            thawed.append(recovery.checkpoint)
            state = SweepState.thaw(context, recovery.checkpoint, layout)
            assert state.position == recovery.checkpoint.position == len(thawed) - 1
            assert type(state.outer_retained) is list  # rows, never columns
            assert state.cache is None or state.cache.carried() is None
            sweep.step(state)
            if state.position == sweep.n:
                break
            # The barrier belongs to the sweep that steps next.
            sweep = new_sweep()
            sweep.barrier(state)
            assert recovery.checkpoint == state.freeze(recovery.checkpoint.epoch)
        state.result_file.flush()
    assert len(thawed) == len(plan.intervals) == sweep.n
    return observe(state.outcome, layout), layout, thawed


def uninterrupted(r, s, config, pair_fn=natural_pair):
    layout = fresh_layout(config)
    run = partition_join(r, s, config, layout=layout, pair_fn=pair_fn)
    return observe(run.outcome, layout), layout


class TestEveryBoundary:
    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("mode", EXECUTION_MODES)
    def test_thawed_at_every_boundary_equals_the_uninterrupted_run(
        self, mode, direction
    ):
        r, s = long_lived_pair()
        config = long_lived_config(
            mode, checkpoint_interval=1, sweep_direction=direction
        )
        expected, _ = uninterrupted(r, s, config)
        stepped, _, thawed = stepped_by_hand(r, s, config)
        assert stepped == expected

        # The fixture carries everything a boundary can: overflow blocks, a
        # spilling tuple cache and retained outer rows.
        _, overflow_blocks, _, spilled = expected["counters"]
        assert len(thawed) > 4 and overflow_blocks > 0 and spilled > 0
        assert any(checkpoint.outer_retained for checkpoint in thawed)
        assert any(checkpoint.cache_spill_tuples for checkpoint in thawed)

    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("mode", ["batch"])
    def test_thawed_with_nothing_carried_equals_the_uninterrupted_run(
        self, mode, direction
    ):
        """Carried columns are an accelerator, not state: a sweep resumed at
        every boundary over files that carry nothing decomposes each
        delivery itself and lands on the same run."""
        r, s = long_lived_pair()
        config = long_lived_config(
            mode, checkpoint_interval=1, sweep_direction=direction
        )
        expected, _ = uninterrupted(r, s, config)
        stepped, _, thawed = stepped_by_hand(r, s, config, carried=False)
        assert stepped == expected
        assert len(thawed) > 4

    @pytest.mark.parametrize("mode", EXECUTION_MODES)
    def test_a_reduction_before_a_thaw_point_is_recorded_once(self, mode):
        """A ``BufferReduction`` that started before the state was thawed
        shrinks the buffer silently -- the run that crossed it recorded it."""
        r = chaos_relation("r", 400, CHAOS_SEED + 1)
        s = chaos_relation("s", 400, CHAOS_SEED + 2)
        config = PartitionJoinConfig(
            memory_pages=8,
            page_spec=SPEC,
            checkpoint_interval=1,
            execution=mode,
            buffer_reductions=(BufferReduction(at_position=1, buff_size=1),),
        )
        expected, expected_layout = uninterrupted(r, s, config)
        stepped, layout, thawed = stepped_by_hand(r, s, config)
        assert stepped == expected
        assert len(thawed) > 3
        unreduced, _ = uninterrupted(
            r, s, dataclasses.replace(config, buffer_reductions=())
        )
        assert expected["counters"][1] > unreduced["counters"][1]  # it did bite
        for report in (layout.resilience_report, expected_layout.resilience_report):
            assert [(e.kind, e.position) for e in report.degradations] == [
                ("buffer-reduction", 1)
            ]


class TestOnePartition:
    @pytest.mark.parametrize("mode", EXECUTION_MODES)
    def test_swapped_one_partition_case_is_the_same_step(self, mode):
        """``|r| > buffSize >= |s|``: one partition, s resident, and a pair
        function that must still see ``(r row, s row)``."""
        r = chaos_relation("r", 500, CHAOS_SEED + 3)
        s = chaos_relation("s", 40, CHAOS_SEED + 4)
        config = PartitionJoinConfig(
            memory_pages=16, page_spec=SPEC, checkpoint_interval=1, execution=mode
        )
        expected, _ = uninterrupted(r, s, config, keep_odd_overlaps)
        stepped, _, thawed = stepped_by_hand(r, s, config, keep_odd_overlaps)
        assert stepped == expected
        assert len(thawed) == 1  # the position-0 checkpoint ``begin`` commits
        assert 0 < expected["counters"][0] < uninterrupted(r, s, config)[0]["counters"][0]
        for tup in expected["rows"]:
            assert tup.payload[0].startswith("s") and tup.payload[1].startswith("r")


def keyed_relation(name, n_tuples, seed):
    """``chaos_relation`` with one key per two rows instead of twelve keys in
    all, so a partition can hold keys that no earlier one did."""
    schema = RelationSchema(
        name, join_attributes=("emp",), payload_attributes=(f"p_{name}",)
    )
    rng = random.Random(seed)
    rows = []
    for i in range(n_tuples):
        vs = rng.randrange(480)
        key = rng.randrange(n_tuples // 2)
        rows.append((key, f"{name}{i}", vs, vs + 1 + rng.randrange(64)))
    return ValidTimeRelation.from_rows(schema, rows)


class TestThaw:
    @pytest.mark.parametrize("carried", [True, False])
    def test_a_thawed_sweep_interns_a_one_page_outer_partition(
        self, carried, monkeypatch
    ):
        """A sweep thawed at a boundary holds its retained outer rows as a
        list.  When the next outer partition is a single page -- the billed
        scan's references, or a page read -- its keys must still be
        interned for the outer index: an id the index does not hold matches
        nothing."""
        r, s = keyed_relation("r", 40, 3), keyed_relation("s", 40, 1003)
        config = PartitionJoinConfig(
            memory_pages=5,
            page_spec=SPEC,
            checkpoint_interval=1,
            execution="batch",
        )
        shapes = []
        assemble = _BatchEngine.assemble_outer

        def recording(engine, retained, pages, index, carried=None):
            shapes.append((type(retained), bool(retained), len(pages), type(pages[0])))
            return assemble(engine, retained, pages, index, carried)

        monkeypatch.setattr(_BatchEngine, "assemble_outer", recording)
        stepped, _, thawed = stepped_by_hand(r, s, config, carried=carried)
        monkeypatch.undo()
        # Retained rows thawed as a list met a one-page partition.
        assert (list, True, 1, RowRefs if carried else list) in shapes
        oracle, _ = uninterrupted(r, s, dataclasses.replace(config, execution="tuple"))
        assert stepped["rows"] == oracle["rows"]
        assert stepped == uninterrupted(r, s, config)[0]
