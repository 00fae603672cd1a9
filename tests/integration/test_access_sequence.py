"""The main disk's access *sequence* is the same in every serial mode.

The sweep probes runs of pages but migrates page by page: old-cache reads
and new-cache writes share the CACHE head, so a migrant must reach the new
cache before the next page is read.  Per-phase counters cannot see a
reordering that keeps the totals; this test records the ordered charges
themselves, so a later change that batches the migration (or otherwise
reorders main-disk accesses) fails here, loudly.

The batch engine charges an uninterleaved scan as one run; a run of
``count`` pages is recorded as the ``count`` single accesses it stands
for, so a run used where another access belongs between two of its pages
-- across a migrating pass -- shows up as a reordering too.

On a disk with no fault injector and no checksums the batch engine does not
walk a pass whose stored pages are the rows it carries: it bills the walk's
sequence from those rows.  The cases below pin that billed path where it is
easiest to get wrong -- a resident cache area, a damaged page it must notice
before billing -- and check that it is the path actually taken.
"""

import gc
import random
import sys
import types
from dataclasses import replace
from itertools import chain

import pytest

from repro.core import joiner
from repro.core.intervals import PartitionMap
from repro.core.joiner import RUN_ROWS, PartitionSweep, join_partitions
from repro.core.partition_join import partition_join
from repro.core.partitioner import do_partitioning
from repro.exec import kernels, pruned_probe
from repro.exec.batch import RowRefs
from repro.exec.kernels import Kernels
from repro.model.relation import ValidTimeRelation
from repro.model.schema import RelationSchema
from repro.model.vtuple import VTTuple
from repro.resilience import FaultInjector
from repro.storage.disk import SimulatedDisk
from repro.storage.layout import DiskLayout
from repro.storage.page import PageSpec
from repro.time.interval import Interval
from repro.workloads import fig8_spec, generate_pair

from tests.chaos.conftest import CHAOS_SEED, long_lived_config, long_lived_pair


def record_charges(layout):
    """``(accesses, calls)`` the main disk of *layout* charges from here on:
    ``(device, extent, page, write)`` per page, and each call's page count.
    Every charge goes through ``SimulatedDisk.charge_runs`` -- a single run
    (``_charge``) as its one-run case -- and each run of a call is expanded
    into its single accesses, in order."""
    accesses = []
    calls = []
    charge_runs = layout.disk.charge_runs

    def recording_charge_runs(runs, *, retry=False):
        runs = list(runs)
        calls.append(sum(count for _, _, count, _ in runs))
        accesses.extend(
            (extent.device, extent.name, page, write)
            for extent, index, count, write in runs
            for page in range(index, index + count)
        )
        charge_runs(runs, retry=retry)

    layout.disk.charge_runs = recording_charge_runs
    return accesses, calls


def charged_accesses(execution, direction):
    """``(run, [(device, extent, page, write), ...], charge calls)`` of one join."""
    config = long_lived_config(
        execution, checkpoint_interval=0, sweep_direction=direction
    )
    layout = DiskLayout(spec=config.page_spec)
    accesses, calls = record_charges(layout)
    run = partition_join(*long_lived_pair(), config, layout=layout)
    return run, accesses, len(calls)


@pytest.mark.parametrize("direction", ["backward", "forward"])
def test_batch_charges_the_access_sequence_of_tuple(direction):
    tuple_run, tuple_accesses, tuple_calls = charged_accesses("tuple", direction)
    batch_run, batch_accesses, batch_calls = charged_accesses("batch", direction)

    # The fixture exercises what the invariant is about: 8-tuple pages, so a
    # run spans dozens of them; a spilling cache longer than one run; and
    # overflow blocks re-reading both streams.
    capacity = tuple_run.layout.spec.capacity
    assert capacity * 16 <= RUN_ROWS
    assert tuple_run.outcome.cache_tuples_peak > RUN_ROWS
    assert tuple_run.outcome.cache_tuples_spilled > RUN_ROWS
    assert tuple_run.outcome.overflow_blocks >= 1

    assert batch_accesses == tuple_accesses
    assert batch_calls < tuple_calls * 0.8  # the overflow passes went by run
    assert batch_run.layout.disk.device_stats == tuple_run.layout.disk.device_stats
    assert list(batch_run.result.tuples) == list(tuple_run.result.tuples)
    assert (
        batch_run.layout.result_stats.as_dict()
        == tuple_run.layout.result_stats.as_dict()
    )


#: The hand-driven sweep's shape: partitions, Grace buffer pages, outer area.
N_PARTITIONS, MEMORY_PAGES, BUFF_SIZE = 8, 64, 40
#: An outer area that cuts every step's partition into several blocks.
SMALL_BUFF_SIZE = 34


def tearing_the_first_spill(flush, disk, torn):
    """``_TupleCache.flush``, then -- once -- a tear in the middle of the first
    spill file of more than one page, which the next step re-reads."""

    def flush_and_tear(cache):
        flush(cache)
        spill = cache.spill
        if not torn and spill is not None and spill.n_pages > 1:
            disk.corrupt_stored(spill.extent, spill.n_pages // 2)
            torn.append(spill.extent.name)

    return flush_and_tear


def by_hand(
    execution, direction, *, cache_memory_tuples=0, damage=None, page_spec=None, buff_size=BUFF_SIZE
):
    """``(outcome, layout, accesses, passes)`` of a join driven phase by phase,
    as the benchmark suite's replay drives one, on a disk with no fault
    injector and no checksums, with the fixture's pages unless *page_spec*
    is given, and an outer area of *buff_size* pages.  *damage* tears a
    stored page the sweep re-reads: the middle page of the largest inner
    partition (``"partition"``), or of the first multi-page cache spill
    (``"cache"``).  *passes* is ``(passes made, passes walked)``."""
    r, s = long_lived_pair()
    layout = DiskLayout(spec=page_spec or long_lived_config().page_spec)
    r_file, s_file = layout.place_relation(r), layout.place_relation(s)
    accesses, _ = record_charges(layout)
    spans = [tup.valid for tup in chain(r, s)]
    lo, hi = min(span.start for span in spans), max(span.end for span in spans)
    width = -(-(hi - lo + 1) // N_PARTITIONS)
    partition_map = PartitionMap(
        [Interval(lo + i * width, lo + (i + 1) * width - 1) for i in range(N_PARTITIONS)]
    )
    placement = "last" if direction == "backward" else "first"
    parts = []
    for name, heap in (("r", r_file), ("s", s_file)):
        parts.append(
            do_partitioning(
                heap, partition_map, layout, name, MEMORY_PAGES,
                placement=placement, execution=execution,
            )
        )
        layout.disk.park_heads()
    r_parts, s_parts = parts
    calls, torn = dict.fromkeys(("_pass", "_probe_pages"), 0), []
    with pytest.MonkeyPatch.context() as patch:
        for name in calls:

            def counting(*args, name=name, method=getattr(PartitionSweep, name)):
                calls[name] += 1
                return method(*args)

            patch.setattr(PartitionSweep, name, counting)
        if damage == "partition":
            inner = max(s_parts, key=lambda part: part.n_pages)
            layout.disk.corrupt_stored(inner.extent, inner.n_pages // 2)
        elif damage == "cache":
            flush = joiner._TupleCache.flush
            patch.setattr(
                joiner._TupleCache, "flush", tearing_the_first_spill(flush, layout.disk, torn)
            )
        outcome = join_partitions(
            r_parts,
            s_parts,
            partition_map,
            buff_size,
            layout,
            r.schema.join_result_schema(s.schema),
            direction=direction,
            cache_memory_tuples=cache_memory_tuples,
            execution=execution,
        )
    assert (damage == "cache") == bool(torn)
    return outcome, layout, accesses, (calls["_pass"], calls["_probe_pages"])


def assert_batch_bills_what_tuple_walks(direction, **kwargs):
    """The batch run's charged accesses, rows in emission order, counters,
    per-phase ledger and result stream equal the oracle's; returns the batch
    run's ``(passes made, passes walked)``."""
    oracle, oracle_layout, oracle_accesses, _ = by_hand("tuple", direction, **kwargs)
    outcome, layout, accesses, passes = by_hand("batch", direction, **kwargs)
    assert oracle.overflow_blocks >= 1 and oracle.cache_tuples_spilled > RUN_ROWS
    assert accesses == oracle_accesses
    assert list(outcome.result.tuples) == list(oracle.result.tuples)
    assert replace(outcome, result=None) == replace(oracle, result=None)
    assert layout.disk.device_stats == oracle_layout.disk.device_stats
    assert layout.result_stats.as_dict() == oracle_layout.result_stats.as_dict()
    assert ledger(layout) == ledger(oracle_layout)
    return passes


def ledger(layout):
    return {name: stats.as_dict() for name, stats in layout.tracker.phases.items()}


@pytest.mark.parametrize("resident", [0, 3 * 8])
@pytest.mark.parametrize("direction", ["backward", "forward"])
def test_several_blocks_a_step_bill_and_emit_as_the_walk(direction, resident, monkeypatch):
    """An outer area of SMALL_BUFF_SIZE pages cuts every step's partition
    into 2 to 6 blocks: the batch engine probes each stream once a step
    against the whole partition's index and emits each block's cut of the
    pairs in the walk's order -- rows, counters, per-phase ledger and the
    expanded access sequence are the tuple engine's, a resident cache area
    or not."""
    per_step, split = [], joiner._split_blocks

    def noting(outer, block_tuples):
        blocks = split(outer, block_tuples)
        per_step.append(len(blocks))
        return blocks

    monkeypatch.setattr(joiner, "_split_blocks", noting)
    _, walked = assert_batch_bills_what_tuple_walks(
        direction, cache_memory_tuples=resident, buff_size=SMALL_BUFF_SIZE
    )
    assert walked == 0
    assert min(per_step) >= 2 and max(per_step) <= 6 and len(set(per_step)) > 1


@pytest.mark.parametrize("direction", ["backward", "forward"])
def test_a_resident_cache_area_fills_before_the_billed_spill(direction, monkeypatch):
    """Migrants go resident before any spill write, and a pass over the
    old cache starts with its resident rows, which are read from no page."""
    resident_passes = []
    stored_bounds = joiner._stored_bounds

    def noting_resident(resident, heap, carried):
        bounds = stored_bounds(resident, heap, carried)
        if bounds is not None:
            resident_passes.append(len(resident))
        return bounds

    monkeypatch.setattr(joiner, "_stored_bounds", noting_resident)
    _, walked = assert_batch_bills_what_tuple_walks(direction, cache_memory_tuples=3 * 8)
    assert walked == 0
    assert any(resident_passes)


@pytest.mark.parametrize("direction", ["backward", "forward"])
def test_odd_pages_and_a_small_resident_area_fill_where_the_walk_does(direction, monkeypatch):
    """Pages of 7 rows and a resident area of 5 rows: the area fills a few
    migrants into a pass, so the spill pages fill at migrants in the middle
    of a page, and a pass can leave the new cache's open page part-full
    for the next pass to fill."""
    capacity, seen = 7, []
    fills = joiner._TupleCache.fills

    def noting_fills(cache, n):
        open_room = cache.spill.open_room if cache.spill is not None else capacity
        seen.append((5 - len(cache.resident), open_room, n))
        return fills(cache, n)

    monkeypatch.setattr(joiner._TupleCache, "fills", noting_fills)
    spec = PageSpec(page_bytes=capacity * 128, tuple_bytes=128)
    _, walked = assert_batch_bills_what_tuple_walks(
        direction, cache_memory_tuples=5, page_spec=spec
    )
    assert walked == 0
    assert any(0 < room < n for room, _, n in seen)
    assert any(open_room < capacity for _, open_room, _ in seen)


@pytest.mark.parametrize("direction", ["backward", "forward"])
@pytest.mark.parametrize("damage", ["partition", "cache"])
def test_a_damaged_page_is_walked_not_billed(direction, damage):
    """A stored page torn on a disk that cannot notice: the stream is no
    longer the rows carried, so its pass must walk -- decided before it
    bills anything -- and see what the tuple engine sees."""
    passes, walked = assert_batch_bills_what_tuple_walks(direction, damage=damage)
    assert 0 < walked < passes


def reads_by_phase(injector, execution="batch"):
    """``(reads per phase, run)``: calls of ``SimulatedDisk.read`` in each
    phase of an *execution* join of the chaos long-lived fixture."""
    config = long_lived_config(execution, checkpoint_interval=0)
    layout = DiskLayout(spec=config.page_spec, fault_injector=injector)
    calls = {}
    read = SimulatedDisk.read

    def counting_read(disk, extent, index):
        phase = layout.tracker._current
        calls[phase] = calls.get(phase, 0) + 1
        return read(disk, extent, index)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SimulatedDisk, "read", counting_read)
        run = partition_join(*long_lived_pair(), config, layout=layout)
    return calls, run


def test_a_fault_free_batch_join_reads_no_page_one_by_one():
    """Every partition-phase and join-phase scan is billed (or read by
    run): a silent fall-back to walking would still pass the sequence
    tests, and fails here."""
    calls, run = reads_by_phase(None)
    phases = run.layout.tracker.phases
    assert phases["partition"].reads > 0 and phases["join"].reads > 0
    assert calls.get("partition", 0) == calls.get("join", 0) == 0


def test_a_fault_free_forward_sweep_reads_no_page_one_by_one():
    """The sweep's scans -- the base files in its sort phase, the sorted
    runs in its join phase -- are billed off the columns the files carry."""
    calls, run = reads_by_phase(None, "forward-sweep")
    phases = run.layout.tracker.phases
    assert phases["sort"].reads > 0 and phases["join"].reads > 0
    assert calls == {}


#: GC-tracked objects a join may keep per file and per emitted block.
OBJECTS_PER_FILE_OR_BLOCK = 16


def tracked_reachable(roots, exclude=frozenset()):
    """``(ids, count)``: the objects reachable from *roots* -- classes,
    modules and code left out, and not through the ids in *exclude* -- and
    how many of them the collector tracks."""
    opaque = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen, stack, tracked = set(), list(roots), 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or id(obj) in exclude or isinstance(obj, opaque):
            continue
        seen.add(id(obj))
        tracked += gc.is_tracked(obj)
        stack.extend(gc.get_referents(obj))
    return seen, tracked


@pytest.mark.parametrize("scale", [32, 16])
def test_a_billed_join_keeps_no_object_per_page(scale):
    """A fault-free batch join on 8-row pages stores each written run as
    its rows, not as a list per page: what its layout and result keep
    alive is O(files + emitted blocks), at the fixture's size and at twice
    its rows -- a writer that slices pages again keeps one object a page."""
    spec = replace(fig8_spec(64_000).scaled(scale), seed=CHAOS_SEED + 5)
    r, s = generate_pair(spec)
    config = long_lived_config("batch", checkpoint_interval=0)
    partition_join(r, s, config)  # the relations split their columns once
    run = partition_join(r, s, config)
    inputs, _ = tracked_reachable([r, s])
    _, kept = tracked_reachable([run.layout, run.result], inputs)
    disks = (run.layout.disk, run.layout._result_disk)
    files = sum(len(disk._extents) for disk in disks)
    blocks = len(run.result._chunks)
    pages = sum(extent.n_pages for disk in disks for extent in disk._extents)
    assert blocks > 1 and pages > 10 * (files + blocks)
    assert kept <= OBJECTS_PER_FILE_OR_BLOCK * (files + blocks)


def test_a_fault_injector_sends_every_read_through_read():
    """With an injector -- even one that never fires -- each page read is a
    ``read`` call the injector can act on."""
    calls, run = reads_by_phase(FaultInjector(seed=CHAOS_SEED))
    phases = run.layout.tracker.phases
    assert run.layout.resilience_report.retries == 0
    for phase in ("partition", "join"):
        assert calls[phase] == phases[phase].reads > 0


@pytest.mark.parametrize("direction", ["backward", "forward"])
def test_a_billed_pass_charges_once_and_probes_once(direction, monkeypatch):
    """A billed pass bills its whole walk in one ``charge_runs`` call; a
    billed stream is probed in one kernel call per step, however many outer
    blocks pass over it, which expands each chunk of candidates once -- and
    the walk's access sequence is still billed."""
    config = long_lived_config("batch", checkpoint_interval=0, sweep_direction=direction)
    layout = DiskLayout(spec=config.page_spec)
    accesses, calls = record_charges(layout)
    seen = dict.fromkeys(("walked", "kernel", "chunks", "expansions"), 0)

    def counting(key, fn, size=lambda result: 1):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            seen[key] += size(result)
            return result

        return counted

    monkeypatch.setattr(
        PartitionSweep, "_probe_pages", counting("walked", PartitionSweep._probe_pages)
    )
    monkeypatch.setattr(
        joiner, "probe_pruned_chunks", counting("kernel", joiner.probe_pruned_chunks)
    )
    monkeypatch.setattr(
        Kernels, "probe_column_chunks",
        counting("kernel", Kernels.probe_column_chunks),
    )
    for module in (kernels, pruned_probe):
        monkeypatch.setattr(
            module, "candidate_chunks", counting("chunks", module.candidate_chunks, len)
        )
        monkeypatch.setattr(
            module, "expand_candidates", counting("expansions", module.expand_candidates)
        )
    billed, steps = [], []
    pass_, step = PartitionSweep._pass, PartitionSweep.step

    def noting_pass(sweep, *args):
        before, n_calls = dict(seen), len(calls)
        result = pass_(sweep, *args)
        delta = {key: seen[key] - before[key] for key in seen}
        if not delta.pop("walked"):
            billed.append(((len(steps), args[1]), len(calls) - n_calls, *delta.values()))
        return result

    def noting_step(sweep, state):
        steps.append(state.position)
        return step(sweep, state)

    monkeypatch.setattr(PartitionSweep, "_pass", noting_pass)
    monkeypatch.setattr(PartitionSweep, "step", noting_step)
    outcome = partition_join(*long_lived_pair(), config, layout=layout).outcome
    monkeypatch.undo()

    streams = {stream for stream, *_ in billed}
    assert outcome.overflow_blocks > 0 and len(billed) > len(streams) > 2 * N_PARTITIONS - 2
    assert {charges for _, charges, _, _, _ in billed} == {1}
    for stream in streams:
        assert sum(kernel for at, _, kernel, _, _ in billed if at == stream) == 1, stream
    assert all(chunks == expansions for _, _, _, chunks, expansions in billed)
    _, tuple_accesses, _ = charged_accesses("tuple", direction)
    assert accesses == tuple_accesses


def few_keys_short_intervals():
    """Two relations on four keys with intervals of at most three chronons:
    key groups far longer than any interval, so the outer partitions keep
    the pruned window probe."""
    rng = random.Random(CHAOS_SEED + 11)
    pair = []
    for name in ("r", "s"):
        rows = []
        for number in range(3000):
            start = rng.randrange(2000)
            span = Interval(start, start + rng.randrange(3))
            rows.append(VTTuple((f"k{rng.randrange(4)}",), (f"{name}{number}",), span))
        schema = RelationSchema(name, join_attributes=("k",), payload_attributes=(name,))
        pair.append(ValidTimeRelation(schema, rows))
    return pair


def materialisations(join):
    """``(rows per call, index kinds, walked pages, run)``: the reference
    sequences *join* materialises outside emission (``MatchBlock``), the
    kinds of index the steps' outer partitions took (``"pruned"`` or
    ``"csr"``), and how many pages passes walked (an empty tuple cache is
    walked, reading nothing)."""
    calls, kinds, walked = [], set(), []
    tolist = RowRefs.tolist
    build_index, probe_pages = joiner._BatchEngine.build_index, PartitionSweep._probe_pages

    def counting(refs):
        frame = sys._getframe(1)
        while frame is not None and not frame.f_code.co_filename.endswith("match_block.py"):
            frame = frame.f_back
        if frame is None:
            calls.append(len(refs))
        return tolist(refs)

    def noting_index(engine, block):
        index = build_index(engine, block)
        kinds.add("pruned" if index.csr is None else "csr")
        return index

    def noting_walk(*args):
        counts, seen = probe_pages(*args)
        walked.append(counts["pages"])
        return counts, seen

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RowRefs, "tolist", counting)
        patch.setattr(joiner._BatchEngine, "build_index", noting_index)
        patch.setattr(PartitionSweep, "_probe_pages", noting_walk)
        run = join()
    return calls, kinds, sum(walked), run


@pytest.mark.parametrize(
    "fixture", ["long_lived", "long_lived_resident", "few_keys_short_intervals"]
)
def test_a_billed_join_fetches_row_objects_only_to_emit(fixture, monkeypatch):
    """A fault-free batch join carries rows as positions: routing them to
    their Grace buckets, checking the stored runs, purging the outer buffer,
    migrating into the tuple cache (its resident area too) and spilling an
    overflow block move ints, and a row object is fetched only where a
    match block takes it."""
    r, s = few_keys_short_intervals() if fixture.startswith("few") else long_lived_pair()
    resident_pages = 4 if fixture == "long_lived_resident" else 0
    config = long_lived_config(
        "batch", checkpoint_interval=0, cache_buffer_pages=resident_pages
    )
    oracle = partition_join(r, s, replace(config, execution="tuple"))
    partition_join(r, s, config)  # the relations box their rows once
    residents, take = [], joiner._TupleCache.take

    def noting_resident(cache, migrants):
        take(cache, migrants)
        residents.append(len(cache.resident))

    monkeypatch.setattr(joiner._TupleCache, "take", noting_resident)
    calls, kinds, walked, run = materialisations(lambda: partition_join(r, s, config))
    assert max(residents) == resident_pages * 8  # the area filled
    assert calls == []
    assert walked == 0 and run.plan.num_partitions > 1
    # Four keys keep every step's index pruned; on the long-lived pair the
    # first step's outer partition prunes and the later ones take the CSR
    # probe.
    assert kinds == ({"pruned"} if fixture.startswith("few") else {"pruned", "csr"})
    assert list(run.result.tuples) == list(oracle.result.tuples)
    if fixture == "long_lived":
        assert run.outcome.overflow_blocks >= 1 and run.outcome.cache_tuples_spilled > 0
