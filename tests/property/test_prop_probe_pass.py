"""Property tests: probing a whole pass in budget-bounded chunks is probing it
run by run.

A billed sweep pass probes all its carried rows in one kernel call: the
windows (pruned index) or group counts (CSR index) of every row once, then
one expansion per chunk of consecutive rows holding at most
``CANDIDATE_BUDGET`` candidates (a row above the budget alone).  Whatever
the budget, the chunks' outputs laid end to end must be the outputs of the
walked path's ``RUN_ROWS``-row runs, inner rows offset by each run's first
row, and the pairs of the tuple engine's probe loop -- for both index
kinds, on blocks dense in tied starts, made of single-row key groups or of
one key, against inner rows whose keys the block lacks (ids of ``-1`` and
above the block's largest) or whose windows are empty.

A sweep step builds one index over its whole outer partition and probes a
stream once against it, however many buffer-sized blocks the partition is
cut into: cut per block, those pairs must be each block's own probe.  The
index carries the CSR probe exactly when fewer than half its rows are in
key groups that can be pruned, and that CSR index probes as the tuple
engine does past one byte of key ids.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import joiner
from repro.core.intervals import PartitionMap
from repro.core.joiner import RUN_ROWS, _BatchEngine, _Block, _build_index, _TupleEngine
from repro.exec import kernels as kernels_module
from repro.exec.batch import PageBatch
from repro.exec.kernels import _CsrProbeIndex
from repro.exec.pruned_probe import PrunedProbeIndex, probe_pruned, probe_pruned_chunks
from repro.model.vtuple import VTTuple
from repro.time.interval import Interval

#: The one kernel backend, named in the case ids.
BACKENDS = ["numpy"]
BUDGETS = (1, 7, 2**20)
PMAP = PartitionMap([Interval(0, 39), Interval(40, 79), Interval(80, 119)])

prop_settings = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def shapes(draw):
    """The knobs of one outer block and inner batch: ``(seed, block rows,
    keys, tied starts, inner rows)``.  ``keys == block rows`` makes every
    key group a single row (the CSR index); one key makes one group; a
    pool of tied starts makes the composite key dense in ties."""
    n_block = draw(st.integers(1, 80))
    keys = draw(st.sampled_from([1, 3, 3, n_block]))
    tied = draw(st.sampled_from([0, 0, 1, 3]))  # 0: starts drawn freely
    n_inner = draw(st.one_of(st.integers(0, 40), st.integers(RUN_ROWS, 3 * RUN_ROWS)))
    return draw(st.integers(0, 2**32)), n_block, keys, tied, n_inner


def rows_of(shape):
    """``(block, inner)`` rows of *shape*.  Inner keys ``ghost*`` are absent
    from the block; inner rows past chronon 200 find empty windows."""
    seed, n_block, keys, tied, n_inner = shape
    rng = random.Random(seed)
    pool = [rng.randrange(5, 110) for _ in range(tied)]
    block = []
    for row in range(n_block):
        start = rng.choice(pool) if pool else rng.randrange(0, 115)
        end = start + rng.choice((0, 1, 2, 4, 30))
        block.append(VTTuple((f"k{row % keys}",), (row,), Interval(start, end)))
    inner = []
    for row in range(n_inner):
        key = rng.choice([f"k{rng.randrange(keys)}"] * 4 + ["ghost0", "ghost1"])
        start = rng.randrange(0, 115) if rng.random() < 0.9 else rng.randrange(200, 300)
        end = start + rng.choice((0, 1, 3, 10, 60))
        inner.append(VTTuple((key,), (row,), Interval(start, end)))
    return block, inner


def engine_batches(block, inner, rng):
    """The engine's outer and inner batches; half the ghost rows carry
    ``-1`` (a key the probe side never interned), the rest the fresh ids
    interning gave them, above the block's largest."""
    engine = _BatchEngine(PMAP, "backward")
    outer = engine.decompose([block])
    top = int(outer.key_ids.max())
    batch = engine.decompose([inner])
    ids = batch.key_ids.copy()
    for row in range(len(ids)):
        if ids[row] > top and rng.random() < 0.5:
            ids[row] = -1
    inner_batch = PageBatch(batch.tuples, ids, batch.starts, batch.ends, batch.keys)
    return engine, outer, inner_batch


def tuple_probe(block, inner, part, direction):
    """The tuple engine's matches as the kernels' four columns: outer row,
    inner row, overlap start, overlap end."""
    outer_row = {id(tup): row for row, tup in enumerate(block)}
    inner_row = {id(tup): row for row, tup in enumerate(inner)}
    matches = _TupleEngine(PMAP, direction).probe(_build_index(block), [inner], part)
    return [
        [outer_row[id(outer)] for outer, _, _ in matches],
        [inner_row[id(tup)] for _, tup, _ in matches],
        [common.start for _, _, common in matches],
        [common.end for _, _, common in matches],
    ]


def as_lists(columns):
    return [list(map(int, column)) for column in columns]


def joined(chunks):
    """Chunk outputs laid end to end, as lists."""
    out = [[], [], [], []]
    for chunk in chunks:
        for column, values in zip(out, as_lists(chunk)):
            column.extend(values)
    return out


def by_run(probe, batch):
    """*probe* applied to each ``RUN_ROWS``-row run of *batch*, inner rows
    offset by the run's first row, laid end to end."""
    out = [[], [], [], []]
    for first in range(0, len(batch), RUN_ROWS):
        outer, inner, starts, ends = as_lists(probe(batch[first : first + RUN_ROWS]))
        for column, values in zip(out, (outer, [row + first for row in inner], starts, ends)):
            column.extend(values)
    return out


@prop_settings
@given(shape=shapes())
def test_the_index_carries_csr_unless_most_rows_can_be_pruned(shape):
    """A key group can be pruned when its longest interval is shorter than
    its span of starts; the index carries the CSR probe exactly when fewer
    than half the block's rows are in such groups."""
    block, _ = rows_of(shape)
    groups = {}
    for tup in block:
        groups.setdefault(tup.key, []).append(tup.valid)
    prunable = sum(
        len(valids)
        for valids in groups.values()
        if max(v.end - v.start for v in valids)
        < max(v.start for v in valids) - min(v.start for v in valids)
    )
    engine = _BatchEngine(PMAP, "backward")
    index = engine.build_index(engine.decompose([block]))
    assert (index.csr is not None) == (2 * prunable < len(block))


@pytest.mark.parametrize(
    "rows, csr",
    [
        # One group: its longest interval, 10, covers its span of starts.
        ([("a", 0, 10), ("a", 10, 12)], True),
        ([("a", 0, 9), ("a", 10, 12)], False),
        # b's own span of starts (5) counts, not the block's (105).
        ([("a", 0, 1), ("a", 50, 51), ("a", 90, 91)]
         + [("b", start, start + 10) for start in (100, 105, 103, 104)], True),
    ],
)
def test_the_verdict_at_its_edges(rows, csr):
    block = [VTTuple((key,), (row,), Interval(start, end))
             for row, (key, start, end) in enumerate(rows)]
    engine = _BatchEngine(PMAP, "backward")
    assert (engine.build_index(engine.decompose([block])).csr is not None) == csr


def test_a_csr_index_over_many_keys_probes_as_the_tuple_engine():
    """Key ids past one byte: a block of single-row groups, and one of
    two-row groups whose long intervals cannot be pruned, both carry the
    CSR index and probe as the tuple engine does."""
    rng = random.Random(7)
    singles = [VTTuple((f"k{row}",), (row,), Interval(row % 90, row % 90 + 30))
               for row in range(300)]
    doubles = [VTTuple((f"k{row // 2}",), (row,), Interval(row % 2, 110)) for row in range(600)]
    inner = []
    for row in range(400):
        start = rng.randrange(0, 115)
        inner.append(VTTuple((f"k{rng.randrange(300)}",), (row,), Interval(start, start + 5)))
    for block in (singles, doubles):
        engine = _BatchEngine(PMAP, "backward")
        index = engine.build_index(engine.decompose([block]))
        assert index.csr is not None
        batch = engine.decompose([inner])
        for part in range(len(PMAP)):
            want = _TupleEngine(PMAP, "backward").probe(_build_index(block), [inner], part)
            assert list(engine.probe(index, batch, part).pairs()) == want


@prop_settings
@given(shape=shapes())
def test_chunked_pass_is_runs_and_the_tuple_probe(shape):
    block, inner = rows_of(shape)
    engine, outer, batch = engine_batches(block, inner, random.Random(shape[0]))
    kernels, bounds = engine._kernels, engine.boundaries
    columns = (outer.key_ids, outer.starts, outer.ends)
    csr = _CsrProbeIndex(outer.tuples, engine._interner, columns=columns)
    pruned = PrunedProbeIndex(outer.tuples, engine._interner, columns)
    for direction in ("backward", "forward"):
        for part in range(len(PMAP)):
            want = tuple_probe(block, inner, part, direction)
            runs_csr = by_run(
                lambda run: kernels.probe_columns(csr, run, bounds, part, direction), batch
            )
            assert runs_csr == want, (direction, part)
            if pruned.csr is None:
                runs_pruned = by_run(
                    lambda run: probe_pruned(
                        pruned, run.key_ids, run.starts, run.ends, bounds, part, direction
                    ),
                    batch,
                )
                assert runs_pruned == want, (direction, part)
            for budget in BUDGETS:
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(kernels_module, "CANDIDATE_BUDGET", budget)
                    got = joined(
                        kernels.probe_column_chunks(csr, batch, bounds, part, direction)
                    )
                    assert got == want, (direction, part, budget, "csr")
                    if pruned.csr is None:
                        got = joined(
                            probe_pruned_chunks(
                                pruned, batch.key_ids, batch.starts, batch.ends,
                                bounds, part, direction,
                            )
                        )
                        assert got == want, (direction, part, budget, "pruned")


@pytest.mark.parametrize("backend", BACKENDS)
@prop_settings
@given(shape=shapes())
def test_engine_probes_a_pass_as_its_runs(backend, shape):
    """``_BatchEngine.probe_pass`` -- the billed pass's one call -- emits the
    pairs ``probe`` emits run by run, in order."""
    block, inner = rows_of(shape)
    engine = _BatchEngine(PMAP, "backward")
    index = engine.build_index(block)
    batch = engine.decompose([inner])
    for direction in ("backward", "forward"):
        engine._direction = direction
        for part in range(len(PMAP)):
            want = [
                pair
                for first in range(0, len(batch), RUN_ROWS)
                for pair in engine.probe(index, batch[first : first + RUN_ROWS], part).pairs()
            ]
            for budget in BUDGETS:
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(kernels_module, "CANDIDATE_BUDGET", budget)
                    got = [
                        pair
                        for block_ in engine.probe_pass(index, batch, part, "inner")
                        for pair in block_.pairs()
                    ]
                assert got == want, (direction, part, budget)


@st.composite
def cut_shapes(draw):
    """A :func:`shapes` shape whose outer partition is *n_blocks* blocks of
    *block_tuples* rows, the last one of 1 to *block_tuples* rows:
    ``(shape, block_tuples)``."""
    seed, _, keys, tied, n_inner = draw(shapes())
    n_blocks, block_tuples = draw(st.integers(1, 6)), draw(st.integers(1, 30))
    last = draw(st.integers(1, block_tuples))
    n_outer = (n_blocks - 1) * block_tuples + last
    keys = n_outer if keys > 3 else keys
    return (seed, n_outer, keys, tied, min(n_inner, 2 * RUN_ROWS)), block_tuples


def pairs_of(match_blocks):
    """The ``(outer, inner, overlap)`` pairs of *match_blocks*, in order."""
    return [pair for match_block in match_blocks for pair in match_block.pairs()]


def step_indexes(engine, outer):
    """The step's index of *outer* as the engine builds it, and one forced
    to carry the CSR index: both kinds whenever the first prunes."""
    built = engine.build_index(outer)
    forced = engine.build_index(outer)
    columns = (outer.key_ids, outer.starts, outer.ends)
    forced.csr = _CsrProbeIndex(outer.tuples, engine._interner, columns=columns)
    return [built, forced] if built.csr is None else [forced]


@prop_settings
@given(cut=cut_shapes())
def test_a_step_probe_cut_per_block_is_each_blocks_own_probe(cut):
    """A stream probed once against the whole outer partition's index and
    cut by ``outer row // block_tuples`` -- a billed pass through
    ``_Block``'s, or a walked run kept to its block's outer rows -- emits,
    block by block, the pairs the tuple engine's probe of that block alone
    emits, pair for pair and in order; a billed pass takes its block's
    slice out of the shared cuts."""
    shape, block_tuples = cut
    block, inner = rows_of(shape)
    engine = _BatchEngine(PMAP, "backward")
    outer, batch = engine.decompose([block]), engine.decompose([inner])
    blocks = joiner._split_blocks(outer, block_tuples)
    runs = [batch[first : first + RUN_ROWS] for first in range(0, len(batch), RUN_ROWS)]
    for direction in ("backward", "forward"):
        engine._direction = direction
        for part in range(len(PMAP)):
            oracle = _TupleEngine(PMAP, direction)
            want = [
                oracle.probe(_build_index(list(rows.tuples)), [inner], part) for rows in blocks
            ]
            for index in step_indexes(engine, outer):
                cuts = {}
                views = [_Block(index, number, block_tuples, cuts) for number in range(len(blocks))]
                for budget in BUDGETS:
                    cuts.clear()
                    with pytest.MonkeyPatch.context() as patch:
                        patch.setattr(kernels_module, "CANDIDATE_BUDGET", budget)
                        billed = [
                            pairs_of(engine.probe_pass(view, batch, part, "inner"))
                            for view in views
                        ]
                    assert billed == want, (direction, part, budget, index.csr is None)
                    assert cuts["inner"] == [None] * len(blocks)  # each pass took its slice
                walked = [pairs_of(engine.probe(view, run, part) for run in runs) for view in views]
                assert walked == want, (direction, part, index.csr is None)
