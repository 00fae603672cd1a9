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
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.intervals import PartitionMap
from repro.core.joiner import RUN_ROWS, _BatchEngine, _build_index, _TupleEngine
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
                        for block_ in engine.probe_pass(index, batch, part)
                        for pair in block_.pairs()
                    ]
                assert got == want, (direction, part, budget)
