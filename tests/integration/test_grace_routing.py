"""Grace routing by carried columns writes what routing row by row writes.

``execution="batch"`` partitions a placed relation by one stable counting
sort of the columns its file carries: each bucket is a contiguous slice of
one permuted batch, flushed at the points of the scan where routing row by
row (``execution="tuple"``) would flush it.  Over seeded random relations,
1-9 partitions, 1-3-page bucket buffers and both placements -- with one
bucket left empty and one that fills on the last row of an input page --
every partition file must hold the same pages, the charged access sequence
must be the same, and each file must carry exactly the columns of its rows.
A torn delivery in mid-scan sends the batch path row by row from there on:
the files then carry nothing, and still hold what ``tuple`` writes.
"""

import random

import pytest

from repro.core.intervals import PartitionMap
from repro.core.partitioner import do_partitioning
from repro.model.relation import ValidTimeRelation
from repro.model.schema import RelationSchema
from repro.resilience import FaultInjector
from repro.storage.layout import DiskLayout
from repro.time.interval import Interval

from tests.chaos.conftest import CHAOS_SEED, SPEC

#: Chronons a partition spans.
WIDTH = 10


def routing_case(case):
    """``(relation, partition map, memory pages, filled bucket, empty bucket)``
    of one seeded case."""
    rng = random.Random(CHAOS_SEED * 1009 + case)
    n_partitions = rng.randint(1, 9)
    buffer_pages = rng.randint(1, 3)
    threshold = buffer_pages * SPEC.capacity
    empty = rng.randrange(n_partitions) if n_partitions > 1 else None
    filled = rng.choice([i for i in range(n_partitions) if i != empty])

    def partition_of(chronon):
        # Chronons past either edge belong to the edge partitions.
        return min(max(chronon // WIDTH, 0), n_partitions - 1)

    # The first *threshold* rows go to *filled*: it fills on the last row
    # of input page ``buffer_pages - 1``.
    spans = []
    for _ in range(threshold):
        vs = rng.randrange(filled * WIDTH, filled * WIDTH + WIDTH - 2)
        spans.append((vs, vs + rng.randrange(3)))
    # At least two more pages, so that a tear can fall in mid-scan.
    n_rows = threshold + rng.randint(2 * SPEC.capacity, 30 * n_partitions)
    while len(spans) < n_rows:
        vs = rng.randrange(-3, n_partitions * WIDTH + 3)
        if partition_of(vs) == empty:
            continue
        ve = vs + rng.choice((0, 1, 2, 7, WIDTH, 3 * WIDTH))
        while partition_of(ve) == empty:
            ve -= 1  # ends before the empty partition: vs lies before it
        spans.append((vs, ve))
    schema = RelationSchema("r", join_attributes=("k",), payload_attributes=("p",))
    relation = ValidTimeRelation.from_rows(
        schema, [(rng.randrange(5), f"r{i}", vs, ve) for i, (vs, ve) in enumerate(spans)]
    )
    pmap = PartitionMap(
        [Interval(i * WIDTH, i * WIDTH + WIDTH - 1) for i in range(n_partitions)]
    )
    return relation, pmap, 1 + buffer_pages * n_partitions, filled, empty


def partitioned(relation, pmap, memory_pages, placement, execution, torn_page=None):
    """``(partition files, layout, charged accesses)`` of one partitioning."""
    injector = None
    if torn_page is not None:
        injector = FaultInjector(seed=CHAOS_SEED)
        injector.corrupt_read(relation.schema.name, torn_page)
    layout = DiskLayout(spec=SPEC, fault_injector=injector)
    source = layout.place_relation(relation)
    accesses = []
    charge_runs = layout.disk.charge_runs

    def recording_charge_runs(runs, *, retry=False):
        runs = list(runs)
        accesses.extend(
            (extent.device, extent.name, page, write)
            for extent, index, count, write in runs
            for page in range(index, index + count)
        )
        charge_runs(runs, retry=retry)

    layout.disk.charge_runs = recording_charge_runs
    parts = do_partitioning(
        source, pmap, layout, "r", memory_pages, placement=placement, execution=execution
    )
    return parts, layout, accesses


def stored_pages(layout, part):
    return [list(layout.disk.peek(part.extent, i)) for i in range(part.n_pages)]


def assert_carries_its_rows(part):
    carried = part.carried
    rows = part.all_tuples()
    assert carried is not None and carried.tuples == rows
    assert list(carried.starts) == [tup.vs for tup in rows]
    assert list(carried.ends) == [tup.ve for tup in rows]
    keys = carried.keys.keys_in_id_order()
    assert [keys[code] for code in carried.key_ids.tolist()] == [
        tup.key for tup in rows
    ]


@pytest.mark.parametrize("placement", ["last", "first"])
@pytest.mark.parametrize("case", range(8))
def test_batch_routing_writes_what_tuple_routing_writes(case, placement):
    relation, pmap, memory_pages, filled, empty = routing_case(case)
    oracle, oracle_layout, oracle_accesses = partitioned(
        relation, pmap, memory_pages, placement, "tuple"
    )
    parts, layout, accesses = partitioned(relation, pmap, memory_pages, placement, "batch")

    # The case holds what it is about: an empty bucket, and one whose
    # first flush follows the last row of an input page (the threshold is
    # whole pages).
    threshold = (memory_pages - 1) // len(pmap) * SPEC.capacity
    assert oracle[filled].n_tuples >= threshold
    assert oracle[filled].all_tuples()[:threshold] == list(relation)[:threshold]
    if empty is not None:
        assert oracle[empty].n_tuples == 0

    assert accesses == oracle_accesses
    for part, want in zip(parts, oracle):
        assert stored_pages(layout, part) == stored_pages(oracle_layout, want)
        assert_carries_its_rows(part)


@pytest.mark.parametrize("placement", ["last", "first"])
@pytest.mark.parametrize("case", range(4))
def test_a_torn_delivery_routes_the_rest_row_by_row(case, placement):
    relation, pmap, memory_pages, _, _ = routing_case(case)
    torn_page = SPEC.pages_for_tuples(len(relation)) // 2
    oracle, oracle_layout, oracle_accesses = partitioned(
        relation, pmap, memory_pages, placement, "tuple", torn_page
    )
    parts, layout, accesses = partitioned(
        relation, pmap, memory_pages, placement, "batch", torn_page
    )
    assert layout.resilience_report.corruptions_undetected == 1
    assert sum(part.n_tuples for part in parts) == len(relation) - 1

    assert accesses == oracle_accesses
    for part, want in zip(parts, oracle):
        assert stored_pages(layout, part) == stored_pages(oracle_layout, want)
        assert part.carried is None
