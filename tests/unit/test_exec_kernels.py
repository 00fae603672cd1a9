"""Unit tests for the batch join kernels.

Every test asserts not just the oracle's match *sets* but its emission
*order*, because the sweep's bit-identical I/O guarantee rests on it.
"""

import random

import pytest

from repro.core.intervals import PartitionMap
from repro.core.joiner import _build_index, _TupleEngine
from repro.exec.kernels import get_kernels
from repro.model.vtuple import VTTuple
from repro.time.interval import Interval

#: The one kernel backend, named in the case ids.
BACKENDS = ["numpy"]


@pytest.fixture(params=BACKENDS)
def kernels(request):
    return get_kernels()


def vt(key, start, end, tag="x"):
    return VTTuple((key,), (tag,), Interval(start, end))


@pytest.fixture
def pmap():
    return PartitionMap([Interval(0, 9), Interval(10, 19), Interval(20, 29)])


def brute_force_matches(block, page, pmap, part_index, direction):
    """The tuple-at-a-time probe loop, spelled out as the oracle."""
    index = {}
    for tup in block:
        index.setdefault(tup.key, []).append(tup)
    matches = []
    for inner in page:
        for outer in index.get(inner.key, ()):
            common = outer.valid.intersect(inner.valid)
            if common is None:
                continue
            if pmap is not None:
                owner = common.end if direction == "backward" else common.start
                if pmap.index_of_chronon(owner) != part_index:
                    continue
            matches.append((outer, inner, common))
    return matches


class TestProbe:
    def test_matches_brute_force_with_owner_filter(self, kernels, pmap):
        block = [vt("a", 0, 29), vt("a", 5, 12), vt("b", 8, 8), vt("a", 15, 25)]
        page = [vt("a", 3, 18), vt("b", 8, 20), vt("c", 0, 29), vt("a", 11, 11)]
        interner = kernels.make_interner()
        index = kernels.build_probe_index(block, interner)
        boundaries = kernels.prepare_boundaries(pmap)
        for direction in ("backward", "forward"):
            for part in range(len(pmap)):
                got = kernels.probe(
                    index, kernels.page_batch(page, interner), boundaries, part, direction
                )
                assert got == brute_force_matches(block, page, pmap, part, direction)

    def test_every_valid_pair_emitted_in_exactly_one_partition(self, kernels, pmap):
        block = [vt("a", 0, 29), vt("a", 7, 23)]
        page = [vt("a", 2, 27), vt("a", 14, 14)]
        interner = kernels.make_interner()
        index = kernels.build_probe_index(block, interner)
        boundaries = kernels.prepare_boundaries(pmap)
        batch = kernels.page_batch(page, interner)
        all_matches = []
        for part in range(len(pmap)):
            all_matches.extend(kernels.probe(index, batch, boundaries, part))
        unfiltered = kernels.probe(index, batch)
        assert len(all_matches) == len(unfiltered) == 4

    def test_probe_without_boundaries_skips_owner_filter(self, kernels):
        block = [vt("a", 0, 5)]
        page = [vt("a", 3, 9)]
        interner = kernels.make_interner()
        index = kernels.build_probe_index(block, interner)
        got = kernels.probe(index, kernels.page_batch(page, interner))
        assert got == [(block[0], page[0], Interval(3, 5))]

    def test_unknown_keys_never_match(self, kernels):
        block = [vt("a", 0, 9)]
        interner = kernels.make_interner()
        index = kernels.build_probe_index(block, interner)
        page = [vt("zz", 0, 9)]
        assert kernels.probe(index, kernels.page_batch(page, interner)) == []

    def test_emission_order_is_inner_then_insertion(self, kernels):
        block = [vt("a", 0, 9, "o0"), vt("b", 0, 9, "o1"), vt("a", 0, 9, "o2")]
        page = [vt("b", 0, 9, "i0"), vt("a", 0, 9, "i1")]
        interner = kernels.make_interner()
        index = kernels.build_probe_index(block, interner)
        got = kernels.probe(index, kernels.page_batch(page, interner))
        labels = [(outer.payload[0], inner.payload[0]) for outer, inner, _ in got]
        assert labels == [("o1", "i0"), ("o0", "i1"), ("o2", "i1")]

    def test_empty_block_and_empty_page(self, kernels, pmap):
        interner = kernels.make_interner()
        boundaries = kernels.prepare_boundaries(pmap)
        empty_index = kernels.build_probe_index([], interner)
        assert kernels.probe(empty_index, kernels.page_batch([vt("a", 0, 5)], interner), boundaries, 0) == []
        index = kernels.build_probe_index([vt("a", 0, 5)], interner)
        assert kernels.probe(index, kernels.page_batch([], interner), boundaries, 0) == []

    def test_interner_growth_across_blocks(self, kernels, pmap):
        """Keys interned by an earlier block must not confuse a later index."""
        interner = kernels.make_interner()
        boundaries = kernels.prepare_boundaries(pmap)
        kernels.build_probe_index([vt("early", 0, 9)], interner)
        index = kernels.build_probe_index([vt("late", 0, 9)], interner)
        page = [vt("early", 0, 9), vt("late", 3, 7)]
        got = kernels.probe(index, kernels.page_batch(page, interner), boundaries, 0)
        assert [(o.key, i.key) for o, i, _ in got] == [(("late",), ("late",))]


class TestMigrationAndLocate:
    def test_migration_rows_match_partition_map(self, kernels, pmap):
        page = [
            vt("a", 0, 29), vt("a", 12, 13), vt("b", 25, 29),
            vt("c", 0, 3), vt("d", 100, 200),  # beyond lifespan: clamped
        ]
        boundaries = kernels.prepare_boundaries(pmap)
        for next_index in range(len(pmap)):
            expect = [
                row for row, tup in enumerate(page)
                if pmap.overlaps_partition(tup.valid, next_index)
            ]
            assert kernels.migration_rows(page, boundaries, next_index) == expect

    def test_locate_matches_index_of_chronon(self, kernels, pmap):
        chronons = [-50, 0, 9, 10, 19, 20, 29, 30, 1000]
        boundaries = kernels.prepare_boundaries(pmap)
        assert kernels.locate(chronons, boundaries) == [
            pmap.index_of_chronon(c) for c in chronons
        ]

    def test_locate_empty(self, kernels, pmap):
        assert kernels.locate([], kernels.prepare_boundaries(pmap)) == []


class TestTupleEngineParity:
    @pytest.mark.parametrize("direction", ["backward", "forward"])
    def test_kernels_match_the_tuple_engine(self, pmap, direction):
        rng = random.Random(42)
        block = [vt(f"k{rng.randrange(6)}", *sorted((rng.randrange(35), rng.randrange(35)))) for _ in range(80)]
        page = [vt(f"k{rng.randrange(8)}", *sorted((rng.randrange(35), rng.randrange(35)))) for _ in range(40)]
        kern = get_kernels()
        interner = kern.make_interner()
        index = kern.build_probe_index(block, interner)
        boundaries = kern.prepare_boundaries(pmap)
        batch = kern.page_batch(page, interner)
        oracle = _TupleEngine(pmap, direction)
        for part in range(len(pmap)):
            assert kern.probe(index, batch, boundaries, part, direction) == oracle.probe(
                _build_index(block), [page], part
            )
            assert kern.migration_rows(page, boundaries, part) == oracle.overlapping_rows(
                page, part
            )
