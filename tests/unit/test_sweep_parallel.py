"""Unit tests for the interval-pruned probe and the batch engine on it.

The contract under test: the batch engine and the pruned probe functions
produce matches and migration rows **bit-identical** (same pairs, same
emission order) to the tuple engine's probe and to the kernels' CSR probe,
whichever probe the index picks for a block.
"""

import itertools
import random

import pytest

from repro.core.intervals import PartitionMap
from repro.core.joiner import _BatchEngine, _build_index, _TupleEngine
from repro.core.partition_join import PartitionJoinConfig, partition_join
from repro.exec import pruned_probe
from repro.exec.kernels import _CsrProbeIndex, get_kernels
from repro.exec.pruned_probe import PrunedProbeIndex
from repro.model.relation import ValidTimeRelation
from repro.model.schema import RelationSchema
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
    return PartitionMap([Interval(0, 19), Interval(20, 39), Interval(40, 59)])


def random_tuples(rng, n, keys, hi=59):
    out = []
    for i in range(n):
        start = rng.randrange(0, hi + 1)
        end = min(hi, start + rng.choice((0, 0, 1, 2, 5, 25)))
        out.append(vt(rng.choice(keys), start, end, tag=i))
    return out


def oracle_probe(pmap, block, page, part_index, direction):
    """The tuple engine's probe loop (the ground truth)."""
    return _TupleEngine(pmap, direction).probe(_build_index(block), [page], part_index)


def csr_probe(kernels, block, page, boundaries, part_index, direction):
    """The kernels' CSR probe, with its own interner."""
    interner = kernels.make_interner()
    index = kernels.build_probe_index(block, interner)
    batch = kernels.page_batch(page, interner)
    return kernels.probe(index, batch, boundaries, part_index, direction)


def engine_probe(engine, index_obj, pages, part_index):
    """The engine's match block, as the oracle's (outer, inner, overlap) triples."""
    return list(engine.probe(index_obj, pages, part_index).pairs())


class TestProbeMatchesOracle:
    def test_fuzz_bit_identical_to_csr_probe(self, kernels, pmap):
        """Random workloads, both directions, all partitions: same matches
        in the same emission order -- page by page and as a multi-page run
        -- and the same migration rows; the CSR probe agrees."""
        rng = random.Random(0x5EED)
        boundaries = kernels.prepare_boundaries(pmap)
        pruned_trials = 0
        for trial in range(25):
            keys = [f"k{j}" for j in range(rng.choice((1, 2, 5, 9)))]
            block = random_tuples(rng, rng.randrange(0, 40), keys)
            # Pages include keys absent from the block.
            page = random_tuples(rng, rng.randrange(0, 24), keys + ["ghost"])
            engine = _BatchEngine(pmap, "backward")
            index_obj = engine.build_index(block)
            pruned_trials += getattr(index_obj, "csr", None) is None and bool(block)
            for direction in ("backward", "forward"):
                engine._direction = direction
                for part in range(len(pmap)):
                    want = oracle_probe(pmap, block, page, part, direction)
                    got = engine_probe(engine, index_obj, [page], part)
                    assert got == want, f"trial {trial} {direction} part {part}"
                    assert csr_probe(kernels, block, page, boundaries, part, direction) == want
                    # A run of several pages probes like their concatenation.
                    cut = len(page) // 2
                    assert engine_probe(engine, index_obj, [page[:cut], page[cut:]], part) == want
                    assert engine.overlapping_rows(page, part) == [
                        row
                        for row, tup in enumerate(page)
                        if pmap.overlaps_partition(tup.valid, part)
                    ]
        assert pruned_trials >= 15  # the fuzz is about the pruned probe

    def test_empty_block_and_empty_page(self, kernels, pmap):
        engine = _BatchEngine(pmap, "backward")
        index_obj = engine.build_index([])
        assert engine_probe(engine, index_obj, [[vt("a", 1, 2)]], 0) == []
        index_obj = engine.build_index([vt("a", 1, 2)])
        assert engine_probe(engine, index_obj, [[]], 0) == []


class TestEngine:
    def test_index_prunes_only_where_windows_can_exclude(self, pmap):
        """Short intervals spread over a wide span are pruned; one row per
        key, or intervals covering their group's whole span, leave nothing
        to prune and take the CSR probe."""
        engine = _BatchEngine(pmap, "backward")
        spread = [vt("a", start, start + 1) for start in range(0, 50, 5)]
        assert engine.build_index(spread).csr is None
        assert engine.build_index(spread + [vt("b", 3, 4)]).csr is None  # a majority
        singles = [vt(f"k{i}", i, i + 1) for i in range(10)]
        assert engine.build_index(singles).csr is not None
        covering = [vt("a", start, 59) for start in range(0, 50, 5)]
        assert engine.build_index(covering).csr is not None

    @pytest.mark.parametrize("case", ["dense ties", "one key", "past the limit"])
    def test_fuzz_tie_heavy_blocks_probe_like_csr(self, pmap, case, monkeypatch):
        """The index sorts on one composite key: the four output columns
        must equal the CSR probe's, row for row -- on blocks dense in equal
        ``(key, start)`` pairs, on blocks of one key, and where the composite
        reaches ``_COMPOSITE_LIMIT`` and the block must take the CSR path."""
        kernels = get_kernels()
        rng = random.Random(0x71E5)
        for trial in range(12):
            keys = ["a"] if case == "one key" else ["a", "b", "c"]
            # A few distinct starts, at least 5 chronons from the anchors at
            # 0, so every key group spans more than its longest interval.
            starts = [rng.randrange(5, 55) for _ in range(rng.randint(1, 4))]
            block = [
                vt(rng.choice(keys), start, start + rng.choice((0, 1, 2)), tag=i)
                for i, start in enumerate(rng.choice(starts) for _ in range(60))
            ]
            block += [vt(key, 0, 0, "anchor") for key in keys]
            page = random_tuples(rng, 30, keys + ["ghost"])
            engine = _BatchEngine(pmap, "backward")
            outer = engine.decompose([block])
            inner = engine.decompose([page])
            columns = (outer.key_ids, outer.starts, outer.ends)
            csr = _CsrProbeIndex(block, engine._interner, columns=columns)
            # The composite key, rows included, reaches (largest id + 1) *
            # stride * rows.
            stride = int(outer.starts.max()) - int(outer.starts.min()) + 2
            composite = (int(outer.key_ids.max()) + 1) * stride * len(block)
            limit = composite if case == "past the limit" else composite + 1
            monkeypatch.setattr(pruned_probe, "_COMPOSITE_LIMIT", limit)
            index = engine.build_index(outer)
            assert (index.csr is not None) == (case == "past the limit")
            for direction, part in itertools.product(("backward", "forward"), range(3)):
                want = kernels.probe_columns(
                    csr, inner, engine.boundaries, part, direction
                )
                if index.csr is None:
                    got = pruned_probe.probe_pruned(
                        index, inner.key_ids, inner.starts, inner.ends,
                        engine.boundaries, part, direction,
                    )
                else:
                    got = kernels.probe_columns(
                        index.csr, inner, engine.boundaries, part, direction
                    )
                assert [column.tolist() for column in got] == [
                    column.tolist() for column in want
                ], f"{case} trial {trial} {direction} part {part}"

    def test_composite_overflow_falls_back_to_csr(self, pmap, monkeypatch):
        """Starts spread over ~2^61 chronons overflow the composite key;
        the index must carry a CSR fallback and stay correct through it --
        probed directly, and through a whole ``batch`` join."""
        far = 2**61
        block = [vt("a", 0, 3), vt("a", far, far + 5), vt("a", 5, 6), vt("b", 1, 4)]
        page = [vt("a", 2, far + 2), vt("b", 0, 9)]
        engine = _BatchEngine(pmap, "backward")
        assert engine.build_index(block[:1] + block[2:]).csr is None  # prunable...
        index_obj = engine.build_index(block)
        assert index_obj.csr is not None  # ...but for the span of its starts
        got = engine_probe(engine, index_obj, [page], 0)
        assert got == oracle_probe(pmap, block, page, 0, "backward")

        fell_back = []
        build = PrunedProbeIndex.__init__

        def spying_build(self, *args, **kwargs):
            build(self, *args, **kwargs)
            fell_back.append(self.csr is not None)

        monkeypatch.setattr(PrunedProbeIndex, "__init__", spying_build)
        r = ValidTimeRelation(RelationSchema("r", ("k",), ("a",)), block)
        s = ValidTimeRelation(RelationSchema("s", ("k",), ("b",)), page)
        oracle, run = (
            partition_join(r, s, PartitionJoinConfig(memory_pages=8, execution=mode))
            for mode in ("tuple", "batch")
        )
        assert fell_back and all(fell_back)
        assert list(run.result.tuples) == list(oracle.result.tuples)
        assert len(run.result.tuples) == 4
