"""Unit tests for the interval-pruned parallel probe executor.

The contract under test: :class:`PipelinedSweepEngine` and the pruned
probe functions produce matches and migration rows **bit-identical** (same
pairs, same emission order) to the PR-1 kernels' CSR probe, for every
backend, lane count, pool geometry, and on the composite-overflow fallback
path.
"""

import random

import pytest

from repro.core.intervals import PartitionMap
from repro.exec import kernels as kernels_module
from repro.exec import sweep_parallel as sweep
from repro.exec.backend import HAVE_NUMPY
from repro.exec.kernels import PythonKernels, get_kernels
from repro.exec.sweep_parallel import (
    PickledLaneDispatcher,
    PipelinedSweepEngine,
    PrunedProbeIndex,
    PrunedProbeIndexPython,
    default_sweep_workers,
    effective_sweep_workers,
    probe_pruned,
)
from repro.model.vtuple import VTTuple
from repro.time.interval import Interval

BACKENDS = ["python"] + (["numpy"] if HAVE_NUMPY else [])

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not available")


@pytest.fixture(params=BACKENDS)
def kernels(request):
    return get_kernels(request.param)


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


def oracle_probe(kernels, block, page, boundaries, part_index, direction):
    """The PR-1 CSR probe, with its own interner (the ground truth)."""
    interner = kernels.make_interner()
    index = kernels.build_probe_index(block, interner)
    batch = kernels.page_batch(page, interner)
    return kernels.probe(index, batch, boundaries, part_index, direction)


class TestProbeMatchesOracle:
    def test_fuzz_bit_identical_to_csr_probe(self, kernels, pmap):
        """Random workloads, both directions, all partitions: same matches
        in the same emission order -- page by page and as a multi-page run
        -- and the same migration rows."""
        rng = random.Random(0x5EED)
        boundaries = kernels.prepare_boundaries(pmap)
        for trial in range(25):
            keys = [f"k{j}" for j in range(rng.choice((1, 2, 5, 9)))]
            block = random_tuples(rng, rng.randrange(0, 40), keys)
            # Pages include keys absent from the block.
            page = random_tuples(rng, rng.randrange(0, 24), keys + ["ghost"])
            engine = PipelinedSweepEngine(pmap, "backward", workers=1, kernels=kernels)
            index_obj = engine.build_index(block)
            for direction in ("backward", "forward"):
                engine._direction = direction
                for part in range(len(pmap)):
                    want = oracle_probe(kernels, block, page, boundaries, part, direction)
                    got = engine.probe(index_obj, [page], part)
                    assert got == want, f"trial {trial} {direction} part {part}"
                    # A run of several pages probes like their concatenation.
                    cut = len(page) // 2
                    assert engine.probe(index_obj, [page[:cut], page[cut:]], part) == want
                    assert engine.overlapping_rows(page, part) == [
                        row
                        for row, tup in enumerate(page)
                        if pmap.overlaps_partition(tup.valid, part)
                    ]

    def test_empty_block_and_empty_page(self, kernels, pmap):
        engine = PipelinedSweepEngine(pmap, "backward", workers=1, kernels=kernels)
        index_obj = engine.build_index([])
        assert engine.probe(index_obj, [[vt("a", 1, 2)]], 0) == []
        index_obj = engine.build_index([vt("a", 1, 2)])
        assert engine.probe(index_obj, [[]], 0) == []


@needs_numpy
class TestLaneInvariance:
    def test_lane_count_is_unobservable(self, pmap, monkeypatch):
        """Same arrays out of probe_pruned for every lane count."""
        monkeypatch.setattr(sweep, "MIN_LANE_ROWS", 0)
        kernels = get_kernels("numpy")
        rng = random.Random(7)
        keys = [f"k{j}" for j in range(11)]
        block = random_tuples(rng, 120, keys)
        page = random_tuples(rng, 80, keys)
        boundaries = kernels.prepare_boundaries(pmap)
        interner = kernels.make_interner()
        index = PrunedProbeIndex(block, interner)
        batch = kernels.page_batch(page, interner)
        baseline = None
        for lanes in (1, 2, 3, 7, 64):
            got = probe_pruned(
                index,
                batch.key_ids,
                batch.starts,
                batch.ends,
                boundaries,
                1,
                "backward",
                lanes=lanes,
            )
            as_lists = [arr.tolist() for arr in got]
            if baseline is None:
                baseline = as_lists
            else:
                assert as_lists == baseline, f"lanes={lanes} changed the output"

    def test_composite_overflow_falls_back_to_csr(self, pmap):
        """Starts spread over ~2^61 chronons overflow the composite key;
        the index must carry a CSR fallback and stay correct through it."""
        kernels = get_kernels("numpy")
        far = 2**61
        block = [vt("a", 0, far), vt("a", far, far + 5), vt("b", 1, 4)]
        page = [vt("a", 2, far + 2), vt("b", 0, 9)]
        interner = kernels.make_interner()
        index = PrunedProbeIndex(block, interner)
        assert index.fallback is not None
        engine = PipelinedSweepEngine(pmap, "backward", workers=1, kernels=kernels)
        index_obj = engine.build_index(block)
        assert index_obj.fallback is not None
        got = engine.probe(index_obj, [page], 0)
        want = oracle_probe(
            kernels, block, page, kernels.prepare_boundaries(pmap), 0, "backward"
        )
        assert got == want

    def test_small_pages_stay_single_lane(self, pmap):
        """Below MIN_LANE_ROWS the dispatcher is never consulted."""
        kernels = get_kernels("numpy")
        interner = kernels.make_interner()
        block = [vt("a", 0, 9), vt("b", 3, 7)]
        page = [vt("a", 1, 5)]
        index = PrunedProbeIndex(block, interner)
        batch = kernels.page_batch(page, interner)

        def exploding_dispatch(shared, lane_tasks):  # pragma: no cover - must not run
            raise AssertionError("lanes dispatched below the lane threshold")

        got = probe_pruned(
            index,
            batch.key_ids,
            batch.starts,
            batch.ends,
            kernels.prepare_boundaries(pmap),
            0,
            "backward",
            lanes=4,
            dispatch=exploding_dispatch,
        )
        assert got[0].size == 1


@needs_numpy
class TestEngine:
    def test_honors_default_kernels_monkeypatch(self, pmap, monkeypatch):
        monkeypatch.setattr(kernels_module, "_DEFAULT", PythonKernels())
        engine = PipelinedSweepEngine(pmap, "backward")
        assert engine._kernels.use_numpy is False
        assert isinstance(engine.build_index([vt("a", 1, 2)]), PrunedProbeIndexPython)

    def test_python_backend_never_opens_a_pool(self, pmap):
        engine = PipelinedSweepEngine(
            pmap, "backward", workers=4, kernels=get_kernels("python")
        )
        assert engine._ensure_pool() is None
        engine.close()

    def test_forced_pool_is_deterministic(self, pmap, monkeypatch):
        """OVERSUBSCRIBE forces a real multi-process pool even on one core;
        the matches must equal the single-lane run exactly."""
        monkeypatch.setattr(sweep, "OVERSUBSCRIBE", True)
        monkeypatch.setattr(sweep, "MIN_LANE_ROWS", 0)
        kernels = get_kernels("numpy")
        rng = random.Random(21)
        keys = [f"k{j}" for j in range(9)]
        block = random_tuples(rng, 90, keys)
        page = random_tuples(rng, 60, keys)

        serial = PipelinedSweepEngine(pmap, "backward", workers=1, kernels=kernels)
        want = serial.probe(serial.build_index(block), [page], 1)

        pooled = PipelinedSweepEngine(pmap, "backward", workers=3, kernels=kernels)
        assert pooled.lanes == 3
        try:
            got = pooled.probe(pooled.build_index(block), [page], 1)
        finally:
            pooled.close()
        assert got == want
        assert pooled.pool_dispatches + pooled.pool_fallbacks >= 1

    def test_pool_spawn_failure_degrades_in_process(self, pmap, monkeypatch):
        monkeypatch.setattr(sweep, "OVERSUBSCRIBE", True)
        monkeypatch.setattr(sweep, "MIN_LANE_ROWS", 0)

        class BrokenContext:
            def Pool(self, processes):
                raise OSError("no processes here")

        monkeypatch.setattr(
            sweep.multiprocessing, "get_context", lambda *a, **k: BrokenContext()
        )
        kernels = get_kernels("numpy")
        block = [vt("a", 0, 9), vt("b", 3, 7), vt("a", 5, 12)]
        page = [vt("a", 1, 5), vt("b", 4, 6)]
        engine = PipelinedSweepEngine(pmap, "backward", workers=2, kernels=kernels)
        got = engine.probe(engine.build_index(block), [page], 0)
        want = oracle_probe(
            kernels, block, page, kernels.prepare_boundaries(pmap), 0, "backward"
        )
        assert got == want
        assert engine.pool_fallbacks == 1
        assert engine._pool_broken

    def test_pool_crash_mid_probe_degrades_in_process(self, pmap, monkeypatch):
        monkeypatch.setattr(sweep, "OVERSUBSCRIBE", True)
        monkeypatch.setattr(sweep, "MIN_LANE_ROWS", 0)
        kernels = get_kernels("numpy")
        rng = random.Random(3)
        keys = [f"k{j}" for j in range(5)]
        block = random_tuples(rng, 50, keys)
        page = random_tuples(rng, 40, keys)
        engine = PipelinedSweepEngine(pmap, "backward", workers=2, kernels=kernels)

        class DyingPool:
            def map(self, fn, tasks):
                raise RuntimeError("worker died")

            def terminate(self):
                pass

            def join(self):
                pass

        engine._pool = DyingPool()
        got = engine.probe(engine.build_index(block), [page], 1)
        want = oracle_probe(
            kernels, block, page, kernels.prepare_boundaries(pmap), 1, "backward"
        )
        assert got == want
        assert engine.pool_fallbacks == 1
        assert engine._pool is None  # the dead pool was shut down

    def test_close_is_idempotent(self, pmap):
        engine = PipelinedSweepEngine(pmap, "backward", workers=1)
        engine.close()
        engine.close()


@needs_numpy
class TestPickledLaneDispatcher:
    """The one lane transport: bare pool, supervised pool, and in-process
    lanes must agree exactly, page after page."""

    PMAP = PartitionMap([Interval(0, 199), Interval(200, 399), Interval(400, 599)])

    @pytest.fixture
    def workload(self):
        rng = random.Random(11)

        def tuples(n, tag):
            out = []
            for i in range(n):
                start = rng.randrange(0, 600)
                end = min(599, start + rng.randrange(0, 80))
                out.append(vt(f"k{rng.randrange(20)}", start, end, tag=f"{tag}{i}"))
            return out

        return tuples(2000, "b"), [tuples(700, f"p{j}_") for j in range(3)]

    def _run_engine(self, block, pages, *, workers, supervisor=None):
        engine = PipelinedSweepEngine(
            self.PMAP, "backward", workers=workers, supervisor=supervisor
        )
        try:
            index = engine.build_index(block)
            return (
                [
                    (engine.probe(index, [page], 2), engine.overlapping_rows(page, 1))
                    for page in pages
                ],
                engine.pool_dispatches,
            )
        finally:
            engine.close()

    def test_pooled_lanes_match_serial(self, workload, monkeypatch):
        from repro.resilience.supervisor import LaneSupervisor

        monkeypatch.setattr(sweep, "OVERSUBSCRIBE", True)
        monkeypatch.setattr(sweep, "MIN_LANE_ROWS", 0)
        block, pages = workload

        serial, serial_dispatches = self._run_engine(block, pages, workers=1)
        bare, bare_dispatches = self._run_engine(block, pages, workers=3)
        supervisor = LaneSupervisor(3)
        supervised, _ = self._run_engine(block, pages, workers=3, supervisor=supervisor)

        assert bare == serial == supervised
        assert serial_dispatches == 0
        assert bare_dispatches == len(pages)  # one dispatch per fanned-out page
        assert supervisor.stats.dispatches == len(pages)
        assert supervisor.stats.failures == 0

    def test_dispatch_prefixes_every_lane_with_the_shared_index(self):
        """Each pool task is the shared index columns followed by one lane's
        slice, in lane order -- what ``_lane_task`` unpacks."""
        seen = []

        class RecordingPool:
            def map(self, fn, tasks):
                seen.extend(tasks)
                return [("part", len(task)) for task in tasks]

        shared = ("comp", "starts", "ends", "maxlen", 0, 2)
        lanes = [("g0", "r0", "s0", "e0"), ("g1", "r1", "s1", "e1")]
        parts = PickledLaneDispatcher(RecordingPool())(shared, lanes)
        assert seen == [shared + lanes[0], shared + lanes[1]]
        assert parts == [("part", 10), ("part", 10)]


class TestWorkerCounts:
    def test_default_caps_at_eight(self, monkeypatch):
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 32)
        assert default_sweep_workers() == 8
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 3)
        assert default_sweep_workers() == 3
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: None)
        assert default_sweep_workers() == 1

    def test_effective_clamps_to_cores(self, monkeypatch):
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 2)
        assert effective_sweep_workers(8) == 2
        assert effective_sweep_workers(1) == 1
        assert effective_sweep_workers(None) == 2
        assert effective_sweep_workers(0) == 1

    def test_oversubscribe_lifts_the_clamp(self, monkeypatch):
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 1)
        monkeypatch.setattr(sweep, "OVERSUBSCRIBE", True)
        assert effective_sweep_workers(6) == 6
