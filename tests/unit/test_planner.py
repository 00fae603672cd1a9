"""Unit tests for determinePartIntervals (Appendix A.2)."""

import random

import pytest

from repro.core.partition_join import EXECUTION_MODES
from repro.core.planner import (
    candidate_part_sizes,
    determine_part_intervals,
    estimate_grant_pages,
    estimate_join_cost,
    estimate_pipelined_join_cost,
)
from repro.model.errors import PlanError
from repro.model.vtuple import VTTuple
from repro.storage.disk import SimulatedDisk
from repro.storage.heapfile import HeapFile
from repro.storage.iostats import CostModel, IOStatistics
from repro.storage.page import PageSpec
from repro.time.interval import Interval
from repro.time.lifespan import covers_lifespan, lifespan_of


def make_heap(tuples, columnar=False):
    disk = SimulatedDisk(IOStatistics())
    spec = PageSpec(page_bytes=1024, tuple_bytes=128)
    return HeapFile.bulk_load(disk, "r", spec, tuples, columnar=columnar), disk


def uniform_tuples(n, lifespan=10_000, seed=5, long_lived=0):
    rng = random.Random(seed)
    tuples = []
    for i in range(n):
        if i < long_lived:
            start = rng.randrange(lifespan // 2)
            valid = Interval(start, start + lifespan // 2)
        else:
            instant = rng.randrange(lifespan)
            valid = Interval(instant, instant)
        tuples.append(VTTuple((i % 37,), (i,), valid))
    rng.shuffle(tuples)
    return tuples


class TestCandidateGrid:
    def test_small_buffer_enumerates_all(self):
        assert candidate_part_sizes(10) == list(range(1, 10))

    def test_large_buffer_geometric(self):
        sizes = candidate_part_sizes(10_000, max_candidates=20)
        assert sizes[0] == 1
        assert sizes[-1] == 9_999
        assert len(sizes) <= 21
        assert sizes == sorted(set(sizes))

    def test_too_small_buffer(self):
        with pytest.raises(PlanError):
            candidate_part_sizes(1)


class TestEstimateJoinCost:
    def test_scan_component(self):
        model = CostModel.with_ratio(5)
        scan, cache = estimate_join_cost(100, 4, [0, 0, 0, 0], model)
        assert scan == 2 * (4 * 5 + 96 * 1)
        assert cache == 0

    def test_cache_component(self):
        model = CostModel.with_ratio(5)
        _, cache = estimate_join_cost(100, 2, [3, 0], model)
        assert cache == 2 * (5 + 2)  # one random + 2 sequential, written and read

    def test_cache_component_adds_left_to_right(self):
        """The column sum is the loop's, to the bit: candidates tie on
        ``<=`` of totals, so a pairwise sum could change a plan."""
        model = CostModel(io_ran=7.3, io_seq=1.1)
        rng = random.Random(5)
        for _ in range(200):
            pages = [rng.choice([0, rng.randrange(1, 10**6)]) for _ in range(rng.randrange(40))]
            loop = 0.0
            for count in pages:
                if count > 0:
                    loop += 2 * (model.io_ran + model.io_seq * (count - 1))
            assert estimate_join_cost(10, 4, pages, model)[1] == loop


class TestPipelinedCostModel:
    def test_zero_depth_degrades_to_serial_plus_cpu(self):
        # No read-ahead: nothing overlaps, every page is demand-paged.
        cost = estimate_pipelined_join_cost(
            100.0, 40.0, prefetch_depth=0, pages_per_partition=10
        )
        assert cost == 140.0

    def test_full_overlap_is_max_of_cpu_and_io(self):
        cost = estimate_pipelined_join_cost(
            100.0, 40.0, prefetch_depth=10, pages_per_partition=10
        )
        assert cost == 100.0  # I/O-bound: compute fully hidden
        cost = estimate_pipelined_join_cost(
            40.0, 100.0, prefetch_depth=10, pages_per_partition=10
        )
        assert cost == 100.0  # CPU-bound: I/O fully hidden

    def test_partial_overlap_interpolates(self):
        # alpha = 5/10: half the I/O overlaps the compute, half is demand.
        cost = estimate_pipelined_join_cost(
            100.0, 10.0, prefetch_depth=5, pages_per_partition=10
        )
        assert cost == max(10.0, 50.0) + 50.0

    def test_alpha_clamps_at_one(self):
        a = estimate_pipelined_join_cost(
            60.0, 0.0, prefetch_depth=50, pages_per_partition=10
        )
        b = estimate_pipelined_join_cost(
            60.0, 0.0, prefetch_depth=10, pages_per_partition=10
        )
        assert a == b == 60.0

    def test_empty_partition_means_no_overlap(self):
        cost = estimate_pipelined_join_cost(
            30.0, 5.0, prefetch_depth=8, pages_per_partition=0
        )
        assert cost == 35.0

    def test_bad_inputs_rejected(self):
        with pytest.raises(PlanError):
            estimate_pipelined_join_cost(
                -1.0, 0.0, prefetch_depth=1, pages_per_partition=1
            )
        with pytest.raises(PlanError):
            estimate_pipelined_join_cost(
                1.0, -1.0, prefetch_depth=1, pages_per_partition=1
            )
        with pytest.raises(PlanError):
            estimate_pipelined_join_cost(
                1.0, 1.0, prefetch_depth=-1, pages_per_partition=1
            )


class TestDeterminePartIntervals:
    def test_empty_relation_rejected(self):
        heap, _ = make_heap([])
        with pytest.raises(PlanError):
            determine_part_intervals(
                16, heap, 100, CostModel(), random.Random(0)
            )

    def test_plan_covers_sampled_lifespan(self):
        tuples = uniform_tuples(800)
        heap, _ = make_heap(tuples)
        plan = determine_part_intervals(
            16, heap, 800, CostModel(), random.Random(0)
        )
        span = lifespan_of(tup.valid for tup in tuples)
        sampled_span = lifespan_of(i for i in plan.intervals)
        assert covers_lifespan(plan.intervals, sampled_span)
        assert span.contains(sampled_span)

    def test_chosen_candidate_minimizes_curve(self):
        heap, _ = make_heap(uniform_tuples(800))
        plan = determine_part_intervals(
            16, heap, 800, CostModel(), random.Random(1), prune=False
        )
        best = min(point.total for point in plan.curve)
        assert plan.chosen.total == best

    def test_sampling_charges_io(self):
        heap, disk = make_heap(uniform_tuples(800))
        determine_part_intervals(16, heap, 800, CostModel(), random.Random(0))
        assert disk.stats.total_ops > 0

    def test_prune_draws_no_more_than_full_sweep(self):
        heap_a, disk_a = make_heap(uniform_tuples(800))
        determine_part_intervals(16, heap_a, 800, CostModel(), random.Random(0))
        heap_b, disk_b = make_heap(uniform_tuples(800))
        determine_part_intervals(
            16, heap_b, 800, CostModel(), random.Random(0), prune=False
        )
        assert disk_a.stats.total_ops <= disk_b.stats.total_ops

    def test_kolmogorov_bound_respected(self):
        """Every candidate's sample requirement satisfies the paper formula."""
        heap, _ = make_heap(uniform_tuples(800))
        plan = determine_part_intervals(
            32, heap, 800, CostModel(), random.Random(2), prune=False
        )
        for point in plan.curve:
            assert point.n_samples >= (1.63 * heap.n_pages / point.error_size) ** 2 - 1

    def test_long_lived_data_produces_cache_estimates(self):
        heap, _ = make_heap(uniform_tuples(800, long_lived=200))
        plan = determine_part_intervals(
            16, heap, 800, CostModel(), random.Random(3)
        )
        assert any(pages > 0 for pages in plan.cache_pages) or plan.num_partitions == 1

    def test_deterministic_under_seed(self):
        heap_a, _ = make_heap(uniform_tuples(400))
        heap_b, _ = make_heap(uniform_tuples(400))
        plan_a = determine_part_intervals(16, heap_a, 400, CostModel(), random.Random(7))
        plan_b = determine_part_intervals(16, heap_b, 400, CostModel(), random.Random(7))
        assert plan_a.intervals == plan_b.intervals
        assert plan_a.part_size == plan_b.part_size


class TestPageLayoutDoesNotChangeThePlan:
    """The scan sampler plans on columns; list pages and columnar pages
    must agree on the whole plan -- intervals, curve, cache estimate,
    sample record."""

    @staticmethod
    def plan_of(tuples, **heap_options):
        heap, disk = make_heap(tuples, **heap_options)
        plan = determine_part_intervals(
            24, heap, len(tuples), CostModel(), random.Random(11), prune=False
        )
        return plan, disk.stats.as_dict()

    @pytest.mark.parametrize("long_lived", [0, 300])
    def test_list_and_columnar_scans_yield_the_same_plan(self, long_lived):
        tuples = uniform_tuples(1200, long_lived=long_lived)
        from_lists = self.plan_of(tuples)
        assert from_lists[0].sample_plan.strategy.name == "SCAN"
        assert from_lists == self.plan_of(tuples, columnar=True)


class TestGrantEstimate:
    def test_every_partition_mode_asks_for_the_same_grant(self):
        """The useful budget is a property of the inputs, not of the
        execution mode: the pipelined sweeps ask for what ``batch`` asks."""
        base = estimate_grant_pages(100, 100, 200)
        assert base == 103  # min(outer, inner) + the three fixed pages
        for execution in EXECUTION_MODES:
            assert estimate_grant_pages(100, 100, 200, execution=execution) == base
