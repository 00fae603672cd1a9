"""Property tests for partitioning invariants (Section 3.3)."""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.cache_estimate import estimate_cache_sizes
from repro.core.intervals import (
    PartitionMap,
    SampleSpans,
    _coverage_quantiles,
    choose_intervals,
)
from repro.core.partitioner import do_partitioning
from repro.exec.kernels import get_kernels
from repro.model.relation import ValidTimeRelation
from repro.model.schema import RelationSchema
from repro.model.vtuple import VTTuple
from repro.storage.layout import DiskLayout
from repro.storage.page import PageSpec
from repro.time.chronon import BEGINNING, FOREVER
from repro.time.interval import Interval
from repro.time.lifespan import covers_lifespan, lifespan_of

SCHEMA = RelationSchema("r", ("k",), (), tuple_bytes=128)
SPEC = PageSpec(page_bytes=512, tuple_bytes=128)

prop_settings = settings(
    max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def vt_tuples():
    return st.builds(
        lambda key, start, duration: VTTuple(
            (key,), (), Interval(start, start + duration)
        ),
        key=st.integers(0, 3),
        start=st.integers(0, 100),
        duration=st.integers(0, 60),
    )


class TestChooseIntervalsProperties:
    @given(st.lists(vt_tuples(), min_size=1, max_size=60), st.integers(1, 10))
    @prop_settings
    def test_tiles_sampled_lifespan(self, samples, n):
        intervals = choose_intervals(samples, n)
        span = lifespan_of(tup.valid for tup in samples)
        assert covers_lifespan(intervals, span)
        assert intervals[0].start == span.start
        assert intervals[-1].end == span.end

    @given(st.lists(vt_tuples(), min_size=1, max_size=60), st.integers(1, 10))
    @prop_settings
    def test_count_bounded_by_request(self, samples, n):
        assert 1 <= len(choose_intervals(samples, n)) <= n

    @given(st.lists(vt_tuples(), min_size=1, max_size=60), st.integers(1, 10))
    @prop_settings
    def test_intervals_form_valid_partition_map(self, samples, n):
        PartitionMap(choose_intervals(samples, n))  # no PlanError


def partition_maps():
    """Random tilings, one-partition maps included."""
    return st.builds(
        lambda start, widths: PartitionMap(
            [
                Interval(start + sum(widths[:i]), start + sum(widths[: i + 1]) - 1)
                for i in range(len(widths))
            ]
        ),
        start=st.integers(-50, 50),
        widths=st.lists(st.integers(1, 30), min_size=1, max_size=8),
    )


def list_columns(rows):
    """Sorted list columns: the planner's integer loop."""
    return SampleSpans(sorted(tup.vs for tup in rows), sorted(tup.ve for tup in rows))


def span_rows(scale=1):
    """Rows over a narrow chronon range (ties between starts, ends and
    partition boundaries are common), one-chronon intervals included."""
    return st.lists(
        st.tuples(st.integers(0, 30), st.sampled_from([0, 0, 1, 2, 7, 40])).map(
            lambda span: VTTuple(
                (0,), (), Interval(span[0] * scale, (span[0] + span[1]) * scale)
            )
        ),
        min_size=1,
        max_size=25,
    )


class TestCoverageQuantilesOnColumns:
    """The whole-array sweep over sorted ``int64`` columns is the loop over
    sorted lists: equal chronons for equal positions -- ties between starts
    and ends, zero-length intervals, a single sample, positions before the
    first element and past the last."""

    @given(span_rows(), st.lists(st.integers(-3, 400), min_size=1, max_size=8))
    @prop_settings
    def test_columns_agree_with_the_loop(self, rows, positions):
        columns = SampleSpans.of(rows)
        assert columns.sweep() is not None
        expected = _coverage_quantiles(list_columns(rows), positions)
        assert _coverage_quantiles(columns, positions) == expected
        assert choose_intervals(columns, 5) == choose_intervals(list_columns(rows), 5)

    def test_chronons_near_the_int64_edge_take_the_loop(self):
        far = 2**61
        samples = [VTTuple((0,), (), Interval(0, far)), VTTuple((0,), (), Interval(5, far + 9))]
        columns = SampleSpans.of(samples)
        assert columns.sweep() is None
        positions = [1, far, 2 * far, 2 * far + 20]
        assert _coverage_quantiles(columns, positions) == _coverage_quantiles(
            list_columns(samples), positions
        )


def naive_cache_counts(rows, pmap):
    """Appendix A.4 per tuple: cached in every overlapped partition but its
    last."""
    counts = [0] * len(pmap)
    for tup in rows:
        first = pmap.first_overlapping(tup.valid)
        for index in range(first, pmap.last_overlapping(tup.valid)):
            counts[index] += 1
    return counts


class TestSampleConsumers:
    """``choose_intervals`` and ``estimate_cache_sizes`` read a sample only
    through its two endpoint multisets: rows in any order, sorted list
    columns and sorted array columns all give the same answer, and the
    cache estimate is the per-tuple definition."""

    @given(span_rows(), st.integers(1, 8), st.randoms(use_true_random=False))
    @prop_settings
    def test_both_consumers_ignore_row_order(self, rows, n, rnd):
        shuffled = list(rows)
        rnd.shuffle(shuffled)
        forms = [rows, shuffled, list_columns(rows), SampleSpans.of(rows)]
        intervals = choose_intervals(rows, n)
        assert all(choose_intervals(form, n) == intervals for form in forms)
        # Boundaries chosen from the rows themselves tie with their endpoints.
        pmap = PartitionMap(intervals)
        population = 7 * len(rows)
        expected = [
            SPEC.pages_for_tuples(round(count * population / len(rows)))
            for count in naive_cache_counts(rows, pmap)
        ]
        for form in forms:
            assert estimate_cache_sizes(form, population, pmap, SPEC) == expected

    @given(span_rows(), partition_maps())
    @prop_settings
    def test_cache_counts_on_any_tiling(self, rows, pmap):
        counts = naive_cache_counts(rows, pmap)
        expected = [SPEC.pages_for_tuples(count) for count in counts]
        for form in (rows, list_columns(rows), SampleSpans.of(rows)):
            assert estimate_cache_sizes(form, len(rows), pmap, SPEC) == expected

    @given(span_rows(scale=2**55), st.integers(2, 8))
    @prop_settings
    def test_int64_headroom_takes_the_loop(self, rows, n):
        columns = SampleSpans.of(rows)
        lo, hi = columns.lifespan()
        if len(rows) * (hi - lo + 1) >= 2**62:
            assert columns.sweep() is None
        intervals = choose_intervals(rows, n)
        assert choose_intervals(list_columns(rows), n) == intervals
        assert choose_intervals(list(reversed(rows)), n) == intervals
        pmap = PartitionMap(intervals)
        assert estimate_cache_sizes(columns, len(rows), pmap, SPEC) == [
            SPEC.pages_for_tuples(count) for count in naive_cache_counts(rows, pmap)
        ]

    def test_forever_intervals_keep_an_exact_mass(self):
        """Three rows over the whole time-line hold more chronons than
        ``int64`` counts; the plan is still the loop's."""
        whole = VTTuple((0,), (), Interval(BEGINNING, FOREVER))
        rows = [whole, whole, whole, VTTuple((0,), (), Interval(0, 10))]
        assert SampleSpans.of(rows).mass() == 3 * (FOREVER - BEGINNING + 1) + 11
        assert choose_intervals(rows, 4) == choose_intervals(list_columns(rows), 4)


class TestPlacementProperties:
    @given(st.lists(vt_tuples(), min_size=1, max_size=60), st.integers(1, 6))
    @prop_settings
    def test_each_tuple_stored_exactly_once_in_last_overlap(self, tuples, n):
        pmap = PartitionMap(choose_intervals(tuples, n))
        layout = DiskLayout(spec=SPEC)
        relation = ValidTimeRelation(SCHEMA, tuples)
        source = layout.place_relation(relation)
        parts = do_partitioning(source, pmap, layout, "r", memory_pages=8)

        assert sum(part.n_tuples for part in parts) == len(tuples)
        for index, part in enumerate(parts):
            for tup in part.all_tuples():
                assert pmap.last_overlapping(tup.valid) == index

    @given(st.lists(vt_tuples(), min_size=1, max_size=60), st.integers(1, 6))
    @prop_settings
    def test_first_le_last_overlap(self, tuples, n):
        pmap = PartitionMap(choose_intervals(tuples, n))
        for tup in tuples:
            first = pmap.first_overlapping(tup.valid)
            last = pmap.last_overlapping(tup.valid)
            assert 0 <= first <= last < len(pmap)
            # The clamped overlap set is exactly the index range.
            for index in range(len(pmap)):
                assert pmap.overlaps_partition(tup.valid, index) == (
                    first <= index <= last
                )

    @given(st.lists(vt_tuples(), min_size=2, max_size=60))
    @prop_settings
    def test_overlapping_tuples_share_a_partition(self, tuples):
        """The partitioning correctness core: joinable pairs co-reside."""
        pmap = PartitionMap(choose_intervals(tuples, 5))
        for x in tuples:
            for y in tuples:
                if x.valid.overlaps(y.valid):
                    shared = set(
                        range(
                            pmap.first_overlapping(x.valid),
                            pmap.last_overlapping(x.valid) + 1,
                        )
                    ) & set(
                        range(
                            pmap.first_overlapping(y.valid),
                            pmap.last_overlapping(y.valid) + 1,
                        )
                    )
                    assert shared


class TestPartitionWindows:
    """The batch engines' two-comparison windows against the map's bisects:
    every partition (both edges of ``next_index`` included), chronons and
    intervals reaching outside the covered lifespan."""

    @given(partition_maps(), st.lists(st.integers(-120, 350), max_size=40))
    @prop_settings
    def test_owner_window_is_index_of_chronon(self, pmap, chronons):
        boundaries = get_kernels().prepare_boundaries(pmap)
        for index in range(len(pmap)):
            lo, hi = boundaries.window(index)
            for chronon in chronons:
                assert (lo < chronon <= hi) == (pmap.index_of_chronon(chronon) == index)

    @given(
        partition_maps(),
        st.lists(st.tuples(st.integers(-120, 350), st.integers(0, 200)), max_size=30),
    )
    @prop_settings
    def test_migration_window_is_overlaps_partition(self, pmap, spans):
        page = [VTTuple((0,), (), Interval(vs, vs + length)) for vs, length in spans]
        kernels = get_kernels()
        boundaries = kernels.prepare_boundaries(pmap)
        for index in range(len(pmap)):
            assert kernels.migration_rows(page, boundaries, index) == [
                row
                for row, tup in enumerate(page)
                if pmap.overlaps_partition(tup.valid, index)
            ]

    @given(
        partition_maps(),
        st.lists(st.tuples(st.integers(-120, 350), st.integers(0, 200)), max_size=12),
        st.lists(st.tuples(st.integers(-120, 350), st.integers(0, 200)), max_size=12),
    )
    @prop_settings
    def test_probe_owner_filter_in_both_directions(self, pmap, outer, inner):
        block = [VTTuple((0,), (i,), Interval(vs, vs + n)) for i, (vs, n) in enumerate(outer)]
        page = [VTTuple((0,), (i,), Interval(vs, vs + n)) for i, (vs, n) in enumerate(inner)]
        kernels = get_kernels()
        interner = kernels.make_interner()
        index = kernels.build_probe_index(block, interner)
        batch = kernels.page_batch(page, interner)
        boundaries = kernels.prepare_boundaries(pmap)
        for direction in ("backward", "forward"):
            for part in range(len(pmap)):
                want = []
                for inner_tup in page:
                    for outer_tup in block:
                        common = outer_tup.valid.intersect(inner_tup.valid)
                        if common is None:
                            continue
                        owner = common.end if direction == "backward" else common.start
                        if pmap.index_of_chronon(owner) == part:
                            want.append((outer_tup, inner_tup, common))
                assert kernels.probe(index, batch, boundaries, part, direction) == want


class TestKolmogorovAccuracy:
    def test_sampled_partitions_respect_error_bound_empirically(self):
        """With the Kolmogorov-sized sample, realized partition sizes stay
        within errorSize of the target with high probability."""
        from repro.sampling.kolmogorov import required_samples

        rng = random.Random(99)
        n_tuples = 4000
        tuples = []
        for _ in range(n_tuples):
            start = rng.randrange(100_000)
            tuples.append(VTTuple((0,), (), Interval(start, start + rng.randrange(100))))
        pages = n_tuples // SPEC.capacity
        part_size = pages // 8
        error_pages = part_size  # generous slack for the bound
        m = required_samples(pages, error_pages)
        samples = rng.sample(tuples, min(m, n_tuples))
        intervals = choose_intervals(samples, 8)
        pmap = PartitionMap(intervals)
        violations = 0
        for index in range(len(pmap)):
            stored = sum(
                1 for t in tuples if pmap.last_overlapping(t.valid) == index
            )
            stored_pages = SPEC.pages_for_tuples(stored)
            if stored_pages > part_size + error_pages:
                violations += 1
        assert violations == 0
