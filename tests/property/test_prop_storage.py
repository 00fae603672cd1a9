"""Property tests for the storage substrate's accounting invariants."""

import os

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.storage.disk import SimulatedDisk
from repro.storage.iostats import CostModel, IOStatistics

#: Shifts the fault injectors' seeds (the chaos CI job sets it).
CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))

prop_settings = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def operation_sequences():
    """Random interleavings of appends and reads across two extents/devices."""
    return st.lists(
        st.tuples(
            st.integers(0, 1),  # which extent
            st.sampled_from(["append", "read"]),
            st.integers(0, 30),  # read position hint
        ),
        max_size=60,
    )


class TestAccountingInvariants:
    @given(operation_sequences(), st.booleans())
    @prop_settings
    def test_every_operation_counted_exactly_once(self, operations, same_device):
        stats = IOStatistics()
        disk = SimulatedDisk(stats)
        extents = [
            disk.allocate("a", device=0, capacity=64),
            disk.allocate("b", device=0 if same_device else 1, capacity=64),
        ]
        performed = 0
        for which, op, hint in operations:
            extent = extents[which]
            if op == "append":
                disk.append(extent, f"p{performed}")
                performed += 1
            elif extent.n_pages > 0:
                disk.read(extent, hint % extent.n_pages)
                performed += 1
        assert stats.total_ops == performed
        per_device = sum(s.total_ops for s in disk.device_stats.values())
        assert per_device == performed

    @given(operation_sequences())
    @prop_settings
    def test_cost_bounds(self, operations):
        """Weighted cost is bounded by all-random above, all-sequential below."""
        stats = IOStatistics()
        disk = SimulatedDisk(stats)
        extent = disk.allocate("a", device=0, capacity=64)
        for _, op, hint in operations:
            if op == "append":
                disk.append(extent, "x")
            elif extent.n_pages > 0:
                disk.read(extent, hint % extent.n_pages)
        model = CostModel.with_ratio(5)
        total = stats.total_ops
        assert total * model.io_seq <= stats.cost(model) <= total * model.io_ran

    @given(st.integers(1, 50), st.integers(2, 10))
    @prop_settings
    def test_separate_scans_each_cost_one_seek(self, pages, n_scans):
        stats = IOStatistics()
        disk = SimulatedDisk(stats)
        extent = disk.allocate("a", capacity=pages)
        disk.load(extent, list(range(pages)))
        for _ in range(n_scans):
            disk.park_heads()
            for index in range(pages):
                disk.read(extent, index)
        assert stats.random_reads == n_scans
        assert stats.sequential_reads == n_scans * (pages - 1)


def run_operations():
    """Random interleavings of run and single accesses over three extents on
    two devices; appends outgrow the small reservations, so runs cross
    segment boundaries."""
    return st.lists(
        st.tuples(
            st.integers(0, 2),  # which extent
            st.sampled_from(["append_run", "read_run", "append", "read"]),
            st.integers(0, 40),  # read position hint
            st.integers(1, 9),  # run length
        ),
        max_size=50,
    )


def replay(operations, *, as_runs, **disk_options):
    """Issue *operations* with the run calls, or page by page; return the disk."""
    disk = SimulatedDisk(IOStatistics(), **disk_options)
    extents = [
        disk.allocate("a", device=0, capacity=3),
        disk.allocate("b", device=0, capacity=2),
        disk.allocate("c", device=1, capacity=1),
    ]
    delivered = []
    for which, op, hint, length in operations:
        extent = extents[which]
        if op.startswith("append"):
            pages = [f"{extent.name}{extent.n_pages + k}" for k in range(length)]
            if op == "append":
                disk.append(extent, pages[0])
            elif as_runs:
                assert disk.append_run(extent, pages) == extent.n_pages - length
            else:
                for page in pages:
                    disk.append(extent, page)
        elif extent.n_pages > 0:
            index = hint % extent.n_pages
            count = 1 if op == "read" else min(length, extent.n_pages - index)
            if op == "read":
                delivered.append(disk.read(extent, index))
            elif as_runs:
                delivered.extend(disk.read_run(extent, index, count))
            else:
                delivered.extend(disk.read(extent, index + k) for k in range(count))
    return disk, extents, delivered


def stored_contents(disk, extent):
    """Every page *extent* stores, uncharged, in page order."""
    return [disk.peek(extent, index) for index in range(extent.n_pages)]


class TestRunsArePages:
    """A run charged in one call is the same accesses issued one at a time."""

    @given(run_operations())
    @prop_settings
    def test_run_charges_equal_page_charges(self, operations):
        runs, run_extents, run_pages = replay(operations, as_runs=True)
        pages, page_extents, page_pages = replay(operations, as_runs=False)
        assert runs.stats == pages.stats
        assert runs.device_stats == pages.device_stats
        assert [runs.head_position(d) for d in (0, 1)] == [
            pages.head_position(d) for d in (0, 1)
        ]
        assert run_pages == page_pages
        for run_extent, page_extent in zip(run_extents, page_extents):
            assert run_extent._segments == page_extent._segments
            assert stored_contents(runs, run_extent) == stored_contents(pages, page_extent)

    def test_a_run_pays_a_seek_at_every_segment_boundary(self):
        disk = SimulatedDisk(IOStatistics())
        extent = disk.allocate("a", capacity=2)
        disk.allocate("neighbour", capacity=4)  # so growth cannot be adjacent
        disk.append_run(extent, list(range(8)))  # segments of 2, 2 and 4 pages
        assert len(extent._segments) == 3
        assert (disk.stats.random_writes, disk.stats.sequential_writes) == (3, 5)
        disk.park_heads()
        assert disk.read_run(extent, 1, 6) == list(range(1, 7))
        assert (disk.stats.random_reads, disk.stats.sequential_reads) == (3, 3)
        model = CostModel.with_ratio(5)
        single = SimulatedDisk(IOStatistics())
        whole = single.allocate("a", capacity=8)
        single.append_run(whole, list(range(8)))
        assert single.stats.cost(model) == model.cost_of_run(8)

    def test_a_tagged_run_tags_every_page(self):
        disk = SimulatedDisk(IOStatistics())
        extent = disk.allocate("a", capacity=8)
        with disk.pipeline_tag(writes=True):
            disk.append_run(extent, list(range(6)))
        with disk.pipeline_tag(reads=True):
            disk.read_run(extent, 2, 4)
        disk.read_run(extent, 0, 2)
        stats = disk.stats
        assert (stats.writeback_writes, stats.prefetch_reads) == (6, 4)
        assert (stats.writes, stats.reads, stats.total_ops) == (6, 6, 12)
        assert disk.device_stats[0] == stats

    @given(run_operations(), st.integers(0, 2**16), st.booleans())
    @prop_settings
    def test_faulty_runs_are_served_page_by_page(self, operations, seed, checksums):
        """With an injector or checksums attached a run goes through the
        retry loop per page: same faults drawn, same retries, same backoff
        charges, same (possibly torn) deliveries."""
        from repro.model.errors import PermanentIOFaultError
        from repro.resilience import FaultInjector

        def attempt(as_runs):
            injector = FaultInjector(
                seed, read_fault_rate=0.1, write_fault_rate=0.05, corruption_rate=0.1
            )
            disk = SimulatedDisk(
                IOStatistics(), fault_injector=injector, checksums=checksums
            )
            extent = disk.allocate("a", capacity=4)
            delivered = []
            try:
                for _, op, hint, length in operations:
                    if op.startswith("append"):
                        pages = [[extent.n_pages + k] for k in range(length)]
                        if as_runs:
                            disk.append_run(extent, pages)
                        else:
                            for page in pages:
                                disk.append(extent, page)
                    elif extent.n_pages > 0:
                        index = hint % extent.n_pages
                        count = min(length, extent.n_pages - index)
                        if as_runs:
                            delivered.extend(disk.read_run(extent, index, count))
                        else:  # a run that fails delivers none of its pages
                            delivered.extend(
                                [disk.read(extent, index + k) for k in range(count)]
                            )
            except PermanentIOFaultError as error:
                delivered.append(str(error))
            return disk, delivered

        runs, run_pages = attempt(True)
        pages, page_pages = attempt(False)
        assert run_pages == page_pages
        assert runs.stats == pages.stats
        assert runs.report == pages.report
        assert runs.fault_injector.ops_seen == pages.fault_injector.ops_seen


def store_operations():
    """Random interleavings of every way to put pages on an extent and get
    them back, over two extents on two devices with small reservations."""
    return st.lists(
        st.tuples(
            st.integers(0, 1),  # which extent
            st.sampled_from(
                [
                    "load",
                    "install",
                    "append_run",
                    "append",
                    "write",
                    "truncate",
                    "corrupt_stored",
                    "read",
                    "read_run",
                    "peek",
                    "stored",
                ]
            ),
            st.integers(0, 40),  # position hint
            st.integers(0, 9),  # rows of a run
            st.integers(1, 4),  # rows per page
        ),
        max_size=40,
    )


def page_run(serial, rows, per_page):
    """A run of fresh pages of *per_page* distinct rows each (the last
    possibly short), cut out of one row list."""
    from repro.storage.disk import PageRun

    return PageRun([f"r{serial}.{k}" for k in range(rows)], per_page)


def replay_store(operations, *, as_runs, seed=None, checksums=False):
    """Issue *operations*, handing runs over as :class:`PageRun` or as lists
    of their pages; returns the disk, its extents and everything delivered."""
    from repro.model.errors import PermanentIOFaultError
    from repro.resilience import FaultInjector

    injector = None
    if seed is not None:
        injector = FaultInjector(
            seed, read_fault_rate=0.1, write_fault_rate=0.05, corruption_rate=0.1
        )
    disk = SimulatedDisk(IOStatistics(), fault_injector=injector, checksums=checksums)
    extents = [disk.allocate("a", device=0, capacity=2), disk.allocate("b", device=1, capacity=3)]
    delivered = []
    try:
        for serial, (which, op, hint, rows, per_page) in enumerate(operations):
            extent = extents[which]
            n = extent.n_pages
            if op in ("load", "install", "append_run"):
                run = page_run(serial, rows, per_page)
                getattr(disk, op)(extent, run if as_runs else list(run))
            elif op == "append":
                disk.append(extent, [f"p{serial}"])
            elif op == "truncate":
                disk.truncate(extent, hint % (n + 1))
            elif op == "stored":
                runs = disk.stored(extent)
                delivered.append(None if runs is None else [page for run in runs for page in run])
            elif n == 0:
                continue
            elif op == "write":
                disk.write(extent, hint % n, [f"w{serial}"])
            elif op == "corrupt_stored":
                disk.corrupt_stored(extent, hint % n)
            elif op == "read_run":
                index = hint % n
                delivered.extend(disk.read_run(extent, index, min(rows + 1, n - index)))
            else:  # read, peek
                delivered.append(getattr(disk, op)(extent, hint % n))
    except PermanentIOFaultError as error:
        delivered.append(str(error))
    return disk, extents, delivered


def page_list_model(operations):
    """What a plain list of pages per extent holds after *operations*
    (fault-free)."""
    from repro.storage.page import torn_copy

    model = [[], []]
    for serial, (which, op, hint, rows, per_page) in enumerate(operations):
        pages = model[which]
        if op in ("load", "install", "append_run"):
            run = [list(page) for page in page_run(serial, rows, per_page)]
            if op == "load":
                pages.clear()
            pages.extend(run)
        elif op == "append":
            pages.append([f"p{serial}"])
        elif op == "truncate":
            del pages[hint % (len(pages) + 1) :]
        elif op == "write" and pages:
            pages[hint % len(pages)] = [f"w{serial}"]
        elif op == "corrupt_stored" and pages:
            pages[hint % len(pages)] = torn_copy(pages[hint % len(pages)])
    return model


class TestStoredRunsArePageLists:
    """An extent that keeps runs as their rows and page bounds delivers page
    for page, and charges access for access, what a page-list extent does."""

    def assert_same(self, operations, **disk_options):
        runs, run_extents, run_delivered = replay_store(operations, as_runs=True, **disk_options)
        pages, page_extents, page_delivered = replay_store(
            operations, as_runs=False, **disk_options
        )
        assert run_delivered == page_delivered
        assert runs.stats == pages.stats
        assert runs.device_stats == pages.device_stats
        assert runs.report == pages.report
        assert [runs.head_position(d) for d in (0, 1)] == [
            pages.head_position(d) for d in (0, 1)
        ]
        contents = [
            [list(page) for page in stored_contents(disk, extent)]
            for disk, extents in ((runs, run_extents), (pages, page_extents))
            for extent in extents
        ]
        assert contents[:2] == contents[2:]
        return contents[:2]

    @given(store_operations())
    @prop_settings
    def test_plain(self, operations):
        assert self.assert_same(operations) == page_list_model(operations)

    @given(store_operations())
    @prop_settings
    def test_with_checksums(self, operations):
        self.assert_same(operations, checksums=True)

    @given(store_operations(), st.integers(0, 2**16), st.booleans())
    @prop_settings
    def test_under_a_fault_injector(self, operations, seed, checksums):
        self.assert_same(operations, seed=seed + CHAOS_SEED, checksums=checksums)

    def test_a_run_is_stored_whole_and_built_on_read(self):
        from repro.storage.disk import PageRun

        disk = SimulatedDisk(IOStatistics())
        extent = disk.allocate("a", capacity=4)
        rows = list(range(10))
        disk.install(extent, PageRun(rows, 4))
        (run,) = disk.stored(extent)
        assert run.rows is rows and len(run) == 3
        assert disk.read(extent, 1) == [4, 5, 6, 7]
        disk.truncate(extent, 3)  # past the run: it stays whole
        (run,) = disk.stored(extent)
        assert run.rows is rows
        disk.truncate(extent, 2)  # inside the run: its pages are built
        assert disk.stored(extent) == [[[0, 1, 2, 3], [4, 5, 6, 7]]]
        disk.write(extent, 0, ["x"])
        assert stored_contents(disk, extent) == [["x"], [4, 5, 6, 7]]


def value_rows(n, tag=""):
    """*n* distinct row objects over six values: rows six positions apart
    are equal, so equal rows sit at different positions."""
    from repro.model.vtuple import VTTuple
    from repro.time.interval import Interval

    return [VTTuple((f"{tag}{k % 3}",), (), Interval(k % 2, 2)) for k in range(n)]


def ref_operations():
    """What the engine does to references: slices (with steps too), takes,
    drops, and concatenations within one source and across sources."""
    return st.lists(
        st.tuples(
            st.sampled_from(["slice", "take", "without", "concat_same", "concat_list", "concat_other"]),
            st.lists(st.integers(0, 40), max_size=12),
            st.sampled_from([None, 1, 2, -1, -3]),
        ),
        max_size=6,
    )


def derive(base, base_rows, operations):
    """``(references, the list they must name)`` after *operations*, each
    applied to the references and to a plain list alike."""
    from repro.exec.batch import RowRefs

    refs, model = base, list(base_rows)
    for op, numbers, step in operations:
        n = len(model)
        at = [k % n for k in numbers] if n else []
        if op == "slice":
            lo, hi = (numbers + [0, n])[:2]
            refs, model = refs[lo - 5 : hi : step], model[lo - 5 : hi : step]
        elif op == "take":
            refs, model = refs.take(at), [model[k] for k in at]
        elif op == "without":
            drop = sorted(set(at))
            refs, model = refs.without(drop), [row for k, row in enumerate(model) if k not in drop]
        elif op == "concat_same":
            part = slice(*(numbers + [0, len(base_rows)])[:2])
            refs, model = RowRefs.concat([refs, base[part]]), model + base_rows[part]
        else:
            rows = value_rows(len(numbers), tag="x")
            other = rows if op == "concat_list" else RowRefs.of(rows)
            refs, model = RowRefs.concat([other, refs, []]), rows + model
    return refs, model


class TestRowRefsAreTheirList:
    """A reference sequence behaves exactly like the list of rows it names:
    length, indexing, iteration (the same objects), ``repr`` (what the
    checksumming disk hashes), comparison with lists and with references,
    and the pages a :class:`PageRun` cuts from it."""

    @given(st.integers(0, 30), ref_operations(), ref_operations())
    @prop_settings
    def test_derived_references_name_their_list(self, n, ops, other_ops):
        from repro.exec.batch import RowRefs
        from repro.storage.disk import PageRun
        from repro.storage.heapfile import LazyPage

        rows = value_rows(n)
        base = RowRefs.of(rows)
        refs, model = derive(base, rows, ops)
        assert len(refs) == len(model)
        assert all(got is want for got, want in zip(refs, model))
        assert all(got is want for got, want in zip(refs.tolist(), model))
        assert all(refs[k] is model[k] for k in range(-len(model), len(model)))
        assert repr(refs) == repr(model)
        assert refs == model and model == refs and not refs != model
        assert refs != tuple(model) and refs == LazyPage([(model, 0, len(model))])
        for capacity in (1, 3, 4):
            pages = list(PageRun(refs, capacity))
            assert all(type(page) is list for page in pages)
            assert pages == [model[k : k + capacity] for k in range(0, len(model), capacity)]
            assert [PageRun(refs, capacity)[k] for k in range(len(pages))] == pages

        other, other_model = derive(base, rows, other_ops)
        assert (refs == other) == (model == other_model)
        assert (refs != other) == (model != other_model)
        assert (refs == other_model) == (model == other_model)
        assert (other_model != refs) == (other_model != model)

    def test_equal_rows_at_other_positions_are_equal(self):
        from repro.exec.batch import RowRefs

        rows = value_rows(12)
        refs = RowRefs.of(rows)
        assert refs[0:3] == refs[6:9] and refs[0:3] != refs[1:4]
        assert refs.take([0, 6]) == refs[0:12:6] == [rows[0], rows[0]]
        assert RowRefs.of(value_rows(4)) == refs[:4]  # another source, equal rows
        assert refs[:4] != refs[:5] and refs[:0] == [] == refs[5:5]

    def test_a_buffer_grows_in_place_until_references_join_it(self):
        from repro.exec.batch import RowRefs, extended

        rows = value_rows(6)
        buffer = rows[:2]
        assert extended(buffer, rows[2:3]) is buffer == rows[:3]
        refs = RowRefs.of(rows)
        assert extended(buffer, refs[:0]) is buffer  # nothing to add
        grown = extended(buffer, refs[3:5])
        assert type(grown) is RowRefs and grown == rows[:5]
        assert extended([], refs[1:4]) == rows[1:4]
        grown = extended(refs[:2], refs[2:6])
        assert grown.source is refs.source and grown == rows
