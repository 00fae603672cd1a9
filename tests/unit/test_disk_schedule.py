"""Billing a schedule in one call is billing its runs one by one.

``SimulatedDisk.charge_runs`` takes an ordered schedule of ``(extent, first
page, count, write)`` runs -- a ``Schedule`` of columns, or a list of
tuples -- and records each ``(device, op, sequential)`` total once.  The
reference here is the scalar loop the disk billed every schedule with
before it billed on columns (:func:`oracle_charge_runs`): one Python
iteration per run, walking the extent's segments.  Over random schedules
-- several devices, two extents per device that outgrow their first
segment, empty runs, heads parked between calls, retry tags, an attached
observer -- the column form, the tuple-list form and one ``_charge`` per run
must each leave the disk exactly as the oracle does: heads, segments,
``stats``, ``device_stats`` and the observer's ``repro_io_*`` counters.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.errors import StorageError
from repro.obs import Observability
from repro.storage.disk import Schedule, SimulatedDisk

#: ``(device, reserved pages)`` of the extents every disk starts with: two
#: per device, so runs on one device interleave two files.
EXTENTS = [(0, 3), (0, 1), (1, 2), (1, 4), (2, 1), (2, 2)]
FORMS = ("oracle", "columns", "tuples", "per-run")

run = st.tuples(
    st.integers(0, len(EXTENTS) - 1),  # extent
    st.integers(0, 12),  # first page
    st.integers(0, 6),  # count (an empty run bills nothing)
    st.booleans(),  # write
)
call = st.tuples(
    st.lists(run, max_size=8),
    st.booleans(),  # retry
    st.booleans(),  # park the heads first
)


def oracle_charge_runs(disk, runs, retry=False):
    """The scalar loop: per run, grow a write's extent, then walk its
    segments from the device head; one total per ``(device, write)``."""
    heads = disk._heads
    totals = {}  # (device, write) -> [seeks, accesses]
    for extent, index, count, write in runs:
        if count < 1:
            continue
        if write and index + count > extent._capacity:
            disk._ensure_capacity(extent, index + count - 1)
        head = heads.get(extent.device)
        seeks, skip, left = 0, index, count
        for base, cap in extent._segments:
            if skip >= cap:
                skip -= cap
                continue
            first = base + skip
            piece = min(left, cap - skip)
            if head is None or not 0 <= first - head <= 1:
                seeks += 1
            head = first + piece - 1
            left -= piece
            skip = 0
            if not left:
                break
        else:
            raise StorageError(f"page {index + count - 1} past extent {extent.name!r}")
        heads[extent.device] = head
        total = totals.setdefault((extent.device, write), [0, 0])
        total[0] += seeks
        total[1] += count
    for (device, write), (seeks, count) in totals.items():
        sequential = count - seeks
        for stats in (disk.stats, disk._device_stats_of(device)):
            stats.record(write=write, sequential=False, count=seeks)
            stats.record(write=write, sequential=True, count=sequential)
            if retry:
                stats.record_retry(write=write, count=count)
        for is_sequential, ops in ((False, seeks), (True, sequential)):
            if ops:
                disk._obs.on_io(
                    device, write=write, sequential=is_sequential, retry=retry, count=ops
                )


def fresh_disk():
    disk = SimulatedDisk()
    obs = Observability()
    disk.attach_observer(obs)
    extents = [
        disk.allocate(f"e{number}", device=device, capacity=pages)
        for number, (device, pages) in enumerate(EXTENTS)
    ]
    return disk, obs, extents


def billable(runs, extents):
    """*runs* on *extents*, a read kept inside what is reserved by now (a
    write past it grows the extent, a read there raises either way)."""
    reserved = [extent.capacity for extent in extents]
    kept = []
    for number, index, count, write in runs:
        if write and count:
            reserved[number] = max(reserved[number], index + count)
        elif index + count > reserved[number]:
            continue
        kept.append((extents[number], index, count, write))
    return kept


def bill(disk, runs, retry, form):
    if form == "oracle":
        oracle_charge_runs(disk, runs, retry)
    elif form == "columns":
        disk.charge_runs(Schedule.of(runs), retry=retry)
    elif form == "tuples":
        disk.charge_runs(list(runs), retry=retry)
    else:
        for extent, index, count, write in runs:
            disk._charge(extent, index, write=write, retry=retry, count=count)


def replay(calls, form):
    disk, obs, extents = fresh_disk()
    for runs, retry, park in calls:
        if park:
            disk.park_heads()
        bill(disk, billable(runs, extents), retry, form)
    metrics = {
        name: family
        for name, family in obs.metrics_snapshot().items()
        if name.startswith("repro_io_")
    }
    return (
        {device: disk.head_position(device) for device in range(3)},
        [list(extent._segments) for extent in extents],
        disk.stats.as_dict(),
        {device: stats.as_dict() for device, stats in disk.device_stats.items()},
        metrics,
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(call, max_size=10))
def test_one_call_bills_what_one_charge_per_run_bills(calls):
    """Columns, a tuple list and one ``_charge`` per run, each against the
    scalar oracle."""
    expected = replay(calls, "oracle")
    for form in FORMS[1:]:
        assert replay(calls, form) == expected, form


def test_a_schedule_crosses_segments_and_devices():
    """A hand-made schedule the random ones may miss: a write that grows its
    extent into a second segment, read back across the boundary, with a run
    on another device in between -- and its exact bill."""
    disk, _, extents = fresh_disk()
    first, other = extents[0], extents[2]  # device 0, 3 pages; device 1
    disk.charge_runs(
        [(first, 0, 4, True), (other, 0, 2, False), (first, 0, 4, False)]
    )
    assert [cap for _, cap in first._segments] == [3, 3]
    # Device 0: the write seeks, then seeks again entering the second
    # segment; the read-back does the same.  Device 1: one seek, one page on.
    assert disk.device_stats[0].as_dict() == dict(
        disk.device_stats[0].as_dict(),
        random_writes=2, sequential_writes=2, random_reads=2, sequential_reads=2,
    )
    assert disk.device_stats[1].random_reads == disk.device_stats[1].sequential_reads == 1
    assert disk.stats.total_ops == 10


@pytest.mark.parametrize("form", FORMS)
def test_two_extents_on_one_device_grow_in_one_call(form):
    """Both files of device 0 outgrow their reservation in one schedule:
    each new segment is placed where the device's allocation pointer stands
    when its run is reached, so the order of growth is the run order."""
    disk, _, extents = fresh_disk()
    big, small = extents[0], extents[1]  # device 0: 3 pages, then 1 page
    runs = [(small, 0, 3, True), (big, 2, 3, True), (small, 2, 2, False), (big, 0, 5, False)]
    bill(disk, runs, False, form)
    # small grows to pages 6 and 8-9 first, then big to 11-13.
    assert [list(extent._segments) for extent in (big, small)] == [
        [(0, 3), (11, 3)],
        [(4, 1), (6, 1), (8, 2)],
    ]
    # Writes: 4, 6, 8 | 2, 11 12.  Reads: 8 9 | 0 1 2, 11 12.
    assert disk.device_stats[0].as_dict() == dict(
        disk.device_stats[0].as_dict(),
        random_writes=5, sequential_writes=1, random_reads=3, sequential_reads=4,
    )
    assert disk.head_position(0) == 12


@pytest.mark.parametrize("form", FORMS[1:])
def test_empty_runs_and_parked_heads(form):
    """An empty run bills nothing and leaves the head where it was; after
    ``park_heads`` the next access on every device is a seek."""
    disk, _, extents = fresh_disk()
    a, b = extents[0], extents[3]
    bill(disk, [(a, 0, 2, False), (a, 5, 0, True), (b, 0, 0, False), (a, 2, 1, False)], False, form)
    assert disk.head_position(0) == 2 and disk.head_position(1) is None
    assert (disk.stats.random_reads, disk.stats.sequential_reads, disk.stats.writes) == (1, 2, 0)
    disk.park_heads()
    bill(disk, [(a, 2, 1, False), (a, 0, 0, False)], False, form)
    assert disk.stats.random_reads == 2


@pytest.mark.parametrize("form", FORMS[1:])
def test_retry_and_observer(form):
    """A retried schedule tags every access it bills as a retry, in the
    counters and in the observer's retry family."""
    disk, obs, extents = fresh_disk()
    bill(disk, [(extents[0], 0, 3, False), (extents[2], 0, 2, True)], True, form)
    assert (disk.stats.retry_reads, disk.stats.retry_writes) == (3, 2)
    expected, expected_obs, same = fresh_disk()
    oracle_charge_runs(expected, [(same[0], 0, 3, False), (same[2], 0, 2, True)], True)
    assert obs.metrics_snapshot() == expected_obs.metrics_snapshot()


def test_a_schedule_iterates_exactly_as_its_columns():
    """A schedule is the list it stands for: ``Schedule.of`` of a list
    iterates as that list, with the very extent objects, and a schedule
    built from columns iterates run by run as plain ints and bools."""
    _, _, extents = fresh_disk()
    runs = [(extents[2], 0, 2, False), (extents[0], 1, 0, True), (extents[2], 2, 1, False)]
    schedule = Schedule.of(runs)
    assert list(schedule) == runs
    assert [run[0] for run in schedule][0] is extents[2]
    assert schedule.extents == [extents[2], extents[0]]
    built = Schedule(
        [extents[4], extents[5]],
        np.array([1, 0], np.int64),
        np.array([3, 0], np.int64),
        np.array([2, 1], np.int64),
        np.array([True, False]),
    )
    assert list(built) == [(extents[5], 3, 2, True), (extents[4], 0, 1, False)]
    assert all(type(field) in (int, bool) for run in built for field in run[1:])
    assert list(Schedule.of([])) == []


@pytest.mark.parametrize("form", FORMS[1:])
def test_a_read_past_the_reservation_raises(form):
    disk, _, extents = fresh_disk()
    with pytest.raises(StorageError):
        bill(disk, [(extents[0], 0, 1, False), (extents[1], 0, 2, False)], False, form)
