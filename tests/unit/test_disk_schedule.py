"""Billing a schedule in one call is billing its runs one by one.

``SimulatedDisk.charge_runs`` takes an ordered list of ``(extent, first
page, count, write)`` runs and records each ``(device, op, sequential)``
total once.  Over random schedules -- several devices, extents that outgrow
their first segment, heads parked between calls, retry tags, an attached
observer -- one call per schedule must leave the disk exactly
as one ``_charge`` call per run does: heads, segments, ``stats``,
``device_stats`` and the observer's ``repro_io_*`` counters.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Observability
from repro.storage.disk import SimulatedDisk

#: ``(device, reserved pages)`` of the extents every disk starts with: two
#: per device, so runs on one device interleave two files.
EXTENTS = [(0, 3), (0, 1), (1, 2), (1, 4), (2, 1), (2, 2)]

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


def replay(calls, one_call):
    disk, obs, extents = fresh_disk()
    for runs, retry, park in calls:
        if park:
            disk.park_heads()
        runs = billable(runs, extents)
        if one_call:
            disk.charge_runs(runs, retry=retry)
        else:
            for extent, index, count, write in runs:
                disk._charge(extent, index, write=write, retry=retry, count=count)
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
    assert replay(calls, one_call=True) == replay(calls, one_call=False)


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
