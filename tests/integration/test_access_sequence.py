"""The main disk's access *sequence* is the same in every serial mode.

The sweep probes runs of pages but migrates page by page: old-cache reads
and new-cache writes share the CACHE head, so a migrant must reach the new
cache before the next page is read.  Per-phase counters cannot see a
reordering that keeps the totals; this test records the ordered charges
themselves, so a later change that batches the migration (or otherwise
reorders main-disk accesses) fails here, loudly.

The batch engine charges an uninterleaved scan as one run; a run of
``count`` pages is recorded as the ``count`` single accesses it stands
for, so a run used where another access belongs between two of its pages
-- across a migrating pass -- shows up as a reordering too.
"""

import pytest

from repro.core.joiner import RUN_ROWS
from repro.core.partition_join import partition_join
from repro.storage.layout import DiskLayout

from tests.chaos.conftest import long_lived_config, long_lived_pair


def charged_accesses(execution, direction):
    """``(run, [(device, extent, page, write), ...], charge calls)`` of one join."""
    config = long_lived_config(
        execution, checkpoint_interval=0, sweep_direction=direction
    )
    layout = DiskLayout(spec=config.page_spec)
    accesses = []
    calls = []
    charge = layout.disk._charge

    def recording_charge(extent, index, *, write, retry=False, count=1):
        calls.append(count)
        accesses.extend(
            (extent.device, extent.name, page, write)
            for page in range(index, index + count)
        )
        charge(extent, index, write=write, retry=retry, count=count)

    layout.disk._charge = recording_charge
    run = partition_join(*long_lived_pair(), config, layout=layout)
    return run, accesses, len(calls)


@pytest.mark.parametrize("direction", ["backward", "forward"])
def test_batch_charges_the_access_sequence_of_tuple(direction):
    tuple_run, tuple_accesses, tuple_calls = charged_accesses("tuple", direction)
    batch_run, batch_accesses, batch_calls = charged_accesses("batch", direction)

    # The fixture exercises what the invariant is about: 8-tuple pages, so a
    # run spans dozens of them; a spilling cache longer than one run; and
    # overflow blocks re-reading both streams.
    capacity = tuple_run.layout.spec.capacity
    assert capacity * 16 <= RUN_ROWS
    assert tuple_run.outcome.cache_tuples_peak > RUN_ROWS
    assert tuple_run.outcome.cache_tuples_spilled > RUN_ROWS
    assert tuple_run.outcome.overflow_blocks >= 1

    assert batch_accesses == tuple_accesses
    assert batch_calls < tuple_calls * 0.8  # the overflow passes went by run
    assert batch_run.layout.disk.device_stats == tuple_run.layout.disk.device_stats
    assert list(batch_run.result.tuples) == list(tuple_run.result.tuples)
    assert (
        batch_run.layout.result_stats.as_dict()
        == tuple_run.layout.result_stats.as_dict()
    )
