"""The main disk's access *sequence* is the same in every serial mode.

The sweep probes runs of pages but migrates page by page: old-cache reads
and new-cache writes share the CACHE head, so a migrant must reach the new
cache before the next page is read.  Per-phase counters cannot see a
reordering that keeps the totals; this test records the ordered charges
themselves, so a later change that batches the migration (or otherwise
reorders main-disk accesses) fails here, loudly.
"""

import pytest

from repro.core.joiner import RUN_ROWS
from repro.core.partition_join import partition_join
from repro.storage.layout import DiskLayout

from tests.chaos.conftest import long_lived_config, long_lived_pair


def charged_accesses(execution, direction):
    """``(run, [(device, extent, page, write), ...])`` of one join."""
    config = long_lived_config(
        execution, checkpoint_interval=0, sweep_direction=direction
    )
    layout = DiskLayout(spec=config.page_spec)
    accesses = []
    charge = layout.disk._charge

    def recording_charge(extent, index, *, write, retry=False):
        accesses.append((extent.device, extent.name, index, write))
        charge(extent, index, write=write, retry=retry)

    layout.disk._charge = recording_charge
    run = partition_join(*long_lived_pair(), config, layout=layout)
    return run, accesses


@pytest.mark.parametrize("direction", ["backward", "forward"])
def test_batch_charges_the_access_sequence_of_tuple(direction):
    tuple_run, tuple_accesses = charged_accesses("tuple", direction)
    batch_run, batch_accesses = charged_accesses("batch", direction)

    # The fixture exercises what the invariant is about: 8-tuple pages, so a
    # run spans dozens of them; a spilling cache longer than one run; and
    # overflow blocks re-reading both streams.
    capacity = tuple_run.layout.spec.capacity
    assert capacity * 16 <= RUN_ROWS
    assert tuple_run.outcome.cache_tuples_peak > RUN_ROWS
    assert tuple_run.outcome.cache_tuples_spilled > RUN_ROWS
    assert tuple_run.outcome.overflow_blocks >= 1

    assert batch_accesses == tuple_accesses
    assert list(batch_run.result.tuples) == list(tuple_run.result.tuples)
    assert (
        batch_run.layout.result_stats.as_dict()
        == tuple_run.layout.result_stats.as_dict()
    )
