"""The join's observable output is pinned: every mode's run hashes to one digest.

``PLAN_GRID_DIGEST`` (``test_plan_identity.py``) pins what the planner
decides; this pins what a join then does with it.  For each execution name
and sweep direction on three reduced-scale recipes, the digest covers:

* the result rows in emission order;
* the ``JoinOutcome`` counters;
* the per-phase charged ledger, the per-device counters and the result
  stream's counters;
* the main disk's access sequence, each charged run expanded into its page
  accesses, as ``test_access_sequence.record_charges`` records it;
* every page the main disk stores at the end, read through ``peek`` as
  ``(key, payload, vs, ve)`` rows, so a page's Python type is not hashed.

``WALKED_JOIN_DIGEST`` pins the same fingerprint on the pages a join
*walks*: the reduced ``long_lived`` recipe, every name and direction, on a
checksummed disk and on a disk whose injector fails scripted reads once.
Either disk has no stored run table to bill from, so every scan reads its
pages.

A refactor may change how a join computes, never any of this.  A mismatch
means some mode's output moved; to find which, print ``_fingerprint`` for
every point on this commit and on the last commit that passed, and diff.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools

import pytest

from repro.core.partition_join import PartitionJoinConfig, partition_join
from repro.model.relation import ValidTimeRelation
from repro.resilience.faults import FaultInjector
from repro.model.schema import RelationSchema
from repro.storage.disk import SimulatedDisk
from repro.storage.layout import DiskLayout
from repro.storage.page import PageSpec
from repro.workloads import fig8_spec, generate_pair
from repro.workloads.builders import random_valid_time_relation

#: sha256 over every point's fingerprint: recipes x MODES x DIRECTIONS, in order.
JOIN_DIGEST = "f3c0b4e36cdbfb4595260fa3e00dd4d9d2de3454f3c66b50ac79c41659145cbf"

#: sha256 over the walked points: MODES x DIRECTIONS on a checksummed
#: disk, then on a faulting disk (``_walked_layouts``), the long_lived recipe.
WALKED_JOIN_DIGEST = "8e4ea067febd1c263f2bfe3797e17440b0ed6ce316f99f89e248d7775fbcb2a4"

MODES = ("tuple", "batch", "forward-sweep")
DIRECTIONS = ("backward", "forward")
COUNTERS = (
    "random_reads",
    "sequential_reads",
    "random_writes",
    "sequential_writes",
    "retry_reads",
    "retry_writes",
)


def _builder_pair(n, *, endpoint_sorted=False, **shape):
    pair = []
    for seed, name in ((1994, "r"), (1995, "s")):
        schema = RelationSchema(name, ("k",), (f"{name}v",))
        relation = random_valid_time_relation(
            schema, n, seed=seed, payload_tag=name, **shape
        )
        if endpoint_sorted:
            relation = ValidTimeRelation(
                schema, sorted(relation, key=lambda tup: (tup.vs, tup.ve))
            )
        pair.append(relation)
    return tuple(pair)


def _recipes():
    """``(name, pair, config)``: the suite's three library shapes, shrunk."""
    yield (
        # Few keys, one- to four-chronon intervals: candidates dwarf results.
        "probe_heavy",
        _builder_pair(
            3000, n_keys=8, lifespan=6000, long_lived_fraction=1.0, max_long_duration=3
        ),
        PartitionJoinConfig(memory_pages=8, page_spec=PageSpec(2048, 16)),
    )
    yield (
        # The paper's Section 4.4 recipe on 8-tuple pages: tuple-cache
        # spills, overflow blocks and charged storage do the work.
        "long_lived",
        generate_pair(fig8_spec(64_000).scaled(64)),
        PartitionJoinConfig(memory_pages=24),
    )
    yield (
        # Endpoint-sorted long intervals over few keys: emission dominates.
        "result_heavy",
        _builder_pair(
            400, endpoint_sorted=True, n_keys=4, lifespan=20_000,
            long_lived_fraction=1.0, max_long_duration=5_000,
        ),
        PartitionJoinConfig(memory_pages=8, page_spec=PageSpec(1024, 16)),
    )


def _counters(stats):
    return tuple(getattr(stats, name) for name in COUNTERS)


def _rows(page):
    return [(tup.key, tup.payload, tup.vs, tup.ve) for tup in page]


def _fingerprint(run, accesses) -> str:
    layout = run.layout
    disk = layout.disk
    outcome = run.outcome
    return repr(
        (
            _rows(run.result),
            (
                outcome.n_result_tuples,
                outcome.overflow_blocks,
                outcome.cache_tuples_peak,
                outcome.cache_tuples_spilled,
            ),
            sorted((name, _counters(stats)) for name, stats in layout.tracker.phases.items()),
            _counters(layout.tracker.stats),
            sorted((device, _counters(stats)) for device, stats in disk.device_stats.items()),
            _counters(layout.result_stats),
            accesses,
            [
                (
                    extent.name,
                    extent.device,
                    [_rows(disk.peek(extent, at)) for at in range(extent.n_pages)],
                )
                for extent in disk._extents
            ],
        )
    )


@pytest.fixture
def charges(monkeypatch):
    """Every disk's charged accesses, ``(device, extent, page, write)`` per
    page in charge order, keyed by the disk."""
    recorded = {}
    charge_runs = SimulatedDisk.charge_runs

    def recording_charge_runs(disk, runs, *, retry=False):
        runs = list(runs)
        recorded.setdefault(id(disk), []).extend(
            (extent.device, extent.name, page, write)
            for extent, index, count, write in runs
            for page in range(index, index + count)
        )
        charge_runs(disk, runs, retry=retry)

    monkeypatch.setattr(SimulatedDisk, "charge_runs", recording_charge_runs)
    return recorded


def test_every_mode_matches_the_pinned_join_digest(charges):
    digest = hashlib.sha256()
    for (_name, pair, config), mode, direction in itertools.product(
        list(_recipes()), MODES, DIRECTIONS
    ):
        charges.clear()
        run = partition_join(
            *pair, dataclasses.replace(config, execution=mode, sweep_direction=direction)
        )
        accesses = charges.get(id(run.layout.disk), [])
        digest.update(hashlib.sha256(_fingerprint(run, accesses).encode()).digest())
    assert digest.hexdigest() == JOIN_DIGEST


def _faulting_layout() -> DiskLayout:
    """A disk whose injector fails the read of a few pages of every file the
    join reads, once each: a fixed script, no random stream."""
    injector = FaultInjector(seed=41)
    names = ["r", "s", "r_sweep_run", "s_sweep_run"]
    names += [f"{side}_part{index}" for side in "rs" for index in range(16)]
    for name in names:
        for page in (0, 3, 7):
            injector.fail_read(name, page)
    return DiskLayout(fault_injector=injector)


def _walked_layouts():
    yield lambda: DiskLayout(checksums=True)
    yield _faulting_layout


def test_walked_joins_match_the_pinned_digest(charges):
    (_name, pair, config), = [recipe for recipe in _recipes() if recipe[0] == "long_lived"]
    digest = hashlib.sha256()
    for layout, mode, direction in itertools.product(
        list(_walked_layouts()), MODES, DIRECTIONS
    ):
        charges.clear()
        run = partition_join(
            *pair,
            dataclasses.replace(config, execution=mode, sweep_direction=direction),
            layout=layout(),
        )
        disk = run.layout.disk
        assert disk.stored(disk._extents[0]) is None
        if disk.fault_injector is not None:
            assert run.layout.tracker.stats.retry_reads > 0
        accesses = charges.get(id(run.layout.disk), [])
        digest.update(hashlib.sha256(_fingerprint(run, accesses).encode()).digest())
    assert digest.hexdigest() == WALKED_JOIN_DIGEST
