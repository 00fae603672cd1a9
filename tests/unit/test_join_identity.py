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
from repro.model.schema import RelationSchema
from repro.storage.disk import SimulatedDisk
from repro.storage.page import PageSpec
from repro.workloads import fig8_spec, generate_pair
from repro.workloads.builders import random_valid_time_relation

#: sha256 over every point's fingerprint: recipes x MODES x DIRECTIONS, in order.
JOIN_DIGEST = "f3c0b4e36cdbfb4595260fa3e00dd4d9d2de3454f3c66b50ac79c41659145cbf"

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
