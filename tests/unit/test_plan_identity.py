"""The planner's output is pinned: a grid of plans hashes to a fixed digest.

The planner (``determinePartIntervals``, Appendix A.2) may change how it
computes a plan, never which plan it computes: intervals, chosen candidate,
the whole cost curve, cache pages and the executed sample plan all feed the
charged-I/O ledger.  The digest below was computed before the planner's
sample became a sorted multiset; the planner must keep reproducing it.

A mismatch means some plan changed.  To find which, print
``_plan_fingerprint(point)`` for every grid point on this commit and on the
last commit that passed, and diff.
"""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from repro.core.partition_join import PartitionJoinConfig, plan_partition_join
from repro.core.planner import _IncrementalSampler, _shuffled_positions
from repro.model.schema import RelationSchema
from repro.storage.iostats import CostModel
from repro.storage.layout import DiskLayout
from repro.storage.page import PageSpec
from repro.workloads.builders import random_valid_time_relation

#: sha256 over every grid point's plan, in grid order.
PLAN_GRID_DIGEST = "e85d3245057c61fafb9696e52c81bd99aa8065389fcb842b13befb110a42bbe2"

RECIPES = {
    # Few keys, short intervals: the probe_heavy shape.
    "few_keys_short": dict(
        n_keys=4, lifespan=20_000, long_lived_fraction=0.3, max_long_duration=8
    ),
    # A long-lived share, as in the paper's Section 4.4 recipe.
    "long_lived": dict(n_keys=64, lifespan=4_096, long_lived_fraction=0.4),
}
SEEDS = (1994, 7, 11)
MEMORY_PAGES = (8, 16, 48)
PAGE_BYTES = (1024, 8192)
N_TUPLES = 4000


def _relations(recipe: str, seed: int):
    schema_r = RelationSchema("r", ("k",), ("rv",))
    schema_s = RelationSchema("s", ("k",), ("sv",))
    shape = RECIPES[recipe]
    r = random_valid_time_relation(schema_r, N_TUPLES, seed=seed, payload_tag="r", **shape)
    s = random_valid_time_relation(schema_s, N_TUPLES, seed=seed + 1, payload_tag="s", **shape)
    return r, s


def _grid():
    for recipe, seed in itertools.product(RECIPES, SEEDS):
        r, s = _relations(recipe, seed)
        for memory, page_bytes, inner, scan in itertools.product(
            MEMORY_PAGES, PAGE_BYTES, (False, True), (False, True)
        ):
            config = PartitionJoinConfig(
                memory_pages=memory,
                page_spec=PageSpec(page_bytes=page_bytes, tuple_bytes=128),
                seed=seed,
                sample_inner_relation=inner,
                allow_scan_sampling=scan,
            )
            yield r, s, config


def _plan_fingerprint(point) -> str:
    plan, _single, _outer_pages, _inner_pages = plan_partition_join(*point)
    return repr(
        (
            plan.intervals,
            plan.part_size,
            plan.chosen,
            plan.curve,
            plan.cache_pages,
            plan.sample_plan,
        )
    )


def test_plan_grid_matches_pinned_digest():
    digest = hashlib.sha256()
    for point in _grid():
        digest.update(hashlib.sha256(_plan_fingerprint(point).encode()).digest())
    assert digest.hexdigest() == PLAN_GRID_DIGEST


@pytest.mark.parametrize("allow_scan", [False, True])
def test_sampler_prefix_is_the_sorted_shuffled_prefix(allow_scan):
    """A prefix holds the rows at the first shuffled positions, as sorted
    columns; the same length returns the same object."""
    r, _ = _relations("long_lived", 7)
    heap = DiskLayout(spec=PageSpec(page_bytes=1024, tuple_bytes=128)).place_relation(r)
    rows = heap.all_tuples()
    positions = _shuffled_positions(len(rows), random.Random(3))
    sampler = _IncrementalSampler(heap, CostModel(), random.Random(3), allow_scan)
    for needed in (64, 64, 700, 3000, len(rows)):
        prefix = sampler.prefix(needed)
        assert sampler.prefix(needed) is prefix
        drawn = [rows[at] for at in positions[:needed]]
        assert list(prefix.starts) == sorted(tup.vs for tup in drawn)
        assert list(prefix.ends) == sorted(tup.ve for tup in drawn)
    assert sampler.scan_done == allow_scan


@pytest.mark.parametrize("seed", [1994, 7, 11])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 4096, 50_000])
def test_shuffled_positions_is_random_shuffle(n, seed):
    """The planner's inlined Fisher-Yates makes ``Random.shuffle``'s
    permutation and leaves the generator in the same state."""
    expected_rng = random.Random(seed)
    expected = list(range(n))
    expected_rng.shuffle(expected)
    rng = random.Random(seed)
    assert _shuffled_positions(n, rng) == expected
    assert rng.getstate() == expected_rng.getstate()
