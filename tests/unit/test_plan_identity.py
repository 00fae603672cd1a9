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
import os
import random
import sys
import threading

import pytest

from repro.core import intervals, planner
from repro.core.partition_join import PartitionJoinConfig, plan_partition_join
from repro.core.planner import _IncrementalSampler, _Permutations, _shuffled_positions
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


@pytest.fixture
def permutations(monkeypatch):
    """A cold permutation cache for the test; the process's is left alone."""
    cache = _Permutations(planner.PERMUTATION_BUDGET)
    monkeypatch.setattr(planner, "_PERMUTATIONS", cache)
    return cache


def _shuffle(n, rng):
    positions = list(range(n))
    rng.shuffle(positions)
    return positions


def test_cached_draws_are_random_shuffle(permutations):
    """Cold and warm, an outer draw and the inner draw after it give
    ``Random.shuffle``'s permutation and leave the generator where the
    shuffle leaves it."""
    for _attempt in ("cold", "warm"):
        rng, expected_rng = random.Random(1994), random.Random(1994)
        for n in (4000, 3999):  # the outer relation's, then the inner's
            drawn = permutations.draw(n, rng)
            assert drawn.tolist() == _shuffle(n, expected_rng)
            assert rng.getstate() == expected_rng.getstate()
        assert permutations.held == 4000 + 3999


def test_held_permutation_is_read_only(permutations):
    drawn = permutations.draw(64, random.Random(3))
    with pytest.raises(ValueError):
        drawn[0] = 1
    assert permutations.draw(64, random.Random(3)) is drawn


def test_torn_scan_leaves_the_cached_permutation_whole(permutations):
    """A torn base scan samples among the rows that came; the permutation
    the next plan draws is still the whole shuffle."""
    r, _ = _relations("long_lived", 7)
    layout = DiskLayout(spec=PageSpec(page_bytes=1024, tuple_bytes=128))
    heap = layout.place_relation(r)
    layout.disk.corrupt_stored(heap.extent, heap.n_pages // 2)
    sampler = _IncrementalSampler(heap, CostModel(), random.Random(3), allow_scan=True)
    assert len(sampler.prefix(len(r))) == len(r) - 1
    assert sampler.scan_done
    assert permutations.draw(len(r), random.Random(3)).tolist() == _shuffle(
        len(r), random.Random(3)
    )


def test_cache_keeps_within_its_position_budget():
    """Least recently used out; a permutation over the budget is drawn,
    right, and not kept."""
    cache = _Permutations(100)
    for n in (40, 30, 20):
        cache.draw(n, random.Random(n))
    cache.draw(40, random.Random(40))  # a hit: 40 is now the most recent
    cache.draw(25, random.Random(25))  # 115 positions: 30 goes
    assert cache.held == 85 and [key[0] for key in cache._entries] == [20, 40, 25]
    cache.draw(30, random.Random(30))  # 115 again: 20 goes
    assert cache.held == 95 and [key[0] for key in cache._entries] == [40, 25, 30]
    assert cache.draw(101, random.Random(5)).tolist() == _shuffle(101, random.Random(5))
    assert cache.held == 95 and len(cache._entries) == 3
    for n in range(1, 60):
        cache.draw(n, random.Random(n))
        assert cache.held <= cache.budget


#: Shifted by the CI service-stress job, which varies thread interleavings.
STRESS_SEED = 1994 + int(os.environ.get("SERVICE_STRESS_SEED", "0"))
#: Planning threads: more than the cores CI gives a job.
THREADS = 4


def test_concurrent_plans_share_the_cache(permutations, monkeypatch):
    """The cache is planner state shared by a service's executor threads:
    plans of one ``(seed, n)`` made at once, by more threads than cores,
    are all the serial plan, and no entry is counted twice or lost."""
    r, s = _relations("few_keys_short", STRESS_SEED)
    point = (r, s, PartitionJoinConfig(memory_pages=16, seed=STRESS_SEED, sample_inner_relation=True))
    serial = _plan_fingerprint(point)
    permutations.__init__(planner.PERMUTATION_BUDGET)  # cold again
    together = threading.Barrier(THREADS, timeout=60)
    shuffle = planner._shuffled_positions

    def missing_together(n, rng):
        together.wait()  # every thread is inside a miss of the same draw
        return shuffle(n, rng)

    monkeypatch.setattr(planner, "_shuffled_positions", missing_together)
    found = []
    threads = [
        threading.Thread(target=lambda: found.append(_plan_fingerprint(point)))
        for _ in range(THREADS)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert found == [serial] * THREADS
    held = [len(positions) for positions, _after in permutations._entries.values()]
    assert permutations.held == sum(held) == len(r) + len(s)


def test_only_the_winning_candidate_builds_intervals(monkeypatch):
    """Candidates are priced on cut arrays: a plan builds its own intervals
    and nothing else, and no partition map."""
    r, s = _relations("long_lived", 1994)
    built = {"Interval": 0, "PartitionMap": 0}
    for cls in (intervals.Interval, intervals.PartitionMap):
        init = cls.__init__

        def counting(self, *args, _init=init, _name=cls.__name__):
            built[_name] += 1
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    config = PartitionJoinConfig(
        memory_pages=16, page_spec=PageSpec(page_bytes=1024, tuple_bytes=128), seed=1994
    )
    plan, single, _outer_pages, _inner_pages = plan_partition_join(r, s, config)
    assert not single and len(plan.curve) > 1
    assert built == {"Interval": len(plan.intervals), "PartitionMap": 0}
