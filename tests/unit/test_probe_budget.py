"""A probe's transient arrays are bounded by the candidate budget.

A billed sweep pass probes all its rows in one kernel call, and one
``RUN_ROWS``-row run of long intervals on few keys already expands tens of
thousands of candidates.  So the kernels expand consecutive rows in chunks
of at most ``CANDIDATE_BUDGET`` candidates; this pins that no expansion
builds more slots than that on such a block, while the join stays right.
"""

import random
from dataclasses import replace

from repro.core.partition_join import PartitionJoinConfig, partition_join
from repro.exec import kernels, pruned_probe
from repro.exec.kernels import CANDIDATE_BUDGET
from repro.model.relation import ValidTimeRelation
from repro.model.schema import RelationSchema
from repro.model.vtuple import VTTuple
from repro.storage.page import PageSpec
from repro.time.interval import Interval

def long_intervals(name, attribute, seed, n=2000, keys=16):
    """*n* rows on *keys* keys, each interval a quarter to half the span."""
    rng = random.Random(seed)
    rows = []
    for row in range(n):
        start = rng.randrange(0, 10_000)
        valid = Interval(start, start + rng.randrange(2500, 5000))
        rows.append(VTTuple((rng.randrange(keys),), (row,), valid))
    return ValidTimeRelation(RelationSchema(name, ("k",), (attribute,)), rows)


def test_no_expansion_exceeds_the_candidate_budget(monkeypatch):
    slots = []
    for module in (kernels, pruned_probe):
        expand = module.expand_candidates

        def counting(first, counts, *args, expand=expand):
            slots.append(int(counts.sum()))
            return expand(first, counts, *args)

        monkeypatch.setattr(module, "expand_candidates", counting)
    r, s = long_intervals("r", "a", 1), long_intervals("s", "b", 2)
    config = PartitionJoinConfig(memory_pages=48, page_spec=PageSpec(8192, 16))
    run = partition_join(r, s, replace(config, execution="batch"))
    monkeypatch.undo()

    # One 512-row run of these rows alone expands more than the budget.
    assert sum(slots) > 4 * CANDIDATE_BUDGET
    assert max(slots) <= CANDIDATE_BUDGET
    oracle = partition_join(r, s, config)
    assert list(run.result.tuples) == list(oracle.result.tuples)
