"""Property: a shard fed deltas is the shard fed whole fragments.

A write reaches a shard that holds an ancestor of the new version as the
rows the writes in between removed and added; the worker rebuilds its
fragment with the catalog's own first-occurrence rule.  Over random
interleavings of append / delete / join -- chains of several writes with no
join between them, duplicate rows, deletes of one of several copies -- and
on both routing strategies:

* every fragment a worker holds after a join equals
  ``shard_map.fragment(version.relation, rank)`` row for row (checked on a
  service whose shards all run in-process, so the fragments can be read);
* a service with real worker processes answers every join with the rows,
  ``JoinOutcome`` counters, per-phase ledgers and per-shard reports of a
  service that is made to ship every version whole.

And the routing pass both ways of shipping share is checked against the
per-row rule written out.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine.catalog import VersionedCatalog
from repro.model.relation import ValidTimeRelation
from repro.model.schema import RelationSchema
from repro.model.vtuple import VTTuple
from repro.shard import ShardedQueryService, ShardMap
from repro.shard.partitioning import stable_key_hash
from repro.time.interval import Interval

from tests.service.conftest import outcome_counters

SCHEMAS = {
    "r": RelationSchema("r", join_attributes=("k",), payload_attributes=("pr",)),
    "s": RelationSchema("s", join_attributes=("k",), payload_attributes=("ps",)),
}

# 48 distinct rows in all: equal rows are common, so a delete usually names
# one of several copies (which one goes decides the order of the rest) and
# a batch often repeats a row.
row = st.builds(
    lambda key, payload, start, length: VTTuple(
        (f"k{key}",), (payload,), Interval(start, start + length)
    ),
    key=st.integers(0, 2),
    payload=st.integers(0, 1),
    start=st.sampled_from((0, 10, 20, 30)),
    length=st.sampled_from((0, 15)),
)
batch = st.lists(row, min_size=0, max_size=6)
op = st.one_of(
    st.tuples(st.just("join")),
    st.tuples(st.just("append"), st.sampled_from("rs"), batch),
    # A delete names rows by position in the relation as it then stands
    # (taken modulo its size): always present, repeats drawn on purpose.
    st.tuples(st.just("delete"), st.sampled_from("rs"), st.lists(st.integers(0, 99), max_size=4)),
)


def fingerprint(result):
    """Everything the merge reports that must not depend on how the
    fragments got to the workers."""
    return (
        [(t.key, t.payload, t.vs, t.ve) for t in result.relation.tuples],
        outcome_counters(result.outcome),
        {name: stats.as_dict() for name, stats in result.phases.items()},
        result.totals.as_dict(),
        (result.cost, result.service_cost, result.charged_ops),
        [(shard.rank, shard.fragment_tuples, shard.phases) for shard in result.shards],
        result.epochs,
    )


def doomed_rows(relation, positions):
    """The rows at *positions*, each position at most once (a row may still
    repeat when the relation holds several copies of it)."""
    rows = relation.tuples
    return [rows[index] for index in sorted({p % len(rows) for p in positions})] if rows else []


def loads(service, kind):
    family = service.metrics_snapshot()["repro_shard_fragment_loads_total"]
    return family["series"].get(f"kind={kind}", 0)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(row, max_size=40),
    n_shards=st.integers(1, 5),
    cuts=st.sets(st.integers(-5, 50), min_size=4, max_size=4),
)
def test_one_routing_pass_is_the_per_row_rule(rows, n_shards, cuts):
    """``route`` -- behind ``fragment``, ``fragment_counts`` and both ways of
    shipping -- puts a row where the written-out rule puts it: the shard its
    key hashes to, or every shard whose chronon range its validity overlaps."""
    by_hash = ShardMap(n_shards)
    by_range = ShardMap(n_shards, "time-range", tuple(sorted(cuts))[: n_shards - 1])

    def overlaps(tup, rank):
        lo, hi = by_range.range_of(rank)
        return (lo is None or tup.ve >= lo) and (hi is None or tup.vs < hi)

    for rank in range(n_shards):
        hashed = [tup for tup in rows if stable_key_hash(tup.key) % n_shards == rank]
        ranged = [tup for tup in rows if overlaps(tup, rank)]
        assert by_hash.route(rows)[rank] == hashed
        assert by_range.route(rows)[rank] == ranged
        assert by_range.fragment_counts(ValidTimeRelation(SCHEMAS["r"], rows))[rank] == len(ranged)
        assert [rank in by_range.shards_of_tuple(tup) for tup in rows] == [
            overlaps(tup, rank) for tup in rows
        ]


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    shard_by=st.sampled_from(("key-hash", "time-range")),
    r_rows=st.lists(row, min_size=4, max_size=30),
    s_rows=st.lists(row, min_size=4, max_size=30),
    ops=st.lists(op, min_size=2, max_size=10),
)
def test_delta_fed_shards_equal_whole_fed_shards(shard_by, r_rows, s_rows, ops):
    catalog = VersionedCatalog()
    catalog.register(SCHEMAS["r"], r_rows)
    catalog.register(SCHEMAS["s"], s_rows)
    options = dict(shards=2, shard_by=shard_by, pool_pages=32)
    with ShardedQueryService(catalog, **options) as by_delta, ShardedQueryService(
        catalog, **options
    ) as in_process, ShardedQueryService(catalog, **options) as by_whole:
        for handle in in_process._shards:
            in_process._quarantine(handle, "run in-process so the fragments can be read")
        sessions = [svc.open_session() for svc in (by_delta, in_process, by_whole)]
        for step in (*ops, ("join",)):
            if step[0] == "append":
                catalog.append(step[1], step[2])
                continue
            if step[0] == "delete":
                catalog.delete(step[1], doomed_rows(catalog.current(step[1]).relation, step[2]))
                continue
            for handle in by_whole._shards:
                handle.loaded.clear()  # forget what the worker holds: ship whole
            answers = [fingerprint(session.join("r", "s", method="partition")) for session in sessions]
            assert answers[0] == answers[2], "delta-fed processes differ from whole-fed ones"
            assert answers[1] == answers[2], "delta-fed in-process shards differ"
            for handle in in_process._shards:
                for name in "rs":
                    version = catalog.current(name)
                    held = handle.inline._fragments[name, version.epoch]
                    routed = by_delta.shard_map.fragment(version.relation, handle.rank)
                    assert held.tuples == routed.tuples
                    assert handle.loaded[name, version.epoch] == len(routed)
        assert loads(by_whole, "delta") == 0
        assert loads(by_delta, "delta") == loads(in_process, "delta")
        for session in sessions:
            session.close()
