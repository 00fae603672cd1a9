"""Property tests: the forward-scan sweep against the Allen-join oracle.

Two contracts, on arbitrary inputs including skewed-key and long-lived
interval distributions:

* Every registry predicate (the 13 Allen relations plus the
  ``intersects`` and ``covers`` disjunctions) produces exactly the
  brute-force :func:`repro.variants.allen_joins.allen_join` multiset.
* For the natural predicate (``intersects``) the sweep's result multiset
  and cardinality match every partition execution mode, and
  endpoint-sorted inputs never charge a sort phase.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra.predicates import NATURAL_PREDICATE, PREDICATES
from repro.core.partition_join import (
    EXECUTION_MODES,
    PartitionJoinConfig,
    partition_join,
)
from repro.exec.forward_sweep import forward_sweep_join
from repro.model.relation import ValidTimeRelation
from repro.model.schema import RelationSchema
from repro.model.vtuple import VTTuple
from repro.storage.layout import DiskLayout
from repro.storage.page import PageSpec
from repro.time.interval import Interval

SCHEMA_R = RelationSchema("r", ("k",), ("a",), tuple_bytes=128)
SCHEMA_S = RelationSchema("s", ("k",), ("b",), tuple_bytes=128)
SPEC = PageSpec(page_bytes=512, tuple_bytes=128)  # 4 tuples/page

prop_settings = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def vt_tuples(tag, n_keys=4, max_start=60, durations=st.integers(0, 25)):
    return st.builds(
        lambda key, start, duration, payload: VTTuple(
            (key,), (f"{tag}{payload}",), Interval(start, start + duration)
        ),
        key=st.integers(0, n_keys),
        start=st.integers(0, max_start),
        duration=durations,
        payload=st.integers(0, 1000),
    )


def relations(schema, tag, max_size=35, **kwargs):
    return st.lists(vt_tuples(tag, **kwargs), max_size=max_size).map(
        lambda tuples: ValidTimeRelation(schema, tuples)
    )


#: Long-lived tuples (intervals spanning most of the axis) stress the
#: active maps; the key skew (three quarters of tuples on key 0) stresses
#: per-key candidate runs.
def skewed_tuples(tag):
    return st.builds(
        lambda raw_key, start, duration, payload: VTTuple(
            (0 if raw_key < 6 else raw_key,),
            (f"{tag}{payload}",),
            Interval(start, start + duration),
        ),
        raw_key=st.integers(0, 8),
        start=st.integers(0, 40),
        duration=st.one_of(st.integers(0, 3), st.integers(50, 120)),
        payload=st.integers(0, 1000),
    )


def skewed_relations(schema, tag):
    return st.lists(skewed_tuples(tag), max_size=30).map(
        lambda tuples: ValidTimeRelation(schema, tuples)
    )


def oracle(r, s, name):
    from repro.variants.allen_joins import allen_join

    pred = PREDICATES[name]
    return allen_join(r, s, pred.relations, timestamp=pred.timestamp)


def sweep(r, s, name):
    layout = DiskLayout(spec=SPEC)
    r_file = layout.place_relation(r)
    s_file = layout.place_relation(s)
    schema = r.schema.join_result_schema(s.schema)
    outcome = forward_sweep_join(r_file, s_file, schema, layout, predicate=name)
    return outcome, layout


def multiset(relation):
    counts = {}
    for tup in relation:
        counts[tup] = counts.get(tup, 0) + 1
    return counts


PREDICATE_NAMES = sorted(PREDICATES)


class TestPredicatesMatchOracle:
    @given(
        relations(SCHEMA_R, "a"),
        relations(SCHEMA_S, "b"),
        st.sampled_from(PREDICATE_NAMES),
    )
    @prop_settings
    def test_every_predicate(self, r, s, name):
        expected = multiset(oracle(r, s, name))
        outcome, _ = sweep(r, s, name)
        assert multiset(outcome.result) == expected, name
        assert outcome.n_result_tuples == len(outcome.result.tuples)
        assert outcome.overflow_blocks == 0
        assert outcome.cache_tuples_spilled == 0

    @given(
        skewed_relations(SCHEMA_R, "a"),
        skewed_relations(SCHEMA_S, "b"),
        st.sampled_from(PREDICATE_NAMES),
    )
    @prop_settings
    def test_skewed_long_lived(self, r, s, name):
        expected = multiset(oracle(r, s, name))
        outcome, _ = sweep(r, s, name)
        assert multiset(outcome.result) == expected, name


class TestNaturalJoinParity:
    @given(relations(SCHEMA_R, "a"), relations(SCHEMA_S, "b"))
    @prop_settings
    def test_intersects_matches_every_partition_mode(self, r, s):
        sweep_config = PartitionJoinConfig(
            memory_pages=12, page_spec=SPEC, execution="forward-sweep"
        )
        sweep_run = partition_join(r, s, sweep_config)
        sweep_tuples = sorted(sweep_run.result.tuples, key=repr)
        for execution in EXECUTION_MODES:
            config = PartitionJoinConfig(
                memory_pages=12, page_spec=SPEC, execution=execution
            )
            run = partition_join(r, s, config)
            assert sorted(run.result.tuples, key=repr) == sweep_tuples, execution
            assert run.outcome.n_result_tuples == sweep_run.outcome.n_result_tuples

    @given(relations(SCHEMA_R, "a"), relations(SCHEMA_S, "b"))
    @prop_settings
    def test_sorted_inputs_never_charge_a_sort_phase(self, r, s):
        r_sorted = r.sorted_by(lambda tup: (tup.vs, tup.ve, tup.key, tup.payload))
        s_sorted = s.sorted_by(lambda tup: (tup.vs, tup.ve, tup.key, tup.payload))
        outcome, layout = sweep(r_sorted, s_sorted, NATURAL_PREDICATE)
        assert "sort" not in layout.tracker.phases
        assert multiset(outcome.result) == multiset(
            oracle(r_sorted, s_sorted, NATURAL_PREDICATE)
        )
