"""Property tests: the forward-scan sweep against the Allen-join oracle.

Two contracts, on arbitrary inputs including skewed-key and long-lived
interval distributions:

* Every registry predicate (the 13 Allen relations plus the
  ``intersects`` and ``covers`` disjunctions) produces exactly the
  brute-force :func:`repro.variants.allen_joins.allen_join` multiset.
* For the natural predicate (``intersects``) the sweep's result multiset
  and cardinality match every partition execution mode, and
  endpoint-sorted inputs never charge a sort phase.

And one contract on order: the rows, in order, and the
``cache_tuples_peak``, ``repro_sweep_expired_total`` and
``repro_sweep_probes_total`` counters equal those of a plain-Python scan
that keeps every open interval (:func:`scan_order_model`).
"""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings, strategies as st

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
from repro.obs import Observability, ObservabilityConfig
from repro.storage.layout import DiskLayout
from repro.storage.page import PageSpec
from repro.time import BEGINNING, FOREVER
from repro.time.allen import relate
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


def scan_order_model(r, s, pred):
    """``(rows, active peak, expired, probes)`` of a forward sweep over *r*
    and *s*, in plain Python.

    Each side is read in ``(start, end)`` order (stable), and the two are
    merged on ``(start, end)``, R first on ties.  Each scanned row pairs
    with the earlier-scanned rows of the other side with its key whose
    Allen relation is an intersecting one of *pred*, in ascending id (a
    row's position in its side's order); the disjoint relations' pairs
    follow in ``(r, s)`` order.  A row is open from its scan step until the
    first later row of the other side with its key starts after its end;
    the counters count scanned and closed rows, and the peak of open ones,
    when *pred* has an intersecting relation (else all three are 0).
    """
    sides = [sorted(r, key=_span), sorted(s, key=_span)]
    scan = sorted(
        (*_span(row), side, index)
        for side, rows in enumerate(sides)
        for index, row in enumerate(rows)
    )
    rows = []

    def emit(x, y):
        if pred.timestamp == "intersection":
            stamp = x.valid.intersect(y.valid)
        else:
            stamp = x.valid if pred.timestamp == "left" else y.valid
        rows.append(VTTuple(x.key, x.payload + y.payload, stamp))

    def pair(side, index, other):
        x, y = sides[side][index], sides[1 - side][other]
        return (x, y) if side == 0 else (y, x)

    closed_at = {}
    for step, (_start, _end, side, index) in enumerate(scan):
        row = sides[side][index]
        earlier = [
            other for _, _, seen, other in scan[:step]
            if seen != side and sides[seen][other].key == row.key
        ]
        for other in sorted(earlier):
            x, y = pair(side, index, other)
            if relate(x.valid, y.valid) in pred.intersecting_relations:
                emit(x, y)
            if sides[1 - side][other].ve < row.vs:
                closed_at.setdefault((1 - side, other), step)
    for x in sides[0]:
        for y in sides[1]:
            if x.key == y.key and relate(x.valid, y.valid) in pred.disjoint_relations:
                emit(x, y)
    if not pred.intersecting_relations:
        return rows, 0, 0, 0
    steps = list(closed_at.values())
    peak = max(
        (step + 1 - sum(closed <= step for closed in steps) for step in range(len(scan))),
        default=0,
    )
    return rows, peak, len(steps), len(scan)


def _span(row):
    return row.vs, row.ve


#: Starts and ends drawn from a narrow axis so that spans tie across the two
#: sides, plus the axis ends.
CHRONONS = st.sampled_from(list(range(13)) + [BEGINNING, FOREVER])


def span_rows(tag):
    def row(key, a, b, payload):
        start, end = min(a, b), max(a, b)
        return VTTuple((key,), (f"{tag}{payload}",), Interval(start, end))

    return st.lists(
        st.builds(row, st.integers(0, 2), CHRONONS, CHRONONS, st.integers(0, 9)),
        max_size=14,
    )


def _counter(snapshot, name):
    return sum(snapshot[name]["series"].values()) if name in snapshot else 0


class TestScanOrder:
    @given(
        span_rows("a"),
        span_rows("b"),
        st.sampled_from(PREDICATE_NAMES),
        st.booleans(),
    )
    @example([], [VTTuple((0,), ("b0",), Interval(0, 3))], "intersects", False)
    @example(  # two r partners of each s row, in id order
        [VTTuple((0,), ("a0",), Interval(1, 9)), VTTuple((0,), ("a1",), Interval(0, 5))],
        [VTTuple((0,), ("b0",), Interval(5, 6)), VTTuple((0,), ("b1",), Interval(4, 8))],
        "intersects",
        False,
    )
    @example(  # two spans tied on each side: R first
        [VTTuple((0,), (f"a{i}",), Interval(2, 5)) for i in range(2)],
        [VTTuple((0,), (f"b{i}",), Interval(2, 5)) for i in range(2)],
        "intersects",
        True,
    )
    @example(
        [VTTuple((0,), ("a0",), Interval(0, 1)), VTTuple((0,), ("a1",), Interval(0, 2))],
        [VTTuple((0,), ("b0",), Interval(5, 6)), VTTuple((0,), ("b1",), Interval(7, 8))],
        "before",
        True,
    )
    @example([VTTuple((0,), ("a0",), Interval(BEGINNING, FOREVER))], [], "before", True)
    @example(  # starts 2**63 apart: finishes, not finished_by
        [VTTuple((1,), ("a0",), Interval(FOREVER, FOREVER))],
        [VTTuple((1,), ("b0",), Interval(BEGINNING, FOREVER))],
        "finished_by",
        False,
    )
    @example(
        [VTTuple((0,), ("a0",), Interval(2, 5)), VTTuple((0,), ("a1",), Interval(0, 1))],
        [VTTuple((0,), ("b0",), Interval(2, 5)), VTTuple((0,), ("b1",), Interval(0, 9))],
        "intersects",
        False,
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_rows_and_counters_follow_the_scan(self, r_rows, s_rows, name, presorted):
        if presorted:
            r_rows, s_rows = sorted(r_rows, key=_span), sorted(s_rows, key=_span)
        r = ValidTimeRelation(SCHEMA_R, r_rows)
        s = ValidTimeRelation(SCHEMA_S, s_rows)
        layout = DiskLayout(spec=SPEC)
        obs = Observability(ObservabilityConfig(tracing=False))
        outcome = forward_sweep_join(
            layout.place_relation(r),
            layout.place_relation(s),
            r.schema.join_result_schema(s.schema),
            layout,
            predicate=name,
            obs=obs,
        )
        rows, peak, expired, probes = scan_order_model(r_rows, s_rows, PREDICATES[name])
        assert list(outcome.result) == rows, name
        snapshot = obs.metrics_snapshot()
        assert outcome.cache_tuples_peak == peak
        assert _counter(snapshot, "repro_sweep_expired_total") == expired
        assert _counter(snapshot, "repro_sweep_probes_total") == probes
