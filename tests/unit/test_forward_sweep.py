"""Unit tests for the forward-scan sweep operator and its planning stack.

Covers the pieces the property suite (tests/property/test_prop_allen.py)
exercises only end to end: the gapless hash map's open-addressing and
swap-with-last mechanics, the Allen predicate registry,
the endpoint-sortedness metadata, the planner's grant clamp and crossover
model, EXPLAIN's operator surfacing, and the ledger/metrics
reconciliation of a sweep run.
"""

from __future__ import annotations

import pytest

from repro.algebra.predicates import (
    DISJOINT_RELATIONS,
    NATURAL_PREDICATE,
    PREDICATES,
    SIGN_GRID,
    TemporalPredicate,
    predicate_names,
    resolve_predicate,
)
from repro.core.partition_join import (
    ALL_EXECUTION_MODES,
    EXECUTION_MODES,
    BufferReduction,
    PartitionJoinConfig,
    partition_join,
)
from repro.core.planner import (
    FORWARD_SWEEP_GRANT_PAGES,
    MIN_GRANT_PAGES,
    choose_physical_operator,
    estimate_forward_sweep_cost,
    estimate_grant_pages,
)
from repro.engine.catalog import analyze
from repro.engine.database import TemporalDatabase
from repro.engine.optimizer import choose_algorithm, estimate_costs
from repro.exec.forward_sweep import GaplessHashMap, forward_sweep_join
from repro.model.relation import ValidTimeRelation
from repro.model.schema import RelationSchema
from repro.model.vtuple import VTTuple
from repro.obs import Observability, ObservabilityConfig
from repro.storage.heapfile import HeapFile
from repro.storage.iostats import CostModel
from repro.storage.layout import DiskLayout
from repro.storage.page import PageSpec
from repro.time.allen import AllenRelation
from repro.time.interval import Interval

#: The one kernel backend, named in the case ids.
BACKENDS = ("numpy",)
SPEC = PageSpec(page_bytes=512, tuple_bytes=128)
SCHEMA_R = RelationSchema("r", ("k",), ("a",), tuple_bytes=128)
SCHEMA_S = RelationSchema("s", ("k",), ("b",), tuple_bytes=128)


def make_relation(schema, tag, rows):
    return ValidTimeRelation(
        schema,
        [
            VTTuple((key,), (f"{tag}{i}",), Interval(start, end))
            for i, (key, start, end) in enumerate(rows)
        ],
    )


# -- predicate registry -------------------------------------------------------


class TestPredicateRegistry:
    def test_sign_grid_covers_all_intersecting_relations(self):
        assert len(SIGN_GRID) == 9
        assert set(SIGN_GRID) == {
            (ds, de) for ds in (-1, 0, 1) for de in (-1, 0, 1)
        }
        assert set(SIGN_GRID.values()) | set(DISJOINT_RELATIONS) == set(
            AllenRelation
        )

    def test_registry_has_thirteen_singles_plus_disjunctions(self):
        singles = [p for p in PREDICATES.values() if len(p.relations) == 1]
        assert len(singles) == 13
        assert PREDICATES["intersects"].is_natural
        assert len(PREDICATES["covers"].relations) == 4

    def test_aliases_resolve(self):
        assert resolve_predicate("natural").name == NATURAL_PREDICATE
        assert resolve_predicate("equal").name == "equals"

    def test_unknown_predicate_lists_names(self):
        with pytest.raises(ValueError, match="before"):
            resolve_predicate("sideways")
        assert list(predicate_names()) == sorted(PREDICATES)

    def test_intersection_stamp_rejected_for_disjoint_relations(self):
        with pytest.raises(ValueError, match="intersection timestamps undefined"):
            TemporalPredicate("bad", frozenset({AllenRelation.BEFORE}))
        ok = TemporalPredicate(
            "ok", frozenset({AllenRelation.BEFORE}), timestamp="left"
        )
        assert ok.disjoint_relations == frozenset({AllenRelation.BEFORE})


# -- the gapless hash map ------------------------------------------------------


class TestGaplessHashMap:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_insert_probe_expire(self, backend):
        gmap = GaplessHashMap()
        gmap.insert(7, 0, 5, 0)
        gmap.insert(7, 2, 3, 1)
        gmap.insert(9, 0, 9, 2)
        assert gmap.size == 3 and gmap.peak == 3
        starts, ends, rows, n = gmap.probe(7, boundary=0)
        assert n == 2 and sorted(int(x) for x in rows[:n]) == [0, 1]
        # Boundary 4 expires the interval ending at 3; the run stays gapless.
        starts, ends, rows, n = gmap.probe(7, boundary=4)
        assert n == 1 and int(rows[0]) == 0
        assert gmap.size == 2 and gmap.expired == 1
        assert gmap.probe(12345, boundary=0) is None

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_table_resizes_past_initial_capacity(self, backend):
        gmap = GaplessHashMap()
        for code in range(100):
            gmap.insert(code, code, code + 1, code)
        assert gmap.size == 100 and gmap.peak == 100
        for code in range(100):
            live = gmap.probe(code, boundary=0)
            assert live is not None and live[3] == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_peak_survives_expiration(self, backend):
        gmap = GaplessHashMap()
        for i in range(10):
            gmap.insert(1, 0, i, i)
        gmap.probe(1, boundary=100)
        assert gmap.size == 0 and gmap.peak == 10 and gmap.expired == 10


# -- configuration validation --------------------------------------------------


class TestConfigValidation:
    def test_forward_sweep_not_in_partition_mode_tuple(self):
        assert "forward-sweep" not in EXECUTION_MODES
        assert ALL_EXECUTION_MODES == EXECUTION_MODES + ("forward-sweep",)

    def test_non_natural_predicate_requires_forward_sweep(self):
        with pytest.raises(ValueError, match="forward-sweep"):
            PartitionJoinConfig(memory_pages=16, execution="tuple", predicate="during")
        config = PartitionJoinConfig(
            memory_pages=16, execution="forward-sweep", predicate="during"
        )
        assert config.predicate == "during"

    def test_forward_sweep_rejects_checkpointing(self):
        with pytest.raises(ValueError, match="checkpoint"):
            PartitionJoinConfig(
                memory_pages=16, execution="forward-sweep", checkpoint_interval=2
            )

    def test_forward_sweep_rejects_buffer_reductions(self):
        with pytest.raises(ValueError, match="buffer_reductions"):
            PartitionJoinConfig(
                memory_pages=16,
                execution="forward-sweep",
                buffer_reductions=(BufferReduction(at_position=1, buff_size=4),),
            )

    def test_unknown_predicate_rejected(self):
        with pytest.raises(ValueError, match="unknown temporal predicate"):
            PartitionJoinConfig(memory_pages=16, predicate="sideways")


# -- endpoint-sortedness metadata ---------------------------------------------


class TestEndpointSortedMetadata:
    def test_bulk_load_detects_order(self):
        layout = DiskLayout(spec=SPEC)
        sorted_rel = make_relation(
            SCHEMA_R, "a", [(1, 0, 4), (1, 2, 3), (2, 2, 5), (1, 7, 9)]
        )
        heap = layout.place_relation(sorted_rel)
        assert heap.endpoint_sorted
        unsorted_rel = make_relation(SCHEMA_R, "a", [(1, 5, 9), (1, 0, 4)])
        assert not layout.place_relation(unsorted_rel).endpoint_sorted

    def test_append_maintains_and_invalidates(self):
        layout = DiskLayout(spec=SPEC)
        heap = layout.temp_file("h")
        assert heap.endpoint_sorted  # empty: trivially sorted
        heap.append(VTTuple((1,), ("a",), Interval(0, 5)))
        heap.append(VTTuple((1,), ("b",), Interval(0, 6)))
        assert heap.endpoint_sorted
        heap.append(VTTuple((1,), ("c",), Interval(0, 2)))
        assert not heap.endpoint_sorted

    def test_relation_and_catalog_agree(self):
        rel = make_relation(SCHEMA_R, "a", [(1, 0, 4), (1, 2, 3)])
        assert rel.endpoint_sorted()
        assert analyze(rel, SPEC).endpoint_sorted
        rel2 = make_relation(SCHEMA_R, "a", [(1, 5, 9), (1, 0, 4)])
        assert not rel2.endpoint_sorted()
        assert not analyze(rel2, SPEC).endpoint_sorted
        assert analyze(ValidTimeRelation(SCHEMA_R), SPEC).endpoint_sorted


# -- planner: grants and the crossover model ----------------------------------


class TestSweepPlanning:
    MODEL = CostModel()

    def test_forward_sweep_grant_is_clamped(self):
        assert estimate_grant_pages(
            500, 500, 256, execution="forward-sweep"
        ) == FORWARD_SWEEP_GRANT_PAGES
        assert (
            estimate_grant_pages(500, 500, 4, execution="forward-sweep")
            == MIN_GRANT_PAGES
        )

    def test_cost_estimate_decomposition(self):
        est = estimate_forward_sweep_cost(
            20, 30, self.MODEL, outer_sorted=True, inner_sorted=True
        )
        assert est.c_sort == 0.0
        assert est.c_scan == self.MODEL.cost_of_run(20) + self.MODEL.cost_of_run(30)
        one_side = estimate_forward_sweep_cost(
            20, 30, self.MODEL, outer_sorted=False, inner_sorted=True
        )
        assert one_side.c_sort == 2 * self.MODEL.cost_of_run(20)
        assert one_side.total == one_side.c_scan + one_side.c_sort

    def test_crossover_both_sides(self):
        # Sorted inputs large enough to defeat the single-partition
        # shortcut: the sweep's two scans beat Grace partitioning.
        sorted_choice = choose_physical_operator(
            200, 200, 16, self.MODEL, outer_sorted=True, inner_sorted=True
        )
        assert sorted_choice.operator == "forward-sweep"
        assert sorted_choice.sweep_cost < sorted_choice.partition_cost
        # Fully unsorted inputs never compete, whatever the costs say.
        unsorted_choice = choose_physical_operator(
            200, 200, 16, self.MODEL, outer_sorted=False, inner_sorted=False
        )
        assert unsorted_choice.operator == "partition"
        assert "endpoint-sorted" in unsorted_choice.rationale

    def test_non_natural_predicate_forces_sweep(self):
        choice = choose_physical_operator(
            10, 10, 64, self.MODEL, predicate="during"
        )
        assert choice.operator == "forward-sweep"
        assert "during" in choice.rationale

    def test_optimizer_gating(self):
        base = estimate_costs(200, 200, 16, self.MODEL)
        assert "sweep" not in base
        unsorted = estimate_costs(
            200, 200, 16, self.MODEL, endpoint_sorted=(False, False)
        )
        assert "sweep" not in unsorted
        sorted_est = estimate_costs(
            200, 200, 16, self.MODEL, endpoint_sorted=(True, True)
        )
        assert "sweep" in sorted_est
        assert (
            choose_algorithm(
                200, 200, 16, self.MODEL, endpoint_sorted=(True, True)
            )
            == "sweep"
        )
        # The tie-break keeps partition: in-memory inputs cost two scans
        # under both operators.
        assert (
            choose_algorithm(
                4, 4, 64, self.MODEL, endpoint_sorted=(True, True)
            )
            == "partition"
        )


# -- EXPLAIN surfacing ---------------------------------------------------------


def seeded_db(sort_r=True, sort_s=True, n=400):
    import random

    rng = random.Random(7)
    db = TemporalDatabase(memory_pages=16, page_spec=SPEC)
    db.create_relation(RelationSchema("works_on", ("k",), ("a",), tuple_bytes=128))
    db.create_relation(RelationSchema("earns", ("k",), ("b",), tuple_bytes=128))
    rows_r = [
        (f"k{rng.randrange(6)}", f"a{i}", *sorted((rng.randrange(80), rng.randrange(80))))
        for i in range(n)
    ]
    rows_s = [
        (f"k{rng.randrange(6)}", f"b{i}", *sorted((rng.randrange(80), rng.randrange(80))))
        for i in range(n)
    ]
    if sort_r:
        rows_r.sort(key=lambda t: (t[2], t[3]))
    if sort_s:
        rows_s.sort(key=lambda t: (t[2], t[3]))
    db.insert("works_on", rows_r)
    db.insert("earns", rows_s)
    return db


class TestExplainOperator:
    def test_sorted_inputs_choose_the_sweep(self):
        db = seeded_db(sort_r=True, sort_s=True)
        report = db.explain("works_on", "earns")
        assert report.algorithm == "sweep"
        assert report.operator == "forward-sweep"
        assert "physical operator: forward-sweep" in report.render()
        assert report.as_dict()["operator"] == "forward-sweep"
        assert "sweep" in report.estimates

    def test_unsorted_inputs_keep_partitioning(self):
        db = seeded_db(sort_r=False, sort_s=False)
        report = db.explain("works_on", "earns", method="partition")
        assert report.operator == "partition"
        assert "sweep" not in report.estimates

    def test_analyze_reconciles_sweep_phases_exactly(self):
        db = seeded_db(sort_r=True, sort_s=False)
        report = db.explain_analyze("works_on", "earns", method="sweep")
        rows = {p.phase: p for p in report.phases}
        assert rows["sort"].predicted == rows["sort"].actual
        assert rows["join"].predicted == rows["join"].actual
        assert report.predicted_total == report.actual_total

    def test_forced_sweep_on_unsorted_notes_the_cost_model(self):
        db = seeded_db(sort_r=False, sort_s=False)
        report = db.explain("works_on", "earns", method="sweep")
        assert report.operator == "forward-sweep"
        assert "forced" in report.operator_rationale

    def test_predicate_routes_through_the_sweep(self):
        db = seeded_db()
        result = db.join("works_on", "earns", predicate="overlaps")
        assert result.algorithm == "sweep"
        with pytest.raises(ValueError, match="requires method 'sweep'"):
            db.join("works_on", "earns", method="nested_loop", predicate="during")


# -- ledger and metrics reconciliation ----------------------------------------


class TestLedgerReconciliation:
    @pytest.mark.parametrize("sort_inputs", (True, False))
    def test_estimate_matches_charged_cost_exactly(self, sort_inputs):
        db_rows = [(i % 3, 2 * i, 2 * i + 5) for i in range(64)]
        rows = db_rows if sort_inputs else list(reversed(db_rows))
        r = make_relation(SCHEMA_R, "a", rows)
        s = make_relation(SCHEMA_S, "b", rows)
        layout = DiskLayout(spec=SPEC)
        r_file = layout.place_relation(r)
        s_file = layout.place_relation(s)
        assert r_file.endpoint_sorted == sort_inputs
        forward_sweep_join(
            r_file, s_file, r.schema.join_result_schema(s.schema), layout
        )
        model = CostModel()
        est = estimate_forward_sweep_cost(
            r_file.n_pages,
            s_file.n_pages,
            model,
            outer_sorted=sort_inputs,
            inner_sorted=sort_inputs,
        )
        assert layout.tracker.stats.cost(model) == est.total

    def test_metrics_reconcile_with_outcome(self):
        r = make_relation(SCHEMA_R, "a", [(1, 0, 5), (1, 3, 9), (2, 0, 2)])
        s = make_relation(SCHEMA_S, "b", [(1, 4, 8), (2, 1, 6)])
        layout = DiskLayout(spec=SPEC)
        r_file = layout.place_relation(r)
        s_file = layout.place_relation(s)
        obs = Observability(ObservabilityConfig(tracing=False))
        outcome = forward_sweep_join(
            r_file, s_file, r.schema.join_result_schema(s.schema), layout, obs=obs
        )
        snap = obs.metrics_snapshot()
        results = sum(snap["repro_sweep_results_total"]["series"].values())
        pairs = sum(snap["repro_sweep_pairs_total"]["series"].values())
        assert results == outcome.n_result_tuples == 3
        assert pairs == 3
        assert sum(snap["repro_sweep_pages_total"]["series"].values()) > 0

    def test_service_grant_rides_the_sweep_clamp(self):
        db = seeded_db()
        with db.serve(pool_pages=64) as service:
            with service.open_session() as session:
                result = session.join("works_on", "earns", method="sweep")
                assert result.algorithm == "forward-sweep"
                assert result.requested_pages <= FORWARD_SWEEP_GRANT_PAGES
                partitioned = session.join("works_on", "earns", method="partition")
                assert sorted(result.relation.tuples, key=repr) == sorted(
                    partitioned.relation.tuples, key=repr
                )
