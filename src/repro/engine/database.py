"""The :class:`TemporalDatabase` facade.

One object that holds named valid-time relations and exposes the library's
operators the way a user expects from a database: create, insert, join
(algorithm chosen by the optimizer unless forced), timeslice, aggregate.
Every join reports which algorithm ran and what it cost under the active
cost model, so the facade doubles as a workbench for exploring the paper's
trade-offs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Tuple

from repro.aggregate.operator import temporal_aggregate
from repro.algebra.predicates import NATURAL_PREDICATE, resolve_predicate
from repro.core.partition_join import PartitionJoinConfig, plan_partition_join
from repro.core.planner import choose_physical_operator
from repro.engine.catalog import RelationStatistics, analyze
from repro.engine.optimizer import JoinEstimate, choose_method, estimate_costs
from repro.engine.runner import run_join
from repro.model.errors import SchemaError
from repro.model.relation import ValidTimeRelation
from repro.model.schema import RelationSchema
from repro.obs import Observability, ObservabilityConfig
from repro.obs.explain import (
    ExplainReport,
    PhaseCost,
    predicted_phases,
    predicted_sweep_phases,
)
from repro.resilience.report import ResilienceReport
from repro.resilience.retry import ResiliencePolicy
from repro.storage.iostats import CostModel
from repro.storage.layout import DiskLayout
from repro.storage.page import PageSpec


@dataclass
class QueryResult:
    """A join's result plus its execution pedigree.

    ``resilience`` is populated for partition joins run under a
    :class:`~repro.resilience.retry.ResiliencePolicy`; for other algorithms
    (and with resilience off) it is None.  ``observability`` carries the
    run's :class:`~repro.obs.Observability` runtime for partition joins when
    the database was built with an observability config.
    """

    relation: ValidTimeRelation
    algorithm: str
    cost: float
    estimates: Dict[str, JoinEstimate] = field(default_factory=dict)
    resilience: Optional[ResilienceReport] = None
    observability: Optional[Observability] = None
    #: The run's per-phase I/O tracker (what EXPLAIN ANALYZE reconciles
    #: predictions against); None only for composite join_many results.
    tracker: Optional[object] = None


class TemporalDatabase:
    """Named valid-time relations plus a configured execution environment.

    Args:
        memory_pages: buffer budget every operator runs under.
        cost_model: random/sequential weights for reported costs.
        page_spec: page geometry of the simulated storage.
        resilience: when given, partition joins run on checksummed storage
            with the policy's retry bounds, checkpoint interval, and
            degraded-fallback setting, and their :class:`QueryResult`
            carries the resilience report.
        execution: execution mode of partition joins (``"tuple"`` or
            ``"batch"`` -- both return identical results; see
            ``docs/EXECUTION.md``).
        observability: when given, partition joins record structured traces
            and metrics (see ``docs/OBSERVABILITY.md``); the runtime is
            returned on each :class:`QueryResult` and on
            :meth:`explain_analyze` reports.
    """

    def __init__(
        self,
        memory_pages: int = 64,
        cost_model: Optional[CostModel] = None,
        page_spec: Optional[PageSpec] = None,
        resilience: Optional[ResiliencePolicy] = None,
        execution: str = "tuple",
        observability: Optional[ObservabilityConfig] = None,
    ) -> None:
        self.memory_pages = memory_pages
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.page_spec = page_spec if page_spec is not None else PageSpec()
        self.resilience = resilience
        self.execution = execution
        self.observability = observability
        # Fail on a bad mode at construction, not at the first join.
        self._join_config(memory_pages)
        self._relations: Dict[str, ValidTimeRelation] = {}
        self._statistics: Dict[str, Tuple[int, RelationStatistics]] = {}

    # -- catalog ------------------------------------------------------------

    def create_relation(self, schema: RelationSchema) -> ValidTimeRelation:
        """Register an empty relation under its schema name."""
        if schema.name in self._relations:
            raise SchemaError(f"relation {schema.name!r} already exists")
        relation = ValidTimeRelation(schema)
        self._relations[schema.name] = relation
        return relation

    def relation(self, name: str) -> ValidTimeRelation:
        """Look up a relation by name."""
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"no relation named {name!r}") from None

    def insert(self, name: str, rows: Iterable[Tuple]) -> int:
        """Append ``(attributes..., vs, ve)`` rows; returns the count added."""
        relation = self.relation(name)
        added = ValidTimeRelation.from_rows(relation.schema, rows)
        relation.extend(added.tuples)
        return len(added)

    def names(self) -> List[str]:
        return sorted(self._relations)

    def _join_config(self, memory_pages: int) -> PartitionJoinConfig:
        """The partition-join configuration this database's knobs describe."""
        kwargs = dict(
            memory_pages=memory_pages,
            cost_model=self.cost_model,
            page_spec=self.page_spec,
            execution=self.execution,
            observability=self.observability,
        )
        if self.resilience is not None:
            kwargs.update(
                checkpoint_interval=self.resilience.checkpoint_interval,
                retry_limit=self.resilience.retry_limit,
                degraded_fallback=self.resilience.degraded_fallback,
            )
        return PartitionJoinConfig(**kwargs)

    # -- statistics -----------------------------------------------------------

    def statistics(self, name: str) -> RelationStatistics:
        """Catalog statistics for *name* (recomputed lazily after changes)."""
        relation = self.relation(name)
        cached = self._statistics.get(name)
        if cached is None or cached[0] != len(relation):
            stats = analyze(relation, self.page_spec)
            self._statistics[name] = (len(relation), stats)
            return stats
        return cached[1]

    def _sortedness(self, outer: str, inner: str) -> Tuple[bool, bool]:
        """The catalog's endpoint-sortedness flags for a join's inputs."""
        return (
            self.statistics(outer).endpoint_sorted,
            self.statistics(inner).endpoint_sorted,
        )

    def _estimates(self, outer: str, inner: str) -> Dict[str, JoinEstimate]:
        """The optimizer's per-algorithm estimates for a join."""
        return estimate_costs(
            self.statistics(outer).n_pages,
            self.statistics(inner).n_pages,
            self.memory_pages,
            self.cost_model,
            long_lived_fraction=self.statistics(inner).long_lived_fraction,
            endpoint_sorted=self._sortedness(outer, inner),
        )

    def _resolve_method(self, outer: str, inner: str, method: str, predicate: str) -> str:
        """*method* with ``"auto"`` resolved by the optimizer."""
        if method != "auto":
            return method
        return choose_method(
            self.statistics(outer),
            self.statistics(inner),
            self.memory_pages,
            self.cost_model,
            predicate=predicate,
        )

    def explain(
        self,
        outer: str,
        inner: str,
        *,
        analyze: bool = False,
        method: str = "auto",
        predicate: Optional[str] = None,
        shards: Optional[int] = None,
        shard_by: str = "key-hash",
    ) -> ExplainReport:
        """EXPLAIN (and optionally ANALYZE) a join of two named relations.

        Without *analyze*, renders the plan the evaluation would choose --
        the optimizer's per-algorithm estimates and, for the partition join,
        the chosen partitioning (partition count, ``partSize``, sample size
        ``m``) with its predicted per-phase costs.  Nothing is executed
        (planning samples a scratch layout whose I/O is discarded).

        With *analyze*, the join runs for real and each phase's predicted
        cost is reconciled against the measured actuals on the run's
        :class:`~repro.storage.iostats.PhaseTracker`, with deviations.

        The report is a Mapping over the per-algorithm estimates, so code
        written against the old ``Dict[str, JoinEstimate]`` return shape
        keeps working.

        With ``shards=N`` the report also carries the shard fan-out line:
        each shard's fragment sizes under *shard_by* routing and the
        planner's predicted cost for that fragment -- the skew a
        :class:`~repro.shard.coordinator.ShardedQueryService` would see.
        """
        predicate_name = resolve_predicate(
            predicate if predicate is not None else NATURAL_PREDICATE
        ).name
        estimates = self._estimates(outer, inner)
        algorithm = self._resolve_method(outer, inner, method, predicate_name)
        r = self.relation(outer)
        s = self.relation(inner)

        outer_sorted, inner_sorted = self._sortedness(outer, inner)
        plan = None
        single = False
        phases: list = []
        config = self._join_config(self.memory_pages)
        if algorithm == "partition":
            plan, single, _, _ = plan_partition_join(r, s, config)
            phases = predicted_phases(
                plan,
                single,
                self.statistics(outer).n_pages,
                self.statistics(inner).n_pages,
                config,
            )
        elif algorithm == "sweep":
            phases = predicted_sweep_phases(
                self.statistics(outer).n_pages,
                self.statistics(inner).n_pages,
                config,
                outer_sorted=outer_sorted,
                inner_sorted=inner_sorted,
            )
        operator = None
        rationale = None
        if algorithm in ("partition", "sweep"):
            choice = choose_physical_operator(
                self.statistics(outer).n_pages,
                self.statistics(inner).n_pages,
                self.memory_pages,
                self.cost_model,
                outer_sorted=outer_sorted,
                inner_sorted=inner_sorted,
                long_lived_fraction=self.statistics(inner).long_lived_fraction,
                predicate=predicate_name,
            )
            operator = "forward-sweep" if algorithm == "sweep" else "partition"
            if method != "auto" and operator != choice.operator:
                rationale = (
                    f"forced by method={method!r} (cost model prefers "
                    f"{choice.operator}: {choice.rationale})"
                )
            else:
                rationale = choice.rationale
        shard_fanout = None
        if shards is not None:
            from repro.shard.coordinator import predict_shard_fanout
            from repro.shard.partitioning import ShardMap, time_range_map

            if shard_by == "time-range":
                shard_map = time_range_map(shards, r, s)
            else:
                shard_map = ShardMap(shards, strategy=shard_by)
            shard_fanout = predict_shard_fanout(
                shard_map,
                r,
                s,
                memory_pages=self.memory_pages,
                cost_model=self.cost_model,
                page_spec=self.page_spec,
            )
        report = ExplainReport(
            outer=outer,
            inner=inner,
            outer_pages=self.statistics(outer).n_pages,
            inner_pages=self.statistics(inner).n_pages,
            algorithm=algorithm,
            method=method,
            estimates=estimates,
            memory_pages=self.memory_pages,
            execution=self.execution,
            plan=plan,
            single_partition=single,
            phases=phases,
            operator=operator,
            operator_rationale=rationale,
            shard_fanout=shard_fanout,
        )
        if not analyze:
            return report

        result = self.join(
            outer, inner, method=algorithm, predicate=predicate
        )
        report.analyzed = True
        report.actual_total = result.cost
        report.result_tuples = len(result.relation)
        report.observability = result.observability
        if result.tracker is not None:
            by_phase = {p.phase: p for p in report.phases}
            for name in result.tracker.phases:
                actual = result.tracker.phase_cost(name, self.cost_model)
                row = by_phase.get(name)
                if row is None:
                    row = PhaseCost(phase=name)
                    report.phases.append(row)
                    by_phase[name] = row
                row.actual = actual
            for row in report.phases:
                if row.actual is None:
                    row.actual = 0.0
        return report

    def explain_analyze(
        self, outer: str, inner: str, *, method: str = "auto"
    ) -> ExplainReport:
        """Run the join and render predicted-vs-actual per-phase costs."""
        return self.explain(outer, inner, analyze=True, method=method)

    # -- queries ------------------------------------------------------------------

    def join(
        self,
        outer: str,
        inner: str,
        *,
        method: str = "auto",
        predicate: Optional[str] = None,
    ) -> QueryResult:
        """Valid-time join of two named relations.

        Args:
            outer: outer relation name.
            inner: inner relation name.
            method: ``"auto"`` (cost-based choice), ``"partition"``,
                ``"sweep"`` (the forward-scan sweep of
                :mod:`repro.exec.forward_sweep`), ``"sort_merge"``, or
                ``"nested_loop"``.
            predicate: Allen-algebra predicate name (default the natural
                join's ``"intersects"``).  Every predicate other than
                ``"intersects"`` is evaluated by the forward sweep, so it
                requires ``method`` ``"auto"`` or ``"sweep"``.
        """
        r = self.relation(outer)
        s = self.relation(inner)
        predicate_name = resolve_predicate(
            predicate if predicate is not None else NATURAL_PREDICATE
        ).name
        estimates = self._estimates(outer, inner)
        method = self._resolve_method(outer, inner, method, predicate_name)
        if predicate_name != NATURAL_PREDICATE and method != "sweep":
            raise ValueError(
                f"predicate {predicate_name!r} requires method 'sweep' "
                f"(or 'auto'); the {method!r} algorithm evaluates only the "
                f"natural join's {NATURAL_PREDICATE!r}"
            )

        config = self._join_config(self.memory_pages)
        if method == "sweep":
            config = replace(
                config,
                execution="forward-sweep",
                predicate=predicate_name,
                checkpoint_interval=0,
                buffer_reductions=(),
            )
        layout = None
        if self.resilience is not None and method in ("partition", "sweep"):
            layout = DiskLayout(
                spec=self.page_spec,
                retry_policy=self.resilience.retry_policy(),
                checksums=self.resilience.checksums,
            )
        run = run_join(r, s, method, config, self.memory_pages, layout=layout)
        assert run.relation is not None
        return QueryResult(
            relation=run.relation,
            algorithm=method,
            cost=run.cost,
            estimates=estimates,
            resilience=run.resilience if self.resilience is not None else None,
            observability=run.observability,
            tracker=run.tracker,
        )

    def join_many(self, names: List[str], *, method: str = "auto") -> QueryResult:
        """Left-deep multi-way valid-time natural join of named relations.

        The reconstruction query of a fully decomposed temporal database
        [JSS92a]: join the fragments back together, choosing the algorithm
        per step.  Intermediate results are registered under synthetic
        catalog names so the optimizer sees their statistics.

        Args:
            names: two or more relation names, joined left to right.
            method: per-step method (``"auto"`` re-chooses at every step).
        """
        if len(names) < 2:
            raise SchemaError("join_many needs at least two relations")
        current = names[0]
        total_cost = 0.0
        algorithms = []
        step_result: Optional[QueryResult] = None
        temporaries: List[str] = []
        try:
            for step, name in enumerate(names[1:]):
                step_result = self.join(current, name, method=method)
                total_cost += step_result.cost
                algorithms.append(step_result.algorithm)
                temp_name = step_result.relation.schema.name
                if temp_name in self._relations:
                    temp_name = f"{temp_name}__step{step}"
                self._relations[temp_name] = step_result.relation
                temporaries.append(temp_name)
                current = temp_name
        finally:
            for temp_name in temporaries[:-1]:
                self._relations.pop(temp_name, None)
                self._statistics.pop(temp_name, None)
        final_name = temporaries[-1] if temporaries else current
        self._relations.pop(final_name, None)
        self._statistics.pop(final_name, None)
        assert step_result is not None
        return QueryResult(
            relation=step_result.relation,
            algorithm="+".join(algorithms),
            cost=total_cost,
            estimates=step_result.estimates,
        )

    def timeslice(self, name: str, chronon: int) -> List[Tuple]:
        """Snapshot rows of a named relation at *chronon*."""
        return sorted(self.relation(name).timeslice(chronon), key=repr)

    def aggregate(self, name: str, op: str, **kwargs) -> ValidTimeRelation:
        """Temporal aggregation over a named relation (see
        :func:`repro.aggregate.operator.temporal_aggregate`)."""
        return temporal_aggregate(self.relation(name), op, **kwargs)

    def serve(self, *, shards: Optional[int] = None, **service_kwargs):
        """Open a concurrent :class:`~repro.service.service.QueryService`.

        Every current relation is copied into a fresh
        :class:`~repro.engine.catalog.VersionedCatalog` (epoch 0 versions);
        further writes go through service sessions, not this database.
        The service inherits this database's memory budget, cost model,
        page geometry, and execution mode unless overridden via
        *service_kwargs* (see :class:`~repro.service.service.QueryService`).
        Close the returned service (it is a context manager) when done.

        With ``shards=N`` (N >= 1) the returned service is instead a
        :class:`~repro.shard.coordinator.ShardedQueryService` over N shard
        worker processes (``shard_by`` in *service_kwargs* picks the
        routing strategy; see ``docs/SHARDING.md``).  Results, counters,
        and charged I/O are bit-identical to the single-process service.
        """
        from repro.engine.catalog import VersionedCatalog
        from repro.service.service import QueryService

        catalog = VersionedCatalog()
        for name in self.names():
            relation = self._relations[name]
            catalog.register(relation.schema, relation.tuples)
        service_kwargs.setdefault("pool_pages", self.memory_pages)
        service_kwargs.setdefault("cost_model", self.cost_model)
        service_kwargs.setdefault("page_spec", self.page_spec)
        service_kwargs.setdefault("execution", self.execution)
        if shards is not None:
            from repro.shard.coordinator import ShardedQueryService

            return ShardedQueryService(catalog, shards=shards, **service_kwargs)
        return QueryService(catalog, **service_kwargs)
