"""repro: Efficient Evaluation of the Valid-Time Natural Join (ICDE 1994).

A from-scratch reproduction of Soo, Snodgrass & Jensen's partition-based
valid-time natural join, together with the storage substrate, baseline
algorithms (nested-loop and sort-merge with backing-up), other valid-time
join variants, a small temporal algebra, incremental view maintenance, the
paper's synthetic workloads, and the full Figure 4/6/7/8 experiment
harness.

Quickstart::

    from repro import (
        Interval, RelationSchema, ValidTimeRelation, VTTuple,
        PartitionJoinConfig, partition_join,
    )

    schema_r = RelationSchema("works_on", join_attributes=("emp",),
                              payload_attributes=("project",))
    schema_s = RelationSchema("earns", join_attributes=("emp",),
                              payload_attributes=("salary",))
    r = ValidTimeRelation.from_rows(schema_r, [("alice", "db", 0, 9)])
    s = ValidTimeRelation.from_rows(schema_s, [("alice", 100, 5, 19)])
    joined = partition_join(r, s, PartitionJoinConfig(memory_pages=16))
    print(joined.result.tuples)
    # (VTTuple(key=('alice',), payload=('db', 100), valid=Interval(5, 9)),)
"""

from repro.time import AllenRelation, Interval, Lifespan, overlap, relate
from repro.model import (
    RelationSchema,
    ValidTimeRelation,
    VTTuple,
    join_tuples,
    ReproError,
    SchemaError,
    StorageError,
    BufferOverflowError,
    PlanError,
)
from repro.storage import CostModel, DiskLayout, IOStatistics, PageSpec
from repro.core import (
    PartitionJoinConfig,
    PartitionPlan,
    choose_intervals,
    determine_part_intervals,
    partition_join,
    replicating_partition_join,
)
from repro.baselines import (
    nested_loop_cost,
    nested_loop_join,
    reference_join,
    sort_merge_join,
)
from repro.aggregate import AggregationTree, temporal_aggregate
from repro.engine import TemporalDatabase
from repro.exec import backend_name, get_kernels

__version__ = "1.0.0"

__all__ = [
    "AllenRelation",
    "Interval",
    "Lifespan",
    "overlap",
    "relate",
    "RelationSchema",
    "ValidTimeRelation",
    "VTTuple",
    "join_tuples",
    "ReproError",
    "SchemaError",
    "StorageError",
    "BufferOverflowError",
    "PlanError",
    "CostModel",
    "DiskLayout",
    "IOStatistics",
    "PageSpec",
    "PartitionJoinConfig",
    "PartitionPlan",
    "choose_intervals",
    "determine_part_intervals",
    "partition_join",
    "replicating_partition_join",
    "nested_loop_cost",
    "nested_loop_join",
    "reference_join",
    "sort_merge_join",
    "AggregationTree",
    "temporal_aggregate",
    "TemporalDatabase",
    "backend_name",
    "get_kernels",
    "__version__",
]
