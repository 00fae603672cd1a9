"""Tour of the temporal query engine: joins and temporal aggregation.

Uses the :class:`TemporalDatabase` facade to run the paper's join with
automatic algorithm selection, then asks "how many projects were staffed
at each moment?" with the temporal aggregation operator.

    python examples/temporal_database.py
"""

import random

from repro import RelationSchema, TemporalDatabase


def main() -> None:
    db = TemporalDatabase(memory_pages=32)
    db.create_relation(
        RelationSchema("assignments", ("emp",), ("project",))
    )
    db.create_relation(RelationSchema("grades", ("emp",), ("grade",)))

    rng = random.Random(42)
    assignment_rows = []
    grade_rows = []
    for e in range(120):
        start = rng.randrange(500)
        assignment_rows.append(
            (f"emp{e}", f"proj{e % 9}", start, start + rng.randrange(40, 200))
        )
        grade_rows.append((f"emp{e}", rng.randrange(1, 6), 0, 999))
    db.insert("assignments", assignment_rows)
    db.insert("grades", grade_rows)

    # Join with automatic algorithm selection; inspect the optimizer too.
    print("optimizer estimates for assignments JOIN_V grades:")
    for name, estimate in sorted(db.explain("assignments", "grades").items()):
        print(f"  {name:<12} {estimate.cost:>10,.0f}  ({estimate.note})")
    result = db.join("assignments", "grades")
    print(f"chosen: {result.algorithm}; measured cost {result.cost:,.0f}; "
          f"{len(result.relation)} result tuples")

    # Temporal aggregation: staffing level over time.
    staffing = db.aggregate("assignments", "count")
    print(f"\nstaffing level changes {len(staffing)} times; peaks:")
    peak = max(staffing, key=lambda t: t.payload[0])
    print(f"  max {peak.payload[0]:.0f} concurrent assignments "
          f"during [{peak.vs}, {peak.ve}]")


if __name__ == "__main__":
    main()
