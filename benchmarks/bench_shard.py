"""Shard scaling: near-linear simulated-clock throughput, exact accounting.

The sharding claim has two halves and this bench gates both:

1. **Scaling** -- with key-hash sharding every shard owns ~1/N of each
   relation, its fragment join costs ~1/N of the whole-relation bill, and
   the shards' simulated disks run concurrently.  Per-query service time
   on the *simulated clock* is therefore ``max`` over shards of the
   fragment's charged cost, and simulated throughput should grow
   near-linearly through 8 shards.  The gate rides the simulated clock,
   not wall time: this container has one CPU (wall-clock parallelism is
   physically unavailable, and CI refuses to gate wall time anyway -- see
   ``.github/workflows/ci.yml``), while charged cost is deterministic on
   any machine.  Wall-clock qps is still reported, ungated, for context.

2. **Exactness** -- scaling is worthless if the answer drifts.  At every
   shard count the merged result multiset, the JoinOutcome counters, and
   the merged per-phase charged-I/O ledger must equal an in-process
   serial replay of the same fragment decomposition
   (:class:`repro.shard.worker.ShardWorker` objects, no processes, one at
   a time); at ``shards=1`` the bill must equal the plain single-process
   :class:`~repro.service.service.QueryService` exactly.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_shard.py

CI gates with ``--check``::

    PYTHONPATH=src python benchmarks/bench_shard.py \\
        --tuples 6000 --check BENCH_shard.json

which re-runs at smoke scale and fails if (a) any shard count's merged
result or charged-I/O ledger deviates from the serial replay, (b) the
re-measured 4-shard simulated speedup falls under the floor, or (c) the
committed report stops showing the >= 2.5x acceptance speedup.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from harness import (
    REPO_ROOT,
    environment,
    load_report,
    probe_heavy_relation,
    write_report,
)
from repro.engine.catalog import VersionedCatalog
from repro.service import QueryService
from repro.shard import ShardedQueryService
from repro.shard.partitioning import ShardMap
from repro.shard.worker import ShardWorker, schema_to_dict
from repro.storage.iostats import IOStatistics

SHARD_COUNTS = (1, 2, 4, 8)
QUERIES = 3
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_shard.json"

#: Acceptance floor on the 4-shard simulated-clock speedup (committed
#: full-scale report AND the smoke re-run; the simulated clock does not
#: degrade at smoke scale the way wall time does).
SPEEDUP_FLOOR_4_SHARDS = 2.5

MEMORY_PAGES = 48
POOL_PAGES = 256  # generous: grants never clamp, plans stay deterministic


def _build_catalog(n_tuples: int) -> VersionedCatalog:
    catalog = VersionedCatalog()
    for name, seed in (("works_on", 1994), ("earns", 1995)):
        relation = probe_heavy_relation(name, n_tuples, seed=seed)
        catalog.register(relation.schema, relation.tuples)
    return catalog


def _canonical(relation) -> List:
    return sorted((t.key, t.payload, t.vs, t.ve) for t in relation.tuples)


def _single_process(n_tuples: int) -> Dict:
    """The baseline bill: the whole join, one process, no caches."""
    catalog = _build_catalog(n_tuples)
    with QueryService(
        catalog,
        pool_pages=POOL_PAGES,
        memory_pages=MEMORY_PAGES,
        workers=1,
        execution="batch",
        plan_cache_entries=0,
        result_cache_entries=0,
    ) as service:
        with service.open_session() as session:
            begin = time.perf_counter()
            results = [
                session.join("works_on", "earns", method="partition")
                for _ in range(QUERIES)
            ]
            wall = time.perf_counter() - begin
    first = results[0]
    return {
        "queries": QUERIES,
        "cost_per_query": first.cost,
        "charged_ops_per_query": first.charged_ops,
        "n_result_tuples": first.n_result_tuples
        if hasattr(first, "n_result_tuples")
        else first.outcome.n_result_tuples,
        "result": _canonical(first.relation),
        "outcome": (
            first.outcome.n_result_tuples,
            first.outcome.overflow_blocks,
            first.outcome.cache_tuples_peak,
            first.outcome.cache_tuples_spilled,
        ),
        "wall_seconds": round(wall, 4),
        "wall_qps": round(QUERIES / wall, 2),
    }


def _serial_replay(n_tuples: int, shards: int) -> Dict:
    """The same fragment decomposition, in-process, one fragment at a time.

    ShardWorker is the exact engine the worker processes run; driving it
    directly (no sockets, no forks) re-derives what the merged ledger and
    counters *must* be if the distributed run is honest.
    """
    catalog = _build_catalog(n_tuples)
    shard_map = ShardMap(shards)
    versions = {
        name: catalog.current(name) for name in ("works_on", "earns")
    }
    request = {
        "query_id": 0,
        "outer": "works_on",
        "outer_epoch": versions["works_on"].epoch,
        "inner": "earns",
        "inner_epoch": versions["earns"].epoch,
        "method": "partition",
        "execution": "batch",
        "memory_pages": MEMORY_PAGES,
        "predicate": None,
    }
    tuples: List = []
    charged = 0
    cost = 0.0
    totals = IOStatistics()
    outcome = [0, 0, 0, 0]
    for rank in range(shards):
        worker = ShardWorker(
            {
                "rank": rank,
                "pool_pages": POOL_PAGES,
                "shard_map": shard_map.as_dict(),
            }
        )
        for name, version in versions.items():
            fragment = shard_map.fragment(version.relation, rank)
            worker.load(
                {
                    "name": name,
                    "epoch": version.epoch,
                    "schema": schema_to_dict(version.relation.schema),
                },
                fragment.to_columns(),
            )
        meta, columns = worker.execute(request)
        charged += meta["charged_ops"]
        cost += meta["cost"]
        totals.merge(IOStatistics(**meta["totals"]))
        outcome[0] += meta["outcome"]["n_result_tuples"]
        outcome[1] += meta["outcome"]["overflow_blocks"]
        outcome[2] = max(outcome[2], meta["outcome"]["cache_tuples_peak"])
        outcome[3] += meta["outcome"]["cache_tuples_spilled"]
        if columns is not None:
            keys, payloads, starts, ends = columns
            tuples.extend(zip(keys, payloads, starts, ends))
    return {
        "charged_ops": charged,
        "cost": cost,
        "totals": totals.as_dict(),
        "outcome": tuple(outcome),
        "result": sorted(tuples),
    }


def _sharded(n_tuples: int, shards: int) -> Dict:
    """One measured point: the live multi-process service at *shards*."""
    catalog = _build_catalog(n_tuples)
    with ShardedQueryService(
        catalog,
        shards=shards,
        pool_pages=POOL_PAGES,
        memory_pages=MEMORY_PAGES,
        workers=1,
        execution="batch",
        result_cache_entries=0,
    ) as service:
        with service.open_session() as session:
            begin = time.perf_counter()
            results = [
                session.join("works_on", "earns", method="partition")
                for _ in range(QUERIES)
            ]
            wall = time.perf_counter() - begin
        transport = service.report()["transport"]
    first = results[0]
    return {
        "shards": shards,
        "service_cost_per_query": first.service_cost,
        "total_cost_per_query": first.cost,
        "charged_ops_per_query": first.charged_ops,
        "totals": first.totals.as_dict(),
        "outcome": (
            first.outcome.n_result_tuples,
            first.outcome.overflow_blocks,
            first.outcome.cache_tuples_peak,
            first.outcome.cache_tuples_spilled,
        ),
        "result": _canonical(first.relation),
        "redispatches": first.redispatches,
        "wall_seconds": round(wall, 4),
        "wall_qps": round(QUERIES / wall, 2),
        "transport_frames": transport["frames_sent"] + transport["frames_received"],
        "crc_failures": transport["crc_failures"],
    }


def run(n_tuples: int, shard_counts: Sequence[int] = SHARD_COUNTS) -> Dict:
    baseline = _single_process(n_tuples)
    report: Dict = {
        "workload": {
            "n_tuples_per_side": n_tuples,
            "queries": QUERIES,
            "memory_pages": MEMORY_PAGES,
            "pool_pages_per_shard": POOL_PAGES,
            "execution": "batch",
            "strategy": "key-hash",
            "join": "works_on JOIN_V earns (probe-heavy generator)",
            "clock": (
                "simulated: service time per query = max over shards of the "
                "fragment's charged cost (each shard owns an independent "
                "simulated disk); wall-clock qps reported, not gated"
            ),
        },
        "environment": environment(),
        "baseline": {
            key: value for key, value in baseline.items() if key != "result"
        },
        "shards": {},
        "deviations": [],
    }
    for shards in shard_counts:
        point = _sharded(n_tuples, shards)
        replay = _serial_replay(n_tuples, shards)
        deviations: List[str] = []
        if point["result"] != baseline["result"]:
            deviations.append("result multiset != single-process")
        if point["outcome"][0] != baseline["outcome"][0]:
            deviations.append("n_result_tuples != single-process")
        if point["result"] != replay["result"]:
            deviations.append("result != serial replay of same fragments")
        if point["outcome"] != replay["outcome"]:
            deviations.append("JoinOutcome counters != serial replay")
        if point["charged_ops_per_query"] != replay["charged_ops"]:
            deviations.append(
                f"charged I/O {point['charged_ops_per_query']} != "
                f"serial replay {replay['charged_ops']}"
            )
        if point["totals"] != replay["totals"]:
            deviations.append("merged I/O ledger != serial replay")
        if shards == 1 and point["charged_ops_per_query"] != baseline[
            "charged_ops_per_query"
        ]:
            deviations.append("shards=1 charged I/O != single-process")
        speedup = baseline["cost_per_query"] / point["service_cost_per_query"]
        entry = {
            key: value for key, value in point.items() if key != "result"
        }
        entry["sim_speedup_vs_single_process"] = round(speedup, 2)
        entry["bit_identical"] = not deviations
        report["shards"][str(shards)] = entry
        report["deviations"].extend(
            f"shards={shards}: {line}" for line in deviations
        )
    four = report["shards"].get("4")
    report["acceptance"] = {
        "sim_speedup_at_4_shards": four["sim_speedup_vs_single_process"]
        if four
        else None,
        "floor": SPEEDUP_FLOOR_4_SHARDS,
        "bit_identical_at_every_shard_count": not report["deviations"],
    }
    return report


def _print_summary(report: Dict) -> None:
    baseline = report["baseline"]
    print(
        f"single-process: cost/query {baseline['cost_per_query']:.0f}, "
        f"charged {baseline['charged_ops_per_query']}, "
        f"wall {baseline['wall_qps']} qps"
    )
    header = f"{'shards':>6} {'svc cost':>10} {'speedup':>8} {'charged':>8} {'wall qps':>9} {'identical':>10}"
    print(header)
    for shards, entry in sorted(report["shards"].items(), key=lambda kv: int(kv[0])):
        print(
            f"{shards:>6} {entry['service_cost_per_query']:>10.0f} "
            f"{entry['sim_speedup_vs_single_process']:>7.2f}x "
            f"{entry['charged_ops_per_query']:>8} {entry['wall_qps']:>9} "
            f"{str(entry['bit_identical']):>10}"
        )
    for line in report["deviations"]:
        print(f"DEVIATION: {line}")


def _check(report: Dict, committed_path: Path) -> int:
    """The CI gate: exactness everywhere, speedup at 4 shards, both runs."""
    failures: List[str] = []
    if report["deviations"]:
        failures.extend(report["deviations"])
    measured = report["acceptance"]["sim_speedup_at_4_shards"]
    if measured is None or measured < SPEEDUP_FLOOR_4_SHARDS:
        failures.append(
            f"re-measured 4-shard simulated speedup {measured} < "
            f"{SPEEDUP_FLOOR_4_SHARDS}x"
        )
    committed = load_report(committed_path)
    committed_speedup = committed.get("acceptance", {}).get(
        "sim_speedup_at_4_shards"
    )
    if committed_speedup is None or committed_speedup < SPEEDUP_FLOOR_4_SHARDS:
        failures.append(
            f"committed report's 4-shard speedup {committed_speedup} < "
            f"{SPEEDUP_FLOOR_4_SHARDS}x"
        )
    if committed.get("deviations"):
        failures.append(
            f"committed report records deviations: {committed['deviations']}"
        )
    for line in failures:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tuples", type=int, default=20_000)
    parser.add_argument(
        "--shards",
        default=",".join(str(n) for n in SHARD_COUNTS),
        help="comma-separated shard counts (default 1,2,4,8)",
    )
    parser.add_argument(
        "--check",
        type=Path,
        default=None,
        metavar="REPORT",
        help="gate mode: re-measure and validate against the committed report",
    )
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    shard_counts = tuple(int(n) for n in args.shards.split(","))
    report = run(args.tuples, shard_counts)
    _print_summary(report)
    if args.check is not None:
        return _check(report, args.check)
    write_report(report, args.output)
    print(f"wrote {args.output}")
    return 0


# -- pytest entry (runs at smoke scale under the plain suite) -----------------

def test_shard_bench_smoke():
    report = run(2_500, shard_counts=(1, 2, 4))
    assert not report["deviations"], report["deviations"]
    assert report["shards"]["4"]["sim_speedup_vs_single_process"] > 1.0


if __name__ == "__main__":
    raise SystemExit(main())
