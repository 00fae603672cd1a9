"""Service throughput: concurrent sessions vs a serial no-cache baseline.

The serving claim: a query service with admission control and epoch-keyed
caching turns a stream of repeated joins -- the dashboard regime, where
many clients ask the same question of slowly-changing data -- from
one-full-evaluation-per-query into one evaluation per *distinct*
(epochs, config) coordinate, everything else served from the result cache
with **zero charged I/O**.

Measures the 50k x 50k probe-heavy generator workload at 1, 4, and 16
sessions (each session issuing the same join repeatedly), against a serial
baseline with both caches disabled (the pre-service behavior: every query
evaluated from scratch).  Reports throughput, p50/p95 admission queue
wait, and cache traffic per point; writes ``BENCH_service.json`` next to
the repo root.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_service.py

CI gates with ``--check``::

    PYTHONPATH=src python benchmarks/bench_service.py \\
        --tuples 8000 --check BENCH_service.json

which re-runs at smoke scale and fails if (a) any result-cache hit charged
a single I/O operation, (b) the re-measured 4-session speedup falls under
the smoke floor, or (c) the committed report stops showing the >= 2x
4-session acceptance speedup.
"""

from __future__ import annotations

import argparse
import threading
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
from repro.core.partition_join import EXECUTION_MODES
from repro.engine.catalog import VersionedCatalog
from repro.service import QueryService
from repro.service.workload import percentile
from repro.storage.page import PageSpec

SESSION_COUNTS = (1, 4, 16)
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_service.json"

#: Acceptance floor on the committed full-scale report (4 sessions).
FULL_SCALE_SPEEDUP_FLOOR = 2.0
#: Relaxed floor for the re-measured smoke run (tiny data, cold caches).
SMOKE_SPEEDUP_FLOOR = 1.5


def _build_catalog(n_tuples: int) -> VersionedCatalog:
    catalog = VersionedCatalog()
    for name, seed in (("works_on", 1994), ("earns", 1995)):
        relation = probe_heavy_relation(name, n_tuples, seed=seed)
        catalog.register(relation.schema, relation.tuples)
    return catalog


def _drive(
    n_tuples: int,
    n_sessions: int,
    queries_per_session: int,
    *,
    caching: bool,
    memory_pages: int,
    execution: str,
) -> Dict:
    """One measured point: *n_sessions* sessions, each repeating the join."""
    catalog = _build_catalog(n_tuples)
    records: List = []
    errors: List[str] = []
    lock = threading.Lock()
    cache_entries = 256 if caching else 0
    with QueryService(
        catalog,
        pool_pages=memory_pages,
        memory_pages=memory_pages,
        workers=min(8, n_sessions),
        execution=execution,
        page_spec=PageSpec(page_bytes=8192, tuple_bytes=16),
        plan_cache_entries=cache_entries,
        result_cache_entries=cache_entries,
        admission_timeout=600.0,
        max_sessions=max(64, n_sessions),
    ) as service:
        barrier = threading.Barrier(n_sessions)

        def client(session_number: int) -> None:
            try:
                with service.open_session(label=f"bench-{session_number}") as session:
                    barrier.wait()
                    for _ in range(queries_per_session):
                        result = session.join(
                            "works_on",
                            "earns",
                            method="partition",
                            result_timeout=600.0,
                        )
                        with lock:
                            records.append(result)
            except Exception as error:  # pragma: no cover -- reported below
                with lock:
                    errors.append(str(error))

        threads = [
            threading.Thread(target=client, args=(number,))
            for number in range(n_sessions)
        ]
        begin = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - begin

    if errors:
        raise AssertionError(f"workload errors: {errors[:3]}")
    cardinalities = {record.outcome.n_result_tuples for record in records}
    if len(cardinalities) != 1:
        raise AssertionError(
            f"sessions disagreed on the result: cardinalities {cardinalities}"
        )
    waits = [record.queue_wait_seconds for record in records]
    hits = [record for record in records if record.result_cache_hit]
    return {
        "sessions": n_sessions,
        "queries": len(records),
        "seconds": round(elapsed, 4),
        "queries_per_second": round(len(records) / elapsed, 2),
        "queue_wait_p50_seconds": round(percentile(waits, 0.50), 6),
        "queue_wait_p95_seconds": round(percentile(waits, 0.95), 6),
        "result_cache_hits": len(hits),
        "hit_charged_ops": sum(record.charged_ops for record in hits),
        "miss_charged_ops": sum(
            record.charged_ops for record in records if not record.result_cache_hit
        ),
        "n_result_tuples": cardinalities.pop(),
    }


def run_benchmark(
    n_tuples: int,
    *,
    queries_per_session: int = 6,
    memory_pages: int = 48,
    execution: str = "batch",
    session_counts: Sequence[int] = SESSION_COUNTS,
) -> Dict:
    serial = _drive(
        n_tuples,
        1,
        queries_per_session,
        caching=False,
        memory_pages=memory_pages,
        execution=execution,
    )
    points: Dict[str, Dict] = {}
    for n_sessions in session_counts:
        point = _drive(
            n_tuples,
            n_sessions,
            queries_per_session,
            caching=True,
            memory_pages=memory_pages,
            execution=execution,
        )
        if point["n_result_tuples"] != serial["n_result_tuples"]:
            raise AssertionError(
                "cached serving changed the answer: "
                f"{point['n_result_tuples']} != {serial['n_result_tuples']}"
            )
        point["speedup_vs_serial"] = round(
            point["queries_per_second"] / serial["queries_per_second"], 2
        )
        points[str(n_sessions)] = point
    return {
        "workload": {
            "n_tuples_per_side": n_tuples,
            "queries_per_session": queries_per_session,
            "memory_pages": memory_pages,
            "execution": execution,
            "join": "works_on JOIN_V earns (probe-heavy generator)",
        },
        "environment": environment(),
        "serial_baseline": serial,
        "sessions": points,
    }


def format_report(report: Dict) -> List[str]:
    workload = report["workload"]
    lines = [
        "service throughput -- {n_tuples_per_side} x {n_tuples_per_side} tuples, "
        "{queries_per_session} queries/session, execution={execution}".format(
            **workload
        ),
        f"{'point':<14} {'queries':>8} {'seconds':>9} {'qps':>9} "
        f"{'speedup':>8} {'hits':>6} {'wait p95':>10}",
    ]
    serial = report["serial_baseline"]
    lines.append(
        f"{'serial':<14} {serial['queries']:>8} {serial['seconds']:>9.3f} "
        f"{serial['queries_per_second']:>9.2f} {'1.0':>8} {'-':>6} "
        f"{serial['queue_wait_p95_seconds']:>10.4f}"
    )
    for count, point in report["sessions"].items():
        lines.append(
            f"{count + ' sessions':<14} {point['queries']:>8} "
            f"{point['seconds']:>9.3f} {point['queries_per_second']:>9.2f} "
            f"{point['speedup_vs_serial']:>8.2f} {point['result_cache_hits']:>6} "
            f"{point['queue_wait_p95_seconds']:>10.4f}"
        )
    return lines


def check_report(fresh: Dict, committed_path: Path) -> List[str]:
    """The CI gate: zero-I/O cache hits and the acceptance speedups."""
    failures: List[str] = []
    for count, point in fresh["sessions"].items():
        if point["hit_charged_ops"] != 0:
            failures.append(
                f"{count} sessions: result-cache hits charged "
                f"{point['hit_charged_ops']} I/O ops (must be exactly 0)"
            )
        if point["result_cache_hits"] == 0 and point["queries"] > 1:
            failures.append(f"{count} sessions: repeated queries never hit the cache")
    smoke_speedup = fresh["sessions"]["4"]["speedup_vs_serial"]
    if smoke_speedup < SMOKE_SPEEDUP_FLOOR:
        failures.append(
            f"re-measured 4-session speedup {smoke_speedup} fell under the "
            f"smoke floor {SMOKE_SPEEDUP_FLOOR}"
        )
    committed = load_report(committed_path)
    committed_speedup = committed["sessions"]["4"]["speedup_vs_serial"]
    if committed_speedup < FULL_SCALE_SPEEDUP_FLOOR:
        failures.append(
            f"committed {committed_path} shows 4-session speedup "
            f"{committed_speedup} < required {FULL_SCALE_SPEEDUP_FLOOR}"
        )
    for count, point in committed["sessions"].items():
        if point["hit_charged_ops"] != 0:
            failures.append(
                f"committed {committed_path}: {count}-session hits charged "
                f"{point['hit_charged_ops']} I/O ops"
            )
    return failures


def test_service_throughput(benchmark):
    """Pytest entry: the same comparison at the suite's bench scale."""
    from conftest import bench_scale

    n_tuples = max(2_000, 50_000 // bench_scale())
    report = benchmark.pedantic(
        run_benchmark,
        args=(n_tuples,),
        kwargs={"queries_per_session": 4, "session_counts": (1, 4)},
        rounds=1,
        iterations=1,
    )
    print()
    for line in format_report(report):
        print(line)
    benchmark.extra_info.update(
        {
            f"qps_{count}_sessions": point["queries_per_second"]
            for count, point in report["sessions"].items()
        }
    )
    for point in report["sessions"].values():
        assert point["hit_charged_ops"] == 0
    assert report["sessions"]["4"]["speedup_vs_serial"] > 1.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tuples", type=int, default=50_000, help="tuples per side")
    parser.add_argument("--queries-per-session", type=int, default=6)
    parser.add_argument("--memory-pages", type=int, default=48)
    parser.add_argument(
        "--execution",
        default="batch",
        choices=EXECUTION_MODES,
    )
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--check",
        type=Path,
        default=None,
        metavar="COMMITTED_JSON",
        help="gate against a committed report instead of overwriting it",
    )
    args = parser.parse_args(argv)
    if args.tuples < 1:
        parser.error(f"--tuples must be >= 1, got {args.tuples}")

    report = run_benchmark(
        args.tuples,
        queries_per_session=args.queries_per_session,
        memory_pages=args.memory_pages,
        execution=args.execution,
    )
    for line in format_report(report):
        print(line)
    if args.check is not None:
        failures = check_report(report, args.check)
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}")
            return 1
        print(f"ok: zero-I/O cache hits and speedups hold against {args.check}")
        return 0
    write_report(report, args.output)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
