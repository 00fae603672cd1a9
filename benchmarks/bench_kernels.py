"""Kernel throughput: tuple-at-a-time vs batch execution.

Runs the same partition join (by default 50 000 x 50 000 tuples, ~250 keys,
mostly instantaneous intervals over a long lifespan, so the candidate space
dwarfs the result) under the ``"tuple"`` and ``"batch"`` execution modes and
reports wall-clock tuples/sec.  The modes are required to produce identical
results and identical per-phase I/O statistics -- the benchmark asserts
this before reporting, so a speedup can never come from doing less work.

Writes a machine-readable ``BENCH_kernels.json`` next to the repo root
(override with ``--output``).  Run standalone::

    PYTHONPATH=src python benchmarks/bench_kernels.py

or through pytest (scaled down via ``REPRO_BENCH_SCALE``, like the other
benches)::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py -s
"""

from __future__ import annotations

import argparse
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from harness import (
    REPO_ROOT,
    environment,
    observed_config,
    phase_stats_fingerprint,
    probe_heavy_relation,
    result_fingerprint,
    write_report,
    write_trace,
)
from repro.core.partition_join import PartitionJoinConfig, partition_join
from repro.storage.page import PageSpec

MODES = ("tuple", "batch")
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_kernels.json"


def observe(run) -> tuple:
    """The equivalence fingerprint: counts plus per-phase I/O statistics.

    These modes replay the oracle's access sequence byte for byte, so the
    fingerprint includes the full random/sequential breakdown (unlike the
    pipelined sweep of ``bench_sweep_parallel.py``, which may reorder).
    """
    return result_fingerprint(run) + (phase_stats_fingerprint(run),)


def run_benchmark(
    n_tuples: int,
    *,
    memory_pages: int = 48,
    modes: Sequence[str] = MODES,
) -> Dict:
    r = probe_heavy_relation("works_on", n_tuples, seed=1994)
    s = probe_heavy_relation("earns", n_tuples, seed=1995)
    page_spec = PageSpec(page_bytes=8192, tuple_bytes=16)

    results: Dict[str, Dict] = {}
    fingerprints: Dict[str, tuple] = {}
    for mode in modes:
        config = PartitionJoinConfig(
            memory_pages=memory_pages,
            page_spec=page_spec,
            execution=mode,
            collect_result=False,
            # A small planner grid keeps mode-independent planning time from
            # diluting the kernel comparison; all modes share the same plan.
            max_plan_candidates=6,
        )
        begin = time.perf_counter()
        run = partition_join(r, s, config)
        elapsed = time.perf_counter() - begin
        fingerprints[mode] = observe(run)
        results[mode] = {
            "seconds": round(elapsed, 4),
            "tuples_per_sec": round((len(r) + len(s)) / elapsed, 1),
            "n_result_tuples": run.outcome.n_result_tuples,
            "num_partitions": run.plan.num_partitions,
        }

    for mode in modes[1:]:
        if fingerprints[mode] != fingerprints[modes[0]]:
            raise AssertionError(
                f"execution={mode!r} diverged from {modes[0]!r}; "
                "a speedup must never come from different work"
            )
        results[mode]["speedup_vs_tuple"] = round(
            results[mode]["tuples_per_sec"] / results["tuple"]["tuples_per_sec"], 2
        )

    return {
        "workload": {
            "n_tuples_per_side": n_tuples,
            "memory_pages": memory_pages,
            "page_bytes": page_spec.page_bytes,
            "tuple_bytes": page_spec.tuple_bytes,
            "num_partitions": results[modes[0]]["num_partitions"],
        },
        "environment": environment(),
        "modes": results,
    }


def trace_join(
    n_tuples: int,
    trace_out: Path,
    *,
    memory_pages: int = 48,
) -> Dict[str, Path]:
    """One extra *observed* batch-kernel run, exporting its trace.

    Kept separate from the timed comparison so the observability hooks can
    never color the reported numbers or the equivalence fingerprints.
    """
    r = probe_heavy_relation("works_on", n_tuples, seed=1994)
    s = probe_heavy_relation("earns", n_tuples, seed=1995)
    config = observed_config(
        PartitionJoinConfig(
            memory_pages=memory_pages,
            page_spec=PageSpec(page_bytes=8192, tuple_bytes=16),
            execution="batch",
            collect_result=False,
            max_plan_candidates=6,
        )
    )
    run = partition_join(r, s, config)
    return write_trace(run, trace_out)


def format_report(report: Dict) -> List[str]:
    lines = [
        "kernel throughput -- {n_tuples_per_side} x {n_tuples_per_side} tuples, "
        "{num_partitions} partitions, backend={backend}".format(
            backend=report["environment"]["backend"], **report["workload"]
        ),
        f"{'mode':<16} {'seconds':>9} {'tuples/sec':>12} {'speedup':>8}",
    ]
    for mode, row in report["modes"].items():
        speedup = row.get("speedup_vs_tuple")
        lines.append(
            f"{mode:<16} {row['seconds']:>9.3f} {row['tuples_per_sec']:>12,.0f} "
            f"{speedup if speedup is not None else 1.0:>8}"
        )
    return lines


def test_kernel_throughput(benchmark):
    """Pytest entry: the same comparison at the suite's bench scale."""
    scale = int(os.environ.get("REPRO_BENCH_SCALE", 16))
    n_tuples = max(2_000, 50_000 // scale)
    report = benchmark.pedantic(
        run_benchmark, args=(n_tuples,), rounds=1, iterations=1
    )
    print()
    for line in format_report(report):
        print(line)
    # The committed BENCH_kernels.json records the full 50k x 50k run and
    # is regenerated only by ``main()`` -- a scaled-down pytest pass must
    # not clobber it.
    benchmark.extra_info.update(
        {mode: row["tuples_per_sec"] for mode, row in report["modes"].items()}
    )
    # The acceptance bar (>= 5x) is asserted at full 50k scale by main();
    # at reduced scale the kernels must still win outright.
    assert report["modes"]["batch"]["speedup_vs_tuple"] > 1.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tuples", type=int, default=50_000, help="tuples per side")
    parser.add_argument("--memory-pages", type=int, default=48)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        metavar="TRACE_JSON",
        help="also run one observed join and export a Chrome trace_event "
        "JSON here plus a <stem>.metrics.json snapshot beside it",
    )
    args = parser.parse_args(argv)
    if args.tuples < 1:
        parser.error(f"--tuples must be >= 1, got {args.tuples}")

    report = run_benchmark(args.tuples, memory_pages=args.memory_pages)
    for line in format_report(report):
        print(line)
    if args.trace_out is not None:
        paths = trace_join(
            args.tuples, args.trace_out, memory_pages=args.memory_pages
        )
        print(f"wrote {paths['trace']} and {paths['metrics']}")
    write_report(report, args.output)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
