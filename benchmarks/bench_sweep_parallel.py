"""Pipelined-sweep throughput: tuple vs batch vs batch-parallel-sweep.

Runs the same partition join (by default 50 000 x 50 000 tuples, the
``harness`` probe-heavy workload) under the tuple oracle, ``"batch"``, and
the pipelined ``"batch-parallel-sweep"`` mode (the same batch engine plus
prefetch and write-behind), and reports wall-clock throughput plus the
charged-I/O bill of each.  Before reporting, it asserts the contract:
identical join outcomes in every mode, identical per-phase op *counts* for
the pipelined mode, and a weighted I/O cost never above the serial sweep
-- a speedup can never come from doing less (or different) work.

Writes machine-readable ``BENCH_sweep.json`` next to the repo root.  Run
standalone::

    PYTHONPATH=src python benchmarks/bench_sweep_parallel.py

CI gates on the committed numbers with ``--check``::

    PYTHONPATH=src python benchmarks/bench_sweep_parallel.py \\
        --tuples 8000 --check BENCH_sweep.json

which re-measures the charged-I/O cost ratio (pipelined sweep vs batch)
and fails if it regressed more than 10% against the committed report.
"""

from __future__ import annotations

import argparse
import os
from pathlib import Path
from typing import Dict, List, Optional

from harness import (
    REPO_ROOT,
    environment,
    load_report,
    observed_config,
    phase_op_fingerprint,
    phase_stats_fingerprint,
    probe_heavy_relation,
    result_fingerprint,
    time_modes,
    write_report,
    write_trace,
)
from repro.core.partition_join import PartitionJoinConfig, partition_join
from repro.storage.page import PageSpec

MODES = ("tuple", "batch", "batch-parallel-sweep")
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_sweep.json"

#: CI regression gate: the pipelined sweep's charged-I/O cost, as a ratio
#: of the batch mode's, may drift at most this much above the committed
#: report before the perf-smoke job fails.
IO_RATIO_TOLERANCE = 0.10


def run_benchmark(
    n_tuples: int,
    *,
    memory_pages: int = 48,
    prefetch_depth: int = 8,
) -> Dict:
    r = probe_heavy_relation("works_on", n_tuples, seed=1994)
    s = probe_heavy_relation("earns", n_tuples, seed=1995)
    page_spec = PageSpec(page_bytes=8192, tuple_bytes=16)

    def make_config(mode: str) -> PartitionJoinConfig:
        return PartitionJoinConfig(
            memory_pages=memory_pages,
            page_spec=page_spec,
            execution=mode,
            prefetch_depth=prefetch_depth,
            collect_result=False,
            # A small planner grid keeps mode-independent planning time from
            # diluting the comparison; all modes share the same plan.
            max_plan_candidates=6,
        )

    results = time_modes(r, s, MODES, make_config)

    # -- the equivalence contract, asserted before any number is reported --
    oracle = results["tuple"]["run"]
    for mode in MODES[1:]:
        run = results[mode]["run"]
        if result_fingerprint(run) != result_fingerprint(oracle):
            raise AssertionError(f"execution={mode!r} changed the join outcome")
    # Batch replays the oracle's access sequence byte for byte; the
    # pipelined sweep may reorder accesses (read-ahead, write-behind) but
    # must charge the same op counts per phase at no higher weighted cost.
    if phase_stats_fingerprint(results["batch"]["run"]) != phase_stats_fingerprint(oracle):
        raise AssertionError("execution='batch' diverged from the tuple I/O sequence")
    sweep = results["batch-parallel-sweep"]
    if phase_op_fingerprint(sweep["run"]) != phase_op_fingerprint(oracle):
        raise AssertionError(
            "execution='batch-parallel-sweep' changed per-phase op counts"
        )
    if sweep["io"]["io_cost"] > results["tuple"]["io"]["io_cost"]:
        raise AssertionError("the pipelined sweep must never cost more I/O")

    for row in results.values():
        del row["run"]
    for mode in MODES[1:]:
        results[mode]["speedup_vs_tuple"] = round(
            results[mode]["tuples_per_sec"] / results["tuple"]["tuples_per_sec"], 2
        )
    sweep["speedup_vs_batch"] = round(
        sweep["tuples_per_sec"] / results["batch"]["tuples_per_sec"], 2
    )
    sweep["io_cost_ratio_vs_batch"] = round(
        sweep["io"]["io_cost"] / results["batch"]["io"]["io_cost"], 4
    )

    return {
        "workload": {
            "n_tuples_per_side": n_tuples,
            "memory_pages": memory_pages,
            "page_bytes": page_spec.page_bytes,
            "tuple_bytes": page_spec.tuple_bytes,
            "prefetch_depth": prefetch_depth,
            "num_partitions": results["tuple"]["num_partitions"],
        },
        "environment": environment(),
        "modes": results,
    }


def trace_join(
    n_tuples: int,
    trace_out: Path,
    *,
    memory_pages: int = 48,
    prefetch_depth: int = 8,
) -> Dict[str, Path]:
    """One extra *observed* pipelined-sweep run, exporting its trace.

    Kept separate from the timed comparison so the observability hooks can
    never color the reported numbers or the equivalence fingerprints.
    """
    r = probe_heavy_relation("works_on", n_tuples, seed=1994)
    s = probe_heavy_relation("earns", n_tuples, seed=1995)
    config = observed_config(
        PartitionJoinConfig(
            memory_pages=memory_pages,
            page_spec=PageSpec(page_bytes=8192, tuple_bytes=16),
            execution="batch-parallel-sweep",
            prefetch_depth=prefetch_depth,
            collect_result=False,
            max_plan_candidates=6,
        )
    )
    run = partition_join(r, s, config)
    return write_trace(run, trace_out)


def format_report(report: Dict) -> List[str]:
    lines = [
        "pipelined sweep -- {n_tuples_per_side} x {n_tuples_per_side} tuples, "
        "{num_partitions} partitions, "
        "depth={prefetch_depth}, backend={backend}".format(
            backend=report["environment"]["backend"], **report["workload"]
        ),
        f"{'mode':<22} {'seconds':>9} {'tuples/sec':>12} {'io cost':>10} {'speedup':>8}",
    ]
    for mode, row in report["modes"].items():
        speedup = row.get("speedup_vs_tuple", 1.0)
        lines.append(
            f"{mode:<22} {row['seconds']:>9.3f} {row['tuples_per_sec']:>12,.0f} "
            f"{row['io']['io_cost']:>10,.0f} {speedup:>8}"
        )
    sweep = report["modes"]["batch-parallel-sweep"]
    lines.append(
        f"sweep vs batch: {sweep['speedup_vs_batch']}x wall-clock, "
        f"{sweep['io_cost_ratio_vs_batch']}x charged I/O cost"
    )
    return lines


def check_against(report: Dict, committed_path: Path) -> List[str]:
    """The CI perf-smoke gate: fresh I/O ratio vs the committed report."""
    committed = load_report(committed_path)
    failures = []
    fresh = report["modes"]["batch-parallel-sweep"]["io_cost_ratio_vs_batch"]
    baseline = committed["modes"]["batch-parallel-sweep"]["io_cost_ratio_vs_batch"]
    bound = baseline * (1.0 + IO_RATIO_TOLERANCE)
    if fresh > bound:
        failures.append(
            f"charged-I/O ratio regressed: {fresh} > {bound:.4f} "
            f"(committed {baseline} + {IO_RATIO_TOLERANCE:.0%})"
        )
    if report["modes"]["batch-parallel-sweep"]["n_result_tuples"] <= 0 < report[
        "workload"
    ]["n_tuples_per_side"]:
        failures.append("smoke workload produced no result tuples")
    return failures


def test_sweep_throughput(benchmark):
    """Pytest entry: the same comparison at the suite's bench scale."""
    scale = int(os.environ.get("REPRO_BENCH_SCALE", 16))
    n_tuples = max(8_000, 50_000 // scale)
    report = benchmark.pedantic(run_benchmark, args=(n_tuples,), rounds=1, iterations=1)
    print()
    for line in format_report(report):
        print(line)
    benchmark.extra_info.update(
        {mode: row["tuples_per_sec"] for mode, row in report["modes"].items()}
    )
    sweep = report["modes"]["batch-parallel-sweep"]
    assert sweep["io_cost_ratio_vs_batch"] <= 1.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tuples", type=int, default=50_000, help="tuples per side")
    parser.add_argument("--memory-pages", type=int, default=48)
    parser.add_argument("--prefetch-depth", type=int, default=8)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        metavar="TRACE_JSON",
        help="also run one observed join and export a Chrome trace_event "
        "JSON here plus a <stem>.metrics.json snapshot beside it",
    )
    parser.add_argument(
        "--check",
        type=Path,
        default=None,
        metavar="COMMITTED_JSON",
        help="regression-gate mode: compare against a committed report "
        "instead of writing one",
    )
    args = parser.parse_args(argv)
    if args.tuples < 1:
        parser.error(f"--tuples must be >= 1, got {args.tuples}")

    report = run_benchmark(
        args.tuples,
        memory_pages=args.memory_pages,
        prefetch_depth=args.prefetch_depth,
    )
    for line in format_report(report):
        print(line)

    if args.trace_out is not None:
        paths = trace_join(
            args.tuples,
            args.trace_out,
            memory_pages=args.memory_pages,
            prefetch_depth=args.prefetch_depth,
        )
        print(f"wrote {paths['trace']} and {paths['metrics']}")

    if args.check is not None:
        failures = check_against(report, args.check)
        for failure in failures:
            print(f"FAIL: {failure}")
        if failures:
            return 1
        print(f"ok: within {IO_RATIO_TOLERANCE:.0%} of {args.check}")
        return 0

    write_report(report, args.output)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
