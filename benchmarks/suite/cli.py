"""Command line of the suite: one workload run, ``--smoke``, or ``compare``.

A run prints every declared metric by name with its unit and ends with one
JSON line ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.  The exit
code is non-zero when any operation failed or disagreed with the oracle.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from benchmarks.suite import library, service
from benchmarks.suite.compare import compare
from benchmarks.suite.metrics import (
    OUTPUT_DIR,
    RunResult,
    append_record,
    declared,
    environment,
    finalize,
    load_average,
    load_declaration,
    print_report,
    warn_if_loaded,
)
from benchmarks.suite.spans import SpanRecorder

DEFAULT_SEED = 1994
#: ``--smoke`` divides every input size by this and measures this long.
SMOKE_SCALE = 10
SMOKE_SECONDS = 0.2


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: int = 1,
    setups: int = library.SETUP_REPEATS,
) -> Tuple[RunResult, Optional[SpanRecorder]]:
    module = library if workload in library.WORKLOADS else service
    if trace:
        return module.run_traced(workload, seed, seconds, scale)
    return module.run_end_to_end(workload, seed, seconds, scale, setups), None


def _run(args: argparse.Namespace, declaration: Dict) -> int:
    load_start = load_average()
    began = time.time()
    seconds = args.seconds if args.seconds is not None else float(declaration["run_seconds"])
    trace = bool(args.trace)
    result, recorder = run_workload(args.workload, args.seed, seconds, trace)
    metrics = finalize(result, declared(declaration, trace), fill_missing=trace)
    print_report(args.workload, result, metrics, numbers=True)
    if recorder is not None:
        trace_out = args.trace_out or OUTPUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        recorder.write(trace_out)
        print(f"chrome trace written to {trace_out}")
    correct = result.failed == 0
    load_end = load_average()
    warn_if_loaded(load_start, load_end)
    if args.output is not None:
        append_record(
            args.output,
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": seconds,
                "trace": int(trace),
                "started_unix": began,
                "correct": correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
                "n_samples": result.n_samples,
                "raw": result.raw,
                "exact": result.exact,
                "inputs_sha256": result.inputs_sha256,
                "env": environment(args.seed, load_start, load_end),
            },
        )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def _smoke(declaration: Dict, seed: int) -> int:
    """Every workload at 1/10 size, both trace modes: oracle and schema only."""
    began = time.perf_counter()
    printed: List[str] = []
    failed = 0
    for row in declaration["workloads"]:
        for trace in (False, True):
            result, _ = run_workload(
                row["name"], seed, SMOKE_SECONDS, trace, scale=SMOKE_SCALE, setups=1
            )
            metrics = finalize(result, declared(declaration, trace), fill_missing=trace)
            print_report(row["name"], result, metrics, numbers=False)
            printed.extend(metrics)
            failed += result.failed
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in declaration[key]]
    missing = sorted(set(names) - set(printed))
    if missing:
        print(f"smoke: declared but never printed: {missing}")
    verdict = "ok" if not failed and not missing else "FAILED"
    print(
        f"smoke {verdict}: {len(declaration['workloads'])} workloads, "
        f"{len(names)} metric names, {failed} failed checks, "
        f"{time.perf_counter() - began:.1f} s"
    )
    return 0 if verdict == "ok" else 1


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="benchmarks.suite compare")
        parser.add_argument("base", type=Path, help="output file of the base runs (A)")
        parser.add_argument("change", type=Path, help="output file of the changed runs (B)")
        args = parser.parse_args(argv[1:])
        return compare(args.base, args.change)

    declaration = load_declaration()
    names = [row["name"] for row in declaration["workloads"]]
    parser = argparse.ArgumentParser(prog="benchmarks.suite", description=__doc__)
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help=f"length of the timed loop (default: run_seconds = {declaration['run_seconds']})",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="0: end-to-end metrics, every tracer off; 1: per-layer metrics",
    )
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads at 1/10 size: oracle and metric schema only")
    parser.add_argument("--output", type=Path, default=None,
                        help="append this run, with its environment, to a JSON output file")
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="where --trace 1 writes its Chrome trace")
    args = parser.parse_args(argv)
    if args.smoke:
        return _smoke(declaration, args.seed)
    if args.workload is None:
        parser.error("--workload is required (or --smoke, or the compare subcommand)")
    return _run(args, declaration)
