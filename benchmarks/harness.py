"""Shared machinery of the benchmark suite.

Every bench that compares execution modes needs the same four things: a
probe-heavy workload whose candidate space dwarfs its result, a wall-clock
timer around :func:`repro.core.partition_join.partition_join`, an
equivalence fingerprint that stops a "speedup" from ever coming from doing
different work, and a machine-readable report written next to the repo
root so CI can gate on committed numbers.  This module holds all four;
``bench_kernels.py`` and ``bench_sweep_parallel.py`` are thin drivers on
top of it.
"""

from __future__ import annotations

import json
import platform
import random
import time
from pathlib import Path
from typing import Callable, Dict, Sequence, Tuple

from repro.core.partition_join import PartitionJoinConfig, partition_join
from repro.exec import backend_name
from repro.model.relation import ValidTimeRelation
from repro.model.schema import RelationSchema
from repro.model.vtuple import VTTuple
from repro.time.interval import Interval

#: Reports land next to the repo root, beside BENCH_kernels.json.
REPO_ROOT = Path(__file__).resolve().parent.parent


def probe_heavy_relation(
    name: str, n_tuples: int, *, seed: int, n_keys: int = 32, lifespan: int = 50_000
) -> ValidTimeRelation:
    """A relation whose join candidates vastly outnumber its matches.

    32 keys over 50k tuples gives ~1.5k tuples per key per side, i.e. a
    candidate space of tens of millions of key-matching pairs, while the
    short intervals scattered over a long lifespan keep actual
    intersections rare.  That ratio is exactly where per-candidate overhead
    dominates and both the vectorized kernels and the interval-pruned
    probe pay off.
    """
    schema = RelationSchema(
        name, join_attributes=("k",), payload_attributes=(f"{name}_payload",)
    )
    rng = random.Random(seed)
    relation = ValidTimeRelation(schema)
    for number in range(n_tuples):
        key = (f"k{rng.randrange(n_keys)}",)
        start = rng.randrange(lifespan)
        end = min(lifespan - 1, start + rng.randrange(4))
        relation.add(VTTuple(key, (f"{name}{number}",), Interval(start, end)))
    return relation


def result_fingerprint(run) -> tuple:
    """What every mode must reproduce exactly: the join's outcome counters."""
    outcome = run.outcome
    return (
        outcome.n_result_tuples,
        outcome.overflow_blocks,
        outcome.cache_tuples_peak,
        outcome.cache_tuples_spilled,
    )


def phase_stats_fingerprint(run) -> dict:
    """Full per-phase random/sequential breakdown (byte-for-byte modes)."""
    return {
        name: (s.random_reads, s.sequential_reads, s.random_writes, s.sequential_writes)
        for name, s in run.layout.tracker.phases.items()
    }


def phase_op_fingerprint(run) -> dict:
    """Per-phase (reads, writes) op counts -- the contract of modes that may
    legally *reorder* accesses (never add or drop one)."""
    return {
        name: (s.reads, s.writes) for name, s in run.layout.tracker.phases.items()
    }


def charged_io(run, config: PartitionJoinConfig) -> Dict:
    """The charged-I/O row of a report: op counts, weighted cost, tags."""
    stats = run.layout.tracker.stats
    return {
        "total_ops": stats.total_ops,
        "reads": stats.reads,
        "writes": stats.writes,
        "io_cost": round(stats.cost(config.cost_model), 1),
        "prefetch_reads": stats.prefetch_reads,
        "writeback_writes": stats.writeback_writes,
    }


def timed_join(r, s, config: PartitionJoinConfig) -> Tuple[object, float]:
    """One partition join under *config*, wall-clock timed."""
    begin = time.perf_counter()
    run = partition_join(r, s, config)
    return run, time.perf_counter() - begin


def time_modes(
    r,
    s,
    modes: Sequence[str],
    make_config: Callable[[str], PartitionJoinConfig],
) -> Dict[str, Dict]:
    """Run *modes* over the same workload; per-mode timing + I/O rows.

    The caller asserts its own equivalence contract on the returned runs
    (stored under ``"run"``; strip before serializing).
    """
    results: Dict[str, Dict] = {}
    for mode in modes:
        config = make_config(mode)
        run, elapsed = timed_join(r, s, config)
        results[mode] = {
            "run": run,
            "seconds": round(elapsed, 4),
            "tuples_per_sec": round((len(r) + len(s)) / elapsed, 1),
            "n_result_tuples": run.outcome.n_result_tuples,
            "num_partitions": run.plan.num_partitions,
            "io": charged_io(run, config),
        }
    return results


def environment() -> Dict:
    return {
        "backend": backend_name(),
        "python": platform.python_version(),
    }


def write_report(report: Dict, output: Path) -> None:
    output.write_text(json.dumps(report, indent=2) + "\n")


def load_report(path: Path) -> Dict:
    return json.loads(path.read_text())


def observed_config(config: PartitionJoinConfig) -> PartitionJoinConfig:
    """*config* with observability switched on (for ``--trace-out`` runs)."""
    import dataclasses

    from repro.obs import ObservabilityConfig

    if config.observability is not None:
        return config
    return dataclasses.replace(config, observability=ObservabilityConfig())


def write_trace(run, trace_out: Path) -> Dict[str, Path]:
    """Export a run's observability artifacts next to *trace_out*.

    Writes the Chrome ``trace_event`` JSON to *trace_out* (load it in
    ``chrome://tracing`` / Perfetto) and the metrics snapshot to
    ``<trace_out stem>.metrics.json``.  Returns the written paths.
    """
    obs = run.observability
    if obs is None:
        raise ValueError(
            "run has no observability runtime; build its config via "
            "observed_config() before joining"
        )
    trace_out = Path(trace_out)
    trace_out.write_text(json.dumps(obs.chrome_trace(), indent=2) + "\n")
    metrics_out = trace_out.with_name(trace_out.stem + ".metrics.json")
    metrics_out.write_text(json.dumps(obs.metrics_snapshot(), indent=2) + "\n")
    return {"trace": trace_out, "metrics": metrics_out}
