"""Metric plumbing: the declared names, statistics, environment, run records.

``BENCHMARK.json`` at the repository root is the single declaration of
every metric's name, unit, direction and bound; the suite reads it at run
time so the declaration and what is printed cannot drift apart.
"""

from __future__ import annotations

import importlib.metadata
import json
import math
import os
import platform
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
OUTPUT_DIR = ROOT / ".bench_out"

#: Numbers that must repeat bit-for-bit at one seed.  They ride in every
#: output file's ``exact`` block and ``compare`` demands equality on them.
EXACT_NAMES = ("charged_cost", "service_cost", "result_tuples")


def load_declaration() -> Dict:
    return json.loads(BENCHMARK_JSON.read_text())


def declared(declaration: Dict, trace: bool) -> List[Dict]:
    """The metric rows a run with this ``--trace`` value must print."""
    return declaration["per_layer" if trace else "end_to_end"]


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], share: float) -> float:
    """Linear-interpolated percentile (``share`` in 0..1) of *values*."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = share * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


# -- the machine --------------------------------------------------------------


def peak_rss_mb() -> float:
    """High-water resident set of this process plus its reaped children, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


def load_average() -> float:
    return os.getloadavg()[0]


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def _numpy_version() -> Optional[str]:
    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        return None


def warn_if_loaded(load_start: float, load_end: float) -> None:
    """A busy machine is reported on stderr, never folded into a metric."""
    nproc = os.cpu_count() or 1
    for label, load in (("start", load_start), ("end", load_end)):
        if load > nproc:
            print(
                f"warning: 1-minute load average at {label} was {load:.2f} on "
                f"{nproc} cores; timings may be inflated",
                file=sys.stderr,
            )


def environment(seed: int, load_start: float, load_end: float) -> Dict:
    """What every output file records about where its numbers came from."""
    from repro.exec import backend_name

    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "backend": backend_name(),
        "loadavg_start": load_start,
        "loadavg_end": load_end,
        "seed": seed,
        "git_commit": _git_commit(),
    }


# -- run records --------------------------------------------------------------


@dataclass
class RunResult:
    """What one workload run measured, before it is checked and printed.

    Attributes:
        values: metric name -> measured value.
        n_samples: metric name -> samples behind a median or percentile.
        raw: the timings as the clock read them, and the speed factors that
            turned them into *values* (see :mod:`benchmarks.suite.speed`).
        exact: the :data:`EXACT_NAMES` numbers, repeatable at one seed.
        attempted / failed: operations tried, and those that raised, timed
            out or disagreed with the oracle or with the first repetition.
        inputs_sha256: relation name -> fingerprint of its generated columns.
        notes: human-readable lines (mode table, cross-checks).
    """

    values: Dict[str, float] = field(default_factory=dict)
    n_samples: Dict[str, int] = field(default_factory=dict)
    raw: Dict[str, float] = field(default_factory=dict)
    exact: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    inputs_sha256: Dict[str, str] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.notes.append(f"FAILED: {message}")


def finalize(result: RunResult, rows: Sequence[Dict], *, fill_missing: bool) -> Dict:
    """The ``metrics`` object of the result line: every declared row, typed.

    Per-layer rows a workload does not exercise read 0 (*fill_missing*); an
    end-to-end row must always be measured.

    Raises:
        ValueError: a declared metric is missing or not a finite number.
    """
    metrics = {}
    for row in rows:
        name = row["name"]
        if name not in result.values:
            if not fill_missing:
                raise ValueError(f"metric {name!r} was not measured")
            value = 0.0
        else:
            value = result.values[name]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"metric {name!r} is not a finite number: {value!r}")
        metrics[name] = {"value": value, "unit": row["unit"]}
    return metrics


def print_report(workload: str, result: RunResult, metrics: Dict, *, numbers: bool) -> None:
    """Every metric by name with its unit (names only when *numbers* is off)."""
    for name, sha in sorted(result.inputs_sha256.items()):
        print(f"input {workload}/{name} sha256={sha}")
    for note in result.notes:
        print(note)
    for name, entry in metrics.items():
        samples = result.n_samples.get(name)
        suffix = f"  (n_samples={samples})" if samples is not None else ""
        if name not in result.values:
            shown = "n/a"  # a layer this workload does not exercise; 0 in the result line
        else:
            shown = f"{entry['value']:.6g}" if numbers else "measured"
        print(f"{workload:<13} {name:<44} {shown:>14} {entry['unit']}{suffix}")
    if numbers:
        for name, value in result.raw.items():
            print(f"{workload:<13} raw {name:<40} {value:>14.6g}")


def append_record(path: Path, record: Dict) -> None:
    """Add *record* to the ``runs`` list of the output file at *path*."""
    runs = json.loads(path.read_text())["runs"] if path.exists() else []
    runs.append(record)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"runs": runs}, indent=1) + "\n")
