"""``compare A.json B.json``: one verdict per (workload, end-to-end metric).

Both files are output files of the suite (``--output``), each holding a set
of runs.  A is the base; every ratio is printed as B over A.  Verdicts use
the bounds fixed in ``BENCHMARK.json``:

* ``worse``       B's median is worse than A's by more than the bound;
* ``unresolved``  the run-to-run spread of either side is wider than the
                  bound (unless every run of B beats every run of A);
* ``better``      B's median is better than A's by more than the bound;
* ``unchanged``   everything else.

The exact numbers (``charged_cost``, ``service_cost``, ``result_tuples``)
must be bit-equal wherever both sides ran the same seed, and no operation
may have failed on either side.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from benchmarks.suite.metrics import EXACT_NAMES, load_declaration, median


def _load(path: Path) -> List[Dict]:
    return [run for run in json.loads(path.read_text())["runs"] if not run["trace"]]


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for a lone value)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    center = median(values)
    return (quartiles[2] - quartiles[0]) / center if center else 0.0


def verdict(base: Sequence[float], change: Sequence[float], better: str, bound: float) -> str:
    sign = -1.0 if better == "lower" else 1.0
    gain = sign * (median(change) - median(base)) / median(base)
    if gain < -bound:
        return "worse"
    if max(spread(base), spread(change)) > bound:
        beats_all = (
            max(change) < min(base) if better == "lower" else min(change) > max(base)
        )
        return "better" if beats_all else "unresolved"
    return "better" if gain > bound else "unchanged"


def _exact_rows(base_runs: Sequence[Dict], change_runs: Sequence[Dict]) -> List[Tuple[str, str]]:
    """One row per exact number: ``equal`` or what differs, seed by seed."""
    rows = []
    by_seed = {run["seed"]: run for run in base_runs}
    for name in EXACT_NAMES:
        differing = [
            f"seed {run['seed']}: {by_seed[run['seed']]['exact'][name]!r} vs {run['exact'][name]!r}"
            for run in change_runs
            if run["seed"] in by_seed
            and by_seed[run["seed"]]["exact"][name] != run["exact"][name]
        ]
        shared = sum(1 for run in change_runs if run["seed"] in by_seed)
        if not shared:
            rows.append((name, "no shared seed"))
        else:
            rows.append((name, "; ".join(differing) if differing else f"equal ({shared} runs)"))
    return rows


def compare(base_path: Path, change_path: Path) -> int:
    """Print the table; returns 1 when anything is worse, unequal or failed."""
    declaration = load_declaration()
    base, change = _load(base_path), _load(change_path)
    status = 0
    print(f"base A = {base_path}   change B = {change_path}   ratio = B/A (base A)")
    for workload in [row["name"] for row in declaration["workloads"]]:
        base_runs = [run for run in base if run["workload"] == workload]
        change_runs = [run for run in change if run["workload"] == workload]
        if not base_runs or not change_runs:
            print(f"{workload:<13} missing from {'A' if not base_runs else 'B'}")
            continue
        for row in declaration["end_to_end"]:
            name = row["name"]
            a = [run["metrics"][name]["value"] for run in base_runs]
            b = [run["metrics"][name]["value"] for run in change_runs]
            outcome = verdict(a, b, row["better"], row["bound"])
            status |= outcome == "worse"
            print(
                f"{workload:<13} {name:<14} A {median(a):12.4f}  B {median(b):12.4f} "
                f"{row['unit']:<5} B/A {median(b) / median(a):6.3f}  "
                f"spread A {spread(a):.3f} B {spread(b):.3f}  bound {row['bound']:.2f}  "
                f"n {len(a)}/{len(b)}  {outcome}"
            )
        for name, text in _exact_rows(base_runs, change_runs):
            status |= not text.startswith(("equal", "no shared"))
            print(f"{workload:<13} {name:<14} exact: {text}")
        attempted = sum(run["attempted"] for run in base_runs + change_runs)
        failed = sum(run["failed"] for run in base_runs + change_runs)
        status |= failed > 0
        print(f"{workload:<13} {'failed_share':<14} exact: {failed}/{attempted}")
    return int(status)
