"""Script entry point: ``python3 benchmarks/suite/run.py --workload <name> ...``.

Puts the repository root and ``src/`` on ``sys.path`` so the suite runs from
a bare checkout, then hands over to :mod:`benchmarks.suite.cli`.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"{ROOT / 'src' / 'repro'} not found: nothing to benchmark")
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.suite.processes import guard

    guard()  # before anything imports multiprocessing, so it reaps last
    from benchmarks.suite.cli import main

    sys.exit(main())
