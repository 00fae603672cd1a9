"""``PYTHONPATH=src python -m benchmarks.suite ...`` from the repository root."""

import sys

from benchmarks.suite.processes import guard

guard()  # before anything imports multiprocessing, so it reaps last
from benchmarks.suite.cli import main  # noqa: E402

sys.exit(main())
