"""The benchmark suite: five named workloads, two clocks, per-layer timings.

One command runs one workload, checks every result against an independent
oracle, and prints every metric named in ``BENCHMARK.json`` with its unit::

    python3 benchmarks/suite/run.py --workload probe_heavy --seed 1994
    PYTHONPATH=src python -m benchmarks.suite --workload probe_heavy --seed 1994

See ``benchmarks/suite/README.md`` for the metric glossary, the
layer-to-end-to-end interaction table, and the ``compare`` subcommand.
"""
