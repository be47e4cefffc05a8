"""Serving benchmark for the adaptive total-exchange scheduler.

Run it from the repository root::

    python3 servebench/run.py --workload fleet --seed 1 --seconds 15 --trace 0

See ``servebench/README.md`` for the workloads, the metrics and how the
traced run attributes time to layers.
"""
