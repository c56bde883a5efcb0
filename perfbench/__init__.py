"""End-to-end and per-layer benchmark for the ``repro`` sort stack.

Run it from the repository root::

    python3 perfbench/run.py --workload engine-bulk --seed 1 --seconds 10 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and why every
timing is divided by a builtin ``sorted`` floor measured in the same run.
"""
