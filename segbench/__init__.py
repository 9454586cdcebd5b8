"""Benchmark of the peduncle segmenter: workloads, layer trace and checks.

Run it with ``python3 segbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the root of the repository; see ``segbench/README.md``.
"""
