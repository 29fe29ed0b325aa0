"""End-to-end and per-layer benchmark of the ``repro`` BBDD package.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the root of a checkout; see README.md.
"""
