"""Repository benchmark: simulator host time and modeled pdgemm cost.

Run it from the repository root with ``python3 perfbench/run.py``; see
``perfbench/README.md`` for the workloads, metrics and layer map.
"""
