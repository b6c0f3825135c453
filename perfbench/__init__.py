"""The repository benchmark: one seeded workload per run, every answer
verified, end-to-end metrics by default and per-layer metrics with
``--trace 1``.  Entry point: ``python3 perfbench/run.py --help``."""
