"""A metered CREW-PRAM simulator.

Python's GIL prevents true shared-memory parallelism, so this package
*simulates* the paper's machine model: parallel steps execute sequentially while the simulator
meters **parallel time** (the depth of the step DAG) and **work** (total
operations).  Those two numbers are exactly what the paper's theorems bound;
Brent's theorem (Theorem 1) then gives the running time on any processor
count as ``T_p = W/p + T∞``, which :mod:`repro.pram.brent` evaluates.

An optional write-tracing mode enforces the CREW contract (concurrent reads
allowed, concurrent writes forbidden) on shared arrays.
"""

from repro.pram.machine import PRAM, SharedArray, current_pram, pram_scope
from repro.pram.primitives import (
    par_map,
    par_filter,
    scan,
    reduce_par,
    parallel_merge,
    parallel_sort,
)
from repro.pram.listrank import list_rank
from repro.pram.euler import euler_tour, tree_depths, forest_depths
from repro.pram.ancestors import LevelAncestor, LCA
from repro.pram.brent import brent_time, speedup_table

__all__ = [
    "PRAM",
    "SharedArray",
    "current_pram",
    "pram_scope",
    "par_map",
    "par_filter",
    "scan",
    "reduce_par",
    "parallel_merge",
    "parallel_sort",
    "list_rank",
    "euler_tour",
    "tree_depths",
    "forest_depths",
    "LevelAncestor",
    "LCA",
    "brent_time",
    "speedup_table",
]
