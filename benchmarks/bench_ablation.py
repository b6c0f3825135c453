"""E11 — ablations of the engine's design choices.

Three knobs the paper's design motivates, each measured on the same scenes:

* **Monge dispatch** (Lemmas 3/5): chain-grouped SMAWK products vs the
  all-naive conquer.  The paper's whole §6 partitioning discipline exists
  to enable this — the ablation quantifies what it buys.
* **Leaf size**: where the separator recursion hands over to the direct
  solver.  Theorem 2's balance guarantee needs n ≥ 8; tiny leaves mean
  more conquers, huge leaves mean quadratic leaf blow-up.
* **Separator vs no recursion at all** (leaf = ∞): the divide-and-conquer
  against one flat solve — the reason the paper recurses.
"""

import pytest

from benchmarks.common import emit, format_table
from repro.core.allpairs import ParallelEngine
from repro.pram import PRAM
from repro.workloads.generators import random_disjoint_rects

N = 96


def _run(**kw):
    rects = random_disjoint_rects(N, seed=4)
    pram = PRAM()
    engine = ParallelEngine(rects, [], pram, **kw)
    engine.build()
    return pram, engine


def test_e11_ablations(benchmark):
    rows = []
    # Monge dispatch on/off
    for dispatch in (True, False):
        pram, engine = _run(leaf_size=6, monge_dispatch=dispatch)
        rows.append(
            [
                f"dispatch={'on' if dispatch else 'off'}",
                pram.time,
                pram.work,
                engine.stats.monge_fast_blocks,
            ]
        )
    # leaf size sweep
    for leaf in (4, 8, 16, 32, 64):
        pram, engine = _run(leaf_size=leaf)
        rows.append([f"leaf={leaf}", pram.time, pram.work, engine.stats.leaves])
    # no recursion: one flat leaf solve
    pram, engine = _run(leaf_size=10**9)
    rows.append(["no recursion", pram.time, pram.work, engine.stats.leaves])
    text = format_table(
        ["variant", "simT", "work", "fast blocks / leaves"],
        rows,
        title=f"E11  engine ablations at n={N} "
        "(answers are identical in every variant; only cost moves)",
    )
    emit("E11_ablation", text)
    on_work = rows[0][2]
    off_work = rows[1][2]
    assert on_work <= off_work, "Monge dispatch must never cost extra work"
    flat_time, flat_work = rows[-1][1], rows[-1][2]
    rec_time, rec_work = rows[2][1], rows[2][2]
    assert rec_time < flat_time, "recursion must beat the flat solve in time"
    assert rec_work < flat_work, "…and in work (this is why the paper recurses)"
    benchmark(lambda: _run(leaf_size=8))


def test_e11_answers_invariant_across_ablations():
    rects = random_disjoint_rects(24, seed=5)
    base = ParallelEngine(rects, [], PRAM(), leaf_size=4).build()
    for kw in (
        dict(leaf_size=4, monge_dispatch=False),
        dict(leaf_size=12),
        dict(leaf_size=10**9),
    ):
        other = ParallelEngine(rects, [], PRAM(), **kw).build()
        assert (other.submatrix(base.points) == base.matrix).all(), kw
