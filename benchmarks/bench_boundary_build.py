"""E2 — §5: the boundary-to-boundary structure.

Paper claims: with all queries on Bound(P), the structure builds in
O(log² n) time with O(n²/log² n) processors (work O(n²)).  We register
O(n) boundary sample points on a rectangle container P (modelled as 4
framing obstacles) and measure simulated time against log² n
and work against n².
"""

import pytest

from benchmarks.common import emit, fit_loglog, format_table, log2
from repro.core.allpairs import ParallelEngine
from repro.geometry.primitives import Rect, bbox_of_rects
from repro.pram import PRAM
from repro.workloads.generators import random_disjoint_rects

SIZES = [8, 16, 32, 64, 128]


def boundary_setup(n, seed=0):
    rects = random_disjoint_rects(n, seed=seed)
    xlo, ylo, xhi, yhi = bbox_of_rects(rects)
    m = 8
    frame = [
        Rect(xlo - m - 4, ylo - m - 4, xhi + m + 4, ylo - m),  # south wall
        Rect(xlo - m - 4, yhi + m, xhi + m + 4, yhi + m + 4),  # north wall
        Rect(xlo - m - 4, ylo - m, xlo - m, yhi + m),  # west wall
        Rect(xhi + m, ylo - m, xhi + m + 4, yhi + m),  # east wall
    ]
    # O(n) sample points on the inner boundary of P (its walls), organised
    # as four monotone chains — the paper's boundary partitioning, which
    # lets the conquer certify Monge blocks (Lemmas 1/5)
    per_side = max(2, n // 2)
    south, north, west, east = [], [], [], []
    for i in range(per_side):
        x = xlo - m + (i * (xhi - xlo + 2 * m)) // per_side
        south.append((x, ylo - m))
        north.append((x, yhi + m))
        y = ylo - m + (i * (yhi - ylo + 2 * m)) // per_side
        west.append((xlo - m, y))
        east.append((xhi + m, y))
    chains = [sorted(set(c)) for c in (south, north, west, east)]
    pts = [p for c in chains for p in c]
    return rects + frame, pts, chains


def test_e2_boundary_structure(benchmark):
    rows = []
    times, works, ns = [], [], []
    for n in SIZES:
        all_rects, pts, chains = boundary_setup(n)
        pram = PRAM()
        ParallelEngine(
            all_rects, pts, pram, leaf_size=6, extra_chains=chains
        ).build()
        ns.append(n)
        times.append(pram.time)
        works.append(pram.work)
        rows.append(
            [
                n,
                len(pts),
                pram.time,
                round(pram.time / log2(n) ** 2, 1),
                pram.work,
                round(pram.work / n**2, 0),
                pram.work // max(1, pram.time),  # Brent processor count
            ]
        )
    t_slope = fit_loglog(ns, times)
    w_slope = fit_loglog(ns, works)
    text = format_table(
        ["n", "|B(P)| pts", "simT", "simT/log²n", "work", "work/n²", "procs=W/T"],
        rows,
        title=(
            "E2  §5 boundary structure build — paper: T=O(log²n), W=O(n²)\n"
            f"measured: T ~ n^{t_slope:.2f} (polylog target ~0), "
            f"W ~ n^{w_slope:.2f} (paper 2.0)"
        ),
    )
    emit("E2_boundary_build", text)
    assert t_slope < 1.0, "parallel time should be strongly sublinear"
    all_rects, pts, chains = boundary_setup(16)
    benchmark(
        lambda: ParallelEngine(
            all_rects, pts, PRAM(), leaf_size=6, extra_chains=chains
        ).build()
    )
