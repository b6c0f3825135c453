"""The conquer's batched projection pass (``_projection_table``).

Each tracked point's vertical and horizontal grid-line projection onto the
separator is one independent query; the engine answers all of them in one
array pass.  The reference below is the per-point loop it replaced —
``Staircase.crossings_with_vline`` / ``_hline``, nearest crossing by
``min`` (first wins a tie), a first-hit :class:`RayShooter` shot toward it
and the polygon-seam check — with arc positions measured from the chain's
first corner, as the engine now measures them.  Both must agree byte for
byte.
"""

import itertools
import random

import numpy as np
import pytest

from repro.core.allpairs import INF, _projection_table
from repro.core.separator import staircase_separator
from repro.geometry.decompose import Seam, seams_block_v_segment
from repro.geometry.primitives import Rect, dist
from repro.geometry.rayshoot import RayShooter
from repro.geometry.staircase import Staircase
from repro.pram.machine import PRAM
from repro.workloads.generators import random_disjoint_rects, random_free_points


def _reference_table(points, chain, rects, seams=()):
    """The per-point, shooter-based table (one ray shot per view)."""
    shooter = RayShooter(rects)
    bx, by = chain.pts[0]
    sgn = 1 if chain.increasing else -1
    m = len(points)
    tarr = np.full((m, 2), 0.0)
    varr = np.full((m, 2), INF)
    for i, p in enumerate(points):
        for k, crossings in enumerate(
            (chain.crossings_with_vline(p[0]), chain.crossings_with_hline(p[1]))
        ):
            if not crossings:
                continue
            z = min(crossings, key=lambda c: dist(p, c))
            tarr[i, k] = (z[0] - bx) + sgn * (z[1] - by)
            d = dist(p, z)
            if d == 0:
                varr[i, k] = 0.0
                continue
            if k == 0 and seams and seams_block_v_segment(seams, p[0], p[1], z[1]):
                continue
            if p[0] == z[0]:
                direction = "N" if z[1] > p[1] else "S"
            else:
                direction = "E" if z[0] > p[0] else "W"
            hit = shooter.shoot(p, direction)
            if hit is None or dist(p, hit.point) >= d:
                varr[i, k] = float(d)
    return tarr, varr


def _table(points, chain, rects, seams=()):
    boxes = np.array(
        [(r.xlo, r.ylo, r.xhi, r.yhi) for r in rects], dtype=float
    ).reshape(-1, 4)
    out = _projection_table(points, chain, boxes, seams)
    return out.t, out.val


def _assert_same(points, chain, rects, seams=()):
    t, val = _table(points, chain, rects, seams)
    rt, rval = _reference_table(points, chain, rects, seams)
    assert t.tobytes() == rt.tobytes()
    assert val.tobytes() == rval.tobytes()
    return val


#: obstacles around the hand-built chains below (some straddle a chain:
#: the table's visibility test does not care, and neither does the shooter)
_RECTS = [
    Rect(1, 1, 3, 2), Rect(6, 6, 8, 8), Rect(-2, 10, 1, 12),
    Rect(13, -2, 15, 3), Rect(9, 1, 11, 3), Rect(2, 11, 4, 14),
]
_SEAMS = (Seam(2, 5, 8), Seam(7, -1, 3), Seam(10, 9, 13))

_CORNERS = {
    "inc": ((0, 0), (0, 4), (5, 4), (5, 9), (12, 9)),
    "dec": ((0, 9), (4, 9), (4, 5), (9, 5), (9, 0), (12, 0)),
    "point": ((5, 5),),
    "flat": ((0, 5), (10, 5)),
    "upright": ((5, 0), (5, 10)),
}


def _chains():
    """Every corner shape under every legal pair of end rays."""
    for name, pts in _CORNERS.items():
        for inc in (True, False):
            if name in ("inc", "dec") and inc != (name == "inc"):
                continue
            if name == "upright" and not inc:
                pts = pts[::-1]  # a vertical run labelled decreasing
            lefts = (None, "W", "S") if inc else (None, "W", "N")
            rights = (None, "E", "N") if inc else (None, "E", "S")
            for left, right in itertools.product(lefts, rights):
                yield f"{name}-{'inc' if inc else 'dec'}-{left}-{right}", Staircase(
                    pts, inc, left, right
                )


_CHAINS = dict(_chains())


def _free(points, rects):
    return [
        p for p in points
        if not any(r.xlo < p[0] < r.xhi and r.ylo < p[1] < r.yhi for r in rects)
    ]


def _grid_points():
    """Integral points left, right, above and below the chains' corner
    extents, and on the chains themselves (d = 0), plus fractional ones."""
    pts = [(x, y) for x in range(-4, 17) for y in range(-4, 15)]
    rng = random.Random(7)
    pts += [(rng.randrange(-40, 60) / 2, rng.randrange(-40, 60) / 2) for _ in range(120)]
    pts += [(x + 0.5, y) for x in range(-3, 15, 3) for y in range(-3, 13, 2)]
    return _free(list(dict.fromkeys(pts)), _RECTS)


@pytest.mark.parametrize("name", sorted(_CHAINS))
def test_table_matches_shooter_reference(name):
    chain = _CHAINS[name]
    pts = _grid_points()
    val = _assert_same(pts, chain, _RECTS)
    # the suite exercises the branches it claims: clear, blocked and
    # on-chain views
    assert (val == 0).any() and np.isinf(val).any() and (val > 0).any()


@pytest.mark.parametrize("name", sorted(_CHAINS))
def test_table_matches_reference_with_seams(name):
    _assert_same(_grid_points(), _CHAINS[name], _RECTS, _SEAMS)


def test_table_seams_block_some_views():
    chain = _CHAINS["inc-inc-S-N"]
    pts = _grid_points()
    plain = _reference_table(pts, chain, _RECTS)[1]
    seamed = _assert_same(pts, chain, _RECTS, _SEAMS)
    assert (np.isinf(seamed[:, 0]) & np.isfinite(plain[:, 0])).any()


def test_table_without_obstacles_or_points():
    chain = _CHAINS["inc-inc-W-E"]
    _assert_same(_grid_points(), chain, [])
    t, val = _table([], chain, _RECTS)
    assert t.shape == val.shape == (0, 2)


@pytest.mark.parametrize("seed", range(6))
def test_table_on_real_separators(seed):
    """Separators of random scenes, their obstacle corners and free
    points (with fractional ones among them)."""
    rects = random_disjoint_rects(30, seed=seed)
    chain = staircase_separator(rects, PRAM()).staircase
    free = random_free_points(rects, 40, seed=seed)
    pts = [v for r in rects for v in r.vertices] + free
    pts += _free([(x + 0.5, y) for x, y in free[:10]], rects)
    pts += [p for p in chain.pts]  # on-chain corners: d = 0
    _assert_same(list(dict.fromkeys(pts)), chain, rects)


@pytest.mark.parametrize("name", sorted(_CHAINS))
def test_array_crossings_match_scalar_crossings(name):
    """``crossings_at_x`` / ``_at_y`` against the scalar crossing lists,
    nearest to the query point by ``min`` (first wins a tie)."""
    chain = _CHAINS[name]
    pts = [(x, y) for x in range(-4, 17) for y in range(-4, 15)]
    pts += [(x + 0.5, y + 0.5) for x in range(-4, 17, 3) for y in range(-4, 15, 3)]
    px = np.array([p[0] for p in pts], dtype=float)
    py = np.array([p[1] for p in pts], dtype=float)
    for k, (ok, z) in enumerate(
        (chain.crossings_at_x(px, py), chain.crossings_at_y(py, px))
    ):
        for i, p in enumerate(pts):
            if k == 0:
                line, got = chain.crossings_with_vline(p[0]), (p[0], z[i])
            else:
                line, got = chain.crossings_with_hline(p[1]), (z[i], p[1])
            assert bool(ok[i]) == bool(line), (k, p)
            if line:
                assert got == min(line, key=lambda c: dist(p, c)), (k, p)
