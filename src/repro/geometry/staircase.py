"""Staircases: monotone rectilinear chains (§2 of the paper).

A *staircase* is a convex path — monotone with respect to both axes.  The
paper uses bounded staircases (portions of envelope boundaries, separators
clipped to a region) and unbounded ones (``MAX_XY`` frontiers, separators,
``XY(p)`` paths extended to infinity).

Representation: the finite corner chain ``pts`` ordered by *non-decreasing
x* plus two optional semi-infinite rays attached to the chain ends
(``left_dir`` ∈ {W, N, S}, ``right_dir`` ∈ {E, N, S}).  All side tests,
crossing computations and clipping are implemented once here and reused by
the separator theorem, the conquer steps and the §7 chunk machinery.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.errors import GeometryError
from repro.geometry.primitives import Point, Rect, Transform, dist

NEG = -math.inf
POS = math.inf

_RAY_VECTOR = {"W": (-1, 0), "E": (1, 0), "N": (0, 1), "S": (0, -1)}


def _nearest_crossing(
    present: np.ndarray, lo: np.ndarray, hi: np.ndarray, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Array form of the crossing-list filter plus ``min`` by distance:
    ``lo`` / ``hi`` count when integral (``hi`` only when distinct), the one
    nearer ``q`` wins and ``lo`` wins a tie.  Returns ``(ok, coordinate)``."""
    ok_lo = present & np.isfinite(lo) & (lo == np.floor(lo))
    ok_hi = present & (hi != lo) & np.isfinite(hi) & (hi == np.floor(hi))
    take_lo = ok_lo & (~ok_hi | (np.abs(q - lo) <= np.abs(q - hi)))
    return ok_lo | ok_hi, np.where(take_lo, lo, hi)


def _dedupe(pts: Sequence[Point]) -> list[Point]:
    out: list[Point] = []
    for p in pts:
        if not out or out[-1] != p:
            out.append(p)
    return out


def _drop_collinear(pts: list[Point]) -> list[Point]:
    """Remove interior points that lie on a straight run."""
    if len(pts) < 3:
        return pts
    out = [pts[0]]
    for p in pts[1:-1]:
        a = out[-1]
        # peek next retained direction by comparing with the following point
        out.append(p)
        if len(out) >= 3:
            b, c = out[-3], out[-1]
            m = out[-2]
            if (b[0] == m[0] == c[0]) or (b[1] == m[1] == c[1]):
                del out[-2]
        del a
    out.append(pts[-1])
    if len(out) >= 3:
        b, m, c = out[-3], out[-2], out[-1]
        if (b[0] == m[0] == c[0]) or (b[1] == m[1] == c[1]):
            del out[-2]
    return out


@dataclass(frozen=True)
class Staircase:
    """A monotone rectilinear chain, optionally unbounded at either end.

    ``increasing`` is True when y rises with x along the chain.  For chains
    with no y extent (a horizontal run) either label is geometrically valid
    and the constructor defaults to increasing; for chains with no x extent
    (a vertical line, which arises as a degenerate separator) the label
    fixes which side is called "above".
    """

    pts: tuple[Point, ...]
    increasing: bool = True
    left_dir: Optional[str] = None  # 'W' | 'N' | 'S' | None
    right_dir: Optional[str] = None  # 'E' | 'N' | 'S' | None
    _xs: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pts = tuple(_drop_collinear(_dedupe(self.pts)))
        object.__setattr__(self, "pts", pts)
        if not pts:
            raise GeometryError("staircase needs at least one point")
        self._validate()
        object.__setattr__(self, "_xs", tuple(p[0] for p in pts))

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        pts = self.pts
        sgn = 1 if self.increasing else -1
        for a, b in zip(pts, pts[1:]):
            if a[0] != b[0] and a[1] != b[1]:
                raise GeometryError(f"non-rectilinear step {a} -> {b}")
            if b[0] < a[0]:
                raise GeometryError(f"x not monotone at {a} -> {b}")
            if sgn * (b[1] - a[1]) < 0:
                raise GeometryError(
                    f"y not monotone ({'increasing' if self.increasing else 'decreasing'})"
                    f" at {a} -> {b}"
                )
        if self.left_dir is not None:
            allowed = {"W", "S"} if self.increasing else {"W", "N"}
            if self.left_dir not in allowed:
                raise GeometryError(f"bad left ray {self.left_dir}")
        if self.right_dir is not None:
            allowed = {"E", "N"} if self.increasing else {"E", "S"}
            if self.right_dir not in allowed:
                raise GeometryError(f"bad right ray {self.right_dir}")

    # ------------------------------------------------------------------
    @property
    def unbounded(self) -> bool:
        return self.left_dir is not None and self.right_dir is not None

    @property
    def num_segments(self) -> int:
        n = len(self.pts) - 1
        n += self.left_dir is not None
        n += self.right_dir is not None
        return n

    def endpoints(self) -> tuple[Point, Point]:
        return self.pts[0], self.pts[-1]

    def reverse_oriented(self) -> "Staircase":
        """The same staircase (orientation is canonical; returns self)."""
        return self

    # ------------------------------------------------------------------
    def y_range_at_x(self, x: int) -> Optional[tuple[float, float]]:
        """The (min y, max y) of the staircase on the vertical line at ``x``,
        or None when the line misses the staircase entirely."""
        pts, xs = self.pts, self._xs
        x0, x1 = xs[0], xs[-1]
        if x < x0:
            if self.left_dir == "W":
                y = pts[0][1]
                return (y, y)
            return None
        if x > x1:
            if self.right_dir == "E":
                y = pts[-1][1]
                return (y, y)
            return None
        lo = bisect_left(xs, x)
        hi = bisect_right(xs, x)
        ys: list[float] = [pts[i][1] for i in range(lo, hi)]
        if lo > 0 and xs[lo - 1] < x:  # inside horizontal segment pts[lo-1] -> pts[lo]
            ys.append(pts[lo - 1][1])
        if not ys:  # x strictly inside a horizontal segment
            ys = [pts[lo - 1][1]]
        ymin: float = min(ys)
        ymax: float = max(ys)
        if x == x0 and self.left_dir == "S":
            ymin = NEG
        if x == x0 and self.left_dir == "N":
            ymax = POS
        if x == x1 and self.right_dir == "S":
            ymin = NEG
        if x == x1 and self.right_dir == "N":
            ymax = POS
        if x == x0 and self.left_dir == "W":
            pass  # ray is horizontal; chain y already included
        return (ymin, ymax)

    def x_range_at_y(self, y: int) -> Optional[tuple[float, float]]:
        """Symmetric to :meth:`y_range_at_x` (horizontal line)."""
        pts = self.pts
        ys = [p[1] for p in pts]
        if self.increasing:
            ylo, yhi = ys[0], ys[-1]
        else:
            ylo, yhi = ys[-1], ys[0]
        covered_low = None
        if y < ylo:
            d = self.left_dir if self.increasing else self.right_dir
            if d == "S":
                x = pts[0][0] if self.increasing else pts[-1][0]
                return (x, x)
            return None
        if y > yhi:
            d = self.right_dir if self.increasing else self.left_dir
            if d == "N":
                x = pts[-1][0] if self.increasing else pts[0][0]
                return (x, x)
            return None
        del covered_low
        xs_hit: list[float] = []
        for i, p in enumerate(pts):
            if p[1] == y:
                xs_hit.append(p[0])
            if i + 1 < len(pts):
                q = pts[i + 1]
                lo, hi = min(p[1], q[1]), max(p[1], q[1])
                if lo < y < hi:  # strictly inside a vertical segment
                    xs_hit.append(p[0])
        if not xs_hit:
            return None  # can happen only at gaps which monotone chains lack
        xmin: float = min(xs_hit)
        xmax: float = max(xs_hit)
        first_y, last_y = pts[0][1], pts[-1][1]
        if y == first_y and self.left_dir == "W":
            xmin = NEG
        if y == last_y and self.right_dir == "E":
            xmax = POS
        return (xmin, xmax)

    # ------------------------------------------------------------------
    def side_of(self, p: Point) -> int:
        """+1 when ``p`` is strictly on the upper side, -1 strictly lower,
        0 on the staircase.

        For an increasing staircase the upper side is the NW region; for a
        decreasing one it is the NE region.  The staircase must be unbounded
        (every separator and frontier is) so the two sides are well defined
        for every point of the plane.
        """
        if not self.unbounded:
            raise GeometryError("side_of requires an unbounded staircase")
        x, y = p
        rng = self.y_range_at_x(x)
        if rng is not None:
            ymin, ymax = rng
            if y > ymax:
                return 1
            if y < ymin:
                return -1
            return 0
        # The vertical line at x misses the chain: p lies beyond a vertical
        # end ray, strictly west or east of everything.
        if x < self._xs[0]:
            d = self.left_dir
            if self.increasing:
                return 1 if d == "S" else -1  # west of a south-ray is above-left
            return -1 if d == "N" else 1
        d = self.right_dir
        if self.increasing:
            return -1 if d == "N" else 1
        return 1 if d == "S" else -1

    def contains_point(self, p: Point) -> bool:
        return self.side_of(p) == 0 if self.unbounded else self._contains_bounded(p)

    def _contains_bounded(self, p: Point) -> bool:
        x, y = p
        pts = self.pts
        for a, b in zip(pts, pts[1:]):
            if a[0] == b[0] == x and min(a[1], b[1]) <= y <= max(a[1], b[1]):
                return True
            if a[1] == b[1] == y and min(a[0], b[0]) <= x <= max(a[0], b[0]):
                return True
        return len(pts) == 1 and pts[0] == p

    def side_of_rect(self, r: Rect) -> int:
        """Which side a rectangle lies on, assuming the staircase does not
        cross its interior: the side of its center (0 never returned for a
        full-dimensional rect whose interior is clear of the staircase)."""
        cx2, cy2 = r.center2
        s = self._side_of_scaled(cx2, cy2)
        if s != 0:
            return s
        # Center exactly on the chain can only happen when the chain runs
        # along the rectangle's boundary degenerately; classify by a corner.
        for corner in r.vertices:
            s = self.side_of(corner)
            if s != 0:
                return s
        raise GeometryError(f"cannot classify rect {r!r} against staircase")

    def _side_of_scaled(self, x2: int, y2: int) -> int:
        """Side test for the half-integral point (x2/2, y2/2)."""
        if x2 % 2 == 0:
            rng = self.y_range_at_x(x2 // 2)
        else:
            lo = self.y_range_at_x((x2 - 1) // 2)
            hi = self.y_range_at_x((x2 + 1) // 2)
            if lo is None and hi is None:
                rng = None
            elif lo is None:
                rng = hi
            elif hi is None:
                rng = lo
            else:
                # between two columns: the chain's y there is the overlap
                rng = (min(lo[0], hi[0]), max(lo[1], hi[1]))
        if rng is None:
            return self.side_of((x2 // 2, y2 // 2))
        ymin, ymax = rng
        if y2 > 2 * ymax:
            return 1
        if y2 < 2 * ymin:
            return -1
        return 0

    # ------------------------------------------------------------------
    def is_clear(self, rects: Iterable[Rect]) -> bool:
        """True when no segment of the staircase meets any rect interior.

        O(m·n): used by tests and debug assertions, not by the engines.
        """
        segs = list(zip(self.pts, self.pts[1:]))
        rays: list[tuple[Point, str]] = []
        if self.left_dir:
            rays.append((self.pts[0], self.left_dir))
        if self.right_dir:
            rays.append((self.pts[-1], self.right_dir))
        for r in rects:
            for a, b in segs:
                if a[1] == b[1]:
                    if r.blocks_h_segment(a[1], a[0], b[0]):
                        return False
                else:
                    if r.blocks_v_segment(a[0], a[1], b[1]):
                        return False
            for origin, d in rays:
                dx, dy = _RAY_VECTOR[d]
                if dx != 0:
                    x2 = POS if dx > 0 else NEG
                    if r.ylo < origin[1] < r.yhi:
                        lo, hi = (origin[0], x2) if dx > 0 else (x2, origin[0])
                        if max(lo, r.xlo) < min(hi, r.xhi):  # type: ignore[arg-type]
                            return False
                else:
                    y2 = POS if dy > 0 else NEG
                    if r.xlo < origin[0] < r.xhi:
                        lo, hi = (origin[1], y2) if dy > 0 else (y2, origin[1])
                        if max(lo, r.ylo) < min(hi, r.yhi):  # type: ignore[arg-type]
                            return False
        return True

    # ------------------------------------------------------------------
    def crossings_with_vline(self, x: int) -> list[Point]:
        """Integral points where the vertical line at ``x`` meets the chain
        (endpoints of the meeting segment; 1 or 2 points, possibly none)."""
        rng = self.y_range_at_x(x)
        if rng is None:
            return []
        ymin, ymax = rng
        out = []
        if ymin not in (NEG, POS) and ymin == int(ymin):
            out.append((x, int(ymin)))
        if ymax != ymin and ymax not in (NEG, POS) and ymax == int(ymax):
            out.append((x, int(ymax)))
        return out

    def crossings_with_hline(self, y: int) -> list[Point]:
        rng = self.x_range_at_y(y)
        if rng is None:
            return []
        xmin, xmax = rng
        out = []
        if xmin not in (NEG, POS) and xmin == int(xmin):
            out.append((int(xmin), y))
        if xmax != xmin and xmax not in (NEG, POS) and xmax == int(xmax):
            out.append((int(xmax), y))
        return out

    def _corner_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        pa = np.array(self.pts, dtype=float).reshape(-1, 2)
        return pa[:, 0], pa[:, 1]

    def crossings_at_x(
        self, x: np.ndarray, q: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Array :meth:`crossings_with_vline`, nearest crossing kept.

        For every vertical line ``x[i]``: whether it meets the chain at an
        integral point, and the y of the crossing nearest ``q[i]`` (the
        lower one on a tie, as ``min`` over the crossing list picks).  The
        same rules as :meth:`y_range_at_x` — end rays, lines beyond the
        corner extents — in one ``searchsorted`` pass.  Returns
        ``(ok, y)``."""
        cx, cy = self._corner_arrays()
        n = len(cx)
        lo = np.searchsorted(cx, x, "left")
        hi = np.searchsorted(cx, x, "right")
        # the chain's y extent over the corners at x plus the segment into x
        ya = cy[np.clip(lo - 1, 0, n - 1)]
        yb = cy[np.clip(hi - 1, 0, n - 1)]
        ymin, ymax = np.minimum(ya, yb), np.maximum(ya, yb)
        present = (x >= cx[0]) & (x <= cx[-1])
        if self.left_dir == "S":
            ymin = np.where(x == cx[0], NEG, ymin)
        if self.left_dir == "N":
            ymax = np.where(x == cx[0], POS, ymax)
        if self.right_dir == "S":
            ymin = np.where(x == cx[-1], NEG, ymin)
        if self.right_dir == "N":
            ymax = np.where(x == cx[-1], POS, ymax)
        # beyond the corner extents only a horizontal end ray meets the line
        if self.left_dir == "W":
            west = x < cx[0]
            ymin, ymax = np.where(west, cy[0], ymin), np.where(west, cy[0], ymax)
            present = present | west
        if self.right_dir == "E":
            east = x > cx[-1]
            ymin, ymax = np.where(east, cy[-1], ymin), np.where(east, cy[-1], ymax)
            present = present | east
        return _nearest_crossing(present, ymin, ymax, q)

    def crossings_at_y(
        self, y: np.ndarray, q: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Array :meth:`crossings_with_hline`, nearest crossing kept:
        :meth:`crossings_at_x` for horizontal lines ``y[i]`` (rules of
        :meth:`x_range_at_y`; the left crossing wins a tie).  Returns
        ``(ok, x)``."""
        inc = self.increasing
        cx, cy = self._corner_arrays()
        n = len(cx)
        # corner ys sorted ascending along the index (negated when decreasing)
        key, qy = (cy, y) if inc else (-cy, -y)
        a = np.searchsorted(key, qy, "left")
        b = np.searchsorted(key, qy, "right")
        # corners at y, else the vertical segment strictly across y
        at = a < b
        xmin = np.where(at, cx[np.clip(a, 0, n - 1)], cx[np.clip(a - 1, 0, n - 1)])
        xmax = np.where(at, cx[np.clip(b - 1, 0, n - 1)], xmin)
        ylo, yhi = min(cy[0], cy[-1]), max(cy[0], cy[-1])
        present = (y >= ylo) & (y <= yhi)
        if self.left_dir == "W":
            xmin = np.where(y == cy[0], NEG, xmin)
        if self.right_dir == "E":
            xmax = np.where(y == cy[-1], POS, xmax)
        # beyond the corner extents only a vertical end ray meets the line
        if (self.left_dir if inc else self.right_dir) == "S":
            south = y < ylo
            xs = cx[0] if inc else cx[-1]
            xmin, xmax = np.where(south, xs, xmin), np.where(south, xs, xmax)
            present = present | south
        if (self.right_dir if inc else self.left_dir) == "N":
            north = y > yhi
            xn = cx[-1] if inc else cx[0]
            xmin, xmax = np.where(north, xn, xmin), np.where(north, xn, xmax)
            present = present | north
        return _nearest_crossing(present, xmin, xmax, q)

    def clip_points_to_bbox(
        self, xlo: int, ylo: int, xhi: int, yhi: int
    ) -> list[Point]:
        """Corner points of the chain inside the closed box."""
        return [
            p
            for p in self.pts
            if xlo <= p[0] <= xhi and ylo <= p[1] <= yhi
        ]

    # ------------------------------------------------------------------
    def arc_dist(self, p: Point, q: Point) -> int:
        """Length along the staircase between two of its points.

        A staircase is monotone in both axes, so the along-chain distance
        *is* the L1 distance (this is the "staircases are shortest paths"
        fact of §2 that the single-intersection shortcut argument uses)."""
        return dist(p, q)

    def subchain(self, p: Point, q: Point) -> list[Point]:
        """Corner list of the portion of the chain between two on-chain
        points, inclusive, ordered from ``p`` to ``q``."""
        a, b = (p, q) if (p[0], p[1]) <= (q[0], q[1]) else (q, p)
        lo = min(a[0], b[0])
        hi = max(a[0], b[0])
        mid = [pt for pt in self.pts if lo <= pt[0] <= hi]
        chain = _drop_collinear(_dedupe([a] + [m for m in mid if self._between(a, m, b)] + [b]))
        if chain[0] != p:
            chain.reverse()
        return chain

    def _between(self, a: Point, m: Point, b: Point) -> bool:
        if self.increasing:
            return a[1] <= m[1] <= b[1] or b[1] <= m[1] <= a[1]
        return min(a[1], b[1]) <= m[1] <= max(a[1], b[1])

    # ------------------------------------------------------------------
    def transform(self, t: Transform) -> "Staircase":
        """Map through a symmetry; re-canonicalise orientation and rays."""
        newpts = [t.apply(p) for p in self.pts]
        ldir = _map_dir(self.left_dir, t)
        rdir = _map_dir(self.right_dir, t)
        if len(newpts) > 1 and (
            newpts[0][0] > newpts[-1][0]
            or (newpts[0][0] == newpts[-1][0] and _dir_is_left(rdir))
        ):
            newpts.reverse()
            ldir, rdir = rdir, ldir
        elif len(newpts) == 1 and _dir_is_left(rdir) and not _dir_is_left(ldir):
            ldir, rdir = rdir, ldir
        inc = _infer_increasing(newpts, ldir, rdir, self.increasing, t)
        return Staircase(tuple(newpts), inc, ldir, rdir)

    def __iter__(self):
        return iter(self.pts)

    def __len__(self) -> int:
        return len(self.pts)


def _map_dir(d: Optional[str], t: Transform) -> Optional[str]:
    if d is None:
        return None
    vx, vy = _RAY_VECTOR[d]
    vx, vy = t.sx * vx, t.sy * vy
    if t.swap:
        vx, vy = vy, vx
    for name, vec in _RAY_VECTOR.items():
        if vec == (vx, vy):
            return name
    raise AssertionError


def _dir_is_left(d: Optional[str]) -> bool:
    return d == "W"


def _infer_increasing(
    pts: list[Point],
    ldir: Optional[str],
    rdir: Optional[str],
    old_inc: bool,
    t: Transform,
) -> bool:
    for a, b in zip(pts, pts[1:]):
        if b[1] > a[1]:
            return True
        if b[1] < a[1]:
            return False
    # No y extent in the chain; infer from rays, else from the transform's
    # effect on the original label.
    if ldir == "S" or rdir == "N":
        return True
    if ldir == "N" or rdir == "S":
        return False
    flips = (t.sx < 0) != (t.sy < 0)
    return old_inc != flips
