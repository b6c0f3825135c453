"""Envelopes ``Env(R')`` and rectilinear convex hulls (§2, Fig. 2).

The boundary of an envelope is assembled from the four ``MAX_XY``
frontier staircases: the *top* profile follows ``MAX_NW`` up to the topmost
obstacle and ``MAX_NE`` after it; the *bottom* profile follows ``MAX_SW``
then ``MAX_SE``; the west/east extremes are closed by the leftmost and
rightmost obstacles' outer edges.  When the top and bottom profiles stay
strictly apart the rectilinear convex hull exists and equals the envelope.

Degenerate inputs (the paper's cases (i)/(ii), Fig. 2(a)–(b), where two of
the frontiers intersect and the hull does not exist) are detected and
reported by :attr:`Envelope.is_degenerate`.  For those inputs this module
keeps the *fat* region bounded by the profiles, clamping the profiles
together where they cross (which follows the paper's bridge along the
``MAX_NE`` — resp. ``MAX_NW`` — finite segments up to the width-zero
degeneracy).  The shortest-path engines never build degenerate envelopes —
separators always split along clear staircases — so the substitution only
affects renderings.

Profiles are step functions over x represented as runs ``(x_from, x_to,
y)``; this representation is shared with convex rectilinear polygons
(:mod:`repro.geometry.polygon`) so that visibility and ``B(Q)`` extraction
(:mod:`repro.geometry.visibility`) work on either region type.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import GeometryError
from repro.geometry.frontier import max_staircase_of_rects
from repro.geometry.primitives import Point, Rect, bbox_of_rects
from repro.geometry.staircase import Staircase


@dataclass(frozen=True)
class StepProfile:
    """A piecewise-constant function of x: runs ``(x_from, x_to, y)`` with
    contiguous coverage of ``[xlo, xhi]``; runs are half-open on the right
    except the last."""

    runs: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if not self.runs:
            raise GeometryError("empty profile")
        for (a, b, _y), (c, _d, _y2) in zip(self.runs, self.runs[1:]):
            if b != c or a >= b:
                raise GeometryError("profile runs not contiguous")
        a, b, _ = self.runs[-1]
        if a >= b:
            raise GeometryError("profile runs not contiguous")

    @property
    def xlo(self) -> int:
        return self.runs[0][0]

    @property
    def xhi(self) -> int:
        return self.runs[-1][1]

    def _run_index(self, x: int) -> int:
        starts = [r[0] for r in self.runs]
        i = bisect_right(starts, x) - 1
        return max(i, 0)

    def value_max_at(self, x: int) -> int:
        """max y of the (closed) boundary at column x — at a jump this is
        the higher adjacent run."""
        i = self._run_index(x)
        y = self.runs[i][2]
        if self.runs[i][0] == x and i > 0:
            y = max(y, self.runs[i - 1][2])
        return y

    def value_min_at(self, x: int) -> int:
        i = self._run_index(x)
        y = self.runs[i][2]
        if self.runs[i][0] == x and i > 0:
            y = min(y, self.runs[i - 1][2])
        return y

    def run_value(self, x: int) -> int:
        """The run value covering the open interval ``(x, x+1)`` — i.e. the
        profile height strictly between grid columns (no jump merging)."""
        return self.runs[self._run_index(x)][2]

    def polyline(self) -> list[Point]:
        """Corner chain west→east, including jump corners."""
        out: list[Point] = []
        for a, b, y in self.runs:
            out.append((a, y))
            out.append((b, y))
        # remove duplicates; keep jumps
        dedup: list[Point] = []
        for p in out:
            if not dedup or dedup[-1] != p:
                dedup.append(p)
        return dedup

    def breakpoints(self) -> list[int]:
        return [r[0] for r in self.runs] + [self.xhi]


def _profile_from_polyline(pts: Sequence[Point]) -> StepProfile:
    """Build a profile from a west→east rectilinear corner chain."""
    runs: list[tuple[int, int, int]] = []
    for a, b in zip(pts, pts[1:]):
        if a[1] == b[1] and a[0] < b[0]:
            if runs and runs[-1][2] == a[1] and runs[-1][1] == a[0]:
                runs[-1] = (runs[-1][0], b[0], a[1])
            else:
                runs.append((a[0], b[0], a[1]))
    return StepProfile(tuple(runs))


class Envelope:
    """``Env(R')``: the convex connected region spanned by a rect set."""

    def __init__(self, rects: Sequence[Rect]) -> None:
        if not rects:
            raise GeometryError("envelope of empty obstacle set")
        self.rects = list(rects)
        self.bbox = bbox_of_rects(self.rects)
        xlo, ylo, xhi, yhi = self.bbox
        self.max_stair = {
            q: max_staircase_of_rects(self.rects, q) for q in ("NE", "NW", "SE", "SW")
        }
        top_pts = self._merge_top()
        bot_pts = self._merge_bottom()
        top = _profile_from_polyline(top_pts)
        bot = _profile_from_polyline(bot_pts)
        # Hull existence (Fig. 2): a connecting band through obstacle-free
        # columns (or rows) can be thinned indefinitely, so the minimum-area
        # hull is not attained; the envelope then bridges degenerately.
        self.is_degenerate = _has_projection_gap(self.rects)
        if _profiles_touch_or_cross(top, bot):
            top, bot = _clamp_profiles(top, bot)
        self.top = top
        self.bottom = bot

    # -- construction ----------------------------------------------------
    def _merge_top(self) -> list[Point]:
        nw, ne = self.max_stair["NW"], self.max_stair["NE"]
        t_nw = nw.pts[-1]  # topmost rect's NW corner (last NW-maximal)
        t_ne = ne.pts[0]  # topmost rect's NE corner (first NE-maximal)
        if t_nw[1] != t_ne[1]:
            raise GeometryError("frontier chains disagree on the top edge")
        pts = list(nw.pts) + [t_ne] + [p for p in ne.pts if p[0] >= t_ne[0]]
        return pts

    def _merge_bottom(self) -> list[Point]:
        sw, se = self.max_stair["SW"], self.max_stair["SE"]
        b_sw = sw.pts[-1]  # bottommost rect's SW corner
        b_se = se.pts[0]
        if b_sw[1] != b_se[1]:
            raise GeometryError("frontier chains disagree on the bottom edge")
        pts = list(sw.pts) + [b_se] + [p for p in se.pts if p[0] >= b_se[0]]
        return pts

    # -- region protocol (shared with RectilinearPolygon) -----------------
    def top_at(self, x: int) -> int:
        return self.top.value_max_at(x)

    def bottom_at(self, x: int) -> int:
        return self.bottom.value_min_at(x)

    def contains(self, p: Point) -> bool:
        x, y = p
        xlo, _, xhi, _ = self.bbox
        if not (xlo <= x <= xhi):
            return False
        return self.bottom_at(x) <= y <= self.top_at(x)

    def vertices_loop(self) -> list[Point]:
        """Closed CCW boundary corner loop (last point != first)."""
        return _loop_from_profiles(self.top, self.bottom)

    def boundary_chain(self, quadrant: str) -> Staircase:
        """The bounded monotone boundary piece facing a quadrant, used for
        the Monge orderings of Lemma 1."""
        if self.is_degenerate:
            raise GeometryError("degenerate envelope has no clean chains")
        if quadrant == "NW":
            pts = [p for p in self.top.polyline() if p[0] <= self._top_peak()[0]]
            return Staircase(tuple(pts), increasing=True)
        if quadrant == "NE":
            pts = [p for p in self.top.polyline() if p[0] >= self._top_peak()[0]]
            return Staircase(tuple(pts), increasing=False)
        if quadrant == "SW":
            pts = [p for p in self.bottom.polyline() if p[0] <= self._bottom_valley()[0]]
            return Staircase(tuple(pts), increasing=False)
        if quadrant == "SE":
            pts = [p for p in self.bottom.polyline() if p[0] >= self._bottom_valley()[0]]
            return Staircase(tuple(pts), increasing=True)
        raise GeometryError(f"unknown quadrant {quadrant!r}")

    def _top_peak(self) -> Point:
        return max(self.top.polyline(), key=lambda p: (p[1], -p[0]))

    def _bottom_valley(self) -> Point:
        return min(self.bottom.polyline(), key=lambda p: (p[1], p[0]))

    def intersects_rect_interior(self, r: Rect) -> bool:
        """Does this envelope meet the *interior* of ``r``?  (Used to check
        the §4 requirement that Env(R') avoid obstacles of R - R'.)"""
        xlo, _, xhi, _ = self.bbox
        lo = max(r.xlo, xlo)
        hi = min(r.xhi, xhi)
        if lo >= hi:
            return False
        xs = sorted(
            {lo, hi}
            | {x for x in self.top.breakpoints() if lo <= x <= hi}
            | {x for x in self.bottom.breakpoints() if lo <= x <= hi}
        )
        for a, b in zip(xs, xs[1:]):
            # column (a, b): profiles are constant on the open interval
            t = min(self.top.value_min_at(a), self.top.value_min_at(b))
            bot = max(self.bottom.value_max_at(a), self.bottom.value_max_at(b))
            t2 = min(t, r.yhi)
            b2 = max(bot, r.ylo)
            if t2 > b2:
                return True
        return False


def _loop_from_profiles(top: StepProfile, bottom: StepProfile) -> list[Point]:
    """CCW boundary loop of the region between two profiles."""
    bot_pts = bottom.polyline()
    top_pts = top.polyline()
    loop: list[Point] = list(bot_pts)
    if top_pts[-1] != loop[-1]:
        loop.append(top_pts[-1])
    loop.extend(reversed(top_pts[:-1]))
    out: list[Point] = []
    for p in loop:
        if not out or out[-1] != p:
            out.append(p)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return out


def _has_projection_gap(rects: Sequence[Rect]) -> bool:
    """True when the x- or y-projections of the rect set leave a gap inside
    the bounding box (the hull-nonexistence condition of [30]/Fig. 2)."""
    for key in (lambda r: (r.xlo, r.xhi), lambda r: (r.ylo, r.yhi)):
        ivs = sorted(key(r) for r in rects)
        reach = ivs[0][1]
        for lo, hi in ivs[1:]:
            if lo > reach:
                return True
            reach = max(reach, hi)
    return False


def _profiles_touch_or_cross(top: StepProfile, bot: StepProfile) -> bool:
    xs = sorted(set(top.breakpoints()) | set(bot.breakpoints()))
    for x in xs:
        if bot.value_max_at(x) >= top.value_min_at(x):
            # touching counts as degenerate only when the region pinches to
            # zero width, i.e. the *interiors* meet or coincide
            if bot.value_min_at(x) >= top.value_max_at(x):
                return True
    return False


def _clamp_profiles(top: StepProfile, bot: StepProfile) -> tuple[StepProfile, StepProfile]:
    """Clamp crossing profiles to their pointwise median band (the
    degenerate bridge of Fig. 2(a)/(b))."""
    xs = sorted(set(top.breakpoints()) | set(bot.breakpoints()))
    t_runs: list[tuple[int, int, int]] = []
    b_runs: list[tuple[int, int, int]] = []
    for a, b in zip(xs, xs[1:]):
        tv = top.value_min_at(a) if top.value_min_at(a) == top.value_min_at(b - 0) else top.value_min_at(a)
        tv = min(top.value_max_at(a), top.value_max_at(b))
        bv = max(bot.value_min_at(a), bot.value_min_at(b))
        if bv > tv:
            tv = bv = max(tv, bv)
        t_runs.append((a, b, tv))
        b_runs.append((a, b, bv))
    return (
        StepProfile(tuple(_coalesce(t_runs))),
        StepProfile(tuple(_coalesce(b_runs))),
    )


def _coalesce(runs: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    out: list[tuple[int, int, int]] = []
    for r in runs:
        if out and out[-1][2] == r[2] and out[-1][1] == r[0]:
            out[-1] = (out[-1][0], r[1], r[2])
        else:
            out.append(r)
    return out


def envelope(rects: Sequence[Rect]) -> Envelope:
    """Construct ``Env(R')``."""
    return Envelope(rects)


def rectilinear_hull_exists(rects: Sequence[Rect]) -> bool:
    """True when the rectilinear convex hull of the set exists (the
    envelope is non-degenerate), per §2/Fig. 2 of the paper."""
    return not Envelope(rects).is_degenerate
