"""Rectilinear simple polygons — containers *and* polygonal obstacles.

A :class:`RectilinearPolygon` is any simple rectilinear polygon given by
its boundary vertex loop (holes are rejected with a one-line error).  Two
distinct roles use it:

* **Container** ``P`` of the paper (§2): must additionally be rectilinear
  *convex* — containing every axis-parallel segment between any two of its
  points.  The convex machinery (top/bottom :class:`StepProfile` pair,
  shared with :class:`~repro.geometry.envelope.Envelope`) is built lazily;
  a non-convex polygon raises :class:`ConvexityError` only when used as a
  container (or when :attr:`top`/:attr:`bottom` are touched), not at
  construction.

* **Polygonal obstacle**: any simple polygon.  :meth:`decomposition`
  splits it into disjoint maximal rectangles plus interior :class:`Seam`
  records (see :mod:`repro.geometry.decompose`), which is how
  ``ShortestPathIndex.build`` threads it through the rectangle-only
  engines.  Containment tests are exact and decomposition-based, so they
  work for every simple polygon.

:func:`pockets_to_rects` decomposes ``bbox(P) \\ P`` into axis-parallel
rectangles.  This is how the engines support a polygon container: the free
space inside ``P`` equals the free space among ``R ∪ pockets``, so every
obstacle-only algorithm applies unchanged (README, "Architecture": the
decompose stage adds the pockets).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import ConvexityError, GeometryError
from repro.geometry.decompose import (
    Seam,
    decompose_loop,
    normalize_loop,
    polygon_seams,
)
from repro.geometry.envelope import StepProfile, _profile_from_polyline
from repro.geometry.primitives import Point, Rect


class RectilinearPolygon:
    """A simple rectilinear polygon given by its boundary vertex loop."""

    def __init__(self, loop: Sequence[Point], holes: Sequence[Sequence[Point]] = ()) -> None:
        if holes:
            raise GeometryError("polygons with holes are not supported")
        self.loop = normalize_loop(loop)
        # full O(V²) simplicity validation is deferred to decomposition()
        # (obstacle role); the container role's convexity check subsumes it
        self.bbox = (
            min(p[0] for p in self.loop),
            min(p[1] for p in self.loop),
            max(p[0] for p in self.loop),
            max(p[1] for p in self.loop),
        )
        self._top: Optional[StepProfile] = None
        self._bottom: Optional[StepProfile] = None
        self._convex: Optional[bool] = None
        self._decomp: Optional[Tuple[List[Rect], List[Seam]]] = None

    # -- decomposition (obstacle role) ------------------------------------
    def decomposition(self) -> Tuple[List[Rect], List[Seam]]:
        """Disjoint maximal rectangle tiles plus interior seams (cached)."""
        if self._decomp is None:
            rects = decompose_loop(self.loop)
            self._decomp = (rects, polygon_seams(rects))
        return self._decomp

    # -- convex machinery (container role) --------------------------------
    @property
    def is_convex(self) -> bool:
        """Rectilinear convexity (required for the container role)."""
        if self._convex is None:
            try:
                self._ensure_profiles()
            except ConvexityError:
                pass  # _ensure_profiles records the verdict
        return bool(self._convex)

    @property
    def top(self) -> StepProfile:
        self._ensure_profiles()
        return self._top  # type: ignore[return-value]

    @property
    def bottom(self) -> StepProfile:
        self._ensure_profiles()
        return self._bottom  # type: ignore[return-value]

    def _ensure_profiles(self) -> None:
        if self._top is not None:
            return
        if self._convex is False:
            raise ConvexityError("polygon is not rectilinear convex")
        try:
            self._build_profiles()
            self._convex = True
        except ConvexityError:
            self._convex = False
            raise

    def _build_profiles(self) -> None:
        loop = self.loop
        n = len(loop)
        xlo, _, xhi, _ = self.bbox
        # south-west-most and south-east-most vertices anchor the bottom walk
        sw = min(range(n), key=lambda i: (loop[i][0], loop[i][1]))
        se = max(range(n), key=lambda i: (loop[i][0], -loop[i][1]))
        bottom: list[Point] = []
        i = sw
        while True:
            bottom.append(loop[i])
            if i == se:
                break
            i = (i + 1) % n
            if len(bottom) > n:
                raise ConvexityError("bottom walk does not reach the east side")
        top: list[Point] = []
        i = se
        while True:
            top.append(loop[i])
            if i == sw:
                break
            i = (i + 1) % n
            if len(top) > n:
                raise ConvexityError("top walk does not reach the west side")
        top.reverse()
        for chain, name in ((bottom, "bottom"), (top, "top")):
            for a, b in zip(chain, chain[1:]):
                if b[0] < a[0]:
                    raise ConvexityError(f"{name} boundary not x-monotone at {a}->{b}")
        if bottom[0][0] != xlo or top[0][0] != xlo or bottom[-1][0] != xhi:
            raise ConvexityError("extreme vertices inconsistent")
        top_profile = _profile_from_polyline(top)
        bottom_profile = _profile_from_polyline(bottom)
        _check_unimodal(top_profile, peak=True)
        _check_unimodal(bottom_profile, peak=False)
        self._top = top_profile
        self._bottom = bottom_profile

    # -- region protocol ---------------------------------------------------
    def top_at(self, x: int) -> int:
        return self.top.value_max_at(x)

    def bottom_at(self, x: int) -> int:
        return self.bottom.value_min_at(x)

    def _use_profiles(self) -> bool:
        """Prefer the O(log V) convex profile tests when legal: they avoid
        the one-time O(V²) simplicity sweep that decomposition runs, which
        matters for the §7 many-vertex containers."""
        if self._decomp is not None:
            return False
        return self.is_convex

    def contains(self, p: Point) -> bool:
        """Closed containment, exact for any simple polygon."""
        x, y = p
        xlo, ylo, xhi, yhi = self.bbox
        if not (xlo <= x <= xhi and ylo <= y <= yhi):
            return False
        if self._use_profiles():
            return self.bottom_at(x) <= y <= self.top_at(x)
        rects, _ = self.decomposition()
        return any(r.contains(p) for r in rects)

    def contains_interior(self, p: Point) -> bool:
        """Open containment — tile interiors plus interior seam points."""
        x, y = p
        xlo, ylo, xhi, yhi = self.bbox
        if not (xlo < x < xhi and ylo < y < yhi):
            return False
        if self._use_profiles():
            return self.bottom.value_max_at(x) < y < self.top.value_min_at(x)
        rects, seams = self.decomposition()
        return any(r.contains_interior(p) for r in rects) or any(
            s.contains_open(p) for s in seams
        )

    def contains_rect(self, r: Rect) -> bool:
        """Is the closed rectangle inside the closed polygon?"""
        if self._use_profiles():
            return all(self.contains(v) for v in r.vertices) and not any(
                _rect_pokes_out(self, r, x) for x in (r.xlo, r.xhi)
            )
        # exact via tile-overlap areas (the tiles partition the polygon)
        rects, _ = self.decomposition()
        covered = 0
        for t in rects:
            w = min(r.xhi, t.xhi) - max(r.xlo, t.xlo)
            h = min(r.yhi, t.yhi) - max(r.ylo, t.ylo)
            if w > 0 and h > 0:
                covered += w * h
        return covered == r.width * r.height

    def vertices_loop(self) -> list[Point]:
        return list(self.loop)

    @property
    def size(self) -> int:
        """|P|: the number of boundary vertices."""
        return len(self.loop)

    def boundary_vertices_ccw(self) -> list[Point]:
        return list(self.loop)

    def on_boundary(self, p: Point) -> bool:
        x, y = p
        for a, b in zip(self.loop, self.loop[1:] + [self.loop[0]]):
            if a[0] == b[0] == x and min(a[1], b[1]) <= y <= max(a[1], b[1]):
                return True
            if a[1] == b[1] == y and min(a[0], b[0]) <= x <= max(a[0], b[0]):
                return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RectilinearPolygon({self.loop[:4]}...x{len(self.loop)})"


def _rect_pokes_out(poly: RectilinearPolygon, r: Rect, x: int) -> bool:
    return not (poly.bottom_at(x) <= r.ylo and r.yhi <= poly.top_at(x))


def _check_unimodal(profile: StepProfile, peak: bool) -> None:
    ys = [r[2] for r in profile.runs]
    direction = 1
    for a, b in zip(ys, ys[1:]):
        d = b - a
        if not peak:
            d = -d
        if direction == 1 and d < 0:
            direction = -1
        elif direction == -1 and d > 0:
            raise ConvexityError("profile not unimodal: polygon is not convex")


def rect_polygon(xlo: int, ylo: int, xhi: int, yhi: int) -> RectilinearPolygon:
    """The rectangle ``[xlo,xhi] × [ylo,yhi]`` as a polygon."""
    return RectilinearPolygon([(xlo, ylo), (xhi, ylo), (xhi, yhi), (xlo, yhi)])


def pockets_to_rects(poly: RectilinearPolygon) -> list[Rect]:
    """Decompose ``bbox(P) \\ P`` into rectangles (one per profile step).

    Requires the container role's convexity (raises ``ConvexityError``
    otherwise).  The rectangles may share edges with each other; their
    interiors are pairwise disjoint and disjoint from ``P``.
    """
    xlo, ylo, xhi, yhi = poly.bbox
    out: list[Rect] = []
    for a, b, y in poly.top.runs:
        if y < yhi:
            out.append(Rect(a, y, b, yhi))
    for a, b, y in poly.bottom.runs:
        if y > ylo:
            out.append(Rect(a, ylo, b, y))
    return out
