"""Arbitrary-point length queries (§6.4 of the paper).

Given the ``V_R``-to-``V_R`` length matrix, a query between arbitrary
points costs ``O(log n)`` with one processor:

* locate the query pair's relative quadrant and reduce, by reflection, to
  "``q`` is to the lower-left of ``p``";
* decide whether ``p`` lies above or below the implicit ``NE(q)`` path by
  binary search on the tracing forest (the paper's subdivisions ``H₁/H₂``
  answer the same ray-shooting queries; our segment-tree
  :class:`RayShooter` plays that role, see :mod:`repro.geometry.rayshoot`);
* below: shoot a leftward ray from ``p``.  If it crosses ``NE(q)`` before
  any obstacle the length is ``d(p, q)`` (there is a staircase); otherwise
  it hits an obstacle edge ``q₁q₂`` and the answer is
  ``min_i d(p, qᵢ) + D(qᵢ, q)`` — the two-candidate rule proved in [11].
  Above: symmetric with a downward ray;
* when ``q`` is itself arbitrary, the inner ``D(qᵢ, q)`` terms recurse one
  level (``qᵢ`` is always an obstacle vertex, so the recursion grounds in
  the matrix).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.allpairs import DistanceIndex
from repro.core.tracing import TraceForests, _resume_corner
from repro.errors import QueryError
from repro.geometry.primitives import (
    IDENTITY,
    Point,
    Rect,
    Transform,
    dist,
    points_in_any_interior,
    rect_coord_array,
)
from repro.geometry.rayshoot import RayShooter
from repro.pram.machine import PRAM, ambient

INF = float("inf")

_QUADRANT_WORLD = {
    (1, 1): IDENTITY,  # q lower-left of p already
    (-1, 1): Transform(sx=-1),  # q lower-right -> reflect x
    (1, -1): Transform(sy=-1),  # q upper-left -> reflect y
    (-1, -1): Transform(sx=-1, sy=-1),
}

#: fixed world order for the persistence hooks (rows of the parents array)
_WORLD_ORDER: tuple[tuple[int, int], ...] = ((1, 1), (-1, 1), (1, -1), (-1, -1))


class _ImplicitPath:
    """O(log n)-searchable view of the canonical NE(q) path in one world.

    The path's corner sequence is ``q, (qx, b₀), (e₀, b₀), (e₀, b₁),
    (e₁, b₁), …`` where ``bᵢ``/``eᵢ`` are the bottom/right coordinates of
    the obstacles rounded; both sequences are strictly monotone, which is
    what the binary searches exploit.
    """

    def __init__(self, q: Point, chain: list[Rect]):
        self.q = q
        self.bots = [r.ylo for r in chain]  # strictly increasing
        self.easts = [r.xhi for r in chain]  # strictly increasing

    def y_at_x(self, x: int) -> float:
        """Path height at vertical line ``x`` (≥ qx); +inf on the N-ray."""
        if not self.bots:
            return INF if x == self.q[0] else None  # type: ignore[return-value]
        if x > self.easts[-1]:
            return None  # type: ignore[return-value]  # beyond the last corner
        # first obstacle whose east edge reaches x
        lo, hi = 0, len(self.easts) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self.easts[mid] >= x:
                hi = mid
            else:
                lo = mid + 1
        return float(self.bots[lo])

    def x_crossing_at_y(self, y: int) -> Optional[float]:
        """x where the path crosses the horizontal line at ``y`` (≥ qy)."""
        if not self.bots or y <= self.bots[0]:
            return float(self.q[0])  # the initial vertical run (or N-ray)
        if y > self.bots[-1]:
            return float(self.easts[-1])  # the terminal N-ray
        lo, hi = 0, len(self.bots) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self.bots[mid] >= y:
                hi = mid
            else:
                lo = mid + 1
        # vertical segment between obstacle lo-1 and lo sits at east[lo-1]
        return float(self.easts[lo - 1])


class _QueryWorld:
    def __init__(
        self,
        t: Transform,
        rects: Sequence[Rect],
        ne_parents: Optional[Sequence[Optional[int]]] = None,
    ):
        self.t = t
        self.inv = t.inverse()
        self.rects = t.apply_rects(list(rects))
        if ne_parents is None:
            # derive the NE forest by tracing (the lazy forests trace only
            # NE); the world shares the forests' ray shooter
            forests = TraceForests(self.rects)
            self.shooter = forests.shooter
            self.parents = forests.parents("NE")
        else:
            # snapshot fast path: the forest was persisted, only the ray
            # shooter is rebuilt
            self.shooter = RayShooter(self.rects)
            self.parents = list(ne_parents)

    def ne_chain(self, q: Point, nmax: int) -> _ImplicitPath:
        chain: list[Rect] = []
        hit = self.shooter.shoot(q, "N")
        cur = None if hit is None else hit.rect_index
        guard = 0
        while cur is not None:
            guard += 1
            if guard > nmax + 1:  # pragma: no cover
                raise QueryError("NE chain did not terminate")
            chain.append(self.rects[cur])
            cur = self.parents[cur]
        return _ImplicitPath(q, chain)


class QueryStructure:
    """§6.4: O(log n) length queries between arbitrary plane points."""

    def __init__(
        self,
        rects: Sequence[Rect],
        index: DistanceIndex,
        pram: Optional[PRAM] = None,
        world_parents: Optional[np.ndarray] = None,
    ) -> None:
        """``world_parents`` — optional ``(4, n)`` array of persisted NE
        tracing-forest parents (one row per world of :data:`_WORLD_ORDER`,
        ``-1`` for "escapes to infinity"), as produced by
        :meth:`export_world_parents`; skips re-tracing the forests."""
        pram = pram or ambient()
        self.rects = list(rects)
        self._rect_arr = rect_coord_array(self.rects)
        self.index = index
        n = len(self.rects)
        if world_parents is not None:
            arr = np.asarray(world_parents)
            if arr.shape != (4, n):
                raise QueryError(
                    f"world_parents shape {arr.shape} does not match "
                    f"(4, {n}) for {n} obstacles"
                )
            self.worlds = {
                key: _QueryWorld(
                    _QUADRANT_WORLD[key],
                    self.rects,
                    [None if v < 0 else int(v) for v in arr[k]],
                )
                for k, key in enumerate(_WORLD_ORDER)
            }
            # shooters only; the persisted forests cost nothing to reload
            pram.charge(time=pram.log2ceil(n or 1), work=4 * n, width=4 * n)
        else:
            self.worlds = {
                key: _QueryWorld(t, self.rects) for key, t in _QUADRANT_WORLD.items()
            }
            # forest + shooter construction, charged once (the paper's H₁/H₂
            # and indicator pre-processing)
            pram.charge(time=pram.log2ceil(n or 1), work=8 * n * pram.log2ceil(n or 1), width=4 * n)

    # -- persistence hooks (repro.serve.snapshot) ------------------------
    def export_world_parents(self) -> np.ndarray:
        """The four worlds' NE tracing-forest parent arrays as one
        ``(4, n)`` int array (``-1`` encodes None), in :data:`_WORLD_ORDER`
        order — everything :class:`QueryStructure` derives from the scene
        that is worth persisting (shooters are cheap to rebuild)."""
        n = len(self.rects)
        out = np.full((4, n), -1, dtype=np.int64)
        for k, key in enumerate(_WORLD_ORDER):
            for i, parent in enumerate(self.worlds[key].parents):
                if parent is not None:
                    out[k, i] = parent
        return out

    # ------------------------------------------------------------------
    def length(self, p: Point, q: Point) -> float:
        """Length of a shortest obstacle-avoiding rectilinear p-q path."""
        for r in self.rects:
            if r.contains_interior(p) or r.contains_interior(q):
                raise QueryError("query point inside an obstacle")
        if self.index.has_point(p) and self.index.has_point(q):
            return self.index.length(p, q)
        return self._length_arbitrary(p, q)

    def lengths(self, pairs: Sequence[tuple[Point, Point]]) -> np.ndarray:
        """Batched :meth:`length`: one vectorized containment check for
        every endpoint, one matrix gather for all indexed pairs, and only
        the genuinely arbitrary pairs walk the §6.4 machinery."""
        out = np.empty(len(pairs))
        if not pairs:
            return out
        flat: list[Point] = [pt for pair in pairs for pt in pair]
        bad = points_in_any_interior(self._rect_arr, flat)
        if bad.any():
            raise QueryError(
                f"query point {flat[int(np.flatnonzero(bad)[0])]} inside "
                "an obstacle"
            )
        pos: list[int] = []
        fast: list[tuple[Point, Point]] = []
        for n, (p, q) in enumerate(pairs):
            if self.index.has_point(p) and self.index.has_point(q):
                pos.append(n)
                fast.append((p, q))
            else:
                # already validated above — skip length()'s per-rect loop
                out[n] = self._length_arbitrary(p, q)
        if pos:
            out[np.array(pos, dtype=np.intp)] = self.index.lengths(
                [p for p, _ in fast], [q for _, q in fast]
            )
        return out

    # ------------------------------------------------------------------
    def _length_arbitrary(self, p: Point, q: Point) -> float:
        if p == q:
            return 0
        if self.index.has_point(p) and not self.index.has_point(q):
            p, q = q, p  # ground the two-candidate rule in the matrix
        sx = 1 if q[0] <= p[0] else -1
        sy = 1 if q[1] <= p[1] else -1
        world = self.worlds[(sx, sy)]
        wp, wq = world.t.apply(p), world.t.apply(q)
        path = world.ne_chain(wq, len(self.rects))
        y_here = path.y_at_x(wp[0])
        if y_here is None or wp[1] <= y_here:
            return self._below_case(world, wp, wq, path, q)
        return self._above_case(world, wp, wq, path, q)

    def _below_case(self, world: _QueryWorld, wp, wq, path: _ImplicitPath, q: Point) -> float:
        bx = path.x_crossing_at_y(wp[1])
        hit = world.shooter.shoot(wp, "W")
        if bx is not None and (hit is None or hit.point[0] <= bx):
            return dist(wp, wq)
        assert hit is not None
        u1, u2 = hit.edge
        return self._two_candidates(world, wp, (u1, u2), q)

    def _above_case(self, world: _QueryWorld, wp, wq, path: _ImplicitPath, q: Point) -> float:
        by = path.y_at_x(wp[0])
        hit = world.shooter.shoot(wp, "S")
        if by is not None and (hit is None or hit.point[1] <= by):
            return dist(wp, wq)
        assert hit is not None
        u1, u2 = hit.edge
        return self._two_candidates(world, wp, (u1, u2), q)

    def _two_candidates(self, world: _QueryWorld, wp, candidates, q: Point) -> float:
        best = INF
        for wu in candidates:
            u = world.inv.apply(wu)
            if self.index.has_point(q):
                inner = self.index.length(u, q)
            else:
                # q arbitrary: recurse with the roles swapped so the next
                # level's barrier sits at the vertex u — which is always in
                # the matrix, so the recursion grounds at depth one
                inner = self._length_arbitrary(q, u)
            cand = dist(wp, wu) + inner
            if cand < best:
                best = cand
        return best
