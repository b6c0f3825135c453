"""High-level facade: one object that builds and serves everything.

``ShortestPathIndex`` wires together the build engines (§5/§6 parallel on
the simulated PRAM, or §9 sequential), the arbitrary-point query structure
(§6.4) and the path reporter (§8), with optional rectilinear-convex
container support (``P`` of the paper) via pocket decomposition.

Obstacles may be plain :class:`Rect` objects or general simple
:class:`RectilinearPolygon` obstacles.  Polygons are decomposed into
disjoint maximal rectangles plus interior :class:`Seam` records
(:mod:`repro.geometry.decompose`); the rectangles feed the paper's
engines while the seams are threaded through every blocking-sensitive
primitive, so the computed metric treats each polygon as one solid
obstacle.  Tracing-based structures (§6.4 queries, §8 path reports)
assume rectangle obstacles, so polygon scenes answer arbitrary-point
queries and report paths through the exact corner-graph machinery
instead (see :class:`_SolidQuery`).
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence, Union

import numpy as np

from repro.core.allpairs import DistanceIndex
from repro.core.baseline import clear_l1_block, path_is_clear
from repro.core.pathreport import PathReporter
from repro.core.query import QueryStructure
from repro.errors import GeometryError, QueryError
from repro.geometry.decompose import Seam
from repro.geometry.polygon import RectilinearPolygon
from repro.geometry.primitives import (
    Point,
    Rect,
    points_in_any_interior,
    rect_coord_array,
)
from repro.pram.machine import PRAM

#: engine names are resolved through :mod:`repro.pipeline`'s registry —
#: any registered name is valid ("parallel", "sequential", "grid", ...)
Engine = str

#: every query verb a freshly built index answers; snapshot reloads may
#: narrow this (older artifact formats predate the link-query family)
FULL_CAPABILITIES = ("length", "path", "minlink", "pareto")

#: what ``ShortestPathIndex.build`` accepts as one obstacle
Obstacle = Union[Rect, RectilinearPolygon]


def split_obstacles(
    obstacles: Sequence[Obstacle],
) -> tuple[list[Rect], list[RectilinearPolygon], list[Rect], list[Seam]]:
    """``(plain rects, polygons, all engine rects, seams)`` of a mixed
    obstacle list.  ``all engine rects`` preserves the input order, with
    each polygon expanded in place into its decomposition tiles."""
    plain: list[Rect] = []
    polys: list[RectilinearPolygon] = []
    all_rects: list[Rect] = []
    seams: list[Seam] = []
    for obs in obstacles:
        if isinstance(obs, Rect):
            plain.append(obs)
            all_rects.append(obs)
        elif isinstance(obs, RectilinearPolygon):
            polys.append(obs)
            prects, pseams = obs.decomposition()
            all_rects.extend(prects)
            seams.extend(pseams)
        else:
            raise GeometryError(
                f"obstacle must be a Rect or RectilinearPolygon, got {obs!r}"
            )
    return plain, polys, all_rects, seams


class ShortestPathIndex:
    """All-pairs rectilinear shortest paths among rectangular obstacles.

    >>> from repro import Rect, ShortestPathIndex
    >>> idx = ShortestPathIndex.build([Rect(2, 2, 4, 8), Rect(6, 0, 9, 5)])
    >>> idx.length((2, 2), (9, 5))
    10
    >>> idx.shortest_path((2, 2), (9, 5))[0]
    (2, 2)

    Lengths between obstacle vertices (and pre-registered points) are O(1)
    matrix lookups; arbitrary points go through the O(log n) machinery of
    §6.4; ``shortest_path`` reports an actual polyline per §8.
    """

    def __init__(
        self,
        rects: Sequence[Rect],
        index: DistanceIndex,
        pram: PRAM,
        container: Optional[RectilinearPolygon] = None,
        engine: str = "parallel",
        query_parents: Optional[np.ndarray] = None,
        polygons: Sequence[RectilinearPolygon] = (),
        seams: Sequence[Seam] = (),
    ) -> None:
        self.rects = list(rects)
        self.index = index
        self.pram = pram
        self.container = container
        self.engine = engine
        self.polygons = list(polygons)
        self.seams = list(seams)
        #: stage-by-stage build report (engine, timings, cache hits) set
        #: by :func:`repro.pipeline.build_index`; None for indexes built
        #: by hand or reloaded from pre-provenance snapshots
        self.provenance: Optional[dict] = None
        self._query: Optional[object] = None
        self._query_parents = query_parents  # persisted §6.4 forests, if any
        self._reporter: Optional[PathReporter] = None
        #: query verbs this index can answer; snapshot reloads narrow it
        #: (with `capability_note` explaining why) for artifact formats
        #: that predate a verb
        self.capabilities: tuple[str, ...] = FULL_CAPABILITIES
        self.capability_note: Optional[str] = None
        self._links: Optional[object] = None
        self._link_matrix: Optional[np.ndarray] = None  # persisted, if any
        self._adhoc_links: "dict[frozenset, object]" = {}
        self._rect_arr = rect_coord_array(self.rects)
        self._seam_arr = np.array(
            [(s.x, s.ylo, s.yhi) for s in self.seams], dtype=np.float64
        ).reshape(-1, 3)
        # the lazy substructures are built at most once even when a
        # QueryServer drives this index from many threads
        self._lazy_lock = threading.Lock()

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        obstacles: Sequence[Obstacle],
        extra_points: Sequence[Point] = (),
        engine: Engine = "parallel",
        container: Optional[RectilinearPolygon] = None,
        pram: Optional[PRAM] = None,
        leaf_size: int = 6,
        jobs: Optional[int] = None,
    ) -> "ShortestPathIndex":
        """Build the index over a mix of ``Rect`` and ``RectilinearPolygon``
        obstacles.

        Polygons are decomposed into disjoint maximal rectangles plus
        interior seams, and the metric treats each polygon as one solid
        obstacle (a point strictly inside a polygon — seam points included
        — is rejected by every query).  ``container``: a rectilinear convex
        polygon ``P``; its pockets are decomposed into rectangles and added
        as obstacles, so the metric becomes "inside P" exactly as in the
        paper (§1).

        This is a thin call into the staged pipeline of
        :mod:`repro.pipeline` (``decompose → graph → solve[engine] →
        query-structures``): ``engine`` resolves through the engine
        registry (an unknown name fails with one line listing what is
        registered), stage artifacts are cached content-addressed by the
        scene (so rebuilding the same scene — or solving it under a second
        engine — reuses the geometry stages), and the per-stage report is
        attached as ``idx.provenance``.  Use
        :func:`repro.pipeline.build_index` directly to control the cache.

        ``jobs`` sizes the worker pool of the ``parallel-mp`` engine
        (ignored by the others).
        """
        from repro.pipeline import build_index
        from repro.scene import Scene

        scene = Scene.from_obstacles(
            obstacles, container=container, extra_points=extra_points
        )
        return build_index(
            scene, engine=engine, pram=pram, leaf_size=leaf_size, jobs=jobs
        )

    # ------------------------------------------------------------------
    @property
    def query(self):
        """Arbitrary-point query structure: §6.4 for rectangle scenes, the
        exact corner-graph substitute for polygon scenes (the §6.4 tracing
        subdivisions assume rectangle obstacles)."""
        if self._query is None:
            with self._lazy_lock:
                if self._query is None:
                    if self.seams:
                        self._query = _SolidQuery(self)
                    else:
                        self._query = QueryStructure(
                            self.rects,
                            self.index,
                            self.pram,
                            world_parents=self._query_parents,
                        )
        return self._query

    @property
    def reporter(self) -> PathReporter:
        if self.seams:
            # the §8 tracing reporter assumes rectangle obstacles and would
            # happily route straight through polygon-interior seams; polygon
            # scenes report paths via shortest_path's corner-hop assembly
            raise QueryError(
                "the §8 path reporter is rectangle-only; use shortest_path() "
                "on scenes with polygon obstacles"
            )
        if self._reporter is None:
            with self._lazy_lock:
                if self._reporter is None:
                    self._reporter = PathReporter(self.rects, self.index, self.pram)
        return self._reporter

    @property
    def links(self):
        """Minimum-link / bicriteria oracle (:mod:`repro.links`) over the
        indexed point set, built lazily from the same scene geometry."""
        if self._links is None:
            with self._lazy_lock:
                if self._links is None:
                    from repro.links import LinkDistanceIndex

                    self._links = LinkDistanceIndex(
                        self.rects,
                        self.index.points,
                        seams=self.seams,
                        container=self.container,
                        link_matrix=self._link_matrix,
                    )
        return self._links

    # -- the (length, bends) query family ------------------------------
    def _require_verb(self, verb: str) -> None:
        if verb not in self.capabilities:
            note = f" ({self.capability_note})" if self.capability_note else ""
            raise QueryError(
                f"this index cannot answer '{verb}' queries{note}"
            )

    def _links_for(self, pts: Sequence[Point]):
        """The shared link index, or an ad-hoc one whose grid also
        carries any off-grid endpoints (tiny keyed cache: a client
        re-asking about the same arbitrary pair pays one grid build)."""
        links = self.links
        missing = [p for p in pts if not links.has_point(p)]
        if not missing:
            return links
        key = frozenset(missing)
        hit = self._adhoc_links.get(key)
        if hit is None:
            hit = links.extended(missing)
            if len(self._adhoc_links) >= 8:
                self._adhoc_links.pop(next(iter(self._adhoc_links)))
            self._adhoc_links[key] = hit
        return hit

    def min_links(self, p: Point, q: Point) -> int:
        """Minimum number of maximal straight segments of any p → q path
        (0 iff ``p == q``); bends = ``max(min_links - 1, 0)``."""
        self._require_verb("minlink")
        self._check_inside(p)
        self._check_inside(q)
        return self._links_for([p, q]).min_links(p, q)

    def min_link_path(self, p: Point, q: Point) -> list[Point]:
        """A witness polyline achieving :meth:`min_links` (minimum length
        among minimum-link paths)."""
        self._require_verb("minlink")
        self._check_inside(p)
        self._check_inside(q)
        return self._links_for([p, q]).min_link_path(p, q)

    def link_counts(self, pairs: Sequence[tuple[Point, Point]]) -> list[int]:
        """Batched :meth:`min_links`; pairs sharing endpoints share one
        solver run."""
        self._require_verb("minlink")
        flat = [pt for pair in pairs for pt in pair]
        for pt in flat:
            self._check_inside(pt)
        return self._links_for(flat).link_counts(pairs)

    def bicriteria(
        self, p: Point, q: Point, with_paths: bool = True
    ) -> list[tuple[float, int, Optional[list[Point]]]]:
        """The Pareto frontier of ``(length, bends)`` pairs p → q with one
        witness path per point (sorted by increasing bends; lengths are
        strictly decreasing)."""
        self._require_verb("pareto")
        self._check_inside(p)
        self._check_inside(q)
        return self._links_for([p, q]).bicriteria(p, q, with_paths=with_paths)

    def paretos(
        self, pairs: Sequence[tuple[Point, Point]]
    ) -> list[list[tuple[float, int]]]:
        """Batched witness-free Pareto frontiers, one ``[(length, bends),
        ...]`` list per pair."""
        self._require_verb("pareto")
        flat = [pt for pair in pairs for pt in pair]
        for pt in flat:
            self._check_inside(pt)
        return self._links_for(flat).paretos(pairs)

    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Persist this fully built index as a ``.rsp`` snapshot artifact
        (see :mod:`repro.serve.snapshot`); reload with :meth:`load`."""
        from repro.serve.snapshot import save as _save

        _save(self, path)

    @classmethod
    def load(cls, path) -> "ShortestPathIndex":
        """Reload a snapshot saved by :meth:`save` — milliseconds instead
        of re-running the parallel build."""
        from repro.serve.snapshot import load as _load

        return _load(path)

    # ------------------------------------------------------------------
    def length(self, p: Point, q: Point) -> float:
        """Shortest-path length; O(1) for indexed vertices, O(log n)
        otherwise (§6.4)."""
        self._check_inside(p)
        self._check_inside(q)
        if self.index.has_point(p) and self.index.has_point(q):
            return self.index.length(p, q)
        return self.query.length(p, q)

    def lengths(self, pairs: Sequence[tuple[Point, Point]]) -> np.ndarray:
        """Batched :meth:`length` over ``(p, q)`` pairs.

        A batch whose endpoints are all indexed is always answered with a
        single matrix gather — indexed points are obstacle vertices or
        build-validated extras, never obstacle interiors, so no further
        validation (and no §6.4 structure) is needed.  Batches containing
        arbitrary endpoints go through :meth:`QueryStructure.lengths`,
        whose one vectorized containment test validates every endpoint.
        """
        if not pairs:
            return np.empty(0)
        flat: list[Point] = [pt for pair in pairs for pt in pair]
        if self.container is not None:
            for pt in flat:
                if not self.container.contains(pt):
                    raise QueryError(f"{pt} lies outside the container polygon")
        if all(self.index.has_point(pt) for pt in flat):
            return self.index.lengths(
                [p for p, _ in pairs], [q for _, q in pairs]
            )
        # both query backends validate the endpoints themselves (one
        # vectorized containment pass each) — no pre-check here
        return self.query.lengths(pairs)

    def shortest_path(self, p: Point, q: Point) -> list[Point]:
        """An actual shortest path polyline (§8).

        Arbitrary endpoints are attached to the vertex trees with the
        two-candidate rule of §6.4.  Polygon scenes assemble the polyline
        from clear L-legs and corner-graph hops instead (the §8 tracing
        reporter assumes rectangle obstacles).
        """
        self._check_inside(p)
        self._check_inside(q)
        if self.seams:
            return self._solid_path(p, q)
        if self.index.has_point(p) and self.index.has_point(q):
            path = self.reporter.path(p, q)
        elif self.container is None:
            return self._arbitrary_path(p, q)
        else:
            try:
                path = self._arbitrary_path(p, q)
            except QueryError:
                return self._solid_path(p, q)
        return self._confine(path, p, q)

    def _confine(self, path: list[Point], p: Point, q: Point) -> list[Point]:
        """Container-confinement pass over an assembled polyline.

        The §8 tracing reporter knows obstacles only as rectangle
        *interiors*, so on container scenes it can graze along
        pocket-pocket shared edges that lie strictly outside ``P`` (the
        reported length is still the correct in-``P`` distance — ``P`` is
        rectilinear convex, so leaving it never shortens a path).  When
        any polyline vertex escapes, reassemble with the container-aware
        corner-hop machinery instead; ``P``'s convexity means checking
        the vertices confines every axis-parallel segment between them.
        """
        if self.container is not None and any(
            not self.container.contains(pt) for pt in path
        ):
            return self._solid_path(p, q)
        return path

    def vertices(self) -> list[Point]:
        return list(self.index.points)

    def build_stats(self) -> tuple[int, int]:
        """(simulated parallel time, work) of everything built so far."""
        return self.pram.time, self.pram.work

    # ------------------------------------------------------------------
    def _check_inside(self, p: Point) -> None:
        if self.container is not None and not self.container.contains(p):
            raise QueryError(f"{p} lies outside the container polygon")
        if points_in_any_interior(self._rect_arr, [p])[0]:
            raise QueryError(f"{p} lies inside an obstacle")
        # a point on a decomposition seam is strictly inside its polygon
        # even though it touches no rectangle interior
        for s in self.seams:
            if s.contains_open(p):
                raise QueryError(f"{p} lies inside a polygon obstacle")

    def _check_points_free(self, pts: Sequence[Point]) -> None:
        """Vectorized obstacle-interior rejection for a point batch (rect
        interiors plus polygon seam interiors)."""
        bad = points_in_any_interior(self._rect_arr, pts)
        if self._seam_arr.size:
            arr = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
            on_seam = (
                (arr[:, 0][:, None] == self._seam_arr[None, :, 0])
                & (arr[:, 1][:, None] > self._seam_arr[None, :, 1])
                & (arr[:, 1][:, None] < self._seam_arr[None, :, 2])
            ).any(axis=1)
            bad = bad | on_seam
        if bad.any():
            p = list(pts)[int(np.argmax(bad))]
            raise QueryError(f"{p} lies inside an obstacle")

    def _arbitrary_path(self, p: Point, q: Point) -> list[Point]:
        """Assemble a path for arbitrary endpoints: try every (anchor p,
        anchor q) vertex pair produced by the §6.4 candidate machinery."""
        total = self.query.length(p, q)
        if total == abs(p[0] - q[0]) + abs(p[1] - q[1]):
            direct = self._staircase_between(p, q)
            if direct is not None:
                return direct
        best: Optional[list[Point]] = None
        for u in self._anchors(p):
            for v in self._anchors(q):
                lu = self.query.length(p, u)
                lv = self.query.length(v, q)
                mid = self.index.length(u, v)
                if lu + mid + lv == total:
                    head = self._staircase_between(p, u)
                    tail = self._staircase_between(v, q)
                    if head is None or tail is None:
                        continue
                    middle = self.reporter.path(u, v)
                    path = head[:-1] + middle + tail[1:]
                    best = _dedupe_polyline(path)
                    return best
        raise QueryError(
            f"could not assemble a path {p} -> {q}; lengths are still exact"
        )

    def _anchors(self, p: Point) -> list[Point]:
        """Obstacle vertices that can serve as the first hop from p."""
        if self.index.has_point(p):
            return [p]
        out = []
        from repro.geometry.rayshoot import RayShooter

        shooter = getattr(self, "_shooter", None)
        if shooter is None:
            shooter = RayShooter(self.rects)
            self._shooter = shooter
        for d in ("N", "S", "E", "W"):
            h = shooter.shoot(p, d)
            if h is not None:
                out.extend(h.edge)
        # dedupe preserving order
        return list(dict.fromkeys(out)) or []

    # -- polygon-scene (solid) path assembly ----------------------------
    def _clear_lpath(self, a: Point, b: Point) -> Optional[list[Point]]:
        """A clear extreme L-path a→b (one of the two), or None.

        Matches :func:`repro.core.baseline.clear_l1_block`'s notion of
        clearance, seams included.  With a container the leg must also stay
        inside ``P``: a rect-clear L can graze along pocket-pocket seams
        strictly outside ``P``.  ``P`` is rectilinear convex, so checking
        the bend point (the endpoints are already inside) confines the
        whole leg."""
        for mid in ((b[0], a[1]), (a[0], b[1])):
            if self.container is not None and not self.container.contains(mid):
                continue
            cand = _dedupe_polyline([a, mid, b])
            if path_is_clear(cand, self.rects, seams=self.seams):
                return cand
        return None

    def _clear_row(self, p: Point) -> np.ndarray:
        """Clear-L-path distances from ``p`` to every indexed vertex."""
        return clear_l1_block([p], self.index.points, self.rects, seams=self.seams)[0]

    def _solid_vertex_path(self, u: Point, v: Point) -> list[Point]:
        """Vertex-to-vertex polyline on polygon scenes: greedy corner-graph
        descent — every shortest path splits as ``clear L-leg + shorter
        suffix`` at some indexed corner (the leaf-solve argument of
        :func:`corner_graph_matrix`, which also covers polygon seams since
        seam endpoints are tile corners)."""
        mat = self.index.matrix
        pts = self.index.points
        j = self.index.index[v]
        out: list[Point] = [u]
        cur = u
        remaining = float(mat[self.index.index[u], j])
        if not np.isfinite(remaining):
            raise QueryError(f"{u} and {v} are disconnected")
        guard = 0
        while cur != v:
            guard += 1
            if guard > len(pts) + 1:  # pragma: no cover - broken matrix
                raise QueryError("solid path reconstruction did not converge")
            row = self._clear_row(cur)
            if row[j] == remaining:
                leg = self._clear_lpath(cur, v)
                if leg is not None:
                    out.extend(leg[1:])
                    break
            suffix = row + mat[:, j]
            cand = np.where(
                (suffix == remaining) & (mat[:, j] < remaining)
            )[0]
            for k in cand:
                if self.container is not None and not self.container.contains(
                    pts[k]
                ):
                    continue  # pocket corner strictly outside P
                leg = self._clear_lpath(cur, pts[k])
                if leg is not None:
                    out.extend(leg[1:])
                    cur = pts[k]
                    remaining = float(mat[k, j])
                    break
            else:  # pragma: no cover - contradicts the leaf-solve argument
                raise QueryError(f"no clear hop from {cur} toward {v}")
        return _dedupe_polyline(out)

    def _solid_path(self, p: Point, q: Point) -> list[Point]:
        """Shortest polyline on a polygon scene, arbitrary endpoints."""
        if self.index.has_point(p) and self.index.has_point(q):
            return self._solid_vertex_path(p, q)
        total = self.length(p, q)
        direct = clear_l1_block([p], [q], self.rects, seams=self.seams)[0, 0]
        if direct == total:
            leg = self._clear_lpath(p, q)
            if leg is not None:
                return leg
        cp = self._clear_row(p)
        cq = self._clear_row(q)
        via = cp[:, None] + self.index.matrix + cq[None, :]
        hits = np.argwhere(via == total)
        pts = self.index.points
        for i, j in hits:
            if self.container is not None and not (
                self.container.contains(pts[i]) and self.container.contains(pts[j])
            ):
                continue
            head = self._clear_lpath(p, pts[i])
            tail = self._clear_lpath(pts[j], q)
            if head is None or tail is None:  # pragma: no cover - defensive
                continue
            middle = self._solid_vertex_path(pts[i], pts[j])
            return _dedupe_polyline(head[:-1] + middle + tail[1:])
        raise QueryError(  # pragma: no cover - contradicts exactness argument
            f"could not assemble a polygon-scene path {p} -> {q}"
        )

    def _staircase_between(self, a: Point, b: Point) -> Optional[list[Point]]:
        """A clear monotone staircase a→b of length d(a,b), or None.

        Tries the two extreme L-shapes and a mid bend; falls back to the
        oracle-free greedy walk used by the examples.
        """
        from repro.core.baseline import path_is_clear

        candidates = [
            [a, (b[0], a[1]), b],
            [a, (a[0], b[1]), b],
        ]
        for cand in candidates:
            cand = _dedupe_polyline(cand)
            if path_is_clear(cand, self.rects):
                return cand
        # general monotone staircase via a small local grid
        from repro.core.baseline import GridOracle

        xlo, xhi = min(a[0], b[0]), max(a[0], b[0])
        ylo, yhi = min(a[1], b[1]), max(a[1], b[1])
        local = [
            r
            for r in self.rects
            if r.xlo <= xhi and xlo <= r.xhi and r.ylo <= yhi and ylo <= r.yhi
        ]
        if not local:
            return _dedupe_polyline([a, (b[0], a[1]), b])
        try:
            oracle = GridOracle(local, [a, b])
            if oracle.dist(a, b) == abs(a[0] - b[0]) + abs(a[1] - b[1]):
                return oracle.path(a, b)
        except Exception:  # noqa: BLE001 - fall through to None
            return None
        return None


def _obstacle_rect_groups(obstacles: Sequence[Obstacle]) -> list[list[Rect]]:
    """Per-obstacle rectangle lists (one rect, or a polygon's tiles)."""
    out: list[list[Rect]] = []
    for obs in obstacles:
        if isinstance(obs, Rect):
            out.append([obs])
        else:
            out.append(list(obs.decomposition()[0]))
    return out


class _SolidQuery:
    """Exact arbitrary-point queries for polygon scenes.

    The §6.4 structure walks tracing subdivisions that only exist for
    rectangle obstacles.  For polygon scenes the same answers come from
    the corner-graph identity the engines' leaves already rely on::

        d(p, q) = min( clear(p, q),
                       min_{u,v ∈ V} clear(p, u) + D(u, v) + clear(v, q) )

    where ``clear`` is the seam-aware single-L-path distance and ``V`` the
    indexed vertex set (every tile corner — seam endpoints included — so
    the taut-path decomposition argument applies verbatim).  O(|V|²) per
    pair, vectorized; exactness is cross-checked against the grid-Dijkstra
    baseline by the differential fuzz suite.
    """

    def __init__(self, owner: ShortestPathIndex) -> None:
        self._owner = owner

    def length(self, p: Point, q: Point) -> float:
        from repro.core.allpairs import exact_length

        return exact_length(self.lengths([(p, q)])[0])

    def lengths(self, pairs: Sequence[tuple[Point, Point]]) -> np.ndarray:
        owner = self._owner
        if not pairs:
            return np.empty(0)
        flat = [pt for pair in pairs for pt in pair]
        owner._check_points_free(flat)
        uniq = list(dict.fromkeys(flat))
        pos = {pt: i for i, pt in enumerate(uniq)}
        clear_uv = clear_l1_block(
            uniq, owner.index.points, owner.rects, seams=owner.seams
        )
        clear_uu = clear_l1_block(uniq, uniq, owner.rects, seams=owner.seams)
        mat = owner.index.matrix
        # g[i][v] = min_u clear(p_i, u) + D(u, v): one O(n²) min-plus row
        # per distinct left endpoint, so a coalesced batch that repeats
        # endpoints pays O(n) per pair instead of a fresh n×n reduction
        g_rows: dict[int, np.ndarray] = {}

        def g(i: int) -> np.ndarray:
            row = g_rows.get(i)
            if row is None:
                row = np.min(clear_uv[i][:, None] + mat, axis=0)
                g_rows[i] = row
            return row

        out = np.empty(len(pairs))
        for k, (p, q) in enumerate(pairs):
            if p == q:
                out[k] = 0.0
                continue
            i, j = pos[p], pos[q]
            if owner.index.has_point(p) and owner.index.has_point(q):
                out[k] = owner.index.length(p, q)
                continue
            via = np.min(g(i) + clear_uv[j])
            out[k] = min(clear_uu[i, j], via)
        return out


def _dedupe_polyline(pts: list[Point]) -> list[Point]:
    out: list[Point] = []
    for p in pts:
        if not out or out[-1] != p:
            if len(out) >= 2 and (
                (out[-2][0] == out[-1][0] == p[0]) or (out[-2][1] == out[-1][1] == p[1])
            ):
                out[-1] = p
            else:
                out.append(p)
    return out
