"""Tests for ray shooting, hit sets, the Hanan grid and the grid oracle."""

import math
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.baseline import GridOracle, path_is_clear, path_length
from repro.geometry.hanan import hanan_graph
from repro.geometry.primitives import Rect, dist
from repro.geometry.rayshoot import RayShooter, brute_force_shoot
from repro.geometry.trapezoid import hit_sets, trapezoidal_decomposition
from repro.workloads.generators import random_disjoint_rects, random_free_points


def test_concurrent_first_shots_agree_with_brute_force():
    """Direction trees are built on first use; threads racing on the
    first shot of each direction all get the right answers."""
    rects = random_disjoint_rects(60, seed=5)
    pts = random_free_points(rects, 40, seed=5)
    shooter = RayShooter(rects)
    start = threading.Barrier(8, timeout=30)

    def shots(direction):
        start.wait()
        return [shooter.shoot(p, direction) for p in pts]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often: make races likely
    try:
        with ThreadPoolExecutor(8) as ex:
            got = list(ex.map(shots, "NSEWNSEW", timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for direction, answers in zip("NSEWNSEW", got):
        assert answers == [brute_force_shoot(rects, p, direction) for p in pts]


class TestRayShooter:
    def setup_method(self):
        self.rects = [Rect(2, 4, 6, 8), Rect(8, 1, 12, 5), Rect(3, 10, 9, 13)]
        self.shooter = RayShooter(self.rects)

    def test_north_hit(self):
        h = self.shooter.shoot((4, 0), "N")
        assert h is not None
        assert h.rect_index == 0
        assert h.point == (4, 4)
        assert h.edge == ((2, 4), (6, 4))

    def test_north_miss_along_edge(self):
        # grazing along x == xlo is not a hit
        h = self.shooter.shoot((2, 0), "N")
        assert h is None or h.rect_index != 0

    def test_south_hit(self):
        h = self.shooter.shoot((4, 20), "S")
        assert h is not None and h.point == (4, 13)

    def test_east_hit(self):
        h = self.shooter.shoot((0, 3), "E")
        assert h is not None and h.rect_index == 1 and h.point == (8, 3)

    def test_west_hit(self):
        h = self.shooter.shoot((20, 7), "W")
        assert h is not None and h.rect_index == 0 and h.point == (6, 7)

    def test_zero_distance_hit_from_boundary(self):
        h = self.shooter.shoot((4, 4), "N")
        assert h is not None and h.point == (4, 4)

    def test_escape(self):
        assert self.shooter.shoot((100, 100), "N") is None

    @pytest.mark.parametrize("direction", ["N", "S", "E", "W"])
    def test_matches_brute_force_random(self, direction):
        rects = random_disjoint_rects(60, seed=13)
        shooter = RayShooter(rects)
        rng = random.Random(99)
        pts = random_free_points(rects, 150, seed=5)
        pts += [v for r in rects[:20] for v in r.vertices]
        for p in pts:
            if any(r.contains_interior(p) for r in rects):
                continue
            fast = shooter.shoot(p, direction)
            slow = brute_force_shoot(rects, p, direction)
            if slow is None:
                assert fast is None, (p, direction, fast)
            else:
                assert fast is not None, (p, direction)
                assert fast.point == slow.point, (p, direction)
        del rng


class TestHitSets:
    def test_hit_sets_grouping_and_order(self):
        rects = [Rect(0, 0, 2, 10), Rect(6, 2, 8, 4), Rect(6, 6, 8, 8)]
        pts = [(10, 3), (10, 7), (5, 3), (4, 7)]
        hits, by_edge = hit_sets(rects, pts, "W")
        assert hits[0].rect_index == 1
        assert hits[1].rect_index == 2
        assert hits[2].rect_index == 0 or hits[2].rect_index == 1
        # points hitting rect 0's right edge sorted by y
        if 0 in by_edge:
            ys = [pts[i][1] for i in by_edge[0]]
            assert ys == sorted(ys)

    def test_trapezoidal_decomposition(self):
        rects = [Rect(0, 4, 10, 6), Rect(2, 10, 8, 12)]
        hits = trapezoidal_decomposition(rects, [(5, 0), (5, 7), (1, 7)], "N")
        assert hits[0].rect_index == 0
        assert hits[1].rect_index == 1
        assert hits[2] is None


class TestHananGraph:
    def test_basic_blocking(self):
        rects = [Rect(0, 0, 2, 2)]
        g = hanan_graph(rects, [(1, 0), (1, 2), (0, 1), (2, 1)])
        # edge through the middle must be blocked
        nid = g.node_id((1, 0))
        up = [v for v, w in g.neighbors(nid)]
        assert g.node_id((1, 2)) not in up  # interior vertical edge blocked

    def test_boundary_edges_open(self):
        rects = [Rect(0, 0, 2, 2)]
        g = hanan_graph(rects)
        sw = g.node_id((0, 0))
        nbrs = dict(g.neighbors(sw))
        assert g.node_id((2, 0)) in nbrs  # along the bottom boundary
        assert g.node_id((0, 2)) in nbrs


class TestGridOracle:
    def test_free_plane_is_l1(self):
        rects = [Rect(100, 100, 101, 101)]  # far away
        pts = [(0, 0), (7, 3), (2, 9)]
        oracle = GridOracle(rects, pts)
        for p in pts:
            for q in pts:
                assert oracle.dist(p, q) == dist(p, q)

    def test_detour_around_wall(self):
        # wall from y=-10..10 at x in (4,6); going around costs extra
        rects = [Rect(4, -10, 6, 10)]
        oracle = GridOracle(rects, [(0, 0), (10, 0)])
        assert oracle.dist((0, 0), (10, 0)) == 10 + 2 * 10

    def test_symmetry_random(self):
        rects = random_disjoint_rects(25, seed=3)
        pts = random_free_points(rects, 8, seed=3)
        oracle = GridOracle(rects, pts)
        m = oracle.dist_matrix(pts)
        assert (m == m.T).all()
        assert (m.diagonal() == 0).all()

    def test_triangle_inequality_random(self):
        rects = random_disjoint_rects(20, seed=8)
        pts = random_free_points(rects, 7, seed=8)
        m = GridOracle(rects, pts).dist_matrix(pts)
        n = len(pts)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert m[i, j] <= m[i, k] + m[k, j] + 1e-9

    def test_lower_bound_l1(self):
        rects = random_disjoint_rects(20, seed=2)
        pts = random_free_points(rects, 10, seed=2)
        oracle = GridOracle(rects, pts)
        for p in pts:
            for q in pts:
                assert oracle.dist(p, q) >= dist(p, q)

    def test_path_reconstruction(self):
        rects = random_disjoint_rects(30, seed=6)
        pts = random_free_points(rects, 6, seed=6)
        oracle = GridOracle(rects, pts)
        for p in pts[:3]:
            for q in pts[3:]:
                path = oracle.path(p, q)
                assert path[0] == p and path[-1] == q
                assert path_length(path) == oracle.dist(p, q)
                assert path_is_clear(path, rects)

    def test_unregistered_point_raises(self):
        from repro.errors import QueryError

        oracle = GridOracle([Rect(0, 0, 1, 1)], [(5, 5)])
        with pytest.raises(QueryError):
            oracle.dist((5, 5), (333, 333))

    def test_touching_walls_are_passable(self):
        # obstacle interiors are opaque but boundaries are not (§2): four
        # touching walls do NOT seal the courtyard — the path slips along
        # the shared edges.  Disjoint rectangles can never disconnect the
        # plane, so every distance in a legal scene is finite.
        rects = [
            Rect(0, 0, 10, 1), Rect(0, 9, 10, 10),
            Rect(0, 1, 1, 9), Rect(9, 1, 10, 9),
        ]
        oracle = GridOracle(rects, [(5, 5), (20, 20)])
        d = oracle.dist((5, 5), (20, 20))
        assert d != math.inf
        assert d == 30  # straight L1 distance via the corner seams
