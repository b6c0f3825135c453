"""Tests for the CLI entry point and the workload generators."""

import json

import pytest

from repro.__main__ import main
from repro.errors import GeometryError
from repro.geometry.primitives import validate_disjoint
from repro.workloads.fixtures import (
    paper_figure_scene,
    ring_of_rects,
    three_shelves,
    two_clusters,
)
from repro.workloads.generators import (
    WORKLOAD_MODES,
    random_container_polygon,
    random_disjoint_rects,
    random_free_points,
    staircase_container,
)


class TestGenerators:
    @pytest.mark.parametrize("mode", WORKLOAD_MODES)
    def test_modes_produce_valid_scenes(self, mode):
        rects = random_disjoint_rects(30, seed=1, mode=mode)
        assert len(rects) == 30
        validate_disjoint(rects)

    @pytest.mark.parametrize("mode", WORKLOAD_MODES)
    def test_distinct_coordinates(self, mode):
        rects = random_disjoint_rects(25, seed=2, mode=mode)
        xs = [x for r in rects for x in (r.xlo, r.xhi)]
        ys = [y for r in rects for y in (r.ylo, r.yhi)]
        assert len(set(xs)) == len(xs)
        assert len(set(ys)) == len(ys)

    def test_deterministic_per_seed(self):
        a = random_disjoint_rects(15, seed=9)
        b = random_disjoint_rects(15, seed=9)
        c = random_disjoint_rects(15, seed=10)
        assert a == b
        assert a != c

    def test_unknown_mode(self):
        with pytest.raises(GeometryError):
            random_disjoint_rects(5, mode="galactic")

    def test_free_points_avoid_interiors(self):
        rects = random_disjoint_rects(20, seed=4)
        pts = random_free_points(rects, 30, seed=4)
        assert len(pts) == len(set(pts)) == 30
        for p in pts:
            assert not any(r.contains_interior(p) for r in rects)

    def test_container_polygon_contains(self):
        rects = random_disjoint_rects(10, seed=5)
        poly = random_container_polygon(rects, seed=5)
        for r in rects:
            assert poly.contains_rect(r)

    @pytest.mark.parametrize("steps", [1, 8, 40])
    def test_staircase_container_vertex_count_scales(self, steps):
        rects = random_disjoint_rects(8, seed=6)
        poly = staircase_container(rects, steps=steps, margin=2 * steps + 6)
        for r in rects:
            assert poly.contains_rect(r)
        if steps >= 8:
            assert poly.size >= 4 * steps

    def test_tiny_scene(self):
        rects = random_disjoint_rects(2, seed=7)
        assert len(rects) == 2
        validate_disjoint(rects)


class TestFixtures:
    def test_fixture_scenes_valid(self):
        for scene in (two_clusters(), three_shelves(), ring_of_rects()):
            validate_disjoint(scene)

    def test_all_figure_fixtures(self):
        for k in range(1, 15):
            validate_disjoint(paper_figure_scene(k))

    def test_unknown_figure_fixture(self):
        with pytest.raises(ValueError):
            paper_figure_scene(99)


class TestCLI:
    def test_demo(self, capsys):
        assert main(["demo", "-n", "6", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "simulated" in out and "length" in out

    def test_query_roundtrip(self, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({"rects": [[2, 2, 4, 8], [6, 0, 9, 5]]}))
        assert main(["query", str(scene), "0,0", "11,7", "--path"]) == 0
        out = capsys.readouterr().out
        assert "length = 18" in out
        assert "path   =" in out

    def test_query_bad_point(self, tmp_path):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({"rects": [[0, 0, 1, 1]]}))
        with pytest.raises(SystemExit):
            main(["query", str(scene), "zero", "1,1"])

    def test_query_bad_scene(self, tmp_path):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({"boxes": []}))
        with pytest.raises(SystemExit):
            main(["query", str(scene), "0,0", "1,1"])

    def test_figures_single(self, capsys):
        assert main(["figures", "6"]) == 0
        assert "Fig. 6" in capsys.readouterr().out

    def test_bench_info(self, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({"rects": [[0, 0, 2, 2], [5, 5, 8, 8]]}))
        assert main(["bench-info", str(scene)]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out


class TestPolygonGenerators:
    def test_polygon_scene_deterministic_and_disjoint(self):
        from repro.core.api import split_obstacles
        from repro.workloads.generators import random_polygon_scene

        a = random_polygon_scene(2, 3, seed=12)
        b = random_polygon_scene(2, 3, seed=12)
        assert [getattr(o, "loop", o) for o in a] == [getattr(o, "loop", o) for o in b]
        _, polys, all_rects, seams = split_obstacles(a)
        assert len(polys) == 2
        validate_disjoint(all_rects)
        assert seams, "polygon scenes should exercise seams"

    def test_demo_with_polygons(self, capsys):
        assert main(["demo", "-n", "2", "--polygons", "1", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "after decomposition" in out and "%" in out  # polygon outline


class TestSceneSchemaV2:
    def _scene_v2(self):
        return {
            "version": 2,
            "rects": [[20, 0, 24, 4]],
            "polygons": [
                [[0, 0], [10, 0], [10, 10], [6, 10], [6, 4], [4, 4], [4, 10], [0, 10]]
            ],
        }

    def test_query_v2_scene_with_polygon(self, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(self._scene_v2()))
        # crossing over the U: must round the arms, not run the seams
        assert main(["query", str(scene), "0,12", "12,0", "--path"]) == 0
        out = capsys.readouterr().out
        assert "length = 24" in out

    def test_v2_snapshot_roundtrip_cli(self, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(self._scene_v2()))
        snap = tmp_path / "scene.rsp"
        assert main(["snapshot", str(scene), str(snap)]) == 0
        capsys.readouterr()
        assert main(["query", str(snap), "0,12", "12,0"]) == 0
        assert "length = 24" in capsys.readouterr().out

    def test_v2_bad_polygon_one_line_error(self, tmp_path):
        scene = tmp_path / "scene.json"
        scene.write_text(
            json.dumps({"version": 2, "rects": [], "polygons": [[[0, 0], [5, 5], [0, 5], [0, 1]]]})
        )
        with pytest.raises(SystemExit, match="invalid scene"):
            main(["query", str(scene), "0,0", "1,1"])

    def test_v2_overlapping_polygon_rect_rejected(self, tmp_path):
        data = self._scene_v2()
        data["rects"] = [[1, 1, 3, 3]]  # inside the U's left arm
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(data))
        with pytest.raises(SystemExit, match="invalid scene"):
            main(["query", str(scene), "0,12", "12,0"])

    def test_non_convex_container_one_line_error(self, tmp_path):
        scene = tmp_path / "scene.json"
        scene.write_text(
            json.dumps(
                {
                    "version": 2,
                    "rects": [[1, 1, 3, 3]],
                    "container": [
                        [0, 0], [10, 0], [10, 10], [6, 10],
                        [6, 4], [4, 4], [4, 10], [0, 10],
                    ],
                }
            )
        )
        with pytest.raises(SystemExit, match="convex"):
            main(["query", str(scene), "1,0", "3,0"])

    def test_unknown_schema_version_rejected(self, tmp_path):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({"version": 7, "rects": [[0, 0, 1, 1]]}))
        with pytest.raises(SystemExit, match="version"):
            main(["query", str(scene), "5,5", "6,6"])

    def test_v1_scene_with_polygons_rejected(self, tmp_path):
        data = self._scene_v2()
        del data["version"]
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(data))
        with pytest.raises(SystemExit, match="v1"):
            main(["query", str(scene), "0,12", "12,0"])

    def test_scene_dict_roundtrip(self):
        from repro.workloads.generators import random_polygon_scene
        from repro.scene import Scene

        obstacles = random_polygon_scene(2, 2, seed=5)
        data = Scene.from_obstacles(obstacles).to_dict()
        scene = Scene.from_dict(json.loads(json.dumps(data)))
        back = list(scene.obstacles)
        assert scene.container is None
        # order normalizes to rects-then-polygons; content is exact
        def split(obs):
            rects = sorted(o for o in obs if not hasattr(o, "loop"))
            loops = [o.loop for o in obs if hasattr(o, "loop")]
            return rects, loops

        assert split(back) == split(obstacles)


class TestFuzzVerb:
    def test_fuzz_smoke_passes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["fuzz", "--scenes", "4", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "0 failure(s)" in out
        assert not list(tmp_path.glob("fuzz_fail_*.json"))
