"""The multicore build engine (``parallel-mp``) and its worker pool.

The contract under test is strict: dispatching separator subtrees and
(min,+) conquer blocks to worker processes must change *nothing*
observable about the answer — matrices byte-identical to the single
process ``parallel`` engine, identical simulated PRAM totals, identical
recursion statistics, and subtree-cache deposits a later incremental
repair can reuse interchangeably.  The pool itself must fail loudly and
clean (a dead worker is a one-line ``EngineError``, never a hang, and
never a leaked ``/dev/shm`` segment or orphaned process).
"""

import os
import subprocess
import time

import numpy as np
import pytest

from repro.core.allpairs import ParallelEngine
from repro.core.mpengine import ParallelMPEngine
from repro.core.pool import WorkerPool, default_jobs, get_pool, shutdown_pool
from repro.errors import EngineError
from repro.geometry.primitives import Rect
from repro.pipeline import StageCache, build_index, update_index
from repro.pram.machine import PRAM
from repro.scene import Scene, SceneDelta
from repro.serve.shm import list_segments
from repro.workloads.generators import random_disjoint_rects, random_polygon_scene


def _rect_scene(n, seed):
    return Scene(tuple(random_disjoint_rects(n, seed=seed)))


@pytest.fixture(autouse=True)
def _pool_hygiene():
    """Every test starts and ends with no module pool and no segments."""
    shutdown_pool()
    yield
    shutdown_pool()
    assert list_segments() == []


# ----------------------------------------------------------------------
# byte identity with the single-process engine
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n,seed", [(12, 0), (40, 7), (90, 3)])
def test_cold_build_byte_identical(n, seed):
    scene = _rect_scene(n, seed)
    a = build_index(scene, engine="parallel", cache=StageCache(max_entries=0))
    b = build_index(
        scene, engine="parallel-mp", jobs=2, cache=StageCache(max_entries=0)
    )
    assert list(a.index.points) == list(b.index.points)
    assert a.index.matrix.tobytes() == b.index.matrix.tobytes()
    assert (a.pram.time, a.pram.work, a.pram.max_ops) == (
        b.pram.time, b.pram.work, b.pram.max_ops,
    )
    assert b.provenance["pool"]["workers"] == 2
    assert b.provenance["pool"]["tasks"] > 0


def test_polygon_scene_byte_identical():
    obstacles = random_polygon_scene(n_polygons=2, n_rects=4, seed=11)
    scene = Scene.from_obstacles(obstacles)
    a = build_index(scene, engine="parallel", cache=StageCache(max_entries=0))
    b = build_index(
        scene, engine="parallel-mp", jobs=2, cache=StageCache(max_entries=0)
    )
    assert a.index.matrix.tobytes() == b.index.matrix.tobytes()


def test_engine_stats_match_single_process():
    """Worker-side recursion stats merge into the same totals the
    single-process engine reports (nothing double counted, nothing
    dropped)."""
    scene = _rect_scene(40, 7)
    p1, p2 = PRAM("sp"), PRAM("mp")
    e1 = ParallelEngine(list(scene.obstacles), [], p1, validate=False)
    i1 = e1.build()
    e2 = ParallelMPEngine(
        list(scene.obstacles), [], p2, validate=False, pool=get_pool(2), jobs=2
    )
    i2 = e2.build()
    assert i1.matrix.tobytes() == i2.matrix.tobytes()
    s1, s2 = vars(e1.stats), vars(e2.stats)
    assert s1 == s2
    assert e2.pool_stats["tasks"] > 0


def test_incremental_repair_byte_identical():
    rects = list(random_disjoint_rects(40, seed=7))
    scene = Scene(tuple(rects))
    cache = StageCache(max_entries=256, max_bytes=64 << 20)
    idx0 = build_index(
        scene, engine="parallel-mp", jobs=2, incremental=True, cache=cache
    )
    idx1 = update_index(idx0, SceneDelta.delete(rects[20]))
    cold = build_index(
        Scene(tuple(r for r in rects if r != rects[20])),
        engine="parallel",
        cache=StageCache(max_entries=0),
    )
    assert idx1.index.matrix.tobytes() == cold.index.matrix.tobytes()
    assert idx1.provenance["engine"] == "parallel-mp"
    assert "pool" in idx1.provenance


def test_subtree_deposits_interchangeable_with_parallel():
    """A repair seeded by a parallel-mp build reuses exactly as much as
    one seeded by parallel — the engines share one subtree-entry
    population."""
    rects = list(random_disjoint_rects(40, seed=7))
    scene = Scene(tuple(rects))
    reports = {}
    for engine in ("parallel", "parallel-mp"):
        cache = StageCache(max_entries=256, max_bytes=64 << 20)
        idx0 = build_index(
            scene, engine=engine, jobs=2, incremental=True, cache=cache
        )
        idx1 = update_index(idx0, SceneDelta.delete(rects[20]))
        reports[engine] = idx1.provenance["subtree"]
    assert reports["parallel"] == reports["parallel-mp"]


def test_jobs_one_runs_inline():
    """``jobs=1`` is the honest single-core baseline: no pool, no worker
    processes, same bytes."""
    scene = _rect_scene(20, 1)
    a = build_index(scene, engine="parallel", cache=StageCache(max_entries=0))
    b = build_index(
        scene, engine="parallel-mp", jobs=1, cache=StageCache(max_entries=0)
    )
    assert a.index.matrix.tobytes() == b.index.matrix.tobytes()
    assert b.provenance["pool"]["inline"] is True
    assert b.provenance["pool"]["workers"] == 0


def test_mp_build_is_deterministic():
    """Two parallel-mp builds of the same scene are byte-identical to
    each other (result-arrival order must not leak into the answer)."""
    scene = _rect_scene(40, 5)
    mats = [
        build_index(
            scene, engine="parallel-mp", jobs=2, cache=StageCache(max_entries=0)
        ).index.matrix.tobytes()
        for _ in range(2)
    ]
    assert mats[0] == mats[1]


# ----------------------------------------------------------------------
# pool lifecycle
# ----------------------------------------------------------------------
def test_worker_crash_is_one_line_error_and_clean_shutdown():
    pool = WorkerPool(2)
    pids = [p.pid for p in pool._workers]
    pool.submit("repro.core.mpengine:_task_solve", {}, kind="__crash__")
    with pytest.raises(EngineError) as ei:
        # the crash task never produces a result; liveness polling must
        # turn the dead worker into an error, not a hang
        pool.next_result()
    msg = str(ei.value)
    assert "\n" not in msg
    assert "died" in msg
    assert pool.closed
    assert list_segments() == []
    deadline = time.time() + 5
    while time.time() < deadline:
        alive = [pid for pid in pids if _pid_alive(pid)]
        if not alive:
            break
        time.sleep(0.05)
    assert not alive, f"worker processes leaked: {alive}"


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    # a zombie still answers signal 0; check the process table state
    try:
        out = subprocess.run(
            ["ps", "-o", "stat=", "-p", str(pid)],
            capture_output=True, text=True,
        ).stdout.strip()
    except OSError:
        return True
    return bool(out) and not out.startswith("Z")


def test_build_recovers_after_pool_crash():
    """A crashed pool closes; the next build gets a fresh one from
    get_pool and succeeds."""
    pool = get_pool(2)
    pool.submit("repro.core.mpengine:_task_solve", {}, kind="__crash__")
    with pytest.raises(EngineError):
        pool.next_result()
    assert pool.closed
    scene = _rect_scene(20, 2)
    idx = build_index(
        scene, engine="parallel-mp", jobs=2, cache=StageCache(max_entries=0)
    )
    ref = build_index(scene, engine="parallel", cache=StageCache(max_entries=0))
    assert idx.index.matrix.tobytes() == ref.index.matrix.tobytes()


def test_get_pool_reuses_and_resizes():
    p2 = get_pool(2)
    assert get_pool(2) is p2
    p3 = get_pool(3)
    assert p3 is not p2
    assert p2.closed and not p3.closed
    assert p3.jobs == 3


def test_engine_error_when_pool_unavailable_degrades_inline(monkeypatch):
    """If the pool cannot start at all, the build degrades to the inline
    solve (same bytes) and records why."""
    import repro.core.pool as poolmod

    def boom(jobs):
        raise OSError("no processes for you")

    monkeypatch.setattr(poolmod, "get_pool", boom)
    scene = _rect_scene(16, 4)
    idx = build_index(
        scene, engine="parallel-mp", jobs=2, cache=StageCache(max_entries=0)
    )
    ref = build_index(scene, engine="parallel", cache=StageCache(max_entries=0))
    assert idx.index.matrix.tobytes() == ref.index.matrix.tobytes()
    assert "OSError" in idx.provenance["pool"]["pool_error"]
    assert idx.provenance["pool"]["inline"] is True


def test_pool_counters_flow_through_registry():
    from repro.obs.registry import default_registry

    scene = _rect_scene(40, 9)
    build_index(scene, engine="parallel-mp", jobs=2, cache=StageCache(max_entries=0))
    snap = default_registry().snapshot()
    assert "repro.build.pool.tasks" in snap
    assert "repro.build.pool.workers_spawned" in snap
    total = sum(s["value"] for s in snap["repro.build.pool.tasks"]["series"])
    assert total > 0


# ----------------------------------------------------------------------
# shared-memory transport helpers (reused by serve/ and the pool)
# ----------------------------------------------------------------------
def test_shm_block_roundtrip():
    from multiprocessing import shared_memory

    from repro.serve.shm import build_toc, read_array_block, write_array_block

    arrays = {
        "a": np.arange(12, dtype=np.float64).reshape(3, 4),
        "b": np.array([[1, 2], [3, 4]], dtype=np.int64),
        "c": np.empty((0, 3), dtype=np.float64),
    }
    toc, size = build_toc(arrays)
    seg = shared_memory.SharedMemory(create=True, size=max(size, 1))
    try:
        write_array_block(seg.buf, toc, arrays)
        back = read_array_block(seg.buf, toc)
        for name, arr in arrays.items():
            assert back[name].dtype == arr.dtype
            assert back[name].shape == arr.shape
            assert np.array_equal(back[name], arr)
        out = {name: np.array(v) for name, v in back.items()}
        del back
    finally:
        seg.close()
        seg.unlink()
    assert np.array_equal(out["a"], arrays["a"])


def test_default_jobs_bounded():
    j = default_jobs()
    assert 1 <= j <= 8


# ----------------------------------------------------------------------
# worker-side handlers, driven inline (subprocess code is invisible to
# coverage; the handlers are plain functions, so exercise them here too)
# ----------------------------------------------------------------------
def test_worker_main_inline_roundtrip():
    import queue

    from repro.core.pool import _worker_main

    tasks, results = queue.Queue(), queue.Queue()
    rects = list(random_disjoint_rects(8, seed=0))
    ctx = {
        "rects": rects, "seams": (), "leaf_size": 6,
        "monge_dispatch": True, "divide": "median",
    }
    tasks.put({
        "id": 1, "kind": "leaf", "fn": "repro.core.mpengine:_task_solve",
        "payload": {
            "ctx": ctx, "kind": "leaf",
            "rect_idx": tuple(range(len(rects))), "interface": (),
            "depth": 0, "tags": {}, "next_chain_id": 0,
        },
        "seg": None,
    })
    tasks.put({
        "id": 2, "kind": "task", "fn": "repro.core.pool:_resolve",
        "payload": {},  # _resolve() called with a dict explodes → error path
        "seg": None,
    })
    tasks.put(None)
    _worker_main(tasks, results)
    status, tid, wall, result, arrays = results.get_nowait()
    assert (status, tid) == ("ok", 1)
    assert result["n"] == arrays["matrix"].shape[0]
    assert result["pram"][1] > 0  # leaf work was charged worker-side
    status, tid, _, msg, detail = results.get_nowait()
    assert (status, tid) == ("error", 2)
    assert "\n" not in msg and detail  # one-line error + full traceback


def test_task_minplus_inline_matches_direct_product():
    from repro.core.mpengine import _task_minplus
    from repro.monge.multiply import minplus_naive

    rng = np.random.default_rng(0)
    a = rng.integers(0, 20, size=(6, 5)).astype(np.float64)
    b = rng.integers(0, 20, size=(5, 7)).astype(np.float64)
    body, arrays = _task_minplus({"a": a, "b": b, "certify": False})
    ref = minplus_naive(a, b, PRAM("ref"))
    assert np.array_equal(arrays["matrix"], ref)
    assert body["fast"] == 0
    body2, arrays2 = _task_minplus({"a": a, "b": b, "certify": True})
    assert np.array_equal(arrays2["matrix"], ref)  # naive/monge agree
