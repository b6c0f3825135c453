"""A persistent multiprocessing worker pool for multicore builds.

The ``parallel-mp`` engine (:mod:`repro.core.mpengine`) dispatches
independent separator subtrees and (min,+) conquer blocks to worker
*processes* — real cores, where every other engine is one Python core.
This module owns the process plumbing so the engine stays algorithmic:

* **Persistent workers.**  Spawning a Python process costs tens of
  milliseconds; a build issues dozens of tasks.  The module-level pool
  (:func:`get_pool`) outlives individual builds and is reused until the
  requested job count changes or the process exits (``atexit`` shuts it
  down).  One build at a time drives it (:meth:`WorkerPool.exclusive`).
* **Shared-memory results.**  Large result matrices come back through
  POSIX shared memory using the same TOC layout the cluster publisher
  uses (:func:`repro.serve.shm.build_toc` — segments carry the ``rsp-``
  prefix, so the existing leak audits cover build segments too).  The
  parent pre-creates each segment (it knows the result shape), the
  worker writes into it, and only small metadata rides the result pipe.
  Results below :data:`SHM_MIN_BYTES` skip the segment and ride the
  pipe directly.
* **Crash containment.**  A worker dying mid-task (OOM killer, segfault,
  a deliberate test kill) must not hang the build: the result loop polls
  worker liveness, and a death with tasks outstanding tears the pool
  down — terminating survivors, unlinking every pending segment — and
  surfaces one :class:`~repro.errors.EngineError` line.  The next build
  gets a fresh pool.
* **Spawn-safe task resolution.**  Tasks name their handler as a dotted
  ``"module:function"`` string resolved inside the worker, so the pool
  works identically under ``fork`` and ``spawn`` start methods.

Observability: ``repro.build.pool.*`` counters (tasks by kind, task
wall-clock, bytes moved by transport, worker spawns/crashes) land in the
default metrics registry; see ``metrics.md``.
"""

from __future__ import annotations

import atexit
import importlib
import itertools
import multiprocessing as mp
import os
from multiprocessing import shared_memory
import queue as _queue
import threading
import time
import traceback
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.errors import EngineError
from repro.obs.registry import default_registry
from repro.serve.shm import (
    _attach_untracked,
    _segment_name,
    build_toc,
    read_array_block,
    write_array_block,
)

__all__ = ["WorkerPool", "SHM_MIN_BYTES", "get_pool", "shutdown_pool", "default_jobs"]

#: result payloads at or above this many bytes travel via shared memory;
#: smaller ones are cheaper to pickle through the result pipe
SHM_MIN_BYTES = 64 * 1024

#: how often the result loop wakes to check worker liveness (seconds)
_POLL_S = 0.1

_task_ids = itertools.count(1)


def default_jobs() -> int:
    """Worker count when ``--jobs`` is not given: the visible cores,
    capped — build task DAGs rarely keep more than 8 workers busy."""
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        n = os.cpu_count() or 1
    return max(1, min(n, 8))


def _resolve(fn_name: str):
    mod_name, _, attr = fn_name.partition(":")
    return getattr(importlib.import_module(mod_name), attr)


def _worker_main(task_q, result_q) -> None:
    """Worker process body: pull tasks until the ``None`` sentinel."""
    while True:
        try:
            task = task_q.get()
        except (EOFError, OSError, KeyboardInterrupt):  # pragma: no cover
            break
        if task is None:
            break
        tid = task["id"]
        try:
            if task["kind"] == "__crash__":
                # test hook: die the way a segfault would — no cleanup,
                # no exception, just a vanished process
                os._exit(int(task.get("code", 3)))
            t0 = time.perf_counter()
            result, arrays = _resolve(task["fn"])(task["payload"])
            seg_spec = task.get("seg")
            if seg_spec is not None:
                seg_name, toc = seg_spec
                shm = _attach_untracked(seg_name)
                try:
                    write_array_block(shm.buf, toc, arrays)
                finally:
                    shm.close()
                arrays = None
            wall = time.perf_counter() - t0
            result_q.put(("ok", tid, wall, result, arrays))
        except BaseException as exc:  # noqa: BLE001 - must reach the parent
            detail = traceback.format_exc(limit=8)
            result_q.put(
                ("error", tid, 0.0, f"{type(exc).__name__}: {exc}", detail)
            )


class WorkerPool:
    """``jobs`` persistent worker processes fed through one task queue."""

    def __init__(self, jobs: int, start_method: Optional[str] = None) -> None:
        self.jobs = max(1, int(jobs))
        self._ctx = mp.get_context(start_method) if start_method else mp.get_context()
        self._tasks = self._ctx.SimpleQueue()
        self._results = self._ctx.Queue()
        self._lock = threading.RLock()
        self._segments: Dict[int, tuple] = {}  # task id -> (SharedMemory, toc)
        self._outstanding: set = set()  # task ids submitted, not yet returned
        self._kinds: Dict[int, str] = {}  # task id -> kind (for metrics)
        self._workers: list = []
        self.closed = False
        reg = default_registry()
        self._c_tasks = reg.counter(
            "repro.build.pool.tasks", "build tasks dispatched to pool workers",
            labels=["kind"],
        )
        self._c_wall = reg.counter(
            "repro.build.pool.task_seconds", "worker-side task wall clock",
            labels=["kind"],
        )
        self._c_bytes = reg.counter(
            "repro.build.pool.result_bytes", "result payload bytes by transport",
            labels=["transport"],
        )
        self._c_workers = reg.counter(
            "repro.build.pool.workers_spawned", "pool worker processes started"
        )
        self._c_crashes = reg.counter(
            "repro.build.pool.worker_crashes", "pool workers that died mid-build"
        )
        for _ in range(self.jobs):
            self._spawn()

    def _spawn(self) -> None:
        proc = self._ctx.Process(
            target=_worker_main,
            args=(self._tasks, self._results),
            daemon=True,
            name=f"repro-build-{len(self._workers)}",
        )
        proc.start()
        self._workers.append(proc)
        self._c_workers.inc()

    # -- build serialization -------------------------------------------
    def exclusive(self):
        """One build drives the pool at a time (reentrant for the owner)."""
        return self._lock

    # -- submission ------------------------------------------------------
    def submit(
        self,
        fn: str,
        payload: dict,
        arrays_spec: Optional[Dict[str, Tuple[tuple, str]]] = None,
        kind: str = "task",
    ) -> int:
        """Queue one task; returns its id.  ``fn`` is a ``"module:func"``
        handler returning ``(result_dict, arrays_dict)``.  ``arrays_spec``
        maps array names to ``(shape, dtype_str)`` the handler will
        produce; big ones are routed through a pre-created shm segment."""
        if self.closed:
            raise EngineError("build pool is closed")
        tid = next(_task_ids)
        seg_spec = None
        if arrays_spec:
            toc, size = build_toc(
                {name: _Shaped(shape, dt) for name, (shape, dt) in arrays_spec.items()}
            )
            if size >= SHM_MIN_BYTES:
                shm = shared_memory.SharedMemory(
                    create=True, size=max(size, 1), name=_segment_name()
                )
                self._segments[tid] = (shm, toc)
                seg_spec = (shm.name, toc)
        task = {
            "id": tid,
            "kind": kind,
            "fn": fn,
            "payload": payload,
            "seg": seg_spec,
        }
        self._outstanding.add(tid)
        self._kinds[tid] = kind
        try:
            self._tasks.put(task)
        except BaseException:
            self._outstanding.discard(tid)
            self._kinds.pop(tid, None)
            self._drop_segment(tid)
            raise
        self._c_tasks.inc(kind=kind)
        return tid

    # -- collection ------------------------------------------------------
    def next_result(self) -> Tuple[int, float, dict, Optional[dict]]:
        """Block until one outstanding task completes; returns
        ``(task_id, worker_wall_s, result, arrays)``.  Arrays that came
        via shm are copied out and the segment unlinked immediately.
        Raises :class:`EngineError` (after tearing the pool down) on a
        task exception or a worker death."""
        if not self._outstanding:
            raise EngineError("next_result() with no outstanding pool tasks")
        while True:
            try:
                msg = self._results.get(timeout=_POLL_S)
            except _queue.Empty:
                self._check_alive()
                continue
            status, tid, wall, body = msg[0], msg[1], msg[2], msg[3]
            if tid not in self._outstanding:
                # stale result from an abandoned build; drop its segment
                self._drop_segment(tid)
                continue
            self._outstanding.discard(tid)
            if status == "error":
                detail = msg[4]
                self.fail(f"build task failed in worker: {body}", detail=detail)
            arrays = msg[4]
            seg = self._segments.pop(tid, None)
            if seg is not None:
                shm, toc = seg
                try:
                    views = read_array_block(shm.buf, toc)
                    arrays = {name: np.array(v) for name, v in views.items()}
                    del views
                    self._c_bytes.inc(
                        sum(a.nbytes for a in arrays.values()), transport="shm"
                    )
                finally:
                    shm.close()
                    try:
                        shm.unlink()
                    except FileNotFoundError:  # pragma: no cover
                        pass
            elif arrays:
                self._c_bytes.inc(
                    sum(a.nbytes for a in arrays.values()), transport="pipe"
                )
            kind = self._kinds.pop(tid, "task")
            self._c_wall.inc(max(0.0, float(wall)), kind=kind)
            return tid, float(wall), body, arrays

    def abandon(self) -> None:
        """Forget all outstanding tasks (a build aborted mid-flight);
        late results are dropped and their segments unlinked on sight."""
        self._outstanding.clear()
        self._kinds.clear()
        for tid in list(self._segments):
            self._drop_segment(tid)

    def _check_alive(self) -> None:
        dead = [p for p in self._workers if not p.is_alive()]
        if not dead:
            return
        if not self._outstanding and self.closed:
            return
        self._c_crashes.inc(len(dead))
        codes = ", ".join(str(p.exitcode) for p in dead)
        self.fail(
            f"{len(dead)} build worker(s) died mid-build (exit code(s): "
            f"{codes}); pool torn down, partial results discarded"
        )

    def fail(self, message: str, detail: Optional[str] = None) -> None:
        """Tear the pool down and raise one EngineError line."""
        self.shutdown(force=True)
        raise EngineError(message)

    # -- lifecycle -------------------------------------------------------
    def _drop_segment(self, tid: int) -> None:
        seg = self._segments.pop(tid, None)
        if seg is None:
            return
        shm, _ = seg
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover
            pass

    def shutdown(self, force: bool = False) -> None:
        """Stop all workers (gracefully unless ``force``), unlink every
        pending segment, close the queues.  Idempotent."""
        if self.closed:
            return
        self.closed = True
        if not force:
            try:
                for _ in self._workers:
                    self._tasks.put(None)
            except BaseException:  # pragma: no cover - broken pipe
                force = True
        deadline = time.monotonic() + (0.0 if force else 5.0)
        for proc in self._workers:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for proc in self._workers:
            if proc.is_alive():
                proc.terminate()
        for proc in self._workers:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - terminate ignored
                proc.kill()
                proc.join(timeout=5.0)
        self._workers.clear()
        self._outstanding.clear()
        for tid in list(self._segments):
            self._drop_segment(tid)
        try:
            self._results.close()
            self._results.join_thread()
            self._tasks.close()
        except BaseException:  # pragma: no cover
            pass

    def __del__(self):  # pragma: no cover - GC timing
        try:
            self.shutdown(force=True)
        except BaseException:
            pass


class _Shaped:
    """Duck-typed stand-in with just the attributes build_toc reads."""

    def __init__(self, shape: tuple, dtype_str: str) -> None:
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype_str)
        self.nbytes = int(self.dtype.itemsize * int(np.prod(self.shape, dtype=np.int64)))


# ----------------------------------------------------------------------
# the module-level pool (one per process, resized on demand)

_POOL: Optional[WorkerPool] = None
_POOL_LOCK = threading.Lock()


def get_pool(jobs: int) -> WorkerPool:
    """The shared pool, (re)created when absent, closed, or sized
    differently than ``jobs``."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is not None and (_POOL.closed or _POOL.jobs != int(jobs)):
            _POOL.shutdown()
            _POOL = None
        if _POOL is None:
            _POOL = WorkerPool(jobs)
        return _POOL


def shutdown_pool() -> None:
    global _POOL
    with _POOL_LOCK:
        if _POOL is not None:
            _POOL.shutdown()
            _POOL = None


atexit.register(shutdown_pool)
