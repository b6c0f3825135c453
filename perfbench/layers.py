"""Per-layer timing for traced runs, from the benchmark's own files.

:class:`LayerClock` wraps public functions of the program where callers
look them up (modules import these by name, so each lookup site is
patched) and restores them on exit.  Nested wrapped calls are charged to
the innermost layer only — each layer's time is its *self* time — so the
layer times of one op add up to at most its wall time.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

#: layer -> (original "module:attr", every "module:attr" that looks it up)
SOLVE_LAYERS = {
    "separator": ("repro.core.separator:staircase_separator",
                  ("repro.core.allpairs:staircase_separator",
                   "repro.core.mpengine:staircase_separator")),
    "leaf": ("repro.core.baseline:corner_graph_matrix",
             ("repro.core.allpairs:corner_graph_matrix",)),
    "monge": ("repro.monge.multiply:minplus_monge",
              ("repro.monge.multiply:minplus_monge",
               "repro.core.allpairs:minplus_monge",
               "repro.core.mpengine:minplus_monge")),
    "naive": ("repro.monge.multiply:minplus_naive",
              ("repro.monge.multiply:minplus_naive",
               "repro.core.allpairs:minplus_naive",
               "repro.core.mpengine:minplus_naive")),
    "rayshoot": ("repro.geometry.rayshoot:RayShooter.shoot",
                 ("repro.geometry.rayshoot:RayShooter.shoot",)),
}

#: the query-side layers of the serve / links in-process replay
QUERY_LAYERS = {
    "arbitrary": ("repro.core.query:QueryStructure.lengths",
                  ("repro.core.query:QueryStructure.lengths",)),
    "gather": ("repro.core.allpairs:DistanceIndex.lengths",
               ("repro.core.allpairs:DistanceIndex.lengths",)),
    "path": ("repro.core.pathreport:PathReporter.path",
             ("repro.core.pathreport:PathReporter.path",)),
    "links": ("repro.links.solver:LinkSolver.solve",
              ("repro.links.solver:LinkSolver.solve",)),
}


def _shape(x) -> tuple:
    import numpy as np

    return np.shape(getattr(x, "array", x))


def _naive_ops(a, b, *_args, **_kw) -> int:
    (rows, inner), cols = _shape(a), _shape(b)[1]
    return rows * inner * cols


def _pairs(*args, **_kw) -> int:
    """Pair count of ``QueryStructure.lengths(self, pairs)`` and
    ``DistanceIndex.lengths(self, ps, qs)``."""
    return len(args[1])


#: per-layer work counters beyond the call count
WORK = {"naive": _naive_ops, "arbitrary": _pairs, "gather": _pairs}


def _resolve(spec: str):
    mod_name, attr = spec.split(":")
    owner = importlib.import_module(mod_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class LayerClock:
    """Self-time, call and work totals per wrapped layer."""

    def __init__(self, layers: dict) -> None:
        self.layers = layers
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.work = defaultdict(int)
        self._stack: list[list[float]] = []
        self._saved: list[tuple] = []
        #: wrapped calls made while False run untimed (verification code
        #: calls the same functions between the ops being traced)
        self.active = True

    def _wrap(self, name: str, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def timed(*args, **kw):
            if not self.active:
                return fn(*args, **kw)
            children = [0.0]
            self._stack.append(children)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kw)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self.seconds[name] += dt - children[0]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][0] += dt
                if work is not None:
                    self.work[name] += work(*args, **kw)

        return timed

    def __enter__(self) -> "LayerClock":
        for name, (origin, sites) in self.layers.items():
            owner, leaf = _resolve(origin)
            wrapped = self._wrap(name, getattr(owner, leaf))
            for site in sites:
                owner, leaf = _resolve(site)
                self._saved.append((owner, leaf, owner.__dict__[leaf]))
                setattr(owner, leaf, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved.clear()

    def snapshot(self) -> tuple[dict, dict, dict]:
        return dict(self.seconds), dict(self.calls), dict(self.work)

    def total_seconds(self) -> float:
        return sum(self.seconds.values())
