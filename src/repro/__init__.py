"""repro — Parallel rectilinear shortest paths with rectangular obstacles.

A from-scratch reproduction of Atallah & Chen (SPAA 1990 / CGTA 1991) on a
simulated CREW-PRAM.  See README.md for a tour; its "Architecture"
section maps the build stages to modules.

High-level entry point::

    from repro import ShortestPathIndex
    idx = ShortestPathIndex.build(rects)
    idx.length(p, q)          # O(1) for obstacle vertices
    idx.shortest_path(p, q)   # actual polyline

Sub-packages: :mod:`repro.geometry` (exact rectilinear geometry),
:mod:`repro.pram` (metered CREW-PRAM simulator), :mod:`repro.monge`
(Monge (min,+) machinery), :mod:`repro.core` (the paper's algorithms),
:mod:`repro.links` (minimum-link / bicriteria (length, bends) queries),
:mod:`repro.scene` (the canonical scene layer), :mod:`repro.pipeline`
(the staged build pipeline: engine registry + per-stage artifact cache),
:mod:`repro.workloads` (scene generators), :mod:`repro.serve` (snapshot
persistence, multi-scene store, batching query server), :mod:`repro.viz`
(ASCII renderings, including the paper's figures).
"""

__version__ = "1.0.0"

from repro.errors import (
    ConcurrentWriteError,
    ConvexityError,
    DisjointnessError,
    GeometryError,
    MongeError,
    PRAMError,
    QueryError,
    ReproError,
    SnapshotError,
)
from repro.geometry.primitives import Point, Rect, dist

__all__ = [
    "__version__",
    "LinkDistanceIndex",
    "Point",
    "Rect",
    "RectilinearPolygon",
    "Scene",
    "dist",
    "ReproError",
    "GeometryError",
    "DisjointnessError",
    "ConvexityError",
    "PRAMError",
    "ConcurrentWriteError",
    "MongeError",
    "QueryError",
    "SnapshotError",
]


def __getattr__(name: str):
    """Lazy top-level exports for the heavyweight subsystems."""
    if name == "RectilinearPolygon":
        from repro.geometry.polygon import RectilinearPolygon

        return RectilinearPolygon
    if name == "Scene":
        from repro.scene import Scene

        return Scene
    if name == "ShortestPathIndex":
        from repro.core.api import ShortestPathIndex

        return ShortestPathIndex
    if name == "GridOracle":
        from repro.core.baseline import GridOracle

        return GridOracle
    if name == "LinkDistanceIndex":
        from repro.links import LinkDistanceIndex

        return LinkDistanceIndex
    if name == "PRAM":
        from repro.pram.machine import PRAM

        return PRAM
    if name == "SceneStore":
        from repro.serve.store import SceneStore

        return SceneStore
    if name == "QueryServer":
        from repro.serve.server import QueryServer

        return QueryServer
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
