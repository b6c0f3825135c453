"""Answer verification, run outside every timed interval.

Builds and repairs are checked against ``GridOracle`` (an independent
grid-Dijkstra solver) on a seeded sample of vertex pairs.  Served answers
are checked exactly against an in-process index of the same scene: vertex
pairs against its raw matrix (not through the gather code the server
runs), other endpoints through ``ShortestPathIndex.length``, link answers
through ``min_links`` / ``bicriteria``.  Paths are checked geometrically
by code here, not by the program's own helpers.
"""

from __future__ import annotations

import math
import random

import numpy as np

from repro.core.baseline import GridOracle

#: sampled vertex pairs per build or repair: sources x targets
SAMPLE_SOURCES = 8
SAMPLE_TARGETS = 64


class Tally:
    """Verified-op bookkeeping; keeps the first failure for the report."""

    def __init__(self) -> None:
        self.ok = 0
        self.first_failure = None

    def record(self, ok: bool, what: str = "") -> None:
        if ok:
            self.ok += 1
        elif self.first_failure is None:
            self.first_failure = what


def sample_answers(idx, rng: random.Random) -> dict:
    """The index's answers on a seeded sample of vertex pairs, plus what
    the oracle needs to recompute them later."""
    verts = idx.vertices()
    sources = rng.sample(verts, min(SAMPLE_SOURCES, len(verts)))
    targets = rng.sample(verts, min(SAMPLE_TARGETS, len(verts)))
    pairs = [(s, t) for s in sources for t in targets]
    answers = np.asarray(idx.lengths(pairs), dtype=float).reshape(len(sources), len(targets))
    return {"rects": list(idx.rects), "sources": sources, "targets": targets,
            "answers": answers}


def check_sample(sample: dict) -> tuple[bool, str]:
    """Recompute a :func:`sample_answers` record with ``GridOracle``."""
    oracle = GridOracle(sample["rects"], [])
    want = np.asarray(oracle.dist_matrix(sample["sources"], sample["targets"]), dtype=float)
    got = sample["answers"]
    if np.array_equal(want, got):
        return True, ""
    i, j = np.argwhere(want != got)[0]
    return False, (f"length {sample['sources'][i]}->{sample['targets'][j]}: "
                   f"got {got[i, j]}, oracle {want[i, j]}")


def wire_float(v) -> float:
    """A wire length value (``"inf"`` travels as a string)."""
    return math.inf if v == "inf" else float(v)


class Reference:
    """The in-process index of one served scene, read for verification."""

    def __init__(self, idx) -> None:
        self.idx = idx
        self.pos = {p: i for i, p in enumerate(idx.vertices())}

    def length(self, p, q) -> float:
        i, j = self.pos.get(p), self.pos.get(q)
        if i is not None and j is not None:
            return float(self.idx.index.matrix[i, j])
        return float(self.idx.length(p, q))


def check_path(path, p, q, rects, want_length: float) -> tuple[bool, str]:
    """A polyline from p to q made of axis-parallel segments that enter
    no obstacle interior and whose length is ``want_length``."""
    pts = [tuple(pt) for pt in path]
    if not pts or pts[0] != tuple(p) or pts[-1] != tuple(q):
        return False, f"path {p}->{q} has endpoints {pts[:1]}..{pts[-1:]}"
    total = 0
    for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
        if x1 != x2 and y1 != y2:
            return False, f"path {p}->{q} has a diagonal segment {(x1, y1)}->{(x2, y2)}"
        total += abs(x2 - x1) + abs(y2 - y1)
        lox, hix, loy, hiy = min(x1, x2), max(x1, x2), min(y1, y2), max(y1, y2)
        for r in rects:
            if x1 == x2:
                crosses = r.xlo < x1 < r.xhi and max(loy, r.ylo) < min(hiy, r.yhi)
            else:
                crosses = r.ylo < y1 < r.yhi and max(lox, r.xlo) < min(hix, r.xhi)
            if crosses:
                return False, f"path {p}->{q} enters obstacle {r}"
    if total != want_length:
        return False, f"path {p}->{q} has length {total}, length answer {want_length}"
    return True, ""


def check_served(req: dict, resp: dict, ref: Reference) -> tuple[bool, str]:
    """One wire answer of the serve or links mix against the in-process
    index of the same scene."""
    if not resp or not resp.get("ok"):
        return False, f"{req['op']} refused: {resp.get('error') if resp else 'no reply'}"
    op, res, where = req["op"], resp["result"], f"on {req['scene']}"
    if op == "lengths":
        want = [ref.length(tuple(p), tuple(q)) for p, q in req["pairs"]]
        if len(res) == len(want) and all(wire_float(g) == w for g, w in zip(res, want)):
            return True, ""
        return False, f"lengths {where}: got {res[:4]}.., want {want[:4]}.."
    p, q = tuple(req["p"]), tuple(req["q"])
    if op == "length":
        want = ref.length(p, q)
        if wire_float(res) == want:
            return True, ""
        return False, f"length {p}->{q} {where}: got {res}, want {want}"
    if op == "path":
        return check_path(res, p, q, ref.idx.rects, ref.length(p, q))
    if op == "minlink":
        links = ref.idx.min_links(p, q)
        want = {"links": "inf", "bends": "inf"} if math.isinf(links) else {
            "links": int(links), "bends": max(int(links) - 1, 0)}
        if res == want:
            return True, ""
        return False, f"minlink {p}->{q} {where}: got {res}, want {want}"
    if op == "pareto":
        want = [[float(length), int(bends)]
                for length, bends, _ in ref.idx.bicriteria(p, q, with_paths=False)]
        if res == want:
            return True, ""
        return False, f"pareto {p}->{q} {where}: got {res}, want {want}"
    return False, f"unexpected op {op!r}"
