"""The parallel all-pairs engine (§5 + §6.3 of the paper, simulated).

Divide-and-conquer on staircase separators (Theorem 2), conquering with
(min,+) products through crossing candidates on the separator — the
Monge-multiply conquer of Theorem 3 / Lemma 5, with the paper's flow
pipeline replaced by explicit interface accumulation: each node tracks its
ancestors' separator candidates as points, which yields the same exact
matrices without simulating the flows' Mode 1/2 routing.

Correctness skeleton (mirrors §4's lemma toolkit):

* Each recursion node solves the *free-plane* all-pairs problem among its
  tracked points ``T_v`` avoiding only its own obstacles ``R_v``.
* **Soundness** — for any ``z`` on the clear separator,
  ``D_L(a,z) + D_R(z,b) ≥ dist_{R_v}(a,b)``: an ``R_L``-avoiding path can be
  shortcut along the separator (staircases are L1-geodesics, the paper's
  Containment Lemma 10 argument) into a weakly-left path avoiding all of
  ``R_v``, and symmetrically on the right.
* **Completeness** — some optimal path crosses the separator in one
  connected component (Single Intersection, Lemma 11).  The functions
  ``t ↦ dist_{R_L}(a, Sep(t))`` and ``t ↦ dist_{R_R}(Sep(t), b)`` are
  piecewise linear in arc length with slopes ±1 and kinks only at (a) the
  crossings of Hanan grid lines through obstacle corners with the
  separator, (b) separator corners, and (c) the endpoint's own grid-line
  projections.  Hence the optimal crossing is found by a (min,+) product
  over the O(n_v) core candidates (a)+(b) plus O(1) per-pair candidates
  (c), evaluated directly with a visibility test.

The per-node core candidate set is ``O(n_v)``, so interfaces grow only
additively along a root-leaf path; measured totals are reported in
EXPERIMENTS.md E3.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.core.baseline import clear_l1_block, corner_graph_matrix
from repro.core.separator import staircase_separator
from repro.errors import GeometryError, QueryError
from repro.geometry.decompose import (
    seams_block_v_segment,
    staircase_clear_of_seams,
)
from repro.geometry.primitives import Point, Rect, bbox_of_points, dist, validate_disjoint
from repro.geometry.rayshoot import RayShooter
from repro.geometry.staircase import Staircase
from repro.monge.matrix import MongeFlag
from repro.monge.multiply import minplus_monge, minplus_naive
from repro.pram.machine import PRAM, ambient

INF = float("inf")

#: stop recursing below this many obstacles (Theorem 2 guarantees balance
#: only for n ≥ 8; smaller sets are brute-forced on the Hanan grid)
DEFAULT_LEAF_SIZE = 6


def exact_length(v) -> float:
    """A matrix entry as a query answer: int for the integer domain,
    exact float for fractional lengths (non-integer extra points), inf
    passed through.  Single lookups and batched gathers must agree, so
    every length accessor normalizes through this one helper."""
    if not np.isfinite(v):
        return float(v)
    i_v = int(v)
    return i_v if i_v == v else float(v)


@dataclass
class BuildStats:
    """Instrumentation for the experiments (E3) and incremental repair."""

    nodes: int = 0
    leaves: int = 0
    max_interface: int = 0
    max_tracked: int = 0
    separator_fallbacks: int = 0
    crossing_candidates: int = 0
    monge_fast_blocks: int = 0
    conquer_pairs: int = 0
    per_level_points: dict = field(default_factory=dict)
    # subtree-cache traffic (incremental builds only; zero otherwise)
    subtree_hits: int = 0
    subtree_patches: int = 0
    subtree_misses: int = 0
    delta_conquers: int = 0
    patched_points: int = 0


@dataclass
class SubtreeEntry:
    """One cached subtree solve: exact distances of a *sub-scene*.

    The key insight behind incremental repair: a recursion node's matrix
    holds exact rectilinear distances among its tracked points avoiding
    only *its own* obstacle set, so the entry is addressed by the subtree's
    rect multiset alone — the interface handed down by ancestors decides
    which rows exist, never their values.  A later build whose interface
    differs (the usual case after an edit elsewhere) can therefore reuse
    the entry as a submatrix, and missing interface points are appended by
    the exact first-corner-contact patch (:meth:`ParallelEngine._patch_entry`).
    ``chain_sig``/``zs`` record the node's separator so a delete repair can
    prove the divide is unchanged and take the monotone delta conquer.
    """

    pts: list
    index: dict
    matrix: np.ndarray
    chain_sig: Optional[tuple]  # (pts, increasing, left_dir, right_dir)
    zs: Optional[tuple]
    pram_cost: tuple  # (time, work, width) of the original full solve
    lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def nbytes(self) -> int:
        return int(self.matrix.nbytes) + 48 * len(self.pts) + 256


class DistanceIndex:
    """All-pairs length matrix over a fixed point set with O(1) lookups.

    This is the data structure of the paper's abstract: one processor
    obtains any vertex-pair length in constant time.
    """

    def __init__(self, points: Sequence[Point], matrix: np.ndarray) -> None:
        self.points = list(points)
        self.matrix = matrix
        self.index = {p: i for i, p in enumerate(self.points)}

    def length(self, p: Point, q: Point) -> int:
        try:
            i = self.index[p]
            j = self.index[q]
        except KeyError as exc:
            raise QueryError(f"{exc.args[0]} is not an indexed point") from None
        return exact_length(self.matrix[i, j])  # type: ignore[return-value]

    def has_point(self, p: Point) -> bool:
        return p in self.index

    def ids(self, pts: Sequence[Point]) -> np.ndarray:
        """Row/column ids of the given indexed points."""
        try:
            return np.array([self.index[p] for p in pts], dtype=np.intp)
        except KeyError as exc:
            raise QueryError(f"{exc.args[0]} is not an indexed point") from None

    def lengths(self, ps: Sequence[Point], qs: Sequence[Point]) -> np.ndarray:
        """Pairwise lengths ``d(ps[i], qs[i])`` as one vectorized gather."""
        if len(ps) != len(qs):
            raise QueryError(f"pair arrays differ in length: {len(ps)} vs {len(qs)}")
        return self.matrix[self.ids(ps), self.ids(qs)]

    def submatrix(
        self, pts: Sequence[Point], cols: Optional[Sequence[Point]] = None
    ) -> np.ndarray:
        """Distance block ``pts × cols`` (``pts × pts`` when ``cols`` is
        omitted) in one fancy-indexing gather."""
        ids = self.ids(pts)
        cids = ids if cols is None else self.ids(cols)
        return self.matrix[np.ix_(ids, cids)]

    # -- persistence hooks (repro.serve.snapshot) ------------------------
    def export_arrays(self) -> dict[str, np.ndarray]:
        """The index as plain arrays: vertex order ``(n, 2)`` plus the
        matrix.  Together with :meth:`from_arrays` this is the whole
        persistence contract — row/column ``i`` belongs to ``points[i]``.

        Points are int64 when every coordinate is an integer (the normal
        domain — exact at any magnitude, byte-compatible with existing
        snapshots) and float64 otherwise — non-integer extra points are
        indexed verbatim and must not be silently truncated on the way
        to disk (the snapshot TOC records the dtype, so either loads
        back exactly)."""
        pts_list = list(self.points)
        if all(isinstance(c, (int, np.integer)) for p in pts_list for c in p):
            try:
                pts = np.array(pts_list, dtype=np.int64).reshape(len(pts_list), 2)
            except OverflowError:
                raise QueryError(
                    "point coordinates exceed the int64 snapshot range"
                ) from None
        else:
            # float64 must represent every coordinate exactly (a huge
            # integer mixed with one float extra would otherwise round
            # silently); refuse loudly when it cannot
            try:
                exact = all(float(c) == c for p in pts_list for c in p)
            except OverflowError:  # int too large for float at all
                exact = False
            if not exact:
                raise QueryError(
                    "point coordinates cannot be represented exactly in a "
                    "float64 snapshot"
                )
            pts = np.array(pts_list, dtype=np.float64).reshape(len(pts_list), 2)
        return {"points": pts, "matrix": self.matrix}

    @classmethod
    def from_arrays(cls, points: np.ndarray, matrix: np.ndarray) -> "DistanceIndex":
        """Rebuild an index from :meth:`export_arrays` output (no solving)."""
        pts_arr = np.asarray(points)
        mat = np.asarray(matrix, dtype=float)
        if pts_arr.ndim != 2 or pts_arr.shape[1] != 2:
            raise QueryError(f"points array must be (n, 2), got {pts_arr.shape}")
        n = pts_arr.shape[0]
        if mat.shape != (n, n):
            raise QueryError(
                f"matrix shape {mat.shape} does not match {n} points"
            )
        pts = [(x, y) for x, y in pts_arr.tolist()]
        return cls(pts, mat)

    def __len__(self) -> int:
        return len(self.points)


def _arc_pos(p: Point, increasing: bool) -> int:
    """Arc-length parameter along a monotone staircase (x+y or x−y)."""
    return p[0] + p[1] if increasing else p[0] - p[1]


def block_minplus(
    DU: np.ndarray, block: np.ndarray, certify: bool, pram: PRAM
) -> tuple[np.ndarray, bool]:
    """One conquer column block ``DU * block``; returns ``(product, fast)``.

    A chain block (``certify``) is certified once through
    :class:`MongeFlag` — :func:`minplus_monge`'s own check then reads the
    memoised verdict instead of re-paying the O(|Z|·|g|) certification —
    and takes the SMAWK product of Lemma 3 when Monge (``fast``), else
    the naive product.  Ungrouped columns go straight to the naive product.
    """
    if not certify:
        return minplus_naive(DU, block, pram), False
    flag = MongeFlag(block)
    pram.charge(time=1, work=flag.array.size, width=flag.array.size)
    if flag.monge():
        return minplus_monge(DU, flag, pram), True
    return minplus_naive(DU, flag.array, pram), False


def chain_cross_product(
    DU: np.ndarray,
    DL: np.ndarray,
    cols: Sequence[Point],
    chain_tags: dict,
    pram: PRAM,
    offload=None,
) -> tuple[np.ndarray, int]:
    """(min,+) product ``DU * DL`` with chain-grouped column dispatch.

    Columns with a common chain tag (``chain_tags[p] = (chain id,
    position)``) are processed together in chain order: the block
    ``DL[Z × group]`` is then Monge whenever Lemma 2's side conditions
    hold (verified at runtime by :func:`block_minplus`), so those groups
    take the SMAWK path of Lemma 3.  Ungrouped columns (obstacle
    vertices) carry no chain order, so they form one naive block — the
    extra work E3 measures against the paper's flow-based conquer.
    Independent blocks multiply side by side on the PRAM.

    ``offload(DU, block, certify)`` may take a block off this process: it
    returns ``None`` (run it here) or a ``wait()`` callable yielding
    ``(product, fast, (time, work, width))``.  Offloaded blocks are all
    submitted before any block runs here, and awaited last.  Returns
    ``(product, number of blocks that took the SMAWK path)``.
    """
    groups: dict[int, list[int]] = {}
    scattered: list[int] = []
    for j, p in enumerate(cols):
        tag = chain_tags.get(p)
        if tag is None:
            scattered.append(j)
        else:
            groups.setdefault(tag[0], []).append(j)
    blocks = []
    for idxs in groups.values():
        idxs.sort(key=lambda j: chain_tags[cols[j]][1])
        blocks.append((idxs, True))
    if scattered:
        blocks.append((scattered, False))
    def run_here(idxs, block, certify):
        return lambda m: (idxs, *block_minplus(DU, block, certify, m))

    def run_remote(idxs, wait):
        def job(m: PRAM):
            product, fast, (t, w, width) = wait()
            m.charge(time=t, work=w, width=width)
            return idxs, product, fast

        return job

    local, remote = [], []
    for idxs, certify in blocks:
        block = DL[:, idxs]
        wait = offload(DU, block, certify) if offload is not None else None
        if wait is None:
            local.append(run_here(idxs, block, certify))
        else:
            remote.append(run_remote(idxs, wait))
    out = np.full((DU.shape[0], DL.shape[1]), INF)
    fast_blocks = 0
    for idxs, block_out, fast in pram.parallel(local + remote):
        out[:, idxs] = block_out
        fast_blocks += int(fast)
    return out, fast_blocks


class ParallelEngine:
    """Builds the all-pairs structure among obstacle vertices (plus any
    extra points) on the simulated CREW-PRAM."""

    def __init__(
        self,
        rects: Sequence[Rect],
        extra_points: Sequence[Point] = (),
        pram: Optional[PRAM] = None,
        leaf_size: int = DEFAULT_LEAF_SIZE,
        validate: bool = True,
        extra_chains: Sequence[Sequence[Point]] = (),
        monge_dispatch: bool = True,
        seams: Sequence = (),
        divide: str = "median",
        subtree_cache=None,
        subtree_salt: tuple = (),
        delta_hint: Optional[tuple] = None,
    ) -> None:
        self.rects = list(rects)
        if validate:
            validate_disjoint(self.rects)
        # interior seams of polygon-obstacle decompositions: global blockers
        # threaded into every leaf solve, separator guard and visibility
        # test so the computed metric treats each polygon as solid
        self.seams = list(seams)
        self.extra_points = list(dict.fromkeys(extra_points))
        for chain in extra_chains:
            for p in chain:
                if p not in self.extra_points:
                    self.extra_points.append(p)
        for p in self.extra_points:
            if any(r.contains_interior(p) for r in self.rects) or any(
                s.contains_open(p) for s in self.seams
            ):
                raise GeometryError(f"extra point {p} is inside an obstacle")
        self.pram = pram or ambient()
        self.leaf_size = max(2, leaf_size)
        self.stats = BuildStats()
        # chain provenance: points known to lie, in order, on a common
        # monotone staircase.  This is the paper's boundary-partitioning
        # discipline (Lemmas 1/5): matrix blocks indexed by one chain are
        # Monge and take the SMAWK path in the conquer products.
        self.monge_dispatch = monge_dispatch
        self._chain_tags: dict[Point, tuple[int, int]] = {}
        self._next_chain_id = 0
        for chain in extra_chains:
            cid = self._fresh_chain_id()
            for k, p in enumerate(chain):
                self._chain_tags[p] = (cid, k)
        # incremental-build hooks (see repro.pipeline.update_index):
        # ``divide`` picks the separator pivot rule ("median" keeps the
        # paper's exact behaviour; "stable" snaps it so edits stay local),
        # ``subtree_cache`` is a StageCache-compatible object receiving one
        # entry per recursion node, ``delta_hint`` = ("delete", Rect) when
        # this build repairs a known single-obstacle delete.
        if divide not in ("median", "stable"):
            raise QueryError(f"unknown divide rule {divide!r}")
        self.divide = divide
        self._sub_cache = subtree_cache
        self._sub_salt = tuple(subtree_salt)
        self._delta_hint = delta_hint

    def _fresh_chain_id(self) -> int:
        self._next_chain_id += 1
        return self._next_chain_id

    # ------------------------------------------------------------------
    def build(self) -> DistanceIndex:
        """Compute the index; simulated time O(log² n)-ish, see E3."""
        if not self.rects:
            pts = list(self.extra_points)
            m = np.zeros((len(pts), len(pts)))
            for i, p in enumerate(pts):
                for j, q in enumerate(pts):
                    m[i, j] = dist(p, q)
            return DistanceIndex(pts, m)
        idx = list(range(len(self.rects)))
        pts, mat = self._solve(idx, self.extra_points, self.pram, depth=0)
        return DistanceIndex(pts, mat)

    # ------------------------------------------------------------------
    def _tracked_points(self, rect_idx: list[int], interface: Sequence[Point]) -> list[Point]:
        seen: dict[Point, None] = {}
        for i in rect_idx:
            for v in self.rects[i].vertices:
                seen.setdefault(v, None)
        for p in interface:
            seen.setdefault(p, None)
        return list(seen)

    def _solve(
        self,
        rect_idx: list[int],
        interface: Sequence[Point],
        pram: PRAM,
        depth: int,
    ) -> tuple[list[Point], np.ndarray]:
        self.stats.nodes += 1
        self.stats.max_interface = max(self.stats.max_interface, len(interface))
        pts = self._tracked_points(rect_idx, interface)
        self.stats.max_tracked = max(self.stats.max_tracked, len(pts))
        lvl = self.stats.per_level_points
        lvl[depth] = lvl.get(depth, 0) + len(pts)
        if self._sub_cache is None:
            out, _ = self._solve_node(rect_idx, pts, pram, depth)
            return out
        key = self._subtree_key(rect_idx)
        entry = self._sub_cache.get(key)
        if entry is not None:
            reused = self._reuse_entry(key, entry, rect_idx, pts, pram)
            if reused is not None:
                return reused
        self.stats.subtree_misses += 1
        snap = pram.snapshot()
        out, aux = self._solve_node(rect_idx, pts, pram, depth)
        dt, dw = pram.since(snap)
        self._store_entry(key, out, aux, (dt, dw, pram.max_ops))
        return out

    def _solve_node(
        self,
        rect_idx: list[int],
        pts: list[Point],
        pram: PRAM,
        depth: int,
    ) -> tuple[tuple[list[Point], np.ndarray], Optional[tuple]]:
        """One recursion node (leaf or divide+conquer), cache-oblivious.

        Returns ``((pts, matrix), aux)`` with ``aux`` the separator
        signature ``(chain_sig, zs)`` for internal nodes (``None`` when the
        node was brute-forced as a leaf)."""
        if len(rect_idx) <= self.leaf_size:
            return self._leaf(rect_idx, pts, pram), None
        sub_rects = [self.rects[i] for i in rect_idx]
        sep = staircase_separator(sub_rects, pram, pivot=self.divide)
        if not sep.upper or not sep.lower:
            self.stats.separator_fallbacks += 1
            return self._leaf(rect_idx, pts, pram), None
        chain = sep.staircase
        if self.seams and not staircase_clear_of_seams(chain, self.seams):
            # a separator running along a seam would place crossing
            # candidates inside a polygon and slide paths through it;
            # the exact leaf solve is always sound
            self.stats.separator_fallbacks += 1
            return self._leaf(rect_idx, pts, pram), None
        zs = self._crossing_candidates(chain, sub_rects, pts, pram)
        if not zs:
            self.stats.separator_fallbacks += 1
            return self._leaf(rect_idx, pts, pram), None
        upper_idx = [rect_idx[i] for i in sep.upper]
        lower_idx = [rect_idx[i] for i in sep.lower]
        pram.step(len(pts))
        side_of = {p: chain.side_of(p) for p in pts}
        up_iface = list(dict.fromkeys(
            [p for p in pts if side_of[p] >= 0] + zs))
        lo_iface = list(dict.fromkeys(
            [p for p in pts if side_of[p] <= 0] + zs))
        (ptsU, matU), (ptsL, matL) = pram.parallel(
            [
                lambda m, ui=upper_idx, si=up_iface: self._solve(ui, si, m, depth + 1),
                lambda m, li=lower_idx, si=lo_iface: self._solve(li, si, m, depth + 1),
            ]
        )
        chain_sig = (chain.pts, chain.increasing, chain.left_dir, chain.right_dir)
        delta = self._try_delta_conquer(
            pts, side_of, chain, chain_sig, zs, sub_rects, rect_idx,
            upper_idx, lower_idx, (ptsU, matU), (ptsL, matL), pram,
        )
        if delta is not None:
            return delta, (chain_sig, tuple(zs))
        out = self._conquer(
            pts, side_of, chain, zs, sub_rects, (ptsU, matU), (ptsL, matL), pram
        )
        return out, (chain_sig, tuple(zs))

    # -- subtree cache (incremental builds) ----------------------------
    def _subtree_key(self, rect_idx: list[int]) -> tuple:
        coords = sorted(
            (self.rects[i].xlo, self.rects[i].ylo, self.rects[i].xhi, self.rects[i].yhi)
            for i in rect_idx
        )
        return ("solve", "sub", self._sub_salt, tuple(coords))

    def _old_subtree_key(self, rect_idx: list[int]) -> Optional[tuple]:
        """The key this subtree had *before* the hinted delete (its rect
        multiset plus the removed rect) — where the pre-edit entry lives."""
        if self._delta_hint is None or self._delta_hint[0] != "delete":
            return None
        r = self._delta_hint[1]
        coords = sorted(
            [
                (self.rects[i].xlo, self.rects[i].ylo, self.rects[i].xhi, self.rects[i].yhi)
                for i in rect_idx
            ]
            + [(r.xlo, r.ylo, r.xhi, r.yhi)]
        )
        return ("solve", "sub", self._sub_salt, tuple(coords))

    def _reuse_entry(
        self,
        key: tuple,
        entry: SubtreeEntry,
        rect_idx: list[int],
        pts: list[Point],
        pram: PRAM,
    ) -> Optional[tuple[list[Point], np.ndarray]]:
        """Serve this node from a cached sub-scene entry, patching in up to
        a few missing interface points; ``None`` when the entry cannot
        cover the request (the node is then recomputed)."""
        missing = [p for p in pts if p not in entry.index]
        if missing:
            if self.seams or len(missing) > max(16, len(pts) // 4):
                return None
            # exactness of the patch (and of cross-interface reuse in
            # general) rests on integer arithmetic; a fractional point
            # forces the ordinary recompute path
            if not all(
                isinstance(c, int) or float(c).is_integer()
                for p in missing
                for c in p
            ):
                return None
            with entry.lock:
                still_missing = [p for p in pts if p not in entry.index]
                if still_missing:
                    self._patch_entry(key, entry, rect_idx, still_missing, pram)
            self.stats.subtree_patches += 1
            self.stats.patched_points += len(missing)
        else:
            self.stats.subtree_hits += 1
        sel = [entry.index[p] for p in pts]
        mat = entry.matrix[np.ix_(sel, sel)]
        t, w, width = entry.pram_cost
        pram.charge(time=t, work=w, width=width)
        return pts, mat

    def _patch_entry(
        self,
        key: tuple,
        entry: SubtreeEntry,
        rect_idx: list[int],
        missing: list[Point],
        pram: PRAM,
    ) -> None:
        """Append exact rows/columns for ``missing`` to a sub-scene entry.

        First-corner-contact decomposition: a taut path from a new point
        either runs clear along an extreme L-path to its target, or first
        touches some obstacle corner ``c`` — and every corner of the
        sub-scene is already a tracked row of the entry (``_tracked_points``
        always includes all subtree vertices), so
        ``d(x, q) = min(clear_l1(x, q), min_c clear_l1(x, c) + M[c, q])``
        with integer arithmetic throughout: bit-identical to what the full
        recursion would have produced.
        """
        sub = [self.rects[i] for i in rect_idx]
        corners = list(dict.fromkeys(v for r in sub for v in r.vertices))
        cid = [entry.index[c] for c in corners]
        old_pts = entry.pts
        m, k = len(old_pts), len(missing)
        w_xc = clear_l1_block(missing, corners, sub)  # k x C
        scratch = PRAM(f"{pram.name}/patch")
        # rows vs every stored point (keeps the entry square + canonical)
        via = minplus_naive(w_xc, entry.matrix[cid, :], scratch)  # k x m
        rows = np.minimum(clear_l1_block(missing, old_pts, sub), via)
        # the new-new block, through the just-computed corner columns
        via_xx = minplus_naive(w_xc, rows[:, cid].T, scratch)
        block = np.minimum(clear_l1_block(missing, missing, sub), via_xx)
        np.minimum(block, block.T, out=block)
        np.fill_diagonal(block, 0.0)
        grown = np.full((m + k, m + k), INF)
        grown[:m, :m] = entry.matrix
        grown[m:, :m] = rows
        grown[:m, m:] = rows.T
        grown[m:, m:] = block
        grown.setflags(write=False)
        entry.matrix = grown
        for p in missing:
            entry.index[p] = len(entry.pts)
            entry.pts.append(p)
        pram.charge(time=scratch.time, work=scratch.work, width=scratch.max_ops)
        if self._sub_cache is not None:
            self._sub_cache.put(key, entry, entry.nbytes())

    def _try_delta_conquer(
        self,
        pts: list[Point],
        side_of: dict[Point, int],
        chain: Staircase,
        chain_sig: tuple,
        zs: list[Point],
        sub_rects: list[Rect],
        rect_idx: list[int],
        upper_idx: list[int],
        lower_idx: list[int],
        upper: tuple[list[Point], np.ndarray],
        lower: tuple[list[Point], np.ndarray],
        pram: PRAM,
    ) -> Optional[tuple[list[Point], np.ndarray]]:
        """The monotone delete conquer: repair a node after one obstacle
        was removed, skipping the full (min,+) cross product.

        Deleting an obstacle only *frees* space, so every pre-edit distance
        is still achievable — the old node matrix is a valid (and usually
        tight) upper bound.  A strictly better path must run through the
        freed region, which lies entirely on the dirty side of the (by
        construction unchanged) separator, so at a core crossing candidate
        it must beat the dirty child's *old* separator distances: only
        columns where those improved can lower any cross pair.  The cross
        block is therefore ``min(old block, DU[:, changed] ⊗ DL[changed, :])``
        plus freshly recomputed per-pair projection specials (visibility can
        open up too).  Preconditions checked here — same separator, old zs
        superset, both old entries present, integral points, no seams —
        fall back to the ordinary full conquer when unmet.
        """
        if self._sub_cache is None or self._delta_hint is None or self.seams:
            return None
        if self._delta_hint[0] != "delete":
            return None
        r = self._delta_hint[1]
        side = chain.side_of_rect(r)
        if side == 0:
            return None
        if not all(
            isinstance(c, int) or float(c).is_integer() for p in pts for c in p
        ):
            return None
        old_entry = self._sub_cache.get(self._old_subtree_key(rect_idx))
        if (
            old_entry is None
            or old_entry.chain_sig != chain_sig
            or old_entry.zs is None
            or not set(zs) <= set(old_entry.zs)
            or any(p not in old_entry.index for p in pts)
        ):
            return None
        dirty_idx = upper_idx if side > 0 else lower_idx
        old_child = self._sub_cache.get(self._old_subtree_key(dirty_idx))
        if old_child is None:
            return None
        ptsU, matU = upper
        ptsL, matL = lower
        rows_u = [p for p in pts if side_of[p] >= 0]
        rows_l = [p for p in pts if side_of[p] <= 0]
        dirty_rows = rows_u if side > 0 else rows_l
        if any(p not in old_child.index for p in dirty_rows) or any(
            z not in old_child.index for z in zs
        ):
            return None
        iu = {p: i for i, p in enumerate(ptsU)}
        il = {p: i for i, p in enumerate(ptsL)}
        m = len(pts)
        pidx = {p: i for i, p in enumerate(pts)}
        out = np.full((m, m), INF)
        uid = [iu[p] for p in rows_u]
        lid = [il[p] for p in rows_l]
        sel_u = [pidx[p] for p in rows_u]
        sel_l = [pidx[p] for p in rows_l]
        out[np.ix_(sel_u, sel_u)] = matU[np.ix_(uid, uid)]
        out[np.ix_(sel_l, sel_l)] = np.minimum(
            out[np.ix_(sel_l, sel_l)], matL[np.ix_(lid, lid)]
        )
        t = np.array([_arc_pos(z, chain.increasing) for z in zs], dtype=float)
        zu = [iu[z] for z in zs]
        zl = [il[z] for z in zs]
        DU = matU[np.ix_(uid, zu)]
        DL = matL[np.ix_(zl, lid)]
        cross = old_entry.matrix[
            np.ix_(
                [old_entry.index[p] for p in rows_u],
                [old_entry.index[p] for p in rows_l],
            )
        ].copy()
        if side > 0:
            old_D = old_child.matrix[
                np.ix_([old_child.index[p] for p in rows_u],
                       [old_child.index[z] for z in zs])
            ]
            changed = np.flatnonzero((DU < old_D).any(axis=0))
        else:
            old_D = old_child.matrix[
                np.ix_([old_child.index[z] for z in zs],
                       [old_child.index[p] for p in rows_l])
            ]
            changed = np.flatnonzero((DL < old_D).any(axis=1))
        if changed.size:
            imp = minplus_naive(DU[:, changed], DL[changed, :], pram)
            np.minimum(cross, imp, out=cross)
        cross = self._apply_projection_specials(
            cross, rows_u, rows_l, chain, zs, t, DU, DL, sub_rects, pram
        )
        cur = out[np.ix_(sel_u, sel_l)]
        out[np.ix_(sel_u, sel_l)] = np.minimum(cur, cross)
        out[np.ix_(sel_l, sel_u)] = out[np.ix_(sel_u, sel_l)].T
        np.fill_diagonal(out, 0.0)
        pram.charge(time=2, work=cross.size + old_D.size, width=cross.size)
        self.stats.delta_conquers += 1
        self.stats.conquer_pairs += len(rows_u) * len(rows_l)
        return pts, out

    def _store_entry(
        self,
        key: tuple,
        out: tuple[list[Point], np.ndarray],
        aux: Optional[tuple],
        pram_cost: tuple,
    ) -> None:
        pts, mat = out
        mat.setflags(write=False)
        chain_sig, zs = aux if aux is not None else (None, None)
        entry = SubtreeEntry(
            pts=list(pts),
            index={p: i for i, p in enumerate(pts)},
            matrix=mat,
            chain_sig=chain_sig,
            zs=zs,
            pram_cost=tuple(pram_cost),
        )
        self._sub_cache.put(key, entry, entry.nbytes())

    # ------------------------------------------------------------------
    def _leaf(
        self, rect_idx: list[int], pts: list[Point], pram: PRAM
    ) -> tuple[list[Point], np.ndarray]:
        """Base case: solve the few-obstacle subproblem directly.

        Brute-forces the leaf with the vectorized corner graph
        (:func:`repro.core.baseline.corner_graph_matrix`): one batched
        multi-source Dijkstra on the corner-only Hanan grid plus array
        L-path sweeps build the whole ``m × m`` block — no per-pair Python.
        Charged as the honest PRAM equivalent: one independent single-pair
        computation per point pair, each a [11]-style sweep over the ``c``
        leaf obstacles — time ``O(log m + c log c)``, work
        ``O(m² · c log c)``.  With the constant leaf size this keeps the
        global Θ(log² n) time; with ``c = n`` (no recursion) it exposes
        the Θ(n³)-work/Θ(n log n)-time flat solve the paper's recursion
        exists to avoid (ablation E11).
        """
        self.stats.leaves += 1
        sub = [self.rects[i] for i in rect_idx]
        m = len(pts)
        if not sub:
            mat = np.zeros((m, m))
            for i, p in enumerate(pts):
                for j, q in enumerate(pts):
                    mat[i, j] = dist(p, q)
            pram.step(m * m)
            return pts, mat
        mat = corner_graph_matrix(sub, pts, seams=self.seams)
        lg = pram.log2ceil(m or 1)
        c = len(sub)
        clogc = max(1, c * max(1, (max(c - 1, 1)).bit_length()))
        pram.charge(time=lg + clogc, work=m * m * clogc, width=m * m)
        return pts, mat

    # ------------------------------------------------------------------
    def _crossing_candidates(
        self,
        chain: Staircase,
        sub_rects: list[Rect],
        pts: list[Point],
        pram: PRAM,
    ) -> list[Point]:
        """Core crossing candidates: obstacle grid-line crossings with the
        separator, plus separator corners (clipped to the scene box)."""
        xlo, ylo, xhi, yhi = bbox_of_points(
            [v for r in sub_rects for v in (r.sw, r.ne)] + list(pts)
        )
        xs_set = {r.xlo for r in sub_rects} | {r.xhi for r in sub_rects}
        ys_set = {r.ylo for r in sub_rects} | {r.yhi for r in sub_rects}
        for s in self.seams:
            # seam endpoints are reflex corners of polygon obstacles: their
            # grid lines carry the extra kinks of the seam-aware distance-
            # to-separator functions, so they must be candidate generators
            xs_set.add(s.x)
            ys_set.update((s.ylo, s.yhi))
        xs = sorted(xs_set)
        ys = sorted(ys_set)
        out: dict[Point, None] = {}
        for x in xs:
            for p in chain.crossings_with_vline(x):
                if ylo <= p[1] <= yhi:
                    out.setdefault(p, None)
        for y in ys:
            for p in chain.crossings_with_hline(y):
                if xlo <= p[0] <= xhi:
                    out.setdefault(p, None)
        for p in chain.clip_points_to_bbox(xlo, ylo, xhi, yhi):
            out.setdefault(p, None)
        pram.charge(
            time=pram.log2ceil(len(xs) + len(ys) + 1),
            work=2 * (len(xs) + len(ys)) + len(chain.pts),
            width=len(xs) + len(ys),
        )
        zs = sorted(out, key=lambda p: _arc_pos(p, chain.increasing))
        cid = self._fresh_chain_id()
        for k, z in enumerate(zs):
            self._chain_tags.setdefault(z, (cid, k))
        self.stats.crossing_candidates += len(zs)
        return zs

    # ------------------------------------------------------------------
    def _conquer(
        self,
        pts: list[Point],
        side_of: dict[Point, int],
        chain: Staircase,
        zs: list[Point],
        sub_rects: list[Rect],
        upper: tuple[list[Point], np.ndarray],
        lower: tuple[list[Point], np.ndarray],
        pram: PRAM,
    ) -> tuple[list[Point], np.ndarray]:
        ptsU, matU = upper
        ptsL, matL = lower
        iu = {p: i for i, p in enumerate(ptsU)}
        il = {p: i for i, p in enumerate(ptsL)}
        m = len(pts)
        pidx = {p: i for i, p in enumerate(pts)}
        out = np.full((m, m), INF)
        rows_u = [p for p in pts if side_of[p] >= 0]
        rows_l = [p for p in pts if side_of[p] <= 0]
        # same-side pairs come straight from the children (Containment)
        uid = [iu[p] for p in rows_u]
        lid = [il[p] for p in rows_l]
        sel_u = [pidx[p] for p in rows_u]
        sel_l = [pidx[p] for p in rows_l]
        out[np.ix_(sel_u, sel_u)] = matU[np.ix_(uid, uid)]
        out[np.ix_(sel_l, sel_l)] = np.minimum(
            out[np.ix_(sel_l, sel_l)], matL[np.ix_(lid, lid)]
        )
        self.stats.conquer_pairs += len(rows_u) * len(rows_l)
        # cross pairs through the separator
        t = np.array([_arc_pos(z, chain.increasing) for z in zs], dtype=float)
        zu = [iu[z] for z in zs]
        zl = [il[z] for z in zs]
        DU = matU[np.ix_(uid, zu)]  # upper-side point -> separator
        DL = matL[np.ix_(zl, lid)]  # separator -> lower-side point
        cross = self._cross_product(DU, DL, rows_l, pram)
        cross = self._apply_projection_specials(
            cross, rows_u, rows_l, chain, zs, t, DU, DL, sub_rects, pram
        )
        cur = out[np.ix_(sel_u, sel_l)]
        out[np.ix_(sel_u, sel_l)] = np.minimum(cur, cross)
        out[np.ix_(sel_l, sel_u)] = out[np.ix_(sel_u, sel_l)].T
        np.fill_diagonal(out, 0.0)
        return pts, out

    # ------------------------------------------------------------------
    def _cross_product(
        self,
        DU: np.ndarray,
        DL: np.ndarray,
        cols: list[Point],
        pram: PRAM,
    ) -> np.ndarray:
        """``DU * DL`` through :func:`chain_cross_product`, or one naive
        product when Monge dispatch is off (ablation E2)."""
        if not self.monge_dispatch:
            return minplus_naive(DU, DL, pram)
        out, fast = chain_cross_product(
            DU, DL, cols, self._chain_tags, pram, offload=self._offload_block
        )
        self.stats.monge_fast_blocks += fast
        return out

    def _offload_block(self, DU: np.ndarray, block: np.ndarray, certify: bool):
        """Executor hook of :func:`chain_cross_product`: this engine runs
        every column block in process."""
        return None

    # ------------------------------------------------------------------
    def _apply_projection_specials(
        self,
        cross: np.ndarray,
        rows_u: list[Point],
        rows_l: list[Point],
        chain: Staircase,
        zs: list[Point],
        t: np.ndarray,
        DU: np.ndarray,
        DL: np.ndarray,
        sub_rects: list[Rect],
        pram: PRAM,
    ) -> np.ndarray:
        """Per-pair candidates (c): each endpoint's own visible grid-line
        projections onto the separator (see module docstring)."""
        shooter = RayShooter(sub_rects)
        su = _projection_table(rows_u, chain, shooter, toward=-1, seams=self.seams)
        sl = _projection_table(rows_l, chain, shooter, toward=+1, seams=self.seams)
        pram.step(2 * (len(rows_u) + len(rows_l)))
        nz = len(zs)
        # (i) upper special -> neighbouring core z -> lower point
        for k in range(su.t.shape[1]):
            valid = np.isfinite(su.val[:, k])
            if not valid.any():
                continue
            pos = np.searchsorted(t, su.t[:, k])
            for nb in (np.clip(pos - 1, 0, nz - 1), np.clip(pos, 0, nz - 1)):
                base = su.val[:, k] + np.abs(su.t[:, k] - t[nb])
                cand = base[:, None] + DL[nb, :]
                cand[~valid, :] = INF
                np.minimum(cross, cand, out=cross)
        # (ii) upper point -> neighbouring core z -> lower special
        for k in range(sl.t.shape[1]):
            valid = np.isfinite(sl.val[:, k])
            if not valid.any():
                continue
            pos = np.searchsorted(t, sl.t[:, k])
            for nb in (np.clip(pos - 1, 0, nz - 1), np.clip(pos, 0, nz - 1)):
                base = sl.val[:, k] + np.abs(sl.t[:, k] - t[nb])
                cand = DU[:, nb] + base[None, :]
                cand[:, ~valid] = INF
                np.minimum(cross, cand, out=cross)
        # (iii) upper special -> lower special directly along the chain
        for k in range(su.t.shape[1]):
            for l in range(sl.t.shape[1]):
                cand = (
                    su.val[:, k][:, None]
                    + np.abs(su.t[:, k][:, None] - sl.t[:, l][None, :])
                    + sl.val[:, l][None, :]
                )
                np.minimum(cross, cand, out=cross)
        pram.charge(time=2, work=cross.size * 12, width=cross.size)
        return cross


@dataclass
class _Specials:
    t: np.ndarray  # (m, 2) arc positions (inf when absent)
    val: np.ndarray  # (m, 2) straight distances (inf when blocked/absent)


def _projection_table(
    points: list[Point],
    chain: Staircase,
    shooter: RayShooter,
    toward: int,
    seams: Sequence = (),
) -> _Specials:
    """For each point: its vertical and horizontal grid-line crossings with
    the separator, with straight L1 distance when the view is clear.

    ``toward=-1`` means the points are on the chain's +1 side and look
    toward it (down for the vertical projection of an upper point, etc.).
    A vertical view must additionally clear the polygon seams — it could
    run straight along one (horizontal views can only cross seams, which
    the rectangle shooter already blocks via the flanking tiles).
    """
    m = len(points)
    tarr = np.full((m, 2), 0.0)
    varr = np.full((m, 2), INF)
    inc = chain.increasing
    for i, p in enumerate(points):
        for k, crossings in enumerate(
            (chain.crossings_with_vline(p[0]), chain.crossings_with_hline(p[1]))
        ):
            if not crossings:
                continue
            # nearest crossing on the segment from p toward the chain
            z = min(crossings, key=lambda c: dist(p, c))
            tarr[i, k] = _arc_pos(z, inc)
            d = dist(p, z)
            if d == 0:
                varr[i, k] = 0.0
                continue
            if k == 0 and seams and seams_block_v_segment(
                seams, p[0], p[1], z[1]
            ):
                continue
            direction = _dir_toward(p, z)
            hit = shooter.shoot(p, direction)
            if hit is None or dist(p, hit.point) >= d:
                varr[i, k] = float(d)
    return _Specials(tarr, varr)


def _dir_toward(p: Point, z: Point) -> str:
    if p[0] == z[0]:
        return "N" if z[1] > p[1] else "S"
    return "E" if z[0] > p[0] else "W"


def build_vertex_index(
    rects: Sequence[Rect],
    extra_points: Sequence[Point] = (),
    pram: Optional[PRAM] = None,
    leaf_size: int = DEFAULT_LEAF_SIZE,
) -> DistanceIndex:
    """Convenience wrapper: the §6.3 all-pairs structure in one call."""
    return ParallelEngine(rects, extra_points, pram, leaf_size).build()
