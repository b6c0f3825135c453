"""Level-ancestor and LCA structures (Berkman–Vishkin [5, 6] substitute).

§8 reports a path of ``k`` segments with ``⌈k/log n⌉`` processors by
cutting the shortest-path tree path at every ``⌈log n⌉``-th node, which
needs *constant-time* level-ancestor queries.  The paper cites an
unpublished Berkman–Vishkin report; we substitute the functionally
equivalent jump-pointer + ladder scheme (Bender & Farach-Colton's
formulation): ``O(n log n)`` work, ``O(log n)`` simulated time to build,
``O(1)`` per query.  §8's budget is ``O(n²)`` work, so the extra log
factor is immaterial.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import PRAMError
from repro.pram.euler import forest_depths
from repro.pram.machine import PRAM, ambient


class LevelAncestor:
    """O(1) level-ancestor queries over a parent-pointer forest."""

    def __init__(self, parents: Sequence[Optional[int]], pram: Optional[PRAM] = None):
        pram = pram or ambient()
        n = len(parents)
        self.parents = list(parents)
        self.depth = forest_depths(parents, pram=pram)
        maxd = max(self.depth, default=0)
        logn = max(1, (max(n, 2) - 1).bit_length())
        self.LOG = max(1, (max(maxd, 1)).bit_length())
        # jump pointers: up[k][v] = 2^k-th ancestor (clamped at roots)
        up0 = [p if p is not None else v for v, p in enumerate(self.parents)]
        self.up = [up0]
        for k in range(1, self.LOG + 1):
            prev = self.up[-1]
            pram.step(n)  # one doubling round
            self.up.append([prev[prev[v]] for v in range(n)])
        del logn
        self._build_ladders(pram)

    # ------------------------------------------------------------------
    def _build_ladders(self, pram: PRAM) -> None:
        n = len(self.parents)
        order = sorted(range(n), key=lambda v: -self.depth[v])
        height = [0] * n
        best_child: list[Optional[int]] = [None] * n
        pram.charge(time=pram.log2ceil(n), work=n, width=n)
        for v in order:
            p = self.parents[v]
            if p is not None and height[v] + 1 > height[p]:
                height[p] = height[v] + 1
                best_child[p] = v
        # path tops: roots and nodes that are not their parent's best child
        self.ladder_id = [-1] * n
        self.ladder_pos = [0] * n
        self.ladders: list[list[int]] = []
        pram.charge(time=pram.log2ceil(n), work=2 * n, width=n)
        for v in range(n):
            p = self.parents[v]
            if p is not None and best_child[p] == v:
                continue
            # v is a path top: walk the preferred path down to its leaf
            path = [v]
            while best_child[path[-1]] is not None:
                path.append(best_child[path[-1]])  # type: ignore[arg-type]
            path.reverse()  # deepest first
            # ladder: extend above the top by len(path) ancestors
            ext: list[int] = []
            u: Optional[int] = self.parents[v]
            for _ in range(len(path)):
                if u is None:
                    break
                ext.append(u)
                u = self.parents[u]
            ladder = path + ext
            lid = len(self.ladders)
            self.ladders.append(ladder)
            for i, w in enumerate(path):
                self.ladder_id[w] = lid
                self.ladder_pos[w] = i

    # ------------------------------------------------------------------
    def query(self, v: int, k: int) -> int:
        """The ancestor ``k`` levels above ``v`` (O(1))."""
        if k == 0:
            return v
        if k > self.depth[v]:
            raise PRAMError(f"node {v} has no ancestor {k} levels up")
        j = k.bit_length() - 1
        if (1 << j) > k:  # pragma: no cover - bit_length makes this dead
            j -= 1
        u = self.up[j][v] if j < len(self.up) else self.up[-1][v]
        rem = k - (1 << j)
        if rem == 0:
            return u
        lad = self.ladders[self.ladder_id[u]]
        pos = self.ladder_pos[u] + rem
        if pos >= len(lad):  # pragma: no cover - ladder doubling prevents it
            raise PRAMError("ladder too short; structure corrupted")
        return lad[pos]

    def root(self, v: int) -> int:
        return self.query(v, self.depth[v])


class LCA:
    """Lowest common ancestors via binary lifting on the same jump table."""

    def __init__(self, la: LevelAncestor):
        self.la = la

    def query(self, u: int, v: int) -> int:
        la = self.la
        du, dv = la.depth[u], la.depth[v]
        if du > dv:
            u = la.query(u, du - dv)
        elif dv > du:
            v = la.query(v, dv - du)
        if u == v:
            return u
        for k in range(len(la.up) - 1, -1, -1):
            if la.up[k][u] != la.up[k][v]:
                u = la.up[k][u]
                v = la.up[k][v]
        pu = la.parents[u]
        if pu is None or pu != la.parents[v]:
            raise PRAMError("nodes are in different trees")
        return pu
