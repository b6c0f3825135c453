"""The ``parallel-mp`` engine: the §5/§6 divide-and-conquer on real cores.

:class:`ParallelMPEngine` subclasses :class:`ParallelEngine` and keeps
its algorithm byte-for-byte — same separators, same crossing candidates,
same (min,+) conquer, same PRAM charges — but executes independent
pieces of the recursion in worker *processes* (:mod:`repro.core.pool`):

1. **Plan.**  The divide half of the recursion (separator, seam guard,
   crossing candidates, interface construction) is deterministic and
   needs no child matrices, so the parent runs it alone, splitting the
   largest frontier nodes first (a max-heap on obstacle count) until the
   frontier holds ``~4×jobs`` independent nodes.  Nodes that hit the
   leaf size or a separator fallback become *leaf tasks*; frontier nodes
   still above the leaf size become *subtree tasks* (the worker runs the
   whole subtree).  Subtree-cache hits resolve in the parent during
   planning, exactly as on the single-core path — repaired multicore
   builds reuse the same content-addressed entries.  An incremental
   build (subtree cache set) plans all the way to the leaves, so every
   node is probed, counted and deposited in the parent.
2. **Dispatch.**  Tasks go to the worker pool largest-first (simulated
   work is the schedule key), results return over shared memory.
3. **Conquer.**  The parent merges children as results arrive; the
   (min,+) cross products of the merge dispatch their chain-grouped
   column blocks to the pool too, when big enough to pay for the hop.

Byte-identity with ``parallel`` holds because every matrix entry is a
min over the *same* float64 candidate sums: both (min,+) paths
(SMAWK/Monge and vectorized naive) are exact, and workers run the
identical code (:func:`repro.core.allpairs.block_minplus`) on identical
deterministically-ordered inputs.  Chain *grouping* may differ across
engines (tag ids are assigned in traversal order), which can only
re-route a block between two exact products.
PRAM totals match the single-core engine because every charge is either
replayed in the parent or accumulated worker-side and merged with the
same ``parallel()`` semantics (time ``+= max``, work ``+= sum``).

Each node's bookkeeping happens exactly once: the parent does the
``_solve`` preamble (stats, tracked points, cache probe) for every node
it materializes — including dispatch roots — and workers run only the
node *body* (``_leaf`` / ``_solve_node``), counting just the nodes they
create below the dispatch root.
"""

from __future__ import annotations

import heapq
import itertools
import time as _time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.allpairs import DistanceIndex, ParallelEngine, block_minplus
from repro.core.separator import staircase_separator
from repro.errors import EngineError
from repro.geometry.decompose import staircase_clear_of_seams
# bound here (unused) so perfbench's per-layer clock, which patches these
# names per module, finds them; the products run in repro.core.allpairs
from repro.monge.multiply import minplus_monge, minplus_naive  # noqa: F401
from repro.pram.machine import PRAM

__all__ = ["ParallelMPEngine"]

#: plan until the task frontier holds about this many nodes per worker
TASKS_PER_WORKER = 4

#: dispatch a conquer column block to the pool only above this many
#: fused multiply-min element operations (below it the hop costs more)
MIN_REMOTE_CONQUER_OPS = 1 << 18

_STAT_SUMS = (
    "nodes",
    "leaves",
    "separator_fallbacks",
    "crossing_candidates",
    "monge_fast_blocks",
    "conquer_pairs",
)
_STAT_MAXES = ("max_interface", "max_tracked")


class _Node:
    """One materialized recursion node in the parent's plan tree."""

    __slots__ = (
        "rect_idx", "interface", "depth", "parent", "machine", "pts",
        "kind", "key", "snap", "children", "pending", "chain", "chain_sig",
        "zs", "side_of", "sub_rects", "upper_idx", "lower_idx",
        "result", "aux", "task_id",
    )

    def __init__(self, rect_idx, interface, depth, parent, machine):
        self.rect_idx = rect_idx
        self.interface = interface
        self.depth = depth
        self.parent = parent
        self.machine = machine
        self.pts = None
        self.kind = None  # "resolved" | "leaf" | "subtree" | "internal"
        self.key = None
        self.snap = None
        self.children = None
        self.pending = 0
        self.chain = None
        self.chain_sig = None
        self.zs = None
        self.side_of = None
        self.sub_rects = None
        self.upper_idx = None
        self.lower_idx = None
        self.result = None
        self.aux = None
        self.task_id = None


class ParallelMPEngine(ParallelEngine):
    """Multicore :class:`ParallelEngine`; see the module docstring."""

    def __init__(self, *args, pool=None, jobs: int = 1, **kwargs):
        super().__init__(*args, **kwargs)
        self._pool = pool
        self._jobs = max(1, int(jobs))
        self._arrived: Dict[int, tuple] = {}
        self._pending: Dict[int, _Node] = {}
        #: surfaced through ``idx.provenance["pool"]``
        self.pool_stats: dict = {
            "workers": 0 if pool is None else self._jobs,
            "inline": pool is None,
            "tasks": 0,
            "leaf_tasks": 0,
            "subtree_tasks": 0,
            "conquer_tasks": 0,
            "worker_wall_s": 0.0,
        }

    # ------------------------------------------------------------------
    def build(self) -> DistanceIndex:
        if self._pool is None or not self.rects:
            # no pool (failed probe, forced inline): the inherited
            # single-core path — identical output by construction
            return super().build()
        root_machine = self._node_machine("root")
        root = _Node(
            list(range(len(self.rects))), list(self.extra_points), 0, None,
            root_machine,
        )
        try:
            with self._pool.exclusive():
                tasks, resolved = self._plan(root)
                self._dispatch(tasks)
                for node in resolved:
                    self._bubble(node)
                while root.result is None:
                    if self._arrived:
                        # a solve result that landed while a conquer was
                        # collecting its own column blocks
                        tid, (wall, body, arrays) = self._arrived.popitem()
                    else:
                        tid, wall, body, arrays = self._pool.next_result()
                    node = self._pending.pop(tid, None)
                    if node is None:
                        continue
                    self._finish_task(node, wall, body, arrays)
                    self._bubble(node)
        except BaseException:
            self._pending.clear()
            self._arrived.clear()
            if not getattr(self._pool, "closed", True):
                self._pool.abandon()
            raise
        pts, mat = root.result
        self.pram.charge(
            time=root_machine.time, work=root_machine.work,
            width=root_machine.max_ops,
        )
        return DistanceIndex(pts, mat)

    # ------------------------------------------------------------------
    def _node_machine(self, label: str) -> PRAM:
        return PRAM(f"{self.pram.name}/mp-{label}")

    def _admit(self, node: _Node, tasks: list, heap: list, resolved: list,
               seq) -> None:
        """The ``_solve`` preamble for one materialized node: stats,
        tracked points, subtree-cache probe.  Classifies cache hits as
        resolved and at/below-leaf-size nodes as leaf tasks; everything
        else stays expandable on the heap."""
        self.stats.nodes += 1
        self.stats.max_interface = max(
            self.stats.max_interface, len(node.interface)
        )
        node.pts = self._tracked_points(node.rect_idx, node.interface)
        self.stats.max_tracked = max(self.stats.max_tracked, len(node.pts))
        lvl = self.stats.per_level_points
        lvl[node.depth] = lvl.get(node.depth, 0) + len(node.pts)
        if self._sub_cache is not None:
            node.key = self._subtree_key(node.rect_idx)
            entry = self._sub_cache.get(node.key)
            if entry is not None:
                reused = self._reuse_entry(
                    node.key, entry, node.rect_idx, node.pts, node.machine
                )
                if reused is not None:
                    node.kind = "resolved"
                    node.result = reused
                    resolved.append(node)
                    return
            self.stats.subtree_misses += 1
            node.snap = node.machine.snapshot()
        if len(node.rect_idx) <= self.leaf_size:
            node.kind = "leaf"
            tasks.append(node)
        else:
            heapq.heappush(heap, (-len(node.rect_idx), next(seq), node))

    def _expand(self, node: _Node) -> Optional[tuple]:
        """The divide half of ``_solve_node`` (separator, candidates,
        interfaces), charged on the node's own machine exactly as the
        single-core recursion would; ``None`` on a separator fallback."""
        m = node.machine
        sub_rects = [self.rects[i] for i in node.rect_idx]
        sep = staircase_separator(sub_rects, m, pivot=self.divide)
        if not sep.upper or not sep.lower:
            self.stats.separator_fallbacks += 1
            return None
        chain = sep.staircase
        if self.seams and not staircase_clear_of_seams(chain, self.seams):
            self.stats.separator_fallbacks += 1
            return None
        zs = self._crossing_candidates(chain, sub_rects, node.pts, m)
        if not zs:
            self.stats.separator_fallbacks += 1
            return None
        node.upper_idx = [node.rect_idx[i] for i in sep.upper]
        node.lower_idx = [node.rect_idx[i] for i in sep.lower]
        m.step(len(node.pts))
        node.side_of = {p: chain.side_of(p) for p in node.pts}
        up_iface = list(dict.fromkeys(
            [p for p in node.pts if node.side_of[p] >= 0] + zs))
        lo_iface = list(dict.fromkeys(
            [p for p in node.pts if node.side_of[p] <= 0] + zs))
        node.chain = chain
        node.chain_sig = (chain.pts, chain.increasing, chain.left_dir,
                          chain.right_dir)
        node.zs = zs
        node.sub_rects = sub_rects
        return up_iface, lo_iface

    def _plan(self, root: _Node) -> Tuple[List[_Node], List[_Node]]:
        target = max(2, self._jobs * TASKS_PER_WORKER)
        tasks: List[_Node] = []
        resolved: List[_Node] = []
        heap: list = []
        seq = itertools.count()
        self._admit(root, tasks, heap, resolved, seq)
        # an incremental build expands to the leaves: a subtree task's
        # worker has no subtree cache, so the nodes below its root would
        # go unprobed, uncounted and undeposited
        while heap and (
            self._sub_cache is not None or len(tasks) + len(heap) < target
        ):
            _, _, node = heapq.heappop(heap)
            split = self._expand(node)
            if split is None:
                # separator fallback: the worker brute-forces the leaf;
                # the divide charges already sit on node.machine
                node.kind = "leaf"
                tasks.append(node)
                continue
            up_iface, lo_iface = split
            node.kind = "internal"
            node.pending = 2
            kid_u = _Node(node.upper_idx, up_iface, node.depth + 1, node,
                          self._node_machine(f"d{node.depth + 1}u"))
            kid_l = _Node(node.lower_idx, lo_iface, node.depth + 1, node,
                          self._node_machine(f"d{node.depth + 1}l"))
            node.children = [kid_u, kid_l]
            self._admit(kid_u, tasks, heap, resolved, seq)
            self._admit(kid_l, tasks, heap, resolved, seq)
        while heap:  # the rest run as whole subtrees in workers
            _, _, node = heapq.heappop(heap)
            node.kind = "subtree"
            tasks.append(node)
        return tasks, resolved

    # ------------------------------------------------------------------
    def _dispatch(self, tasks: List[_Node]) -> None:
        # largest simulated work first: the schedule key that keeps the
        # pool busy while small leaves fill the gaps
        tasks.sort(
            key=lambda n: len(n.pts) * len(n.pts) * max(1, len(n.rect_idx)),
            reverse=True,
        )
        ctx = {
            "rects": self.rects,
            "seams": self.seams,
            "leaf_size": self.leaf_size,
            "monge_dispatch": self.monge_dispatch,
            "divide": self.divide,
        }
        for node in tasks:
            m = len(node.pts)
            tags = {
                p: self._chain_tags[p]
                for p in node.interface
                if p in self._chain_tags
            }
            payload = {
                "ctx": ctx,
                "kind": node.kind,
                "rect_idx": node.rect_idx,
                "interface": node.interface,
                "depth": node.depth,
                "tags": tags,
                "next_chain_id": self._next_chain_id,
            }
            node.task_id = self._pool.submit(
                "repro.core.mpengine:_task_solve",
                payload,
                arrays_spec={"matrix": ((m, m), "<f8")},
                kind=node.kind,
            )
            self._pending[node.task_id] = node
            self.pool_stats["tasks"] += 1
            self.pool_stats[f"{node.kind}_tasks"] += 1

    def _finish_task(self, node: _Node, wall: float, body: dict,
                     arrays: Optional[dict]) -> None:
        if int(body["n"]) != len(node.pts):
            raise EngineError(
                f"pool worker tracked {body['n']} points for a subtree the "
                f"parent tracked {len(node.pts)} — divergent plan descent"
            )
        mat = arrays["matrix"]
        t, w, width = body["pram"]
        node.machine.charge(time=t, work=w, width=width)
        self._merge_stats(body["stats"], node.depth)
        # adopt the worker's new chains under fresh local ids; setdefault
        # keeps any ancestor-minted tag, exactly as the DFS would have
        for members in body.get("tags") or ():
            cid = self._fresh_chain_id()
            for p, k in members:
                self._chain_tags.setdefault(p, (cid, k))
        node.aux = body.get("aux")
        node.result = (node.pts, mat)
        self.pool_stats["worker_wall_s"] += float(wall)
        self._emit_span(node, wall)
        self._deposit(node)

    def _merge_stats(self, stats: dict, base_depth: int) -> None:
        for name in _STAT_SUMS:
            setattr(self.stats, name,
                    getattr(self.stats, name) + int(stats.get(name, 0)))
        for name in _STAT_MAXES:
            setattr(self.stats, name,
                    max(getattr(self.stats, name), int(stats.get(name, 0))))
        lvl = self.stats.per_level_points
        for depth, pts in (stats.get("per_level_points") or {}).items():
            d = int(depth)
            lvl[d] = lvl.get(d, 0) + int(pts)

    def _deposit(self, node: _Node) -> None:
        if self._sub_cache is None or node.key is None:
            return
        dt, dw = node.machine.since(node.snap)
        self._store_entry(node.key, node.result, node.aux,
                          (dt, dw, node.machine.max_ops))

    def _emit_span(self, node: _Node, wall: float) -> None:
        try:
            from repro.pipeline import BUILD_SPANS, current_build_trace
            from repro.obs.tracing import finish, span
        except ImportError:  # pragma: no cover - pipeline not loaded
            return
        now = _time.time()
        sp = span(
            "build.solve.subtree",
            current_build_trace(),
            t0=now - max(0.0, float(wall)),
            kind=node.kind,
            n_rects=len(node.rect_idx),
            n_points=len(node.pts),
            depth=node.depth,
        )
        BUILD_SPANS.add(finish(sp, t1=now))

    # ------------------------------------------------------------------
    def _bubble(self, node: _Node) -> None:
        while node.parent is not None:
            parent = node.parent
            parent.pending -= 1
            if parent.pending > 0:
                return
            self._conquer_node(parent)
            node = parent

    def _conquer_node(self, node: _Node) -> None:
        upper = node.children[0].result
        lower = node.children[1].result
        m = node.machine
        cu = node.children[0].machine
        cl = node.children[1].machine
        # the pram.parallel() merge of the two child branches
        m.charge(time=max(cu.time, cl.time), work=cu.work + cl.work,
                 width=max(cu.max_ops, cl.max_ops))
        delta = self._try_delta_conquer(
            node.pts, node.side_of, node.chain, node.chain_sig, node.zs,
            node.sub_rects, node.rect_idx, node.upper_idx, node.lower_idx,
            upper, lower, m,
        )
        if delta is not None:
            node.result = delta
        else:
            node.result = self._conquer(
                node.pts, node.side_of, node.chain, node.zs, node.sub_rects,
                upper, lower, m,
            )
        node.aux = (node.chain_sig, tuple(node.zs))
        self._deposit(node)

    # ------------------------------------------------------------------
    def _offload_block(self, DU, block, certify):
        """Ship a conquer column block big enough to pay for the hop to the
        pool; the worker runs the same :func:`block_minplus`."""
        if (
            self._pool is None
            or getattr(self._pool, "closed", True)
            or DU.shape[0] * block.shape[1] * max(1, DU.shape[1])
            < MIN_REMOTE_CONQUER_OPS
        ):
            return None
        tid = self._pool.submit(
            "repro.core.mpengine:_task_minplus",
            {"a": DU, "b": block, "certify": certify},
            arrays_spec={"matrix": ((DU.shape[0], block.shape[1]), "<f8")},
            kind="conquer",
        )
        self.pool_stats["tasks"] += 1
        self.pool_stats["conquer_tasks"] += 1

        def wait():
            wall, body, arrays = self._collect(tid)
            self.pool_stats["worker_wall_s"] += float(wall)
            return arrays["matrix"], body["fast"], tuple(body["pram"])

        return wait

    def _collect(self, tid: int) -> tuple:
        """Wait for task ``tid``'s ``(wall, body, arrays)``, buffering any
        other build results that arrive meanwhile (the main loop, or a
        later ``_collect``, picks them up)."""
        if tid in self._arrived:
            return self._arrived.pop(tid)
        while True:
            got, wall, body, arrays = self._pool.next_result()
            if got == tid:
                return wall, body, arrays
            self._arrived[got] = (wall, body, arrays)


# ----------------------------------------------------------------------
# worker-side task handlers (resolved by name; see repro.core.pool)

def _worker_engine(ctx: dict, tags: dict, next_chain_id: int) -> ParallelEngine:
    eng = ParallelEngine(
        ctx["rects"],
        extra_points=(),
        leaf_size=ctx["leaf_size"],
        validate=False,
        monge_dispatch=ctx["monge_dispatch"],
        seams=ctx["seams"],
        divide=ctx["divide"],
    )
    eng._chain_tags.update(tags)
    # fresh worker-side chain ids must never collide with the parent's
    eng._next_chain_id = max(
        int(next_chain_id), max((t[0] for t in tags.values()), default=0)
    )
    return eng


def _task_solve(payload: dict):
    """Leaf or whole-subtree solve; returns the matrix plus the PRAM and
    stats bookkeeping the parent merges (the parent already did the
    ``_solve`` preamble for this dispatch-root node)."""
    ctx = payload["ctx"]
    eng = _worker_engine(ctx, payload["tags"], payload["next_chain_id"])
    pre = frozenset(eng._chain_tags)
    w = PRAM("pool-task")
    pts = eng._tracked_points(payload["rect_idx"], payload["interface"])
    if payload["kind"] == "leaf":
        pts, mat = eng._leaf(payload["rect_idx"], pts, w)
        aux = None
    else:
        (pts, mat), aux = eng._solve_node(
            payload["rect_idx"], pts, w, payload["depth"]
        )
    stats = {name: getattr(eng.stats, name) for name in _STAT_SUMS}
    stats.update({name: getattr(eng.stats, name) for name in _STAT_MAXES})
    stats["per_level_points"] = dict(eng.stats.per_level_points)
    # chain tags minted while solving this subtree: the parent needs them
    # for the Monge grouping of *its* conquers above this dispatch root
    # (see ParallelMPEngine._finish_task, which re-ids each chain — the
    # values of chain ids affect nothing, only the point partition does)
    chains: Dict[int, list] = {}
    for p, (cid, k) in eng._chain_tags.items():
        if p not in pre:
            chains.setdefault(cid, []).append((p, k))
    tags_out = [
        sorted(chains[cid], key=lambda pk: pk[1]) for cid in sorted(chains)
    ]
    result = {
        "n": len(pts),
        "pram": (w.time, w.work, w.max_ops),
        "aux": aux,
        "stats": stats,
        "tags": tags_out,
    }
    return result, {"matrix": np.ascontiguousarray(mat, dtype=np.float64)}


def _task_minplus(payload: dict):
    """One chain-grouped conquer column block (:func:`block_minplus`)."""
    m = PRAM("pool-minplus")
    out, fast = block_minplus(payload["a"], payload["b"], payload["certify"], m)
    result = {"pram": (m.time, m.work, m.max_ops), "fast": fast}
    return result, {"matrix": np.ascontiguousarray(out, dtype=np.float64)}
