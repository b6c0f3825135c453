"""Seeded input generators.  The program under test receives only what
these produce; the same ``--seed`` always yields the same inputs."""

from __future__ import annotations

import random
from typing import Iterator

from repro.cluster.loadgen import build_requests, parse_mix
from repro.geometry.primitives import Rect
from repro.scene import Scene, SceneDelta
from repro.workloads.generators import random_disjoint_rects
from repro.workloads.requests import scene_endpoints

#: the served scene families
SERVE_MODES = ("uniform", "clustered", "grid", "aspect")


def _sub_seed(*parts) -> int:
    """A stable integer seed for one named input stream."""
    return random.Random("|".join(str(p) for p in ("perfbench",) + parts)).randrange(1 << 30)


def build_scenes(seed: int, n: int) -> Iterator[Scene]:
    """An endless sequence of distinct ``uniform`` scenes of ``n`` rects."""
    seen: set[str] = set()
    k = 0
    while True:
        k += 1
        scene = Scene.from_obstacles(
            random_disjoint_rects(n, seed=_sub_seed("build", seed, k), mode="uniform")
        )
        h = scene.content_hash()
        if h not in seen:
            seen.add(h)
            yield scene


def warmup_scene(seed: int, n: int, k: int) -> Scene:
    """A scene outside the timed sequence, for set-up builds."""
    return Scene.from_obstacles(
        random_disjoint_rects(n, seed=_sub_seed("warmup", seed, k), mode="uniform")
    )


def serve_scenes(seed: int, n: int, per_family: int) -> dict[str, Scene]:
    """``per_family`` scenes of each :data:`SERVE_MODES` family, keyed
    ``<family><k>``."""
    return {
        f"{mode}{k}": Scene.from_obstacles(
            random_disjoint_rects(n, seed=_sub_seed("serve", seed, mode, k), mode=mode)
        )
        for mode in SERVE_MODES
        for k in range(per_family)
    }


def endpoint_pools(indexes: dict, seed: int) -> dict:
    """Per scene: every indexed vertex plus 48 obstacle-free points, in the
    wire form ``loadgen.build_requests`` takes."""
    pools = {}
    for name, idx in sorted(indexes.items()):
        verts, free = scene_endpoints(idx, k_free=48, seed=_sub_seed("free", seed, name))
        pools[name] = {
            "vertices": [[int(x), int(y)] for x, y in verts],
            "free": [[int(x), int(y)] for x, y in free],
        }
    return pools


def request_stream(pools: dict, seed: int, mix: str, count: int) -> list[dict]:
    """``count`` wire requests drawn by ``loadgen.build_requests``."""
    return build_requests(
        pools, count, seed=_sub_seed("requests", seed, mix), verb_mix=parse_mix(mix),
        pairs_per_request=16,
    )


class EditWalk:
    """A seeded walk of single-obstacle edits that never revisits a scene,
    from base scene number ``segment`` of the run.

    Edits alternate between deleting a present obstacle and inserting a
    fresh one that is disjoint from every present obstacle and whose four
    edge coordinates have never been used in this walk — so every insert
    reaches a new scene, and a delete that would recreate an earlier
    obstacle set is redrawn.
    """

    def __init__(self, seed: int, n: int, segment: int) -> None:
        self.base = random_disjoint_rects(
            n, seed=_sub_seed("edit", seed, segment), mode="uniform")
        self.rng = random.Random(_sub_seed("edit-walk", seed, segment))
        self.world = max(64, 32 * n)
        self.side = max(2, self.world // max(2, int(n**0.5) * 3))
        self.present = list(self.base)
        self.used_x = {c for r in self.base for c in (r.xlo, r.xhi)}
        self.used_y = {c for r in self.base for c in (r.ylo, r.yhi)}
        self.seen = {self._state()}
        self.steps = 0

    def _state(self) -> frozenset:
        return frozenset(self.present)

    def scene(self) -> Scene:
        return Scene.from_obstacles(self.base)

    def _fresh_rect(self) -> Rect:
        rng = self.rng
        while True:
            w, h = rng.randint(1, self.side), rng.randint(1, self.side)
            x, y = rng.randrange(0, self.world - w), rng.randrange(0, self.world - h)
            if x in self.used_x or x + w in self.used_x:
                continue
            if y in self.used_y or y + h in self.used_y:
                continue
            r = Rect(x, y, x + w, y + h)
            if any(r.interiors_intersect(o) for o in self.present):
                continue
            self.used_x.update((x, x + w))
            self.used_y.update((y, y + h))
            return r

    def next_delta(self) -> tuple[str, SceneDelta]:
        """The next edit as ``(kind, delta)``, already applied to the walk."""
        self.steps += 1
        if self.steps % 2:
            order = list(self.present)
            self.rng.shuffle(order)
            for r in order:
                self.present.remove(r)
                if self._state() not in self.seen:
                    break
                self.present.append(r)
            else:  # pragma: no cover - needs a walk longer than any run
                raise RuntimeError("edit walk has no unseen delete left")
            kind, delta = "delete", SceneDelta.delete(r)
        else:
            r = self._fresh_rect()
            self.present.append(r)
            kind, delta = "insert", SceneDelta.insert(r)
        self.seen.add(self._state())
        return kind, delta
