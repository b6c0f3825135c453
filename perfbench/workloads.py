"""The four workloads.  Each times exactly one op kind in a closed loop
and returns a :class:`Outcome`; ``run.py`` turns it into the result line.

A run with ``trace=True`` splits its timed phase in two halves: the first
runs as an untraced run would, the second with tracing on (layer
wrappers, front-end trace flags, provenance collection).  The per-layer
metrics come from the second half and from in-process replays after it;
``trace.overhead_pct`` compares the two halves' ``p50_ms``.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import math
import random
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from perfbench import checks, host, inputs
from perfbench.layers import QUERY_LAYERS, SOLVE_LAYERS, LayerClock

#: rectangles per scene
BUILD_N = 56
EDIT_N = 56
SERVE_N = 96

#: served scenes per family: a link solve's cost varies ~2x between
#: scenes of one family, so a run averages over two of each
SCENES_PER_FAMILY = 2

#: repeated set-ups per run; ``setup_s`` counts their median once
SETUP_REPS = 3

#: edits per base scene: an edit run walks several bases in turn, so its
#: figures do not hang on one scene's shape
EDIT_SEGMENT = 8

SERVE_MIX = "length:57,lengths:25,arbitrary:17,path:1"
LINKS_MIX = "minlink:1,pareto:1"
CONNS = 2

#: in-process replays of the build solve split (traced build runs only)
REPLAY_BUILDS = 24

#: a run's timed ops never number fewer than this, so at least ten lie
#: beyond p90: on a host losing CPU to other guests a build or edit run
#: measures past ``--seconds`` until it has them
MIN_OPS = 100


@dataclass
class Outcome:
    """What one run measured."""

    latencies: list = field(default_factory=list)  # seconds per timed op
    n_untraced: int = 0  # leading latencies timed with tracing off
    phase_s: float = 0.0  # wall of the timed phase(s)
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    tally: checks.Tally = field(default_factory=checks.Tally)
    guard_failures: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)  # per-layer metrics (trace)


def percentile(values, q: float) -> float:
    """The q-th percentile (0-100), linear interpolation."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _mean(values) -> float:
    values = list(values)
    return float(statistics.fmean(values)) if values else 0.0


def _setup_s(reps: list) -> float:
    """Process start to now, with the repeated set-ups counted once at
    their median."""
    return host.process_age_s() - sum(reps) + statistics.median(reps)


def _phases(seconds: float, trace: bool) -> list[tuple[bool, float]]:
    """``(traced, duration)`` for each timed phase."""
    return [(False, seconds / 2), (True, seconds / 2)] if trace else [(False, seconds)]


def _run_phases(out: Outcome, seconds: float, trace: bool, clock: LayerClock,
                op, between=None) -> None:
    """Call ``op(traced) -> op seconds`` until each phase's time is spent
    (and the run has :data:`MIN_OPS` ops), with ``clock`` patched in for
    the traced phase.  ``between()`` runs untimed before each op (set-up
    that is not part of one)."""
    phases = _phases(seconds, trace)
    for k, (is_traced, dur) in enumerate(phases):
        last = k == len(phases) - 1
        with clock if is_traced else contextlib.nullcontext():
            spent = 0.0
            while spent < dur or (last and len(out.latencies) < MIN_OPS):
                if between is not None:
                    clock.active = False
                    between()
                    clock.active = True
                t0 = time.perf_counter()
                out.latencies.append(op(is_traced))
                spent += time.perf_counter() - t0
            out.phase_s += spent
        if trace and not is_traced:
            out.n_untraced = len(out.latencies)


def _stage_ms(prov: dict) -> dict:
    return {st["name"]: st["wall_s"] * 1e3 for st in prov["stages"]}


def _solve_layers(traced: list, clock: LayerClock, solve_ms: float, ops: int) -> dict:
    """Layer metrics shared by build and edit: pipeline stages and the
    stage cache over the traced ops, and the ``solve.*`` split per op
    from a clock that covered ``ops`` solves totalling ``solve_ms``."""
    stages = [_stage_ms(t["prov"]) for t in traced]
    out = {
        f"pipeline.{key.replace('-', '_')}_ms": _mean(s[key] for s in stages)
        for key in ("decompose", "graph", "solve", "query-structures")
    }
    hits, misses = sum(t["hits"] for t in traced), sum(t["misses"] for t in traced)
    out["pipeline.cache_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    out["pipeline.cache_entries"] = float(traced[-1]["cache"]["entries"])
    out["pipeline.cache_mb"] = traced[-1]["cache"]["bytes"] / 2**20
    # stages timed inside the pipeline against the op's own wall clock
    out["trace.layer_sum_pct"] = percentile(
        [100.0 * sum(s.values()) / (t["wall"] * 1e3) for s, t in zip(stages, traced)], 50)
    sec, calls, work = clock.snapshot()
    for name in ("separator", "leaf", "monge", "naive", "rayshoot"):
        out[f"solve.{name}_ms"] = sec.get(name, 0.0) * 1e3 / ops
    for name in ("leaf", "monge", "naive", "rayshoot"):
        out[f"solve.{name}_calls"] = calls.get(name, 0) / ops
    out["solve.naive_ops"] = work.get("naive", 0) / ops
    out["solve.self_ms"] = (solve_ms - clock.total_seconds() * 1e3) / ops
    return out


def _cache_counts(cache) -> tuple[int, int, dict]:
    st = cache.stats()
    return sum(st["hits"].values()), sum(st["misses"].values()), st


def _verify_samples(samples: list, out: Outcome) -> None:
    for s in samples:
        ok, why = checks.check_sample(s)
        out.tally.record(ok, why)


# ----------------------------------------------------------------------
# build
# ----------------------------------------------------------------------
def run_build(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.core.pool import shutdown_pool
    from repro.obs.registry import default_registry
    from repro.pipeline import StageCache, build_index

    out = Outcome()
    rng = random.Random(f"sample|build|{seed}")
    reps = []
    for k in range(SETUP_REPS):
        shutdown_pool()  # every rep pays pool spawn + one cold build
        scene = inputs.warmup_scene(seed, BUILD_N, k)
        t0 = time.perf_counter()
        build_index(scene, engine="parallel-mp", cache=StageCache())
        reps.append(time.perf_counter() - t0)
    out.setup_s = _setup_s(reps)

    scenes = inputs.build_scenes(seed, BUILD_N)
    result_bytes = default_registry().counter("repro.build.pool.result_bytes",
                                              labels=["transport"])
    samples, traced = [], []

    def op(is_traced: bool) -> float:
        scene = next(scenes)
        bytes0 = [result_bytes.value(transport=t) for t in ("shm", "pipe")]
        t0 = time.perf_counter()
        idx = build_index(scene, engine="parallel-mp", cache=StageCache())
        dt = time.perf_counter() - t0
        if is_traced:
            shm, pipe = (result_bytes.value(transport=t) - b
                         for t, b in zip(("shm", "pipe"), bytes0))
            hits, misses, stats = _cache_counts(idx.build_cache)
            traced.append({"wall": dt, "prov": idx.provenance, "scene": scene, "shm": shm,
                           "pipe": pipe, "hits": hits, "misses": misses, "cache": stats})
        samples.append(checks.sample_answers(idx, rng))
        return dt

    try:
        _run_phases(out, seconds, trace, LayerClock(SOLVE_LAYERS), op)
        out.peak_rss_mb = host.peak_rss_mb()
    finally:
        shutdown_pool()
    _verify_samples(samples, out)
    if trace:
        out.layers = _build_layers(traced)
    return out


def _build_layers(traced: list) -> dict:
    from repro.pipeline import StageCache, build_index

    # pool workers do not report to this process's wrappers: the solve
    # split comes from the same scenes on the byte-identical inline engine
    replay = traced[:REPLAY_BUILDS]
    solve_ms = 0.0
    with LayerClock(SOLVE_LAYERS) as clock:
        for t in replay:
            idx = build_index(t["scene"], engine="parallel", cache=StageCache())
            solve_ms += _stage_ms(idx.provenance)["solve"]
    layers = _solve_layers(traced, clock, solve_ms, len(replay))
    pools = [t["prov"]["pool"] for t in traced]
    busy = [p["worker_wall_s"] * 1e3 for p in pools]
    layers.update({
        "pool.tasks": _mean(p["tasks"] for p in pools),
        "pool.worker_busy_ms": _mean(busy),
        "pool.parallel_fraction": sum(busy) / sum(_stage_ms(t["prov"])["solve"] for t in traced),
        "pool.shm_bytes": _mean(t["shm"] for t in traced),
        "pool.pipe_bytes": _mean(t["pipe"] for t in traced),
    })
    return layers


# ----------------------------------------------------------------------
# edit
# ----------------------------------------------------------------------
def run_edit(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.pipeline import build_index, default_cache, update_index

    out = Outcome()
    rng = random.Random(f"sample|edit|{seed}")
    state = {"walk": inputs.EditWalk(seed, EDIT_N, 0), "segment": 0}
    reps = []
    for _ in range(SETUP_REPS):
        default_cache().clear()  # every rep is a cold seed build
        t0 = time.perf_counter()
        state["idx"] = build_index(state["walk"].scene(), incremental=True)
        reps.append(time.perf_counter() - t0)
    out.setup_s = _setup_s(reps)

    seen = {state["idx"].provenance["scene_hash"]}
    samples, traced = [], []

    def next_base() -> None:
        """After EDIT_SEGMENT edits, the next base scene's seed build."""
        if state["walk"].steps < EDIT_SEGMENT:
            return
        state["segment"] += 1
        state["walk"] = inputs.EditWalk(seed, EDIT_N, state["segment"])
        state["idx"] = build_index(state["walk"].scene(), incremental=True)
        seen.add(state["idx"].provenance["scene_hash"])

    def op(is_traced: bool) -> float:
        kind, delta = state["walk"].next_delta()
        hits0, misses0, _ = _cache_counts(default_cache())
        t0 = time.perf_counter()
        new = update_index(state["idx"], delta)
        dt = time.perf_counter() - t0
        prov, where = new.provenance, f"{kind} #{len(out.latencies) + 1}"
        if prov["scene_hash"] in seen:
            out.guard_failures.append(f"{where} repeats scene {prov['scene_hash'][:12]}")
        if prov["repair"]["solve_cached"]:
            out.guard_failures.append(f"{where} was a whole-solve cache hit")
        seen.add(prov["scene_hash"])
        if is_traced:
            hits, misses, stats = _cache_counts(default_cache())
            traced.append({"wall": dt, "prov": prov, "hits": hits - hits0,
                           "misses": misses - misses0, "cache": stats})
        samples.append(checks.sample_answers(new, rng))
        state["idx"] = new
        return dt

    clock = LayerClock(SOLVE_LAYERS)
    _run_phases(out, seconds, trace, clock, op, between=next_base)
    out.peak_rss_mb = host.peak_rss_mb()
    _verify_samples(samples, out)
    if trace:
        provs = [t["prov"] for t in traced]
        solve_ms = sum(_stage_ms(p)["solve"] for p in provs)
        layers = _solve_layers(traced, clock, solve_ms, len(provs))
        repairs = [p["repair"] for p in provs]
        layers.update({
            "repair.reused_fraction": _mean(r["reused_fraction"] for r in repairs),
            "repair.recomputed_entries": _mean(r["recomputed_entries"] for r in repairs),
            "repair.delta_conquers": _mean(p["subtree"]["delta_conquers"] for p in provs),
        })
        out.layers = layers
    return out


# ----------------------------------------------------------------------
# serve and links: one ClusterFrontend, two closed-loop connections
# ----------------------------------------------------------------------
async def _closed_loop(port: int, stream, seconds: float, traced: bool) -> list:
    """``CONNS`` connections, one request in flight each, until
    ``seconds`` pass or the stream ends.  Returns ``(request, response,
    seconds)`` in completion order."""
    from repro.cluster.protocol import read_frame, write_frame

    records: list = []
    end = time.perf_counter() + seconds

    async def one_conn() -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            for k in itertools.count():
                if time.perf_counter() >= end:
                    break
                req = next(stream, None)
                if req is None:
                    break
                msg = dict(req, id=k, trace=True) if traced else dict(req, id=k)
                t0 = time.perf_counter()
                await write_frame(writer, msg)
                resp = await read_frame(reader)
                records.append((req, resp, time.perf_counter() - t0))
        finally:
            writer.close()
            await writer.wait_closed()

    await asyncio.gather(*(one_conn() for _ in range(CONNS)))
    return records


def _verb(req: dict, free: dict) -> str:
    """The mix verb a wire request was drawn as (``arbitrary`` is a
    ``length`` op with an off-vertex endpoint)."""
    op = req["op"]
    if op == "length" and (tuple(req["p"]) in free[req["scene"]]
                           or tuple(req["q"]) in free[req["scene"]]):
        return "arbitrary"
    return op


def _flat_requests(req: dict) -> list:
    """A wire request as the ``QueryServer`` requests a worker submits."""
    from repro.serve.server import Request

    if req["op"] == "lengths":
        return [Request(req["scene"], tuple(p), tuple(q)) for p, q in req["pairs"]]
    return [Request(req["scene"], tuple(req["p"]), tuple(req["q"]), op=req["op"])]


def run_serve(seed: int, seconds: float, trace: bool) -> Outcome:
    return _run_cluster(seed, seconds, trace, SERVE_MIX, rate_cap=800, warm=24)


def run_links(seed: int, seconds: float, trace: bool) -> Outcome:
    return _run_cluster(seed, seconds, trace, LINKS_MIX, rate_cap=100, warm=4)


def _run_cluster(seed: int, seconds: float, trace: bool, mix: str, *,
                 rate_cap: int, warm: int) -> Outcome:
    """``rate_cap`` sizes the pre-generated stream (requests per timed
    second; the stream wraps past it); ``warm`` is the warm-up request
    count per scene."""
    from repro.pipeline import build_index

    out = Outcome()
    scenes = inputs.serve_scenes(seed, SERVE_N, SCENES_PER_FAMILY)
    indexes = {name: build_index(scene) for name, scene in scenes.items()}
    pools = inputs.endpoint_pools(indexes, seed)
    free = {name: {tuple(p) for p in pool["free"]} for name, pool in pools.items()}
    stream = itertools.cycle(
        inputs.request_stream(pools, seed, mix, max(2000, int(rate_cap * seconds))))
    warmup = inputs.request_stream(pools, seed + 1_000_003, mix, warm * len(scenes))
    records, batch_mean = asyncio.run(
        _serve_phases(indexes, stream, warmup, seconds, trace, out))
    out.peak_rss_mb = host.peak_rss_mb()

    refs = {name: checks.Reference(idx) for name, idx in indexes.items()}
    # with tracing, the replay runs just before each traced answer's
    # check, so both share the warm per-source link solves
    clock = LayerClock(QUERY_LAYERS)
    with clock if trace else contextlib.nullcontext():
        replay = _Replay(indexes, clock, warmup) if trace else None
        for phase_traced, req, resp, _ in records:
            if replay is not None and phase_traced:
                replay.run(req)
            ok, why = checks.check_served(req, resp, refs[req["scene"]])
            out.tally.record(ok, why)
    if replay is not None:
        out.layers = _cluster_layers(records, free, replay, batch_mean)
    return out


async def _serve_phases(indexes, stream, warmup, seconds, trace, out):
    from repro.cluster.frontend import ClusterFrontend

    sources = {name: {"index": idx} for name, idx in indexes.items()}
    reps = []
    for k in range(SETUP_REPS):
        t0 = time.perf_counter()
        fe = ClusterFrontend(sources, workers=1)
        await fe.start()
        try:
            await _closed_loop(fe.port, iter(warmup), math.inf, False)
        except BaseException:
            await fe.stop()
            raise
        reps.append(time.perf_counter() - t0)
        if k < SETUP_REPS - 1:
            await fe.stop()
    out.setup_s = _setup_s(reps)
    try:
        records = []
        t_phase = time.perf_counter()
        for is_traced, dur in _phases(seconds, trace):
            recs = await _closed_loop(fe.port, stream, dur, is_traced)
            records.extend((is_traced, req, resp, dt) for req, resp, dt in recs)
            out.latencies.extend(dt for _, _, dt in recs)
            if trace and not is_traced:
                out.n_untraced = len(out.latencies)
        out.phase_s = time.perf_counter() - t_phase
        batch_mean = fe.batch_hist.mean()
    finally:
        await fe.stop()
    return records, batch_mean


class _Replay:
    """The timed request stream replayed in-process through
    ``QueryServer.submit``, one wire request per submit, as a worker
    would answer it."""

    def __init__(self, indexes: dict, clock: LayerClock, warmup: list) -> None:
        from repro.serve.server import QueryServer
        from repro.serve.store import SceneStore

        store = SceneStore()
        for name, idx in indexes.items():
            store.add_builder(name, lambda idx=idx: idx)
        self.server = QueryServer(store)
        # the clock stays patched in; it counts only inside timed submits
        self.clock = clock
        clock.active = False
        for req in warmup:
            self.server.submit(_flat_requests(req))
        self.per_req: list = []  # seconds per timed submit

    def run(self, req: dict) -> None:
        flat = _flat_requests(req)
        self.clock.active = True
        t0 = time.perf_counter()
        try:
            self.server.submit(flat)
        finally:
            self.per_req.append(time.perf_counter() - t0)
            self.clock.active = False


def _spans(resp: dict) -> dict:
    by_name: dict = {}
    for sp in (resp.get("trace") or {}).get("spans") or []:
        by_name[sp["name"]] = by_name.get(sp["name"], 0.0) + float(sp.get("dur") or 0.0)
    return by_name


def _cluster_layers(records: list, free: dict, replay: _Replay, batch_mean: float) -> dict:
    from repro.cluster.protocol import decode_body, encode_frame

    layers = {}
    untraced = [(req, dt) for is_traced, req, _, dt in records if not is_traced]
    traced = [(req, resp, dt) for is_traced, req, resp, dt in records if is_traced]
    spans = [_spans(resp) for _, resp, _ in traced]
    req_ms = [s.get("request", 0.0) * 1e3 for s in spans]
    queue_ms = [s.get("queue_wait", 0.0) * 1e3 for s in spans]
    rpc_ms = [s.get("worker_rpc", 0.0) * 1e3 for s in spans]
    layers["wire.queue_wait_ms"] = _mean(queue_ms)
    layers["wire.worker_rpc_ms"] = _mean(rpc_ms)
    layers["wire.worker_service_ms"] = _mean(s.get("worker.service", 0.0) * 1e3 for s in spans)
    layers["wire.frontend_ms"] = _mean(r - q - c for r, q, c in zip(req_ms, queue_ms, rpc_ms))
    layers["wire.batch_size_mean"] = batch_mean

    # the frames as they travelled: traced requests and their span trees
    frames = [(dict(req, id=0, trace=True), resp) for req, resp, _ in traced[:2000]]
    t0 = time.perf_counter()
    for msg, resp in frames:
        decode_body(encode_frame(msg)[4:])
        decode_body(encode_frame(resp)[4:])
    codec_ms = (time.perf_counter() - t0) * 1e3 / len(frames)
    layers["wire.codec_us_per_frame"] = codec_ms * 1e3 / 2
    # a traced request's recorded layers are the front-end's request span
    # and the two frames' codec; the rest of the client-measured wall
    # (socket and event-loop hops outside any span) is reported as such
    walls = [dt * 1e3 for _, _, dt in traced]
    layers["wire.unspanned_ms"] = _mean(w - r - codec_ms for w, r in zip(walls, req_ms))
    layers["trace.layer_sum_pct"] = percentile(
        [100.0 * (r + codec_ms) / w for r, w in zip(req_ms, walls)], 50)

    by_verb: dict = {}
    for req, dt in untraced:
        by_verb.setdefault(_verb(req, free), []).append(dt * 1e3)
    for verb in ("length", "arbitrary", "lengths", "path", "minlink", "pareto"):
        layers[f"verb.{verb}_p50_ms"] = percentile(by_verb[verb], 50) if verb in by_verb else 0.0
    wire_ms = [dt * 1e3 for _, dt in untraced]
    layers["serve.p99_ms"] = percentile(wire_ms, 99)

    sec, calls, work = replay.clock.snapshot()
    n = len(replay.per_req)
    layers["serve.inproc_us_per_req"] = sum(replay.per_req) * 1e6 / n
    layers["serve.wire_gap_x"] = percentile(wire_ms, 50) / (percentile(replay.per_req, 50) * 1e3)
    layers["query.arbitrary_us_per_pair"] = (
        sec.get("arbitrary", 0.0) * 1e6 / work["arbitrary"] if work.get("arbitrary") else 0.0)
    layers["query.gather_us_per_pair"] = (
        sec.get("gather", 0.0) * 1e6 / work["gather"] if work.get("gather") else 0.0)
    layers["path.report_ms"] = (
        sec.get("path", 0.0) * 1e3 / calls["path"] if calls.get("path") else 0.0)
    layers["links.solve_ms"] = (
        sec.get("links", 0.0) * 1e3 / calls["links"] if calls.get("links") else 0.0)
    layers["links.solves_per_req"] = calls.get("links", 0) / n
    return layers
