"""Every metric the benchmark prints, with its unit and better direction.

This table is the single definition the runner checks its output against
(a run that misses or invents a metric fails loudly) and that
``BENCHMARK.json`` mirrors.  Per-layer entries also say where the number
comes from and which end-to-end metric, on which workload, it should
move — the prediction a performance change is judged by.
"""

from __future__ import annotations

#: how long one run measures, in seconds (the ``--seconds`` default)
RUN_SECONDS = 16

#: workload name -> one line: the timed op, its inputs, and why it exists
WORKLOADS = {
    "build": "op: one cold build_index, engine parallel-mp, default jobs, fresh "
             "StageCache; inputs: distinct uniform n=56 scenes from --seed; solve is "
             "~99.9% of build wall across every solve sub-layer",
    "serve": "op: one wire request, 1-worker cluster, 2 closed-loop conns, "
             "length:57,lengths:25,arbitrary:17,path:1; 8 n=96 scenes from --seed; "
             "wire, §6.4 and gathers, no solve work",
    "links": "op: one minlink or pareto request (1:1), same cluster, scenes and "
             "--seed rule as serve; the per-source link DP (~10x a length lookup) is "
             "the only user of repro.links",
    "edit": "op: one update_index edit, alternating delete / fresh disjoint insert, "
            "engine parallel, default StageCache; n=56 walk from --seed; "
            "cached-subtree writes beside build's cold reads",
}

#: (name, unit, better, bound) — every workload prints all of these.
#: Timing bounds sit at the 0.25 ceiling: on a shared 2-core host the same
#: seed moved serve throughput by 18% between back-to-back runs, and ten
#: seeds gave quartile spreads of up to 0.144 (edit p90).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ok_rate", "ratio", "higher", 0.01),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("p50_ms", "ms", "lower", 0.25),
    ("p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
)

#: (name, unit, better, source, moves) — printed by every ``--trace 1``
#: run; a layer the workload never reaches reads 0
PER_LAYER = (
    # core/monge solve, inline-engine replay of the timed scenes
    ("solve.separator_ms", "ms", "lower", "staircase_separator self time per op",
     "p50_ms/ops_per_s on build, p50_ms on edit"),
    ("solve.leaf_ms", "ms", "lower", "corner_graph_matrix self time per op",
     "p50_ms/ops_per_s on build, p50_ms on edit"),
    ("solve.leaf_calls", "count", "lower", "corner_graph_matrix calls per op",
     "p50_ms on build and edit"),
    ("solve.monge_ms", "ms", "lower", "minplus_monge (SMAWK) self time per op",
     "p50_ms/ops_per_s on build, p50_ms on edit"),
    ("solve.monge_calls", "count", "lower", "minplus_monge calls per op",
     "p50_ms on build and edit"),
    ("solve.naive_ms", "ms", "lower", "minplus_naive self time per op",
     "p50_ms/ops_per_s on build, p50_ms on edit"),
    ("solve.naive_calls", "count", "lower", "minplus_naive calls per op",
     "p50_ms on build and edit"),
    ("solve.naive_ops", "count", "lower",
     "minplus_naive rows*inner*cols per op, from operand shapes",
     "p50_ms on build and edit"),
    ("solve.rayshoot_ms", "ms", "lower", "RayShooter.shoot self time per op",
     "p50_ms/ops_per_s on build, p50_ms on edit"),
    ("solve.rayshoot_calls", "count", "lower", "RayShooter.shoot calls per op",
     "p50_ms on build and edit"),
    ("solve.self_ms", "ms", "lower",
     "solve-stage wall minus the five wrapped sub-layers, per op",
     "p50_ms on build and edit"),
    # pipeline
    ("pipeline.decompose_ms", "ms", "lower", "provenance stages[decompose].wall_s",
     "p50_ms on build and edit"),
    ("pipeline.graph_ms", "ms", "lower", "provenance stages[graph].wall_s",
     "p50_ms on build and edit"),
    ("pipeline.solve_ms", "ms", "lower", "provenance stages[solve].wall_s",
     "p50_ms on build and edit"),
    ("pipeline.query_structures_ms", "ms", "lower",
     "provenance stages[query-structures].wall_s", "p50_ms on build and edit"),
    ("pipeline.cache_hit_rate", "ratio", "higher", "StageCache.stats() hits/(hits+misses)",
     "p50_ms on edit"),
    ("pipeline.cache_entries", "count", "lower", "StageCache.stats() entries at run end",
     "peak_rss_mb on edit"),
    ("pipeline.cache_mb", "MB", "lower", "StageCache.stats() bytes at run end",
     "peak_rss_mb on edit"),
    ("repair.reused_fraction", "ratio", "higher", "provenance repair.reused_fraction",
     "p50_ms on edit"),
    ("repair.recomputed_entries", "count", "lower", "provenance repair.recomputed_entries",
     "p50_ms on edit"),
    ("repair.delta_conquers", "count", "higher", "provenance subtree.delta_conquers",
     "p50_ms on edit"),
    # core/pool
    ("pool.tasks", "count", "lower", "provenance pool.tasks per build", "p50_ms on build"),
    ("pool.worker_busy_ms", "ms", "lower", "provenance pool.worker_wall_s per build",
     "p50_ms on build"),
    ("pool.parallel_fraction", "ratio", "higher", "worker busy time over solve wall",
     "p50_ms on build"),
    ("pool.shm_bytes", "bytes", "lower",
     "repro.build.pool.result_bytes{transport=shm} per build", "p50_ms on build"),
    ("pool.pipe_bytes", "bytes", "lower",
     "repro.build.pool.result_bytes{transport=pipe} per build", "p50_ms on build"),
    # cluster
    ("wire.queue_wait_ms", "ms", "lower", "front-end queue_wait span, mean per request",
     "p50_ms/p90_ms/ops_per_s on serve"),
    ("wire.worker_rpc_ms", "ms", "lower", "front-end worker_rpc span, mean per request",
     "p50_ms/p90_ms/ops_per_s on serve"),
    ("wire.worker_service_ms", "ms", "lower", "worker.service span, mean per request",
     "p50_ms/p90_ms/ops_per_s on serve"),
    ("wire.frontend_ms", "ms", "lower",
     "request span minus queue_wait and worker_rpc, mean per request",
     "p50_ms/p90_ms/ops_per_s on serve"),
    ("wire.codec_us_per_frame", "us", "lower",
     "encode_frame plus decode_body on the recorded frames", "ops_per_s on serve"),
    ("wire.unspanned_ms", "ms", "lower",
     "client wall minus request span and frame codec: socket and event-loop "
     "hops no span covers yet", "p50_ms on serve"),
    ("wire.batch_size_mean", "count", "higher", "ClusterFrontend.batch_hist mean",
     "ops_per_s on serve"),
    # serve, core/query, pathreport: in-process replay through QueryServer.submit
    ("serve.inproc_us_per_req", "us", "lower", "QueryServer.submit per wire request",
     "ops_per_s/p90_ms on serve"),
    ("serve.wire_gap_x", "ratio", "lower", "wire p50 over in-process per-request time",
     "ops_per_s/p90_ms on serve"),
    ("query.arbitrary_us_per_pair", "us", "lower", "QueryStructure.lengths self time per pair",
     "p90_ms on serve"),
    ("query.gather_us_per_pair", "us", "lower", "DistanceIndex.lengths time per pair",
     "p50_ms on serve"),
    ("path.report_ms", "ms", "lower", "PathReporter.path time per call", "p90_ms on serve"),
    ("verb.length_p50_ms", "ms", "lower", "wire latency of vertex-pair length requests",
     "p50_ms on serve"),
    ("verb.arbitrary_p50_ms", "ms", "lower", "wire latency of off-vertex length requests",
     "p90_ms on serve"),
    ("verb.lengths_p50_ms", "ms", "lower", "wire latency of 16-pair lengths requests",
     "p90_ms on serve"),
    ("verb.path_p50_ms", "ms", "lower", "wire latency of path requests", "p90_ms on serve"),
    ("serve.p99_ms", "ms", "lower", "wire latency p99 of the timed requests",
     "p90_ms on serve"),
    # links
    ("links.solve_ms", "ms", "lower", "LinkSolver.solve time per call (in-process replay)",
     "p50_ms/ops_per_s on links"),
    ("links.solves_per_req", "count", "lower", "LinkSolver.solve calls per request",
     "p50_ms/ops_per_s on links"),
    ("verb.minlink_p50_ms", "ms", "lower", "wire latency of minlink requests",
     "p50_ms on links"),
    ("verb.pareto_p50_ms", "ms", "lower", "wire latency of pareto requests",
     "p50_ms on links"),
    # host and tracing
    ("host.calib_ms", "ms", "lower",
     "fixed numpy + pure-Python reference loop, not repo code, mean of run start and end",
     "none: separates host drift from program change"),
    ("host.steal_pct", "%", "lower",
     "CPU time the hypervisor gave to other guests during the run, /proc/stat steal",
     "none: a run with high steal reads slow for reasons outside the program"),
    ("trace.overhead_pct", "%", "lower", "traced against untraced p50_ms in the same run",
     "none: cost of the wrappers and trace flags"),
    ("trace.layer_sum_pct", "%", "higher",
     "median over traced ops of recorded layer times over op wall time",
     "none: must stay within 90-110"),
)

END_TO_END_NAMES = tuple(m[0] for m in END_TO_END)
PER_LAYER_NAMES = tuple(m[0] for m in PER_LAYER)
UNITS = {m[0]: m[1] for m in END_TO_END + PER_LAYER}
BOUNDS = {m[0]: m[3] for m in END_TO_END}


def spec() -> dict:
    """The ``BENCHMARK.json`` document this catalog defines."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, *_ in PER_LAYER],
    }
