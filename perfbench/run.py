"""Run one benchmark workload, or measure how steady its figures are.

    python3 perfbench/run.py --workload build --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload serve --steady 5 --sets 2

Run from the repository root.  A run prints a host header line, a line
of host drift over the run (calibration loop, hypervisor steal), then as
its last line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1`` (see ``perfbench/catalog.py``).
The first failed check, if any, is printed on the line before it.

``--spec`` prints the ``BENCHMARK.json`` document the metric catalog
defines, so the two can be diffed.

``--steady K`` instead runs the workload K times in fresh processes with
seeds ``seed .. seed+K-1`` and prints each metric's median and quartile
spread against its bound; ``--sets 2`` repeats that on the next K seeds
and checks that the two medians agree within the bound.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _metrics_line(out, trace: bool, calib: list, calib_s: float, steal_pct: float) -> dict:
    from perfbench import catalog, workloads

    attempted = len(out.latencies)
    ok = max(0, out.tally.ok - len(out.guard_failures))
    ms = [dt * 1e3 for dt in out.latencies]
    if not trace:
        metrics = {
            "setup_s": out.setup_s - calib_s,
            "ok_rate": ok / attempted,
            "ops_per_s": attempted / out.phase_s,
            "p50_ms": workloads.percentile(ms, 50),
            "p90_ms": workloads.percentile(ms, 90),
            "peak_rss_mb": out.peak_rss_mb,
        }
        names = catalog.END_TO_END_NAMES
    else:
        metrics = {name: 0.0 for name in catalog.PER_LAYER_NAMES}
        metrics.update(out.layers)
        untraced = out.latencies[:out.n_untraced]
        traced = out.latencies[out.n_untraced:]
        metrics["trace.overhead_pct"] = 100.0 * (
            workloads.percentile(traced, 50) / workloads.percentile(untraced, 50) - 1.0)
        metrics["host.calib_ms"] = statistics.fmean(calib)
        metrics["host.steal_pct"] = steal_pct
        names = catalog.PER_LAYER_NAMES
    if set(metrics) != set(names):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(names))}")
    return {
        "correct": ok == attempted,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": {n: {"value": float(metrics[n]), "unit": catalog.UNITS[n]} for n in names},
    }


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from perfbench import host, workloads

    t0 = time.perf_counter()
    calib = [host.calib_ms()]
    calib_s = time.perf_counter() - t0
    steal0, total0 = host.cpu_ticks()
    print(json.dumps({"host": host.header(), "workload": workload, "seed": seed,
                      "seconds": seconds, "trace": int(trace)}), flush=True)
    out = getattr(workloads, f"run_{workload}")(seed, seconds, trace)
    steal1, total1 = host.cpu_ticks()
    steal_pct = 100.0 * (steal1 - steal0) / max(total1 - total0, 1)
    calib.append(host.calib_ms())
    # host drift across the run, for reading the figures
    print(json.dumps({"calib_ms": {"start": calib[0], "end": calib[1]},
                      "steal_pct": steal_pct}), flush=True)
    if out.guard_failures or out.tally.first_failure:
        first = out.guard_failures[0] if out.guard_failures else out.tally.first_failure
        print(f"first failure: {first}", flush=True)
    if not out.latencies:
        raise RuntimeError("no op completed in the timed phase")
    print(json.dumps(_metrics_line(out, trace, calib, calib_s, steal_pct)), flush=True)
    return 0


def steady(args) -> int:
    """Run ``--steady`` K fresh processes per set and report spreads."""
    from perfbench import catalog

    bounds = dict(catalog.BOUNDS)
    better = {m[0]: m[2] for m in catalog.END_TO_END}
    sets = []
    for s in range(args.sets):
        values: dict = {}
        for k in range(args.steady):
            seed = args.seed + s * args.steady + k
            cmd = [sys.executable, str(pathlib.Path(__file__).resolve()), "--workload",
                   args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            res = json.loads(lines[-1])
            drift = next(json.loads(ln) for ln in lines if ln.startswith('{"calib_ms"'))
            print(f"set {s + 1} seed {seed}: steal={drift['steal_pct']:.1f}% "
                  f"correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  + " ".join(f"{n}={m['value']:.4g}" for n, m in res["metrics"].items()),
                  flush=True)
            if not res["correct"]:
                print(lines[-2], file=sys.stderr)  # the first failure
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        sets.append(values)
        print(f"\nset {s + 1}: {args.workload}, {args.steady} runs")
        print(f"{'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if spread < bound / 3 else ("within" if spread <= bound else "NOISY")
            print(f"{name:<28} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.3f} "
                  f"{'' if bound is None else bound:>6} {flag}")
    status = 0
    if len(sets) == 2:
        print("\nsecond set against first (worse-by share of the first median)")
        for name in sets[0]:
            a, b = statistics.median(sets[0][name]), statistics.median(sets[1][name])
            worse = ((b - a) if better.get(name, "lower") == "lower" else (a - b)) / a if a else 0.0
            bound = bounds.get(name)
            verdict = "" if bound is None else ("agree" if worse <= bound else "DISAGREE")
            status |= verdict == "DISAGREE"
            print(f"{name:<28} {a:>12.5g} {b:>12.5g} {worse:>8.3f} {verdict}")
    return status


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT))
    from perfbench import catalog, host

    host.pin_threads()

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=tuple(catalog.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, default=0, metavar="K",
                    help="run K fresh processes and report quartile spreads")
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1,
                    help="with --steady: compare two sets of K runs")
    ap.add_argument("--spec", action="store_true", help="print BENCHMARK.json and exit")
    args = ap.parse_args(argv)
    if args.spec:
        print(json.dumps(catalog.spec(), indent=2, ensure_ascii=False))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.steady:
        return steady(args)
    try:
        return run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        # stop the program's worker processes, then multiprocessing's
        # resource tracker, so none outlives the run on any path out of it
        if "repro.core.pool" in sys.modules:
            sys.modules["repro.core.pool"].shutdown_pool()
        host.stop_resource_tracker()


if __name__ == "__main__":
    sys.exit(main())
