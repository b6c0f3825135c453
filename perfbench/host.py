"""Host header, process clock and the fixed calibration loop."""

from __future__ import annotations

import os
import pathlib
import random
import resource
import sys
import time

#: BLAS / OpenMP thread caps, pinned to 1 by :func:`pin_threads`
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    """One BLAS / OpenMP thread per process, so all load comes from the
    benchmark process and the program's own workers.  Must run before
    numpy is first imported (workers inherit the environment)."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads() after numpy was imported has no effect")
    for var in THREAD_ENV:
        os.environ[var] = "1"


def stop_resource_tracker() -> None:
    """End the shared-memory resource tracker process ``multiprocessing``
    starts on first use, and wait for it: it would otherwise outlive the
    run, orphaned, until it read EOF.  Call it last: a later shared-memory
    unlink would start a new tracker."""
    if "multiprocessing.resource_tracker" in sys.modules:
        sys.modules["multiprocessing.resource_tracker"]._resource_tracker._stop()


def process_age_s() -> float:
    """Seconds since this process started, from ``/proc`` (10 ms ticks)."""
    stat = pathlib.Path("/proc/self/stat").read_text()
    uptime = float(pathlib.Path("/proc/uptime").read_text().split()[0])
    # field 22 (starttime) counted after the parenthesised command name
    start_ticks = int(stat.rsplit(")", 1)[1].split()[19])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


def cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` jiffies over all CPUs since boot, from
    ``/proc/stat``: time the hypervisor ran something else on our vCPUs."""
    fields = [int(v) for v in pathlib.Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]]
    return fields[7], sum(fields)


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def header() -> dict:
    """CPU model, visible cores and the BLAS thread setting of this run."""
    import numpy as np

    model = None
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        visible = len(os.sched_getaffinity(0))
    except AttributeError:
        visible = os.cpu_count()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "cpu_model": model,
        "logical_cpus": os.cpu_count(),
        "visible_cpus": visible,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "numpy": np.__version__,
    }


def calib_ms() -> float:
    """Median of three runs of a fixed numpy plus pure-Python loop that
    touches no repository code: a drift in it is the host, not the
    program."""
    import numpy as np

    rng = np.random.default_rng(12345)
    a = rng.random((160, 160))
    words = [random.Random(7).random() for _ in range(20000)]
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        m = a
        for _ in range(8):
            m = np.minimum(m @ a, 1e6)
        acc = 0.0
        for _ in range(6):
            d = {}
            for w in words:
                d[int(w * 997)] = d.get(int(w * 997), 0.0) + w
            acc += sum(sorted(d.values()))
        times.append((time.perf_counter() - t0) * 1e3)
        if not (acc > 0 and np.isfinite(m).all()):
            raise RuntimeError("calibration loop produced a non-finite value")
    return sorted(times)[1]
