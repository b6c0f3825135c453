"""Sample-keeping recorders: latency reservoirs and batch-size buckets.

These complement the :mod:`repro.obs.registry` families: a
:class:`~repro.obs.registry.Histogram` has fixed buckets and merges
across processes, while :class:`LatencyRecorder` keeps (a reservoir of)
the actual samples and answers exact percentiles over what it kept —
the number a human reads in a benchmark report.  Serving layers record
into both: the registry for scraping, the reservoir for ``stats``
summaries.

Both recorders are thread-safe (one lock each; the serving layers record
from worker threads and asyncio executor threads alike).
"""

from __future__ import annotations

import random
import threading
from typing import Dict, Iterable, Mapping, Optional, Sequence

#: percentiles every summary reports, in order
DEFAULT_PERCENTILES = (50.0, 95.0, 99.0)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation.

    Matches ``numpy.percentile``'s default for small samples without
    pulling an array allocation into the hot recording path; ``nan`` on
    an empty sample.
    """
    if not values:
        return float("nan")
    data = sorted(values)
    if len(data) == 1:
        return float(data[0])
    rank = (len(data) - 1) * (q / 100.0)
    lo = int(rank)
    hi = min(lo + 1, len(data) - 1)
    frac = rank - lo
    return float(data[lo] * (1.0 - frac) + data[hi] * frac)


class LatencyRecorder:
    """Reservoir of latency samples (seconds in, milliseconds out).

    ``record`` keeps the first ``capacity`` samples verbatim, then
    switches to uniform reservoir sampling, so ``summary`` is exact for
    short runs and an unbiased estimate for unbounded ones.  ``count``
    always reflects every observation.
    """

    def __init__(self, capacity: int = 8192, seed: int = 0) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._samples: list[float] = []
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def record(self, seconds: float) -> None:
        with self._lock:
            self.count += 1
            self.total += seconds
            if seconds > self.max:
                self.max = seconds
            if len(self._samples) < self.capacity:
                self._samples.append(seconds)
            else:
                k = self._rng.randrange(self.count)
                if k < self.capacity:
                    self._samples[k] = seconds

    def extend(self, seconds: Iterable[float]) -> None:
        for s in seconds:
            self.record(s)

    def summary(
        self, percentiles: Sequence[float] = DEFAULT_PERCENTILES
    ) -> dict[str, float]:
        """``{"count", "mean_ms", "max_ms", "p50_ms", ...}`` (ms keys)."""
        with self._lock:
            samples = list(self._samples)
            count, total, mx = self.count, self.total, self.max
        out: dict[str, float] = {
            "count": float(count),
            "mean_ms": (total / count) * 1e3 if count else float("nan"),
            "max_ms": mx * 1e3,
        }
        for q in percentiles:
            key = f"p{q:g}_ms"
            out[key] = percentile(samples, q) * 1e3
        return out


def _bucket_label(lo: int, hi: int) -> str:
    return str(lo) if lo == hi else f"{lo}-{hi}"


class BatchHistogram:
    """Power-of-two batch-size buckets: ``1``, ``2``, ``3-4``, ``5-8``, …

    The interesting question about a micro-batching window is "do batches
    actually fill, or is everything a batch of one?" — doubling buckets
    answer it in a handful of keys no matter the batch cap.
    """

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}  # bucket upper bound -> count
        self._lock = threading.Lock()
        self.observations = 0
        self.items = 0

    def observe(self, size: int) -> None:
        if size < 1:
            raise ValueError(f"batch size must be >= 1, got {size}")
        hi = 1
        while hi < size:
            hi <<= 1
        with self._lock:
            self.observations += 1
            self.items += size
            self._counts[hi] = self._counts.get(hi, 0) + 1

    def as_dict(self) -> dict[str, int]:
        """Label -> count, ascending by bucket (empty buckets omitted)."""
        with self._lock:
            counts = dict(self._counts)
        out: dict[str, int] = {}
        for hi in sorted(counts):
            lo = hi // 2 + 1 if hi > 2 else hi
            out[_bucket_label(lo, hi)] = counts[hi]
        return out

    def merge(self, other: Mapping[str, int]) -> None:
        """Fold a serialized ``as_dict`` back in (cluster aggregation).

        Exact sizes are gone after bucketing, so ``items`` (and thus
        :meth:`mean`) is credited at each bucket's upper bound — an
        upper estimate, consistent across repeated merges."""
        with self._lock:
            for label, count in other.items():
                hi = int(label.split("-")[-1])
                self._counts[hi] = self._counts.get(hi, 0) + int(count)
                self.observations += int(count)
                self.items += hi * int(count)

    def mean(self) -> float:
        with self._lock:
            return self.items / self.observations if self.observations else float("nan")


def format_latency(summary: Mapping[str, float]) -> str:
    """One human line: ``p50 0.42ms  p95 1.3ms  p99 2.0ms  max 5.1ms``."""
    parts = []
    for key in ("p50_ms", "p95_ms", "p99_ms", "max_ms"):
        if key in summary:
            parts.append(f"{key[:-3]} {summary[key]:.3g}ms")
    return "  ".join(parts)


def merge_scene_counts(
    into: Dict[str, int], other: Optional[Mapping[str, int]]
) -> Dict[str, int]:
    """Accumulate per-scene request counters (cluster stats aggregation)."""
    for name, count in (other or {}).items():
        into[name] = into.get(name, 0) + int(count)
    return into
