"""repro.obs — the unified observability subsystem.

Three legs, one package:

* **Metrics** (:mod:`repro.obs.registry`): a thread/fork-safe
  :class:`MetricsRegistry` of counters, gauges, and fixed-bucket
  histograms under stable dotted names, rendered as OpenMetrics text
  (:mod:`repro.obs.openmetrics`) by the front-end's ``GET /metrics``
  endpoint and returned raw by the cluster's ``metrics`` verb.
* **Tracing** (:mod:`repro.obs.tracing`): per-request span trees
  (admission → queue wait → worker RPC → service, plus redirect hops)
  in a bounded :class:`SpanBuffer`, dumped as JSON or Chrome
  ``chrome://tracing`` format via ``python -m repro trace``.
* **Structured logs** (:mod:`repro.obs.logging`): rate-limited
  one-JSON-object-per-line subsystem loggers.

:mod:`repro.obs.recorders` holds the sample-keeping recorders
(:class:`LatencyRecorder`, :class:`BatchHistogram`).
"""

from repro.obs.logging import JsonLogger, get_logger, set_log_stream
from repro.obs.openmetrics import (
    CONTENT_TYPE,
    count_series,
    merge_snapshots,
    render_openmetrics,
)
from repro.obs.recorders import (
    DEFAULT_PERCENTILES,
    BatchHistogram,
    LatencyRecorder,
    format_latency,
    merge_scene_counts,
    percentile,
)
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    set_default_registry,
)
from repro.obs.tracing import (
    SpanBuffer,
    chrome_trace,
    finish,
    new_span_id,
    new_trace_id,
    span,
)

__all__ = [
    # registry
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "default_registry",
    "set_default_registry",
    # exposition
    "render_openmetrics",
    "merge_snapshots",
    "count_series",
    "CONTENT_TYPE",
    # recorders
    "LatencyRecorder",
    "BatchHistogram",
    "percentile",
    "format_latency",
    "merge_scene_counts",
    "DEFAULT_PERCENTILES",
    # tracing
    "span",
    "finish",
    "new_trace_id",
    "new_span_id",
    "SpanBuffer",
    "chrome_trace",
    # logging
    "JsonLogger",
    "get_logger",
    "set_log_stream",
]
