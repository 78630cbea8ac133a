"""``repro.obs`` — unified metrics + span tracing, dependency-free.

One observability schema across the train/stream/serve stack:

* :mod:`repro.obs.metrics` — a process-wide :class:`MetricsRegistry` of
  :class:`Counter`/:class:`Gauge`/:class:`Histogram` (thread-safe,
  numpy-backed, Prometheus-text + JSON exporters) and the shared
  :func:`summarize_latencies` nearest-rank percentile helper.
* :mod:`repro.obs.trace` — ``with span("pretrain.forward"):`` wall/CPU
  timing into a bounded buffer and an optional JSONL trace log, with
  span records shipped back from a forked producer.

Both modules register ``os.register_at_fork`` hooks: a forked child
starts with fresh locks (a lock another thread held at the fork cannot
deadlock it) and without the parent's trace sink or buffered spans.
* :mod:`repro.obs.report` — the ``repro obs report`` per-stage table.

Counters and gauges are always on (they back the subsystems' existing
``stats()`` surfaces); span tracing costs one attribute read when
disabled (the default) and is switched on by ``obs.enabled`` /
``--trace``.
"""

from .metrics import (Counter, Gauge, Histogram, MetricsRegistry, counter,
                      gauge, histogram, owned_counters, record_peak_rss,
                      registry, render_prometheus, snapshot,
                      summarize_latencies)
from .report import aggregate_spans, format_report, load_trace
from .trace import (configure, drain, flush, is_enabled, last_span,
                    record_remote, reset, span, trace_buffer)

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "counter", "owned_counters", "gauge", "histogram", "registry",
    "render_prometheus", "snapshot", "record_peak_rss", "summarize_latencies",
    "configure", "is_enabled", "span", "last_span", "record_remote",
    "trace_buffer", "drain", "reset", "flush",
    "load_trace", "aggregate_spans", "format_report",
]
