"""Process-wide metrics: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` per process collects every metric the
subsystems emit — the pre-trainer's step counter, the serving request
histograms, the producer's wait gauge — behind a single schema instead
of the four bespoke ``stats()`` dicts that preceded it.  Design points:

* **Latest-instance-wins registration.**  Per-instance components
  (every :class:`~repro.serve.EmbeddingService`'s planner, ingestor,
  index and finder) hold a dict of their own counters registered with
  ``replace=True``: the registry exports the newest instance's values,
  while each instance reads its own objects for its local ``stats()``
  surface — so two services in one process keep separate numbers, and
  a long pytest process does not accumulate counts across unrelated
  services.
* **Bounded raw samples.**  Histograms keep cumulative bucket counts
  (Prometheus semantics) plus a fixed-size numpy ring buffer of raw
  observations, so JSON snapshots can report true nearest-rank
  percentiles without unbounded growth.

:func:`summarize_latencies` is the one percentile definition the
benchmarks and producer stats share — nearest-rank over the sorted
samples, no interpolation (interpolated percentiles mislead on the
small sample counts CI smoke runs produce).
"""

from __future__ import annotations

import bisect
import os
import resource
import sys
import threading

import numpy as np

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "registry",
           "DEFAULT_BUCKETS", "counter", "owned_counters", "gauge",
           "histogram", "snapshot", "render_prometheus", "record_peak_rss",
           "summarize_latencies"]

# Seconds-scale latency edges: 50µs .. 30s, roughly 3 per decade.
DEFAULT_BUCKETS = (5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2,
                   2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0)

_RAW_SAMPLES = 1024  # per-histogram ring-buffer rows kept for percentiles


def _label_key(labels: dict | None) -> tuple:
    return tuple(sorted((labels or {}).items()))


class Counter:
    """A monotonically increasing count.

    ``value`` may be fractional (e.g. cumulative seconds); increments go
    through one lock so concurrent threads never lose a count.  Read it
    as ``int(c)`` / ``float(c)``.
    """

    __slots__ = ("name", "labels", "help", "_lock", "_value")

    def __init__(self, name: str, labels: dict | None = None,
                 help: str = ""):
        self.name = name
        self.labels = dict(labels or {})
        self.help = help
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount=1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self):
        return self._value

    def __int__(self):
        return int(self._value)

    def __float__(self):
        return float(self._value)

    def __repr__(self):
        return f"Counter({self.name}={self._value})"


class Gauge:
    """A point-in-time value (a stalled producer's wait, queue depth)."""

    __slots__ = ("name", "labels", "help", "_lock", "_value")

    def __init__(self, name: str, labels: dict | None = None,
                 help: str = ""):
        self.name = name
        self.labels = dict(labels or {})
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def __repr__(self):
        return f"Gauge({self.name}={self._value})"


class Histogram:
    """Fixed-bucket histogram + bounded raw-sample ring buffer.

    ``buckets`` are upper edges (an implicit ``+inf`` edge is appended).
    ``observe`` is one lock acquisition, a bisect and two adds — cheap
    enough to stay always-on for request-rate paths.
    """

    __slots__ = ("name", "labels", "help", "buckets", "_lock", "_counts",
                 "_sum", "_count", "_raw", "_raw_pos")

    def __init__(self, name: str, buckets=DEFAULT_BUCKETS,
                 labels: dict | None = None, help: str = ""):
        edges = tuple(float(b) for b in buckets)
        if not edges or list(edges) != sorted(edges):
            raise ValueError("histogram buckets must be sorted and non-empty")
        self.name = name
        self.labels = dict(labels or {})
        self.help = help
        self.buckets = edges
        self._lock = threading.Lock()
        self._counts = np.zeros(len(edges) + 1, dtype=np.int64)
        self._sum = 0.0
        self._count = 0
        self._raw = np.zeros(_RAW_SAMPLES, dtype=np.float64)
        self._raw_pos = 0

    def observe(self, value: float) -> None:
        value = float(value)
        idx = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._raw[self._raw_pos % _RAW_SAMPLES] = value
            self._raw_pos += 1
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def raw_samples(self) -> np.ndarray:
        """The retained (most recent) observations, unordered."""
        with self._lock:
            n = min(self._raw_pos, _RAW_SAMPLES)
            return self._raw[:n].copy()

    def bucket_counts(self) -> np.ndarray:
        """Per-bucket counts (not cumulative); last entry is +inf."""
        with self._lock:
            return self._counts.copy()

    def summary(self) -> dict:
        """Nearest-rank percentile summary over the retained samples."""
        return summarize_latencies(self.raw_samples())

    def __repr__(self):
        return f"Histogram({self.name}, n={self._count})"


class MetricsRegistry:
    """Get-or-create registry of every metric in the process."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, tuple], object] = {}

    def _get_or_create(self, cls, name, labels, replace, **kwargs):
        key = (name, _label_key(labels))
        with self._lock:
            existing = self._metrics.get(key)
            if existing is not None and not replace:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}")
                return existing
            metric = cls(name, labels=labels, **kwargs)
            self._metrics[key] = metric
            return metric

    def counter(self, name: str, labels: dict | None = None,
                help: str = "", replace: bool = False) -> Counter:
        """Get or create a counter.  ``replace=True`` registers a fresh
        zeroed instance under the key (latest instance wins in exports)
        — the contract per-instance stats objects use."""
        return self._get_or_create(Counter, name, labels, replace, help=help)

    def gauge(self, name: str, labels: dict | None = None,
              help: str = "", replace: bool = False) -> Gauge:
        return self._get_or_create(Gauge, name, labels, replace, help=help)

    def histogram(self, name: str, buckets=DEFAULT_BUCKETS,
                  labels: dict | None = None, help: str = "",
                  replace: bool = False) -> Histogram:
        return self._get_or_create(Histogram, name, labels, replace,
                                   buckets=buckets, help=help)

    def collect(self) -> list:
        with self._lock:
            return list(self._metrics.values())

    # ------------------------------------------------------------------
    # exporters
    # ------------------------------------------------------------------
    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format."""
        lines: list[str] = []
        by_name: dict[str, list] = {}
        for metric in self.collect():
            by_name.setdefault(metric.name, []).append(metric)
        for name in sorted(by_name):
            group = by_name[name]
            first = group[0]
            kind = {Counter: "counter", Gauge: "gauge",
                    Histogram: "histogram"}[type(first)]
            if first.help:
                lines.append(f"# HELP {name} {first.help}")
            lines.append(f"# TYPE {name} {kind}")
            for metric in group:
                if isinstance(metric, Histogram):
                    lines.extend(_render_histogram(metric))
                else:
                    lines.append(f"{name}{_render_labels(metric.labels)} "
                                 f"{_format_value(metric.value)}")
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict:
        """JSON-able dump: ``{name{labels}: value-or-summary}``."""
        out: dict = {}
        for metric in self.collect():
            key = metric.name + _render_labels(metric.labels)
            if isinstance(metric, Histogram):
                out[key] = {"count": metric.count,
                            "sum": round(metric.sum, 9),
                            **metric.summary()}
            else:
                out[key] = metric.value
        return out


def _render_labels(labels: dict, extra: dict | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(
        f'{k}="{_escape_label(str(v))}"' for k, v in sorted(merged.items()))
    return "{" + body + "}"


def _escape_label(value: str) -> str:
    return (value.replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _format_value(value) -> str:
    if isinstance(value, float) and not value.is_integer():
        return repr(value)
    return str(int(value))


def _render_histogram(hist: Histogram) -> list[str]:
    lines = []
    counts = hist.bucket_counts()
    cumulative = 0
    for edge, count in zip(hist.buckets, counts[:-1]):
        cumulative += int(count)
        labels = _render_labels(hist.labels, {"le": _format_edge(edge)})
        lines.append(f"{hist.name}_bucket{labels} {cumulative}")
    cumulative += int(counts[-1])
    labels = _render_labels(hist.labels, {"le": "+Inf"})
    lines.append(f"{hist.name}_bucket{labels} {cumulative}")
    base = _render_labels(hist.labels)
    lines.append(f"{hist.name}_sum{base} {repr(float(hist.sum))}")
    lines.append(f"{hist.name}_count{base} {cumulative}")
    return lines


def _format_edge(edge: float) -> str:
    text = repr(edge)
    return text[:-2] if text.endswith(".0") else text


# ----------------------------------------------------------------------
# the process-wide registry + module-level conveniences
# ----------------------------------------------------------------------

_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    return _REGISTRY


def _after_fork_in_child() -> None:
    """Give a forked child unheld locks: only the forking thread survives
    a fork, so a lock another thread held then would stay held."""
    _REGISTRY._lock = threading.Lock()
    for metric in _REGISTRY._metrics.values():
        metric._lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


def counter(name: str, labels: dict | None = None, help: str = "",
            replace: bool = False) -> Counter:
    return _REGISTRY.counter(name, labels=labels, help=help, replace=replace)


def owned_counters(prefix: str, names, help: str) -> dict[str, Counter]:
    """Fresh ``<prefix>_<name>_total`` counters, one per name.

    Registered with ``replace=True``: the dict a per-instance owner holds
    and reads its ``stats()`` from, while ``/metrics`` shows the newest
    owner's.  ``help`` is formatted with the name.
    """
    return {name: _REGISTRY.counter(f"{prefix}_{name}_total",
                                    help=help.format(name), replace=True)
            for name in names}


def gauge(name: str, labels: dict | None = None, help: str = "",
          replace: bool = False) -> Gauge:
    return _REGISTRY.gauge(name, labels=labels, help=help, replace=replace)


def histogram(name: str, buckets=DEFAULT_BUCKETS,
              labels: dict | None = None, help: str = "",
              replace: bool = False) -> Histogram:
    return _REGISTRY.histogram(name, buckets=buckets, labels=labels,
                               help=help, replace=replace)


def render_prometheus() -> str:
    return _REGISTRY.render_prometheus()


def snapshot() -> dict:
    return _REGISTRY.snapshot()


def record_peak_rss() -> None:
    """Set ``repro_process_peak_rss_bytes`` to the process's high-water
    RSS (``getrusage``: ``ru_maxrss`` is kB on Linux, bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _REGISTRY.gauge("repro_process_peak_rss_bytes",
                    help="peak resident set size of this process").set(
        peak if sys.platform == "darwin" else peak * 1024)


# ----------------------------------------------------------------------
# shared percentile math
# ----------------------------------------------------------------------

def summarize_latencies(samples, percentiles=(50, 99)) -> dict:
    """Nearest-rank percentile summary of a latency sample list.

    ``p`` maps to ``sorted[ceil(p/100 * n) - 1]`` — an actual observed
    sample, never an interpolated value (interpolation is misleading on
    the handful of samples a CI smoke run collects).  Returns ``count``,
    ``mean``, ``max`` and one ``p<N>`` key per requested percentile; an
    empty input yields zeros.
    """
    arr = np.asarray(list(samples), dtype=np.float64)
    if arr.size == 0:
        out = {"count": 0, "mean": 0.0, "max": 0.0}
        out.update({f"p{int(p)}": 0.0 for p in percentiles})
        return out
    ordered = np.sort(arr)
    n = ordered.size
    out = {"count": int(n), "mean": float(arr.mean()),
           "max": float(ordered[-1])}
    for p in percentiles:
        rank = max(1, int(np.ceil(p / 100.0 * n)))
        out[f"p{int(p)}"] = float(ordered[min(rank, n) - 1])
    return out
