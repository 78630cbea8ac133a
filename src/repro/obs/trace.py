"""Span tracing: where did this step's milliseconds go.

``with span("pretrain.forward", epoch=3):`` records one *span* — wall
and CPU time, a trace/span/parent id triple, and arbitrary attributes —
into a bounded in-memory buffer (the newest :data:`BUFFER_SPANS`) and
(when configured) a JSONL trace log, one record per line.  Naming
convention: ``<subsystem>.<stage>`` (``pretrain.produce``,
``serve.embed``, ``produce.eta_bfs``).

Tracing is **off by default** and the disabled path allocates nothing:
``span()`` returns a shared no-op singleton, so a hot loop pays one
function call and one attribute read per stage.  Enable with
:func:`configure` (the ``obs.enabled`` config knob / ``--trace`` CLI
flag end up here).

**Across a fork.**  Spans nest per thread via a thread-local stack.  A
forked producer (:class:`~repro.stream.ForkProducer`) inherits the
parent's ``enabled`` switch, records its ``produce.*`` spans into its
own buffer, ships them with each batch (:func:`drain`), and the parent
feeds them to :func:`record_remote`.

Every completed span also feeds the ``repro_span_seconds`` histogram
(labelled by span name), so ``GET /metrics`` shows stage latencies
without parsing the trace log.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque

from . import metrics as _metrics

__all__ = ["configure", "is_enabled", "span", "last_span",
           "record_remote", "trace_buffer", "drain", "reset", "flush"]

_lock = threading.Lock()
_enabled = False
_trace_path: str | None = None
_trace_file = None
BUFFER_SPANS = 4096
_buffer: deque = deque(maxlen=BUFFER_SPANS)
_ids = itertools.count(1)
_local = threading.local()


def _next_id() -> str:
    return f"{os.getpid():x}-{next(_ids):x}"


def configure(enabled: bool | None = None,
              trace_path: str | None = None) -> None:
    """(Re)configure tracing; ``enabled=None`` leaves the switch
    unchanged, while ``trace_path`` always replaces the current sink
    (pass the current path to keep it)."""
    global _enabled, _trace_path, _trace_file
    with _lock:
        if enabled is not None:
            _enabled = bool(enabled)
        if trace_path != _trace_path:
            if _trace_file is not None:
                try:
                    _trace_file.close()
                except OSError:
                    pass
                _trace_file = None
            _trace_path = trace_path
            if trace_path is not None:
                _trace_file = open(trace_path, "a", buffering=1)


def is_enabled() -> bool:
    return _enabled


def reset() -> None:
    """Disable tracing, close the sink, clear buffered spans (tests)."""
    configure(enabled=False, trace_path=None)
    with _lock:
        _buffer.clear()
    _local.__dict__.clear()


def flush() -> None:
    """Flush the JSONL sink (line-buffered already; belt and braces)."""
    with _lock:
        if _trace_file is not None:
            try:
                _trace_file.flush()
            except OSError:
                pass


def trace_buffer() -> list[dict]:
    """A copy of the bounded in-memory span buffer (newest last)."""
    with _lock:
        return list(_buffer)


def drain() -> list[dict]:
    """Remove and return the buffered span records (oldest first) — what
    a forked producer ships to its parent with each batch."""
    with _lock:
        records = list(_buffer)
        _buffer.clear()
    return records


def last_span() -> str | None:
    """Name of this thread's most recently *entered* span (crash
    attribution: what was in flight when a worker died)."""
    return getattr(_local, "last_name", None)


def _emit(record: dict) -> None:
    with _lock:
        _buffer.append(record)
        if _trace_file is not None:
            try:
                _trace_file.write(json.dumps(record) + "\n")
            except OSError:
                pass
    _metrics.histogram("repro_span_seconds",
                       labels={"span": record["name"]},
                       help="span wall time by stage").observe(
                           record["wall_s"])


class _NoopSpan:
    """Shared do-nothing span — the disabled fast path allocates
    nothing and records nothing."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NOOP = _NoopSpan()


class _Span:
    __slots__ = ("name", "attrs", "trace_id", "span_id", "parent_id",
                 "_wall0", "_cpu0")

    def __init__(self, name: str, attrs: dict):
        self.name = name
        self.attrs = attrs

    def __enter__(self):
        stack = getattr(_local, "stack", None)
        if stack is None:
            stack = _local.stack = []
        if stack:
            self.trace_id, self.parent_id = stack[-1][0], stack[-1][1]
        else:
            self.trace_id, self.parent_id = _next_id(), None
        self.span_id = _next_id()
        stack.append((self.trace_id, self.span_id))
        _local.last_name = self.name
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb):
        wall = time.perf_counter() - self._wall0
        cpu = time.process_time() - self._cpu0
        stack = getattr(_local, "stack", None)
        if stack:
            stack.pop()
        record = {
            "name": self.name,
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "ts": time.time(),
            "wall_s": round(wall, 9),
            "cpu_s": round(cpu, 9),
        }
        if exc_type is not None:
            record["error"] = exc_type.__name__
        if self.attrs:
            record["attrs"] = self.attrs
        _emit(record)
        return False


def span(name: str, **attrs):
    """Context manager timing one stage; no-op singleton when tracing
    is disabled."""
    if not _enabled:
        return _NOOP
    return _Span(name, attrs)


# ----------------------------------------------------------------------
# fork hygiene
# ----------------------------------------------------------------------

_inherited_sinks: list = []


def _after_fork_in_child() -> None:
    """Start a forked child with a fresh lock, no sink, no spans.

    Only the forking thread survives a fork, so a lock another thread
    held at that moment would never be released in the child.  The
    parent's sink and buffered spans stay the parent's; the child's
    spans start a new trace (no open parent span).
    """
    global _lock, _trace_path, _trace_file, _local
    _lock = threading.Lock()
    if _trace_file is not None:
        # Held, never closed: closing would flush whatever the parent
        # had buffered into its file a second time.
        _inherited_sinks.append(_trace_file)
    _trace_path = _trace_file = None
    _buffer.clear()
    _local = threading.local()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


# ----------------------------------------------------------------------
# across a fork
# ----------------------------------------------------------------------

def record_remote(record: dict) -> None:
    """Insert a span record produced in another process (a forked
    producer's) into the local buffer / trace log.  Ignored when tracing
    is off."""
    if not _enabled or not isinstance(record, dict):
        return
    if "name" not in record or "wall_s" not in record:
        return
    _emit(record)
