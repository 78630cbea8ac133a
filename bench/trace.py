"""Boundary tracer: spans around the public entry points of each layer.

The traced pass of the benchmark wraps the calls *into* each layer
(``NeighborFinder.batch_most_recent``, ``produce_batch``,
``EmbeddingService.embed`` ...) from the benchmark's own files; no source
file of the program is edited and the program's ``repro.obs`` spans stay
off.  A span is ``(id, parent, trace, name, start, end, n, main)``:

* ``parent`` is the id of the span that was open on the same thread when
  this one started (0 for none), so a layer's *self* time is its spans'
  duration minus the part their children cover;
* ``trace`` is shared by the spans of one gradient step or one serve
  request (a new id starts at every ``root=True`` entry point that is not
  nested in another one);
* ``n`` is an optional work count taken at the same boundary (nodes
  sampled, rows computed);
* ``main`` is False for spans recorded off the calling thread (the serve
  compactor), which overlap the wall-clock and are left out of coverage.

Spans are kept in memory and written out by :meth:`Tracer.dump` when the
benchmark ends.  Wrappers pass straight through while ``recording`` is
False, so set-up code between timed regions adds nothing to the table.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

__all__ = ["Tracer", "Totals"]


class Totals:
    """Per-span-name aggregates of one traced region.

    ``count`` / ``total`` / ``self_time`` / ``work`` are keyed by span
    name; ``edge_count`` / ``edge_total`` by ``(name, parent name)``
    (``""`` for no parent); ``covered`` is the self time of everything
    that ran on the calling thread.
    """

    def __init__(self, spans: list[tuple]):
        child_time: dict[int, float] = defaultdict(float)
        names = {span[0]: span[3] for span in spans}
        for _, parent, _, _, start, end, _, _ in spans:
            child_time[parent] += end - start
        self.count: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.work: dict[str, int] = defaultdict(int)
        self.edge_count: dict[tuple[str, str], int] = defaultdict(int)
        self.edge_total: dict[tuple[str, str], float] = defaultdict(float)
        self.covered = 0.0
        for span_id, parent, _, name, start, end, n, main in spans:
            duration = end - start
            own = duration - child_time.get(span_id, 0.0)
            self.count[name] += 1
            self.total[name] += duration
            self.self_time[name] += own
            self.work[name] += n
            edge = (name, names.get(parent, ""))
            self.edge_count[edge] += 1
            self.edge_total[edge] += duration
            if main:
                self.covered += own


class Tracer:
    """Installs span-recording wrappers and aggregates what they saw."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.recording = False
        # Distinct receivers (``self``) seen per span name, for reading
        # the program's own counters after the region.
        self.receivers: dict[str, list] = defaultdict(list)
        self._patches: list[tuple[object, str, object]] = []
        self._ids = itertools.count(1)
        self._traces = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()

    # ------------------------------------------------------------------
    def _wrapper(self, fn, name: str, root: bool, count, keep: bool):
        local = self._local
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            stack = local.__dict__.setdefault("stack", [])
            if root and not local.__dict__.get("roots", 0):
                local.trace = next(self._traces)
            if root:
                local.roots = local.__dict__.get("roots", 0) + 1
            if keep and args and all(args[0] is not seen
                                     for seen in self.receivers[name]):
                self.receivers[name].append(args[0])
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if root:
                    local.roots -= 1
            n = int(count(args, result)) if count is not None else 0
            spans.append((span_id, parent, local.__dict__.get("trace", 0),
                          name, start, end, n,
                          threading.get_ident() == self._main))
            return result

        return traced

    def wrap(self, module: str, owner: str | None, attr: str, name: str, *,
             root: bool = False, count=None, keep: bool = False) -> None:
        """Wrap ``module.owner.attr`` (or the function ``module.attr``).

        A module-level function is also rebound in every loaded
        ``repro`` module that imported it by name, because those callers
        hold their own reference.
        """
        mod = importlib.import_module(module)
        if owner is not None:
            cls = getattr(mod, owner)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr,
                    self._wrapper(original, name, root, count, keep))
            return
        original = getattr(mod, attr)
        traced = self._wrapper(original, name, root, count, keep)
        for mod_name, other in list(sys.modules.items()):
            if mod_name.startswith("repro") and other is not None \
                    and other.__dict__.get(attr) is original:
                self._patches.append((other, attr, original))
                setattr(other, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    def take(self) -> list[tuple]:
        """Spans recorded since the last call (one traced region)."""
        taken, self.spans[:] = list(self.spans), []
        return taken

    @staticmethod
    def dump(spans: list[tuple], path: str) -> None:
        keys = ("id", "parent", "trace", "name", "start", "end", "n", "main")
        with open(path, "w") as fh:
            for span in spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
