"""Continuous-time dynamic graph (CTDG) event storage.

Implements paper Definition 1: a dynamic graph is a temporal list of edge
events ``(i, j, t)``.  Events are stored column-wise in numpy arrays sorted
by timestamp, which makes chronological batching, time-range slicing and
before-``t`` neighbourhood queries cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["EventStream"]


@dataclass
class EventStream:
    """A chronologically sorted stream of interaction events.

    Attributes
    ----------
    src, dst:
        Integer node ids of each event's endpoints.  For bipartite graphs
        (all six paper datasets are user-item graphs) sources are users and
        destinations are items, but nothing in the class requires that.
    timestamps:
        Float event times, non-decreasing.
    num_nodes:
        Size of the node id space (ids may be sparse within it).
    edge_feats:
        Optional ``(num_events, feat_dim)`` edge features.
    labels:
        Optional per-event dynamic source-node labels (e.g. "user banned
        after this edit" in Wikipedia), used by node classification.
    """

    src: np.ndarray
    dst: np.ndarray
    timestamps: np.ndarray
    num_nodes: int
    edge_feats: np.ndarray | None = None
    labels: np.ndarray | None = None
    name: str = "ctdg"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.src = np.asarray(self.src, dtype=np.int64)
        self.dst = np.asarray(self.dst, dtype=np.int64)
        self.timestamps = np.asarray(self.timestamps, dtype=np.float64)
        if not (len(self.src) == len(self.dst) == len(self.timestamps)):
            raise ValueError("src, dst and timestamps must have equal length")
        if len(self.timestamps) and np.any(np.diff(self.timestamps) < 0):
            order = np.argsort(self.timestamps, kind="stable")
            self.src = self.src[order]
            self.dst = self.dst[order]
            self.timestamps = self.timestamps[order]
            if self.edge_feats is not None:
                self.edge_feats = self.edge_feats[order]
            if self.labels is not None:
                self.labels = np.asarray(self.labels)[order]
        if len(self.src) and self.num_nodes <= max(self.src.max(), self.dst.max()):
            raise ValueError("num_nodes must exceed the largest node id")

    # ------------------------------------------------------------------
    # basic views
    # ------------------------------------------------------------------
    @property
    def num_events(self) -> int:
        return len(self.timestamps)

    def __len__(self) -> int:
        return self.num_events

    @property
    def t_min(self) -> float:
        return float(self.timestamps[0]) if self.num_events else 0.0

    @property
    def t_max(self) -> float:
        return float(self.timestamps[-1]) if self.num_events else 0.0

    @property
    def timespan(self) -> float:
        return self.t_max - self.t_min

    def active_nodes(self) -> np.ndarray:
        """Sorted unique node ids that appear in at least one event."""
        return np.unique(np.concatenate([self.src, self.dst])) if self.num_events \
            else np.empty(0, dtype=np.int64)

    def events(self) -> zip:
        """Iterate ``(src, dst, t)`` triples in chronological order."""
        return zip(self.src.tolist(), self.dst.tolist(), self.timestamps.tolist())

    # ------------------------------------------------------------------
    # slicing
    # ------------------------------------------------------------------
    def slice_time(self, t_start: float = -np.inf, t_end: float = np.inf) -> "EventStream":
        """Events with ``t_start <= t < t_end`` (same node id space)."""
        mask = (self.timestamps >= t_start) & (self.timestamps < t_end)
        return self._subset(mask, name=f"{self.name}[{t_start:.0f},{t_end:.0f})")

    def slice_index(self, start: int, stop: int) -> "EventStream":
        """Events by positional range, preserving node id space."""
        mask = np.zeros(self.num_events, dtype=bool)
        mask[start:stop] = True
        return self._subset(mask, name=f"{self.name}[{start}:{stop}]")

    def split_fraction(self, fractions: list[float]) -> list["EventStream"]:
        """Chronological split into consecutive parts by event fraction.

        ``fractions`` must sum to 1; e.g. the paper's node-classification
        split 6:2:1:1 is ``[0.6, 0.2, 0.1, 0.1]``.
        """
        if abs(sum(fractions) - 1.0) > 1e-9:
            raise ValueError("fractions must sum to 1")
        bounds = np.cumsum([0.0] + list(fractions)) * self.num_events
        bounds = np.round(bounds).astype(int)
        return [self.slice_index(bounds[i], bounds[i + 1]) for i in range(len(fractions))]

    def _subset(self, mask: np.ndarray, name: str) -> "EventStream":
        return EventStream(
            src=self.src[mask],
            dst=self.dst[mask],
            timestamps=self.timestamps[mask],
            num_nodes=self.num_nodes,
            edge_feats=self.edge_feats[mask] if self.edge_feats is not None else None,
            labels=self.labels[mask] if self.labels is not None else None,
            name=name,
            metadata=dict(self.metadata),
        )

    # ------------------------------------------------------------------
    # composition
    # ------------------------------------------------------------------
    @staticmethod
    def concatenate(streams: list["EventStream"], name: str = "merged") -> "EventStream":
        """Merge streams over a shared node id space, re-sorting by time."""
        if not streams:
            raise ValueError("need at least one stream")
        num_nodes = max(s.num_nodes for s in streams)
        feats = None
        if all(s.edge_feats is not None for s in streams):
            feats = np.concatenate([s.edge_feats for s in streams])
        labels = None
        if all(s.labels is not None for s in streams):
            labels = np.concatenate([s.labels for s in streams])
        return EventStream(
            src=np.concatenate([s.src for s in streams]),
            dst=np.concatenate([s.dst for s in streams]),
            timestamps=np.concatenate([s.timestamps for s in streams]),
            num_nodes=num_nodes,
            edge_feats=feats,
            labels=labels,
            name=name,
        )
