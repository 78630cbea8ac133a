"""Continuous-time dynamic graph substrate.

Event storage (:class:`EventStream`), temporal neighbourhood queries
(:class:`NeighborFinder`), chronological batching, JODIE-format CSV / npz
I/O and the Table V/VI statistics helpers.
"""

from .analysis import (TemporalProfile, burstiness, degree_distribution,
                       inter_event_times, recency_gini,
                       repeat_interaction_rate, temporal_profile)
from .batching import (EventBatch, RandomDestinationSampler, batch_bounds,
                       chronological_batches, slice_event_batch)
from .events import EventStream
from .io import load_npz, read_jodie_csv, save_npz, write_jodie_csv
from .neighbor_finder import NeighborFinder
from .stats import StreamStats, describe, density

__all__ = [
    "EventStream", "NeighborFinder",
    "EventBatch", "chronological_batches", "batch_bounds",
    "slice_event_batch", "RandomDestinationSampler",
    "StreamStats", "describe", "density",
    "TemporalProfile", "temporal_profile", "burstiness",
    "degree_distribution", "inter_event_times", "recency_gini",
    "repeat_interaction_rate",
    "read_jodie_csv", "write_jodie_csv", "save_npz", "load_npz",
]
