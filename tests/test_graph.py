"""Unit tests for the temporal graph substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import (EventStream, NeighborFinder, RandomDestinationSampler,
                         chronological_batches, describe, density)


def make_stream():
    #       events: (0,3,1.0) (1,3,2.0) (0,4,3.0) (2,3,4.0) (1,4,5.0)
    return EventStream(
        src=[0, 1, 0, 2, 1],
        dst=[3, 3, 4, 3, 4],
        timestamps=[1.0, 2.0, 3.0, 4.0, 5.0],
        num_nodes=5,
        name="handmade",
    )


class TestEventStream:
    def test_sorts_unsorted_input(self):
        stream = EventStream(src=[1, 0], dst=[2, 2], timestamps=[5.0, 1.0],
                             num_nodes=3)
        assert stream.timestamps.tolist() == [1.0, 5.0]
        assert stream.src.tolist() == [0, 1]

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            EventStream(src=[0], dst=[1, 2], timestamps=[0.0], num_nodes=3)

    def test_rejects_small_num_nodes(self):
        with pytest.raises(ValueError):
            EventStream(src=[0], dst=[5], timestamps=[0.0], num_nodes=3)

    def test_time_properties(self):
        stream = make_stream()
        assert stream.t_min == 1.0
        assert stream.t_max == 5.0
        assert stream.timespan == 4.0
        assert stream.num_events == 5

    def test_active_nodes(self):
        assert make_stream().active_nodes().tolist() == [0, 1, 2, 3, 4]

    def test_slice_time_half_open(self):
        stream = make_stream().slice_time(2.0, 4.0)
        assert stream.timestamps.tolist() == [2.0, 3.0]

    def test_slice_preserves_node_space(self):
        assert make_stream().slice_time(2.0, 4.0).num_nodes == 5

    def test_split_fraction_partitions(self):
        parts = make_stream().split_fraction([0.6, 0.2, 0.2])
        assert [p.num_events for p in parts] == [3, 1, 1]
        total = sum(p.num_events for p in parts)
        assert total == 5

    def test_split_fraction_validates(self):
        with pytest.raises(ValueError):
            make_stream().split_fraction([0.5, 0.4])

    def test_concatenate_resorts(self):
        a = make_stream().slice_time(3.0)
        b = make_stream().slice_time(t_end=3.0)
        merged = EventStream.concatenate([a, b])
        assert merged.num_events == 5
        assert (np.diff(merged.timestamps) >= 0).all()

    def test_events_iterator(self):
        events = list(make_stream().events())
        assert events[0] == (0, 3, 1.0)
        assert len(events) == 5


class TestNeighborFinder:
    def test_before_strictness(self):
        finder = NeighborFinder(make_stream())
        neighbors, times, _ = finder.before(3, 4.0)
        # Events (0,3,1.0), (1,3,2.0) only — (2,3,4.0) is not strictly before.
        assert neighbors.tolist() == [0, 1]
        assert times.tolist() == [1.0, 2.0]

    def test_undirected_indexing(self):
        finder = NeighborFinder(make_stream())
        neighbors, _, _ = finder.before(0, 10.0)
        assert neighbors.tolist() == [3, 4]

    def test_degree(self):
        finder = NeighborFinder(make_stream())
        assert finder.degree(3, 10.0) == 3
        assert finder.degree(3, 1.5) == 1
        assert finder.degree(2, 1.0) == 0

    def test_most_recent_truncates_chronologically(self):
        finder = NeighborFinder(make_stream())
        neighbors, times, _ = finder.most_recent(3, 10.0, 2)
        assert times.tolist() == [2.0, 4.0]
        assert neighbors.tolist() == [1, 2]

    def test_batch_most_recent_slots(self):
        finder = NeighborFinder(make_stream())
        slots = finder.batch_most_recent(np.array([3, 2]),
                                         np.array([10.0, 1.0]), 4)
        # Node 3 has three events before t=10; node 2 none before t=1,
        # so it keeps one zero dummy slot.
        assert slots.starts.tolist() == [0, 3]
        assert slots.rows.tolist() == [0, 0, 0, 1]
        assert slots.neighbors.tolist() == [0, 1, 2, 0]
        assert slots.times.tolist() == [1.0, 2.0, 4.0, 0.0]
        assert slots.event_ids.tolist() == [0, 1, 3, 0]
        assert slots.dummy.tolist() == [False, False, False, True]

    def test_event_ids_resolve_to_stream_rows(self):
        stream = make_stream()
        finder = NeighborFinder(stream)
        _, _, event_ids = finder.before(4, 10.0)
        for idx in event_ids:
            assert 4 in (stream.src[idx], stream.dst[idx])


class TestBatching:
    def test_batches_cover_stream_in_order(self, rng):
        stream = make_stream()
        batches = list(chronological_batches(stream, 2, rng))
        assert [len(b) for b in batches] == [2, 2, 1]
        all_ts = np.concatenate([b.timestamps for b in batches])
        np.testing.assert_allclose(all_ts, stream.timestamps)

    def test_negative_destinations_are_observed_dsts(self, rng):
        stream = make_stream()
        for batch in chronological_batches(stream, 3, rng):
            assert set(batch.neg_dst.tolist()) <= {3, 4}

    def test_rejects_bad_batch_size(self, rng):
        with pytest.raises(ValueError):
            list(chronological_batches(make_stream(), 0, rng))

    def test_sampler_requires_destinations(self, rng):
        empty = EventStream(src=[], dst=[], timestamps=[], num_nodes=3)
        with pytest.raises(ValueError):
            RandomDestinationSampler(empty, rng)

    def test_labels_carried(self, rng):
        stream = make_stream()
        stream.labels = np.array([0, 1, 0, 1, 0])
        batches = list(chronological_batches(stream, 2, rng))
        assert batches[0].labels.tolist() == [0, 1]


class TestStats:
    def test_density_formula(self):
        assert density(4, 6) == pytest.approx(1.0)
        assert density(1, 0) == 0.0

    def test_describe_counts_active_nodes(self):
        stats = describe(make_stream())
        assert stats.num_nodes == 5
        assert stats.num_edges == 5
        assert stats.timespan == 4.0
        assert stats.num_sources == 3
        assert stats.num_destinations == 2

    def test_as_row_format(self):
        row = describe(make_stream()).as_row()
        assert set(row) == {"dataset", "# Nodes", "# Edges", "Timespan",
                            "Density"}
