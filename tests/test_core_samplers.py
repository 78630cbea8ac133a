"""Unit tests for the CPDG samplers and probability functions (paper §IV-A)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (EpsilonDFSSampler, EtaBFSSampler, PrecomputedSampler,
                        chronological_probability,
                        reverse_chronological_probability,
                        uniform_probability)
from repro.graph import EventStream, NeighborFinder


def star_stream():
    """Node 0 interacts with 1..5 at times 1..5; node 5 also touches 6."""
    return EventStream(
        src=[0, 0, 0, 0, 0, 5],
        dst=[1, 2, 3, 4, 5, 6],
        timestamps=[1.0, 2.0, 3.0, 4.0, 5.0, 5.5],
        num_nodes=7,
    )


class TestProbabilities:
    def test_chronological_favours_recent(self):
        times = np.array([1.0, 2.0, 3.0, 4.0])
        probs = chronological_probability(times, 5.0, tau=0.2)
        assert (np.diff(probs) > 0).all()
        assert probs.sum() == pytest.approx(1.0)

    def test_reverse_favours_old(self):
        times = np.array([1.0, 2.0, 3.0, 4.0])
        probs = reverse_chronological_probability(times, 5.0, tau=0.2)
        assert (np.diff(probs) < 0).all()
        assert probs.sum() == pytest.approx(1.0)

    def test_chronological_and_reverse_are_mirrors(self):
        times = np.array([1.0, 2.0, 3.0])
        chrono = chronological_probability(times, 4.0, tau=0.3)
        reverse = reverse_chronological_probability(times, 4.0, tau=0.3)
        np.testing.assert_allclose(chrono, reverse[::-1], rtol=1e-10)

    def test_uniform(self):
        probs = uniform_probability(np.arange(4, dtype=float), 5.0)
        np.testing.assert_allclose(probs, np.full(4, 0.25))

    def test_degenerate_single_event(self):
        probs = chronological_probability(np.array([2.0]), 2.0)
        np.testing.assert_allclose(probs, [1.0])

    def test_temperature_sharpens(self):
        times = np.array([1.0, 2.0, 3.0, 4.0])
        sharp = chronological_probability(times, 5.0, tau=0.05)
        soft = chronological_probability(times, 5.0, tau=2.0)
        assert sharp.max() > soft.max()


class TestEtaBFS:
    def test_returns_unique_nodes_without_root(self):
        finder = NeighborFinder(star_stream())
        sampler = EtaBFSSampler(finder, eta=3, depth=2, seed=0)
        nodes = sampler.sample(0, 6.0)
        assert 0 not in nodes
        assert len(set(nodes.tolist())) == len(nodes)

    def test_empty_history_gives_empty_subgraph(self):
        finder = NeighborFinder(star_stream())
        sampler = EtaBFSSampler(finder, eta=3, depth=2, seed=0)
        assert len(sampler.sample(6, 5.0)) == 0  # node 6's event is at 5.5

    def test_respects_time_cut(self):
        finder = NeighborFinder(star_stream())
        sampler = EtaBFSSampler(finder, eta=5, depth=1, seed=0)
        nodes = sampler.sample(0, 3.5)
        assert set(nodes.tolist()) <= {1, 2, 3}

    def test_width_bounds_fanout(self):
        finder = NeighborFinder(star_stream())
        sampler = EtaBFSSampler(finder, eta=2, depth=1, seed=0)
        assert len(sampler.sample(0, 6.0)) <= 2

    def test_chronological_sampler_prefers_recent(self):
        finder = NeighborFinder(star_stream())
        recent_counts = {n: 0 for n in range(1, 6)}
        sampler = EtaBFSSampler(finder, eta=1, depth=1,
                                probability="chronological", tau=0.1, seed=1)
        for _ in range(300):
            for node in sampler.sample(0, 6.0):
                recent_counts[int(node)] += 1
        # Node 5 (latest event) must dominate node 1 (oldest).
        assert recent_counts[5] > recent_counts[1] * 2

    def test_reverse_sampler_prefers_old(self):
        finder = NeighborFinder(star_stream())
        counts = {n: 0 for n in range(1, 6)}
        sampler = EtaBFSSampler(finder, eta=1, depth=1,
                                probability="reverse", tau=0.1, seed=1)
        for _ in range(300):
            for node in sampler.sample(0, 6.0):
                counts[int(node)] += 1
        assert counts[1] > counts[5] * 2

    def test_two_hop_reaches_second_ring(self):
        finder = NeighborFinder(star_stream())
        sampler = EtaBFSSampler(finder, eta=5, depth=2, seed=3)
        nodes = set(sampler.sample(0, 6.0).tolist())
        assert 6 in nodes  # reachable only through node 5

    def test_validates_parameters(self):
        finder = NeighborFinder(star_stream())
        with pytest.raises(ValueError):
            EtaBFSSampler(finder, eta=0, depth=1)
        with pytest.raises(ValueError):
            EtaBFSSampler(finder, eta=1, depth=0)


class TestEpsilonDFS:
    def test_takes_most_recent(self):
        finder = NeighborFinder(star_stream())
        sampler = EpsilonDFSSampler(finder, epsilon=2, depth=1)
        nodes = set(sampler.sample(0, 6.0).tolist())
        assert nodes == {4, 5}

    def test_is_deterministic(self):
        finder = NeighborFinder(star_stream())
        sampler = EpsilonDFSSampler(finder, epsilon=3, depth=2)
        a = sampler.sample(0, 6.0)
        b = sampler.sample(0, 6.0)
        np.testing.assert_array_equal(a, b)

    def test_depth_expands_recursively(self):
        finder = NeighborFinder(star_stream())
        shallow = set(EpsilonDFSSampler(finder, 2, 1).sample(0, 6.0).tolist())
        deep = set(EpsilonDFSSampler(finder, 2, 2).sample(0, 6.0).tolist())
        assert shallow <= deep
        assert 6 in deep

    def test_respects_time(self):
        finder = NeighborFinder(star_stream())
        sampler = EpsilonDFSSampler(finder, epsilon=5, depth=2)
        nodes = set(sampler.sample(0, 5.2).tolist())
        assert 6 not in nodes  # 5-6 interaction happens at 5.5

    def test_validates_parameters(self):
        finder = NeighborFinder(star_stream())
        with pytest.raises(ValueError):
            EpsilonDFSSampler(finder, epsilon=0, depth=1)


class TestPrecomputedSampler:
    def test_caches_by_root_and_time(self):
        finder = NeighborFinder(star_stream())
        inner = EpsilonDFSSampler(finder, epsilon=2, depth=1)
        cached = PrecomputedSampler(inner)
        a = cached.sample(0, 6.0)
        b = cached.sample(0, 6.0)
        assert a is b
        assert cached.cache_size == 1
        cached.sample(0, 5.0)
        assert cached.cache_size == 2

    def test_matches_online_sampler(self):
        finder = NeighborFinder(star_stream())
        inner = EpsilonDFSSampler(finder, epsilon=2, depth=2)
        cached = PrecomputedSampler(EpsilonDFSSampler(finder, 2, 2))
        np.testing.assert_array_equal(cached.sample(0, 6.0),
                                      inner.sample(0, 6.0))
        # Two query times 3e-7 apart with an event between them are two
        # subgraphs, asked one after the other or in one batch.
        close = NeighborFinder(EventStream(src=[0, 0], dst=[1, 2],
                                           timestamps=[1.0, 5.0000002],
                                           num_nodes=3))
        times = (5.0000001, 5.0000004)
        online = [EpsilonDFSSampler(close, 2, 1).sample(0, t) for t in times]
        assert [row.tolist() for row in online] == [[1], [1, 2]]
        cached = PrecomputedSampler(EpsilonDFSSampler(close, 2, 1))
        for t, want in zip(times, online):
            np.testing.assert_array_equal(cached.sample(0, t), want)
        batch = PrecomputedSampler(EpsilonDFSSampler(close, 2, 1)
                                   ).sample_batch(np.zeros(2, dtype=np.int64),
                                                  np.array(times))
        for row, want in enumerate(online):
            np.testing.assert_array_equal(batch.row(row), want)

    def test_hit_miss_counters(self):
        finder = NeighborFinder(star_stream())
        cached = PrecomputedSampler(EpsilonDFSSampler(finder, 2, 1))
        cached.sample(0, 6.0)
        cached.sample(0, 6.0)
        cached.sample(0, 5.0)
        assert cached.hits == 1
        assert cached.misses == 2
        info = cached.cache_info()
        assert info == {"hits": 1, "misses": 2, "size": 2, "capacity": None}

    def test_capacity_bounds_cache(self):
        finder = NeighborFinder(star_stream())
        cached = PrecomputedSampler(EpsilonDFSSampler(finder, 2, 1), capacity=2)
        for t in (3.0, 4.0, 5.0, 6.0):
            cached.sample(0, t)
        assert cached.cache_size == 2

    def test_lru_evicts_least_recently_used(self):
        finder = NeighborFinder(star_stream())
        cached = PrecomputedSampler(EpsilonDFSSampler(finder, 2, 1), capacity=2)
        cached.sample(0, 3.0)
        cached.sample(0, 4.0)
        cached.sample(0, 3.0)        # refresh (0, 3.0)
        cached.sample(0, 5.0)        # evicts (0, 4.0)
        assert cached.hits == 1
        cached.sample(0, 3.0)
        assert cached.hits == 2      # survived eviction
        cached.sample(0, 4.0)
        assert cached.misses == 4    # 3.0, 4.0, 5.0, then 4.0 again

    def test_rejects_bad_capacity(self):
        finder = NeighborFinder(star_stream())
        with pytest.raises(ValueError):
            PrecomputedSampler(EpsilonDFSSampler(finder, 2, 1), capacity=0)
