"""Batched-vs-reference equivalence for the CSR sampling engine.

Property tests (hypothesis over random event streams) asserting that the
vectorized batch queries — ``batch_before`` / ``batch_most_recent`` — and
the whole-frontier ``sample_batch`` kernels agree with the per-node
reference implementations element-for-element, including empty-history
and all-padded rows.  The per-root η-BFS / ε-DFS walks the kernels
replaced live here, as the oracles :func:`eta_bfs_reference` and
:func:`eps_dfs_reference`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import (EpsilonDFSSampler, EtaBFSSampler, PrecomputedSampler,
                        SubgraphBatch)
from repro.core.probability import segment_log_weights
from repro.core.samplers import ENVELOPE_BLOCK, RACE_MAX_WIDTH
from repro.graph import EventStream, NeighborFinder
from repro.nn import Tensor
from repro.nn import functional as F


def random_stream(seed: int, num_nodes: int, num_events: int) -> EventStream:
    rng = np.random.default_rng(seed)
    return EventStream(
        src=rng.integers(0, num_nodes, num_events),
        dst=rng.integers(0, num_nodes, num_events),
        timestamps=np.sort(rng.random(num_events) * 100.0),
        num_nodes=num_nodes,
    )


def random_queries(seed: int, num_nodes: int, batch: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Query rows spanning empty histories (t near 0) to full ones."""
    rng = np.random.default_rng(seed + 1)
    nodes = rng.integers(0, num_nodes, batch)
    ts = rng.random(batch) * 130.0  # beyond t_max to cover full histories
    ts[: batch // 4] = 0.0          # guaranteed all-padded rows
    return nodes, ts


def _walk(root: int, depth: int, expand) -> np.ndarray:
    """Frontier walk shared by both oracles: ``expand(node)`` yields the
    picks of one frontier occurrence; first sightings are collected."""
    collected: list[int] = []
    seen = {int(root)}
    frontier = [int(root)]
    for _ in range(depth):
        next_frontier: list[int] = []
        for node in frontier:
            for picked in map(int, expand(node)):
                next_frontier.append(picked)
                if picked not in seen:
                    seen.add(picked)
                    collected.append(picked)
        frontier = next_frontier
        if not frontier:
            break
    return np.array(collected, dtype=np.int64)


def eta_bfs_reference(sampler: EtaBFSSampler, root: int, t: float
                      ) -> np.ndarray:
    """Per-root η-BFS (pre-vectorization semantics): every frontier node
    draws with ``choice(replace=False, p=Eq. 7/8)`` from the sampler's
    own generator."""
    def expand(node):
        neighbors, times, _ = sampler.finder.before(node, t)
        if len(neighbors) == 0:
            return ()
        probs = sampler.probability(times, t, sampler.tau)
        # Clamp to the non-zero support: choice(replace=False) raises
        # when the softmax underflows below the draw size.
        count = min(sampler.eta, int(np.count_nonzero(probs)))
        return neighbors[sampler._rng.choice(len(neighbors), size=count,
                                             replace=False, p=probs)]
    return _walk(root, sampler.depth, expand)


def eps_dfs_reference(sampler: EpsilonDFSSampler, root: int, t: float
                      ) -> np.ndarray:
    """Per-root ε-DFS: the ε most recent neighbours of every frontier
    node (Eq. 5), in chronological order."""
    return _walk(root, sampler.depth, lambda node: sampler.finder.most_recent(
        node, t, sampler.epsilon)[0])


stream_params = st.tuples(
    st.integers(min_value=0, max_value=2 ** 31 - 1),   # seed
    st.integers(min_value=2, max_value=40),            # num_nodes
    st.integers(min_value=0, max_value=300),           # num_events
)


class TestBatchQueries:
    @settings(max_examples=25, deadline=None)
    @given(stream_params)
    def test_batch_before_matches_per_node(self, params):
        seed, num_nodes, num_events = params
        finder = NeighborFinder(random_stream(seed, num_nodes, num_events))
        nodes, ts = random_queries(seed, num_nodes, 32)
        starts, ends = finder.batch_before(nodes, ts)
        for i in range(len(nodes)):
            neighbors, times, events = finder.before(int(nodes[i]), float(ts[i]))
            np.testing.assert_array_equal(
                neighbors, finder.neighbors[starts[i]:ends[i]])
            np.testing.assert_array_equal(
                times, finder.times[starts[i]:ends[i]])
            np.testing.assert_array_equal(
                events, finder.event_ids[starts[i]:ends[i]])
            assert ends[i] - starts[i] == finder.degree(int(nodes[i]), float(ts[i]))

    @settings(max_examples=25, deadline=None)
    @given(stream_params, st.integers(min_value=1, max_value=12))
    def test_batch_most_recent_matches_per_node(self, params, count):
        seed, num_nodes, num_events = params
        finder = NeighborFinder(random_stream(seed, num_nodes, num_events))
        nodes, ts = random_queries(seed, num_nodes, 32)
        out_n, out_t, out_e, mask = finder.batch_most_recent(nodes, ts, count)
        assert out_n.shape == out_t.shape == out_e.shape == mask.shape == (32, count)
        for i in range(len(nodes)):
            neighbors, times, events = finder.most_recent(
                int(nodes[i]), float(ts[i]), count)
            k = len(neighbors)
            # Left padding: zeros + True mask, valid suffix chronological.
            assert mask[i, :count - k].all()
            assert not mask[i, count - k:].any()
            np.testing.assert_array_equal(out_n[i, count - k:], neighbors)
            np.testing.assert_array_equal(out_t[i, count - k:], times)
            np.testing.assert_array_equal(out_e[i, count - k:], events)
            assert out_n[i, :count - k].sum() == 0

    def test_empty_query_batch(self):
        finder = NeighborFinder(random_stream(1, 10, 50))
        none = np.empty(0, dtype=np.int64)
        no_ts = np.empty(0, dtype=np.float64)
        starts, ends = finder.batch_before(none, no_ts)
        assert len(starts) == len(ends) == 0
        out = finder.batch_most_recent(none, no_ts, 5)
        assert all(a.shape == (0, 5) for a in out)

    def test_empty_stream_all_padded(self):
        finder = NeighborFinder(EventStream(src=[], dst=[], timestamps=[],
                                            num_nodes=5))
        nodes = np.array([0, 3])
        ts = np.array([1.0, 2.0])
        starts, ends = finder.batch_before(nodes, ts)
        assert (starts == ends).all()
        _, _, _, mask = finder.batch_most_recent(nodes, ts, 4)
        assert mask.all()


class TestEpsilonDFSEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(stream_params, st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=3))
    def test_sample_batch_matches_reference_exactly(self, params, epsilon, depth):
        seed, num_nodes, num_events = params
        finder = NeighborFinder(random_stream(seed, num_nodes, num_events))
        sampler = EpsilonDFSSampler(finder, epsilon=epsilon, depth=depth)
        nodes, ts = random_queries(seed, num_nodes, 24)
        batch = sampler.sample_batch(nodes, ts)
        assert len(batch) == 24
        for i in range(24):
            reference = eps_dfs_reference(sampler, int(nodes[i]),
                                          float(ts[i]))
            np.testing.assert_array_equal(batch.row(i), reference)

    def test_per_root_sample_is_batch_row(self):
        finder = NeighborFinder(random_stream(3, 30, 200))
        sampler = EpsilonDFSSampler(finder, epsilon=3, depth=2)
        np.testing.assert_array_equal(sampler.sample(5, 90.0),
                                      sampler.sample_batch(
                                          np.array([5]), np.array([90.0])).row(0))


class TestEtaBFSEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(stream_params, st.integers(min_value=1, max_value=3))
    def test_exhaustive_width_matches_reference_sets(self, params, depth):
        """With η ≥ every degree both paths select all neighbours, so the
        sampled node *sets* are deterministic and must coincide."""
        seed, num_nodes, num_events = params
        finder = NeighborFinder(random_stream(seed, num_nodes, num_events))
        # Nothing is cut at η = 1000, so one root's last frontier can hold
        # max_degree ** depth occurrences (300 ** 3 on a two-node graph).
        assume(int(np.diff(finder.indptr).max()) ** depth <= 4096)
        sampler = EtaBFSSampler(finder, eta=1000, depth=depth,
                                probability="uniform", seed=0)
        nodes, ts = random_queries(seed, num_nodes, 16)
        batch = sampler.sample_batch(nodes, ts)
        for i in range(16):
            reference = eta_bfs_reference(sampler, int(nodes[i]),
                                          float(ts[i]))
            assert set(batch.row(i).tolist()) == set(reference.tolist())

    @settings(max_examples=15, deadline=None)
    @given(stream_params, st.sampled_from(["chronological", "reverse", "uniform"]))
    def test_batch_respects_width_time_and_root_exclusion(self, params, mode):
        seed, num_nodes, num_events = params
        finder = NeighborFinder(random_stream(seed, num_nodes, num_events))
        sampler = EtaBFSSampler(finder, eta=2, depth=1, probability=mode, seed=1)
        nodes, ts = random_queries(seed, num_nodes, 24)
        batch = sampler.sample_batch(nodes, ts)
        for i in range(24):
            row = batch.row(i)
            assert len(row) <= 2
            assert int(nodes[i]) not in row
            assert len(set(row.tolist())) == len(row)
            valid, _, _ = finder.before(int(nodes[i]), float(ts[i]))
            assert set(row.tolist()) <= set(valid.tolist())

    def test_chronological_distribution_matches_reference(self):
        """Gumbel top-k and sequential choice() draw the same marginals."""
        stream = EventStream(src=[0] * 5, dst=[1, 2, 3, 4, 5],
                             timestamps=[1.0, 2.0, 3.0, 4.0, 5.0], num_nodes=6)
        finder = NeighborFinder(stream)
        sampler = EtaBFSSampler(finder, eta=1, depth=1,
                                probability="chronological", tau=0.2, seed=0)
        trials = 4000
        batch = sampler.sample_batch(np.zeros(trials, dtype=np.int64),
                                     np.full(trials, 6.0))
        batch_counts = np.bincount(batch.nodes, minlength=6)
        ref_counts = np.zeros(6, dtype=np.int64)
        for _ in range(trials):
            for node in eta_bfs_reference(sampler, 0, 6.0):
                ref_counts[node] += 1
        # Same expected frequencies: compare within 4-sigma of binomial noise.
        probs = ref_counts[1:] / trials
        sigma = np.sqrt(np.maximum(probs * (1 - probs) / trials, 1e-12))
        np.testing.assert_allclose(batch_counts[1:] / trials, probs,
                                   atol=float(4 * sigma.max()) + 0.01)

    @pytest.mark.parametrize("probability", ["softmax", lambda t, q, tau: t])
    def test_unknown_mode_is_a_value_error_naming_the_modes(self,
                                                             probability):
        finder = NeighborFinder(random_stream(9, 20, 150))
        with pytest.raises(ValueError,
                           match="chronological.*reverse.*uniform"):
            EtaBFSSampler(finder, eta=3, depth=1, probability=probability)


def flat_race(sampler: EtaBFSSampler, starts, deg, qts, t_min, rng):
    """The race as it was before it scored in its padded matrices: flat
    per-candidate weights (one max-shifted softmax per segment), scattered
    into one zero-padded ``(occurrences, 2^c)`` matrix per ceil-pow2
    degree class."""
    seg_off = np.zeros(len(deg) + 1, dtype=np.int64)
    np.cumsum(deg, out=seg_off[1:])
    seg_id = np.repeat(np.arange(len(deg), dtype=np.int64), deg)
    local = np.arange(seg_off[-1], dtype=np.int64) - seg_off[seg_id]
    logw = segment_log_weights(sampler.finder.times[local + starts[seg_id]],
                               qts[seg_id], t_min[seg_id], sampler.tau,
                               sampler.mode)
    seg_max = np.maximum.reduceat(logw, seg_off[:-1])
    with np.errstate(invalid="ignore"):
        w = np.exp(logw - seg_max[seg_id])
    exps = np.ceil(np.log2(deg)).astype(np.int64)
    class_row = np.empty(len(deg), dtype=np.int64)
    flat, occ, matrices = [], [], []
    for exp in np.unique(exps):
        members = np.nonzero(exps == exp)[0]
        class_row[members] = np.arange(len(members))
        cand = exps[seg_id] == exp
        weights = np.zeros((len(members), 1 << int(exp)))
        weights[class_row[seg_id[cand]], local[cand]] = w[cand]
        matrices.append(weights)
        race = rng.exponential(size=weights.shape)
        with np.errstate(divide="ignore", over="ignore"):
            race /= weights
        part = np.argpartition(race, sampler.eta - 1, axis=1)[:, :sampler.eta]
        ok = np.isfinite(np.take_along_axis(race, part, axis=1))
        flat.append((starts[members][:, None] + part)[ok])
        occ.append(members[np.nonzero(ok)[0]])
    return np.concatenate(flat), np.concatenate(occ), exps, matrices


class TestPaddedRace:
    """The race scores its candidates straight in the padded matrices;
    the old flat-then-scatter race is the oracle, bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(stream_params,
           st.sampled_from(["chronological", "reverse", "uniform"]),
           st.sampled_from([0.2, 1e-3, 1e-5]),
           st.integers(min_value=1, max_value=4))
    def test_padded_race_equals_flat_scatter(self, params, mode, tau, eta):
        seed, num_nodes, num_events = params
        finder = NeighborFinder(random_stream(seed, num_nodes, num_events))
        sampler = EtaBFSSampler(finder, eta=eta, depth=1, probability=mode,
                                tau=tau)
        nodes, ts = random_queries(seed, num_nodes, 64)
        starts, ends = finder.batch_before(nodes, ts)
        race = (ends - starts > eta) & (ends - starts <= RACE_MAX_WIDTH)
        assume(race.any())
        starts, deg = starts[race], (ends - starts)[race]
        qts, t_min = ts[race], finder.times[starts]

        got = sampler._race(starts, deg, qts, t_min,
                            np.random.default_rng(seed))
        flat, occ, exps, matrices = flat_race(
            sampler, starts, deg, qts, t_min, np.random.default_rng(seed))
        np.testing.assert_array_equal(got[0], flat)
        np.testing.assert_array_equal(got[1], occ)
        for exp, expected in zip(np.unique(exps), matrices):
            members = exps == exp
            weights = sampler._padded_weights(
                starts[members], deg[members], qts[members], t_min[members],
                1 << int(exp))
            np.testing.assert_array_equal(weights, expected)

    @pytest.mark.parametrize("mode", ["chronological", "reverse"])
    @pytest.mark.parametrize("support", [7, 10, 12])
    def test_sharp_tau_underflow_equals_flat_scatter(self, mode, support):
        """A burst of ``support`` events at the favoured end of a race-wide
        segment: at tau = 1e-3 every other weight underflows to 0, which
        must clamp the draw exactly as the scattered matrix did."""
        spread, burst = np.linspace(0.0, 1.0, 90), \
            1000.0 + 0.01 * np.arange(support)
        times = np.concatenate([spread, burst]) if mode == "chronological" \
            else np.concatenate([burst - 1000.0, spread + 999.0])
        finder = star_finder(times)
        sampler = EtaBFSSampler(finder, eta=10, depth=1, probability=mode,
                                tau=1e-3)
        ts = np.full(8, 1001.0)
        ts[4:] = times[60] + 1e-6  # a second, narrower class of rows
        starts, ends = finder.batch_before(np.zeros(8, dtype=np.int64), ts)
        deg, t_min = ends - starts, finder.times[starts]
        got = sampler._race(starts, deg, ts, t_min, np.random.default_rng(0))
        flat, occ, _, matrices = flat_race(sampler, starts, deg, ts, t_min,
                                           np.random.default_rng(0))
        np.testing.assert_array_equal(got[0], flat)
        np.testing.assert_array_equal(got[1], occ)
        assert len(matrices) == 2
        weights = matrices[-1]  # the full segments' class
        assert ((weights > 0).sum(axis=1) == support).all()
        assert np.bincount(occ, minlength=8)[:4].tolist() == \
            [min(10, support)] * 4


class TestUnderflowRegression:
    """`rng.choice(..., replace=False, p=probs)` used to raise when the
    Eq. 7/8 softmax underflowed to fewer non-zero entries than η."""

    def wide_spread_finder(self):
        # Times spread so far apart that softmax(recency / tau) underflows
        # everything except the favoured end at tau = 1e-5.
        stream = EventStream(src=[0] * 5, dst=[1, 2, 3, 4, 5],
                             timestamps=[1.0, 2.0, 3.0, 4.0, 5.0], num_nodes=6)
        return NeighborFinder(stream)

    @pytest.mark.parametrize("mode,survivor", [("chronological", 5),
                                               ("reverse", 1)])
    def test_draw_clamped_to_nonzero_support(self, mode, survivor):
        finder = self.wide_spread_finder()
        sampler = EtaBFSSampler(finder, eta=4, depth=1, probability=mode,
                                tau=1e-5, seed=0)
        assert sampler.sample(0, 6.0).tolist() == [survivor]
        assert eta_bfs_reference(sampler, 0, 6.0).tolist() == [survivor]

    @pytest.mark.parametrize("mode", ["chronological", "reverse"])
    def test_batch_draw_clamped(self, mode):
        finder = self.wide_spread_finder()
        sampler = EtaBFSSampler(finder, eta=4, depth=2, probability=mode,
                                tau=1e-5, seed=0)
        batch = sampler.sample_batch(np.zeros(8, dtype=np.int64),
                                     np.full(8, 6.0))
        assert all(len(batch.row(i)) >= 1 for i in range(8))


def star_finder(times) -> NeighborFinder:
    """Hub 0 with one event per leaf; leaf ``i + 1`` interacts at
    ``times[i]``, so a picked node id names the event time it came from."""
    times = np.asarray(times, dtype=np.float64)
    return NeighborFinder(EventStream(
        src=np.zeros(len(times), dtype=np.int64),
        dst=np.arange(1, len(times) + 1), timestamps=times,
        num_nodes=len(times) + 2))


class TestWideSegments:
    """Segments wider than ``RACE_MAX_WIDTH`` draw by successive sampling
    under a block envelope; each test fails on a *wrong* draw, not a slow
    one."""

    HUB_DEGREE = 20 * ENVELOPE_BLOCK  # 1 280 leaves

    def hub_times(self) -> np.ndarray:
        return np.sort(np.random.default_rng(0).uniform(0.0, 100.0,
                                                        self.HUB_DEGREE))

    @staticmethod
    def assert_same_inclusion(picks_a, trials_a, picks_b, trials_b, bins):
        """Per-bin inclusion rates of two samplers agree within 4.5 sigma.

        A bin's per-trial pick count is a sum of negatively correlated
        indicators, so its variance is at most its mean.
        """
        a = np.bincount(picks_a // bins[0], minlength=bins[1])[:bins[1]]
        b = np.bincount(picks_b // bins[0], minlength=bins[1])[:bins[1]]
        pooled = (a + b) / (trials_a + trials_b)
        sigma = np.sqrt(pooled / trials_a + pooled / trials_b)
        z = (a / trials_a - b / trials_b) / np.maximum(sigma, 1e-12)
        assert np.abs(z).max() < 4.5, z

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("mode", ["chronological", "reverse", "uniform"])
    def test_inclusion_frequencies_match_reference(self, mode, depth):
        """Half-envelope-block bins: a draw that follows the envelope
        instead of the weights (no acceptance step) skews every pair of
        neighbouring bins by ~14 % at tau = 0.2."""
        times = self.hub_times()
        stream = star_finder(times)
        root = 0
        if depth == 2:
            # One extra node whose only neighbour is the hub.
            root = self.HUB_DEGREE + 1
            stream = NeighborFinder(EventStream(
                src=np.append(np.zeros(len(times), dtype=np.int64), root),
                dst=np.append(np.arange(1, len(times) + 1), 0),
                timestamps=np.append(times, 100.5), num_nodes=root + 1))
        sampler = EtaBFSSampler(stream, eta=10, depth=depth,
                                probability=mode, tau=0.2, seed=3)
        trials, ref_trials = 12000, 3000
        batch = sampler.sample_batch(np.full(trials, root), np.full(trials,
                                                                     101.0))
        # Depth 2 adds the hub and loses a draw whenever the hub draws the
        # root back.
        assert np.isin(batch.counts(), [10, 11] if depth == 2 else [10]).all()
        reference = np.concatenate([eta_bfs_reference(sampler, root, 101.0)
                                    for _ in range(ref_trials)])

        def leaves(picks):  # drop the hub itself
            return picks[(picks > 0) & (picks <= self.HUB_DEGREE)] - 1

        half = ENVELOPE_BLOCK // 2
        self.assert_same_inclusion(leaves(batch.nodes), trials,
                                   leaves(reference), ref_trials,
                                   (half, self.HUB_DEGREE // half))

    @pytest.mark.parametrize("mode", ["chronological", "reverse"])
    def test_single_draw_matches_exact_probabilities(self, mode):
        """η = 1: the pick distribution is Eq. 7/8 itself (chi-square)."""
        times = self.hub_times()
        sampler = EtaBFSSampler(star_finder(times), eta=1, depth=1,
                                probability=mode, tau=0.2, seed=5)
        trials = 60000
        batch = sampler.sample_batch(np.zeros(trials, dtype=np.int64),
                                     np.full(trials, 101.0))
        probs = sampler.probability(times, 101.0, 0.2)
        width = 16
        observed = np.bincount((batch.nodes - 1) // width,
                               minlength=len(times) // width)
        expected = trials * probs.reshape(-1, width).sum(axis=1)
        chi2 = ((observed - expected) ** 2 / expected).sum()
        dof = len(expected) - 1
        assert chi2 < dof + 4.5 * np.sqrt(2 * dof), chi2

    @pytest.mark.parametrize("mode", ["chronological", "reverse"])
    @pytest.mark.parametrize("support", [7, 10, 12])
    def test_sharp_tau_clamps_to_support(self, mode, support):
        """A burst of ``support`` events at the favoured end of a wide
        segment; at sharp tau everything else underflows, so the draw is
        ``min(η, support)`` entries of the burst — below, at and just
        above η."""
        burst = 1000.0 + 0.01 * np.arange(support)
        spread = np.linspace(0.0, 1.0, 1000)
        if mode == "chronological":
            times, favoured = np.concatenate([spread, burst]), \
                np.arange(1000, 1000 + support) + 1
        else:
            times, favoured = np.concatenate([burst - 1000.0,
                                              spread + 999.0]), \
                np.arange(support) + 1
        sampler = EtaBFSSampler(star_finder(times), eta=10, depth=1,
                                probability=mode, tau=1e-3, seed=0)
        expected = len(eta_bfs_reference(sampler, 0, 1001.0))
        assert expected == min(10, support)
        batch = sampler.sample_batch(np.zeros(50, dtype=np.int64),
                                     np.full(50, 1001.0))
        assert (batch.counts() == expected).all()
        assert np.isin(batch.nodes, favoured).all()

    def test_skewed_wide_support_terminates(self):
        """Five entries hold all but e^-99 of the mass of a wide support:
        repeats would never yield η distinct draws, the fallback does."""
        times = np.concatenate([np.linspace(0.0, 10.0, 1000),
                                1000.0 + 0.01 * np.arange(5)])
        sampler = EtaBFSSampler(star_finder(times), eta=10, depth=1,
                                probability="chronological", tau=0.01, seed=0)
        batch = sampler.sample_batch(np.zeros(6, dtype=np.int64),
                                     np.full(6, 1001.0))
        assert (batch.counts() == 10).all()
        for row in batch:
            assert len(set(row.tolist())) == 10
            assert set(range(1001, 1006)) <= set(row.tolist())

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("mode", ["chronological", "reverse", "uniform"])
    def test_rows_sharing_a_hub_respect_their_own_cut(self, mode, depth):
        """One batch queries the same hub at many ``t`` — whole, race and
        wide regimes side by side — and never sees an event at or after
        its own ``t``."""
        times = np.sort(np.random.default_rng(1).uniform(0.0, 100.0, 2000))
        finder = star_finder(times)
        sampler = EtaBFSSampler(finder, eta=10, depth=depth, probability=mode,
                                tau=0.2, seed=0)
        rng = np.random.default_rng(2)
        ts = np.concatenate([times[[0, 5, 10, 11, 60, 128, 129, 700]],
                             rng.uniform(0.0, 110.0, 56)])
        if depth == 1:
            roots = np.zeros(len(ts), dtype=np.int64)
        else:  # leaves reach the hub at hop 1, the hub fans out at hop 2
            roots = rng.integers(1, 2001, len(ts))
        batch = sampler.sample_batch(roots, ts)
        for i, row in enumerate(batch):
            leaves = row[row > 0]
            assert (times[leaves - 1] < ts[i]).all()
            assert len(set(row.tolist())) == len(row)
            if depth == 1:
                assert len(row) == min(10, finder.degree(0, ts[i]))

    def test_same_seed_same_batch(self):
        finder = star_finder(self.hub_times())
        sampler = EtaBFSSampler(finder, eta=10, depth=1, tau=0.2)
        roots = np.zeros(32, dtype=np.int64)
        ts = np.linspace(20.0, 101.0, 32)
        first = sampler.sample_batch(roots, ts, rng=np.random.default_rng(9))
        again = sampler.sample_batch(roots, ts, rng=np.random.default_rng(9))
        other = sampler.sample_batch(roots, ts, rng=np.random.default_rng(10))
        np.testing.assert_array_equal(first.nodes, again.nodes)
        np.testing.assert_array_equal(first.indptr, again.indptr)
        assert not np.array_equal(first.nodes, other.nodes)

    def test_serial_and_spawn_worker_agree(self, spare_cores):
        """Coordinate-seeded draws: two forked producer children
        produce the serial producer's wide-segment batches."""
        from repro.stream import (ForkProducer, ProducerSpec,
                                  SerialProducer, make_producer)
        rng = np.random.default_rng(4)
        events = 600
        stream = EventStream(
            src=rng.integers(0, 50, events),
            dst=np.where(rng.random(events) < 0.6, 50,
                         rng.integers(51, 80, events)),
            timestamps=np.sort(rng.uniform(0.0, 100.0, events)),
            num_nodes=80)
        spec = ProducerSpec(batch_size=150, sample_temporal=True, eta=10,
                            depth=2, stream=stream)
        serial = list(SerialProducer(spec))
        with make_producer(spec, num_workers=2) as producer:
            assert isinstance(producer, ForkProducer)
            forked = list(producer)
        assert len(serial) == len(forked) == 4
        for a, b in zip(serial, forked):
            for name in ("temporal_pos", "temporal_neg"):
                np.testing.assert_array_equal(getattr(a, name).nodes,
                                              getattr(b, name).nodes)
                np.testing.assert_array_equal(getattr(a, name).indptr,
                                              getattr(b, name).indptr)

    def test_cost_is_independent_of_hub_degree(self):
        """Count-based, no timers: 64 rows with distinct ``t`` all reach
        one degree-4 096 hub.  Scoring every candidate reads at least
        ``64 * 4096`` time entries; the envelope reads one per block plus
        a few per draw."""
        degree, rows, eta = 4096, 64, 10

        class CountingColumn:
            def __init__(self, column):
                self.column, self.reads = column, 0

            def __getitem__(self, index):
                self.reads += np.size(index)
                return self.column[index]

        class CountingFinder:
            def __init__(self, finder):
                self.finder = finder
                self.times = CountingColumn(finder.times)

            def __getattr__(self, name):
                return getattr(self.finder, name)

        finder = CountingFinder(star_finder(np.arange(degree, dtype=float)))
        sampler = EtaBFSSampler(finder, eta=eta, depth=1, tau=0.2)
        ts = degree + 1.0 + np.arange(rows)
        batch = sampler.sample_batch(np.zeros(rows, dtype=np.int64), ts,
                                     rng=np.random.default_rng(0))
        assert (batch.counts() == eta).all()
        # c = 4: first/last entry, then 2η proposals a round and rarely a
        # second round.
        budget = rows * (degree // ENVELOPE_BLOCK + 4 * eta)
        assert budget < rows * degree // 8
        assert finder.times.reads < budget, finder.times.reads


class TestSubgraphBatch:
    def test_roundtrip_from_list(self):
        subs = [np.array([3, 1]), np.array([], dtype=np.int64), np.array([2])]
        batch = SubgraphBatch.from_list(subs)
        assert len(batch) == 3
        assert batch.counts().tolist() == [2, 0, 1]
        assert batch.groups().tolist() == [0, 0, 2]
        for got, want in zip(batch, subs):
            np.testing.assert_array_equal(got, want)

    def test_empty_batch(self):
        batch = SubgraphBatch.from_list([])
        assert len(batch) == 0
        assert len(batch.nodes) == 0

    def test_readout_accepts_batch_and_list_identically(self):
        memory = Tensor(np.arange(20, dtype=float).reshape(5, 4))
        subs = [np.array([0, 2]), np.array([], dtype=np.int64), np.array([4])]
        batch = SubgraphBatch.from_list(subs)
        from repro.core import subgraph_readout
        for mode in ("mean", "max", "sum"):
            np.testing.assert_allclose(
                subgraph_readout(memory, batch, mode).data,
                subgraph_readout(memory, subs, mode).data)


class TestScatterPools:
    def test_scatter_sum_forward_backward(self):
        values = Tensor(np.arange(12, dtype=float).reshape(4, 3),
                        requires_grad=True)
        groups = np.array([0, 0, 2, 2])
        out = F.scatter_sum(values, groups, 3)
        np.testing.assert_allclose(out.data[0], values.data[:2].sum(axis=0))
        np.testing.assert_allclose(out.data[1], np.zeros(3))
        out.sum().backward()
        np.testing.assert_allclose(values.grad, np.ones((4, 3)))

    def test_scatter_max_matches_rowwise_max(self):
        rng = np.random.default_rng(0)
        values = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        groups = np.array([0, 0, 0, 1, 1, 1])
        out = F.scatter_max(values, groups, 3)
        np.testing.assert_allclose(out.data[0], values.data[:3].max(axis=0))
        np.testing.assert_allclose(out.data[1], values.data[3:].max(axis=0))
        np.testing.assert_allclose(out.data[2], np.zeros(4))
        out.sum().backward()
        # Each column routes its unit gradient to the argmax row per group.
        np.testing.assert_allclose(values.grad.sum(axis=0), np.full(4, 2.0))

    def test_scatter_max_tie_gradient_splits(self):
        values = Tensor(np.ones((2, 3)), requires_grad=True)
        out = F.scatter_max(values, np.array([0, 0]), 1)
        out.sum().backward()
        np.testing.assert_allclose(values.grad, np.full((2, 3), 0.5))


class TestStructuralNegativeGuard:
    def test_single_node_graph_fails_fast(self):
        from repro.stream import ProducerSpec, SamplingContext, produce_batch
        stream = EventStream(src=[0], dst=[0], timestamps=[1.0], num_nodes=1)
        ctx = SamplingContext(ProducerSpec(batch_size=1, epsilon=2, depth=1,
                                           sample_structural=True),
                              stream=stream)
        item = next(iter(ctx.spec.make_plan(stream.num_events)))
        with pytest.raises(ValueError, match="at least two nodes"):
            produce_batch(ctx, item)


class TestPrecomputedBatch:
    def test_sample_batch_uses_cache(self):
        finder = NeighborFinder(random_stream(5, 25, 150))
        cached = PrecomputedSampler(EpsilonDFSSampler(finder, 3, 2))
        nodes, ts = random_queries(5, 25, 16)
        first = cached.sample_batch(nodes, ts)
        assert cached.misses == len(np.unique(
            [cached._key(r, t) for r, t in zip(nodes, ts)], axis=0))
        before_hits = cached.hits
        second = cached.sample_batch(nodes, ts)
        assert cached.hits == before_hits + 16
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_capacity_smaller_than_batch_still_returns_rows(self):
        finder = NeighborFinder(random_stream(7, 25, 150))
        online = EpsilonDFSSampler(finder, 3, 2)
        cached = PrecomputedSampler(EpsilonDFSSampler(finder, 3, 2),
                                    capacity=2)
        nodes, ts = random_queries(7, 25, 16)
        batch = cached.sample_batch(nodes, ts)   # must survive evictions
        reference = online.sample_batch(nodes, ts)
        assert cached.cache_size <= 2
        for a, b in zip(batch, reference):
            np.testing.assert_array_equal(a, b)

    def test_batch_matches_online(self):
        finder = NeighborFinder(random_stream(6, 25, 150))
        online = EpsilonDFSSampler(finder, 3, 2)
        cached = PrecomputedSampler(EpsilonDFSSampler(finder, 3, 2))
        nodes, ts = random_queries(6, 25, 16)
        batch = cached.sample_batch(nodes, ts)
        reference = online.sample_batch(nodes, ts)
        for a, b in zip(batch, reference):
            np.testing.assert_array_equal(a, b)
