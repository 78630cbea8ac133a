"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (chronological_probability,
                        reverse_chronological_probability)
from repro.graph import EventStream, NeighborFinder
from repro.nn import Tensor
from repro.nn import functional as F
from repro.tasks import average_precision_score, roc_auc_score

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

small_floats = st.floats(min_value=-50.0, max_value=50.0,
                         allow_nan=False, allow_infinity=False)


@st.composite
def event_streams(draw):
    n_events = draw(st.integers(min_value=1, max_value=60))
    num_nodes = draw(st.integers(min_value=2, max_value=15))
    src = draw(hnp.arrays(np.int64, n_events,
                          elements=st.integers(0, num_nodes - 1)))
    dst = draw(hnp.arrays(np.int64, n_events,
                          elements=st.integers(0, num_nodes - 1)))
    ts = draw(hnp.arrays(np.float64, n_events,
                         elements=st.floats(0.0, 1000.0, allow_nan=False)))
    return EventStream(src=src, dst=dst, timestamps=ts, num_nodes=num_nodes)


@st.composite
def matrices(draw, max_rows=8, max_cols=8):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    return draw(hnp.arrays(np.float64, (rows, cols), elements=small_floats))


# ----------------------------------------------------------------------
# EventStream invariants
# ----------------------------------------------------------------------

@given(event_streams())
@settings(max_examples=50, deadline=None)
def test_stream_always_chronological(stream):
    assert (np.diff(stream.timestamps) >= 0).all()


@given(event_streams(), st.floats(0.0, 1000.0, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_slice_time_partitions_events(stream, cut):
    before = stream.slice_time(t_end=cut)
    after = stream.slice_time(t_start=cut)
    assert before.num_events + after.num_events == stream.num_events
    if before.num_events:
        assert before.t_max < cut
    if after.num_events:
        assert after.t_min >= cut


@given(event_streams())
@settings(max_examples=30, deadline=None)
def test_split_fraction_conserves_events(stream):
    parts = stream.split_fraction([0.6, 0.2, 0.1, 0.1])
    assert sum(p.num_events for p in parts) == stream.num_events


# ----------------------------------------------------------------------
# NeighborFinder invariants
# ----------------------------------------------------------------------

@given(event_streams(), st.floats(0.0, 1000.0, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_neighbor_counts_match_event_counts(stream, t):
    finder = NeighborFinder(stream)
    total = sum(finder.degree(n, t) for n in range(stream.num_nodes))
    expected = 2 * int((stream.timestamps < t).sum())
    assert total == expected


@given(event_streams(), st.integers(0, 14), st.floats(0.0, 1000.0,
                                                      allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_before_returns_only_past_events(stream, node, t):
    node = node % stream.num_nodes
    finder = NeighborFinder(stream)
    _, times, _ = finder.before(node, t)
    assert (times < t).all()
    assert (np.diff(times) >= 0).all()


@given(event_streams(), st.integers(1, 5))
@settings(max_examples=30, deadline=None)
def test_most_recent_is_suffix_of_before(stream, count):
    finder = NeighborFinder(stream)
    t = stream.t_max + 1.0
    for node in range(stream.num_nodes):
        all_n, all_t, _ = finder.before(node, t)
        recent_n, recent_t, _ = finder.most_recent(node, t, count)
        assert len(recent_n) == min(count, len(all_n))
        np.testing.assert_array_equal(recent_n, all_n[len(all_n) - len(recent_n):])


# ----------------------------------------------------------------------
# Sampling probability invariants (paper Eq. 6-8)
# ----------------------------------------------------------------------

@given(hnp.arrays(np.float64, st.integers(1, 30),
                  elements=st.floats(0.0, 99.0, allow_nan=False)),
       st.floats(100.0, 200.0), st.floats(0.05, 5.0))
@settings(max_examples=100, deadline=None)
def test_probabilities_are_distributions(times, t, tau):
    for fn in (chronological_probability, reverse_chronological_probability):
        probs = fn(times, t, tau)
        assert probs.shape == times.shape
        assert (probs >= 0).all()
        np.testing.assert_allclose(probs.sum(), 1.0, rtol=1e-9)


@given(hnp.arrays(np.float64, st.integers(2, 30),
                  elements=st.floats(0.0, 99.0, allow_nan=False)),
       st.floats(100.0, 200.0), st.floats(0.05, 5.0))
@settings(max_examples=100, deadline=None)
def test_chronological_monotone_in_event_time(times, t, tau):
    probs = chronological_probability(times, t, tau)
    order = np.argsort(times)
    sorted_probs = probs[order]
    assert (np.diff(sorted_probs) >= -1e-12).all()


# ----------------------------------------------------------------------
# Autograd / functional invariants
# ----------------------------------------------------------------------

@given(matrices())
@settings(max_examples=50, deadline=None)
def test_softmax_rows_are_distributions(data):
    out = F.softmax(Tensor(data)).data
    assert (out >= 0).all()
    np.testing.assert_allclose(out.sum(axis=-1), np.ones(data.shape[0]),
                               rtol=1e-9)


@given(matrices(), matrices())
@settings(max_examples=50, deadline=None)
def test_addition_commutes(a, b):
    if a.shape != b.shape:
        return
    left = (Tensor(a) + Tensor(b)).data
    right = (Tensor(b) + Tensor(a)).data
    np.testing.assert_allclose(left, right)


@given(matrices())
@settings(max_examples=50, deadline=None)
def test_sum_grad_is_ones(data):
    t = Tensor(data, requires_grad=True)
    t.sum().backward()
    np.testing.assert_allclose(t.grad, np.ones_like(data))


@given(matrices())
@settings(max_examples=50, deadline=None)
def test_l2_normalize_idempotent(data):
    x = Tensor(np.abs(data) + 0.1)  # keep rows away from the zero vector
    once = F.l2_normalize(x).data
    twice = F.l2_normalize(Tensor(once)).data
    np.testing.assert_allclose(once, twice, atol=1e-8)


@given(matrices(max_rows=6, max_cols=6))
@settings(max_examples=50, deadline=None)
def test_euclidean_distance_symmetry_and_identity(data):
    a = Tensor(data)
    b = Tensor(data[::-1].copy())
    d_ab = F.euclidean_distance(a, b).data
    d_ba = F.euclidean_distance(b, a).data
    np.testing.assert_allclose(d_ab, d_ba, rtol=1e-9)
    d_aa = F.euclidean_distance(a, a).data
    np.testing.assert_allclose(d_aa, np.zeros(len(d_aa)), atol=1e-5)


# ----------------------------------------------------------------------
# Metric invariants
# ----------------------------------------------------------------------

@given(st.integers(2, 200), st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_auc_invariant_to_monotone_transform(n, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    scores = rng.random(n)
    raw = roc_auc_score(labels, scores)
    transformed = roc_auc_score(labels, np.exp(3.0 * scores))
    assert raw == transformed


@given(st.integers(2, 200), st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_auc_complement_symmetry(n, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    scores = rng.random(n)
    a = roc_auc_score(labels, scores)
    b = roc_auc_score(1 - labels, -scores)
    np.testing.assert_allclose(a, b, atol=1e-12)


@given(st.integers(2, 100), st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_average_precision_bounded_by_prevalence_floor(n, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    if labels.sum() == 0:
        labels[0] = 1
    scores = rng.random(n)
    ap = average_precision_score(labels, scores)
    assert 0.0 < ap <= 1.0
