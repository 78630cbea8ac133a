"""The most-recent-neighbour ring of `DynamicNeighborFinder`.

Three answers to "the newest ``count`` neighbours of each row before its
``ts``" must agree field for field, dtype for dtype:

* the live finder's ``batch_most_recent``, which asks the ring first;
* the same query with the ring declining (its ``slots`` patched to
  return ``None``), which cuts the base and delta CSRs;
* a static ``NeighborFinder`` rebuilt from the concatenated events.

The ring may decline a batch (``_ring.slots`` returns ``None``) and must
do so exactly when the answerability rule says: ``count`` outside
``1..W``, or some queried row with more than ``W`` entries whose ``m``
held entries at or after its ``ts`` plus the newest ``count`` before them
do not fit in ``W`` (``m + min(d - m, count) > W`` at degree ``d``).
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serve.dynamic_finder as dynamic_finder
from repro.graph.events import EventStream
from repro.graph.neighbor_finder import NeighborFinder
from repro.serve import DynamicNeighborFinder, EmbeddingService, IngestError

from .test_batch_sampling import assert_slots_equal
from .test_serve import (declined, make_split_stream, pretrain_artifact,
                         tiny_config)


def rebuilt(num_nodes: int, events) -> NeighborFinder:
    """A static finder over every event so far (``events``: src, dst, ts)."""
    src, dst, ts = (np.concatenate([e[i] for e in events]) for i in range(3))
    return NeighborFinder(EventStream(src=src.astype(np.int64),
                                      dst=dst.astype(np.int64),
                                      timestamps=ts.astype(np.float64),
                                      num_nodes=num_nodes))


def newest_times(num_nodes: int, events) -> np.ndarray:
    """Per-node time of the newest event, ``-inf`` without history."""
    out = np.full(num_nodes, -np.inf)
    for src, dst, ts in events:
        np.maximum.at(out, src, ts)
        np.maximum.at(out, dst, ts)
    return out


def ring_answers(static: NeighborFinder, nodes: np.ndarray, ts: np.ndarray,
                 count: int, width: int) -> bool:
    """The answerability rule, read off a rebuilt finder's whole history:
    a node's entries at or after ``ts`` are its newest, so ``m`` of them
    are held (at most ``W``) and the ``count`` before them come next."""
    if not 1 <= count <= width:
        return False
    degree = np.diff(np.asarray(static.indptr))[nodes]
    starts, ends = static.batch_before(nodes, ts)
    cut = np.minimum(degree - (ends - starts), width)
    return bool(((degree <= width)
                 | (cut + np.minimum(degree - cut, count) <= width)).all())


def probe_everything(dyn, num_nodes, events, width, note="",
                     times=()) -> None:
    """Probe every node at the times that matter (plus every time in
    ``times``) and assert, for ``count`` 1, W / 2, W and W + 1, that the
    three answers agree and that the ring declines exactly when the rule
    says."""
    static = rebuilt(num_nodes, events)
    newest = newest_times(num_nodes, events)
    t_max = max(float(newest.max()), 0.0)

    def check(nodes, ts, label):
        nodes = np.asarray(nodes, dtype=np.int64)
        ts = np.broadcast_to(np.asarray(ts, dtype=np.float64), nodes.shape)
        # W / 2: the service's ring is twice its encoder's n_neighbors.
        for count in sorted({1, max(width // 2, 1), width, width + 1}):
            tag = f"{note} {label} count={count}"
            got = dyn.batch_most_recent(nodes, ts, count)
            assert_slots_equal(got, declined(dyn, nodes, ts, count),
                               tag + " vs csr")
            assert_slots_equal(got, static.batch_most_recent(nodes, ts,
                                                             count),
                               tag + " vs rebuilt")
            direct = dyn._ring.slots(nodes, ts, count)
            assert (direct is not None) == ring_answers(static, nodes, ts,
                                                        count, width), tag
            if direct is not None:
                assert_slots_equal(direct, got, tag + " direct")

    everyone = np.arange(num_nodes)
    check(everyone, t_max + 1.0, "latest")              # the ring's case
    check(everyone, t_max, "at-head")
    check(everyone, t_max / 2.0, "past")
    check(everyone, np.where(np.isfinite(newest), newest, 0.0), "own-newest")
    for t in times:
        check(everyone, t, f"at {t}")
    # The rule is per row, so also ask cohort by cohort: the nodes whose
    # newest event is at `t`, stamped at `t` (strict "before": the cut
    # drops their newest entries, and the ring must still answer those
    # it holds enough of), and every node that is older than that,
    # stamped at `t` (nothing cut).
    for t in np.unique(newest[np.isfinite(newest)]):
        check(np.flatnonzero(newest == t), t, f"cohort {t}")
        check(np.flatnonzero(newest < t), t, f"older than {t}")


# ======================================================================
# the property: random append sequences
# ======================================================================

@st.composite
def scenarios(draw):
    num_nodes = draw(st.integers(2, 9))
    width = draw(st.integers(1, 4))
    clock = 0

    def block(max_events):
        nonlocal clock
        size = draw(st.integers(1, max_events))
        # Small id space + small time steps: hot nodes (more than `width`
        # entries in one block), self-loops and ties in time are common.
        src = draw(st.lists(st.integers(0, num_nodes - 1), min_size=size,
                            max_size=size))
        dst = draw(st.lists(st.integers(0, num_nodes - 1), min_size=size,
                            max_size=size))
        steps = draw(st.lists(st.integers(0, 2), min_size=size,
                              max_size=size))
        ts = clock + np.cumsum(steps)
        clock = int(ts[-1])
        return (np.asarray(src), np.asarray(dst), ts.astype(np.float64))

    base = block(8) if draw(st.booleans()) else None
    blocks = [block(10) for _ in range(draw(st.integers(1, 5)))]
    # What happens after each block: nothing, a synchronous compaction, or
    # a background-style job snapshotted now and committed one block later.
    actions = draw(st.lists(st.sampled_from(["none", "compact", "job"]),
                            min_size=len(blocks), max_size=len(blocks)))
    return num_nodes, width, base, blocks, actions


def _empty_base(num_nodes: int) -> EventStream:
    none = np.empty(0, dtype=np.int64)
    return EventStream(src=none, dst=none, timestamps=np.empty(0),
                       num_nodes=num_nodes)


@settings(max_examples=120, deadline=None)
@given(scenarios())
def test_ring_equals_csr_equals_rebuilt(scenario):
    num_nodes, width, base, blocks, actions = scenario
    events = [base] if base is not None else []
    start = (_empty_base(num_nodes) if base is None
             else EventStream(src=base[0], dst=base[1], timestamps=base[2],
                              num_nodes=num_nodes))
    dyn = DynamicNeighborFinder(start, compaction_threshold=None,
                                ring_width=width)
    if events:
        probe_everything(dyn, num_nodes, events, width, "base")
    pending = None
    for i, (blk, action) in enumerate(zip(blocks, actions)):
        dyn.append(*blk)
        events.append(blk)
        if pending is not None:
            # The job covers the blocks before this one only.
            dyn.build_compaction(pending)
            dyn.commit_compaction(pending)
            pending = None
        if action == "compact":
            dyn.compact()
        elif action == "job":
            pending = dyn.compaction_job()
        probe_everything(dyn, num_nodes, events, width, f"block {i}")


@st.composite
def tied_streams(draw):
    """Blocks on integer times where three steps in four are 0: many
    events share a timestamp, often more than the ring holds per node."""
    num_nodes = draw(st.integers(2, 6))
    width = draw(st.integers(1, 4))
    clock = 0
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        size = draw(st.integers(1, 12))
        ids = st.lists(st.integers(0, num_nodes - 1), min_size=size,
                       max_size=size)
        src, dst = draw(ids), draw(ids)
        steps = draw(st.lists(st.sampled_from([0, 0, 0, 1]), min_size=size,
                              max_size=size))
        ts = clock + np.cumsum(steps)
        clock = int(ts[-1])
        blocks.append((np.asarray(src), np.asarray(dst),
                       ts.astype(np.float64)))
    return num_nodes, width, blocks


@settings(max_examples=120, deadline=None)
@given(tied_streams())
def test_time_cut_with_ties_equals_csr_equals_rebuilt(stream):
    """The per-row time cut where it is hardest: probes at every tied
    time (a row's cut then drops all its entries at that time, possibly
    more than ``W``), half a step before each (the past, down to before
    the first event, where every row is fully cut: a row the ring holds
    whole reads the null row, any other declines) and at the newest
    time."""
    num_nodes, width, blocks = stream
    dyn = DynamicNeighborFinder(_empty_base(num_nodes),
                                compaction_threshold=None, ring_width=width)
    for blk in blocks:
        dyn.append(*blk)
    tied = np.unique(np.concatenate([blk[2] for blk in blocks]))
    probe_everything(dyn, num_nodes, blocks, width, "tied",
                     times=np.concatenate([tied, tied - 0.5]))


# ======================================================================
# named cases
# ======================================================================

def test_named_cases():
    """Hot node in one block, self-loops, a node first seen live, ties in
    time and one-event blocks, each checked on its own."""
    num_nodes, width = 8, 3
    base = (np.array([0, 1]), np.array([1, 2]), np.array([1.0, 2.0]))
    dyn = DynamicNeighborFinder(
        EventStream(src=base[0], dst=base[1], timestamps=base[2],
                    num_nodes=num_nodes),
        compaction_threshold=None, ring_width=width)
    events = [base]
    blocks = [
        # node 0 five times (> width) in one block, as src and as dst
        (np.array([0, 3, 0, 0, 4]), np.array([3, 0, 4, 5, 0]),
         np.array([3.0, 3.0, 4.0, 5.0, 5.0])),
        # self-loops, one of them on a node first seen live (7), tied times
        (np.array([7, 2, 7]), np.array([7, 2, 6]), np.array([5.0, 5.0, 5.0])),
        # one event
        (np.array([6]), np.array([1]), np.array([9.0])),
    ]
    for i, blk in enumerate(blocks):
        dyn.append(*blk)
        events.append(blk)
        probe_everything(dyn, num_nodes, events, width, f"named {i}")
    # History-less rows come out of the null row as the flagged zero slot.
    lonely = DynamicNeighborFinder(_empty_base(4), ring_width=2)
    slots = lonely._ring.slots(np.arange(4), np.full(4, 1.0), 2)
    assert slots.dummy.all() and not slots.neighbors.any()
    assert not slots.times.any() and not slots.event_ids.any()
    np.testing.assert_array_equal(slots.starts, np.arange(4))
    assert_slots_equal(slots, declined(lonely, np.arange(4),
                                       np.full(4, 1.0), 2))
    # So do rows whose held entries are all cut: node 0's two entries
    # sit at the query time, so it must read the null row's zero slot,
    # not its own column 0 flagged as dummy.
    cut = DynamicNeighborFinder(
        EventStream(src=np.array([0, 0]), dst=np.array([1, 2]),
                    timestamps=np.array([4.0, 4.0]), num_nodes=3),
        ring_width=2)
    nodes, ts = np.array([0, 1, 2]), np.full(3, 4.0)
    slots = cut._ring.slots(nodes, ts, 2)
    assert slots is not None and slots.dummy.all()
    assert not slots.neighbors.any() and not slots.times.any()
    assert not slots.event_ids.any()
    assert_slots_equal(slots, declined(cut, nodes, ts, 2))


def test_growth_past_initial_capacity():
    num_nodes, width = 600, 2
    dyn = DynamicNeighborFinder(_empty_base(num_nodes),
                                compaction_threshold=None, ring_width=width)
    ring = dyn._ring
    capacity = len(ring.degree)
    assert ring.used == 1 and capacity < 150
    events = []
    for lo, t in ((0, 1.0), (150, 2.0), (300, 3.0)):
        # Each block ties 150 nodes of the block before to 150 new ones.
        blk = (np.arange(lo, lo + 150), np.arange(lo + 150, lo + 300),
               np.full(150, t))
        dyn.append(*blk)
        events.append(blk)
        # Rows that existed before the growth keep degree and newest time:
        # "own-newest" probes must still cut exactly their newest entries.
        probe_everything(dyn, num_nodes, events, width, f"grown to {lo}")
    assert len(ring.degree) > capacity
    assert ring.used == 1 + num_nodes
    assert len(ring.neighbors) == len(ring.newest) == len(ring.degree)


def _ring_state(dyn):
    ring = dyn._ring
    return ([getattr(ring, name)[:ring.used].copy()
             for name in ring._ARRAYS] + [ring.slot_of.copy()],
            ring.used, len(dyn._buf_src), dyn.num_events, dyn.delta_events)


def test_rejected_append_changes_nothing():
    full, pre, suffix = make_split_stream(seed=5)
    dyn = DynamicNeighborFinder(pre, compaction_threshold=None, ring_width=4)
    half = suffix.num_events // 2
    dyn.append(suffix.src[:half], suffix.dst[:half], suffix.timestamps[:half])
    arrays, *scalars = _ring_state(dyn)
    src, dst, ts = (suffix.src[half:], suffix.dst[half:],
                    suffix.timestamps[half:])
    bad_id = src.copy()
    bad_id[-1] = full.num_nodes
    with pytest.raises(IngestError):
        dyn.append(src, dst, ts[::-1])                  # descending times
    with pytest.raises(IngestError):
        dyn.append(bad_id, dst, ts)                     # id out of range
    with pytest.raises(IngestError):
        dyn.append(src, dst, ts, event_ids=np.arange(len(src)))
    with pytest.raises(IngestError):
        dyn.append(src, dst, ts - 1000.0)               # older than indexed
    after, *scalars_after = _ring_state(dyn)
    assert scalars == scalars_after
    for a, b in zip(arrays, after):
        np.testing.assert_array_equal(a, b)
    dyn.append(src, dst, ts)
    events = [(s.src, s.dst, s.timestamps) for s in (pre, suffix)]
    probe_everything(dyn, full.num_nodes, events, 4, "after rejects")


# ======================================================================
# through the service: compaction modes and snapshot / restore
# ======================================================================

@pytest.fixture(scope="module")
def artifact_and_streams():
    full, pre, suffix = make_split_stream(seed=3)
    return pretrain_artifact(pre, tiny_config("tgn")), pre, suffix


def test_service_ring_survives_compaction_and_restore(artifact_and_streams,
                                                      tmp_path):
    artifact, pre, suffix = artifact_and_streams
    # A fixed multiple, not a setting: room for n_neighbors tied entries.
    width = 2 * artifact.run_config.pretrain.n_neighbors
    num_nodes = pre.num_nodes
    knobs = dict(history=pre, cache_capacity=0, compaction_threshold=25)
    background = EmbeddingService.from_artifact(artifact, **knobs)
    sync = EmbeddingService.from_artifact(artifact, **knobs,
                                          background_compaction=False)
    try:
        assert background.finder._ring.width == width
        events = [(pre.src, pre.dst, pre.timestamps)]
        half = suffix.num_events // 2
        for lo in range(0, half, 20):
            blk = (suffix.src[lo:lo + 20], suffix.dst[lo:lo + 20],
                   suffix.timestamps[lo:lo + 20])
            events.append(blk)
            for service in (background, sync):
                service.ingest(src=blk[0], dst=blk[1], timestamps=blk[2])
                # Readers hold the engine lock, as the service's own
                # queries do: the background compactor commits under it.
                with service._lock:
                    probe_everything(service.finder, num_nodes, events,
                                     width, f"service block {lo}")
        assert background._compactor.drain()
        assert int(sync.finder.compactions) >= 1
        assert int(background.finder.compactions) >= 1
        path = str(tmp_path / "replica.npz")
        background.snapshot(path)
        restored = EmbeddingService.from_snapshot(artifact, path,
                                                  cache_capacity=0)
        try:
            assert restored.finder._ring.width == width
            probe_everything(restored.finder, num_nodes, events, width,
                             "restored")
            t = float(suffix.timestamps[half - 1]) + 1.0
            probes = np.arange(num_nodes)
            want = sync.embed(probes, t)
            np.testing.assert_array_equal(background.embed(probes, t), want)
            np.testing.assert_array_equal(restored.embed(probes, t), want)
        finally:
            restored.close()
    finally:
        background.close()
        sync.close()


# ======================================================================
# cost: what a latest-time or at-head read schedule no longer does
# ======================================================================

def _count_calls(monkeypatch, owner, name) -> list:
    """Record each call of ``owner.name`` made on the calling thread (the
    background compactor lowers the delta on its own thread)."""
    calls = []
    original = getattr(owner, name)
    caller = threading.get_ident()

    def counted(*args, **kwargs):
        if threading.get_ident() == caller:
            calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_latest_time_reads_never_touch_the_csr(artifact_and_streams,
                                               monkeypatch):
    """Ingest blocks, then queries stamped after the newest event and at
    it (the block's newest event cut from the rows that hold it): zero
    bisections, zero CSR queries and zero delta-CSR lowerings on the
    request thread (was one per ingest)."""
    artifact, pre, suffix = artifact_and_streams
    service = EmbeddingService.from_artifact(artifact, history=pre,
                                             cache_capacity=0)
    bisections = _count_calls(monkeypatch, NeighborFinder, "batch_before")
    queries = _count_calls(monkeypatch, NeighborFinder, "batch_most_recent")
    lowered = _count_calls(monkeypatch, dynamic_finder, "build_temporal_csr")
    try:
        answered = service.finder._ring._answered
        before = int(answered)
        for lo in range(0, 100, 20):
            service.ingest(src=suffix.src[lo:lo + 20],
                           dst=suffix.dst[lo:lo + 20],
                           timestamps=suffix.timestamps[lo:lo + 20])
            head = float(suffix.timestamps[lo + 19])
            for t in (head + 1e-3, head):
                service.embed(np.arange(pre.num_nodes), t)
                service.score_links(np.arange(5), np.arange(30, 35), t)
        assert int(answered) - before >= 20
        assert int(service.finder._ring._declined) == 0
    finally:
        service.close()
    assert bisections == [] and queries == [] and lowered == []


def _lines_run(func, *args) -> int:
    """Python lines executed inside ``dynamic_finder`` while ``func`` runs."""
    lines = 0
    filename = dynamic_finder.__file__

    def tracer(frame, event, arg):
        nonlocal lines
        if frame.f_code.co_filename != filename:
            return None
        if event == "line":
            lines += 1
        return tracer

    sys.settrace(tracer)
    try:
        func(*args)
    finally:
        sys.settrace(None)
    return lines


def test_append_is_one_sort_and_no_per_event_loop(monkeypatch):
    rng = np.random.default_rng(0)
    num_nodes = 5_000

    def finder_and_block(size):
        dyn = DynamicNeighborFinder(_empty_base(num_nodes),
                                    compaction_threshold=None)
        src = (rng.zipf(1.3, size) - 1) % num_nodes      # hubs: > W per block
        dst = rng.integers(0, num_nodes, size)
        return dyn, (src, dst, np.sort(rng.uniform(0.0, 1.0, size)))

    dyn, block = finder_and_block(200)
    sorts = [_count_calls(monkeypatch, np, name)
             for name in ("argsort", "lexsort", "sort")]
    dyn.append(*block)
    assert sorts == [["argsort"], [], []]
    monkeypatch.undo()
    # The interpreter runs the same lines for a block ten times the size.
    dyn, block = finder_and_block(200)
    small = _lines_run(dyn.append, *block)
    dyn, block = finder_and_block(2_000)
    assert _lines_run(dyn.append, *block) == small > 0
