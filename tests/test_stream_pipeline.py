"""Streaming batch pipeline: plans, seeding, producers, consumers.

The contract under test is the one the trainer relies on: batch
production is a pure function of ``(graph, work item)``, so serial,
shuffled and forked producers — one child or ``num_workers`` of them —
are bit-identical; and producers tear down cleanly when the consumer
dies.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import re
import signal
import socket
import tempfile
import threading
import time
import warnings

import numpy as np
import pytest

from repro import obs
from repro.core import CPDGConfig, CPDGPreTrainer
from repro.experiments.common import PretrainCache
from repro.graph.events import EventStream
from repro.graph.neighbor_finder import NeighborFinder
from repro.obs import trace as obs_trace
from repro.stream import (BatchPlan, ForkProducer, ProducerSpec,
                          SamplingContext, SerialProducer, StreamError,
                          batch_rngs, make_producer, produce_batch)
from repro.stream.producer import STALL_FLOOR_S
from tests.golden_pretrain import (GOLDEN_PATH, build_golden, golden_config,
                                  golden_stream)


def make_stream(num_events: int = 240, num_nodes: int = 40,
                seed: int = 3) -> EventStream:
    rng = np.random.default_rng(seed)
    half = num_nodes // 2
    return EventStream(
        src=rng.integers(0, half, num_events),
        dst=rng.integers(half, num_nodes, num_events),
        timestamps=np.sort(rng.uniform(0.0, 100.0, num_events)),
        num_nodes=num_nodes,
        name="stream-test",
    )


def small_config(**kwargs) -> CPDGConfig:
    defaults = dict(eta=3, epsilon=3, depth=2, epochs=2, batch_size=48,
                    memory_dim=8, embed_dim=8, time_dim=4, n_neighbors=3,
                    num_checkpoints=3, dtype="float64", seed=0)
    defaults.update(kwargs)
    return CPDGConfig(**defaults)


def spec_for(stream: EventStream, cfg: CPDGConfig) -> ProducerSpec:
    return ProducerSpec(
        batch_size=cfg.batch_size, seed=cfg.seed, epochs=cfg.epochs,
        sample_temporal=True, sample_structural=True,
        eta=cfg.eta, epsilon=cfg.epsilon, depth=cfg.depth, tau=cfg.tau,
        stream=stream)


def assert_prepared_equal(a, b) -> None:
    assert (a.seq, a.epoch, a.batch_idx) == (b.seq, b.epoch, b.batch_idx)
    for name in ("src", "dst", "timestamps", "neg_dst", "event_ids"):
        np.testing.assert_array_equal(getattr(a.batch, name),
                                      getattr(b.batch, name), err_msg=name)
    for name in ("temporal_pos", "temporal_neg",
                 "structural_pos", "structural_neg"):
        sa, sb = getattr(a, name), getattr(b, name)
        assert (sa is None) == (sb is None), name
        if sa is not None:
            np.testing.assert_array_equal(sa.nodes, sb.nodes, err_msg=name)
            np.testing.assert_array_equal(sa.indptr, sb.indptr, err_msg=name)


# ----------------------------------------------------------------------
# plan + seeding
# ----------------------------------------------------------------------

class TestBatchPlan:
    def test_enumerates_every_epoch_and_slice(self):
        plan = BatchPlan(num_events=103, batch_size=25, epochs=2, seed=0)
        items = list(plan)
        assert len(items) == len(plan) == 2 * 5
        assert [i.seq for i in items] == list(range(10))
        per_epoch = [i for i in items if i.epoch == 1]
        assert [(-(-103 // 25))] == [plan.batches_per_epoch]
        assert per_epoch[0].start == 0 and per_epoch[-1].stop == 103
        # Slices tile the stream exactly.
        covered = np.concatenate([np.arange(i.start, i.stop)
                                  for i in items if i.epoch == 0])
        np.testing.assert_array_equal(covered, np.arange(103))

    def test_invalid_plans_rejected(self):
        with pytest.raises(ValueError):
            BatchPlan(10, 0)
        with pytest.raises(ValueError):
            BatchPlan(10, 5, epochs=0)
        with pytest.raises(IndexError):
            BatchPlan(10, 5).item(2)


class TestBatchSeeding:
    def test_same_coordinates_same_draws(self):
        a = batch_rngs(7, 1, 3)
        b = batch_rngs(7, 1, 3)
        for name in ("neg_dst", "temporal_pos", "temporal_neg", "structural"):
            np.testing.assert_array_equal(
                getattr(a, name).integers(0, 1000, 8),
                getattr(b, name).integers(0, 1000, 8), err_msg=name)

    def test_distinct_coordinates_distinct_streams(self):
        draws = {tuple(batch_rngs(seed, epoch, idx).neg_dst.integers(0, 1 << 30, 4))
                 for seed in (0, 1) for epoch in (0, 1) for idx in (0, 1, 2)}
        assert len(draws) == 12

    def test_children_are_independent(self):
        rngs = batch_rngs(0, 0, 0)
        assert not np.array_equal(rngs.neg_dst.integers(0, 1 << 30, 8),
                                  rngs.structural.integers(0, 1 << 30, 8))


class TestBatchLastUpdate:
    def test_matches_live_touch_trace(self):
        """CSR-derived last-update equals the clock a chronological
        trainer's ``Memory.touch`` maintains, at every batch boundary."""
        stream = make_stream()
        finder = NeighborFinder(stream)
        batch_size = 32
        live = np.zeros(stream.num_nodes)
        probe = np.arange(stream.num_nodes, dtype=np.int64)
        for start in range(0, stream.num_events, batch_size):
            stop = min(start + batch_size, stream.num_events)
            derived = finder.batch_last_update(probe, start)
            np.testing.assert_array_equal(derived, live)
            touched = np.concatenate([stream.src[start:stop],
                                      stream.dst[start:stop]])
            np.maximum.at(live, touched,
                          np.tile(stream.timestamps[start:stop], 2))

    def test_trainer_clock_matches_the_csr(self):
        """After pre-training, the memory clock the trainer kept from its
        own ``touch`` calls equals the CSR-derived last update."""
        stream = golden_stream()
        trainer = CPDGPreTrainer.from_backbone("tgn", stream.num_nodes,
                                               golden_config())
        trainer.pretrain(stream)
        probe = np.arange(stream.num_nodes, dtype=np.int64)
        np.testing.assert_array_equal(
            trainer.encoder.memory.last_update,
            NeighborFinder(stream).batch_last_update(probe,
                                                     stream.num_events))


# ----------------------------------------------------------------------
# producers
# ----------------------------------------------------------------------

class TestProduceBatch:
    def test_production_is_order_independent(self):
        stream = make_stream()
        cfg = small_config()
        spec = spec_for(stream, cfg)
        plan = spec.make_plan(stream.num_events)
        items = list(plan)

        ctx_a = SamplingContext(spec)
        in_order = {i.seq: produce_batch(ctx_a, i) for i in items}
        ctx_b = SamplingContext(spec)
        shuffled = {}
        for i in np.random.default_rng(0).permutation(len(items)):
            item = items[int(i)]
            shuffled[item.seq] = produce_batch(ctx_b, item)
        for seq in in_order:
            assert_prepared_equal(in_order[seq], shuffled[seq])

    def test_serial_and_multiprocess_produce_identically(self, spare_cores):
        stream = make_stream()
        cfg = small_config()
        spec = spec_for(stream, cfg)
        serial = list(SerialProducer(spec))
        with make_producer(spec_for(stream, cfg),
                           num_workers=2) as producer:
            assert isinstance(producer, ForkProducer)
            assert producer.num_children == 2
            parallel = list(producer)
        assert len(serial) == len(parallel) == len(spec.make_plan(
            stream.num_events))
        for a, b in zip(serial, parallel):
            assert_prepared_equal(a, b)


def run_with_deadline(fn, seconds: float = 30.0):
    """``fn()`` on a helper thread; a hang fails the test instead of
    stalling the suite.  Returns what ``fn`` returned or raised."""
    outcome: dict = {}

    def target():
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # handed back to the test
            outcome["error"] = exc

    helper = threading.Thread(target=target, daemon=True)
    helper.start()
    helper.join(seconds)
    assert not helper.is_alive(), f"no result within {seconds} s"
    return outcome


def child_pid(producer: ForkProducer) -> int | None:
    return producer._children[0].pid if producer._children else None


class TestForkProducer:
    """``num_workers=0`` with a spare core: one forked child samples
    ahead of the consumer."""

    def test_batches_equal_serial_across_epochs(self, spare_cores,
                                                monkeypatch):
        stream = make_stream()
        spec = spec_for(stream, small_config())  # two epochs, both contrasts
        serial = list(SerialProducer(spec))
        original = produce_batch

        def stamped(ctx, item):
            prepared = original(ctx, item)
            prepared.producer_pid = os.getpid()
            return prepared

        monkeypatch.setattr("repro.stream.producer.produce_batch", stamped)
        with make_producer(spec, num_workers=0,
                           prefetch_batches=2) as producer:
            assert isinstance(producer, ForkProducer)
            assert producer.prefetch_batches == 2
            forked = list(producer)
        assert {p.epoch for p in forked} == {0, 1}
        assert len(forked) == len(serial) == len(
            spec.make_plan(stream.num_events))
        for a, b in zip(serial, forked):
            assert_prepared_equal(a, b)
        pids = {p.producer_pid for p in forked}
        assert len(pids) == 1 and os.getpid() not in pids
        assert not mp.active_children()

    def test_one_usable_core_is_serial(self, monkeypatch):
        monkeypatch.setattr("repro.stream.producer._usable_cores", lambda: 1)
        producer = make_producer(spec_for(make_stream(), small_config()),
                                 num_workers=0)
        assert type(producer) is SerialProducer

    def test_stream_error_reaches_the_consumer_at_that_batch(self):
        stream = make_stream()  # 240 events: item 5 covers [240, 288)
        spec = spec_for(stream, small_config())
        plan = BatchPlan(stream.num_events + 48, 48, epochs=1, seed=0)
        received: list = []

        def consume():
            with ForkProducer(spec, plan, prefetch_batches=1) as producer:
                for prepared in producer:
                    received.append(prepared.seq)

        outcome = run_with_deadline(consume)
        assert isinstance(outcome.get("error"), StreamError), outcome
        assert "past the stream" in str(outcome["error"])
        assert received == [0, 1, 2, 3, 4]
        assert not mp.active_children()

    def test_unpicklable_error_arrives_as_stream_error(self, monkeypatch):
        class Local(Exception):  # a local class does not pickle
            pass

        def failing(ctx, item):
            if item.seq == 2:
                raise Local("sampler exploded")
            return produce_batch(ctx, item)

        monkeypatch.setattr("repro.stream.producer.produce_batch", failing)
        received: list = []

        def consume():
            with ForkProducer(spec_for(make_stream(), small_config()),
                              prefetch_batches=1) as producer:
                for prepared in producer:
                    received.append(prepared.seq)

        outcome = run_with_deadline(consume)
        error = outcome.get("error")
        assert isinstance(error, StreamError), outcome
        assert "batch 2" in str(error) and "cannot be pickled" in str(error)
        assert "sampler exploded" in str(error)  # the child's traceback
        assert received == [0, 1]

    def test_killed_child_is_a_stream_error(self):
        spec = spec_for(make_stream(), small_config())  # 10 batches
        killed: list = []

        def consume():
            with ForkProducer(spec, prefetch_batches=1) as producer:
                for _ in producer:
                    if not killed:
                        killed.append(child_pid(producer))
                        os.kill(killed[0], signal.SIGKILL)

        outcome = run_with_deadline(consume)
        error = outcome.get("error")
        assert isinstance(error, StreamError), outcome
        assert "exit code -9" in str(error) and "batch" in str(error)
        assert not mp.active_children()

    def test_child_exits_when_the_consumer_end_closes(self):
        """EOF on the credit read — the consumer died or closed — ends the
        child without a signal (it must not hold the consumer's end)."""
        producer = ForkProducer(spec_for(make_stream(), small_config()),
                                prefetch_batches=1)
        with producer:
            batches = iter(producer)
            next(batches)
            (child,) = producer._children
            for end in producer._pipes[0]:
                end.close()
            child.join(10.0)
            assert child.exitcode == 0
        assert not mp.active_children()

    def test_closing_a_stale_pass_spares_the_current_one(self):
        spec = spec_for(make_stream(), small_config())
        with ForkProducer(spec, prefetch_batches=1) as producer:
            stale = iter(producer)
            next(stale)
            current = iter(producer)  # a new pass replaces the stale child
            seqs = [next(current).seq]
            stale.close()
            seqs += [prepared.seq for prepared in current]
        assert seqs == list(range(len(spec.make_plan(240))))
        assert not mp.active_children()

    def test_consumer_error_leaves_no_child_close_idempotent(self):
        stream = make_stream()  # 5 batches in one epoch
        producer = ForkProducer(spec_for(stream, small_config(epochs=1)),
                                prefetch_batches=1)

        def consume():
            with producer:
                for n, _ in enumerate(producer):
                    if n == 2:
                        # Let the child block handing over batch 3.
                        time.sleep(0.2)
                        raise RuntimeError("consumer died")

        outcome = run_with_deadline(consume)
        assert isinstance(outcome.get("error"), RuntimeError), outcome
        assert not mp.active_children()
        producer.close()
        producer.close()
        assert not mp.active_children()

    def test_child_spans_reach_the_parent_once_per_batch(self):
        """The child's ``produce.*`` spans land in the parent's buffer and
        span histogram, one set per batch, under the child's pid and
        without the parent span that was open at the fork."""
        stream = make_stream()
        spec = spec_for(stream, small_config())
        batches = len(spec.make_plan(stream.num_events))
        eta_bfs = obs.histogram("repro_span_seconds",
                                labels={"span": "produce.eta_bfs"})
        observed = eta_bfs.count
        obs.reset()
        obs.configure(enabled=True)
        try:
            with obs.span("test.outer"):
                with ForkProducer(spec, prefetch_batches=1) as producer:
                    pids = {child_pid(producer) for _ in producer}
            records = obs.trace_buffer()
        finally:
            obs.reset()
        (pid,) = pids
        produced = [r for r in records if r["name"].startswith("produce.")]
        names = [r["name"] for r in produced]
        for name in ("produce.negatives", "produce.eta_bfs",
                     "produce.eps_dfs"):
            assert names.count(name) == batches, name
        assert len(produced) == 3 * batches
        assert all(r["span"].startswith(f"{pid:x}-") for r in produced)
        assert all(r["parent"] is None for r in produced)
        assert eta_bfs.count - observed == batches

    def test_locks_held_across_the_fork_do_not_stop_production(self):
        """Another thread (a serve compactor, an HTTP handler) holds the
        trace lock, the registry lock and the sampler's counter locks
        while the child forks; the child must not inherit them held."""
        spec = spec_for(make_stream(), small_config(epochs=1))
        producer = ForkProducer(spec, prefetch_batches=1)
        counters = [obs.counter("repro_sampler_eta_bfs_occurrences_total",
                                labels={"path": path})
                    for path in ("whole", "race", "wide")]
        obs.reset()
        obs.configure(enabled=True)  # the child then takes every lock
        locks = [obs_trace._lock, obs.registry()._lock,
                 *(counter._lock for counter in counters)]
        held = threading.Event()

        def hold():
            for lock in locks:
                lock.acquire()
            held.set()
            deadline = time.monotonic() + 30.0
            while child_pid(producer) is None \
                    and time.monotonic() < deadline:
                time.sleep(0.001)
            for lock in reversed(locks):
                lock.release()

        holder = threading.Thread(target=hold, daemon=True)
        holder.start()
        held.wait()

        def consume():
            with producer:
                return [prepared.seq for prepared in producer]

        try:
            outcome = run_with_deadline(consume)
        finally:
            holder.join()
            obs.reset()
        assert outcome == {"value": [0, 1, 2, 3, 4]}, outcome
        assert not mp.active_children()


class TestMultiprocessLifecycle:
    """``num_workers=N`` → N forked children: plan order, teardown and
    fail-fast, with no socket and no file written."""

    @pytest.mark.parametrize("children", [1, 2, 3])
    def test_children_equal_serial_across_epochs(self, children,
                                                 monkeypatch):
        stream = make_stream()
        spec = spec_for(stream, small_config())  # two epochs of 5 batches
        serial = list(SerialProducer(spec))
        original = produce_batch

        def stamped(ctx, item):
            prepared = original(ctx, item)
            prepared.producer_pid = os.getpid()
            return prepared

        monkeypatch.setattr("repro.stream.producer.produce_batch", stamped)
        with ForkProducer(spec, prefetch_batches=1,
                          num_children=children) as producer:
            assert producer.prefetch_batches == children
            batches = list(producer)
        assert {p.epoch for p in batches} == {0, 1}
        assert len(batches) == len(serial) == 10
        for a, b in zip(serial, batches):
            assert_prepared_equal(a, b)
        pids = [p.producer_pid for p in batches]
        assert len(set(pids)) == children and os.getpid() not in pids
        # Child k produced plan items k, k + N, k + 2N, ...
        assert pids == [pids[seq % children] for seq in range(len(pids))]
        assert not mp.active_children()

    def test_plan_shorter_than_children_completes(self):
        """One batch, three children asked for: one is started."""
        stream = make_stream(num_events=30)
        spec = spec_for(stream, small_config(epochs=1, batch_size=30))
        with ForkProducer(spec, num_children=3) as producer:
            batches = iter(producer)
            first = next(batches)
            assert len(producer._children) == 1
            assert list(batches) == []
        assert_prepared_equal(next(iter(SerialProducer(spec))), first)
        assert not mp.active_children()

    def test_opens_no_socket_and_writes_no_shards(self, spare_cores,
                                                  monkeypatch, tmp_path):
        """The children inherit the graph, so production is reachable
        from no other process: ``num_workers=2`` opens no socket of any
        family and leaves nothing in the temporary directory."""
        opened = []

        class Recording(socket.socket):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self.family)

        monkeypatch.setattr(socket, "socket", Recording)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        stream = make_stream()
        spec = spec_for(stream, small_config())
        with make_producer(spec, num_workers=2) as producer:
            assert isinstance(producer, ForkProducer)
            batches = list(producer)
        assert opened == []
        assert list(tmp_path.iterdir()) == []
        for a, b in zip(SerialProducer(spec), batches):
            assert_prepared_equal(a, b)

    def test_sigkill_of_one_child_is_a_stream_error(self):
        spec = spec_for(make_stream(), small_config())  # 10 batches
        killed: list = []

        def consume():
            with ForkProducer(spec, num_children=2) as producer:
                for _ in producer:
                    if not killed:
                        killed.append(producer._children[1])
                        os.kill(killed[0].pid, signal.SIGKILL)

        outcome = run_with_deadline(consume)
        error = outcome.get("error")
        assert isinstance(error, StreamError), outcome
        assert "producer 1" in str(error), error
        assert "exit code -9" in str(error) and "batch" in str(error)
        assert not mp.active_children()

    def test_stopped_child_warns_once_and_run_completes(self):
        """SIGSTOP one child: past the stall limit the wait gauge reads
        the wait and one warning names the child and the batch; SIGCONT
        from that warning, and the pass ends equal to serial."""
        spec = spec_for(make_stream(), small_config())  # 10 batches
        gauge = obs.gauge("repro_stream_produce_wait_seconds")
        stopped: list = []
        stalls: list = []

        def on_warning(message, category, *args, **kwargs):
            stalls.append((category, str(message), gauge.value))
            os.kill(stopped[0].pid, signal.SIGCONT)

        def consume():
            batches = []
            with ForkProducer(spec, num_children=2) as producer:
                for prepared in producer:
                    if not stopped:
                        stopped.append(producer._children[1])
                        os.kill(stopped[0].pid, signal.SIGSTOP)
                    batches.append(prepared)
            return batches

        try:
            with warnings.catch_warnings():
                warnings.simplefilter("always")
                warnings.showwarning = on_warning
                outcome = run_with_deadline(consume)
        finally:
            # Never leave a stopped child behind: it would ignore the
            # SIGTERM of teardown and hang the test run.
            if stopped and stopped[0].is_alive():
                os.kill(stopped[0].pid, signal.SIGCONT)
        assert "error" not in outcome, outcome
        assert len(stalls) == 1, stalls
        category, message, waited = stalls[0]
        assert category is RuntimeWarning
        assert re.search(r"forked producer 1 \(pid \d+\) has not "
                         r"delivered batch [13579]\b", message), message
        assert waited >= STALL_FLOOR_S
        assert gauge.value == 0.0
        for a, b in zip(SerialProducer(spec), outcome["value"], strict=True):
            assert_prepared_equal(a, b)
        assert not mp.active_children()

    def test_teardown_on_consumer_error_leaves_no_workers(self, spare_cores):
        producer = make_producer(spec_for(make_stream(), small_config()),
                                 num_workers=2)
        children: list = []
        with pytest.raises(RuntimeError, match="consumer died"):
            with producer:
                for n, _ in enumerate(producer):
                    if n == 1:
                        children.extend(producer._children)
                        raise RuntimeError("consumer died")
        assert len(children) == 2
        assert not any(child.is_alive() for child in children)
        assert not mp.active_children()

    def test_close_is_idempotent(self, spare_cores):
        stream = make_stream()
        producer = make_producer(spec_for(stream, small_config()),
                                 num_workers=2)
        producer.close()
        batches = iter(producer)
        next(batches)
        producer.close()
        producer.close()
        assert not mp.active_children()
        assert len(list(producer)) == 10  # a closed producer runs anew

    def test_garbage_collection_reaps_the_children(self):
        import gc
        producer = ForkProducer(spec_for(make_stream(), small_config()),
                                num_children=2)
        batches = iter(producer)
        next(batches)
        children = list(producer._children)
        del producer, batches
        gc.collect()
        for child in children:
            child.join(10.0)
        assert not any(child.is_alive() for child in children)
        assert not mp.active_children()

    def test_worker_error_propagates_as_stream_error(self, spare_cores):
        stream = make_stream()
        spec = spec_for(stream, small_config())
        # Items 5 and 6 lie past the stream: child 1 fails first, at 5.
        bad_plan = BatchPlan(stream.num_events + 96, 48, epochs=1, seed=0)
        received: list = []

        def consume():
            with make_producer(spec, plan=bad_plan,
                               num_workers=2) as producer:
                for prepared in producer:
                    received.append(prepared.seq)

        outcome = run_with_deadline(consume)
        error = outcome.get("error")
        assert isinstance(error, StreamError), outcome
        assert "work item 5" in str(error), error
        assert received == [0, 1, 2, 3, 4]
        assert not mp.active_children()

    def test_make_producer_dispatch(self, spare_cores):
        stream = make_stream()
        spec = spec_for(stream, small_config())
        for workers, children in ((0, 1), (1, 1), (3, 3)):
            producer = make_producer(spec, num_workers=workers)
            assert type(producer) is ForkProducer
            assert producer.num_children == children

    def test_make_producer_serial_fallback_without_spare_core(
            self, monkeypatch):
        """With one usable core the workers only steal the trainer's
        time slice; make_producer must warn and go serial instead —
        whether the machine has one core or the process is pinned to one
        of several (taskset, container cpusets)."""
        stream = make_stream()
        spec = spec_for(stream, small_config())
        # Pinned: two cores in the machine, one in the affinity mask.
        monkeypatch.setattr("repro.stream.producer.os.cpu_count", lambda: 2)
        monkeypatch.setattr("repro.stream.producer.os.sched_getaffinity",
                            lambda pid: {0}, raising=False)
        with pytest.warns(RuntimeWarning, match="no spare core"):
            producer = make_producer(spec, num_workers=2)
        assert type(producer) is SerialProducer
        # No affinity API (macOS, Windows): the core count decides.
        monkeypatch.delattr("repro.stream.producer.os.sched_getaffinity")
        monkeypatch.setattr("repro.stream.producer.os.cpu_count", lambda: 1)
        with pytest.warns(RuntimeWarning, match="no spare core"):
            producer = make_producer(spec, num_workers=2)
        assert type(producer) is SerialProducer


# ----------------------------------------------------------------------
# trainer equivalence (the acceptance bar)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("backbone", ["tgn", "jodie", "dyrep"])
class TestPretrainEquivalence:
    def pretrain(self, backbone: str, stream: EventStream, **overrides):
        cfg = small_config(**overrides)
        trainer = CPDGPreTrainer.from_backbone(backbone, stream.num_nodes, cfg)
        return trainer.pretrain(stream)

    def test_workers_bit_identical(self, backbone, spare_cores):
        stream = make_stream()
        serial = self.pretrain(backbone, stream, num_workers=0)
        for workers in (1, 2):
            parallel = self.pretrain(backbone, stream, num_workers=workers)
            np.testing.assert_array_equal(np.asarray(serial.loss_history),
                                          np.asarray(parallel.loss_history))
            np.testing.assert_array_equal(serial.memory_state,
                                          parallel.memory_state)
            np.testing.assert_array_equal(serial.last_update,
                                          parallel.last_update)
            for key in serial.encoder_state:
                np.testing.assert_array_equal(serial.encoder_state[key],
                                              parallel.encoder_state[key],
                                              err_msg=key)
            assert len(serial.checkpoints) == len(parallel.checkpoints)
            for a, b in zip(serial.checkpoints.as_list(),
                            parallel.checkpoints.as_list()):
                np.testing.assert_array_equal(a, b)


def test_pretrain_matches_the_parent_bit_for_bit():
    """Loss history, final memory, ``last_update``, every encoder
    parameter and every EIE checkpoint of tgn / jodie / dyrep (float32,
    two epochs, both contrasts, compiled step, serial production) equal
    what the commit before trainer-side message time gaps produced."""
    with np.load(GOLDEN_PATH) as recorded:
        golden = {key: recorded[key] for key in recorded.files}
    current = build_golden()
    assert sorted(current) == sorted(golden)
    for key, expected in golden.items():
        np.testing.assert_array_equal(current[key], expected, err_msg=key)


class TestPretrainSeedingProperties:
    def test_resume_style_order_independence(self):
        """Epoch-2 draws do not depend on epoch-1 having been sampled —
        the resume-from-checkpoint divergence fix."""
        stream = make_stream()
        cfg = small_config()
        spec = spec_for(stream, cfg)
        ctx = SamplingContext(spec)
        plan = spec.make_plan(stream.num_events)
        later = [i for i in plan if i.epoch == 1]
        fresh = {i.seq: produce_batch(SamplingContext(spec), i) for i in later}
        full = {i.seq: produce_batch(ctx, i) for i in plan}
        for seq, prepared in fresh.items():
            assert_prepared_equal(prepared, full[seq])

    def test_config_validates_stream_knobs(self):
        with pytest.raises(ValueError, match="forked producer children"):
            small_config(num_workers=-1).validate()
        with pytest.raises(ValueError):
            small_config(prefetch_batches=0).validate()


# ----------------------------------------------------------------------
# on-disk artifact cache
# ----------------------------------------------------------------------

class TestArtifactCache:
    def _artifact(self, stream):
        from repro.api import Pipeline, RunConfig
        config = RunConfig(backbone="tgn", strategy="full",
                           pretrain=small_config(epochs=1))
        return Pipeline(config).pretrain(stream).artifact

    def test_artifacts_survive_process_restart(self, tmp_path):
        stream = make_stream(num_events=120)
        calls = {"n": 0}

        def compute():
            calls["n"] += 1
            return self._artifact(stream)

        key = ("cpdg", "tgn", "fingerprint", 0)
        first = PretrainCache(cache_dir=str(tmp_path))
        a1 = first.get_artifact(key, compute)
        a2 = first.get_artifact(key, compute)
        assert calls["n"] == 1 and a1 is a2

        # A fresh cache (≈ a new process) hits the file, not compute().
        second = PretrainCache(cache_dir=str(tmp_path))
        a3 = second.get_artifact(key, compute)
        assert calls["n"] == 1
        np.testing.assert_array_equal(a1.result.memory_state,
                                      a3.result.memory_state)

    def test_memory_only_without_cache_dir(self, monkeypatch):
        monkeypatch.delenv("REPRO_PRETRAIN_CACHE", raising=False)
        cache = PretrainCache()
        assert cache.cache_dir is None
        calls = {"n": 0}

        def compute():
            calls["n"] += 1
            return object()

        cache.get_artifact(("k",), compute)
        cache.get_artifact(("k",), compute)
        assert calls["n"] == 1
