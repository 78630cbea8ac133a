"""Chaos suite for the distributed batch-production fabric.

The contract: however workers crash, stall, hoard leases, join late or
mount the wrong shards, the consumer sees every batch exactly once, in
plan order, bit-identical to the in-process serial producer — or gets a
clear error.  Workers read the flat memory-mapped shards every other
reader uses (golden test: ``TestMmapShards`` in test_stream_pipeline).
A peer that sends garbage is dropped, never the run.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

import repro
from repro import obs
from repro.core import CPDGPreTrainer
from repro.fabric import (PROTOCOL_VERSION, FabricError, FabricProducer,
                          FabricWorker, FrameDecoder, LeaseLedger,
                          encode_frame, parse_address, plan_fingerprint,
                          recv_frame, send_frame)
from repro.fabric.protocol import (HEARTBEAT, HELLO, LEASE, REJECT, RESULT,
                                   SHUTDOWN, WELCOME)
from repro.graph.events import EventStream
from repro.graph.neighbor_finder import NeighborFinder
from repro.stream import (BatchPlan, SamplingContext, SerialProducer,
                          StreamError, export_graph_shards, has_csr_shards,
                          open_graph_shards, produce_batch,
                          shard_fingerprint)
from tests.test_stats_surface import metric_value
from tests.test_stream_pipeline import (assert_prepared_equal, make_stream,
                                        small_config, spec_for)


def exported(stream, directory) -> str:
    return export_graph_shards(stream, str(directory),
                               finder=NeighborFinder(stream))


class WorkerHarness:
    """Run FabricWorkers on threads; collect stats and surface errors."""

    def __init__(self, address, shard_dir):
        self.address = address
        self.shard_dir = shard_dir
        self.threads: list[threading.Thread] = []
        self.stats: dict[str, dict] = {}
        self.errors: dict[str, BaseException] = {}

    def start(self, name, *, delay=0.0, max_results=None, **kwargs):
        kwargs.setdefault("capacity", 2)
        kwargs.setdefault("retry_for", 30.0)

        def run():
            if delay:
                time.sleep(delay)
            worker = FabricWorker(self.address, self.shard_dir,
                                  name=name, **kwargs)
            try:
                self.stats[name] = worker.run(max_results=max_results)
            except BaseException as exc:  # surfaced by join()
                self.errors[name] = exc

        thread = threading.Thread(target=run, daemon=True,
                                  name=f"harness-{name}")
        thread.start()
        self.threads.append(thread)
        return thread

    def start_process(self, name):
        """A ``repro fabric-worker`` subprocess: unlike a worker thread,
        it can be stopped with a signal."""
        host, port = self.address
        source = os.path.dirname(os.path.dirname(repro.__file__))
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "fabric-worker",
             "--connect", f"{host}:{port}", "--shards", self.shard_dir,
             "--name", name, "--quiet"],
            env={**os.environ, "PYTHONPATH": source})

    def join(self, timeout=15.0, expect_errors=False):
        for thread in self.threads:
            thread.join(timeout)
        assert not any(t.is_alive() for t in self.threads), \
            "worker thread(s) did not finish"
        if not expect_errors:
            assert not self.errors, self.errors


def run_fabric(spec, *, workers, prefetch=6, lease_timeout=15.0,
               heartbeat_timeout=10.0, timeout=60.0):
    """Drive a FabricProducer to completion with harness workers.

    ``workers`` is a list of dicts of ``WorkerHarness.start`` kwargs
    (plus ``name``).  Returns (batches, coordinator stats, harness).
    """
    producer = FabricProducer(spec, prefetch_batches=prefetch,
                              lease_timeout=lease_timeout,
                              heartbeat_timeout=heartbeat_timeout,
                              timeout=timeout)
    harness = WorkerHarness(producer.address, producer.shard_dir)
    try:
        for worker in workers:
            harness.start(**worker)
        batches = list(producer)
        stats = producer.stats()
    finally:
        producer.close()
    return batches, stats, harness


def wait_for_workers(producer, count, timeout=20.0):
    """Block until ``count`` workers are connected."""
    deadline = time.monotonic() + timeout
    while producer.coordinator.workers_connected() < count:
        assert time.monotonic() < deadline, "workers never joined"
        time.sleep(0.02)


# ----------------------------------------------------------------------
# shard directories: identity, and leftovers of the range-split layout
# ----------------------------------------------------------------------

class TestRangeShards:
    """The per-node-range CSR copy is gone; what is left to check is the
    directory fingerprint and that files an earlier build wrote into a
    reused ``--shard-dir`` do no harm."""

    def test_fingerprint_tracks_content(self, tmp_path):
        stream = make_stream()
        exported(stream, tmp_path)
        before = shard_fingerprint(str(tmp_path))
        assert before == shard_fingerprint(str(tmp_path))
        target = tmp_path / "csr_neighbors.npy"
        blob = bytearray(target.read_bytes())
        blob[-1] ^= 0xFF
        target.write_bytes(bytes(blob))
        assert shard_fingerprint(str(tmp_path)) != before

    def test_stale_range_files_are_ignored_by_readers(self, tmp_path):
        stream = make_stream()
        spec = spec_for(stream, small_config())
        exported(stream, tmp_path)
        clean = shard_fingerprint(str(tmp_path))
        # What export_range_shards used to leave behind — here garbage,
        # so any reader that opened them would fail or diverge.
        np.save(tmp_path / "csr_range0000_neighbors.npy", np.arange(3))
        np.save(tmp_path / "csr_range_indptr.npy", np.zeros(2))
        (tmp_path / "csr_ranges.json").write_text(json.dumps(
            {"num_ranges": 1, "node_bounds": [0, 1], "flat_offsets": [0, 3],
             "num_nodes": 1, "num_rows": 3}))
        reopened, finder = open_graph_shards(str(tmp_path))
        np.testing.assert_array_equal(finder.neighbors,
                                      NeighborFinder(stream).neighbors)
        # Both sides hash the same directory, so the handshake passes and
        # a worker over it still produces the serial batches.
        assert shard_fingerprint(str(tmp_path)) != clean
        batches, _, harness = run_fabric(
            replace(spec, stream=None, shard_dir=str(tmp_path)),
            workers=[{"name": "a"}])
        harness.join()
        for a, b in zip(SerialProducer(spec), batches):
            assert_prepared_equal(a, b)
        assert len(batches) == len(spec.make_plan(stream.num_events))


# ----------------------------------------------------------------------
# wire protocol
# ----------------------------------------------------------------------

class TestProtocol:
    def test_frame_round_trip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            message = {"type": RESULT, "seq": 3,
                       "payload": np.arange(5, dtype=np.int64)}
            send_frame(a, message)
            send_frame(a, {"type": HEARTBEAT})
            got = recv_frame(b)
            assert got["type"] == RESULT and got["seq"] == 3
            np.testing.assert_array_equal(got["payload"], np.arange(5))
            assert recv_frame(b)["type"] == HEARTBEAT
            a.close()
            assert recv_frame(b) is None  # clean EOF at a boundary
        finally:
            for sock in (a, b):
                sock.close()

    def test_eof_mid_frame_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(encode_frame({"type": HEARTBEAT})[:5])
            a.close()
            with pytest.raises(FabricError, match="mid-frame"):
                recv_frame(b)
        finally:
            for sock in (a, b):
                sock.close()

    def test_decoder_reassembles_byte_by_byte(self):
        frames = [{"type": LEASE, "n": i} for i in range(3)]
        wire = b"".join(encode_frame(f) for f in frames)
        decoder = FrameDecoder()
        out = []
        for i in range(len(wire)):
            out.extend(decoder.feed(wire[i:i + 1]))
        assert out == frames

    def test_parse_address(self):
        assert parse_address("10.0.0.5:9000") == ("10.0.0.5", 9000)
        assert parse_address(":9000") == ("127.0.0.1", 9000)
        for bad in ("nohost", "host:notaport", "host:99999"):
            with pytest.raises(FabricError):
                parse_address(bad)

    def test_plan_fingerprint_ignores_graph_location(self):
        stream = make_stream()
        spec = spec_for(stream, small_config())
        plan = spec.make_plan(stream.num_events)
        base = plan_fingerprint(replace(spec, stream=None), plan, "fp")
        moved = replace(spec, stream=None, shard_dir="/elsewhere",
                        mmap=False)
        assert plan_fingerprint(moved, plan, "fp") == base
        assert plan_fingerprint(replace(spec, stream=None, seed=spec.seed + 1),
                                plan, "fp") != base
        assert plan_fingerprint(replace(spec, stream=None), plan,
                                "other") != base


# ----------------------------------------------------------------------
# lease ledger
# ----------------------------------------------------------------------

def _plan(total=10):
    return BatchPlan(num_events=total * 10, batch_size=10, epochs=1, seed=0)


class TestLeaseLedger:
    def test_grants_in_seq_order_within_window(self):
        ledger = LeaseLedger(_plan(), window=3)
        items = [ledger.grant("w", 0.0, 10.0) for _ in range(4)]
        assert [i.seq for i in items[:3]] == [0, 1, 2]
        assert items[3] is None  # window exhausted
        ledger.complete(0, "w")
        ledger.advance(0)
        assert ledger.grant("w", 0.0, 10.0).seq == 3

    def test_duplicate_completion_counted_and_dropped(self):
        ledger = LeaseLedger(_plan(), window=10)
        ledger.grant("a", 0.0, 10.0)
        assert ledger.complete(0, "a") is True
        assert ledger.complete(0, "b") is False
        assert int(ledger.counters["duplicates"]) == 1
        assert int(ledger.counters["completed"]) == 1

    def test_expired_lease_requeues_and_avoids_repeat(self):
        ledger = LeaseLedger(_plan(), window=10)
        assert ledger.grant("slow", 0.0, 1.0).seq == 0
        assert ledger.reclaim_expired(2.0) == [0]
        assert int(ledger.counters["reclaimed_expired"]) == 1
        # With another worker available, seq 0 must not bounce back.
        assert ledger.grant("slow", 2.0, 1.0, avoid_repeat=True) is None
        assert ledger.grant("fresh", 2.0, 1.0, avoid_repeat=True).seq == 0
        # Alone in the fabric, the slow worker does get it back.
        assert ledger.reclaim_expired(4.0) == [0]
        assert ledger.grant("fresh", 4.0, 1.0, avoid_repeat=False).seq == 0

    def test_disconnect_reclaims_only_that_worker(self):
        ledger = LeaseLedger(_plan(), window=10)
        ledger.grant("a", 0.0, 10.0)
        ledger.grant("b", 0.0, 10.0)
        assert ledger.reclaim_worker("a", 1.0) == [0]
        assert ledger.outstanding("b") == 1
        assert int(ledger.counters["reclaimed_disconnect"]) == 1
        assert ledger.reclaim_log[-1][1] == "disconnect:a"

    def test_all_done(self):
        ledger = LeaseLedger(_plan(2), window=10)
        for seq in range(2):
            ledger.grant("w", 0.0, 10.0)
            ledger.complete(seq, "w")
            ledger.advance(seq)
        assert ledger.all_done and ledger.done_count == 2


# ----------------------------------------------------------------------
# fabric chaos (thread workers over real sockets)
# ----------------------------------------------------------------------

class TestFabricChaos:
    def serial(self, stream):
        return list(SerialProducer(spec_for(stream, small_config())))

    def test_two_workers_bit_identical(self):
        stream = make_stream()
        batches, stats, harness = run_fabric(
            spec_for(stream, small_config()),
            workers=[{"name": "a"}, {"name": "b"}])
        harness.join()
        reference = self.serial(stream)
        assert len(batches) == len(reference)
        for a, b in zip(reference, batches):
            assert_prepared_equal(a, b)
        assert stats["duplicates"] == 0
        produced = sum(s["produced"] for s in harness.stats.values())
        assert produced == len(reference)  # work actually split

    def test_worker_killed_mid_epoch_work_reclaimed(self):
        stream = make_stream()
        batches, stats, harness = run_fabric(
            spec_for(stream, small_config()),
            workers=[{"name": "doomed", "max_results": 2},
                     {"name": "survivor", "delay": 0.2}])
        harness.join()
        reference = self.serial(stream)
        assert len(batches) == len(reference)
        for a, b in zip(reference, batches):
            assert_prepared_equal(a, b)
        assert harness.stats["doomed"]["graceful"] is False
        assert stats["reclaimed_disconnect"] >= 1
        assert any(reason.startswith("disconnect:doomed")
                   for _, reason, _ in stats["reclaim_log"])

    def test_late_joining_worker_completes_run(self):
        stream = make_stream()
        batches, stats, harness = run_fabric(
            spec_for(stream, small_config()),
            workers=[{"name": "late", "delay": 1.0}])
        harness.join()
        reference = self.serial(stream)
        assert len(batches) == len(reference)
        for a, b in zip(reference, batches):
            assert_prepared_equal(a, b)
        assert stats["workers_joined"] == 1

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        stream = make_stream()
        producer = FabricProducer(spec_for(stream, small_config()),
                                  timeout=30.0)
        try:
            # Raw socket with a bogus shard fingerprint → REJECT.
            sock = socket.create_connection(producer.address, timeout=5.0)
            try:
                send_frame(sock, {"type": HELLO,
                                  "version": PROTOCOL_VERSION,
                                  "name": "impostor", "capacity": 1,
                                  "shard_fingerprint": "deadbeef"})
                reply = recv_frame(sock)
                assert reply["type"] == REJECT
                assert "fingerprint" in reply["reason"]
            finally:
                sock.close()
            # A real worker mounting a *different* graph's export is
            # rejected the same way and raises client-side.
            other = make_stream(seed=99)
            exported(other, tmp_path)
            with pytest.raises(FabricError, match="rejected"):
                FabricWorker(producer.address, str(tmp_path),
                             name="wrong-shards").run()
            stats = producer.stats()
            assert stats["workers_rejected"] == 2
            # The run itself still completes once a good worker joins.
            harness = WorkerHarness(producer.address, producer.shard_dir)
            harness.start("good")
            batches = list(producer)
        finally:
            producer.close()
        harness.join()
        assert len(batches) == len(self.serial(stream))
        # GET /metrics shows the membership, lease and reassembly counts
        # the producer's stats() reports.
        stats = producer.stats()
        text = obs.render_prometheus()
        assert (stats["workers_joined"], stats["workers_rejected"],
                stats["workers_left"]) == (1, 2, 1)
        for name in ("joined", "rejected", "left"):
            assert metric_value(text, f"repro_fabric_workers_{name}_total") \
                == stats[f"workers_{name}"], name
        for name in ("granted", "completed", "duplicates"):
            assert metric_value(text, f"repro_fabric_leases_{name}_total") \
                == stats[name], name
        waits = "repro_fabric_reassembly_wait_seconds"
        assert metric_value(text, waits + "_count") == len(batches)
        assert stats["reassembly_wait_mean_s"] == pytest.approx(
            metric_value(text, waits + "_sum") / len(batches))
        assert stats["reassembly_wait_p99_s"] >= 0.0

    def test_version_mismatch_rejected(self):
        stream = make_stream()
        producer = FabricProducer(spec_for(stream, small_config()),
                                  timeout=30.0)
        try:
            sock = socket.create_connection(producer.address, timeout=5.0)
            try:
                send_frame(sock, {"type": HELLO, "version": -1,
                                  "shard_fingerprint": "x"})
                reply = recv_frame(sock)
                assert reply["type"] == REJECT
                assert "version" in reply["reason"]
            finally:
                sock.close()
        finally:
            producer.close()

    def test_duplicate_result_deduped(self):
        """A client that answers its first lease twice: the consumer
        still sees each seq once and the duplicate is counted."""
        stream = make_stream()
        spec = spec_for(stream, small_config())
        producer = FabricProducer(spec, prefetch_batches=6, timeout=60.0)
        doubled = threading.Event()

        def double_talker():
            sock = socket.create_connection(producer.address, timeout=5.0)
            try:
                send_frame(sock, {
                    "type": HELLO, "version": PROTOCOL_VERSION,
                    "name": "echo", "capacity": 1,
                    "shard_fingerprint":
                        shard_fingerprint(producer.shard_dir)})
                welcome = recv_frame(sock)
                assert welcome["type"] == WELCOME
                ctx = SamplingContext(replace(
                    welcome["spec"], shard_dir=producer.shard_dir))
                while True:
                    message = recv_frame(sock)
                    if message is None or message["type"] == SHUTDOWN:
                        return
                    if message["type"] != LEASE:
                        continue
                    item = message["item"]
                    batch = produce_batch(ctx, item).materialize()
                    send_frame(sock, {"type": RESULT, "seq": item.seq,
                                      "batch": batch})
                    if not doubled.is_set():
                        send_frame(sock, {"type": RESULT, "seq": item.seq,
                                          "batch": batch})
                        doubled.set()
            finally:
                sock.close()

        thread = threading.Thread(target=double_talker, daemon=True)
        thread.start()
        try:
            batches = list(producer)
            stats = producer.stats()
        finally:
            producer.close()
        thread.join(10.0)
        reference = self.serial(stream)
        assert [b.seq for b in batches] == [r.seq for r in reference]
        for a, b in zip(reference, batches):
            assert_prepared_equal(a, b)
        assert stats["duplicates"] == 1

    def test_expired_lease_re_leased_to_other_worker(self):
        """A hoarder heartbeats (stays 'alive') but never completes; its
        leases expire and a healthy worker finishes the plan."""
        stream = make_stream()
        spec = spec_for(stream, small_config())
        producer = FabricProducer(spec, prefetch_batches=6,
                                  lease_timeout=0.5,
                                  heartbeat_timeout=30.0, timeout=60.0)
        stop = threading.Event()

        def hoarder():
            sock = socket.create_connection(producer.address, timeout=5.0)

            def beat():  # stays "alive" for the coordinator
                while not stop.wait(0.2):
                    try:
                        send_frame(sock, {"type": HEARTBEAT})
                    except OSError:
                        return

            try:
                send_frame(sock, {
                    "type": HELLO, "version": PROTOCOL_VERSION,
                    "name": "hoarder", "capacity": 2,
                    "shard_fingerprint":
                        shard_fingerprint(producer.shard_dir)})
                threading.Thread(target=beat, daemon=True).start()
                while not stop.is_set():
                    try:
                        message = recv_frame(sock)
                    except (FabricError, OSError):
                        return
                    if message is None or message.get("type") == SHUTDOWN:
                        return
                    # swallow leases, never answer
            finally:
                sock.close()

        thread = threading.Thread(target=hoarder, daemon=True)
        thread.start()
        harness = WorkerHarness(producer.address, producer.shard_dir)
        try:
            harness.start("healthy", delay=0.3)
            batches = list(producer)
            stats = producer.stats()
        finally:
            stop.set()
            producer.close()
        thread.join(10.0)
        harness.join()
        reference = self.serial(stream)
        assert len(batches) == len(reference)
        for a, b in zip(reference, batches):
            assert_prepared_equal(a, b)
        assert stats["reclaimed_expired"] >= 1

    def test_stall_without_workers_raises_with_hint(self):
        stream = make_stream()
        producer = FabricProducer(spec_for(stream, small_config()),
                                  timeout=1.0)
        with pytest.raises(StreamError, match="fabric-worker"):
            list(producer)

    def test_cli_worker_serves_a_run(self, capsys):
        """``repro fabric-worker`` takes its flags from the one declaration
        in ``repro.fabric.worker`` (``--max-results`` stays hidden) and
        serves a run to completion."""
        from repro.__main__ import main
        with pytest.raises(SystemExit):
            main(["fabric-worker", "--help"])
        usage = capsys.readouterr().out
        assert "--retry-for" in usage and "--max-results" not in usage

        stream = make_stream()
        spec = spec_for(stream, small_config())
        producer = FabricProducer(spec, timeout=60.0)
        host, port = producer.address
        codes = []
        thread = threading.Thread(target=lambda: codes.append(main([
            "fabric-worker", "--connect", f"{host}:{port}",
            "--shards", producer.shard_dir, "--name", "cli",
            "--capacity", "3", "--retry-for", "5"])), daemon=True)
        thread.start()
        try:
            batches = list(producer)
        finally:
            producer.close()
        thread.join(15.0)
        assert codes == [0]
        assert "[fabric-worker cli] produced" in capsys.readouterr().out
        assert len(batches) == len(spec.make_plan(stream.num_events))
        for a, b in zip(SerialProducer(spec), batches):
            assert_prepared_equal(a, b)

    def test_frozen_worker_is_dropped_and_run_completes(self):
        """SIGSTOP one of two: the coordinator drops it on missed
        heartbeats, re-leases its items, and the survivor finishes the
        plan bit-identical to serial."""
        stream = make_stream()
        producer = FabricProducer(spec_for(stream, small_config()),
                                  prefetch_batches=6, lease_timeout=60.0,
                                  heartbeat_timeout=3.0, timeout=60.0)
        harness = WorkerHarness(producer.address, producer.shard_dir)
        frozen = harness.start_process("frozen")
        try:
            # The first to join is first in the grant rotation, so the
            # next lease granted after the freeze is stuck with it.
            wait_for_workers(producer, 1)
            harness.start("survivor", heartbeat_interval=0.25)
            wait_for_workers(producer, 2)
            os.kill(frozen.pid, signal.SIGSTOP)
            batches = list(producer)
            stats = producer.stats()
        finally:
            producer.close()
            frozen.kill()  # the only signal a stopped process takes
            frozen.wait(10.0)
        harness.join()
        reference = self.serial(stream)
        assert len(batches) == len(reference)
        for a, b in zip(reference, batches):
            assert_prepared_equal(a, b)
        assert stats["reclaimed_disconnect"] >= 1
        assert any(reason == "disconnect:frozen"
                   for _, reason, _ in stats["reclaim_log"])
        assert harness.stats["survivor"]["graceful"] is True

    def test_malformed_peer_is_dropped_and_run_completes(self):
        """A frame that decodes to something other than a message, and
        an active worker's RESULT without a ``seq`` or with one outside
        the plan, each drop that connection (re-leasing its items) — not
        the coordinator — and a real worker still finishes the plan
        bit-identical to serial."""
        stream = make_stream()
        producer = FabricProducer(spec_for(stream, small_config()),
                                  prefetch_batches=6, timeout=60.0)
        total = len(producer.plan)

        def assert_dropped(sock):
            assert sock.recv(1) == b""

        def leased_worker(name):
            sock = socket.create_connection(producer.address, timeout=10.0)
            send_frame(sock, {
                "type": HELLO, "version": PROTOCOL_VERSION, "name": name,
                "capacity": 1,
                "shard_fingerprint": shard_fingerprint(producer.shard_dir)})
            assert recv_frame(sock)["type"] == WELCOME
            assert recv_frame(sock)["type"] == LEASE
            return sock

        harness = WorkerHarness(producer.address, producer.shard_dir)
        try:
            with socket.create_connection(producer.address,
                                          timeout=10.0) as sock:
                sock.sendall(encode_frame([1, 2]))
                assert_dropped(sock)
            with leased_worker("no-seq") as sock:
                send_frame(sock, {"type": RESULT, "batch": None})
                assert_dropped(sock)
            with leased_worker("far-seq") as sock:
                send_frame(sock, {"type": RESULT, "seq": total,
                                  "batch": None})
                assert_dropped(sock)
            assert producer.coordinator.thread_alive
            harness.start("good")
            batches = list(producer)
            stats = producer.stats()
        finally:
            producer.close()
        harness.join()
        reference = self.serial(stream)
        assert len(batches) == len(reference) == total
        for a, b in zip(reference, batches):
            assert_prepared_equal(a, b)
        reasons = {reason for _, reason, _ in stats["reclaim_log"]}
        assert {"disconnect:no-seq", "disconnect:far-seq"} <= reasons
        stats = producer.stats()  # closed: every worker has left
        assert (stats["workers_joined"], stats["workers_left"]) == (3, 3)

    def test_worker_production_error_aborts_run(self, monkeypatch):
        """Production failure on a worker sends ERROR and aborts the run
        with the worker's traceback, instead of stalling forever."""
        stream = make_stream()
        producer = FabricProducer(spec_for(stream, small_config()),
                                  timeout=30.0)

        def boom(ctx, item):
            raise RuntimeError("synthetic production failure")

        monkeypatch.setattr("repro.fabric.worker.produce_batch", boom)

        def boomer():
            try:
                FabricWorker(producer.address, producer.shard_dir,
                             name="boomer").run()
            except Exception:
                pass  # the worker re-raises after reporting; expected

        thread = threading.Thread(target=boomer, daemon=True)
        thread.start()
        try:
            with pytest.raises(StreamError, match="synthetic production"):
                list(producer)
        finally:
            producer.close()
        thread.join(10.0)


# ----------------------------------------------------------------------
# end-to-end pretraining acceptance (the ISSUE bar)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("backbone", ["tgn", "jodie", "dyrep"])
class TestFabricPretrainAcceptance:
    def pretrain(self, backbone, stream, **overrides):
        cfg = small_config(**overrides)
        trainer = CPDGPreTrainer.from_backbone(backbone, stream.num_nodes,
                                               cfg)
        return trainer.pretrain(stream)

    def test_fabric_bit_identical_under_chaos(self, backbone, tmp_path):
        """Two workers — one killed mid-run, one joining late — against
        the serial reference: loss history and final state identical."""
        stream = make_stream()
        reference = self.pretrain(backbone, stream, num_workers=0)

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        shard_dir = str(tmp_path / "shards")
        harness = WorkerHarness(("127.0.0.1", port), shard_dir)
        harness.start("doomed", delay=0.2, max_results=2)
        harness.start("late", delay=0.6)
        result = self.pretrain(backbone, stream,
                               fabric=f"127.0.0.1:{port}",
                               shard_dir=shard_dir,
                               fabric_lease_timeout=15.0)
        harness.join()
        # A configured shard_dir is the remote workers' mount: kept.
        assert has_csr_shards(shard_dir)

        np.testing.assert_array_equal(np.asarray(reference.loss_history),
                                      np.asarray(result.loss_history))
        np.testing.assert_array_equal(reference.memory_state,
                                      result.memory_state)
        np.testing.assert_array_equal(reference.last_update,
                                      result.last_update)
        for key in reference.encoder_state:
            np.testing.assert_array_equal(reference.encoder_state[key],
                                          result.encoder_state[key],
                                          err_msg=key)
        assert harness.stats["doomed"]["graceful"] is False
