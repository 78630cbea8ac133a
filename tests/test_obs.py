"""The `repro.obs` subsystem: metrics registry, span tracing, report.

Load-bearing guarantees:

* counters never lose increments under concurrent threads and read
  back as ``int(c)`` / ``float(c)``;
* histogram bucket edges follow Prometheus ``le`` semantics (a value
  equal to an edge lands in that edge's bucket) and the rendered text
  parses as valid exposition format;
* the disabled tracing path is a shared no-op singleton — no records,
  no allocations per span;
* a traced run writes well-formed JSONL that ``repro obs report`` can
  aggregate, and serve's ``GET /metrics`` reflects requests it just
  served.
"""

from __future__ import annotations

import json
import re
import threading

import numpy as np
import pytest

from repro import obs
from repro.api import Pipeline, PretrainArtifact, RunConfig, stream_fingerprint
from repro.core import CPDGConfig
from repro.datasets import split_downstream
from repro.core.pretrainer import CPDGPreTrainer
from repro.graph.events import EventStream
from repro.obs.metrics import DEFAULT_BUCKETS, Counter, Histogram
from repro.obs.trace import _NOOP, BUFFER_SPANS
from repro.serve import EmbeddingService, HttpClient, start_http_server


@pytest.fixture(autouse=True)
def _tracing_off():
    """Every test starts and ends with tracing disabled and drained."""
    obs.reset()
    yield
    obs.reset()


# ======================================================================
# metrics registry
# ======================================================================

class TestCounter:

    def test_int_semantics(self):
        c = Counter("test_counter_total")
        c.inc(2)
        c.inc(3)
        assert int(c) == 5 and float(c) == 5.0

    def test_float_increments(self):
        c = Counter("test_seconds_total")
        c.inc(0.25)
        c.inc(0.5)
        assert float(c) == pytest.approx(0.75)

    def test_thread_safety(self):
        c = Counter("test_threaded_total")
        threads_n, per_thread = 8, 5000

        def hammer():
            for _ in range(per_thread):
                c.inc()

        threads = [threading.Thread(target=hammer)
                   for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert int(c) == threads_n * per_thread


class TestHistogram:

    def test_bucket_edges(self):
        h = Histogram("test_latency_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.1, 0.5, 1.0, 5.0):
            h.observe(value)
        # le-semantics: a value equal to an edge counts in that bucket.
        np.testing.assert_array_equal(h.bucket_counts(), [2, 2, 1])
        assert h.count == 5
        assert h.sum == pytest.approx(6.65)

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("test_bad", buckets=(1.0, 0.1))

    def test_raw_ring_buffer_bounded(self):
        h = Histogram("test_ring_seconds", buckets=(1.0,))
        for i in range(1500):
            h.observe(float(i))
        assert h.count == 1500
        assert h.raw_samples().size == 1024  # ring keeps the newest 1024

    def test_summary_nearest_rank(self):
        h = Histogram("test_summary_seconds", buckets=DEFAULT_BUCKETS)
        for i in range(1, 101):
            h.observe(i / 1000.0)
        summary = h.summary()
        assert summary["p50"] == pytest.approx(0.050)
        assert summary["p99"] == pytest.approx(0.099)
        assert summary["max"] == pytest.approx(0.100)


class TestRegistry:

    def test_get_or_create_and_replace(self):
        a = obs.counter("test_registry_total", labels={"k": "v"})
        b = obs.counter("test_registry_total", labels={"k": "v"})
        assert a is b
        a.inc(3)
        fresh = obs.counter("test_registry_total", labels={"k": "v"},
                            replace=True)
        assert fresh is not a and int(fresh) == 0

    def test_kind_conflict_raises(self):
        obs.counter("test_conflict_metric")
        with pytest.raises(ValueError):
            obs.gauge("test_conflict_metric")

    def test_snapshot_is_json_able(self):
        obs.counter("test_snap_total").inc(2)
        obs.histogram("test_snap_seconds").observe(0.01)
        snap = json.loads(json.dumps(obs.snapshot()))
        assert snap["test_snap_total"] == 2
        assert snap["test_snap_seconds"]["count"] == 1


class TestPrometheusText:

    # One exposition-format sample line: name{labels} value
    SAMPLE = re.compile(
        r'^[a-zA-Z_:][a-zA-Z0-9_:]*'
        r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'
        r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
        r' (-?[0-9.]+(e[+-]?[0-9]+)?|\+Inf|NaN)$')

    def test_output_parses(self):
        obs.counter("test_prom_total", labels={"worker": "w0"},
                    help="a counter").inc(7)
        obs.gauge("test_prom_depth", help="a gauge").set(2.5)
        hist = obs.histogram("test_prom_seconds", buckets=(0.1, 1.0),
                             help="a histogram")
        hist.observe(0.05)
        hist.observe(0.5)
        text = obs.render_prometheus()
        assert text.endswith("\n")
        for line in text.rstrip("\n").split("\n"):
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                continue
            assert self.SAMPLE.match(line), f"unparsable line: {line!r}"
        assert 'test_prom_total{worker="w0"} 7' in text
        assert "# TYPE test_prom_seconds histogram" in text

    def test_histogram_cumulative_buckets(self):
        hist = obs.histogram("test_cumul_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 2.0):
            hist.observe(value)
        text = obs.render_prometheus()
        assert 'test_cumul_seconds_bucket{le="0.1"} 1' in text
        assert 'test_cumul_seconds_bucket{le="1"} 2' in text
        assert 'test_cumul_seconds_bucket{le="+Inf"} 3' in text
        assert "test_cumul_seconds_count 3" in text

    def test_label_escaping(self):
        obs.counter("test_escape_total", labels={"path": 'a"b\\c'})
        text = obs.render_prometheus()
        assert r'path="a\"b\\c"' in text


class TestSummarizeLatencies:

    def test_nearest_rank(self):
        samples = [i / 10.0 for i in range(1, 101)]  # 0.1 .. 10.0
        summary = obs.summarize_latencies(samples)
        assert summary["count"] == 100
        assert summary["p50"] == pytest.approx(5.0)   # an observed sample
        assert summary["p99"] == pytest.approx(9.9)
        assert summary["max"] == pytest.approx(10.0)

    def test_small_and_empty_inputs(self):
        assert obs.summarize_latencies([]) == {
            "count": 0, "mean": 0.0, "max": 0.0, "p50": 0.0, "p99": 0.0}
        one = obs.summarize_latencies([0.3])
        assert one["p50"] == one["p99"] == one["max"] == pytest.approx(0.3)

    def test_custom_percentiles(self):
        summary = obs.summarize_latencies(range(1, 11),
                                          percentiles=(10, 90))
        assert summary["p10"] == 1.0 and summary["p90"] == 9.0


# ======================================================================
# span tracing
# ======================================================================

class TestTracing:

    def test_disabled_mode_is_shared_noop(self):
        assert not obs.is_enabled()
        s1, s2 = obs.span("pretrain.forward"), obs.span("serve.embed", k=3)
        assert s1 is s2 is _NOOP
        with s1:
            pass
        assert obs.trace_buffer() == []

    def test_span_records_nest(self):
        obs.configure(enabled=True)
        with obs.span("outer", step=1):
            with obs.span("inner"):
                pass
        inner, outer = obs.trace_buffer()  # inner exits first
        assert inner["name"] == "inner" and outer["name"] == "outer"
        assert inner["trace"] == outer["trace"]
        assert inner["parent"] == outer["span"]
        assert outer["parent"] is None
        assert outer["attrs"] == {"step": 1}
        assert outer["wall_s"] >= 0.0 and "cpu_s" in outer

    def test_span_feeds_latency_histogram(self):
        obs.configure(enabled=True)
        with obs.span("test.stage"):
            pass
        hist = obs.histogram("repro_span_seconds",
                             labels={"span": "test.stage"})
        assert hist.count >= 1

    def test_error_annotation_and_last_span(self):
        obs.configure(enabled=True)
        with pytest.raises(RuntimeError):
            with obs.span("test.crashy"):
                raise RuntimeError("boom")
        assert obs.last_span() == "test.crashy"
        assert obs.trace_buffer()[-1]["error"] == "RuntimeError"

    def test_jsonl_sink_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        obs.configure(enabled=True, trace_path=path)
        with obs.span("pretrain.forward"):
            pass
        with obs.span("pretrain.backward"):
            pass
        obs.flush()
        records = obs.load_trace(path)
        assert [r["name"] for r in records] == ["pretrain.forward",
                                                "pretrain.backward"]

    def test_load_trace_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "ok", "wall_s": 0.1}\nnot json\n')
        with pytest.raises(ValueError, match="not valid JSON"):
            obs.load_trace(str(path))
        path.write_text('{"wall_s": 0.1}\n')
        with pytest.raises(ValueError, match="missing"):
            obs.load_trace(str(path))

    def test_record_remote_noop_when_disabled(self):
        obs.record_remote({"name": "x", "wall_s": 0.1})
        obs.record_remote("garbage")
        assert obs.trace_buffer() == []

    def test_buffer_is_bounded(self):
        obs.configure(enabled=True)
        total = BUFFER_SPANS + 5
        for i in range(total):
            with obs.span(f"s{i}"):
                pass
        buf = obs.trace_buffer()
        assert len(buf) == BUFFER_SPANS
        assert (buf[0]["name"], buf[-1]["name"]) == ("s5", f"s{total - 1}")


class TestReport:

    def _records(self):
        return ([{"name": "pretrain.forward", "trace": "t1",
                  "wall_s": 0.010, "cpu_s": 0.008}] * 4
                + [{"name": "pretrain.backward", "trace": "t1",
                    "wall_s": 0.030, "cpu_s": 0.028}] * 2)

    def test_aggregate_rows(self):
        rows = obs.aggregate_spans(self._records())
        assert [r["span"] for r in rows] == ["pretrain.backward",
                                             "pretrain.forward"]
        backward = rows[0]
        assert backward["count"] == 2
        assert backward["total_s"] == pytest.approx(0.060)
        assert backward["share"] == pytest.approx(0.6)
        assert sum(r["share"] for r in rows) == pytest.approx(1.0)

    def test_nested_spans_share_self_time(self):
        """A parent's share excludes what its children cover, so shares
        add up to at most 1 (the old table summed nested work twice)."""
        records = [
            {"name": "pretrain.produce", "span": "p1", "parent": None,
             "wall_s": 0.050},
            {"name": "produce.eta_bfs", "span": "c1", "parent": "p1",
             "wall_s": 0.030},
            {"name": "produce.eps_dfs", "span": "c2", "parent": "p1",
             "wall_s": 0.010},
            {"name": "pretrain.forward", "span": "f1", "parent": None,
             "wall_s": 0.050},
            # A child measured in another process, longer than its parent.
            {"name": "produce.wait", "span": "w1", "parent": None,
             "wall_s": 0.010},
            {"name": "produce.negatives", "span": "r1", "parent": "w1",
             "wall_s": 0.020},
        ]
        rows = {r["span"]: r for r in obs.aggregate_spans(records)}
        assert rows["pretrain.produce"]["total_s"] == pytest.approx(0.050)
        assert rows["pretrain.produce"]["self_s"] == pytest.approx(0.010)
        assert rows["produce.eta_bfs"]["self_s"] == pytest.approx(0.030)
        assert rows["produce.wait"]["self_s"] == 0.0
        # 0.010 + 0.030 + 0.010 + 0.050 + 0 + 0.020 = 0.120 of self time.
        assert rows["pretrain.forward"]["share"] == pytest.approx(
            0.050 / 0.120, abs=1e-4)
        assert sum(r["share"] for r in rows.values()) <= 1.0 + 1e-3
        assert "self_s" in obs.format_report(records)

    def test_format_report_table(self):
        text = obs.format_report(self._records())
        assert "pretrain.backward" in text and "pretrain.forward" in text
        assert "6 spans across 1 trace(s)" in text
        assert obs.format_report([]) == "trace log contains no spans"


# ======================================================================
# resource gauges
# ======================================================================

class TestResourceGauges:

    def test_peak_rss_set_at_the_end_of_every_pipeline_stage(
            self, tiny_stream):
        pretrain, rest = tiny_stream.split_fraction([0.6, 0.4])
        pipe = Pipeline(RunConfig.from_dict({
            "pretrain": dict(eta=3, epsilon=3, depth=1, epochs=1,
                             batch_size=64, memory_dim=8, embed_dim=8,
                             time_dim=4, n_neighbors=3, num_checkpoints=2,
                             seed=0),
            "finetune": {"epochs": 1, "batch_size": 64, "eie_out_dim": 4}}))
        peak = obs.gauge("repro_process_peak_rss_bytes")
        for stage in (lambda: pipe.pretrain(pretrain),
                      lambda: pipe.finetune(split=split_downstream(rest)),
                      pipe.evaluate):
            peak.set(0)
            stage()
            assert peak.value > 2 ** 20      # bytes, not kilobytes


# ======================================================================
# serve GET /metrics round trip
# ======================================================================

NUM_NODES = 40
EVENTS = 160


def _tiny_service() -> EmbeddingService:
    rng = np.random.default_rng(11)
    stream = EventStream(
        src=rng.integers(0, NUM_NODES // 2, EVENTS),
        dst=rng.integers(NUM_NODES // 2, NUM_NODES, EVENTS),
        timestamps=np.sort(rng.uniform(0.0, 100.0, EVENTS)),
        num_nodes=NUM_NODES, name="obs-test")
    config = RunConfig(pretrain=CPDGConfig(
        epochs=1, batch_size=80, memory_dim=8, embed_dim=8, time_dim=4,
        n_neighbors=5, num_checkpoints=2, seed=0))
    trainer = CPDGPreTrainer.from_backbone(
        config.backbone, stream.num_nodes, config.pretrain, delta_scale=1.0)
    artifact = PretrainArtifact(
        result=trainer.pretrain(stream), run_config=config,
        num_nodes=stream.num_nodes, delta_scale=1.0,
        dataset_fingerprint=stream_fingerprint(stream),
        dataset_name=stream.name)
    return EmbeddingService.from_artifact(artifact, history=stream)


def _count_of(text: str, metric: str, **labels) -> int:
    body = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    pattern = re.escape(f"{metric}{{{body}}}" if body else metric) + r" (\d+)"
    match = re.search(pattern, text)
    assert match, f"{metric} with {labels} missing from /metrics"
    return int(match.group(1))


class TestServeSpans:

    def test_traced_embed_emits_compute_under_embed(self):
        """The encoder pass is a span of its own, the child of the
        request that caused it, carrying the rows it computed."""
        service = _tiny_service()
        obs.configure(enabled=True)
        service.embed([1, 2, 3, 3], 150.0)
        spans = {record["name"]: record for record in obs.trace_buffer()}
        compute, embed = spans["serve.compute"], spans["serve.embed"]
        assert compute["trace"] == embed["trace"]
        assert compute["parent"] == embed["span"]
        assert embed["attrs"] == {"rows": 4}
        assert compute["attrs"] == {"rows": 3}      # duplicates coalesced


class TestServeMetricsEndpoint:

    def test_get_metrics_reflects_requests(self):
        service = _tiny_service()
        server, _ = start_http_server(service)
        try:
            client = HttpClient(
                f"http://127.0.0.1:{server.server_address[1]}")
            before = _count_of(client.metrics(),
                               "repro_serve_request_seconds_count",
                               endpoint="embed")
            t = 150.0
            client.embed([1, 2, 3], t)
            client.topk(0, t, 4)
            client.ingest([1], [NUM_NODES - 1], [t + 1.0])
            text = client.metrics()
            assert text.rstrip().splitlines()[0].startswith("# ")
            after = _count_of(text, "repro_serve_request_seconds_count",
                              endpoint="embed")
            assert after == before + 1
            assert _count_of(text, "repro_serve_request_seconds_count",
                             endpoint="top_k") >= 1
            assert _count_of(text, "repro_serve_ingest_block_seconds_count",
                             ) >= 1
            assert _count_of(text, "repro_serve_planner_requests_total") >= 2
            assert _count_of(text, "repro_serve_ingest_events_total") >= 1
        finally:
            server.shutdown()

    def test_neighbor_query_paths_and_ring_rows(self):
        """Which path answered the encoder's neighbour queries (the ring,
        or the CSRs for a query so far in the past that a row's ring
        holds only entries at or after it), and how many nodes the ring
        holds."""
        service = _tiny_service()
        server, _ = start_http_server(service)
        try:
            client = HttpClient(
                f"http://127.0.0.1:{server.server_address[1]}")
            client.embed([1, 2, 3], 150.0)          # after every event
            text = client.metrics()
            assert _count_of(text, "repro_serve_neighbor_queries_total",
                             path="ring") == 1
            assert _count_of(text, "repro_serve_neighbor_queries_total",
                             path="csr") == 0
            # Every node with history is some entry's neighbour.
            active = len(np.unique(service.finder._base.neighbors))
            assert _count_of(text, "repro_serve_neighbor_ring_slots"
                             ) == active
            client.embed([1, 2, 3], 50.0)           # a past timestamp
            # A node with more entries than its ring holds, asked before
            # all of them: what it had then is not in the ring.
            degree = np.diff(service.finder._base.indptr)
            hub = int(np.argmax(degree))
            assert degree[hub] > service.finder._ring.width
            client.embed([hub], 0.0)
            client.ingest([1], [NUM_NODES - 1], [151.0])
            text = client.metrics()
            assert _count_of(text, "repro_serve_neighbor_queries_total",
                             path="ring") == 2
            assert _count_of(text, "repro_serve_neighbor_queries_total",
                             path="csr") == 1
            assert "# TYPE repro_serve_neighbor_ring_slots gauge" in text
        finally:
            server.shutdown()

    def test_metrics_content_type(self):
        import urllib.request

        service = _tiny_service()
        server, _ = start_http_server(service)
        try:
            url = (f"http://127.0.0.1:{server.server_address[1]}/metrics")
            with urllib.request.urlopen(url, timeout=30.0) as response:
                assert response.status == 200
                ctype = response.headers.get("Content-Type", "")
                assert ctype.startswith("text/plain")
                assert "version=0.0.4" in ctype
                body = response.read().decode()
            assert "# TYPE repro_serve_request_seconds histogram" in body
        finally:
            server.shutdown()
