"""One stats surface: every count lives in a ``repro.obs`` counter its
owner holds, and ``stats()`` reads the owner's own counters.

* a service's ``stats()`` after a fixed schedule equals what the commit
  before the stats classes were folded away reported, and ``/metrics``
  renders every metric family it rendered then
  (``tests/fixtures/parent_stats.json``, :mod:`tests.parent_stats`),
  less the names ``parent_stats.REMOVED`` lists as deleted since, and
  with the keys ``parent_stats.CHANGED`` lists at their second recording
  (``tests/fixtures/changed_stats.json``);
* two live services in one process keep separate ``stats()``, while
  ``/metrics`` shows the newer one's counters (latest instance wins);
* the counts that were plain ints before — the index's, the finder's
  compactions, the background compactor's generations — appear on
  ``/metrics`` with the values ``stats()`` reports.
"""

from __future__ import annotations

import json
import re

import numpy as np

from repro import obs
from repro.serve import EmbeddingService

from . import parent_fixtures as parent
from . import parent_stats
from .parent_snapshot import block


def metric_value(text: str, name: str, **labels) -> float:
    """The sample ``name{labels}`` of a Prometheus text exposition."""
    body = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    key = f"{name}{{{body}}}" if body else name
    match = re.search(r"^" + re.escape(key) + r" (\S+)$", text, re.M)
    assert match, f"{key} missing from /metrics"
    return float(match.group(1))


class TestParentRecording:

    def test_stats_and_metric_families_match_the_parent(self):
        service = parent_stats.build_service()
        try:
            parent_stats.schedule(service)
            want = parent_stats.expected()
            assert parent_stats.stats_row(service) == want["stats"]
            rendered = parent_stats.metric_families(obs.render_prometheus())
            assert set(want["metric_families"]) <= set(rendered)
        finally:
            service.close()

    def test_changed_keys_moved(self):
        """Each key listed as changed differs from the parent's value, so
        the list names exactly the keys that moved."""
        with open(parent_stats.STATS_PATH) as fh:
            then = json.load(fh)["stats"]
        now = parent_stats.expected()["stats"]
        for dotted in parent_stats.CHANGED:
            old, leaf = parent_stats.leaf_of(then, dotted)
            new, _ = parent_stats.leaf_of(now, dotted)
            assert old[leaf] != new[leaf], dotted


class TestTwoServices:

    def test_each_service_reads_its_own_counters(self):
        older = parent_stats.build_service()
        newer = parent_stats.build_service()
        try:
            parent_stats.schedule(older)
            newer.embed(parent.EMBED_NODES, 150.0)
            # The older service's stats are untouched by the newer one.
            assert parent_stats.stats_row(older) == \
                parent_stats.expected()["stats"]
            stats = newer.stats()
            queries = len(parent.EMBED_NODES)
            assert stats["planner"]["queries"] == queries
            assert stats["ingest"]["blocks"] == 0
            assert stats["index"] is None
            text = obs.render_prometheus()
            assert metric_value(
                text, "repro_serve_planner_queries_total") == queries
            assert metric_value(
                text, "repro_serve_ingest_blocks_total") == 0
        finally:
            older.close()
            newer.close()


class TestNewMetrics:

    def test_index_and_compaction_counts_on_metrics(self):
        service = EmbeddingService.from_artifact(
            parent.ARTIFACT_PATH, history=parent.tiny_stream(), index=True,
            compaction_threshold=40)
        try:
            t = 100.0
            for step in range(4):
                service.ingest(**block(seed=30 + step, t0=t))
                t += 10.0
                service.top_k(step, t, 5)
            assert service._compactor.drain()
            stats = service.stats()
            text = obs.render_prometheus()
            for name in ("queries", "probes", "scanned", "rebuilds",
                         "replaced"):
                assert metric_value(
                    text, f"repro_serve_index_{name}_total") \
                    == stats["index"][name], name
            assert stats["index"]["queries"] == 4
            graph = stats["graph"]
            assert graph["compactions"] >= 1
            assert metric_value(
                text, "repro_serve_graph_compactions_total") \
                == graph["compactions"]
            compactor = graph["compactor"]
            assert compactor["idle"] is True
            assert compactor["generations"] == graph["compactions"]
            for name in ("generations", "superseded"):
                assert metric_value(
                    text, f"repro_serve_compactor_{name}_total") \
                    == compactor[name], name
        finally:
            service.close()

    def test_ingest_percentiles_come_from_the_histogram(self):
        service = EmbeddingService.from_artifact(
            parent.ARTIFACT_PATH, history=parent.tiny_stream(),
            background_compaction=False)
        try:
            for step in range(3):
                service.ingest(**block(seed=40 + step, t0=100.0 + 10 * step))
            hist = service._ingestor.block_hist
            assert hist.count == 3
            summary = hist.summary()
            assert summary["count"] == 3
            assert 0.0 < summary["p50"] <= summary["p99"]
            np.testing.assert_allclose(
                hist.sum, float(service._ingestor.counters["seconds"]))
        finally:
            service.close()
