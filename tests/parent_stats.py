"""A serving replica's ``stats()`` and metric names, frozen at the
commit before the stats classes were folded into the registry.

That change deleted ``PlannerStats``, ``IngestStats``, ``IndexStats``
and ``LedgerCounters`` and made each owner hold its own registry
counters.  Neither the ``/stats`` document nor the metric families
``/metrics`` renders may lose anything.  ``tests/fixtures/
parent_stats.json`` records what the parent commit produced after
:func:`schedule`:

``stats``
    ``service.stats()`` without the wall-clock ``ingest.events_per_sec``;
``metric_families``
    the sorted metric-family names of ``render_prometheus()`` in a fresh
    process that ran only the schedule.

It was written by running this module against the parent's sources::

    PYTHONPATH=<parent checkout>/src python -m tests.parent_stats

Everything here uses only API that exists at both commits.

:data:`REMOVED` names what the recording holds that a replica no longer
reports, on purpose: dotted ``stats`` keys and ``metric_families``
entries.  :data:`CHANGED` names the dotted ``stats`` keys whose values
moved on purpose since; ``tests/fixtures/changed_stats.json`` pins their
values as recorded at that change::

    PYTHONPATH=src python -m tests.parent_stats --changed

:func:`expected` drops exactly the removed names and takes exactly the
changed keys from the second recording, so nothing else may vanish or
move.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

from repro import obs
from repro.serve import EmbeddingService

from . import parent_fixtures as parent
from .parent_snapshot import block

STATS_PATH = os.path.join(parent.FIXTURES, "parent_stats.json")
CHANGED_PATH = os.path.join(parent.FIXTURES, "changed_stats.json")

# The non-exact row cache's policy section and its stale-hit count.
REMOVED = {
    "stats": ("staleness", "planner.stale_hits"),
    "metric_families": ("repro_serve_planner_stale_hits_total",),
}

# An indexed top_k refreshes only the dirty rows its probe scans, and
# ingest marks only catalog rows dirty: fewer rows pass through the
# planner and marks outside the probe survive the schedule.
CHANGED = (
    "cache_rows",
    "index.dirty", "index.replaced",
    "planner.batches", "planner.cache_hit_rate", "planner.cache_hits",
    "planner.cache_misses", "planner.deduped", "planner.queries",
    "planner.requests", "planner.stale_evictions",
)


def build_service() -> EmbeddingService:
    """An indexed, cached replica that compacts inline every few blocks."""
    return EmbeddingService.from_artifact(
        parent.ARTIFACT_PATH, history=parent.tiny_stream(), index=True,
        background_compaction=False, compaction_threshold=40,
        cache_capacity=32)


def schedule(service: EmbeddingService) -> None:
    """Seeded ingest / embed / top_k traffic touching every counter."""
    rng = np.random.default_rng(11)
    t, nodes = 100.0, None
    for step in range(6):
        service.ingest(**block(seed=10 + step, t0=t))
        if nodes is not None:
            service.embed(nodes, t)        # touched fields: refused rows
        t += 10.0
        nodes = rng.integers(0, parent.NUM_NODES, 16)
        service.embed(nodes, t)            # duplicates: deduped rows
        service.embed(nodes[:8], t)        # repeats: cache hits
        service.top_k(int(nodes[0]), t, 5)
        service.top_k(int(nodes[1]), t, 5)


def stats_row(service: EmbeddingService) -> dict:
    """``service.stats()`` without its one wall-clock field."""
    stats = service.stats()
    del stats["ingest"]["events_per_sec"]
    return stats


def metric_families(text: str) -> list[str]:
    """Sorted family names of a Prometheus text exposition."""
    return sorted(line.split()[2] for line in text.splitlines()
                  if line.startswith("# TYPE "))


def leaf_of(stats: dict, dotted: str) -> tuple[dict, str]:
    """The section holding a dotted key, and the key's last part."""
    *path, leaf = dotted.split(".")
    for key in path:
        stats = stats[key]
    return stats, leaf


def expected() -> dict:
    """The recording less :data:`REMOVED`, with :data:`CHANGED` read from
    the second recording; each name required to be in the recordings (so
    the lists cannot outlive what they name)."""
    with open(STATS_PATH) as fh:
        want = json.load(fh)
    with open(CHANGED_PATH) as fh:
        changed = json.load(fh)
    assert sorted(changed) == sorted(CHANGED)
    for dotted in REMOVED["stats"]:
        section, leaf = leaf_of(want["stats"], dotted)
        del section[leaf]
    for dotted in CHANGED:
        section, leaf = leaf_of(want["stats"], dotted)
        assert leaf in section, dotted
        section[leaf] = changed[dotted]
    families = want["metric_families"]
    for name in REMOVED["metric_families"]:
        families.remove(name)
    return want


def record() -> dict:
    service = build_service()
    try:
        schedule(service)
        return {"stats": stats_row(service),
                "metric_families": metric_families(
                    obs.render_prometheus())}
    finally:
        service.close()


def main() -> None:
    """Write the parent recording, or with ``--changed`` the values of
    :data:`CHANGED` at the current sources."""
    if "--changed" in sys.argv[1:]:
        stats = record()["stats"]
        payload = {}
        for dotted in CHANGED:
            section, leaf = leaf_of(stats, dotted)
            payload[dotted] = section[leaf]
        path = CHANGED_PATH
    else:
        payload, path = record(), STATS_PATH
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
