"""``repro obs report``: a per-stage latency/throughput table from a
JSONL trace log.

Aggregates span records by name into count / total / mean / p50 / p99
(nearest-rank, via :func:`~repro.obs.metrics.summarize_latencies`) and
each stage's share of the run — the "where did this step's milliseconds
go" answer for a finished run, offline.  Spans nest per thread
(``serve.compute`` runs inside ``serve.embed``), so the share is
of *self* time: a span's wall time minus what its child spans cover.
Shares therefore add up to at most 1 instead of counting nested work
once per level.  Spans recorded in another process (batch production,
``produce.*``, shipped back by the forked producer) have no parent and
overlap the main thread's.
"""

from __future__ import annotations

import json

from .metrics import summarize_latencies

__all__ = ["load_trace", "aggregate_spans", "format_report"]


def load_trace(path: str) -> list[dict]:
    """Parse a JSONL trace log; malformed lines raise (a trace log is a
    machine artifact — silent skipping would hide a writer bug)."""
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: not valid JSON: {exc}") from exc
            if "name" not in record or "wall_s" not in record:
                raise ValueError(f"{path}:{lineno}: span record missing "
                                 "'name'/'wall_s'")
            records.append(record)
    return records


def aggregate_spans(records: list[dict]) -> list[dict]:
    """Per-name rows sorted by total wall time, descending.

    ``self_s`` is the name's wall time not covered by child spans (a
    record's ``parent`` names the ``span`` that enclosed it) and
    ``share`` is ``self_s`` over the summed self time of the log.  A
    child that outlasts its parent — a span measured in another process
    — leaves the parent 0, not negative.
    """
    by_name: dict[str, list[float]] = {}
    cpu: dict[str, float] = {}
    covered: dict[str, float] = {}
    for record in records:
        name = record["name"]
        by_name.setdefault(name, []).append(float(record["wall_s"]))
        cpu[name] = cpu.get(name, 0.0) + float(record.get("cpu_s", 0.0))
        parent = record.get("parent")
        if parent is not None:
            covered[parent] = (covered.get(parent, 0.0)
                               + float(record["wall_s"]))
    self_time: dict[str, float] = dict.fromkeys(by_name, 0.0)
    for record in records:
        own = float(record["wall_s"]) - covered.get(record.get("span"), 0.0)
        self_time[record["name"]] += max(own, 0.0)
    grand_total = sum(self_time.values()) or 1.0
    rows = []
    for name, walls in by_name.items():
        summary = summarize_latencies(walls)
        total = sum(walls)
        rows.append({
            "span": name,
            "count": summary["count"],
            "total_s": round(total, 6),
            "self_s": round(self_time[name], 6),
            "mean_ms": round(summary["mean"] * 1e3, 3),
            "p50_ms": round(summary["p50"] * 1e3, 3),
            "p99_ms": round(summary["p99"] * 1e3, 3),
            "cpu_s": round(cpu[name], 6),
            "share": round(self_time[name] / grand_total, 4),
        })
    rows.sort(key=lambda r: r["total_s"], reverse=True)
    return rows


def format_report(records: list[dict]) -> str:
    """Render the aggregate rows as an aligned text table."""
    rows = aggregate_spans(records)
    if not rows:
        return "trace log contains no spans"
    headers = ("span", "count", "total_s", "self_s", "mean_ms", "p50_ms",
               "p99_ms", "cpu_s", "share")
    table = [headers] + [
        (r["span"], str(r["count"]), f"{r['total_s']:.3f}",
         f"{r['self_s']:.3f}", f"{r['mean_ms']:.3f}", f"{r['p50_ms']:.3f}",
         f"{r['p99_ms']:.3f}", f"{r['cpu_s']:.3f}",
         f"{r['share'] * 100:.1f}%")
        for r in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(table):
        cells = [row[0].ljust(widths[0])]
        cells += [cell.rjust(w) for cell, w in zip(row[1:], widths[1:])]
        lines.append("  ".join(cells))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    total = sum(r["self_s"] for r in rows)
    traces = len({r.get("trace") for r in records})
    lines.append(f"{len(records)} spans across {traces} trace(s); "
                 f"summed self time {total:.3f}s")
    return "\n".join(lines)
