"""Compare two result sets: ``python3 bench/compare.py A B``.

``A`` and ``B`` are ``runs.jsonl`` files written by ``run.py`` (or the
directories that hold them); ``A`` is the base.  One row is printed per
(end-to-end metric, workload) with both medians, the ratio ``B/A``, the
bound from ``BENCHMARK.json`` and a verdict:

* ``worse``      - B's median is worse than A's by more than the bound;
* ``unresolved`` - not worse, but the spread of A or B (distance between
  the first and third quartile as a share of the median) is wider than
  the bound, so a change of that size could not have been seen;
* ``ok``         - otherwise.

Exits non-zero when any row is ``worse``.  Traced and smoke runs are left
out: their end-to-end numbers come from fewer repetitions.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    """``{(workload, metric): [values]}`` of one result set."""
    file = Path(path)
    if file.is_dir():
        file = file / "runs.jsonl"
    values = defaultdict(list)
    with open(file) as fh:
        for line in fh:
            run = json.loads(line)
            if run.get("smoke") or "per_layer" in run:
                continue
            for metric, value in run["end_to_end"].items():
                values[(run["workload"], metric)].append(value)
    return values


def spread(values: list) -> float:
    """Interquartile distance as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(base: list, other: list, better: str, bound: float) -> str:
    a, b = statistics.median(base), statistics.median(other)
    loss = (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)
    if loss > bound:
        return "worse"
    if max(spread(base), spread(other)) > bound:
        return "unresolved"
    return "ok"


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        benchmark = json.load(fh)
    base, other = load(argv[0]), load(argv[1])
    print(f"{'workload':14s} {'metric':16s} {'A median':>12s} {'B median':>12s}"
          f" {'B/A':>7s} {'bound':>6s} {'spread A':>9s} {'spread B':>9s}"
          "  verdict")
    worse = 0
    for workload in (w["name"] for w in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base or key not in other:
                continue
            a, b = base[key], other[key]
            result = verdict(a, b, metric["better"], metric["bound"])
            worse += result == "worse"
            med_a, med_b = statistics.median(a), statistics.median(b)
            print(f"{workload:14s} {metric['name']:16s} {med_a:12.5g} "
                  f"{med_b:12.5g} {med_b / med_a:7.3f} {metric['bound']:6.2f}"
                  f" {spread(a):9.3f} {spread(b):9.3f}  {result}"
                  f"  (base A={med_a:.5g} {metric['unit']}, "
                  f"n={len(a)}/{len(b)})")
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
