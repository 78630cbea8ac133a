"""Run the end-to-end benchmark: ``python3 bench/run.py [options]``.

With ``--workload NAME`` one workload runs in this process and the last
line of standard output is the one JSON object the driver reads
(``correct``, ``attempted``, ``failed``, ``metrics``).  Without it each of
the four workloads runs in a child process of its own, so that peak memory
is per workload.  Every metric is also printed by name with its unit, and
the full result is written to ``bench/out/<workload>.json`` and appended
to ``bench/out/runs.jsonl`` (the result set ``compare.py`` reads).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench import BLAS_ENV  # noqa: E402  (needs the path set just above)


def parse_args(argv, names: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed the workload's inputs are made from")
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long repetitions are started for "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="add the traced pass and print the per-layer "
                             "metrics instead of the end-to-end ones")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes plus the oracle self-check")
    parser.add_argument("--out-dir", default=str(BENCH / "out"))
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace, names: list) -> int:
    """One child per workload; the child prints its own table."""
    status = 0
    for name in names:
        command = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--trace", str(args.trace),
                   "--out-dir", args.out_dir]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        if args.smoke:
            command.append("--smoke")
        status = max(status, subprocess.run(command).returncode)
    return status


def main(argv=None) -> int:
    # Pinned in the entry point, before anything imports numpy.
    for name in BLAS_ENV:
        os.environ[name] = "1"
    with open(ROOT / "BENCHMARK.json") as fh:
        benchmark = json.load(fh)
    names = [workload["name"] for workload in benchmark["workloads"]]
    args = parse_args(argv, names)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args, names)

    from bench import harness
    from bench.workloads import WORKLOADS

    seconds = args.seconds
    if seconds is None:
        seconds = benchmark["run_seconds"]
    workload = WORKLOADS[args.workload](args.smoke, args.out_dir)
    result = harness.measure(workload, args.seed, float(seconds),
                             bool(args.trace), args.out_dir)
    result["machine"] = harness.fingerprint(str(ROOT))
    result["smoke"] = args.smoke

    os.makedirs(args.out_dir, exist_ok=True)
    with open(os.path.join(args.out_dir, f"{args.workload}.json"), "w") as fh:
        json.dump(result, fh, indent=2, default=float)
        fh.write("\n")
    with open(os.path.join(args.out_dir, "runs.jsonl"), "a") as fh:
        fh.write(json.dumps(result, default=float) + "\n")
    harness.print_table(result, benchmark)
    print(json.dumps(harness.contract_line(result, bool(args.trace),
                                           benchmark)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
