"""Run every experiment at default scale, saving formatted tables.

Tables land next to this script regardless of the working directory; the
process exits nonzero if any experiment failed so CI / harnesses notice.
Pre-training artifacts are cached on disk under ``results/.pretrain_cache``
(override with ``REPRO_PRETRAIN_CACHE``), so re-runs and sweep cells that
share a pre-training reuse it across process restarts.
"""
import os
import sys
import time
import traceback

OUT_DIR = os.path.dirname(os.path.abspath(__file__))

# Must be set before experiment runners construct their PretrainCache.
os.environ.setdefault("REPRO_PRETRAIN_CACHE",
                      os.path.join(OUT_DIR, ".pretrain_cache"))

from repro.experiments import run_experiment  # noqa: E402
from repro.stream import StreamError  # noqa: E402

ORDER = ["table5_6", "table4", "table8", "table11", "figure6", "figure8",
         "figure7", "figure5", "table10", "table9", "table7"]


def main() -> int:
    failed: list[str] = []
    for name in ORDER:
        t0 = time.time()
        try:
            result = run_experiment(name, scale="default", verbose=False)
            out = result.format_table()
            elapsed = time.time() - t0
            with open(os.path.join(OUT_DIR, f"{name}.txt"), "w") as fh:
                fh.write(out + f"\n\n[elapsed: {elapsed:.1f}s]\n")
            print(f"DONE {name} in {elapsed:.1f}s", flush=True)
        except StreamError as exc:
            # Producer misconfiguration is an operator problem, not a bug:
            # say what to change instead of dumping a multiprocessing
            # traceback.
            failed.append(name)
            print(f"FAIL {name}: {exc}\n"
                  "hint: set num_workers=0 (one producer child) "
                  "or lower the worker count for this machine/stream",
                  flush=True)
        except Exception as exc:
            failed.append(name)
            print(f"FAIL {name}: {exc}", flush=True)
            traceback.print_exc()
    if failed:
        print(f"{len(failed)}/{len(ORDER)} experiments failed: "
              f"{', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
