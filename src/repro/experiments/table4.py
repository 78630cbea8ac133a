"""Table IV — complexity of fine-tuning strategies (paper §IV-D).

The paper reports asymptotic complexity: full = O(D), EIE-mean =
O(D+N+1), EIE-attn = O(D+2N), EIE-GRU = O(D+N+NL²).  We verify the shape
empirically: measured wall-clock per fine-tuning epoch should order
``full ≤ eie-mean ≤ eie-attn ≤ eie-gru`` and EIE-GRU should grow with L.
Next to the wall-clock (tens of milliseconds at test scale, so noisy)
each row carries a deterministic cost, ``graph ops``: the autograd nodes
recorded while the strategy fine-tunes.  The fine-tune step is compiled,
so that is the op count of the one step that gets traced (replayed steps
record nothing) — the size of the step's graph, not a per-epoch total —
and it orders the strategies the same way on every run.
"""

from __future__ import annotations

from dataclasses import replace

from ..api import Pipeline, RunConfig
from ..nn.autograd import graph_nodes_created
from .common import SCALES, ExperimentResult

__all__ = ["run", "STRATEGIES", "PAPER_COMPLEXITY"]

STRATEGIES = ("full", "eie-mean", "eie-attn", "eie-gru")
PAPER_COMPLEXITY = {
    "full": "O(D)",
    "eie-mean": "O(D + N + 1)",
    "eie-attn": "O(D + 2N)",
    "eie-gru": "O(D + N + N L^2)",
}


def run(scale: str = "default", backbone: str = "jodie",
        verbose: bool = True) -> ExperimentResult:
    """Measure per-epoch fine-tuning wall-clock for each strategy."""
    exp = SCALES[scale]
    result = ExperimentResult(
        experiment="Table IV: fine-tuning complexity (measured)",
        columns=["strategy", "paper complexity", "seconds/epoch",
                 "graph ops"])
    data = exp.resolve("amazon:beauty", "time", "arts")
    config = RunConfig(
        backbone=backbone, task="link_prediction",
        pretrain=exp.cpdg.with_overrides(seed=exp.seeds[0]),
        finetune=replace(exp.finetune, epochs=1, patience=1,
                         seed=exp.seeds[0]))
    pipeline = Pipeline(config).pretrain(data.pretrain)

    for strategy in STRATEGIES:
        ops_before = graph_nodes_created()
        pipeline.finetune(split=data.downstream, strategy=strategy)
        elapsed = pipeline.train_seconds
        result.add_row(strategy=strategy,
                       **{"paper complexity": PAPER_COMPLEXITY[strategy],
                          "seconds/epoch": round(elapsed, 3),
                          "graph ops": graph_nodes_created() - ops_before})
        if verbose:
            print(f"[table4] {strategy:9s} {elapsed:.3f}s/epoch "
                  f"({PAPER_COMPLEXITY[strategy]})")
    return result
